"""The quantifier-free language of contact algebras.

Terms are variables closed under complement and join; formulas are equality
and contact atoms closed under negation and disjunction.  Everything else
is an abbreviation expanded at parse time:

    a.b    ->  -((-a)+(-b))             meet
    0      ->  a.(-a)   (a: first variable of the formula, else "a")
    1      ->  -0
    a<=b   ->  a+b == b
    a!=b   ->  ~(a == b)
    f & g  ->  ~((~f)|(~g))
    f => g ->  (~f)|g
    f <=> g -> (f=>g) & (g=>f)

Concrete syntax: variables ``[a-z][a-z0-9]*``; operators
``- + . == != <= C( , ) ~ | & => <=>``; constants ``0 1``; parentheses.
Precedence, tightest first: unary ``-``, ``.``, ``+``, the non-associative
relations ``== != <=``, ``~``, ``&``, ``|``, ``=>`` (right-associative),
``<=>`` (left-associative); ``.``, ``+``, ``&`` and ``|`` associate to the
left.  One operator table drives the parser, and each operator checks
whether its operands are terms or formulas.  Each operator also gives the
tree height of the node it builds from its operands' heights, so the parser
knows the height of every tree it returns and the ``MAX_NESTING`` limit on
it costs no second walk.

The text is read by one ``findall`` scan into plain token strings (``C(``
is one token; whitespace is skipped by the scan), and a character that
starts no token is rejected before parsing begins.  The parser keeps token
indices, not offsets: a ``FormulaSyntaxError`` gets its character offset
from a second scan, made only for the error.

Terms and formulas are interned as they are built (``_Node``): structurally
equal nodes are one object, so ``==`` and ``hash`` are identity.  Like the
module's other caches, the intern table is not synchronised between
threads.

Every walker over terms and formulas (evaluation, printing, compilation and
the child lists behind ``free_variables`` and scheme matching) dispatches on
``type(node)``, through a table or an ``is`` chain: a ``match`` over class
patterns pays an ``isinstance`` test and attribute lookups for every case it
tries.

Axiom-scheme recognition uses a fixed propositional basis (the standard
three implication/negation schemes), the equational Boolean-algebra basis
(associativity, commutativity, absorption, distributivity, complementation),
the four contact schemes, and the connectedness scheme.

``find_countermodel`` returns the first Kripke model falsifying the
formula: spaces come in ``enumerate_connected_spaces`` order (one per
isomorphism class at every size, by cell count, then canonical bitmask),
and within a space valuations come in ``itertools.product`` order over the
sorted variables, each a bitmask of cells, the first variable most
significant.  ``None`` means no countermodel up to the bound, which is not
a theoremhood claim.  The search and ``true_in_algebra`` evaluate a
formula bit-sliced (``bitslice``): one run per space covers every
valuation, up to a fixed cap of cells x variables beyond which the leading
variables are fixed outside the run.  ``evaluate`` is the one-valuation
reference evaluator, used on every carrier.
"""

from __future__ import annotations

import re
import reprlib
import weakref
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import bitslice as bs
from .adjacency import AdjacencySpace, mk_space
from .algebra import ContactAlgebra, FiniteContactAlgebra


# ---------------------------------------------------------------------------
# terms and formulas
# ---------------------------------------------------------------------------

class _Ref(weakref.ref):
    __slots__ = ("key",)            # the node's key in _INTERNED

    def forget(self) -> None:       # called when the node dies
        if _INTERNED.get(self.key) is self:     # not taken since by a newer node
            del _INTERNED[self.key]


# every live term and formula, held weakly, by its type and fields
_INTERNED: dict[tuple, _Ref] = {}

# the longest repr of a node, before "..."
_REPR_LIMIT = 500


class _Node:
    """A term or formula, interned: a constructor returns the live node of
    its type and fields if there is one, so ``==`` and ``hash`` are
    identity.  Like the module's other caches, construction is not
    synchronised between threads.  Pickling rebuilds a node through its
    constructor, which interns it."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERNED.get(key)
        node = None if ref is None else ref()
        if node is None:
            names = cls.__match_args__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(names, fields):
                object.__setattr__(node, name, value)
            ref = _INTERNED[key] = _Ref(node, _Ref.forget)
            ref.key = key
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        """The dataclass form, ``Eq(left=Variable(name='p'), ...)``, cut
        after ``_REPR_LIMIT`` characters: spelled out, a shared subtree
        repeats, so a chain of n ``<=>`` links would print 2^n nodes."""
        pieces: list[str] = []
        size = 0
        stack: list = [self]        # nodes, and text already printed
        while stack:
            item = stack.pop()
            if isinstance(item, _Node):
                names = item.__match_args__
                stack.append(")")
                for i in range(len(names) - 1, -1, -1):
                    value = getattr(item, names[i])
                    stack.append(value if isinstance(value, _Node) else repr(value))
                    stack.append(f"{', ' if i else ''}{names[i]}=")
                item = f"{type(item).__name__}("
            pieces.append(item)
            size += len(item)
            if size > _REPR_LIMIT:
                return "".join(pieces)[:_REPR_LIMIT] + "..."
        return "".join(pieces)


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Variable(_Node):
    name: str


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Complement(_Node):
    term: "Term"


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Join(_Node):
    left: "Term"
    right: "Term"


Term = Variable | Complement | Join


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Contact(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


Formula = Eq | Contact | Not | Or
_TERM_TYPES = frozenset((Variable, Complement, Join))
_FORMULA_TYPES = frozenset((Eq, Contact, Not, Or))


def meet(a: Term, b: Term) -> Term:
    return Complement(Join(Complement(a), Complement(b)))


def zero_term(carrier: Term) -> Term:
    return meet(carrier, Complement(carrier))


def one_term(carrier: Term) -> Term:
    return Complement(zero_term(carrier))


def implies(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def conj(a: Formula, b: Formula) -> Formula:
    return Not(Or(Not(a), Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return conj(implies(a, b), implies(b, a))


# the child nodes of each node type, in field order
_CHILDREN = {
    Variable: lambda node: (),
    Complement: lambda node: (node.term,),
    Join: lambda node: (node.left, node.right),
    Eq: lambda node: (node.left, node.right),
    Contact: lambda node: (node.left, node.right),
    Not: lambda node: (node.body,),
    Or: lambda node: (node.left, node.right),
}


def _describe(node) -> str:
    """A node, or whatever stood in for one, in an error message: its
    type's name and a bounded repr."""
    if isinstance(node, _Node):
        return f"{type(node).__name__} node {node!r}"
    return f"{type(node).__name__} {reprlib.repr(node)}"


def _children(node) -> tuple:
    children = _CHILDREN.get(type(node))
    if children is None:
        raise TypeError(f"not a term or formula: {_describe(node)}")
    return children(node)


def free_variables(f: Formula) -> set[str]:
    """The variable names of a formula.

    Iterative, and each node is visited once by identity, because the
    abbreviations (``<=>`` above all) share subtrees: a chain of n ``<=>``
    links is a DAG of O(n) nodes but a tree of 2^n.
    """
    if type(f) not in _FORMULA_TYPES:
        raise TypeError(f"not a formula: {_describe(f)}")
    names: set[str] = set()
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) is Variable:
            names.add(node.name)
        else:
            stack.extend(_children(node))
    return names


def term_depth(t: Term) -> int:
    kind = type(t)
    if kind is Variable:
        return 0
    if kind is Complement:
        return 1 + term_depth(t.term)
    if kind is Join:
        return 1 + max(term_depth(t.left), term_depth(t.right))
    raise TypeError(f"not a term: {_describe(t)}")


def format_term(t: Term) -> str:
    kind = type(t)
    if kind is Variable:
        return t.name
    if kind is Complement:
        inner = t.term
        return f"-{inner.name}" if type(inner) is Variable else f"-({format_term(inner)})"
    if kind is Join:
        return f"({format_term(t.left)} + {format_term(t.right)})"
    raise TypeError(f"not a term: {_describe(t)}")


def format_formula(f: Formula) -> str:
    """The formula as text in the syntax ``parse`` reads.

    The text spells out every shared subtree, so it cannot be shorter than
    the formula as a tree: on ``p == q <=> p == q <=> ...`` it doubles per
    link (342, 6,102 and 98,262 characters at 4, 8 and 12 operands), and no
    memoisation makes this function polynomial on such input.
    """
    kind = type(f)
    if kind is Or:
        return f"({format_formula(f.left)} | {format_formula(f.right)})"
    if kind is Not:
        return f"~({format_formula(f.body)})"
    if kind is Eq:
        return f"{format_term(f.left)} == {format_term(f.right)}"
    if kind is Contact:
        return f"C({format_term(f.left)}, {format_term(f.right)})"
    raise TypeError(f"not a formula: {_describe(f)}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    """A formula text that does not parse: ``message`` at character offset
    ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position

    def __reduce__(self):
        # ``args`` holds only the formatted text, so pickle rebuilds the
        # error from the two arguments ``__init__`` takes
        return type(self), (self.message, self.position)


# Deepest nesting accepted, counted both while parsing (prefix operators,
# parentheses and right-nested ``=>`` open at once) and as the height of the
# parse tree, which the parser carries along with every node it builds.
# Every recursive walk over a formula (evaluation, printing) then
# stays far inside Python's default recursion limit.
MAX_NESTING = 100


# A token is an operator, ``C(``, a variable or any other non-space
# character, which is an error.  No alternative matches whitespace, so
# ``findall`` skips it.
_TOKEN_RE = re.compile(r"<=>|=>|==|!=|<=|C\(|[a-z][a-z0-9]*|\S")
# the token after the last one; it holds spaces, so no text has it
_END = "end of input"
_SYMBOLS = frozenset(("<=>", "=>", "==", "!=", "<=", "C(", "-", "+", ".", "~", "|", "&",
                      "(", ")", ",", "0", "1", _END))
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _tokenize(text: str) -> list[str]:
    """Every token of the text, from one ``findall``, then ``_END``.  A
    character that starts no token fails here, before any parsing."""
    tokens = _TOKEN_RE.findall(text)
    # a token that is no symbol is a variable, or one character that is an
    # error; the variables of a text are few, so this looks at few tokens
    if not all(token[0] in _LETTERS for token in set(tokens).difference(_SYMBOLS)):
        index = next(i for i, token in enumerate(tokens)
                     if token not in _SYMBOLS and token[0] not in _LETTERS)
        raise FormulaSyntaxError(f"unexpected character {tokens[index]!r}",
                                 _offset(text, index))
    tokens.append(_END)
    return tokens


def _offset(text: str, index: int) -> int:
    """The character offset of token ``index`` of the text, ``_END``'s
    being the text's length.  Only an error needs an offset, so the scan is
    repeated then."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    return len(text) if match is None else match.start()


def _shown(token: str) -> str:
    """A token as an error message names it: ``C(`` is one token, but the
    messages name its ``C``."""
    return "C" if token == "C(" else token


class _Op(NamedTuple):
    prec: int
    right: bool  # the operand after it is parsed at prec, not prec + 1: prefix or right-assoc
    terms: bool  # its operands are terms, not formulas
    build: Callable
    height: Callable  # the built node's tree height from its operands' heights


def _one_up(*heights: int) -> int:
    return 1 + max(heights)


# Every term operator binds tighter than every formula operator, so what is
# parsed at _TERM or above is a term.  A relation takes terms to a formula,
# so ``a == b == c`` is a sort error: the relations do not associate.  Each
# height counts the nodes an abbreviation expands to: ``a <=> b`` is
# ~(~(~a | b) | ~(~b | a)), five levels above its operands.
_TERM = 7  # "+"
_INFIX = {
    "<=>": _Op(1, False, False, iff, lambda a, b: 5 + max(a, b)),
    "=>": _Op(2, True, False, implies, lambda a, b: 1 + max(a + 1, b)),
    "|": _Op(3, False, False, Or, _one_up),
    "&": _Op(4, False, False, conj, lambda a, b: 3 + max(a, b)),
    "==": _Op(6, False, True, Eq, _one_up),
    "!=": _Op(6, False, True, lambda a, b: Not(Eq(a, b)), lambda a, b: 2 + max(a, b)),
    "<=": _Op(6, False, True, lambda a, b: Eq(Join(a, b), b), lambda a, b: 2 + max(a, b)),
    "+": _Op(7, False, True, Join, _one_up),
    ".": _Op(8, False, True, meet, lambda a, b: 3 + max(a, b)),
}
_PREFIX = {"~": _Op(5, True, False, Not, _one_up),
           "-": _Op(9, True, True, Complement, _one_up)}
# tree heights of a variable and of the expanded constants: 0 is
# -((-a) + (--a)) over its carrier a, and 1 is -0
_VARIABLE_HEIGHT, _ZERO_HEIGHT, _ONE_HEIGHT = 1, 5, 6


class _Parser:
    """Precedence climbing over ``_INFIX`` and ``_PREFIX`` (Pratt, "Top down
    operator precedence", 1973), one expression grammar for terms and
    formulas.  ``expr`` and ``operand`` return each node with its tree
    height.  The parser keeps token indices; ``_error`` turns one into a
    character offset."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # 0 and 1 expand over the first variable of the text: the
        # abbreviations keep operands in textual order, so it is also the
        # first variable of the parse tree
        first = next((token for token in self.tokens if token not in _SYMBOLS), "a")
        self.carrier = Variable(first)

    def _error(self, message: str, index: int) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, _offset(self.text, index))

    def _sorted(self, node, terms: bool, index: int):
        """``node``, if it is a term exactly when ``terms``."""
        if (type(node) in _TERM_TYPES) != terms:
            raise self._error("expected a term" if terms else "expected a formula", index)
        return node

    def _expect(self, op: str) -> None:
        token = self.tokens[self.pos]
        if token != op:
            raise self._error(f"expected {op!r}, got {_shown(token)!r}", self.pos)
        self.pos += 1

    def _nested(self, prec: int) -> tuple:
        """``expr(prec)`` one level down, after a prefix operator, '(' or '=>'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error("nested too deeply", self.pos)
        out = self.expr(prec)
        self.depth -= 1
        return out

    def expr(self, min_prec: int) -> tuple:
        """The longest expression whose operators bind at ``min_prec`` or
        tighter, and its height."""
        start = self.pos
        left, height = self.operand(min_prec)
        while True:
            op = _INFIX.get(self.tokens[self.pos])
            if op is None or op.prec < min_prec:
                break
            self._sorted(left, op.terms, start)
            self.pos += 1
            at = self.pos
            right, right_height = self._nested(op.prec) if op.right else self.expr(op.prec + 1)
            left = op.build(left, self._sorted(right, op.terms, at))
            height = op.height(height, right_height)
        return left, height

    def operand(self, min_prec: int) -> tuple:
        """A variable, constant, contact atom, parenthesis or prefix operator
        application, and its height.  Where a term is due, '~' and 'C' fail
        where they stand and a parenthesis holds a term, so a sort error
        never waits for a deeply nested operand to close."""
        index = self.pos
        token = self.tokens[index]
        if token not in _SYMBOLS:
            self.pos = index + 1
            return Variable(token), _VARIABLE_HEIGHT
        term_only = min_prec >= _TERM
        if term_only and (token == "~" or token == "C("):
            raise self._error("expected a term", index)
        if token == _END:
            raise self._error("unexpected end of input", index)
        self.pos = index + 1
        op = _PREFIX.get(token)
        if op is not None:
            inner, height = self._nested(op.prec)
            return op.build(self._sorted(inner, op.terms, index + 1)), op.height(height)
        if token == "(":
            inner = self._nested(_TERM if term_only else 0)
            self._expect(")")
            return inner
        if token == "C(":
            left, left_height = self.expr(_TERM)
            self._expect(",")
            right, right_height = self.expr(_TERM)
            self._expect(")")
            return Contact(left, right), 1 + max(left_height, right_height)
        if token == "0":
            return zero_term(self.carrier), _ZERO_HEIGHT
        if token == "1":
            return one_term(self.carrier), _ONE_HEIGHT
        raise self._error(f"unexpected {token!r}", index)


def _parse(text: str, min_prec: int):
    parser = _Parser(text)
    tree, height = parser.expr(min_prec)
    token = parser.tokens[parser.pos]
    if token != _END:
        raise parser._error(f"trailing input {_shown(token)!r}", parser.pos)
    terms = min_prec >= _TERM
    if (type(tree) in _TERM_TYPES) != terms:
        raise FormulaSyntaxError("expected a term" if terms else "expected a formula", 0)
    # operator chains such as ``a | b | ...`` nest the tree without nesting
    # the parser
    if height > MAX_NESTING:
        raise FormulaSyntaxError("nested too deeply", 0)
    return tree


def parse(text: str) -> Formula:
    """Parse a formula; 0 and 1 expand over the first variable occurring
    in the formula (or the variable ``a`` when there is none).  Input nested
    deeper than ``MAX_NESTING`` levels is a ``FormulaSyntaxError``."""
    return _parse(text, 0)


def parse_term(text: str) -> Term:
    return _parse(text, _TERM)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class UnboundVariable(LookupError):
    def __str__(self) -> str:
        return f"unbound variable {self.args[0]}"


def term_value(t: Term, algebra: ContactAlgebra, valuation: Mapping[str, object]):
    return _value(t, algebra, valuation, {})


def evaluate(f: Formula, algebra: ContactAlgebra, valuation: Mapping[str, object]) -> bool:
    """Truth of the formula under one valuation.

    Each distinct node is evaluated once per call, by identity (nodes are
    interned), because the abbreviations share subtrees: a chain of n
    ``<=>`` links is a DAG of O(n) nodes but a tree of 2^n, and a shared
    term such as ``-(p + q + r)`` is one complement of the carrier.
    Operands are still evaluated left to right and ``|`` short-circuits,
    so an unbound variable raises exactly where a walk over the tree would
    meet it first.
    """
    return _truth(f, algebra, valuation, {})


# a term value not yet computed in ``_value``
_UNKNOWN = object()


def _value(t: Term, algebra: ContactAlgebra, valuation: Mapping[str, object],
           known: dict[int, object]):
    kind = type(t)
    if kind is Variable:
        try:
            return valuation[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    value = known.get(id(t), _UNKNOWN)
    if value is _UNKNOWN:
        if kind is Complement:
            value = algebra.complement(_value(t.term, algebra, valuation, known))
        elif kind is Join:
            value = algebra.join(_value(t.left, algebra, valuation, known),
                                 _value(t.right, algebra, valuation, known))
        else:
            raise TypeError(f"not a term: {_describe(t)}")
        known[id(t)] = value
    return value


def _truth(f: Formula, algebra: ContactAlgebra, valuation: Mapping[str, object],
           known: dict[int, object]) -> bool:
    kind = type(f)
    if kind is Or or kind is Not:
        value = known.get(id(f))
        if value is None:
            if kind is Or:
                value = (_truth(f.left, algebra, valuation, known)
                         or _truth(f.right, algebra, valuation, known))
            else:
                value = not _truth(f.body, algebra, valuation, known)
            known[id(f)] = value
        return value
    if kind is Eq:
        return algebra.equal(_value(f.left, algebra, valuation, known),
                             _value(f.right, algebra, valuation, known))
    if kind is Contact:
        return algebra.contact(_value(f.left, algebra, valuation, known),
                               _value(f.right, algebra, valuation, known))
    raise TypeError(f"not a formula: {_describe(f)}")


def true_in_algebra(f: Formula, algebra: FiniteContactAlgebra) -> bool:
    """Truth under every valuation (finite carriers only)."""
    return compile_formula(f).first_falsifier(algebra) is None


_OPCODES = {Complement: bs.COMPLEMENT, Join: bs.JOIN, Eq: bs.EQ,
            Contact: bs.CONTACT, Not: bs.NOT, Or: bs.OR}
_PAIRS = frozenset((Join, Eq, Contact, Or))


def compile_formula(f: Formula) -> bs.Program:
    """The formula as a bit-sliced program over its distinct subterms.

    Iterative, so operator chains compile without recursing; nodes are
    interned, so each node object gets one slot.  A node stays on the stack
    until its children have slots: the right child is pushed first, so a
    right subtree is numbered before the left one.  Each node is pushed
    once, and the stack holds one path from the root.
    """
    done: dict[_Node, int] = {}        # node -> slot
    code: list[tuple] = []
    stack = [f]
    while stack:
        node = stack[-1]
        kind = type(node)
        if kind is Variable:
            key = (bs.VAR, node.name)
        elif kind is Complement or kind is Not:
            kid = node.term if kind is Complement else node.body
            a = done.get(kid)
            if a is None:
                stack.append(kid)
                continue
            key = (_OPCODES[kind], a)
        elif kind in _PAIRS:
            b = done.get(node.right)
            if b is None:
                stack.append(node.right)
                continue
            a = done.get(node.left)
            if a is None:
                stack.append(node.left)
                continue
            key = (_OPCODES[kind], a, b)
        else:
            raise TypeError(f"not a term or formula: {_describe(node)}")
        stack.pop()
        done[node] = len(code)
        code.append(key)
    return bs.Program(code)


# ---------------------------------------------------------------------------
# axiom schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetaTerm:
    name: str


@dataclass(frozen=True)
class MetaFormula:
    name: str


@dataclass(frozen=True)
class ZeroPattern:
    """Matches any expansion t.(-t) of the constant 0."""


@dataclass(frozen=True)
class OnePattern:
    """Matches -z for any zero expansion z."""


def _match(pattern, node, bindings: dict) -> bool:
    kind = type(pattern)
    if kind is MetaTerm or kind is MetaFormula:
        if pattern.name in bindings:
            return bindings[pattern.name] is node
        bindings[pattern.name] = node
        return True
    if kind is ZeroPattern:
        return _is_zero_expansion(node)
    if kind is OnePattern:
        return type(node) is Complement and _is_zero_expansion(node.term)
    if kind is Variable:
        return type(node) is Variable and node.name == pattern.name
    return type(node) is kind and all(
        _match(p, n, bindings) for p, n in zip(_children(pattern), _children(node)))


def _is_zero_expansion(node) -> bool:
    # t.(-t) = -((-t) + (--t))
    if type(node) is not Complement or type(node.term) is not Join:
        return False
    left, right = node.term.left, node.term.right
    return (type(left) is Complement and type(right) is Complement
            and type(right.term) is Complement and left.term is right.term.term)


def _schemes() -> list[tuple[str, object]]:
    a, b, c = MetaTerm("a"), MetaTerm("b"), MetaTerm("c")
    f, g, h = MetaFormula("f"), MetaFormula("g"), MetaFormula("h")
    zero, one = ZeroPattern(), OnePattern()

    def m(x, y):
        return meet(x, y)

    schemes: list[tuple[str, object]] = [
        # propositional basis
        ("P1", implies(f, implies(g, f))),
        ("P2", implies(implies(f, implies(g, h)),
                       implies(implies(f, g), implies(f, h)))),
        ("P3", implies(implies(Not(f), Not(g)), implies(g, f))),
        # Boolean-algebra equational basis
        ("BA-join-assoc", Eq(Join(a, Join(b, c)), Join(Join(a, b), c))),
        ("BA-meet-assoc", Eq(m(a, m(b, c)), m(m(a, b), c))),
        ("BA-join-comm", Eq(Join(a, b), Join(b, a))),
        ("BA-meet-comm", Eq(m(a, b), m(b, a))),
        ("BA-absorb-join", Eq(Join(a, m(a, b)), a)),
        ("BA-absorb-meet", Eq(m(a, Join(a, b)), a)),
        ("BA-distr-meet", Eq(m(a, Join(b, c)), Join(m(a, b), m(a, c)))),
        ("BA-distr-join", Eq(Join(a, m(b, c)), m(Join(a, b), Join(a, c)))),
        ("BA-compl-join", Eq(Join(a, Complement(a)), one)),
        ("BA-compl-meet", Eq(m(a, Complement(a)), zero)),
        # contact schemes
        ("C1", Not(Contact(zero, a))),
        ("C2", iff(Contact(a, Join(b, c)),
                   Or(Contact(a, b), Contact(a, c)))),
        ("C3", implies(Contact(a, b), Contact(b, a))),
        ("C4", implies(Not(Eq(a, zero)), Contact(a, a))),
        # connectedness
        ("connectedness", implies(Not(Eq(a, zero)),
                                  implies(Not(Eq(a, one)),
                                          Contact(a, Complement(a))))),
    ]
    return schemes


SCHEMES = _schemes()


def is_axiom_instance(f: Formula) -> Optional[str]:
    """Name of the first axiom scheme the formula instantiates, if any."""
    for name, pattern in SCHEMES:
        if _match(pattern, f, {}):
            return name
    return None


# ---------------------------------------------------------------------------
# instance generation (for soundness sweeps)
# ---------------------------------------------------------------------------

def terms_up_to_depth(depth: int, names: Sequence[str]) -> list[Term]:
    """All terms over the given variables with nesting depth at most
    ``depth`` (complement and join each cost one level)."""
    layers: list[list[Term]] = [[Variable(n) for n in names]]
    for _ in range(depth):
        prev = [t for layer in layers for t in layer]
        new: list[Term] = [Complement(t) for t in layers[-1]]
        for x in prev:
            for y in prev:
                cand = Join(x, y)
                if term_depth(cand) == len(layers):
                    new.append(cand)
        layers.append(new)
    return [t for layer in layers for t in layer]


def generate_axiom_instances(names: Sequence[str] = ("p", "q"),
                             single_depth: int = 2,
                             multi_depth: int = 1) -> list[tuple[str, Formula]]:
    """All scheme instances over bounded term pools.

    Schemes with one term metavariable range over the full depth-bounded
    pool; schemes with several use the shallower pool to keep the instance
    set reviewable.  Propositional metavariables range over a fixed pool of
    atomic formulas over the same variables.
    """
    deep = terms_up_to_depth(single_depth, names)
    shallow = terms_up_to_depth(multi_depth, names)
    ps = [Variable(n) for n in names]
    formula_pool: list[Formula] = []
    for x in ps:
        for y in ps:
            formula_pool.append(Eq(x, y))
            formula_pool.append(Contact(x, y))

    out: list[tuple[str, Formula]] = []

    def fill(pattern, bindings):
        kind = type(pattern)
        if kind is MetaTerm or kind is MetaFormula:
            return bindings[pattern.name]
        if kind is ZeroPattern:
            return zero_term(Variable(names[0]))
        if kind is OnePattern:
            return one_term(Variable(names[0]))
        if kind is Variable:
            return pattern
        return kind(*(fill(p, bindings) for p in _children(pattern)))

    for name, pattern in SCHEMES:
        meta_terms = sorted(_collect_meta(pattern, MetaTerm))
        meta_formulas = sorted(_collect_meta(pattern, MetaFormula))
        term_pool = deep if len(meta_terms) <= 1 else shallow
        for term_choice in product(term_pool, repeat=len(meta_terms)):
            for formula_choice in product(formula_pool, repeat=len(meta_formulas)):
                bindings = dict(zip(meta_terms, term_choice))
                bindings.update(zip(meta_formulas, formula_choice))
                out.append((name, fill(pattern, bindings)))
    return out


def _collect_meta(pattern, kind) -> set[str]:
    found: set[str] = set()

    def walk(node):
        if type(node) is kind:
            found.add(node.name)
        elif type(node) in _CHILDREN:
            for child in _children(node):
                walk(child)

    walk(pattern)
    return found


# ---------------------------------------------------------------------------
# countermodel search
# ---------------------------------------------------------------------------

_CELL_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _pair_bits(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _canonical_mask(mask: int, n: int, pairs: list[tuple[int, int]]) -> int:
    """The canonical representative of the mask's isomorphism class.

    Canonical form: the minimum relabelling among those that place each
    cell into the position block of its degree profile (profiles sorted).
    The candidate set is the same for isomorphic graphs, so the minimum is
    one mask per isomorphism class.  The identity need not respect the
    blocks, so ``mask`` itself need not be a candidate.

    The minimum is found by branch and bound, not by trying every
    relabelling.  Pair (i, j), i < j, is bit ``i * (2n - i - 1) / 2 + j -
    i - 1``, so the pairs of each row i are more significant than those of
    every lower row.  Positions are assigned from n - 1 down to 0, and
    placing a cell at position p fixes row p: its adjacency to the cells
    at positions above p.  Only the partial assignments with the least
    rows so far are kept, and two of them are merged when they leave the
    same cells free with the same adjacency to the placed positions, since
    their completions are then the same.
    """
    adj = [0] * n
    edges = []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        i, j = edge = pairs[low.bit_length() - 1]
        edges.append(edge)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    degrees = [a.bit_count() for a in adj]
    # A cell's degree profile (its degree, then its neighbours' degrees
    # sorted) as one int that sorts the same way: the degree above n digits
    # of ``digit`` bits, minus in digit n - d the number of neighbours of
    # degree d.  Of two sorted degree lists of one length, the lesser has
    # more entries of the least degree whose counts differ, so the larger
    # amount is taken off it.
    digit = n.bit_length()
    profile = [d << digit * n for d in degrees]
    for i, j in edges:
        profile[i] -= 1 << digit * (n - degrees[j])
        profile[j] -= 1 << digit * (n - degrees[i])
    blocks: dict[int, int] = {}
    for v in range(n):
        blocks[profile[v]] = blocks.get(profile[v], 0) | 1 << v
    # allowed[p]: the cells whose profile block holds position p
    allowed = []
    for key in sorted(blocks):
        allowed += [blocks[key]] * blocks[key].bit_count()
    # a partial assignment: the free cells, and per cell the positions of
    # its placed neighbours (0 once it is placed itself)
    states = {((1 << n) - 1, (0,) * n)}
    out = 0
    for p in range(n - 1, -1, -1):
        least = None
        best: list = []
        for state in states:
            free, placed = state
            cells = free & allowed[p]
            while cells:
                low = cells & -cells
                cells ^= low
                c = low.bit_length() - 1
                row = placed[c] >> (p + 1)
                if least is None or row < least:
                    least, best = row, [(state, c)]
                elif row == least:
                    best.append((state, c))
        states = set()
        for (free, placed), c in best:
            after = list(placed)
            after[c] = 0
            rest = free & adj[c]
            while rest:
                low = rest & -rest
                rest ^= low
                after[low.bit_length() - 1] |= 1 << p
            states.add((free ^ 1 << c, tuple(after)))
        out |= least << (p * (2 * n - p - 1) // 2)
    return out


_MASK_CACHE: dict[int, list[int]] = {1: [0]}
# n -> the connected spaces on n cells, each with its contact algebra
_SPACE_CACHE: dict[int, list[tuple[AdjacencySpace, FiniteContactAlgebra]]] = {}


def _connected_masks(n: int) -> list[int]:
    """The canonical adjacency bitmasks of the connected graphs on n cells,
    ascending.

    Every connected graph on n >= 2 cells has a cell whose removal leaves
    it connected (a leaf of a spanning tree), so each class arises from a
    representative on n - 1 cells plus a new last cell with a nonempty set
    of neighbours; canonicalising those candidates finds every class.
    """
    if n not in _MASK_CACHE:
        pairs = _pair_bits(n)
        index = {pair: k for k, pair in enumerate(pairs)}
        # bit positions of the smaller graph's pairs, and the new cell's
        # pair bits for each nonempty set of neighbours
        old_bits = [1 << index[pair] for pair in _pair_bits(n - 1)]
        new_bits = [1 << index[(v, n - 1)] for v in range(n - 1)]
        augments = [sum(bit for v, bit in enumerate(new_bits) if nbrs >> v & 1)
                    for nbrs in range(1, 1 << (n - 1))]
        found = set()
        for small in _connected_masks(n - 1):
            base = sum(bit for k, bit in enumerate(old_bits) if small >> k & 1)
            for extra in augments:
                found.add(_canonical_mask(base | extra, n, pairs))
        _MASK_CACHE[n] = sorted(found)
    return _MASK_CACHE[n]


def _spaces_with_cells(n: int) -> list[tuple[AdjacencySpace, FiniteContactAlgebra]]:
    """Each connected space on n cells with its contact algebra (what
    ``algebra.induced_algebra`` builds), both read off the canonical mask
    once: a cell's successor mask is its own bit and its neighbours' bits."""
    if n not in _SPACE_CACHE:
        cells = _CELL_NAMES[:n]
        pairs = _pair_bits(n)
        entries = []
        for mask in _connected_masks(n):
            edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
            succ = [1 << i for i in range(n)]
            for i, j in edges:
                succ[i] |= 1 << j
                succ[j] |= 1 << i
            space = mk_space(cells, [(cells[i], cells[j]) for i, j in edges])
            entries.append((space, FiniteContactAlgebra(space.cells, succ)))
        _SPACE_CACHE[n] = entries
    return _SPACE_CACHE[n]


def enumerate_connected_spaces(max_cells: int) -> Iterator[AdjacencySpace]:
    """Connected spaces, one per isomorphism class, by cell count, then
    canonical adjacency bitmask.

    Each class is represented by its canonical bitmask (``_canonical_mask``)
    at every size; results are cached, so repeated searches over the same
    bound enumerate once and get the same space objects.
    """
    for n in range(1, max_cells + 1):
        for space, _ in _spaces_with_cells(n):
            yield space


# Largest cell bound the search accepts.  Bound 8 enumerates 11,117
# connected spaces of 8 cells; bound 9 would canonicalise about 2.8 million
# one-cell augmentations (11,117 x 255) on the way to 261,080 classes, all
# of them cached.  Canonicalising the augmentations of 6, 7 and 8 cells
# (651, 7,056 and 108,331) takes about 0.02 s, 0.2-0.3 s and 4-5 s of CPU
# (Python 3.11, 2-core VM; every relabelling tried took 0.06 s, 0.7 s and
# 17-19 s).  The cache keeps each space with its contact algebra; measured
# with tracemalloc (Python 3.11), the spaces up to bounds 6, 7 and 8 take
# 94 KB, 1.2 MB and 21.3 MB, their algebras 14 KB, 147 KB and 2.3 MB
# (plus 8 bytes each for the slot of their successor lists), and the
# successor lists a search adds to them 18 KB, 107 KB and 1.3 MB.
MAX_BOUND = 8


def check_bound(max_cells: int) -> None:
    """Raise ``ValueError`` unless ``1 <= max_cells <= MAX_BOUND``."""
    if max_cells < 1:
        raise ValueError("cell bound must be >= 1")
    if max_cells > MAX_BOUND:
        raise ValueError(f"cell bound must be <= {MAX_BOUND}, got {max_cells}")


def find_countermodel(f: Formula | str, max_cells: int
                      ) -> Optional[tuple[AdjacencySpace, dict[str, frozenset[str]]]]:
    """First falsifying Kripke model with at most ``max_cells`` cells.

    Spaces come in ``enumerate_connected_spaces`` order and, within a
    space, valuations in product order over the sorted variables, the
    first variable most significant.  None means no countermodel up to
    the bound.  A bound outside ``1..MAX_BOUND`` raises ``ValueError``.

    The enumeration cache holds each space with its contact algebra, built
    once with the space (see ``MAX_BOUND`` for their memory), so a query
    builds no algebra, and a returned space is the very object
    ``enumerate_connected_spaces`` yields.  Each algebra keeps the successor
    lists the first search over it builds, and the input slices are shared
    by (cells, variables), so a later search sets up nothing per space: when
    every variable fits one run, a space costs that one run.
    """
    check_bound(max_cells)
    if isinstance(f, str):
        f = parse(f)
    program = compile_formula(f)
    for n in range(1, max_cells + 1):
        for space, algebra in _spaces_with_cells(n):
            masks = program.first_falsifier(algebra)
            if masks is not None:
                return space, {name: frozenset(algebra.cells_of(mask))
                               for name, mask in zip(program.names, masks)}
    return None


# ---------------------------------------------------------------------------
# formula files: one formula per line, '#' comments
# ---------------------------------------------------------------------------

def parse_formula_file(text: str) -> list[tuple[int, Formula]]:
    """``(line number, formula)`` of each line that holds a formula.  A
    line that does not parse raises ``FormulaSyntaxError`` naming the line,
    at the offset in the line as written."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if body and not body.isspace():
            try:
                out.append((lineno, parse(body)))
            except FormulaSyntaxError as err:
                raise FormulaSyntaxError(f"line {lineno}: {err.message}", err.position) from None
    return out
