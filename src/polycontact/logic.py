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
whether its operands are terms or formulas.

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
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import bitslice as bs
from .adjacency import AdjacencySpace, mk_space
from .algebra import ContactAlgebra, FiniteContactAlgebra, induced_algebra


# ---------------------------------------------------------------------------
# terms and formulas
# ---------------------------------------------------------------------------

class _Node:
    """Structural ``==`` and ``hash`` for terms and formulas.

    Both are iterative and visit each shared subtree once, because the
    abbreviations (``<=>`` above all) share subtrees: a chain of n ``<=>``
    links is a DAG of O(n) nodes but a tree of 2^n.  The hash is cached per
    node; ``==`` compares each pair of nodes once by identity.
    """

    _hash = None

    def __hash__(self) -> int:
        if self._hash is None:
            stack = [self]
            while stack:
                node = stack[-1]
                if node._hash is not None:
                    stack.pop()
                    continue
                fields = [getattr(node, name) for name in node.__match_args__]
                todo = [v for v in fields if isinstance(v, _Node) and v._hash is None]
                if todo:
                    stack.extend(todo)
                    continue
                stack.pop()
                object.__setattr__(node, "_hash", hash((type(node), *map(hash, fields))))
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if not isinstance(a, _Node):
                if a != b:
                    return False
                continue
            key = (id(a), id(b))
            if key not in seen:
                seen.add(key)
                for name in a.__match_args__:
                    stack.append((getattr(a, name), getattr(b, name)))
        return True


@dataclass(frozen=True, eq=False)
class Variable(_Node):
    name: str


@dataclass(frozen=True, eq=False)
class Complement(_Node):
    term: "Term"


@dataclass(frozen=True, eq=False)
class Join(_Node):
    left: "Term"
    right: "Term"


Term = Variable | Complement | Join


@dataclass(frozen=True, eq=False)
class Eq(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Contact(_Node):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True, eq=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"


Formula = Eq | Contact | Not | Or


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


def _children(node) -> tuple:
    match node:
        case Variable(_):
            return ()
        case Complement(t) | Not(t):
            return (t,)
        case Join(a, b) | Eq(a, b) | Contact(a, b) | Or(a, b):
            return (a, b)
    raise TypeError(f"not a term or formula: {node!r}")


def free_variables(f: Formula) -> set[str]:
    """The variable names of a formula.

    Iterative, and each node is visited once by identity, because the
    abbreviations (``<=>`` above all) share subtrees: a chain of n ``<=>``
    links is a DAG of O(n) nodes but a tree of 2^n.
    """
    if not isinstance(f, (Eq, Contact, Not, Or)):
        raise TypeError(f"not a formula: {f!r}")
    names: set[str] = set()
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Variable):
            names.add(node.name)
        else:
            stack.extend(_children(node))
    return names


def term_depth(t: Term) -> int:
    match t:
        case Variable(_):
            return 0
        case Complement(inner):
            return 1 + term_depth(inner)
        case Join(left, right):
            return 1 + max(term_depth(left), term_depth(right))
    raise TypeError(f"not a term: {t!r}")


def format_term(t: Term) -> str:
    match t:
        case Variable(name):
            return name
        case Complement(inner):
            return f"-{format_term(inner)}" if isinstance(inner, Variable) \
                else f"-({format_term(inner)})"
        case Join(left, right):
            return f"({format_term(left)} + {format_term(right)})"


def format_formula(f: Formula) -> str:
    """The formula as text in the syntax ``parse`` reads.

    The text spells out every shared subtree, so it cannot be shorter than
    the formula as a tree: on ``p == q <=> p == q <=> ...`` it doubles per
    link (342, 6,102 and 98,262 characters at 4, 8 and 12 operands), and no
    memoisation makes this function polynomial on such input.
    """
    match f:
        case Eq(left, right):
            return f"{format_term(left)} == {format_term(right)}"
        case Contact(left, right):
            return f"C({format_term(left)}, {format_term(right)})"
        case Not(body):
            return f"~({format_formula(body)})"
        case Or(left, right):
            return f"({format_formula(left)} | {format_formula(right)})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# Deepest nesting accepted, counted both while parsing (prefix operators,
# parentheses and right-nested ``=>`` open at once) and as the depth of the
# parse tree.  Every recursive walk over a formula (evaluation, printing,
# hashing) then stays far inside Python's default recursion limit.
MAX_NESTING = 100


_TOKEN_RE = re.compile(
    r"(?P<op><=>|=>|==|!=|<=|[-+.~|&(),01])|(?P<C>C)(?=\()|(?P<var>[a-z][a-z0-9]*)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Op(NamedTuple):
    prec: int
    right: bool  # the operand after it is parsed at prec, not prec + 1: prefix or right-assoc
    terms: bool  # its operands are terms, not formulas
    build: Callable


# Every term operator binds tighter than every formula operator, so what is
# parsed at _TERM or above is a term.  A relation takes terms to a formula,
# so ``a == b == c`` is a sort error: the relations do not associate.
_TERM = 7  # "+"
_INFIX = {
    "<=>": _Op(1, False, False, iff),
    "=>": _Op(2, True, False, implies),
    "|": _Op(3, False, False, Or),
    "&": _Op(4, False, False, conj),
    "==": _Op(6, False, True, Eq),
    "!=": _Op(6, False, True, lambda a, b: Not(Eq(a, b))),
    "<=": _Op(6, False, True, lambda a, b: Eq(Join(a, b), b)),
    "+": _Op(7, False, True, Join),
    ".": _Op(8, False, True, meet),
}
_PREFIX = {"~": _Op(5, True, False, Not), "-": _Op(9, True, True, Complement)}


def _sorted(node, terms: bool, where: int):
    """``node``, if it is a term exactly when ``terms``."""
    if isinstance(node, Term) != terms:
        raise FormulaSyntaxError("expected a term" if terms else "expected a formula", where)
    return node


class _Parser:
    """Precedence climbing over ``_INFIX`` and ``_PREFIX`` (Pratt, "Top down
    operator precedence", 1973), one expression grammar for terms and
    formulas."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text) + [("end", "end of input", len(text))]
        self.pos = 0
        self.depth = 0
        # 0 and 1 expand over the first variable of the text: the
        # abbreviations keep operands in textual order, so it is also the
        # first variable of the parse tree
        first = next((t[1] for t in self.tokens if t[0] == "var"), "a")
        self.carrier = Variable(first)

    def _here(self) -> int:
        return self.tokens[self.pos][2]

    def _expect(self, op: str) -> None:
        _, value, where = self.tokens[self.pos]
        if value != op:
            raise FormulaSyntaxError(f"expected {op!r}, got {value!r}", where)
        self.pos += 1

    def _nested(self, prec: int):
        """``expr(prec)`` one level down, after a prefix operator, '(' or '=>'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError("nested too deeply", self._here())
        out = self.expr(prec)
        self.depth -= 1
        return out

    def expr(self, min_prec: int):
        """The longest expression whose operators bind at ``min_prec`` or tighter."""
        start = self._here()
        left = self.operand(min_prec)
        while True:
            op = _INFIX.get(self.tokens[self.pos][1])
            if op is None or op.prec < min_prec:
                break
            _sorted(left, op.terms, start)
            self.pos += 1
            at = self._here()
            right = self._nested(op.prec) if op.right else self.expr(op.prec + 1)
            left = op.build(left, _sorted(right, op.terms, at))
        return left

    def operand(self, min_prec: int):
        """A variable, constant, contact atom, parenthesis or prefix operator
        application.  Where a term is due, '~' and 'C' fail where they stand
        and a parenthesis holds a term, so a sort error never waits for a
        deeply nested operand to close."""
        kind, value, where = self.tokens[self.pos]
        term_only = min_prec >= _TERM
        if term_only and value in ("~", "C"):
            raise FormulaSyntaxError("expected a term", where)
        if kind == "end":
            raise FormulaSyntaxError("unexpected end of input", where)
        self.pos += 1
        if kind == "var":
            return Variable(value)
        if value == "0":
            return zero_term(self.carrier)
        if value == "1":
            return one_term(self.carrier)
        if value in _PREFIX:
            op, at = _PREFIX[value], self._here()
            return op.build(_sorted(self._nested(op.prec), op.terms, at))
        if value == "(":
            inner = self._nested(_TERM if term_only else 0)
            self._expect(")")
            return inner
        if kind == "C":
            self._expect("(")
            left = self.expr(_TERM)
            self._expect(",")
            right = self.expr(_TERM)
            self._expect(")")
            return Contact(left, right)
        raise FormulaSyntaxError(f"unexpected {value!r}", where)


def _check_height(root) -> None:
    """Reject a parse tree more than ``MAX_NESTING`` nodes high: operator
    chains such as ``a | b | ...`` nest the tree without nesting the
    parser, and every recursive walk over a formula must stay far inside
    Python's recursion limit.  Heights are memoised by node identity,
    because the abbreviations (``<=>`` above all) share subtrees; the walk
    stops as soon as it is too deep."""
    heights: dict[int, int] = {}

    def height(node, depth: int) -> int:
        h = heights.get(id(node))
        if h is None:
            if depth > MAX_NESTING:
                raise FormulaSyntaxError("nested too deeply", 0)
            h = 0
            for kid in _children(node):
                h = max(h, height(kid, depth + 1))
            h = heights[id(node)] = h + 1
        return h

    if height(root, 1) > MAX_NESTING:
        raise FormulaSyntaxError("nested too deeply", 0)


def _parse(text: str, min_prec: int):
    parser = _Parser(text)
    tree = parser.expr(min_prec)
    kind, value, where = parser.tokens[parser.pos]
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {value!r}", where)
    _check_height(_sorted(tree, min_prec >= _TERM, 0))
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
    match t:
        case Variable(name):
            try:
                return valuation[name]
            except KeyError:
                raise UnboundVariable(name) from None
        case Complement(inner):
            return algebra.complement(term_value(inner, algebra, valuation))
        case Join(left, right):
            return algebra.join(term_value(left, algebra, valuation),
                                term_value(right, algebra, valuation))
    raise TypeError(f"not a term: {t!r}")


def evaluate(f: Formula, algebra: ContactAlgebra, valuation: Mapping[str, object]) -> bool:
    match f:
        case Eq(left, right):
            return algebra.equal(term_value(left, algebra, valuation),
                                 term_value(right, algebra, valuation))
        case Contact(left, right):
            return algebra.contact(term_value(left, algebra, valuation),
                                   term_value(right, algebra, valuation))
        case Not(body):
            return not evaluate(body, algebra, valuation)
        case Or(left, right):
            return evaluate(left, algebra, valuation) or evaluate(right, algebra, valuation)
    raise TypeError(f"not a formula: {f!r}")


def true_in_algebra(f: Formula, algebra: FiniteContactAlgebra) -> bool:
    """Truth under every valuation (finite carriers only)."""
    return compile_formula(f).first_falsifier(algebra) is None


_OPCODES = {Complement: bs.COMPLEMENT, Join: bs.JOIN, Eq: bs.EQ,
            Contact: bs.CONTACT, Not: bs.NOT, Or: bs.OR}


def compile_formula(f: Formula) -> bs.Program:
    """The formula as a bit-sliced program over its unique subterms.

    Iterative, so operator chains compile without recursing; structurally
    equal subterms (which the abbreviations duplicate) share one slot.
    """
    slots: dict[tuple, int] = {}
    done: dict[int, int] = {}          # id(node) -> slot
    code: list[tuple] = []
    stack = [(f, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        kids = _children(node)
        if kids and not ready:
            stack.append((node, True))
            stack.extend((kid, False) for kid in kids)
            continue
        if isinstance(node, Variable):
            key = (bs.VAR, node.name)
        else:
            key = (_OPCODES[type(node)], *(done[id(kid)] for kid in kids))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(code)
            code.append(key)
        done[id(node)] = slot
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
    match pattern:
        case MetaTerm(name) | MetaFormula(name):
            if name in bindings:
                return bindings[name] == node
            bindings[name] = node
            return True
        case ZeroPattern():
            return _is_zero_expansion(node)
        case OnePattern():
            return isinstance(node, Complement) and _is_zero_expansion(node.term)
        case Variable(name):
            return isinstance(node, Variable) and node.name == name
    parts = _children(pattern)
    return type(node) is type(pattern) and all(
        _match(p, n, bindings) for p, n in zip(parts, _children(node)))


def _is_zero_expansion(node) -> bool:
    # t.(-t) = -((-t) + (--t))
    match node:
        case Complement(Join(Complement(t1), Complement(Complement(t2)))):
            return t1 == t2
    return False


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
        match pattern:
            case MetaTerm(name) | MetaFormula(name):
                return bindings[name]
            case ZeroPattern():
                return zero_term(Variable(names[0]))
            case OnePattern():
                return one_term(Variable(names[0]))
            case Variable(_):
                return pattern
        return type(pattern)(*(fill(p, bindings) for p in _children(pattern)))

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
        if isinstance(node, kind):
            found.add(node.name)
        elif isinstance(node, _Node):
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


def _degree_profiles(mask: int, n: int, pairs: list[tuple[int, int]]) -> list:
    adj = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        if mask >> k & 1:
            adj[i].append(j)
            adj[j].append(i)
    degs = [len(a) for a in adj]
    return [(degs[v], tuple(sorted(degs[u] for u in adj[v]))) for v in range(n)]


def _canonical_mask(mask: int, n: int, pairs: list[tuple[int, int]]) -> int:
    """The canonical representative of the mask's isomorphism class.

    Canonical form: the minimum relabelling among those that place each
    cell into the position block of its degree profile (profiles sorted).
    The candidate set is the same for isomorphic graphs, so the minimum is
    one mask per isomorphism class.  The identity need not respect the
    blocks, so ``mask`` itself need not be a candidate.
    """
    index = {pair: k for k, pair in enumerate(pairs)}
    profiles = _degree_profiles(mask, n, pairs)
    classes: dict[object, list[int]] = {}
    for v, prof in enumerate(profiles):
        classes.setdefault(prof, []).append(v)
    groups = [classes[key] for key in sorted(classes)]
    # position blocks in sorted-profile order
    blocks = []
    start = 0
    for g in groups:
        blocks.append(range(start, start + len(g)))
        start += len(g)
    bits = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    perm = [0] * n
    best = None
    for assignment in product(*(permutations(block) for block in blocks)):
        for group, targets in zip(groups, assignment):
            for src, dst in zip(group, targets):
                perm[src] = dst
        out = 0
        for i, j in bits:
            pi, pj = perm[i], perm[j]
            out |= 1 << index[(pi, pj) if pi < pj else (pj, pi)]
        if best is None or out < best:
            best = out
    return best


_MASK_CACHE: dict[int, list[int]] = {1: [0]}
_SPACE_CACHE: dict[int, list[AdjacencySpace]] = {}


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
        # bit positions of the smaller graph's pairs, and of the new cell's
        old_bits = [1 << index[pair] for pair in _pair_bits(n - 1)]
        new_bits = [1 << index[(v, n - 1)] for v in range(n - 1)]
        found = set()
        for small in _connected_masks(n - 1):
            base = sum(bit for k, bit in enumerate(old_bits) if small >> k & 1)
            for nbrs in range(1, 1 << (n - 1)):
                mask = base | sum(bit for v, bit in enumerate(new_bits) if nbrs >> v & 1)
                found.add(_canonical_mask(mask, n, pairs))
        _MASK_CACHE[n] = sorted(found)
    return _MASK_CACHE[n]


def _spaces_with_cells(n: int) -> list[AdjacencySpace]:
    if n not in _SPACE_CACHE:
        cells = list(_CELL_NAMES[:n])
        pairs = _pair_bits(n)
        _SPACE_CACHE[n] = [
            mk_space(cells, [(cells[i], cells[j])
                             for k, (i, j) in enumerate(pairs) if mask >> k & 1])
            for mask in _connected_masks(n)]
    return _SPACE_CACHE[n]


def enumerate_connected_spaces(max_cells: int) -> Iterator[AdjacencySpace]:
    """Connected spaces, one per isomorphism class, by cell count, then
    canonical adjacency bitmask.

    Each class is represented by its canonical bitmask (``_canonical_mask``)
    at every size; results are cached, so repeated searches over the same
    bound enumerate once.
    """
    for n in range(1, max_cells + 1):
        yield from _spaces_with_cells(n)


# Largest cell bound the search accepts.  Bound 8 enumerates 11,117
# connected spaces of 8 cells; bound 9 would canonicalise about 2.8 million
# one-cell augmentations (11,117 x 255) on the way to 261,080 classes, all
# of them cached.
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
    """
    check_bound(max_cells)
    if isinstance(f, str):
        f = parse(f)
    program = compile_formula(f)
    for space in enumerate_connected_spaces(max_cells):
        algebra = induced_algebra(space)
        masks = program.first_falsifier(algebra)
        if masks is not None:
            return space, {name: frozenset(algebra.cells_of(mask))
                           for name, mask in zip(program.names, masks)}
    return None


# ---------------------------------------------------------------------------
# formula files: one formula per line, '#' comments
# ---------------------------------------------------------------------------

def parse_formula_file(text: str) -> list[tuple[int, Formula]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((lineno, parse(body)))
    return out
