import copy
import dataclasses
import gc
import hashlib
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycontact import algebra as alg
from polycontact import bitslice as bs
from polycontact import logic as lg
from polycontact.adjacency import mk_space
from polycontact.algebra import (CylinderAlgebra, FiniteContactAlgebra, IntervalAlgebra,
                                 induced_algebra)
from polycontact.intervals import random_interval_polytope
from helpers import (
    batch_true_in_algebra, formula_texts, mutate_formula_text, random_formula_text,
    reference_canonical_mask, reference_compile_formula, reference_decode, reference_evaluate,
    reference_node_equal, reference_parse, reference_parse_term, reference_pratt_parse,
    reference_pratt_parse_term, reference_tokenize, scalar_find_countermodel,
    scan_connected_spaces)

TRIANGLE = mk_space("abc", [("a", "b"), ("b", "c"), ("c", "a")])


# each wrap nests the text one level: in the parser, in the tree, or both
FORMULA_WRAPS = {"(": "({})", "~": "~{}", "|": "{} | p == q", "&": "p != q & ({})",
                 "=>": "p <= q => {}", "<=>": "{} <=> C(p, q)"}
TERM_WRAPS = {"-": "-{}", "t(": "({})", "+": "{} + q", ".": "q . ({})"}


@st.composite
def deep_texts(draw) -> str:
    """A term nesting ``-``, ``(``, ``+`` and ``.``, a relation over it
    nesting ``(``, ``~``, ``|``, ``&``, ``=>`` and ``<=>``, or both kinds of
    wraps around ``p == q`` in the order drawn, mostly ill-sorted (a formula
    inside ``-(...)``): 40-150 levels, around ``MAX_NESTING``, some of the
    texts mutated."""
    shape = draw(st.sampled_from(["term", "formula", "drawn order"]))
    kinds = [*TERM_WRAPS] if shape == "term" else [*FORMULA_WRAPS, *TERM_WRAPS]
    levels = draw(st.lists(st.sampled_from(kinds), min_size=40, max_size=150))
    if shape == "drawn order":
        text = "p == q"
        for kind in levels:
            text = {**FORMULA_WRAPS, **TERM_WRAPS}[kind].format(text)
        return mutate_formula_text(draw, text)
    term = "p"
    for kind in levels:
        if kind in TERM_WRAPS:
            term = TERM_WRAPS[kind].format(term)
    text = f"{term} == q"
    for kind in levels:
        if kind in FORMULA_WRAPS:
            text = FORMULA_WRAPS[kind].format(text)
    return mutate_formula_text(draw, term if shape == "term" else text)


def _formula_chain(op: str, side: str, links: int) -> str:
    text = "p == q"
    for _ in range(links):
        text = f"({text}) {op} p == q" if side == "left" else f"p == q {op} ({text})"
    return text


def _term_chain(op: str, side: str, links: int) -> str:
    text = "p"
    for _ in range(links):
        text = f"({text}) {op} q" if side == "left" else f"q {op} ({text})"
    return text


# name -> (entry point, text(k)): a text one tree level higher per unit of k
# (a "| p == q" or "+ q" link, or one more prefix operator) around the
# operator, constant or contact atom named, which the rest of the text
# nests on the side named; chains are long enough that each operator makes
# most of the height
FORMULA_LINKS = {"<=>": 12, "=>": 24, "|": 40, "&": 16}
TERM_LINKS = {"+": 40, ".": 16}
HEIGHT_CASES = {
    **{f"{op} {side}": ("formula", lambda k, op=op, side=side: (
        f"({_formula_chain(op, side, links)})" + " | p == q" * k))
       for op, links in FORMULA_LINKS.items() for side in ("left", "right")},
    **{f"{op} {side}": ("formula", lambda k, op=op, side=side: (
        f"({_term_chain(op, side, links)})" + " + q" * k + " == p"))
       for op, links in TERM_LINKS.items() for side in ("left", "right")},
    **{f"{op} term {side}": ("term", lambda k, op=op, side=side: (
        f"({_term_chain(op, side, links)})" + " + q" * k))
       for op, links in TERM_LINKS.items() for side in ("left", "right")},
    **{f"{op} left": ("formula", lambda k, op=op: "p" + " + q" * k + f" {op} p")
       for op in ("==", "!=", "<=")},
    **{f"{op} right": ("formula", lambda k, op=op: f"p {op} p" + " + q" * k)
       for op in ("==", "!=", "<=")},
    "~": ("formula", lambda k: "~" * k + "p == q"),
    "-": ("formula", lambda k: "-" * k + "p == q"),
    "- term": ("term", lambda k: "-" * k + "p"),
    "0": ("formula", lambda k: "0" + " + q" * k + " == p"),
    "1": ("formula", lambda k: "1" + " + q" * k + " == p"),
    "0 term": ("term", lambda k: "q + 0" + " + q" * k),
    "1 term": ("term", lambda k: "q . 1" + " + q" * k),
    "C left": ("formula", lambda k: "C(p" + " + q" * k + ", p)"),
    "C right": ("formula", lambda k: "C(p, p" + " + q" * k + ")"),
}
TOO_DEEP = "nested too deeply at offset 0"
# characters a one-character edit inserts or substitutes
EDIT_CHARACTERS = "pqC01(),-+.~|&=!<> \t"


@st.composite
def one_character_edits(draw, texts) -> str:
    """A text drawn from ``texts`` with one character inserted, deleted or
    replaced by one of ``EDIT_CHARACTERS``."""
    text = draw(texts)
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    char = draw(st.sampled_from(EDIT_CHARACTERS))
    if kind == "insert" or not text:
        i = draw(st.integers(0, len(text)))
        return text[:i] + char + text[i:]
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + (char if kind == "replace" else "") + text[i + 1:]


class TestParser:
    def test_contact_implication_shape(self):
        f = lg.parse("C(p,q) => p.q != 0")
        assert isinstance(f, lg.Or)
        assert isinstance(f.left, lg.Not)
        assert isinstance(f.left.body, lg.Contact)

    def test_leq_abbreviation(self):
        assert lg.parse("p <= q") == lg.Eq(lg.Join(lg.Variable("p"), lg.Variable("q")),
                                           lg.Variable("q"))

    def test_meet_expansion(self):
        t = lg.parse_term("p.q")
        assert t == lg.meet(lg.Variable("p"), lg.Variable("q"))

    def test_zero_uses_first_variable(self):
        f = lg.parse("~C(0,p)")
        zero = f.body.left
        assert zero == lg.zero_term(lg.Variable("p"))

    def test_error_position(self):
        with pytest.raises(lg.FormulaSyntaxError) as err:
            lg.parse("C(p")
        assert err.value.position == 3

    def test_unbalanced(self):
        with pytest.raises(lg.FormulaSyntaxError):
            lg.parse("(C(p,q) | C(q,p)")

    def test_trailing_garbage(self):
        with pytest.raises(lg.FormulaSyntaxError):
            lg.parse("p == q q")

    def test_precedence(self):
        # ~ binds tighter than &, & tighter than |, => right-associative
        f1 = lg.parse("~C(p,q) & C(q,p) | p == q")
        f2 = lg.parse("((~C(p,q)) & C(q,p)) | (p == q)")
        assert f1 == f2
        f3 = lg.parse("p == p => q == q => p == q")
        f4 = lg.parse("p == p => (q == q => p == q)")
        assert f3 == f4

    def test_term_parens_vs_formula_parens(self):
        assert lg.parse("(p + q) == q") == lg.parse("p + q == q")
        assert lg.parse("(p == q)") == lg.parse("p == q")

    @pytest.mark.parametrize("text", [
        "~" * 3000 + "p == q",
        "(" * 600 + "p == q" + ")" * 600,
        " | ".join(["p == q"] * 1500),
        " => ".join(["p == q"] * 1500),
    ], ids=["3000-negations", "600-parens", "1500-disjuncts", "1500-implications"])
    def test_nested_too_deeply(self, text):
        with pytest.raises(lg.FormulaSyntaxError, match="nested too deeply"):
            lg.parse(text)

    @pytest.mark.parametrize("text", [
        "-" * 3000 + "p",
        "(" * 600 + "p" + ")" * 600,
        " + ".join(["p"] * 1500),
    ], ids=["3000-complements", "600-parens", "1500-joins"])
    def test_term_nested_too_deeply(self, text):
        with pytest.raises(lg.FormulaSyntaxError, match="nested too deeply"):
            lg.parse_term(text)

    def test_iff_chain_parses_in_linear_time(self):
        # each <=> shares its operands; expanding them apart doubled the
        # parse work per link (a 19-link chain took about half a minute)
        start = time.perf_counter()
        f = lg.parse(" <=> ".join(["p == q"] * 20))
        assert time.perf_counter() - start < 2.0
        # an even number of equal links folds to a tautology
        assert lg.find_countermodel(f, 3) is None

    def test_free_variables_linear_on_iff_chain(self):
        # built without the parser, which rejects 30 operands as too deep;
        # as a tree the chain has 2^29 leaves
        p, q = lg.Variable("p"), lg.Variable("q")
        f = lg.Eq(p, q)
        for _ in range(29):
            f = lg.iff(f, lg.Contact(p, lg.Complement(q)))
        start = time.perf_counter()
        assert lg.free_variables(f) == {"p", "q"}
        assert time.perf_counter() - start < 1.0
        with pytest.raises(TypeError, match="not a formula"):
            lg.free_variables(p)

    def test_eq_and_hash_linear_on_iff_chain(self):
        # two parses of one text are one object; as trees they have 2^20
        # leaves
        text = " <=> ".join(["p == q"] * 20)
        a, b = lg.parse(text), lg.parse(text)
        c = lg.parse(" <=> ".join(["p == q"] * 19 + ["p == r"]))
        start = time.perf_counter()
        assert hash(a) == hash(b) and a == b
        assert a != c and b != c
        assert time.perf_counter() - start < 1.0
        assert len({a, b, c}) == 2

    def test_eq_and_hash_are_structural(self):
        p, q = lg.Variable("p"), lg.Variable("q")
        assert lg.Eq(p, q) == lg.Eq(lg.Variable("p"), lg.Variable("q"))
        assert hash(lg.Eq(p, q)) == hash(lg.Eq(lg.Variable("p"), lg.Variable("q")))
        assert lg.Eq(p, q) != lg.Contact(p, q)
        assert lg.Eq(p, q) != lg.Eq(q, p)
        assert lg.Complement(p) != p and p != "p"
        assert lg.parse("p <= q") == lg.parse("(p + q) == q")

    def test_nesting_limit_admits_its_depth(self):
        depth = lg.MAX_NESTING
        assert lg.parse("(" * depth + "p == q" + ")" * depth) == lg.parse("p == q")
        assert lg.parse(" | ".join(["p == q"] * (depth - 1))) is not None
        assert lg.parse_term("-" * (depth - 1) + "p") is not None

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(formula_texts(), deep_texts()))
    @example("p == q | r")
    @example("p + (" + "~" * 120 + "q == p) == q")
    def test_matches_reference_parser(self, text):
        # equal trees, both rejecting, or the same "nested too deeply" error
        def outcome(parse, text):
            try:
                return parse(text)
            except lg.FormulaSyntaxError as err:
                return str(err) if "nested too deeply" in str(err) else "rejected"

        assert outcome(lg.parse, text) == outcome(reference_parse, text)
        assert outcome(lg.parse_term, text) == outcome(reference_parse_term, text)

    @pytest.mark.parametrize("case", sorted(HEIGHT_CASES))
    def test_height_limit_matches_reference_walk(self, case):
        # the reference parser checks the tree height with a separate walk;
        # the last k it accepts gives a tree exactly MAX_NESTING high, the
        # next one a tree one level higher
        entry, text = HEIGHT_CASES[case]
        parse, reference = ((lg.parse, reference_parse) if entry == "formula"
                            else (lg.parse_term, reference_parse_term))

        def outcome(parse, k):
            try:
                return parse(text(k))
            except lg.FormulaSyntaxError as err:
                assert "nested too deeply" in str(err)
                return str(err)

        def rejected(k):
            return isinstance(outcome(reference, k), str)

        lo, hi = 0, 2 * lg.MAX_NESTING
        assert not rejected(lo) and rejected(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if rejected(mid) else (mid, hi)
        assert outcome(parse, lo) == outcome(reference, lo)
        assert outcome(parse, hi) == outcome(reference, hi) == TOO_DEEP

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(formula_texts(),
                     st.text(alphabet="pq01C(),-+.~|&=!<> \t\nA2_$", max_size=40)))
    @example("p == q\u00a0| C(p, q)")
    @example("C (p, q)")
    @example("p == Q")
    @example("C(p, q) | pC(q, p)")
    def test_tokenize_matches_reference(self, text):
        # the same tokens at the same offsets, or the same "unexpected
        # character" error; ``C(`` is one token, at the offset of its C
        def reference():
            tokens = []
            for kind, value, where in reference_tokenize(text):
                if tokens and tokens[-1][0] == "C" and value == "(":
                    tokens[-1] = ("C(", tokens[-1][1])
                else:
                    tokens.append((value, where))
            return tokens

        def outcome(tokenize):
            try:
                return tokenize()
            except lg.FormulaSyntaxError as err:
                return str(err), err.position

        def tokenize():
            tokens = lg._tokenize(text)
            assert tokens[-1] == lg._END
            assert lg._offset(text, len(tokens) - 1) == len(text)
            return [(token, lg._offset(text, i)) for i, token in enumerate(tokens[:-1])]

        assert outcome(tokenize) == outcome(reference)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(formula_texts(), deep_texts(),
                     one_character_edits(st.one_of(formula_texts(), deep_texts()))))
    @example("C (p, q)")
    @example("p !== q")
    @example("p <=>q")
    @example("   ")
    @example("p == q)")
    @example("p == q C(p, q)")
    @example("(p == q C(p, q)")
    @example("C(p, q")
    @example("  -(p == q) == p")
    def test_outcome_matches_pratt_reference(self, text):
        # the same tree, or the same error message at the same offset, as
        # the precedence climbing over (kind, text, offset) tokens
        def outcome(parse):
            try:
                return parse(text)
            except lg.FormulaSyntaxError as err:
                return str(err), err.position

        assert outcome(lg.parse) == outcome(reference_pratt_parse)
        assert outcome(lg.parse_term) == outcome(reference_pratt_parse_term)


class _CountingAlgebra(FiniteContactAlgebra):
    """A power-set algebra that counts its complements and joins."""

    def __init__(self, cells, succ):
        super().__init__(cells, succ)
        self.calls = {"complement": 0, "join": 0}

    def complement(self, x):
        self.calls["complement"] += 1
        return super().complement(x)

    def join(self, x, y):
        self.calls["join"] += 1
        return super().join(x, y)


def _distinct(f, kind) -> int:
    """The number of distinct nodes of one type in a formula."""
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(lg._children(node))
    return sum(type(node) is kind for node in seen)


class TestEvaluate:
    def test_tautology(self):
        algebra = induced_algebra(TRIANGLE)
        assert lg.evaluate(lg.parse("x == x"), algebra, {"x": 5})

    def test_c1_axiom(self):
        algebra = induced_algebra(TRIANGLE)
        f = lg.parse("~C(0,p)")
        assert all(lg.evaluate(f, algebra, {"p": m}) for m in algebra.elements())

    def test_connectedness_axiom_instance(self):
        algebra = induced_algebra(TRIANGLE)
        f = lg.parse("x != 0 => (x != 1 => C(x,-x))")
        assert lg.true_in_algebra(f, algebra)

    def test_unbound_variable(self):
        algebra = induced_algebra(TRIANGLE)
        with pytest.raises(lg.UnboundVariable):
            lg.evaluate(lg.parse("C(p,q)"), algebra, {"p": 1})

    @pytest.mark.parametrize("q", [1, 2], ids=["operands-true", "operands-false"])
    def test_iff_chain_evaluates_each_operand_at_most_twice(self, q):
        # as a tree the chain has 2^19 copies of its first operand
        calls = []

        class Counting(FiniteContactAlgebra):
            def equal(self, x, y):
                calls.append(None)
                return x == y

        f = lg.parse(" <=> ".join(["p == q"] * 20))
        algebra = Counting("ab", [3, 3])
        # an even number of equal operands folds to true
        assert lg.evaluate(f, algebra, {"p": 1, "q": q})
        assert len(calls) <= 2 * 20

    def test_each_distinct_subterm_computed_once(self):
        # -(p + q + r) and p.q.r each occur three times; every disjunct is
        # false, so each is computed and each distinct node once
        algebra = _CountingAlgebra("ab", [1, 2])
        f = lg.parse("p.q.r == 0 | C(p.q.r, -(p+q+r)) | -(p+q+r) == p.q.r")
        assert not lg.evaluate(f, algebra, {"p": 1, "q": 1, "r": 1})
        assert algebra.calls == {"complement": _distinct(f, lg.Complement),
                                 "join": _distinct(f, lg.Join)}
        assert algebra.calls == {"complement": 9, "join": 5}
        # the walk over the tree computes the shared subterms again
        tree = _CountingAlgebra("ab", [1, 2])
        assert not reference_evaluate(f, tree, {"p": 1, "q": 1, "r": 1})
        assert tree.calls == {"complement": 24, "join": 11}

    @settings(max_examples=200, deadline=None)
    @given(formula_texts(), st.integers(0, 2 ** 32 - 1))
    def test_no_subterm_computed_twice(self, text, seed):
        f = _parsed(text)
        if f is None:
            return
        rng = random.Random(seed)
        algebra = _CountingAlgebra("abc", [rng.getrandbits(3) for _ in range(3)])
        valuation = {name: rng.getrandbits(3) for name in VALUATION_NAMES}
        assert (lg.evaluate(f, algebra, valuation)
                == reference_evaluate(f, FiniteContactAlgebra("abc", algebra.succ), valuation))
        assert algebra.calls["complement"] <= _distinct(f, lg.Complement)
        assert algebra.calls["join"] <= _distinct(f, lg.Join)

    def test_leq_respects_expansion(self):
        algebra = IntervalAlgebra()
        rng = random.Random(3)
        for _ in range(50):
            v = {"a": random_interval_polytope(rng),
                 "b": random_interval_polytope(rng)}
            assert (lg.evaluate(lg.parse("a <= b"), algebra, v)
                    == lg.evaluate(lg.parse("a + b == b"), algebra, v))

    def test_works_over_interval_algebra(self):
        algebra = IntervalAlgebra()
        rng = random.Random(4)
        f = lg.parse("C(p,q) <=> C(q,p)")
        for _ in range(40):
            v = {"p": random_interval_polytope(rng),
                 "q": random_interval_polytope(rng)}
            assert lg.evaluate(f, algebra, v)


class TestAxiomInstance:
    def test_c3(self):
        assert lg.is_axiom_instance(lg.parse("C(x,y) => C(y,x)")) == "C3"

    def test_connectedness(self):
        f = lg.parse("x != 0 => (x != 1 => C(x,-x))")
        assert lg.is_axiom_instance(f) == "connectedness"

    def test_non_axiom(self):
        assert lg.is_axiom_instance(lg.parse("C(x,y) => x.y != 0")) is None

    def test_c1_and_c2(self):
        assert lg.is_axiom_instance(lg.parse("~C(0,a)")) == "C1"
        f = lg.parse("C(a,b+c) <=> (C(a,b) | C(a,c))")
        assert lg.is_axiom_instance(f) == "C2"

    def test_compound_instances(self):
        f = lg.parse("C(-a, (b+b)+c) => C((b+b)+c, -a)")
        assert lg.is_axiom_instance(f) == "C3"
        # nonlinear: both occurrences must match the same term
        assert lg.is_axiom_instance(lg.parse("C(a,b) => C(a,a)")) is None

    def test_boolean_basis(self):
        assert lg.is_axiom_instance(lg.parse("x + (y + z) == (x + y) + z")) == "BA-join-assoc"
        assert lg.is_axiom_instance(lg.parse("x + (-x) == 1")) == "BA-compl-join"
        assert lg.is_axiom_instance(lg.parse("x.(-x) == 0")) == "BA-compl-meet"
        assert lg.is_axiom_instance(lg.parse("x.(y+z) == x.y + x.z")) == "BA-distr-meet"

    def test_propositional_basis(self):
        assert lg.is_axiom_instance(lg.parse("p == q => (C(p,q) => p == q)")) == "P1"

    def test_generated_instances_are_recognised(self):
        instances = lg.generate_axiom_instances(("p", "q"), single_depth=1, multi_depth=0)
        assert instances
        for _, formula in instances:
            assert lg.is_axiom_instance(formula) is not None

    def test_generated_instances_pinned(self):
        # scheme, text and recognised scheme of every instance over one and
        # two variables (4,151 formulas)
        start = time.process_time()
        digest = hashlib.sha256()
        for names in (("p",), ("p", "q")):
            for name, formula in lg.generate_axiom_instances(names):
                line = f"{name}|{lg.format_formula(formula)}|{lg.is_axiom_instance(formula)}\n"
                digest.update(line.encode())
        assert digest.hexdigest() == (
            "30a520806cbdf82c2831b5d3210f7842336ebc61041cab67c19e10926e90e649")
        assert time.process_time() - start < 3


class TestCountermodel:
    def test_contact_without_overlap(self):
        found = lg.find_countermodel("C(p,q) => p.q != 0", 2)
        assert found is not None
        space, valuation = found
        assert len(space.cells) == 2
        assert valuation == {"p": frozenset("a"), "q": frozenset("b")}

    def test_tautology_none(self):
        assert lg.find_countermodel("x == x", 3) is None

    def test_axiom_instances_none_at_bound(self):
        rng = random.Random(6)
        instances = lg.generate_axiom_instances(("p", "q"), single_depth=1, multi_depth=0)
        for _, formula in rng.sample(instances, 25):
            assert lg.find_countermodel(formula, 3) is None

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            lg.find_countermodel("x == x", 0)
        with pytest.raises(ValueError, match="<= 8"):
            lg.find_countermodel("x == x", lg.MAX_BOUND + 1)

    def test_minimality_of_result(self):
        # the connectedness axiom fails in disconnected spaces only, which
        # the search never visits, so it has no countermodel
        f = "x != 0 => (x != 1 => C(x,-x))"
        assert lg.find_countermodel(f, 4) is None


NAMES = ("p", "q", "r")


def terms():
    return st.recursive(
        st.sampled_from([lg.Variable(n) for n in NAMES]),
        lambda sub: st.one_of(st.builds(lg.Complement, sub), st.builds(lg.Join, sub, sub)),
        max_leaves=5)


def formulas():
    atoms = st.one_of(st.builds(lg.Eq, terms(), terms()),
                      st.builds(lg.Contact, terms(), terms()))
    return st.recursive(
        atoms,
        lambda sub: st.one_of(st.builds(lg.Not, sub), st.builds(lg.Or, sub, sub)),
        max_leaves=4)


@st.composite
def finite_algebras(draw, max_cells=4):
    """Power-set algebras whose successor masks are arbitrary: the relation
    need not be reflexive or symmetric."""
    n = draw(st.integers(1, max_cells))
    succ = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return FiniteContactAlgebra("abcd"[:n], succ)


def seeded_non_theorems(count: int, names, bound: int) -> list[lg.Formula]:
    rng = random.Random(f"non-theorems/{len(names)}/{bound}")
    out = []
    while len(out) < count:
        f = lg.parse(random_formula_text(rng, names))
        if lg.free_variables(f) == set(names) and scalar_find_countermodel(
                f, lg.enumerate_connected_spaces(bound)) is not None:
            out.append(f)
    return out


def _evaluation(evaluate, f, algebra, valuation):
    """The value and its type, or the variable found unbound."""
    try:
        value = evaluate(f, algebra, valuation)
    except lg.UnboundVariable as exc:
        return "unbound", exc.args[0]
    return value, type(value)


def _parsed(text: str):
    try:
        return lg.parse(text)
    except lg.FormulaSyntaxError:
        return None


# the variables of the random formulas, and "a", over which 0 and 1 expand
# in a formula with no variable
VALUATION_NAMES = ("p", "q", "r", "a")


def _assert_evaluations_match(f, algebra, values):
    # under every subset of the variables left unbound, so that the
    # evaluation order shows in which one is found unbound first
    for bound in product((True, False), repeat=len(VALUATION_NAMES)):
        valuation = {name: value for name, value, keep in zip(VALUATION_NAMES, values, bound)
                     if keep}
        assert (_evaluation(lg.evaluate, f, algebra, valuation)
                == _evaluation(reference_evaluate, f, algebra, valuation))


class TestEvaluateMatchesReference:
    """The type-dispatched evaluator against the ``match``-based one it
    replaced, also where variables are unbound."""

    @settings(max_examples=200, deadline=None)
    @given(formula_texts(), st.integers(0, 2 ** 32 - 1))
    def test_finite_algebras(self, text, seed):
        # power-set algebras of 1-4 cells with arbitrary successor masks
        f = _parsed(text)
        if f is None:
            return
        rng = random.Random(seed)
        for _ in range(8):
            n = rng.randint(1, 4)
            algebra = FiniteContactAlgebra("abcd"[:n], [rng.getrandbits(n) for _ in range(n)])
            _assert_evaluations_match(f, algebra, [rng.getrandbits(n) for _ in VALUATION_NAMES])

    @settings(max_examples=100, deadline=None)
    @given(formula_texts(), st.integers(0, 2 ** 32 - 1))
    def test_cylinder_algebra(self, text, seed):
        f = _parsed(text)
        if f is None:
            return
        rng = random.Random(seed)
        algebra = CylinderAlgebra(1)
        _assert_evaluations_match(f, algebra, [algebra.sample(rng) for _ in VALUATION_NAMES])


class TestBitSlicedKernel:
    """The bit-sliced search against the scalar evaluator it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(formulas(), finite_algebras(), st.sampled_from([bs.SLICE_BITS, 0, 3, 5]))
    def test_every_bit_matches_evaluate(self, f, algebra, cap):
        # a cap below cells x variables splits the valuations into runs
        program = lg.compile_formula(f)
        k = len(program.names)
        valuations = product(algebra.elements(), repeat=k)
        with mock.patch.object(bs, "SLICE_BITS", cap):
            runs = list(program.truth_runs(algebra))
        for prefix, truth, full in runs:
            for v in range(full.bit_length()):
                masks = next(valuations)
                assert masks[:len(prefix)] == prefix
                valuation = dict(zip(program.names, masks))
                assert bool(truth >> v & 1) == lg.evaluate(f, algebra, valuation)
        assert next(valuations, None) is None

    @settings(max_examples=150, deadline=None)
    @given(formulas(), st.integers(1, 3), st.sampled_from([bs.SLICE_BITS, 0, 2, 4]))
    def test_first_falsifier_matches_scalar_search(self, f, bound, cap):
        # at the default cap every space of up to 3 cells is one run, the
        # path without truth_runs; the lower caps fix leading variables
        with mock.patch.object(bs, "SLICE_BITS", cap):
            found = lg.find_countermodel(f, bound)
        assert found == scalar_find_countermodel(f, lg.enumerate_connected_spaces(bound))

    @settings(max_examples=100, deadline=None)
    @given(formulas(), finite_algebras(max_cells=3))
    def test_true_in_algebra_matches_evaluate(self, f, algebra):
        names = sorted(lg.free_variables(f))
        expected = all(lg.evaluate(f, algebra, dict(zip(names, masks)))
                       for masks in product(algebra.elements(), repeat=len(names)))
        assert lg.true_in_algebra(f, algebra) == expected

    def test_shared_subterms_compile_once(self):
        f = lg.parse("C(p,q+r) <=> (C(p,q) | C(p,r))")
        program = lg.compile_formula(f)
        assert len(program.code) == len(set(program.code))
        contacts = [op for op in program.code if op[0] == bs.CONTACT]
        assert len(contacts) == 3

    def test_axiom_instances_match_reference(self):
        rng = random.Random(21)
        two = [f for _, f in lg.generate_axiom_instances(("p", "q"))
               if len(lg.free_variables(f)) == 2]
        three = [f for _, f in lg.generate_axiom_instances(("p", "q", "r"), 1, 0)
                 if len(lg.free_variables(f)) == 3]
        for formulas_, bound in ((rng.sample(two, 20), 4), (rng.sample(three, 6), 3)):
            for f in formulas_:
                assert lg.find_countermodel(f, bound) is None
                assert scalar_find_countermodel(
                    f, lg.enumerate_connected_spaces(bound)) is None

    @pytest.mark.parametrize("names,bound", [
        (("p",), 4), (("p", "q"), 4), (("p", "q", "r"), 3)])
    def test_non_theorems_match_reference(self, names, bound):
        for f in seeded_non_theorems(12, names, bound):
            assert lg.find_countermodel(f, bound) == scalar_find_countermodel(
                f, lg.enumerate_connected_spaces(bound))

    @pytest.mark.parametrize("cap", [0, 3, 5, 8])
    def test_lowered_cap_matches_reference(self, cap, monkeypatch):
        # below the cap, leading variables are fixed outside the kernel
        monkeypatch.setattr(bs, "SLICE_BITS", cap)
        for names, bound in ((("p", "q"), 4), (("p", "q", "r"), 3)):
            for f in seeded_non_theorems(6, names, bound):
                assert lg.find_countermodel(f, bound) == scalar_find_countermodel(
                    f, lg.enumerate_connected_spaces(bound))

    def test_crossing_the_cap_matches_reference(self):
        # five pairwise-disjoint nonzero regions need five cells, so the
        # search reaches 5 cells x 4 variables = 20 index bits, past the cap
        f = lg.parse("~(p != 0 & q != 0 & r != 0 & s != 0 & p.q == 0 & p.r == 0 & "
                     "p.s == 0 & q.r == 0 & q.s == 0 & r.s == 0 & p+q+r+s != 1)")
        assert 5 * 4 > bs.SLICE_BITS
        spaces = list(lg.enumerate_connected_spaces(5))
        for space in spaces:
            if len(space.cells) < 5:
                assert batch_true_in_algebra(f, induced_algebra(space))
        first = next(s for s in spaces if len(s.cells) == 5)
        found = lg.find_countermodel(f, 5)
        assert found is not None and found == scalar_find_countermodel(f, [first])


class TestCompileFormula:
    """``compile_formula`` against the compiler that pops each node twice:
    equal code, slot order included."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(formula_texts(), deep_texts()))
    def test_formula_texts_match_reference(self, text):
        f = _parsed(text)
        if f is not None:
            assert lg.compile_formula(f).code == reference_compile_formula(f).code

    @pytest.mark.parametrize("operands", range(1, 17))
    def test_iff_chains_match_reference(self, operands):
        # each <=> holds both of its operands twice, so the chain is a DAG
        # whose tree doubles per link
        f = lg.parse(" <=> ".join(["p == q"] * operands))
        code = lg.compile_formula(f).code
        assert code == reference_compile_formula(f).code
        assert len(code) == len(set(code))

    def test_axiom_instances_match_reference(self):
        instances = lg.generate_axiom_instances(("p", "q", "r"))
        assert instances
        for _, f in instances:
            assert lg.compile_formula(f).code == reference_compile_formula(f).code

    def test_not_a_node_rejected(self):
        with pytest.raises(TypeError, match="not a term or formula"):
            lg.compile_formula(lg.Not("p"))


class _ForwardDecodedProgram(bs.Program):
    """A ``Program`` whose steps come from the forward decode."""

    def __init__(self, code):
        self.code = code
        self.steps, self.names = reference_decode(code)


class TestProgramDecode:
    """``Program``'s backward decode against the forward one: equal steps,
    the slots each instruction drops in the same order, and equal names."""

    def test_axiom_instances_match_reference(self):
        instances = lg.generate_axiom_instances(("p", "q", "r"))
        assert len(instances) == 25695
        for _, f in instances:
            code = lg.compile_formula(f).code
            program = bs.Program(code)
            assert (program.steps, program.names) == reference_decode(code)
            # an axiom instance has no countermodel: the search with the
            # backward decode finds none, as it found none with the forward
            assert lg.find_countermodel(f, 4) is None

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(formula_texts(), deep_texts()))
    def test_formula_texts_match_reference(self, text):
        f = _parsed(text)
        if f is not None:
            code = lg.compile_formula(f).code
            program = bs.Program(code)
            assert (program.steps, program.names) == reference_decode(code)
            with mock.patch.object(bs, "Program", _ForwardDecodedProgram):
                reference = lg.find_countermodel(f, 4)
            assert lg.find_countermodel(f, 4) == reference

    @pytest.mark.parametrize("code", [
        [(bs.VAR, "p"), (bs.JOIN, 0, 0)],
        [(bs.VAR, "q"), (bs.VAR, "p"), (bs.CONTACT, 1, 0), (bs.EQ, 0, 1), (bs.OR, 3, 2)],
        [(bs.VAR, "p"), (bs.COMPLEMENT, 0), (bs.JOIN, 1, 0), (bs.NOT, 2)],
        [(bs.VAR, "p"), (bs.VAR, "p"), (bs.EQ, 0, 1)],
    ], ids=["same-slot-twice", "pair-first-used-together", "pair-first-used-apart",
            "repeated-name"])
    def test_hand_written_code_matches_reference(self, code):
        program = bs.Program(code)
        assert (program.steps, program.names) == reference_decode(code)


class TestKernelState:
    """What a run needs besides its program is built once and shared: each
    algebra's successor lists, interned per successor mask, and the bit
    patterns by width."""

    @settings(max_examples=100, deadline=None)
    @given(finite_algebras())
    def test_successor_lists_are_the_bits_of_succ(self, algebra):
        n = len(algebra.cells)
        assert algebra.near == tuple(tuple(j for j in range(n) if succ >> j & 1)
                                     for succ in algebra.succ)

    def test_equal_successor_masks_share_tuples(self):
        a = FiniteContactAlgebra("abc", [0b011, 0b111, 0b100])
        b = FiniteContactAlgebra("xyz", [0b100, 0b011, 0b011])
        assert a.near[0] is b.near[1] is b.near[2]
        assert a.near[2] is b.near[0]
        cached = [near for n in range(1, 7) for _, algebra in lg._spaces_with_cells(n)
                  for near in algebra.near]
        assert len({id(near) for near in cached}) == len(set(cached))

    def test_second_search_builds_no_successor_list_or_pattern(self, monkeypatch):
        # a fresh enumeration cache and pattern cache, so the first search
        # builds both
        monkeypatch.setattr(lg, "_SPACE_CACHE", {})
        monkeypatch.setattr(bs, "_PATTERNS", {})
        built = {"near": 0, "patterns": 0}
        successor_tuple, bit_patterns = alg._successor_tuple, bs.bit_patterns

        def counting_successor_tuple(mask):
            built["near"] += 1
            return successor_tuple(mask)

        def counting_bit_patterns(width):
            built["patterns"] += 1
            return bit_patterns(width)

        monkeypatch.setattr(alg, "_successor_tuple", counting_successor_tuple)
        monkeypatch.setattr(bs, "bit_patterns", counting_bit_patterns)
        assert lg.find_countermodel("C(p,q) => C(q,p)", 4) is None
        # one successor list per cell of the 1 + 1 + 2 + 6 spaces
        assert built["near"] == 1 + 2 + 2 * 3 + 6 * 4 and built["patterns"] > 0
        built.update(near=0, patterns=0)
        assert lg.find_countermodel("p.q == q.p", 4) is None
        found = lg.find_countermodel("C(p,q) => p.q != 0", 4)
        assert found is not None and built == {"near": 0, "patterns": 0}

    @pytest.mark.parametrize("cap", range(bs.SLICE_BITS + 1))
    def test_every_cap_matches_evaluate(self, cap, monkeypatch):
        # every run width up to the cap, with the pattern cache shared
        # across the caps
        monkeypatch.setattr(bs, "SLICE_BITS", cap)
        rng = random.Random(f"caps/{cap}")
        for names, cells in ((("p", "q"), 3), (("p", "q", "r"), 2)):
            f = lg.parse(random_formula_text(rng, names))
            program = lg.compile_formula(f)
            algebra = FiniteContactAlgebra(
                "abc"[:cells], [1 << i | rng.getrandbits(cells) for i in range(cells)])
            valuations = product(algebra.elements(), repeat=len(program.names))
            for prefix, truth, full in program.truth_runs(algebra):
                for v in range(full.bit_length()):
                    masks = next(valuations)
                    assert masks[:len(prefix)] == prefix
                    valuation = dict(zip(program.names, masks))
                    assert bool(truth >> v & 1) == lg.evaluate(f, algebra, valuation)
            assert next(valuations, None) is None


def as_networkx(space):
    graph = nx.Graph()
    graph.add_nodes_from(space.cells)
    graph.add_edges_from(space.edges)
    return graph


def degree_key(graph) -> tuple:
    return tuple(sorted(d for _, d in graph.degree()))


class TestEnumeration:
    def test_space_counts_up_to_iso(self):
        # connected graphs up to isomorphism (OEIS A001349)
        counts = {}
        for space in lg.enumerate_connected_spaces(7):
            counts[len(space.cells)] = counts.get(len(space.cells), 0) + 1
        assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

    def test_matches_labelled_scan(self):
        # the augmentation keeps the scan's representatives and their order
        spaces = list(lg.enumerate_connected_spaces(6))
        scanned = [s for n in range(1, 7) for s in scan_connected_spaces(n)]
        assert [(s.cells, s.edges) for s in spaces] == \
            [(s.cells, s.edges) for s in scanned]

    def test_one_space_per_atlas_class(self):
        # the atlas lists every graph on up to 7 nodes once up to isomorphism
        atlas: dict[tuple, list] = {}
        for graph in nx.graph_atlas_g():
            if len(graph) and nx.is_connected(graph):
                atlas.setdefault(degree_key(graph), []).append(graph)
        matched = set()
        for space in lg.enumerate_connected_spaces(7):
            graph = as_networkx(space)
            hits = [id(g) for g in atlas.get(degree_key(graph), [])
                    if nx.is_isomorphic(g, graph)]
            assert len(hits) == 1 and hits[0] not in matched
            matched.add(hits[0])
        assert len(matched) == sum(len(gs) for gs in atlas.values())

    def test_bound_seven_search(self):
        # 996 spaces, 2^(3n) valuations each; the labelled scan alone
        # visited 2^21 graphs on 7 cells
        start = time.perf_counter()
        assert lg.find_countermodel("~C(p,q+r) | C(p,q) | C(p,r)", 7) is None
        assert time.perf_counter() - start < 60.0

    def test_canonical_mask_matches_reference(self):
        # every one-cell augmentation the enumeration canonicalises
        for n in range(2, 8):
            pairs = lg._pair_bits(n)
            index = {pair: k for k, pair in enumerate(pairs)}
            candidates = []
            for small in lg._connected_masks(n - 1):
                base = sum(1 << index[pair] for k, pair in enumerate(lg._pair_bits(n - 1))
                           if small >> k & 1)
                for nbrs in range(1, 1 << (n - 1)):
                    candidates.append(base | sum(1 << index[(v, n - 1)] for v in range(n - 1)
                                                 if nbrs >> v & 1))
            for mask in candidates:
                assert lg._canonical_mask(mask, n, pairs) == \
                    reference_canonical_mask(mask, n, pairs)
        assert len(candidates) == 112 * 63 == 7056

    def test_bound_eight_class_count(self):
        # connected graphs on 8 nodes up to isomorphism (OEIS A001349)
        assert len(lg._connected_masks(8)) == 11117

    def test_all_connected(self):
        from polycontact.adjacency import is_connected
        for space in lg.enumerate_connected_spaces(4):
            assert is_connected(space)


class TestSpaceCache:
    """Each enumerated space is cached with its contact algebra, which the
    search reuses on every query."""

    def test_cached_algebras_are_induced(self):
        for n in range(1, 8):
            for space, algebra in lg._spaces_with_cells(n):
                induced = induced_algebra(space)
                assert (algebra.cells, algebra.succ) == (induced.cells, induced.succ)

    def test_search_builds_no_algebra(self, monkeypatch):
        spaces = list(lg.enumerate_connected_spaces(4))
        built = []
        init = FiniteContactAlgebra.__init__

        def counting_init(self, *args):
            built.append(None)
            init(self, *args)

        monkeypatch.setattr(FiniteContactAlgebra, "__init__", counting_init)
        assert lg.find_countermodel("C(p,q) => C(q,p)", 4) is None
        found = lg.find_countermodel("C(p,q) => p.q != 0", 4)
        assert found is not None and built == []
        # the reference builds its own algebra for every space it searches
        assert scalar_find_countermodel(lg.parse("C(p,q) => C(q,p)"), spaces) is None
        assert len(built) == len(spaces)

    def test_returned_space_is_the_enumerated_object(self):
        space, _ = lg.find_countermodel("C(p,q) => p.q != 0", 4)
        assert any(s is space for s in lg.enumerate_connected_spaces(4))
        assert [id(s) for s in lg.enumerate_connected_spaces(4)] == \
            [id(s) for s in lg.enumerate_connected_spaces(4)]


class TestTermPool:
    def test_depth_counts(self):
        assert len(lg.terms_up_to_depth(0, ("p", "q"))) == 2
        assert len(lg.terms_up_to_depth(1, ("p", "q"))) == 8
        pool = lg.terms_up_to_depth(2, ("p", "q"))
        assert all(lg.term_depth(t) <= 2 for t in pool)
        assert len(pool) == len(set(pool))


class TestBatchEvaluator:
    def test_matches_scalar_evaluation(self):
        rng = random.Random(8)
        formulas = [lg.parse(s) for s in
                    ("C(p,q) => p.q != 0",
                     "C(p,q) => C(q,p)",
                     "p <= q => (C(p,p) => C(q,q))",
                     "~C(0,p)",
                     "p + q == q + p")]
        for space in lg.enumerate_connected_spaces(3):
            algebra = induced_algebra(space)
            for f in formulas:
                assert batch_true_in_algebra(f, algebra) == lg.true_in_algebra(f, algebra)


def test_formula_file_parsing():
    text = "# comment\nC(p,q) => C(q,p)\n\np == p  # inline\n"
    out = lg.parse_formula_file(text)
    assert [line for line, _ in out] == [2, 4]


def test_formula_file_error_counts_in_the_line_as_written():
    text = "C(p,q) => C(q,p)\n   p == Q   # bad\n"
    with pytest.raises(lg.FormulaSyntaxError) as err:
        lg.parse_formula_file(text)
    assert str(err.value) == "line 2: unexpected character 'Q' at offset 8"
    assert err.value.position == 8 == text.splitlines()[1].index("Q")
    assert err.value.message == "line 2: unexpected character 'Q'"


@pytest.mark.parametrize("parse_text", [
    lambda: lg.parse("C(p, q"),
    lambda: lg.parse_formula_file("p == p\n   p == Q   # bad\n"),
], ids=["parse", "formula_file"])
def test_syntax_error_survives_pickling(parse_text):
    # an error raised in a worker process reaches its parent pickled
    with pytest.raises(lg.FormulaSyntaxError) as err:
        parse_text()
    back = pickle.loads(pickle.dumps(err.value))
    assert type(back) is lg.FormulaSyntaxError
    assert (str(back), back.message, back.position) == (
        str(err.value), err.value.message, err.value.position)


# ---------------------------------------------------------------------------
# interning: one node object per distinct term or formula
# ---------------------------------------------------------------------------

_BUILT_TERMS = st.recursive(
    st.sampled_from(["p", "q"]).map(lg.Variable),
    lambda terms: st.one_of(st.builds(lg.Complement, terms), st.builds(lg.Join, terms, terms)),
    max_leaves=6)
_BUILT_FORMULAS = st.recursive(
    st.one_of(st.builds(lg.Eq, _BUILT_TERMS, _BUILT_TERMS),
              st.builds(lg.Contact, _BUILT_TERMS, _BUILT_TERMS)),
    lambda formulas: st.one_of(st.builds(lg.Not, formulas), st.builds(lg.Or, formulas, formulas)),
    max_leaves=4)
_INSTANCES = [f for _, f in lg.generate_axiom_instances(("p", "q"), 1, 0)]


def _subnodes(roots) -> list:
    """Each node object under the roots, once."""
    seen, out, stack = set(), [], list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            if type(node) is not lg.Variable:
                stack.extend(lg._children(node))
    return out


class TestInterning:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(formula_texts(), max_size=3), st.lists(_BUILT_FORMULAS, max_size=3),
           st.lists(st.sampled_from(_INSTANCES), max_size=3), st.randoms(use_true_random=False))
    def test_identity_is_structural_equality(self, texts, built, instances, rng):
        # the parse of a text, the reference parser's tree, the parse of the
        # printed formula, constructor-built formulas and axiom instances:
        # two of their nodes are one object exactly when they are equal as
        # trees
        roots = [*built, *instances]
        for text in texts:
            f = _parsed(text)
            if f is not None:
                roots += [f, reference_parse(text), lg.parse(lg.format_formula(f))]
        nodes = _subnodes(roots)
        nodes = roots + rng.sample(nodes, min(len(nodes), 40))
        for a, b in combinations(nodes, 2):
            assert (a is b) == reference_node_equal(a, b)

    def test_abbreviations_build_one_node(self):
        p, q = lg.Variable("p"), lg.Variable("q")
        assert lg.parse("p <= q") is lg.parse("(p + q) == q") is lg.Eq(lg.Join(p, q), q)
        assert lg.parse_term("0") is lg.zero_term(lg.Variable("a"))
        assert lg.parse("p == 1 <=> C(p, p . q)") is lg.iff(
            lg.Eq(p, lg.one_term(p)), lg.Contact(p, lg.meet(p, q)))
        assert lg.Eq(p, q) is not lg.Contact(p, q) and lg.Eq(p, q) is not lg.Eq(q, p)

    def test_fields_are_checked_and_frozen(self):
        p = lg.Variable("p")
        for args in ((p,), (p, p, p)):
            with pytest.raises(TypeError, match="Join takes 2 fields"):
                lg.Join(*args)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.name = "q"
        assert lg.Variable("p") is p

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickling_gives_the_same_node(self, protocol):
        # a 12-link <=> chain: each link holds both of its operands twice
        chain = lg.parse(" <=> ".join(["p == q"] * 13))
        for node in (chain, lg.parse_term("p . 1"), lg.Variable("p")):
            assert pickle.loads(pickle.dumps(node, protocol)) is node
            assert copy.copy(node) is node and copy.deepcopy(node) is node

    def test_unpickled_in_a_fresh_interpreter_is_the_parse_there(self):
        text = " <=> ".join(["C(p, q . r)"] * 6)
        script = ("import pickle, sys\n"
                  "from polycontact import logic as lg\n"
                  "data = sys.stdin.buffer.read()\n"
                  "first = pickle.loads(data)\n"
                  "parsed = lg.parse(sys.argv[1])\n"
                  "print(type(first).__name__, first is parsed is pickle.loads(data))\n")
        src = str(Path(lg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", script, text],
                              input=pickle.dumps(lg.parse(text)), capture_output=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().split() == ["Not", "True"]

    def test_intern_table_keeps_nothing_alive(self):
        gc.collect()
        before = len(lg._INTERNED)
        # variables no other test uses, so every node of the chain is new
        chain = lg.parse(" <=> ".join(f"weak{k} == weak{k + 1}" for k in range(13)))
        assert len(lg._INTERNED) > before + 13
        del chain
        gc.collect()
        assert len(lg._INTERNED) == before

    def test_stale_callback_keeps_a_newer_entry(self):
        # the callback of a node that died before ``node`` took its key
        node = lg.Variable("stale")
        key = (lg.Variable, "stale")
        ref = lg._INTERNED[key]
        stale = lg._Ref(lg.Variable("stale2"))
        stale.key = key
        stale.forget()
        assert lg._INTERNED[key] is ref and lg.Variable("stale") is node


class TestNodeRepr:
    """A node prints in its dataclass form, cut at a fixed length, and the
    errors that show one name its type."""

    def test_small_nodes_print_in_full(self):
        f = lg.parse("C(p, -q) | p + q == q")
        assert repr(f) == (
            "Or(left=Contact(left=Variable(name='p'), right=Complement(term=Variable(name='q'))), "
            "right=Eq(left=Join(left=Variable(name='p'), right=Variable(name='q')), "
            "right=Variable(name='q')))")

    def test_iff_chain_repr_is_bounded(self):
        # spelled out, the 12-link chain is over a million characters
        f = lg.parse(" <=> ".join(["p == q"] * 13))
        text = repr(f)
        assert len(text) < 1000
        assert text.startswith("Not(body=Or(left=Not(body=Or(") and text.endswith("...")

    def test_type_error_messages_are_bounded_and_name_the_type(self):
        f = lg.parse(" <=> ".join(["p == q"] * 13))
        with pytest.raises(TypeError) as info:
            lg.term_value(f, FiniteContactAlgebra("a", [1]), {})
        message = str(info.value)
        assert len(message) < 1000
        assert message.startswith("not a term: Not node Not(body=")
        with pytest.raises(TypeError, match=r"^not a formula: Variable node Variable\(name='p'\)$"):
            lg.free_variables(lg.Variable("p"))
        with pytest.raises(TypeError, match=r"^not a term or formula: str 'p'$"):
            lg.compile_formula(lg.Not("p"))
        with pytest.raises(TypeError, match=r"^not a formula: int 5$"):
            lg.evaluate(5, FiniteContactAlgebra("a", [1]), {})
