"""Hypothesis fuzzing of ``poly`` and formula text through ``cli.run``.

Valid ``poly`` files are mutated: tokens deleted or duplicated, a numeral
replaced by one of over 4,300 digits (CPython's limit for converting a
string to an int), by ``p/0`` or by ``p/-q``, a constraint's normal zeroed
(``0 0 <= c``), and the file truncated.  ``sc-check`` and ``bool-op union``
on each must end with a documented exit code and print no traceback; a
parse error is one ``error:`` line on stderr.  Random formulas, some with
tokens deleted, inserted or replaced, go through ``countermodel`` and
``eval`` under the same rules.  Certificates, the flagship one with lines
deleted, duplicated or edited, must get a ``verify`` report whenever they
parse, and ``render`` must end with exit code 0, 2 or 3.  ``space`` texts
from a small grammar, some with tokens deleted, duplicated or replaced, go
through ``eval``, ``untie``, ``project`` and ``audit`` under the same rules.
Interval and ``cyl`` texts from a small grammar, some with tokens deleted,
duplicated or replaced, go through ``sc-check``, ``c-check``, ``bool-op``
and ``render`` under the same rules.
"""

import contextlib
import io
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polycontact import pipeline as pp
from polycontact.algebra import AuditReport
from polycontact.cli import run
from helpers import formula_texts

VALID = [
    "poly { basic { -1 0 <= 0; 0 -1 <= 0 } }",
    "poly { basic { 1 0 <= 1; -1 0 <= 0; 0 1 <= 1; 0 -1 <= 0 } }",
    "poly { basic { 1 0 <= 0; 0 -1 <= 0; 0 1 <= 2 } basic { -1 1 <= 1/2; 1 2 <= 7/3 } }",
    "poly { basic { 2 -1 <= 3/4; -1 -1 <= 5 } }",
    "poly { basic { } }",
    "poly { }",
]
TOKEN = re.compile(r"[{};]|[^\s{};]+")
NUMERAL = re.compile(r"-?\d+(/\d+)?")
HUGE = "7" * 4301


def tokens(text: str) -> list[str]:
    return TOKEN.findall(text)


@st.composite
def mutated_poly(draw) -> str:
    toks = tokens(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["delete", "duplicate", "huge", "zero-den", "negative-den", "zero-normal",
             "truncate"]))
        numerals = [i for i, t in enumerate(toks) if NUMERAL.fullmatch(t)]
        if kind in ("delete", "duplicate") and toks:
            i = draw(st.integers(0, len(toks) - 1))
            toks[i:i + 1] = [] if kind == "delete" else [toks[i], toks[i]]
        elif kind in ("huge", "zero-den", "negative-den") and numerals:
            i = draw(st.sampled_from(numerals))
            p = toks[i].split("/")[0]
            toks[i] = {"huge": HUGE + draw(st.sampled_from(["", "/3"])),
                       "zero-den": f"{p}/0", "negative-den": f"{p}/-3"}[kind]
        elif kind == "zero-normal":
            ends = [i for i, t in enumerate(toks) if t == "<=" and i >= 2]
            if ends:
                i = draw(st.sampled_from(ends))
                toks[i - 2:i] = ["0", "0"]
        elif kind == "truncate":
            toks = toks[:draw(st.integers(0, len(toks)))]
    return " ".join(toks)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err, codes):
    assert code in codes
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_poly(), st.sampled_from(VALID), st.booleans())
@example("poly { basic { 0 0 <= 1 } }", VALID[0], False)
@example("poly { basic { 1/-3 0 <= 1 } }", VALID[1], True)
@example("poly { basic { 1 0 <= " + HUGE + " } }", VALID[2], False)
@example("poly { basic { 1 0 <= 1/0 } }", VALID[3], True)
@example("poly { basic { 1 0 <=", VALID[0], False)
def test_mutated_poly_exits_cleanly(tmp_path, text, other, first):
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    a.write_text(text)
    b.write_text(other)
    pair = [str(a), str(b)] if first else [str(b), str(a)]
    for argv in (["sc-check", *pair], ["bool-op", "union", *pair]):
        code, _, err = run_cli(argv)
        assert_clean_exit(code, err, (0, 1, 2, 3, 4))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(formula_texts())
@example("C(p")
@example("p == q == r")
@example("-p == ~q")
@example("(" * 101 + "p == q" + ")" * 101)
def test_formula_text_exits_cleanly(tmp_path, text):
    space = tmp_path / "triangle.graph"
    space.write_text("space { cells a b c; edges a-b b-c c-a; }")
    # "--" so that a formula starting with "-" is not read as a flag
    for argv in (["countermodel", "--bound", "2", "--", text], ["eval", "--", text, str(space)]):
        code, _, err = run_cli(argv)
        assert_clean_exit(code, err, (0, 1, 2))


FLAGSHIP = pp.serialize_certificate(pp.synthesize("C(p,q) => p.q != 0", 2, 1))
# words an edit may put in place of a word of a line: the certificate's own,
# and words that are wrong wherever they land
EDIT_WORDS = sorted(set(FLAGSHIP.split())) + [
    "", "z", "c", "r", "0", "-1", "1/0", "n=0", "n=2", "n=x", "[3,1]", "(-inf,1]", "empty",
    "all", "a-a", "b-c", "C(p", "p.q", "true", "x:", "{", "}"]


@st.composite
def mutated_certificates(draw) -> str:
    lines = FLAGSHIP.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        kind = draw(st.sampled_from(["delete", "duplicate", "edit"]))
        i = draw(st.integers(0, len(lines) - 1))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            words = lines[i].split(" ")
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(EDIT_WORDS))
            lines[i] = " ".join(words)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_certificates())
@example(FLAGSHIP)
@example(FLAGSHIP.replace("val p: a\n", "val p: z\n", 1))
@example(FLAGSHIP.replace("map a: a\nmap b: b\n", ""))
@example(FLAGSHIP.replace("cyl n=1 { [1,2] }", "cyl n=2 { [1,2] }", 1))
def test_mutated_certificate_verifies_or_is_rejected(tmp_path, text):
    try:
        cert = pp.parse_certificate(text)
    except ValueError:
        pass
    else:
        assert isinstance(pp.verify(cert), AuditReport)
    path = tmp_path / "cert.txt"
    path.write_text(text)
    code, _, err = run_cli(["render", str(path), "--svg", str(tmp_path / "cert.svg")])
    assert_clean_exit(code, err, (0, 2, 3))


CELLS = "abcde"
# words a mutation may put in place of a token of a space text; "z" is the
# only new cell name, so a mutated text keeps at most 6 cells
SPACE_WORDS = [*CELLS, "z", "", "-", "a-", "-a", "a-a", "a-z", "a-b-c", "{", "}", ";",
               "space", "cells", "edges", "nodes"]


@st.composite
def space_texts(draw) -> str:
    """``space { cells ...; edges ...; }`` over up to 5 cells: a tree
    over the cells (so most spaces are connected) plus drawn edges, the
    sections in either order, some dropped, and some texts mutated."""
    cells = draw(st.permutations(CELLS))[:draw(st.integers(1, 5))]
    edges = [(cells[draw(st.integers(0, i - 1))], cells[i])
             for i in range(1, len(cells)) if draw(st.integers(0, 5))]
    edges += draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from(cells)),
                           max_size=4))
    sections = [f"cells {' '.join(cells)};", f"edges {' '.join(f'{a}-{b}' for a, b in edges)};"]
    sections = draw(st.permutations(sections))[draw(st.sampled_from([0, 0, 0, 1])):]
    toks = tokens(f"space {{ {' '.join(sections)} }}")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not toks:
            break
        kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        i = draw(st.integers(0, len(toks) - 1))
        if kind == "delete":
            del toks[i]
        elif kind == "duplicate":
            toks.insert(i, toks[i])
        else:
            toks[i] = draw(st.sampled_from(SPACE_WORDS))
    return " ".join(toks)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space_texts())
@example("space { }")
@example("space { cells a b; edges a-; }")
@example("space { cells a b; edges a-b-c; }")
@example("space { cells a b c; edges a-b b-c c-a; }")
@example("space { cells a; edges a-a; }")
@example("space cells a; }")
def test_space_text_exits_cleanly(tmp_path, text):
    path = tmp_path / "s.graph"
    path.write_text(text)
    graph = str(path)
    for argv in (["eval", "C(p,q) => C(q,p)", graph], ["untie", graph], ["project", graph],
                 ["audit", graph, "--samples", "3"]):
        code, _, err = run_cli(argv)
        assert_clean_exit(code, err, (0, 1, 2, 3, 4))


# words a mutation may put in place of a token of an interval or cyl text
REGION_WORDS = ["", "(", ")", "[", "]", ",", ";", "{", "}", "=", "-inf", "inf", "0", "-3/4",
                "7/2", "1/0", "1/-3", "1e5", HUGE, "n", "n=0", "x", "cyl", "empty", "all"]
REGION_TOKEN = re.compile(r"[\[\](),;{}=]|[^\s\[\](),;{}=]+")
# second operands by kind: mostly of the first operand's kind
OPERANDS = {"interval": ["[0,1]", "(-inf,1]; [2,inf)"],
            "cyl": ["cyl n=2 { [1,2]; [4,7] }", "cyl n=1 { all }"]}


@st.composite
def interval_pieces(draw) -> str:
    """One piece, finite ends as ``p`` or ``p/q``, low end first."""
    den = draw(st.integers(1, 4))
    lo, hi = sorted(draw(st.lists(st.integers(-9, 9), min_size=2, max_size=2)))
    left = draw(st.sampled_from(["(-inf", f"[{lo}" if den == 1 else f"[{lo}/{den}"]))
    right = draw(st.sampled_from(["inf)", f"{hi}]" if den == 1 else f"{hi}/{den}]"]))
    return f"{left},{right}"


@st.composite
def region_texts(draw) -> str:
    """An interval list (``empty``, ``all`` or up to three pieces, in any
    order and possibly overlapping or touching) or a ``cyl n=... { ... }``
    around one, some texts mutated."""
    intervals = draw(st.one_of(st.sampled_from(["empty", "all"]),
                               st.lists(interval_pieces(), min_size=1, max_size=3)
                               .map("; ".join)))
    text = intervals
    if draw(st.booleans()):
        text = f"cyl n={draw(st.sampled_from([1, 1, 2, 3, 0]))} {{ {intervals} }}"
    toks = REGION_TOKEN.findall(text)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not toks:
            break
        kind = draw(st.sampled_from(["delete", "duplicate", "replace"]))
        i = draw(st.integers(0, len(toks) - 1))
        if kind == "delete":
            del toks[i]
        elif kind == "duplicate":
            toks.insert(i, toks[i])
        else:
            toks[i] = draw(st.sampled_from(REGION_WORDS))
    return " ".join(toks)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(region_texts(), st.sampled_from([True, True, True, False]), st.integers(0, 1),
       st.booleans())
@example("[0,1]; [1,2]", True, 0, True)
@example("cyl n=0 { [0,1] }", True, 0, False)
@example("cyl n=2 { [0," + HUGE + "] }", True, 1, True)
@example("[1/0,2]", True, 1, False)
@example("cyl n=2 { [1,2]", False, 0, True)
@example("", True, 0, False)
def test_region_text_exits_cleanly(tmp_path, text, same_kind, k, first):
    kind = "cyl" if text.split()[:1] == ["cyl"] else "interval"
    if not same_kind:
        kind = "interval" if kind == "cyl" else "cyl"
    a, b = tmp_path / "a.region", tmp_path / "b.region"
    a.write_text(text)
    b.write_text(OPERANDS[kind][k])
    pair = [str(a), str(b)] if first else [str(b), str(a)]
    for argv in (["sc-check", *pair], ["c-check", *pair], ["bool-op", "union", *pair],
                 ["bool-op", "meet", *pair], ["bool-op", "complement", str(a)],
                 ["render", str(a), "--svg", str(tmp_path / "a.svg")]):
        code, _, err = run_cli(argv)
        assert_clean_exit(code, err, (0, 1, 2, 3, 4))
