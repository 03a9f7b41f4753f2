import hashlib
import random
import sys
import time
from collections import Counter

import pytest

from polycontact.algebra import AuditEntry, AuditReport
from polycontact.cli import main, run
from polycontact import adjacency as adj
from polycontact import pipeline as pp
from polycontact import plane as pl
from helpers import sc_pair


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write, tmp_path


Q1 = "poly { basic { -1 0 <= 0; 0 -1 <= 0 } }"
Q3 = "poly { basic { 1 0 <= 0; 0 1 <= 0 } }"
TRIANGLE = "space { cells a b c; edges a-b b-c c-a; }"


def test_sc_check_vertical_angles(files, capsys):
    write, _ = files
    a, b = write("a.poly", Q1), write("b.poly", Q3)
    assert run(["sc-check", a, b]) == 0
    out = capsys.readouterr().out
    assert "SC=false C=true overlap=false" in out


# a quadrant beside Q1 across the y axis, sharing its facet on x = 0
Q2 = "poly { basic { 1 0 <= 0; 0 -1 <= 0 } }"


def test_sc_check_negative_runs_one_overlap_search(files, capsys, monkeypatch):
    # one strong-contact analysis gives the verdict, the witness, overlap
    # (no shared facet) and the --explain lines: one interior-point search
    # and at most one arrangement walk, for an SC-negative pair (Q1 and Q3
    # share a corner only), a shared facet and an overlap
    write, _ = files
    calls, walks = [], []
    search, walk = pl._common_point, pl.arrangement_edges

    def counted(p, q, strict):
        calls.append(strict)
        return search(p, q, strict)

    def walked(lines):
        walks.append(lines)
        return walk(lines)

    monkeypatch.setattr(pl, "_common_point", counted)
    monkeypatch.setattr(pl, "arrangement_edges", walked)
    a = write("a.poly", Q1)
    for other, verdict in ((Q3, "SC=false C=true overlap=false"),
                           (Q2, "SC=true C=true overlap=false"),
                           (OVERLAP, "SC=true C=true overlap=true")):
        b = write("b.poly", other)
        for explain in ([], ["--explain"]):
            calls.clear()
            walks.clear()
            assert run(["sc-check", a, b] + explain) == 0
            out = capsys.readouterr().out
            assert out.splitlines()[0] == verdict
            assert ("reason=" in out) == bool(explain)
            # contact_c makes the one non-strict search
            assert calls.count(True) == 1 and calls.count(False) == 1
            assert len(walks) == (not verdict.endswith("overlap=true"))


def test_sc_check_intervals_with_witness(files, capsys):
    write, _ = files
    a = write("a.iv", "(-inf,1]; [2,inf)")
    b = write("b.iv", "[1,2]")
    assert run(["sc-check", a, b]) == 0
    out = capsys.readouterr().out
    assert "SC=true C=true overlap=false" in out
    assert "witness=interval" in out


def test_c_check(files, capsys):
    write, _ = files
    a, b = write("a.poly", Q1), write("b.poly", Q3)
    assert run(["c-check", a, b]) == 0
    assert capsys.readouterr().out.strip() == "C=true"


def test_bool_op_round_trip(files, capsys):
    write, _ = files
    a, b = write("a.poly", Q1), write("b.poly", Q3)
    assert run(["bool-op", "union", a, b]) == 0
    text = capsys.readouterr().out.strip()
    parsed = pl.parse_plane(text)
    assert parsed.equals(pl.parse_plane(Q1).union(pl.parse_plane(Q3)))

    assert run(["bool-op", "complement", a]) == 0
    text = capsys.readouterr().out.strip()
    assert pl.parse_plane(text).equals(pl.parse_plane(Q1).complement())


def test_audit_graph(files, capsys):
    write, _ = files
    g = write("t.graph", TRIANGLE)
    assert run(["audit", g, "--samples", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "C1 PASS" in out and "connected=true" in out


def test_audit_sampled_carrier(capsys):
    assert run(["audit", "interval", "--samples", "30", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "C2 PASS" in out


def test_untie_roundtrip(files, capsys):
    write, _ = files
    g = write("t.graph", TRIANGLE)
    assert run(["untie", g]) == 0
    out = capsys.readouterr().out
    space = adj.parse_space(out.splitlines()[0])
    assert adj.is_acyclic(space) and len(space.cells) == 4
    assert "map a': a" in out
    assert "acyclic=true pmorphism=true" in out


def test_project(files, capsys):
    write, _ = files
    g = write("p.graph", "space { cells a b; edges a-b; }")
    assert run(["project", g, "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "arrangement: a b a" in out
    assert "cell a: cyl n=2 { (-inf,1]; [2,inf) }" in out


def test_eval(files, capsys):
    write, _ = files
    g = write("t.graph", TRIANGLE)
    assert run(["eval", "C(p,q)", g, "--val", "p=a", "--val", "q=b"]) == 0
    out = capsys.readouterr().out
    assert "result=true" in out
    assert run(["eval", "~C(0,p)", g]) == 0
    out = capsys.readouterr().out
    assert "true-in-space=true" in out and "axiom-instance=C1" in out


def test_eval_unknown_cell_exit_2(files, capsys):
    write, _ = files
    g = write("t.graph", TRIANGLE)
    assert run(["eval", "C(p,q)", g, "--val", "p=z", "--val", "q=b"]) == 2
    assert "unknown cell 'z'" in capsys.readouterr().err


def test_eval_unbound_variable_exit_2(files, capsys):
    write, _ = files
    g = write("t.graph", TRIANGLE)
    assert run(["eval", "C(p,q)", g, "--val", "p=a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unbound variable q\n"


@pytest.mark.parametrize("argv", [
    ["audit", "plane", "--samples", "0"],
    ["audit", "interval", "--samples", "-5"],
    ["audit", "cylinder", "--samples", "0"],
    ["audit", "GRAPH", "--samples", "0"],
    ["audit", "cylinder", "--dim", "0"],
    ["audit", "cylinder", "--dim", "-1"],
    ["project", "GRAPH", "--dim", "0"],
    ["synthesize", "C(p,q) => p.q != 0", "--dim", "-2"],
    ["synthesize", "C(p,q) => p.q != 0", "--bound", "0"],
    ["countermodel", "C(p,q) => p.q != 0", "--bound", "-1"],
])
def test_out_of_range_flag_exit_2(argv, files, capsys):
    write, _ = files
    path = write("e.graph", "space { cells a b; edges a-b; }")
    assert run([path if a == "GRAPH" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sc-check", "FILE", "FILE", "--frobnicate"],
    ["sc-check", "FILE"],
    ["untie", "FILE", "FILE"],
    ["countermodel", "p == q", "--bound", "x"],
    ["countermodel", "-p==q", "--bound", "2"],
    ["eval", "-p==q", "FILE"],
    ["frobnicate"],
    [],
], ids=["unknown-flag", "missing-argument", "extra-argument", "bound-not-int",
        "countermodel-dash-formula", "eval-dash-formula", "unknown-command", "no-command"])
def test_rejected_command_line_is_one_error_line(argv, files, capsys):
    write, _ = files
    path = write("e.graph", "space { cells a b; edges a-b; }")
    assert run([path if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", "-p==q", "FILE"],
    ["countermodel", "-p==q", "--bound", "2"],
    ["synthesize", "-p==q"],
    ["untie", "FILE", "--frobnicate"],
], ids=["eval", "countermodel", "synthesize", "unknown-flag"])
def test_dash_token_error_points_to_double_dash(argv, files, capsys):
    # argparse takes "-p==q" for an unknown flag, so its own message names
    # another argument
    write, _ = files
    path = write("e.graph", "space { cells a b; edges a-b; }")
    assert run([path if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"is no option of {argv[0]}: a formula starting with '-' goes after '--'" in err


@pytest.mark.parametrize("argv", [
    ["sc-check", "FILE"],
    ["countermodel", "--bound", "x", "--", "-p==q"],
    ["countermodel", "--bound=x", "p == q"],
], ids=["no-dash-token", "after-double-dash", "option-with-value"])
def test_error_without_stray_dash_token_has_no_hint(argv, files, capsys):
    write, _ = files
    path = write("e.graph", "space { cells a b; edges a-b; }")
    assert run([path if a == "FILE" else a for a in argv]) == 2
    assert "no option" not in capsys.readouterr().err


def test_dash_formula_after_double_dash(files, capsys):
    write, _ = files
    path = write("e.graph", "space { cells a b; edges a-b; }")
    assert run(["countermodel", "--bound", "2", "--", "-p==q"]) == 1
    assert "val p:" in capsys.readouterr().out
    assert run(["eval", "--", "-p==q", path]) == 0
    assert "true-in-space=false" in capsys.readouterr().out


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: polycontact") and "synthesize" in out
    assert run(["eval", "--help"]) == 0
    assert "--val" in capsys.readouterr().out


def test_countermodel_exit_codes(capsys):
    assert run(["countermodel", "C(p,q) => p.q != 0", "--bound", "3"]) == 1
    out = capsys.readouterr().out
    assert "space {" in out and "val p:" in out
    assert run(["countermodel", "x == x", "--bound", "3"]) == 0
    assert capsys.readouterr().out.strip() == "none"


@pytest.mark.parametrize("argv", [
    ["countermodel", "C(p,q) => p.q != 0", "--bound", "9"],
    ["countermodel", "--file", "FORMULAS", "--bound", "9"],
    ["synthesize", "C(p,q) => p.q != 0", "--bound", "9"],
], ids=["countermodel", "countermodel-file", "synthesize"])
def test_bound_above_max_exit_2(argv, files, capsys):
    # bound 9 would canonicalise about 2.8 million candidate spaces
    write, _ = files
    argv = [write("f.txt", "x == x\n") if a == "FORMULAS" else a for a in argv]
    start = time.process_time()
    assert run(argv) == 2
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cell bound must be <= 8, got 9\n"


def test_countermodel_formula_file(files, capsys):
    write, _ = files
    path = write("formulas.txt",
                 "# tautologies and one failure\n"
                 "x == x\n"
                 "C(p,q) => p.q != 0  # fails on the edge space\n")
    assert run(["countermodel", "--file", path, "--bound", "2"]) == 1
    out = capsys.readouterr().out
    assert "line 2: none" in out
    assert "line 3: countermodel" in out

    path_ok = write("tautologies.txt", "x == x\n~C(0,p)\n")
    assert run(["countermodel", "--file", path_ok, "--bound", "2"]) == 0
    capsys.readouterr()

    assert run(["countermodel", "--bound", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, error", [
    ("C(p,q) => C(q,p)\n   p == Q   # bad\n", "line 2: unexpected character 'Q' at offset 8"),
    ("x == x\n\t C(p, q  # unclosed\n",
     "line 2: expected ')', got 'end of input' at offset 10"),
    ("# comment\n\n  p == q) \n", "line 3: trailing input ')' at offset 8"),
], ids=["bad-character", "end-of-input", "trailing-input"])
def test_formula_file_error_names_file_line_and_column(text, error, files, capsys):
    # offsets count in the line as written: its leading whitespace counts,
    # and the end of input is where its comment starts
    write, _ = files
    path = write("formulas.txt", text)
    assert run(["countermodel", "--file", path, "--bound", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {error}\n"


def test_synthesize_certificate(files, capsys):
    write, tmp_path = files
    svg = str(tmp_path / "cm.svg")
    code = run(["synthesize", "C(p,q) => p.q != 0", "--bound", "2",
                "--dim", "1", "--svg", svg, "--viewport=-2,8"])
    assert code == 1
    out = capsys.readouterr().out
    cert = pp.parse_certificate(out[:out.rindex("verified=")])
    assert pp.verify(cert).passed
    assert "verified=true" in out
    assert (tmp_path / "cm.svg").read_text().startswith("<svg")


def test_synthesize_unverified_exit_4(monkeypatch, capsys):
    argv = ["synthesize", "C(p,q) => p.q != 0", "--bound", "2"]
    assert run(argv) == 1
    verified_out = capsys.readouterr().out
    monkeypatch.setattr(pp, "verify", lambda cert: AuditReport(
        [AuditEntry("stage", False, "forced")]))
    assert run(argv) == 4
    out = capsys.readouterr().out
    assert out == verified_out.replace("verified=true", "verified=false")


def _fail_projection(*args):
    raise adj.ProjectionError("projection images do not cover the line")


@pytest.mark.parametrize("name, stub, message", [
    ("check_pmorphism", lambda *args: False, "untying did not produce a p-morphism"),
    ("project", _fail_projection, "projection images do not cover the line"),
], ids=["pipeline-error", "projection-error"])
def test_synthesize_internal_check_exit_4(name, stub, message, monkeypatch, capsys):
    monkeypatch.setattr(pp, name, stub)
    assert run(["synthesize", "C(p,q) => p.q != 0", "--bound", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_project_self_check_exit_4(files, monkeypatch, capsys):
    write, _ = files
    g = write("p.graph", "space { cells a b; edges a-b; }")
    monkeypatch.setattr(adj, "project", _fail_projection)
    assert run(["project", g]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: projection images do not cover the line\n"


def test_synthesize_none(capsys):
    assert run(["synthesize", "~C(0,p)", "--bound", "3"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_render(files, capsys):
    write, tmp_path = files
    a = write("a.poly", Q1)
    svg = str(tmp_path / "a.svg")
    assert run(["render", a, "--svg", svg, "--viewport=-4,-4,4,4"]) == 0
    assert (tmp_path / "a.svg").read_text().startswith("<svg")


def test_parse_error_exit_2(files, capsys):
    write, _ = files
    bad = write("bad.poly", "poly { basic { nonsense } }")
    ok = write("ok.poly", Q1)
    assert run(["sc-check", bad, ok]) == 2
    assert run(["countermodel", "C(p", "--bound", "2"]) == 2
    capsys.readouterr()


CERTIFICATE = pp.serialize_certificate(pp.synthesize("C(p,q) => p.q != 0", 2, 1))
CERT_WITH_ZERO_DENOMINATOR = CERTIFICATE.replace("{ [1,2] }", "{ [1,2/0] }", 1)


@pytest.mark.parametrize("name, text, viewport", [
    ("a.poly", "poly { basic { 1/0 0 <= 1 } }", "-6,-6,6,6"),
    ("a.iv", "[0,1/0]", "-6,6"),
    ("a.cyl", "cyl n=2 { [-1/0,1] }", "-6,6"),
    ("a.cert", CERT_WITH_ZERO_DENOMINATOR, "-6,6"),
    ("a.poly", Q1, "0,0,1/0,1"),
    ("a.iv", "[0,1]", "0,1/0"),
    ("a.poly", Q1, "0,0,0,0"),
    ("a.iv", "[0,1]", "1,1"),
], ids=["poly", "interval", "cyl", "certificate", "viewport-box", "viewport-window",
        "empty-box", "empty-window"])
def test_division_by_zero_input_exit_2(name, text, viewport, files, capsys):
    # a zero denominator, or a viewport of zero width the renderer divides by
    write, tmp_path = files
    argv = ["render", write(name, text), "--svg", str(tmp_path / "a.svg"),
            f"--viewport={viewport}"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("old, new", [
    ("verdict geometric: false\n", ""),
    ("verdict geometric: false", "verdict merged: false"),
    ("verdict untied: false", "verdict discrete: false"),
    ("verdict discrete: false", "verdict discrete: maybe"),
    ("dim: 1", "dim: 1_0"),
    ("dim: 1", "dim: x"),
    ("dim: 1\n", "dim: 1\ndim: 1\n"),
    ("\nformula:", "\nformula: p == p\nformula:"),
    ("untied {\nspace: space { cells a b; edges a-b; }\n",
     "untied {\nspace: space { cells a b; edges a-b; }\nspace: space { cells a; }\n"),
    ("map a: a\n", "map a: a\nmap a: b\n"),
    ("}\nuntied {", "val p: b\n}\nuntied {"),
    ("cell b: cyl n=1 { [1,2] }\n", "cell b: cyl n=1 { [1,2] }\ncell b: cyl n=1 { [1,2] }\n"),
    ("var q: cyl n=1 { [1,2] }\n", "var q: cyl n=1 { [1,2] }\nvar q: cyl n=1 { empty }\n"),
], ids=["missing-verdict", "unknown-verdict", "repeated-verdict", "verdict-maybe", "dim-1_0",
        "dim-x", "repeated-dim", "repeated-formula", "repeated-space", "repeated-map",
        "repeated-val", "repeated-cell", "repeated-var"])
def test_render_malformed_certificate_exit_2(old, new, files, capsys, monkeypatch):
    # through main(): exit 2 and one error line, and no Python message
    write, tmp_path = files
    assert CERTIFICATE.count(old) == 1
    path = write("a.cert", CERTIFICATE.replace(old, new))
    monkeypatch.setattr(sys, "argv", ["polycontact", "render", path,
                                      "--svg", str(tmp_path / "a.svg")])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "invalid literal" not in captured.err


@pytest.mark.parametrize("name, text, viewport", [
    ("a.poly", "poly { basic { 1e10000000 0 <= 1 } }", "-6,-6,6,6"),
    ("a.poly", Q1, "0,0,1e10000000,1"),
], ids=["poly", "viewport"])
def test_exponent_notation_exit_2(name, text, viewport, files, capsys):
    # Fraction('1e10000000') alone takes seconds: the literal is refused first
    write, tmp_path = files
    argv = ["render", write(name, text), "--svg", str(tmp_path / "a.svg"),
            f"--viewport={viewport}"]
    start = time.process_time()
    assert run(argv) == 2
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "exponent notation in '1e10000000'" in captured.err


def _main(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["polycontact", *argv])
    with pytest.raises(SystemExit) as exit_:
        main()
    return exit_.value.code


def test_plane_tokens_through_main(files, capsys, monkeypatch):
    # a 5,000-digit offset is over int()'s digit limit: exit 2, one line
    write, tmp_path = files
    path = write("long.poly", "poly { basic { 1 0 <= " + "1" * 5000 + " } }")
    assert _main(["bool-op", "complement", path], monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # a non-ASCII digit is read by Fraction, to the same polytope
    outs = []
    for name, three in (("ascii.poly", "3"), ("arabic.poly", "\u0663")):
        text = f"poly {{ basic {{ 1 0 <= {three}; -1 0 <= 0; 0 1 <= 1/{three}; 0 -1 <= 0 }} }}"
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert _main(["bool-op", "complement", str(tmp_path / name)], monkeypatch) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "basic" in outs[0]


@pytest.mark.parametrize("formula", [
    "~" * 3000 + "p == q",
    "(" * 600 + "p == q" + ")" * 600,
    " | ".join(["p == q"] * 1500),
    " <=> ".join(["p == q"] * 30),
], ids=["3000-negations", "600-parens", "1500-disjuncts", "30-link-iff-chain"])
def test_deep_formula_exit_2(formula, capsys):
    assert run(["countermodel", formula, "--bound", "2"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_io_error_exit_3(files, capsys):
    write, _ = files
    ok = write("ok.poly", Q1)
    assert run(["sc-check", ok, "/nonexistent/x.poly"]) == 3
    capsys.readouterr()


def test_mixed_kinds_exit_2(files, capsys):
    write, _ = files
    a = write("a.poly", Q1)
    b = write("b.iv", "[0,1]")
    assert run(["sc-check", a, b]) == 2
    capsys.readouterr()


def test_deterministic_output(files, capsys):
    write, _ = files
    g = write("t.graph", TRIANGLE)
    run(["audit", g, "--samples", "10", "--seed", "4"])
    first = capsys.readouterr().out
    run(["audit", g, "--samples", "10", "--seed", "4"])
    assert capsys.readouterr().out == first


# One region text per carrier, keyed by the file's leading keyword: A and B
# touch and overlap, A and FAR are apart.  Expected stdout is pinned.
REGIONS = {
    "interval": ("(-inf,1]; [2,5]", "[1,2]; [4,7]", "[10,11]"),
    "cyl": ("cyl n=2 { (-inf,1]; [2,5] }", "cyl n=2 { [1,2]; [4,7] }",
            "cyl n=2 { [10,11] }"),
    "poly": ("poly { basic { -1 0 <= 0; 0 -1 <= 0 } }",
             "poly { basic { 1 0 <= 0; 0 -1 <= 0; 0 1 <= 2 } }",
             "poly { basic { 1 0 <= -10; -1 0 <= 11 } }"),
}

PINNED = {
    "interval": {
        "sc-check": "SC=true C=true overlap=true\nwitness=interval (0,2)\n",
        "union": "(-inf,7]\n",
        "meet": "[4,5]\n",
        "complement": "[1,2]; [5,inf)\n",
        "svg": "d370c1c35c4bf513",
    },
    "cyl": {
        "sc-check": "SC=true C=true overlap=true\nwitness=interval (0,2)\n",
        "union": "cyl n=2 { (-inf,7] }\n",
        "meet": "cyl n=2 { [4,5] }\n",
        "complement": "cyl n=2 { [1,2]; [5,inf) }\n",
        "svg": "d370c1c35c4bf513",
    },
    "poly": {
        "sc-check": "SC=true C=true overlap=false\nwitness=disk centre=(0,1) radius=1/2\n",
        "union": "poly { basic { -1 0 <= 0; 0 -1 <= 0 } "
                 "basic { 0 -1 <= 0; 0 1 <= 2; 1 0 <= 0 } }\n",
        "meet": "poly { }\n",
        "complement": "poly { basic { 0 1 <= 0 } basic { 1 0 <= 0 } }\n",
        "svg": "d5e5bb4ddad1f0cc",
    },
}


@pytest.fixture(params=sorted(REGIONS))
def carrier(request, files):
    write, tmp_path = files
    kind = request.param
    a, b, far = (write(f"{name}.{kind}", text)
                 for name, text in zip(("a", "b", "far"), REGIONS[kind]))
    return kind, a, b, far, tmp_path


def test_contact_checks_every_carrier(carrier, capsys):
    kind, a, b, far, _ = carrier
    assert run(["sc-check", a, b]) == 0
    assert capsys.readouterr().out == PINNED[kind]["sc-check"]
    assert run(["c-check", a, b]) == 0
    assert capsys.readouterr().out == "C=true\n"
    assert run(["sc-check", a, far]) == 0
    assert capsys.readouterr().out == "SC=false C=false overlap=false\n"
    assert run(["c-check", a, far]) == 0
    assert capsys.readouterr().out == "C=false\n"


# `sc-check --explain` lines after the pinned ones: A and B share the facet
# on x = 0 (the second edge of that line, the sixth walked), A and FAR are
# apart (all 10 edges walked), and A and the strip OVERLAP overlap
EXPLAINED = {
    "b": "reason=facet\nfacet_line=(1,0,0) edge_point=(0,1)\nedges_walked=6\n",
    "far": "reason=none\nedges_walked=10\n",
    "overlap": "reason=overlap\noverlap_point=(1/2,1)\nedges_walked=0\n",
}
OVERLAP = "poly { basic { 1 0 <= 1; 0 -1 <= 0 } }"


def test_sc_check_explain(carrier, files, capsys):
    kind, a, b, far, _ = carrier
    code = run(["sc-check", a, b, "--explain"])
    captured = capsys.readouterr()
    if kind != "poly":
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --explain needs plane regions (poly), got {kind}\n"
        return
    assert code == 0
    assert captured.out == PINNED[kind]["sc-check"] + EXPLAINED["b"]
    assert run(["sc-check", a, far, "--explain"]) == 0
    assert capsys.readouterr().out == "SC=false C=false overlap=false\n" + EXPLAINED["far"]
    overlap = files[0]("overlap.poly", OVERLAP)
    assert run(["sc-check", a, overlap]) == 0
    plain = capsys.readouterr().out
    assert run(["sc-check", a, overlap, "--explain"]) == 0
    assert capsys.readouterr().out == plain + EXPLAINED["overlap"]


def test_sc_check_without_explain_counts_no_edge(carrier, capsys, monkeypatch):
    # the edge counter is a wrapper around the walk that only --explain adds
    def counted(*args):
        raise AssertionError("edges counted without --explain")

    monkeypatch.setattr(pl, "_counted", counted)
    kind, a, b, far, _ = carrier
    assert run(["sc-check", a, b]) == 0
    assert capsys.readouterr().out == PINNED[kind]["sc-check"]
    assert run(["sc-check", a, far]) == 0


@pytest.mark.parametrize("op", ["union", "meet", "complement"])
def test_bool_op_every_carrier(carrier, op, capsys):
    kind, a, b, _, _ = carrier
    argv = ["bool-op", op, a] + ([] if op == "complement" else [b])
    assert run(argv) == 0
    assert capsys.readouterr().out == PINNED[kind][op]


def test_render_every_carrier(carrier, capsys):
    kind, a, _, _, tmp_path = carrier
    svg = tmp_path / f"{kind}.svg"
    assert run(["render", a, "--svg", str(svg)]) == 0
    assert capsys.readouterr().out == f"svg written to {svg}\n"
    digest = hashlib.sha256(svg.read_bytes()).hexdigest()
    assert digest[:16] == PINNED[kind]["svg"]


@pytest.mark.parametrize("target", ["interval", "plane", "cylinder"])
def test_audit_every_carrier(target, capsys):
    assert run(["audit", target, "--samples", "12", "--seed", "2", "--dim", "3"]) == 0
    assert capsys.readouterr().out == (
        "C1 PASS\nC2 PASS\nC3 PASS\nC4 PASS\nmonotonicity PASS\n"
        "overlap-extension PASS\nconnected=true\n")


def test_audit_draws_one_pool(monkeypatch, capsys):
    # the axiom audit and the connectedness check share one sampled pool
    draw, drawn = pl.random_plane_polytope, []

    def counted(rng, **kwargs):
        drawn.append(rng)
        return draw(rng, **kwargs)

    monkeypatch.setattr(pl, "random_plane_polytope", counted)
    assert run(["audit", "plane", "--samples", "12"]) == 0
    assert capsys.readouterr().out.endswith("connected=true\n")
    assert len(drawn) == 12


# ---------------------------------------------------------------------------
# sc-check stdout over a seeded corpus, witness lines included
# ---------------------------------------------------------------------------

# SHA-256 of the concatenated `sc-check` stdout of ten seeded pairs per kind:
# random unbounded pairs (overlap or apart), corner copies of a bounded
# polytope (a shared facet, or one corner only), mirrored copies (a shared
# facet) and far copies (apart)
SC_CORPUS_SHA256 = {
    "random": "7e4c172bf396103dd8a471387f71d8f34fe02f9fa11414b51e0ac2ba31a5ddef",
    "corner": "ff4ddc32daa9e107e0b12876fc3cae0cfe921516c42f3ed856ecd39e60ab5dfa",
    "mirrored": "3e100875e7df0e8cf472d10ebe7b41040ce9aabc6a773a851fc1c2b5fd137de2",
    "far": "fac74acd9af5c727b7830e7eb00597ebcee48954727ba1709f30edf86981c71e",
}


def test_sc_check_stdout_pinned(files, capsys):
    write, _ = files
    rng = random.Random(20181)
    verdicts = Counter()
    for kind, want in SC_CORPUS_SHA256.items():
        digest = hashlib.sha256()
        for i in range(10):
            a, b = sc_pair(rng, kind)
            argv = ["sc-check", write(f"{kind}{i}a.poly", pl.format_plane(a)),
                    write(f"{kind}{i}b.poly", pl.format_plane(b))]
            assert run(argv) == 0
            out = capsys.readouterr().out
            verdicts[out.splitlines()[0]] += 1
            digest.update(out.encode())
        assert digest.hexdigest() == want, kind
    # the corpus covers overlap, a shared facet, a shared corner only, and apart
    assert min(verdicts[v] for v in (
        "SC=true C=true overlap=true", "SC=true C=true overlap=false",
        "SC=false C=true overlap=false", "SC=false C=false overlap=false")) >= 3


# ---------------------------------------------------------------------------
# bool-op stdout over a seeded corpus
# ---------------------------------------------------------------------------

# SHA-256 of the concatenated `bool-op` stdout per operation over twelve
# seeded pairs of `random_plane_polytope` operands, every other first operand
# boxed; `complement` takes the first operand of each pair, so its De Morgan
# form is pinned along with the union and the meet
BOOL_OP_CORPUS_SHA256 = {
    "union": "8d03d90ef63422b1e0e7ffb03113371286a395fed8e83324df92bb446f438732",
    "meet": "fa2713771263750cb63b10b4cfb5947026596cc26a381ff32feca54c4a79cc5c",
    "complement": "0b950c9b5c55f134bac384a94c0f3bfad52d3dfaeb32dfaff1a7203ee12f311b",
}


def test_bool_op_stdout_pinned(files, capsys):
    write, _ = files
    rng = random.Random(20182)
    pairs = [(pl.random_plane_polytope(rng, bounded=i % 2 == 1),
              pl.random_plane_polytope(rng, max_parts=3)) for i in range(12)]
    paths = [(write(f"{i}a.poly", pl.format_plane(a)), write(f"{i}b.poly", pl.format_plane(b)))
             for i, (a, b) in enumerate(pairs)]
    sizes = Counter()
    for op, want in BOOL_OP_CORPUS_SHA256.items():
        digest = hashlib.sha256()
        for a, b in paths:
            assert run(["bool-op", op, a] + ([] if op == "complement" else [b])) == 0
            out = capsys.readouterr().out
            sizes[op, out.count("basic")] += 1
            digest.update(out.encode())
        assert digest.hexdigest() == want, op
    # empty and multi-part meets, and multi-part complements, are covered
    assert sizes["meet", 0] and sum(n for (op, k), n in sizes.items() if op == "meet" and k > 1)
    assert sum(n for (op, k), n in sizes.items() if op == "complement" and k > 1)
