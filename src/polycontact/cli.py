"""Command-line front door.

Exit codes: 0 success (or "no countermodel up to the bound"), 1 a
countermodel or audit failure was found (so shells can branch on it),
2 parse error, 3 I/O error, 4 an internal check failed (a pipeline stage
identity, the projection self-check, or a synthesized certificate that does
not verify).

All reports are plain text with machine-greppable ``key=value`` lines.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from . import adjacency as adj
from . import algebra as alg
from . import cylinder as cyl
from . import intervals as iv
from . import logic as lg
from . import pipeline as pp
from . import plane as pl
from . import svg as svgmod
from .numeric import rational

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class CliParseError(ValueError):
    pass


def _read(path: str) -> str:
    # a leading byte-order mark is dropped, so it cannot hide a file's
    # leading keyword
    with open(path, "r", encoding="utf-8-sig") as fh:
        return fh.read()


def _parse_file(path: str, parse: Callable[[str], object]):
    """``parse`` of the text of the file ``path``; a parse error, or text
    that is not UTF-8, names the file."""
    try:
        return parse(_read(path))
    except ValueError as exc:
        raise CliParseError(f"{path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_box(text: str):
    parts = [rational(x) for x in text.split(",")]
    if len(parts) != 4:
        raise CliParseError("viewport must be xmin,ymin,xmax,ymax")
    if not (parts[0] < parts[2] and parts[1] < parts[3]):
        raise CliParseError("viewport must have xmin < xmax and ymin < ymax")
    return tuple(parts)


def _parse_window(text: str):
    parts = [rational(x) for x in text.split(",")]
    if len(parts) == 2:
        lo, hi = parts
    elif len(parts) == 4:
        lo, hi = parts[0], parts[2]
    else:
        raise CliParseError("window must be xmin,xmax")
    if not lo < hi:
        raise CliParseError("window must have xmin < xmax")
    return lo, hi


def _draw_plane(items, viewport: str, witness=None) -> str:
    return svgmod.plane_svg(items, witness=witness, box=_parse_box(viewport))


def _draw_line(items, viewport: str, witness=None) -> str:
    return svgmod.numberline_svg(items, window=_parse_window(viewport))


class _Format(NamedTuple):
    kind: str
    parse: Callable[[str], object]
    format: Callable[[object], str]
    draw: Callable[..., str]


# leading keyword of a region file -> its format; a file led by any other
# word is an interval list
_FORMATS = {
    "poly": _Format("plane", pl.parse_plane, pl.format_plane, _draw_plane),
    "cyl": _Format("cyl", cyl.parse_cylinder, cyl.format_cylinder, _draw_line),
    None: _Format("interval", iv.parse_intervals, iv.format_intervals, _draw_line),
}


def _head(text: str):
    words = text.split(None, 1)
    return words[0] if words else None


def _format_of(text: str) -> _Format:
    return _FORMATS.get(_head(text), _FORMATS[None])


def _region(text: str):
    """(format, region) of a region file's text."""
    fmt = _format_of(text)
    return fmt, fmt.parse(text)


def _load_geometry(path: str):
    """(format, region) of a region file."""
    return _parse_file(path, _region)


def _load_like(fmt: _Format, path: str):
    """The region in a second operand file, which must have format ``fmt``."""
    fmt_b, b = _load_geometry(path)
    if fmt_b is not fmt:
        raise CliParseError(f"operands have different kinds: {fmt.kind} vs {fmt_b.kind}")
    return b


def _bool(x: bool) -> str:
    return "true" if x else "false"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_contact(args, sc_line: bool) -> int:
    fmt, a = _load_geometry(args.file_a)
    b = _load_like(fmt, args.file_b)
    explain = sc_line and args.explain
    if explain and fmt.kind != "plane":
        raise CliParseError(f"--explain needs plane regions (poly), got {fmt.kind}")
    c = _bool(a.contact_c(b))
    witness = explanation = None
    if sc_line and fmt.kind == "plane":
        # one strong-contact analysis: overlap holds exactly when it found
        # no shared facet
        witness, explanation = pl.sc_verdict(a, b, count_edges=explain)
        overlap = explanation[0] == "overlap"
    elif sc_line:
        # overlap implies strong contact, which holds exactly when the
        # regions have a witness
        witness = a.sc_witness(b)
        overlap = witness is not None and a.overlap(b)
    if sc_line:
        print(f"SC={_bool(witness is not None)} C={c} overlap={_bool(overlap)}")
    else:
        print(f"C={c}")
    if witness is not None and fmt.kind == "plane":
        (x, y), r = witness
        print(f"witness=disk centre=({x},{y}) radius={r}")
    elif witness is not None:
        lo, hi = witness
        print(f"witness=interval ({lo},{hi})")
    if explain:
        _print_explanation(*explanation)
    if args.svg:
        _write(args.svg, fmt.draw([(a, "A"), (b, "B")], args.viewport, witness))
    return EXIT_OK


def _print_explanation(reason, line, point, walked) -> None:
    """An ``sc_explanation`` of two plane polytopes: the reason for the
    strong-contact verdict, its witness and the arrangement edges walked,
    as ``key=value`` lines."""
    print(f"reason={reason}")
    if reason == "overlap":
        print(f"overlap_point=({point[0]},{point[1]})")
    elif reason == "facet":
        (na, nb), c = line.normal, line.offset
        print(f"facet_line=({na},{nb},{c}) edge_point=({point[0]},{point[1]})")
    print(f"edges_walked={walked}")


def _cmd_bool_op(args) -> int:
    fmt, a = _load_geometry(args.file_a)
    if args.op == "complement":
        out = a.complement()
    elif not args.file_b:
        raise CliParseError(f"{args.op} needs two operands")
    else:
        b = _load_like(fmt, args.file_b)
        out = a.union(b) if args.op == "union" else a.reg_meet(b)
    print(fmt.format(out))
    return EXIT_OK


_CARRIERS = {
    "interval": lambda args: alg.IntervalAlgebra(),
    "plane": lambda args: alg.PlaneAlgebra(),
    "cylinder": lambda args: alg.CylinderAlgebra(args.dim),
}


def _cmd_audit(args) -> int:
    if args.target in _CARRIERS:
        algebra = _CARRIERS[args.target](args)
    else:
        space = _parse_file(args.target, adj.parse_space)
        algebra = alg.induced_algebra(space)
    pool = alg.audit_pool(algebra, args.samples, args.seed)
    report = alg.audit_axioms(algebra, seed=args.seed, pool=pool)
    connected = alg.is_connected_algebra(algebra, pool=pool)
    print(report.text())
    print(f"connected={_bool(connected)}")
    return EXIT_OK if report.passed else EXIT_FOUND


def _cmd_untie(args) -> int:
    space = _parse_file(args.graph, adj.parse_space)
    try:
        untied, collapse = adj.untie(space)
    except ValueError as exc:  # a disconnected graph
        raise CliParseError(f"{args.graph}: {exc}") from exc
    print(adj.format_space(untied))
    for src, dst in collapse.pairs:
        print(f"map {src}: {dst}")
    print(f"acyclic={_bool(adj.is_acyclic(untied))} "
          f"pmorphism={_bool(adj.check_pmorphism(collapse, untied, space))}")
    return EXIT_OK


def _cmd_project(args) -> int:
    space = _parse_file(args.graph, adj.parse_space)
    if not adj.is_connected(space) or not adj.is_acyclic(space):
        raise CliParseError(
            f"{args.graph}: graph must be connected and acyclic; run untie first")
    root = min(space.cells)
    walk = adj.arrangement(space, adj.numeration(space, root))
    images = adj.project(space, walk, args.dim)
    print("arrangement: " + " ".join(walk))
    for cell in space.cells:
        print(f"cell {cell}: {cyl.format_cylinder(images[cell])}")
    if args.svg:
        window = _parse_window(args.viewport)
        svg = svgmod.numberline_svg(
            [(images[c], c) for c in space.cells], window=window)
        _write(args.svg, svg)
    return EXIT_OK


def _parse_valuation(pairs: list[str]) -> dict[str, frozenset[str]]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise CliParseError(f"bad valuation {item!r}, expected name=cells")
        name, _, cells = item.partition("=")
        out[name.strip()] = frozenset(c for c in cells.replace(",", " ").split() if c)
    return out


def _cmd_eval(args) -> int:
    formula = lg.parse(args.formula)
    space = _parse_file(args.space, adj.parse_space)
    algebra = alg.induced_algebra(space)
    if args.val:
        valuation = _parse_valuation(args.val)
        masks = {name: algebra.element_of(cells)
                 for name, cells in valuation.items()}
        print(f"result={_bool(lg.evaluate(formula, algebra, masks))}")
    else:
        print(f"true-in-space={_bool(lg.true_in_algebra(formula, algebra))}")
    scheme = lg.is_axiom_instance(formula)
    print(f"axiom-instance={scheme if scheme else 'none'}")
    return EXIT_OK


def _print_countermodel(space, valuation) -> None:
    print(adj.format_space(space))
    for name in sorted(valuation):
        print(f"val {name}: " + " ".join(sorted(valuation[name])))


def _cmd_countermodel(args) -> int:
    if args.file:
        # one formula per line, '#' comments; exit 1 when any line fails
        formulas = _parse_file(args.file, lg.parse_formula_file)
        any_found = False
        for lineno, formula in formulas:
            found = lg.find_countermodel(formula, args.bound)
            if found is None:
                print(f"line {lineno}: none")
            else:
                any_found = True
                print(f"line {lineno}: countermodel")
                _print_countermodel(*found)
        return EXIT_FOUND if any_found else EXIT_OK
    if not args.formula:
        raise CliParseError("countermodel needs a formula or --file")
    found = lg.find_countermodel(lg.parse(args.formula), args.bound)
    if found is None:
        print("none")
        return EXIT_OK
    _print_countermodel(*found)
    return EXIT_FOUND


def _cmd_synthesize(args) -> int:
    cert = pp.synthesize(args.formula, args.bound, args.dim)
    if cert is None:
        print("none")
        return EXIT_OK
    text = pp.serialize_certificate(cert)
    if args.out:
        _write(args.out, text)
        print(f"certificate written to {args.out}")
    else:
        print(text, end="")
    report = pp.verify(cert)
    print(f"verified={_bool(report.passed)}")
    if args.svg:
        window = _parse_window(args.viewport)
        items = [(cert.geometric_valuation[name], name)
                 for name in sorted(cert.geometric_valuation)]
        _write(args.svg, svgmod.numberline_svg(items, window=window))
    return EXIT_FOUND if report.passed else EXIT_INTERNAL


def _drawable(text: str):
    """The drawing function and the labelled regions of a certificate or
    region file's text."""
    if _head(text) == "certificate":
        cert = pp.parse_certificate(text)
        return _draw_line, [(cert.geometric_valuation[name], name)
                            for name in sorted(cert.geometric_valuation)]
    fmt, region = _region(text)
    return fmt.draw, [(region, "")]


def _cmd_render(args) -> int:
    draw, items = _parse_file(args.file, _drawable)
    _write(args.svg, draw(items, args.viewport))
    print(f"svg written to {args.svg}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

BOUND_HELP = f"most cells a countermodel may have, 1 to {lg.MAX_BOUND} (default 4)"


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a rejected command line as a ``CliParseError``, which ``run``
    prints as one ``error:`` line, instead of printing the usage text and
    exiting; its subcommand parsers are of the same class."""

    def error(self, message: str):
        raise CliParseError(message)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers by name."""
    parser = _ArgumentParser(
        prog="polycontact",
        description="strong contact between polytopes, contact-algebra audits, "
                    "and countermodel synthesis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_svg(p, plane_default="-6,-6,6,6"):
        p.add_argument("--svg", help="write an SVG rendering to this path")
        p.add_argument("--viewport", default=plane_default,
                       help="clipping box xmin,ymin,xmax,ymax (or xmin,xmax)")

    p = sub.add_parser("sc-check", help="strong contact of two regions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    add_svg(p)
    p.add_argument("--explain", action="store_true",
                   help="plane regions only: print the verdict's reason "
                        "(overlap, facet or none), its witness and the "
                        "arrangement edges walked")
    p.set_defaults(fn=lambda a: _cmd_contact(a, sc_line=True))

    p = sub.add_parser("c-check", help="topological contact of two regions")
    p.add_argument("file_a")
    p.add_argument("file_b")
    add_svg(p)
    p.set_defaults(fn=lambda a: _cmd_contact(a, sc_line=False))

    p = sub.add_parser("bool-op", help="union / meet / complement")
    p.add_argument("op", choices=["union", "meet", "complement"])
    p.add_argument("file_a")
    p.add_argument("file_b", nargs="?")
    p.set_defaults(fn=_cmd_bool_op)

    p = sub.add_parser("audit", help="contact-algebra axiom audit")
    p.add_argument("target",
                   help="graph file, or one of: interval, plane, cylinder")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("untie", help="acyclic p-morphic preimage of a graph")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_untie)

    p = sub.add_parser("project", help="project an acyclic graph onto cylinders")
    p.add_argument("graph")
    p.add_argument("--dim", type=int, default=1)
    add_svg(p, plane_default="-2,14")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("eval", help="evaluate a formula in a graph's algebra")
    p.add_argument("formula")
    p.add_argument("space", help="graph file")
    p.add_argument("--val", action="append", default=[],
                   help="variable assignment name=cell,cell (repeatable)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("countermodel", help="search for a discrete countermodel")
    p.add_argument("formula", nargs="?",
                   help="formula text (or use --file)")
    p.add_argument("--file", help="file with one formula per line, '#' comments")
    p.add_argument("--bound", type=int, default=4, help=BOUND_HELP)
    p.set_defaults(fn=_cmd_countermodel)

    p = sub.add_parser("synthesize", help="full geometric countermodel certificate")
    p.add_argument("formula")
    p.add_argument("--bound", type=int, default=4, help=BOUND_HELP)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--out", help="write the certificate to this path")
    add_svg(p, plane_default="-2,14")
    p.set_defaults(fn=_cmd_synthesize)

    p = sub.add_parser("render", help="render a region or certificate to SVG")
    p.add_argument("file")
    p.add_argument("--svg", required=True)
    p.add_argument("--viewport", default="-6,-6,6,6")
    p.set_defaults(fn=_cmd_render)

    return parser, sub.choices


def _dash_hint(commands: dict[str, argparse.ArgumentParser], argv: list[str]) -> str:
    """A note for a rejected command line that holds a token led by '-'
    which is no option of its subcommand: argparse takes such a token (a
    formula like ``-p==q``) for an unknown flag, and its own message then
    names some other argument."""
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return ""
    options = command._option_string_actions
    for token in argv[1:]:
        if token == "--":
            break
        if token.startswith("-") and token.split("=", 1)[0] not in options:
            return (f"; {token!r} is no option of {argv[0]}: a formula"
                    " starting with '-' goes after '--'")
    return ""


def run(argv: list[str]) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliParseError as exc:
        print(f"error: {exc}{_dash_hint(commands, argv)}", file=sys.stderr)
        return EXIT_PARSE
    except SystemExit as exc:  # --help
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CliParseError, lg.FormulaSyntaxError, ValueError, lg.UnboundVariable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (pp.PipelineError, adj.ProjectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
