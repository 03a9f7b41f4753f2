"""End-to-end countermodel synthesis and certificate checking.

``synthesize`` drives the whole chain for a non-theorem: find a finite
connected adjacency countermodel, untie it to an acyclic preimage carrying
the valuation backwards along the collapsing map, project the acyclic space
onto cylinders over the line, and merge cell sets into polytopes, so the
formula is falsified by an explicit geometric valuation.  Falsity is
re-checked at the discrete, untied and geometric stages; a failure at any
stage aborts with the name of the violated identity (it would indicate a
bug, not a property of the input).  The geometric stage reads one table of
the images' segments (``intervals.segment_masks``): a variable fills the OR
of its cells' masks, is checked false on ``algebra.path_algebra`` and is read
back by ``intervals.from_segments``.  ``verify`` reads the images' checks and
each variable's union off the one table ``algebra.merge`` builds, and
re-checks falsity over ``CylinderAlgebra``.

The resulting certificate serialises to a line-oriented text bundle that
round-trips through ``parse_certificate`` and re-verifies from scratch with
``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from typing import Optional

from . import logic as lg
from .adjacency import (
    AdjacencySpace,
    PMorphism,
    arrangement,
    check_pmorphism,
    format_space,
    numeration,
    parse_space,
    project,
    untie,
)
from .algebra import (AuditReport, CylinderAlgebra, UnknownCell, first_witness,
                      induced_algebra, merge, path_algebra)
from .cylinder import CylinderPolytope, format_cylinder, lift, parse_cylinder
from .intervals import from_segments, segment_masks

Valuation = dict[str, frozenset[str]]
# the stages a certificate records a verdict for, in the order it lists them
_STAGES = ("discrete", "untied", "geometric")
_EXPECTED_VERDICTS = "expected one 'verdict <stage>: true|false' for each of " + ", ".join(_STAGES)


class PipelineError(RuntimeError):
    """A stage identity failed while building a certificate."""


@dataclass(frozen=True)
class CountermodelCertificate:
    """A geometric countermodel and the stages that led to it.

    The formula is its text: ``formula`` is parsed from ``formula_text`` at
    most once per certificate, on first use, and neither attribute can be
    reassigned.  ``synthesize`` hands over the parse it made, and
    ``parse_certificate`` forces the parse, so malformed formula text fails
    there.  The stage dicts stay mutable, so a test can tamper with them.
    """
    formula_text: str
    dim: int
    discrete_space: AdjacencySpace
    discrete_valuation: Valuation
    untied_space: AdjacencySpace
    collapse: PMorphism
    untied_valuation: Valuation
    images: dict[str, CylinderPolytope]
    geometric_valuation: dict[str, CylinderPolytope]
    verdicts: dict[str, bool]

    @cached_property
    def formula(self) -> lg.Formula:
        return lg.parse(self.formula_text)


def _eval_discrete(formula: lg.Formula, space: AdjacencySpace,
                   valuation: Valuation) -> bool:
    algebra = induced_algebra(space)
    masks = {name: algebra.element_of(cells) for name, cells in valuation.items()}
    return lg.evaluate(formula, algebra, masks)


def synthesize(formula: lg.Formula | str, max_cells: int, dim: int = 1
               ) -> Optional[CountermodelCertificate]:
    """Build a geometric countermodel certificate, or None if the search
    up to ``max_cells`` cells finds no discrete countermodel.  A bound
    outside ``1..logic.MAX_BOUND`` raises ``ValueError``."""
    lg.check_bound(max_cells)
    text = formula if isinstance(formula, str) else lg.format_formula(formula)
    parsed = lg.parse(text)
    if dim < 1:
        raise ValueError("ambient dimension must be >= 1")

    found = lg.find_countermodel(parsed, max_cells)
    if found is None:
        return None
    space, valuation = found
    if _eval_discrete(parsed, space, valuation):
        raise PipelineError("discrete countermodel re-evaluated to true")

    untied, collapse = untie(space)
    if not check_pmorphism(collapse, untied, space):
        raise PipelineError("untying did not produce a p-morphism")
    lifted: Valuation = {
        name: frozenset(x for x in untied.cells if collapse(x) in cells)
        for name, cells in valuation.items()}
    if _eval_discrete(parsed, untied, lifted):
        raise PipelineError(
            "formula became true in the untied preimage (truth transfer failed)")

    walk = arrangement(untied, numeration(untied, min(untied.cells)))
    images = project(untied, walk, dim)

    ends, masks = segment_masks([images[x].base for x in untied.cells])
    mask_of = dict(zip(untied.cells, masks))
    filled = {name: reduce(or_, map(mask_of.get, cells), 0) for name, cells in lifted.items()}
    if lg.evaluate(parsed, path_algebra(len(ends) + 1), filled):
        raise PipelineError(
            "formula became true under the merged polytope valuation")
    geometric = {name: lift(from_segments(ends, m), dim) for name, m in filled.items()}

    verdicts = dict.fromkeys(_STAGES, False)
    cert = CountermodelCertificate(
        formula_text=text, dim=dim,
        discrete_space=space, discrete_valuation=valuation,
        untied_space=untied, collapse=collapse, untied_valuation=lifted,
        images=images, geometric_valuation=geometric, verdicts=verdicts)
    object.__setattr__(cert, "formula", parsed)   # the parse of formula_text, made above
    return cert


def verify(cert: CountermodelCertificate) -> AuditReport:
    """Re-run every stage check of a certificate independently.

    Total on any certificate that parses: a stage whose valuation leaves a
    variable of the formula unbound, or names a cell outside its space,
    fails with the variable or the cell as witness.
    """
    report = AuditReport()

    def holds(ok: bool) -> Optional[str]:
        # a check with nothing to show fails with an empty witness
        return None if ok else ""

    def falsified(evaluate_stage) -> Optional[str]:
        try:
            return holds(not evaluate_stage())
        except (lg.UnboundVariable, UnknownCell) as exc:
            return str(exc)

    # a certificate's formula is parsed from its text, so the two match by
    # construction
    formula = cert.formula
    report.check("formula-matches", None)

    report.check("discrete-eval-false", falsified(lambda: _eval_discrete(
        formula, cert.discrete_space, cert.discrete_valuation)))

    report.check("pmorphism", holds(
        check_pmorphism(cert.collapse, cert.untied_space, cert.discrete_space)))

    collapse, discrete = cert.collapse.mapping, cert.discrete_valuation
    report.check("valuation-lift", first_witness(
        ((name, cells, x) for name, cells in cert.untied_valuation.items()
         for x in cert.untied_space.cells),
        lambda name, cells, x: (name not in discrete or x not in collapse
                                or (x in cells) != (collapse[x] in discrete[name])),
        lambda name, _, x: f"at {(name, x)}"))

    report.check("untied-eval-false", falsified(lambda: _eval_discrete(
        formula, cert.untied_space, cert.untied_valuation)))

    cells = cert.untied_space.cells
    image_ok = set(cert.images) == set(cells)
    report.check("images-cover-cells", holds(image_ok))
    if image_ok:
        merged = merge(cert.images, space=cert.untied_space)
        ends, mask_of = merged.ends, dict(zip(merged.cells, merged.masks))
        report.check("images-cover-line", holds(
            reduce(or_, merged.masks, 0) == (2 << len(ends)) - 1))
        report.check("images-non-overlapping", first_witness(
            combinations(cells, 2), lambda x, y: mask_of[x] & mask_of[y],
            lambda x, y: str((x, y))))

        for entry in merged.report.entries:
            report.check("merging-" + entry.name, None if entry.passed else entry.witness)

        # ``!=``, not ``equals``, which raises on a variable of another dimension
        geometric = cert.geometric_valuation
        report.check("geometric-valuation-is-merged-union", first_witness(
            cert.untied_valuation.items(),
            lambda name, cells_: (name not in geometric or not cells_ <= mask_of.keys()
                                  or geometric[name] != lift(from_segments(
                                      ends, reduce(or_, map(mask_of.get, cells_), 0)), cert.dim)),
            lambda name, _: f"variable {name}"))

    report.check("geometric-eval-false", falsified(lambda: lg.evaluate(
        formula, CylinderAlgebra(cert.dim), cert.geometric_valuation)))

    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class CertificateFormatError(ValueError):
    pass


def serialize_certificate(cert: CountermodelCertificate) -> str:
    lines = ["certificate {"]
    lines.append(f"formula: {cert.formula_text}")
    lines.append(f"dim: {cert.dim}")
    lines.append("discrete {")
    lines.append(f"space: {format_space(cert.discrete_space)}")
    for name in sorted(cert.discrete_valuation):
        cells = " ".join(sorted(cert.discrete_valuation[name]))
        lines.append(f"val {name}: {cells}".rstrip())
    lines.append("}")
    lines.append("untied {")
    lines.append(f"space: {format_space(cert.untied_space)}")
    for src, dst in cert.collapse.pairs:
        lines.append(f"map {src}: {dst}")
    for name in sorted(cert.untied_valuation):
        cells = " ".join(sorted(cert.untied_valuation[name]))
        lines.append(f"val {name}: {cells}".rstrip())
    lines.append("}")
    lines.append("images {")
    for cell in sorted(cert.images):
        lines.append(f"cell {cell}: {format_cylinder(cert.images[cell])}")
    lines.append("}")
    lines.append("geometric {")
    for name in sorted(cert.geometric_valuation):
        lines.append(f"var {name}: {format_cylinder(cert.geometric_valuation[name])}")
    lines.append("}")
    lines.append("verdicts {")
    for stage in _STAGES:
        lines.append(f"verdict {stage}: {str(cert.verdicts[stage]).lower()}")
    lines.append("}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> CountermodelCertificate:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "certificate {" or lines[-1] != "}":
        raise CertificateFormatError("expected 'certificate { ... }'")
    body = lines[1:-1]

    header: dict[str, str] = {}  # "formula" and "dim" -> the text after the colon
    section = None
    spaces: dict[str, AdjacencySpace] = {}
    valuations: dict[str, Valuation] = {"discrete": {}, "untied": {}}
    mapping: dict[str, str] = {}
    images: dict[str, CylinderPolytope] = {}
    geometric: dict[str, CylinderPolytope] = {}
    verdicts: dict[str, bool] = {}

    def put(table: dict, key: str, value, line: str) -> None:
        if key in table:  # a repeated line is an error, never an overwrite
            raise CertificateFormatError(f"repeated line {line!r}")
        table[key] = value

    for line in body:
        if line.endswith("{") and line[:-1].strip() in (
                "discrete", "untied", "images", "geometric", "verdicts"):
            section = line[:-1].strip()
            continue
        if line == "}":
            section = None
            continue
        # "<kind> <key>: <rest>", or "<head>: <rest>" outside a section
        head, _, rest = line.partition(":")
        key, rest = head.partition(" ")[2].strip(), rest.strip()
        if section is None:
            if not line.startswith(("formula:", "dim:")):
                raise CertificateFormatError(f"unexpected line {line!r}")
            if head == "dim" and not (rest.isascii() and rest.isdigit() and int(rest) >= 1):
                raise CertificateFormatError(f"dim {rest!r} is not a decimal integer >= 1")
            put(header, head, rest, line)
        elif section in ("discrete", "untied"):
            if line.startswith("space:"):
                put(spaces, section, parse_space(rest), line)
            elif line.startswith("val "):
                put(valuations[section], key, frozenset(rest.split()), line)
            elif section == "untied" and line.startswith("map "):
                put(mapping, key, rest, line)
            else:
                raise CertificateFormatError(f"unexpected line {line!r} in {section}")
        elif section == "images":
            if not line.startswith("cell "):
                raise CertificateFormatError(f"unexpected line {line!r} in images")
            put(images, key, parse_cylinder(rest), line)
        elif section == "geometric":
            if not line.startswith("var "):
                raise CertificateFormatError(f"unexpected line {line!r} in geometric")
            put(geometric, key, parse_cylinder(rest), line)
        elif section == "verdicts":
            if not line.startswith("verdict "):
                raise CertificateFormatError(f"unexpected line {line!r} in verdicts")
            if key not in _STAGES or key in verdicts or rest not in ("true", "false"):
                raise CertificateFormatError(f"bad verdict line {line!r}; {_EXPECTED_VERDICTS}")
            verdicts[key] = rest == "true"

    if header.keys() != {"formula", "dim"}:
        raise CertificateFormatError("missing formula or dim")
    formula_text, dim = header["formula"], int(header["dim"])
    if "discrete" not in spaces or "untied" not in spaces:
        raise CertificateFormatError("missing a space section")
    if len(verdicts) < len(_STAGES):
        raise CertificateFormatError(f"missing a verdict; {_EXPECTED_VERDICTS}")
    odd = next((c for c in (*images.values(), *geometric.values()) if c.ambient_dim != dim), None)
    if odd is not None:
        raise CertificateFormatError(f"a cylinder of dimension {odd.ambient_dim} "
                                     f"in a certificate of dim {dim}")
    cert = CountermodelCertificate(
        formula_text=formula_text, dim=dim,
        discrete_space=spaces["discrete"], discrete_valuation=valuations["discrete"],
        untied_space=spaces["untied"], collapse=PMorphism.of(mapping),
        untied_valuation=valuations["untied"], images=images,
        geometric_valuation=geometric, verdicts=verdicts)
    cert.formula                   # a malformed formula line raises here
    return cert
