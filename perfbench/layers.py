"""Traced entry points and the per-layer metrics derived from a trace.

``TARGETS`` maps each wrapped entry point to an optional note (a number
summed over its calls, such as "returned None") and whether its calls are
kept for post-processing.  ``numeric`` gets no spans: it is called millions
of times per run, and its cost shows as the self time of the plane kernel.
"""

from __future__ import annotations


def _is_none(args, result) -> int:
    return result is None


def _untie_added(args, result) -> int:
    return len(result[0].cells) - len(args[0].cells) if result is not None else 0


def _parts_out(args, result) -> int:
    return len(result.parts) if result is not None else 0


TARGETS = {
    "logic.parse": (None, False),
    "logic.find_countermodel": (None, True),
    "adjacency.mk_space": (None, False),
    "pipeline.synthesize": (None, False),
    "pipeline.verify": (None, False),
    "pipeline.serialize_certificate": (None, False),
    "pipeline.parse_certificate": (None, False),
    "adjacency.untie": (_untie_added, False),
    "adjacency.simple_cycles": (None, False),
    "adjacency.check_pmorphism": (None, False),
    "adjacency.project": (None, False),
    "adjacency.arrangement": (None, False),
    "algebra.merge": (None, False),
    "algebra.induced_algebra": (None, False),
    "algebra.audit_axioms": (None, False),
    "algebra.is_connected_algebra": (None, False),
    "cylinder.CylinderPolytope.contact_sc": (None, False),
    "cylinder.CylinderPolytope.union": (None, False),
    "cylinder.CylinderPolytope.equals": (None, False),
    "cylinder.CylinderPolytope.complement": (None, False),
    "intervals.canonicalize": (None, False),
    "plane.feasible_point": (_is_none, False),
    "plane.mk_basic": (_is_none, False),
    "plane.parse_plane": (None, False),
    "plane.contact_sc": (None, False),
    "plane.contact_c": (None, False),
    "plane.overlap": (None, False),
    "plane.sc_witness": (None, False),
    "plane.PlanePolytope.complement": (_parts_out, False),
    "plane.PlanePolytope.reg_meet": (None, False),
    "plane.PlanePolytope.equals": (None, False),
    "cuts.brick_decomposition": (None, True),
    "cuts.sheets": (None, False),
    "cuts.boundary_representation": (None, False),
}

SELF_S = [
    "logic.find_countermodel", "logic.parse",
    "pipeline.synthesize", "pipeline.verify", "pipeline.serialize_certificate",
    "pipeline.parse_certificate",
    "adjacency.untie", "adjacency.check_pmorphism", "adjacency.project",
    "adjacency.arrangement",
    "algebra.merge", "algebra.audit_axioms", "algebra.is_connected_algebra",
    "cylinder.CylinderPolytope.contact_sc", "cylinder.CylinderPolytope.union",
    "cylinder.CylinderPolytope.equals", "cylinder.CylinderPolytope.complement",
    "intervals.canonicalize",
    "plane.feasible_point", "plane.mk_basic",
    "plane.contact_sc", "plane.contact_c", "plane.overlap", "plane.sc_witness",
    "plane.parse_plane",
    "plane.PlanePolytope.complement", "plane.PlanePolytope.reg_meet",
    "plane.PlanePolytope.equals",
    "cuts.brick_decomposition", "cuts.sheets", "cuts.boundary_representation",
]
CALLS = [
    "adjacency.simple_cycles", "algebra.induced_algebra",
    "cylinder.CylinderPolytope.contact_sc", "cylinder.CylinderPolytope.union",
    "cylinder.CylinderPolytope.equals", "cylinder.CylinderPolytope.complement",
    "intervals.canonicalize", "plane.feasible_point", "plane.mk_basic",
]

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    **{f"{n}.self_s": "s" for n in SELF_S},
    **{f"{n}.calls": "count" for n in CALLS},
    "logic.valuations": "count",
    "logic.spaces_searched": "count",
    "logic.ns_per_valuation": "ns",
    "logic.enumerate_connected_spaces.s": "s",
    "logic.enumeration_kept_ratio": "ratio",
    "adjacency.untie.cells_added": "count",
    "plane.feasible_point.infeasible_ratio": "ratio",
    "plane.mk_basic.empty_ratio": "ratio",
    "plane.complement.parts_out": "count",
    "cuts.brick_yield": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.remainder_s": "s",
    "check_s": "s",
}

# the counts that must repeat exactly between two traced passes
EXACT = [k for k, unit in PER_LAYER.items() if unit == "count"] + [
    "logic.enumeration_kept_ratio", "plane.feasible_point.infeasible_ratio",
    "plane.mk_basic.empty_ratio", "cuts.brick_yield"]


def search_work(pc, args, kwargs, result) -> tuple[int, int]:
    """(spaces searched, valuations tried) by one find_countermodel call.

    Derived from its inputs and answer under the documented search order:
    spaces in ``enumerate_connected_spaces`` order, valuations in bitmask
    order with the sorted variables, the first most significant.
    """
    lg = pc.logic
    f = args[0] if args else kwargs["f"]
    bound = args[1] if len(args) > 1 else kwargs["max_cells"]
    if isinstance(f, str):
        f = lg.parse(f)
    names = sorted(lg.free_variables(f))
    spaces = list(lg.enumerate_connected_spaces(bound))
    if result is None:
        searched, position = spaces, 0
    else:
        space, valuation = result
        idx = next(i for i, s in enumerate(spaces) if s is space or s == space)
        searched = spaces[:idx]
        size = 1 << len(space.cells)
        position = 0
        for name in names:
            mask = sum(1 << space.cells.index(c) for c in valuation[name])
            position = position * size + mask
        position += 1
    valuations = sum(1 << (len(s.cells) * len(names)) for s in searched) + position
    return len(searched) + (result is not None), valuations


def per_layer(pc, totals: dict, kept: dict, slow: float, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, times divided by the pass's
    slowdown; ``extra`` holds values measured outside the pass (set-up,
    overhead, check time)."""
    def get(name, i):
        return totals.get(name, (0, 0.0, 0.0, 0))[i]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for n in SELF_S:
        m[f"{n}.self_s"] = get(n, 2) / slow
    for n in CALLS:
        m[f"{n}.calls"] = get(n, 0)
    spaces = valuations = 0
    for (_, name), calls in kept.items():
        if name == "logic.find_countermodel":
            for args, kwargs, result in calls:
                s, v = search_work(pc, args, kwargs, result)
                spaces += s
                valuations += v
    m["logic.valuations"] = valuations
    m["logic.spaces_searched"] = spaces
    m["logic.ns_per_valuation"] = ratio(get("logic.find_countermodel", 2) / slow * 1e9, valuations)
    m["adjacency.untie.cells_added"] = get("adjacency.untie", 3)
    m["plane.feasible_point.infeasible_ratio"] = ratio(
        get("plane.feasible_point", 3), get("plane.feasible_point", 0))
    m["plane.mk_basic.empty_ratio"] = ratio(get("plane.mk_basic", 3), get("plane.mk_basic", 0))
    m["plane.complement.parts_out"] = get("plane.PlanePolytope.complement", 3)
    bricks = vectors = 0
    for (_, name), calls in kept.items():
        if name == "cuts.brick_decomposition":
            for args, _, result in calls:
                bricks += len(result)
                vectors += 1 << len(args[0].cuts)
    m["cuts.brick_yield"] = ratio(bricks, vectors)
    m.update(extra)
    return {k: m.get(k, 0.0) for k in PER_LAYER}
