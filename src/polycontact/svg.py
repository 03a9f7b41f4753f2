"""SVG emission: plane polytopes with witness disks, and number lines.

Rendering is the only place exact rationals are converted to floats; the
clipping of half-planes against the viewport box stays rational so that
degenerate slivers are kept or dropped exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .cylinder import CylinderPolytope
from .intervals import IntervalPolytope
from .numeric import HalfSpace, Point
from .plane import BasicPolytope, PlanePolytope

Box = tuple[Fraction, Fraction, Fraction, Fraction]  # xmin, ymin, xmax, ymax

_PALETTE = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377"]
_PLANE_SIZE = 480  # px, the side of a plane drawing
_NUMBERLINE_WIDTH = 600  # px


def clip_basic_to_box(basic: BasicPolytope, box: Box) -> list[Point]:
    """Vertices of ``basic`` intersected with the box, counterclockwise.

    Sutherland-Hodgman against each constraint with rational arithmetic;
    an empty list means the intersection has no area inside the box.
    """
    xmin, ymin, xmax, ymax = box
    polygon: list[Point] = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    for h in basic.constraints:
        polygon = _clip(polygon, h)
        if not polygon:
            return []
    return polygon


def _clip(polygon: list[Point], h: HalfSpace) -> list[Point]:
    out: list[Point] = []
    for i, cur in enumerate(polygon):
        prev = polygon[i - 1]
        cur_in = h.value_at(cur) <= 0
        prev_in = h.value_at(prev) <= 0
        if cur_in != prev_in:
            out.append(_edge_cross(prev, cur, h))
        if cur_in:
            out.append(cur)
    deduped = [p for i, p in enumerate(out) if p != out[i - 1]] if out else []
    return deduped


def _edge_cross(a: Point, b: Point, h: HalfSpace) -> Point:
    va, vb = h.value_at(a), h.value_at(b)
    t = va / (va - vb)
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def _f(x) -> str:
    return f"{float(x):.3f}"


def plane_svg(polys: Sequence[tuple[PlanePolytope, str]],
              witness: Optional[tuple[Point, Fraction]] = None,
              box: Box = (Fraction(-5), Fraction(-5), Fraction(5), Fraction(5))) -> str:
    """Filled polygons for each polytope (one colour per entry), the box
    frame, and the witness disk if given."""
    xmin, ymin, xmax, ymax = box
    span = max(xmax - xmin, ymax - ymin)
    scale = Fraction(_PLANE_SIZE) / span

    def sx(x):
        return _f((x - xmin) * scale)

    def sy(y):
        return _f((ymax - y) * scale)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PLANE_SIZE}" '
             f'height="{_PLANE_SIZE}" viewBox="0 0 {_PLANE_SIZE} {_PLANE_SIZE}">']
    parts.append(f'<rect x="0" y="0" width="{_PLANE_SIZE}" height="{_PLANE_SIZE}" '
                 'fill="white" stroke="#222"/>')
    for idx, (poly, label) in enumerate(polys):
        colour = _PALETTE[idx % len(_PALETTE)]
        for basic in poly.parts:
            pts = clip_basic_to_box(basic, box)
            if len(pts) < 3:
                continue
            coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in pts)
            parts.append(f'<polygon points="{coords}" fill="{colour}" '
                         f'fill-opacity="0.45" stroke="{colour}"/>')
        if label:
            parts.append(f'<text x="8" y="{16 * (idx + 1)}" fill="{colour}" '
                         f'font-size="12">{label}</text>')
    if witness is not None:
        (cx, cy), r = witness
        parts.append(f'<circle cx="{sx(cx)}" cy="{sy(cy)}" r="{_f(r * scale)}" '
                     'fill="none" stroke="#000" stroke-width="2" stroke-dasharray="4 3"/>')
        parts.append(f'<circle cx="{sx(cx)}" cy="{sy(cy)}" r="2" fill="#000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def numberline_svg(items: Sequence[tuple[IntervalPolytope | CylinderPolytope, str]],
                   window: tuple[Fraction, Fraction] = (Fraction(-6), Fraction(6))) -> str:
    """One row per item: axis, thick bars for pieces, arrows for rays."""
    lo, hi = window
    scale = Fraction(_NUMBERLINE_WIDTH - 40) / (hi - lo)
    row_h = 34
    height = row_h * len(items) + 20

    def sx(x):
        return _f(20 + (x - lo) * scale)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_NUMBERLINE_WIDTH}" '
             f'height="{height}" viewBox="0 0 {_NUMBERLINE_WIDTH} {height}">']
    for idx, (item, label) in enumerate(items):
        base = item.base if isinstance(item, CylinderPolytope) else item
        y = 10 + row_h * idx + row_h // 2
        colour = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<line x1="20" y1="{y}" x2="{_NUMBERLINE_WIDTH - 20}" y2="{y}" '
                     'stroke="#ccc"/>')
        for plo, phi in base.pieces:
            a = lo if plo is None or plo < lo else plo
            b = hi if phi is None or phi > hi else phi
            if a > b:
                continue
            parts.append(f'<line x1="{sx(a)}" y1="{y}" x2="{sx(b)}" y2="{y}" '
                         f'stroke="{colour}" stroke-width="6"/>')
            if plo is None:
                parts.append(f'<text x="4" y="{y + 4}" font-size="12" '
                             f'fill="{colour}">&#8592;</text>')
            if phi is None:
                parts.append(f'<text x="{_NUMBERLINE_WIDTH - 14}" y="{y + 4}" font-size="12" '
                             f'fill="{colour}">&#8594;</text>')
        parts.append(f'<text x="24" y="{y - 8}" font-size="12" '
                     f'fill="{colour}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
