"""Strong contact between polytopes, contact algebras, and countermodels.

Subpackages by concern:

* :mod:`polycontact.numeric`   - exact rationals, points, half-spaces, lines
* :mod:`polycontact.intervals` - polytopes on the line
* :mod:`polycontact.plane`     - plane polytopes and the SC decision
* :mod:`polycontact.cuts`      - sheets, boundary representations
* :mod:`polycontact.cylinder`  - cylinders over line polytopes
* :mod:`polycontact.adjacency` - adjacency spaces, untying, projection
* :mod:`polycontact.algebra`   - contact algebras, audits, merging
* :mod:`polycontact.logic`     - formulas, evaluation, countermodel search
* :mod:`polycontact.bitslice`  - bit-sliced formula evaluation over finite algebras
* :mod:`polycontact.pipeline`  - end-to-end countermodel certificates
* :mod:`polycontact.cli`       - command-line front door
"""

from .numeric import HalfSpace, Hyperplane, Point, Rational, Side, flip, side_of
from .intervals import IntervalPolytope
from .plane import BasicPolytope, PlanePolytope

__all__ = [
    "HalfSpace",
    "Hyperplane",
    "Point",
    "Rational",
    "Side",
    "flip",
    "side_of",
    "IntervalPolytope",
    "BasicPolytope",
    "PlanePolytope",
]

__version__ = "0.1.0"
