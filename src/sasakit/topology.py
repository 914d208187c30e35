"""Topological invariants read off a diagram.

The fundamental group is the quotient of the ambient lattice by the span of
the normals; the second Betti number of the associated simply connected
5-manifold is d - 3; the equivalence-class invariant of a height-1 diagram
is the lattice area of its (p, q) polygon, kept exact as twice-area.
pi1, b2 and the label describe the normal list, which is the manifold's only
when `cone_skeleton` finds no grazing or empty normal: a normal the others
imply still enters the span and the count d.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .cones import ToricDiagram, cone_skeleton, height1_points, torsion
from .lattice import IntMatrix, Record, invariant_factors
from .lattice import smith_normal_form  # noqa: F401  perfbench/tracing.py patches this name


class TopologyReport(Record):
    pi1_invariant_factors: tuple[int, ...]
    b2: int | None
    area_times_2: int | None
    identification: str

    def to_json_dict(self) -> dict:
        return {
            "pi1": list(self.pi1_invariant_factors),
            "b2": self.b2,
            "area2": self.area_times_2,
            "label": self.identification,
        }


def fundamental_group(diagram: ToricDiagram) -> tuple[int, ...]:
    """Invariant factors of the ambient lattice modulo the normal span.

    Empty tuple means simply connected.  It is the normal list's group
    (module docstring).  Kept on the diagram.
    At rank 3 a saturated edge of the skeleton reduces it to Z/g, g one gcd
    over the normals (`cones.torsion`); only a diagram with no saturated
    edge, where the group need not be cyclic, runs a Smith diagonal.
    """
    return torsion(diagram)


def second_betti(diagram: ToricDiagram) -> int:
    """b2 = d - 3 for a good rank-3 diagram of a simply connected manifold.

    d counts normals: it warns when one is no facet, and for a nontrivial pi1.
    """
    if diagram.rank != 3:
        raise ValueError("the d - 3 formula applies to rank-3 diagrams")
    sk = cone_skeleton(diagram)
    if sk.grazing or sk.empty:
        warnings.warn("a normal is not a facet; d - 3 counts normals, not facets", stacklevel=2)
    if fundamental_group(diagram):
        warnings.warn(
            "second_betti applied to a diagram with nontrivial fundamental "
            "group; d - 3 is only justified in the simply connected case",
            stacklevel=2,
        )
    return diagram.d - 3


def area_invariant(diagram: ToricDiagram) -> Fraction:
    """Exact polygon area of a height-1 diagram (shoelace, as a fraction)."""
    return Fraction(area_invariant_times_2(diagram), 2)


def area_invariant_times_2(diagram: ToricDiagram) -> int:
    pts = height1_points(diagram)
    n = len(pts)
    twice = 0
    for k in range(n):
        p1, q1 = pts[k]
        p2, q2 = pts[(k + 1) % n]
        twice += p1 * q2 - p2 * q1
    return abs(twice)


def identify_5d(diagram: ToricDiagram) -> str:
    """Name the 5-manifold in the simply connected spin regime.

    Relies on the classification of simply connected 5-manifolds with a
    3-torus action; outside that regime only the lens-type cyclic case is
    labeled and anything else, any rank but 3 included, is unknown.  It
    names the normal list (module docstring).
    """
    if diagram.rank != 3:
        return "unknown"
    pi1 = fundamental_group(diagram)
    if not pi1:
        k = diagram.d - 3
        if k == 0:
            return "S^5"
        return f"S^5 # {k}(S^2 x S^3)"
    if len(pi1) == 1:
        return f"lens-type: pi1 = Z_{pi1[0]}"
    return "unknown"


def topology_report(diagram: ToricDiagram) -> TopologyReport:
    """pi1, b2, area and label of the normal list (module docstring)."""
    pi1 = fundamental_group(diagram)
    # the report always carries the d - 3 value; second_betti() is the place
    # that warns when its hypothesis fails
    b2 = diagram.d - 3 if diagram.rank == 3 else None
    try:
        area2 = area_invariant_times_2(diagram)
    except ValueError:  # not a strictly convex height-1 diagram
        area2 = None
    return TopologyReport(
        pi1_invariant_factors=pi1,
        b2=b2,
        area_times_2=area2,
        identification=identify_5d(diagram),
    )


def convexity_and_span_check(points) -> bool:
    """Strict convexity of the loop plus the differences generating Z^2.

    Cross products of consecutive edge vectors must all carry one strict
    sign, and the edge vectors must span the full integer lattice: two
    consecutive edges with a nonzero cross product already give rank 2, so
    the span is Z^2 exactly when the difference matrix has no invariant
    factors.
    """
    pts = [(int(p), int(q)) for p, q in points]
    n = len(pts)
    if n < 3:
        raise ValueError("need at least 3 points")
    edges = []
    for k in range(n):
        dp = pts[(k + 1) % n][0] - pts[k][0]
        dq = pts[(k + 1) % n][1] - pts[k][1]
        edges.append((dp, dq))
    sign = 0
    for k in range(n):
        a = edges[k]
        b = edges[(k + 1) % n]
        cross = a[0] * b[1] - a[1] * b[0]
        if cross == 0:
            return False
        if sign == 0:
            sign = 1 if cross > 0 else -1
        elif (cross > 0) != (sign > 0):
            return False
    return not invariant_factors(IntMatrix.from_columns(edges))
