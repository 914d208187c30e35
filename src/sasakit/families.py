"""Generators for the worked diagram families.

Each generator returns a validated diagram.  The two infinite families emit
height-1 normals (1, p_i, q_i) whose (p, q) loops are strictly convex lattice
polygons with every edge moving by 1 in some coordinate; for each polygon
size the area grows with the shift parameter s, which is what makes distinct
s values inequivalent.
"""

from __future__ import annotations

from .cones import ToricDiagram, validate_diagram


def lens(ell: int) -> ToricDiagram:
    """Three-normal diagram of the lens space quotient of the 5-sphere.

    Height comes out equal to ell; ell = 1 gives the round 5-sphere in a
    non-octant presentation.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return validate_diagram([(1, 0, 0), (0, 1, 0), (1, 1, ell)])


def non_cy(ell: int) -> ToricDiagram:
    """Four-normal good diagram admitting no height structure.

    The fourth normal is a positive rational combination of the others, so
    it cuts out an empty face; the pairing system for gamma is inconsistent.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    return validate_diagram([(1, 0, 0), (0, 1, 0), (1, 1, ell), (1, 1, ell - 1)])


def z5_lens() -> ToricDiagram:
    """Height-1 diagram of a 5-manifold with fundamental group of order 5."""
    return validate_diagram([(1, 0, 0), (1, 2, 1), (1, 3, 4)])


def _height1(points) -> ToricDiagram:
    return validate_diagram([(1, p, q) for p, q in points])


def main4_even(r: int, s: int) -> ToricDiagram:
    """Even family: d = 2r + 3 normals, second Betti number 2r.

    The (p, q) loop rises along the triangular numbers, peaks one step
    further right with an s-dependent overshoot, descends with mirrored
    drops and closes through (0, 1).  The parameter s >= 0 indexes the
    strictly convex members; interior shift is s + 1 because the boundary
    instance has three collinear vertices and a redundant normal.
    """
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    shift = s + 1
    peak = (r + 1) * (r + 2) // 2 + shift
    points = [(i, i * (i + 1) // 2) for i in range(r + 1)]
    points.append((r + 1, peak))
    points.extend((r + 1 - j, peak - j * (j + 1) // 2) for j in range(1, r + 1))
    points.append((0, 1))
    return _height1(points)


def main4_odd(r: int, s: int) -> ToricDiagram:
    """Odd family: d = 2r + 2 normals, second Betti number 2r - 1.

    Symmetric mountain profile: ascent along triangular numbers, an
    s-shifted right peak, a flat-top vertex on the q-axis, the mirrored left
    peak and descent.  The loop must break mirror symmetry at the last
    vertex: at r = 1 the closing vertex (-1, 0) is what makes the edge
    vectors span the full lattice, while for r >= 3 the mirror value (-1, 1)
    is the one keeping the descent strictly convex.
    """
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    top = r * (r + 1) // 2 + s
    points = [(i, i * (i + 1) // 2) for i in range(r)]
    points.append((r, top))
    points.append((0, top + 1))
    if r >= 2:
        points.append((-r, top))
        points.extend((-i, i * (i + 1) // 2) for i in range(r - 1, 1, -1))
    points.append((-1, 0) if r <= 2 else (-1, 1))
    return _height1(points)


# each builder with the command-line options it takes, in call order
FAMILY_BUILDERS = {
    "lens": (lens, ("l",)),
    "non-cy": (non_cy, ("l",)),
    "z5-lens": (z5_lens, ()),
    "main4-even": (main4_even, ("r", "s")),
    "main4-odd": (main4_odd, ("r", "s")),
}
