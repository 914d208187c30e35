"""Shared generators and independent oracles used across the test modules."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np

from sasakit import DegenerateCone, canonical_reeb, truncated_polytope, validate_diagram
from sasakit.cones import ConeSkeleton, ToricDiagram, _cross, _dot
from sasakit.lattice import (
    IntMatrix,
    IntVector,
    make_primitive,
    rational_kernel_basis,
    smith_normal_form,
    solve_rational,
)


def octant():
    return validate_diagram([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def interior_points(diagram, count, seed=0, lo=0.1, hi=1.0):
    """Random strictly interior points: positive mixes of the cap vertices."""
    rng = np.random.default_rng(seed)
    poly = truncated_polytope(diagram, [float(x) for x in canonical_reeb(diagram)])
    cap = np.array([[float(c) for c in v] for v in poly.cap_vertices])
    return [rng.uniform(lo, hi, len(cap)) @ cap for _ in range(count)]


def random_convex_height1_diagram(rng: random.Random, max_coord=8, max_vertices=8):
    """Hull of random lattice points in a box, as height-1 normals.

    Returns None when the hull degenerates or has too many vertices.
    """
    npts = rng.randint(3, 10)
    pts = {(rng.randint(-max_coord, max_coord), rng.randint(-max_coord, max_coord))
           for _ in range(npts)}
    hull = convex_hull(sorted(pts))
    if not 3 <= len(hull) <= max_vertices:
        return None
    return validate_diagram([(1, p, q) for p, q in hull])


def convex_hull(points):
    """Andrew monotone chain; returns hull vertices counterclockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return []

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_sl3(rng: random.Random, shears=4, max_c=3) -> IntMatrix:
    """Random element of SL(3, Z) as a short product of integer shears."""
    m = IntMatrix.identity(3)
    for _ in range(shears):
        i = rng.randrange(3)
        j = rng.randrange(3)
        while j == i:
            j = rng.randrange(3)
        c = rng.choice([k for k in range(-max_c, max_c + 1) if k != 0])
        shear = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        shear[i][j] = c
        m = m @ IntMatrix.from_rows(shear)
    assert m.det() == 1
    return m


def random_height_preserving(rng: random.Random) -> IntMatrix:
    """Random lattice map fixing the height-1 form: first row (1, 0, 0)."""
    a, b = 1, 0
    c, d = 0, 1
    for _ in range(3):
        k = rng.randint(-2, 2)
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    t1 = rng.randint(-4, 4)
    t2 = rng.randint(-4, 4)
    m = IntMatrix.from_rows([[1, 0, 0], [t1, a, b], [t2, c, d]])
    assert m.det() == 1
    return m


def transform_normals(diagram, m: IntMatrix):
    return validate_diagram([m.mul_vector(v) for v in diagram.normals])


def minors_gcd(matrix_rows, k):
    """gcd of all k x k minors, the k-th determinantal divisor."""
    rows = len(matrix_rows)
    cols = len(matrix_rows[0])
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            sub = IntMatrix.from_rows(
                [[matrix_rows[i][j] for j in csel] for i in rsel]
            )
            g = gcd(g, abs(sub.det()))
    return g


def invariant_factors_via_minors(matrix_rows):
    """Independent oracle: d_k = D_k / D_{k-1} with D_k the k-th minor gcd."""
    n = min(len(matrix_rows), len(matrix_rows[0]))
    divisors = [1]
    for k in range(1, n + 1):
        divisors.append(minors_gcd(matrix_rows, k))
    factors = []
    for k in range(1, n + 1):
        if divisors[k] == 0:
            factors.append(0)
        else:
            factors.append(divisors[k] // divisors[k - 1])
    return [f for f in factors if f not in (0, 1)]


def span_membership(vectors, point):
    """Is `point` in the rational span of `vectors`, and with what coefficients?"""
    cols = [list(map(Fraction, v)) for v in vectors]
    rows = list(map(list, zip(*cols)))  # ambient x k
    aug = [r + [Fraction(p)] for r, p in zip(rows, point)]
    ncols = len(cols)
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None
    coeffs = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        coeffs[c] = aug[i][-1]
    return coeffs


def saturation_box_oracle(vectors, box=10):
    """Brute force: every box lattice point of the real span has integer coords."""
    dim = len(vectors[0])
    for point in itertools.product(range(-box, box + 1), repeat=dim):
        coeffs = span_membership(vectors, point)
        if coeffs is not None and any(c.denominator != 1 for c in coeffs):
            return False
    return True


def saturation_snf_oracle(vectors) -> bool:
    """The full-SNF saturation rule: rank k and k unit Smith diagonal entries."""
    cols = [tuple(v) for v in vectors]
    snf = smith_normal_form(IntMatrix.from_columns(cols))
    if snf.rank != len(cols):
        return False
    return all(x == 1 for x in snf.diagonal[: len(cols)])


def kernel_lattice_oracle(diagram: ToricDiagram, height: int):
    """Kernel basis and height integrality flag by one elimination per question.

    The kernel from `rational_kernel_basis`, and one `solve_rational` per
    standard generator for its preimage (free variables 0); the flag asks
    that `height` times every coordinate sum be an integer.
    """
    matrix = [list(col) for col in zip(*diagram.normals)]
    basis = tuple(tuple(b) for b in rational_kernel_basis(matrix))
    generators = IntMatrix.identity(diagram.rank).entries
    flag = all(sum(b) == 0 for b in basis) and all(
        (height * sum(solve_rational(matrix, e))).denominator == 1 for e in generators
    )
    return basis, flag


def skeleton_oracle(diagram: ToricDiagram) -> ConeSkeleton:
    """The all-pairs skeleton: every pair cross product tested against every normal.

    O(d^3) reference for `cones.cone_skeleton`, kept as its test oracle.
    """
    if diagram.rank != 3:
        raise ValueError("face enumeration is implemented for rank 3 only")
    normals = diagram.normals
    rays: dict[IntVector, set] = {}
    for i, j in itertools.combinations(range(len(normals)), 2):
        v = _cross(normals[i], normals[j])
        if all(x == 0 for x in v):
            continue
        v = make_primitive(v)
        for cand in (v, tuple(-x for x in v)):
            prods = [_dot(cand, lam) for lam in normals]
            if all(p >= 0 for p in prods):
                rays[cand] = {k for k, p in enumerate(prods) if p == 0}
                break
    if len(rays) < 3:
        # a validated diagram always has at least 3 extreme rays
        raise DegenerateCone(3, 2)

    facet_rays: dict[int, list[IntVector]] = {}
    for r, act in rays.items():
        for i in act:
            facet_rays.setdefault(i, []).append(r)
    true_facets = {i for i, rs in facet_rays.items() if len(rs) == 2}
    grazing = tuple(sorted(i for i, rs in facet_rays.items() if len(rs) == 1))
    empty = tuple(sorted(set(range(len(normals))) - set(facet_rays)))

    # walk the polygon: every extreme ray joins exactly two true facets
    ray_facets = {
        r: sorted(i for i in act if i in true_facets) for r, act in rays.items()
    }
    assert all(len(fs) == 2 for fs in ray_facets.values())
    start = min(true_facets)
    first_ray = min(facet_rays[start])
    facet_cycle = [start]
    ray_cycle = [first_ray]
    while True:
        cur_facet = facet_cycle[-1]
        cur_ray = ray_cycle[-1]
        nxt_facet = next(i for i in ray_facets[cur_ray] if i != cur_facet)
        if nxt_facet == start:
            break
        nxt_ray = next(r for r in facet_rays[nxt_facet] if r != cur_ray)
        facet_cycle.append(nxt_facet)
        ray_cycle.append(nxt_ray)
    # fix orientation: counterclockwise as seen from the dual interior point
    w = [0, 0, 0]
    for i in true_facets:
        w = [a + b for a, b in zip(w, normals[i])]
    if len(facet_cycle) >= 3:
        orient = _dot(_cross(normals[facet_cycle[0]], normals[facet_cycle[1]]), w)
        assert orient != 0
        if orient < 0:
            facet_cycle = [facet_cycle[0]] + facet_cycle[:0:-1]
            ray_cycle.reverse()
    # ray_cycle[i] is the ray shared by facet_cycle[i] and facet_cycle[i+1]
    return ConeSkeleton(
        rays=tuple(ray_cycle),
        active=tuple(frozenset(rays[r]) for r in ray_cycle),
        facet_cycle=tuple(facet_cycle),
        grazing=grazing,
        empty=empty,
    )
