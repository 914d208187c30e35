"""Shared generators and independent oracles used across the test modules."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import gcd

import numpy as np
import sympy

from sasakit import (
    DegenerateCone,
    EmptyInterior,
    MinimizationResult,
    NonPrimitiveNormal,
    RedundantNormal,
    ReebVector,
    canonical_reeb,
    StencilOutsideDomain,
    extreme_rays,
    interior_point,
    reeb_cone_contains,
    truncated_polytope,
    validate_diagram,
)
from sasakit.cones import ConeSkeleton, ToricDiagram, _cross, _dot, cone_skeleton
from sasakit.cy import _check_own, compute_gamma, normalize_height
from sasakit.lattice import (
    IntMatrix,
    IntVector,
    _as_int_vector,
    smith_normal_form,
)
from sasakit.reeb import MAX_ITERATIONS, TOLERANCE, _reduced_frame


def make_primitive(v) -> IntVector:
    """The primitive integer vector on the ray of a nonzero integer v."""
    v = _as_int_vector(v)
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in v)


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


def nullspace(rows):
    """sympy's kernel basis of a rational matrix, one vector per free column, as Fractions."""
    return [[Fraction(int(x.p), int(x.q)) for x in v] for v in sympy.Matrix(rows).nullspace()]


# The largest elimination level _fm_feasible builds: above every level a test
# input was seen to reach (13283, from test_cones' rank 2-5 property), far
# below the millions a rank-5 system of 7 normals can ask for.  Under it a
# call on such systems took at most 0.8 s, in a process of 78 MB.
FM_LEVEL_BOUND = 100_000


def _fm_feasible(constraints, nvars):
    """Witness for the system <c, y> >= r, or None if infeasible.

    Small-scale Fourier-Motzkin over Fraction, at any rank: the reference
    for `cones._gordan_witness`.  Its cost depends on the lattice basis and
    can grow doubly exponentially with the rank, so it stays out of `src`;
    a level above FM_LEVEL_BOUND constraints fails at once, before it is
    built, rather than hang the suite.
    """
    levels = [[(tuple(map(Fraction, c)), Fraction(r)) for c, r in constraints]]
    for k in range(nvars - 1, -1, -1):
        nxt = []
        lows, ups = [], []
        for c, r in levels[-1]:
            if c[k] > 0:
                lows.append((c, r))
            elif c[k] < 0:
                ups.append((c, r))
            else:
                nxt.append((c[:k], r))
        size = len(nxt) + len(lows) * len(ups)
        assert size <= FM_LEVEL_BOUND, (
            f"Fourier-Motzkin level of {size} constraints exceeds FM_LEVEL_BOUND"
        )
        for (a, ra), (b, rb) in itertools.product(lows, ups):
            p, n = a[k], b[k]
            coeffs = tuple(p * b[j] - n * a[j] for j in range(k))
            nxt.append((coeffs, p * rb - n * ra))
        levels.append(nxt)
    if any(r > 0 for _, r in levels[-1]):
        return None
    witness = []
    for k in range(nvars):
        level = levels[nvars - 1 - k]  # constraints still involving y_k
        lo, hi = None, None
        for c, r in level:
            rest = r - sum(ci * wi for ci, wi in zip(c, witness))
            if c[k] > 0:
                bound = rest / c[k]
                lo = bound if lo is None else max(lo, bound)
            elif c[k] < 0:
                bound = rest / c[k]
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            witness.append(Fraction(0))
        elif hi is None:
            witness.append(lo + 1)
        elif lo is None:
            witness.append(hi - 1)
        else:
            witness.append((lo + hi) / 2)
    return witness


def validation_oracle(normals):
    """The verdict of the earlier validation path, as an exception class or None.

    Primitivity, distinctness, then Fourier-Motzkin on every diagram for the
    interior, then sympy's rank of the normals: no shared elimination.
    """
    vecs = [tuple(v) for v in normals]
    if any(gcd(*v) != 1 for v in vecs):
        return NonPrimitiveNormal
    if len(set(vecs)) < len(vecs):
        return RedundantNormal
    if _fm_feasible([(v, 1) for v in vecs], len(vecs[0])) is None:
        return EmptyInterior
    if sympy.Matrix(vecs).rank() < len(vecs[0]):
        return DegenerateCone
    return None


def sympy_solve(a, b):
    """One solution of a @ x = b by sympy's Gauss-Jordan, free parameters 0, or None."""
    try:
        sol, params = sympy.Matrix(a).gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:  # inconsistent system
        return None
    return [Fraction(int(x.p), int(x.q)) for x in sol.subs(dict.fromkeys(params, 0))]


def gamma_oracle(normals):
    """The height covector by one d x rank solve of <gamma, lambda_i> = -1, or None."""
    gamma = sympy_solve([list(v) for v in normals], [-1] * len(normals))
    return None if gamma is None else tuple(gamma)


def kernel_lattice_oracle(diagram: ToricDiagram, height: int):
    """Kernel basis and height integrality flag by one elimination per question.

    The kernel from sympy's `nullspace`, and one sympy solve per standard
    generator for its preimage (free variables 0); the flag asks that
    `height` times every coordinate sum be an integer.
    """
    matrix = [list(col) for col in zip(*diagram.normals)]
    basis = tuple(tuple(b) for b in nullspace(matrix))
    generators = IntMatrix.identity(diagram.rank).entries
    flag = all(sum(b) == 0 for b in basis) and all(
        (height * sum(sympy_solve(matrix, e))).denominator == 1 for e in generators
    )
    return basis, flag


def completion_oracle(v) -> IntMatrix:
    """The Smith-transform completion of a primitive v: U of the column's full
    SNF (verified), row 0 negated where U v = e_1, row 1 where det is -1."""
    snf = smith_normal_form(IntMatrix.from_rows([[x] for x in v]))
    a = [list(r) for r in snf.U.entries]
    if snf.U.mul_vector(v)[0] == 1:
        a[0] = [-x for x in a[0]]
    if IntMatrix.from_rows(a).det() == -1:
        a[1] = [-x for x in a[1]]
    return IntMatrix.from_rows(a)


def normalized_normals_oracle(A: IntMatrix, normals):
    """A^-T applied to each normal, by the elimination inverse of A."""
    at_inv = A.inverse_unimodular().transpose()
    return tuple(at_inv.mul_vector(v) for v in normals)


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
    edges = zip(facet_cycle, facet_cycle[1:] + facet_cycle[:1])
    return ConeSkeleton(
        rays=tuple(ray_cycle),
        active=tuple(frozenset(rays[r]) for r in ray_cycle),
        facet_cycle=tuple(facet_cycle),
        grazing=grazing,
        empty=empty,
        gcds=tuple(gcd(*_cross(normals[i], normals[j])) for i, j in edges),
    )


def volume_gradient(diagram: ToricDiagram, xi: np.ndarray):
    """(V, grad V) of the fan volume at a float point inside the Reeb cone."""
    rays = extreme_rays(diagram)
    val = 0.0
    grad = np.zeros(len(xi))
    for j in range(1, len(rays) - 1):
        r = np.array([rays[0], rays[j], rays[j + 1]], dtype=float)
        det = _dot(rays[0], _cross(rays[j], rays[j + 1]))
        s = r @ xi
        assert np.all(s > 0), "point left the open Reeb cone"
        term = det / (s[0] * s[1] * s[2])
        u = (r / s[:, None]).sum(axis=0)  # sum of r_v / s_v
        val += term
        grad -= term * u
    return val / 6.0, grad / 6.0


def reduced_basis_oracle(a, b, c):
    """`sasakit.reeb._reduced_basis` as it was written with Fraction rounding,
    kept verbatim as an oracle.

    Lagrange-Gauss: a det +1 basis (u, v) of Z^2 reduced for a x^2 + 2b xy + c y^2."""

    def bil(w, z):
        return a * w[0] * z[0] + b * (w[0] * z[1] + w[1] * z[0]) + c * w[1] * z[1]

    u, v = sorted([(1, 0), (0, 1)], key=lambda w: bil(w, w))
    while True:
        m = round(Fraction(bil(u, v), bil(u, u)))
        v = (v[0] - m * u[0], v[1] - m * u[1])
        if bil(v, v) >= bil(u, u):
            break
        u, v = v, u
    # det -1 would reverse the facet cycle and turn every ray outward
    return (u, v) if u[0] * v[1] > u[1] * v[0] else (u, (-v[0], -v[1]))


def reduced_frame_oracle(diagram: ToricDiagram):
    """`sasakit.reeb._reduced_frame` as it was written with Fraction rounding,
    an `IntMatrix` product for N^-1 and a dot and cross product per cycle
    determinant, as an oracle that is not kept on the diagram.

    The slice problem in an exact lattice basis where the height polygon is small.

    normalize_height's A makes every normal (l, p, q), so the slice is
    b_1 = 3l.  M = [[1,0,0],[a,p,q],[b,r,s]] keeps that: its block is the
    Lagrange-Gauss basis of the facet cycle's integer (p, q) second-moment
    form, and (a, b) recentres the points by integer multiples of l.  The
    normals map by N = M A^-T, the rays by N^-T: cross products of the
    mapped cycle normals.  Returns the rays as floats (3l r_1, r_2, r_3),
    the cycle determinants det(l_k-1, l_k, l_k+1) of the mapped normals,
    the canonical start (3/d) sum of the normals as (3l, x, y), N^-1 (maps
    xi back, keeping every pairing) and N^T (maps covectors back).  Built
    once per diagram, from its own height data.
    """
    cy = compute_gamma(diagram)
    ell = cy.height
    A, normalized = normalize_height(diagram, cy)
    cycle = cone_skeleton(diagram).facet_cycle
    pts = [normalized.normals[i][1:] for i in cycle]
    n, sp, sq = len(pts), sum(p for p, _ in pts), sum(q for _, q in pts)
    (p, q), (r, s) = reduced_basis_oracle(
        n * sum(p * p for p, _ in pts) - sp * sp,
        n * sum(p * q for p, q in pts) - sp * sq,
        n * sum(q * q for _, q in pts) - sq * sq,
    )
    a, b = -round(Fraction(p * sp + q * sq, n * ell)), -round(Fraction(r * sp + s * sq, n * ell))
    m_inv = [[1, 0, 0], [q * b - s * a, s, -q], [r * a - p * b, -r, p]]
    back = A.transpose() @ IntMatrix.from_rows(m_inv)
    b0, b1, b2 = back.entries
    cov = (_cross(b1, b2), _cross(b2, b0), _cross(b0, b1))  # cof(N^-1) = N^T
    normals = [
        (ell, a * ell + p * u + q * w, b * ell + r * u + s * w) for _, u, w in normalized.normals
    ]
    rays = [_cross(normals[i], normals[j]) for i, j in zip(cycle, cycle[1:] + cycle[:1])]
    ring = [normals[i] for i in cycle]
    h = len(ring)
    dets = [float(_dot(ring[k - 1], _cross(ring[k], ring[(k + 1) % h]))) for k in range(h)]
    start = tuple(3 * sum(col) / diagram.d for col in zip(*normals))
    floats = [(float(3 * ell * r1), float(r2), float(r3)) for r1, r2, r3 in rays]
    return floats, dets, start, back, cov


def fan_oracle(rays, dets, x, y):
    """`sasakit.reeb._fan` as it was written with one six-name carry per term,
    verbatim: every float operation in the order whose bytes the goldens pin.

    (V, grad log V, Hess log V as (xx, xy, yy)) at (x, y), one float pass
    of the cyclic sum S (V = S / 18 on the slice); None outside.  Ray k-1's
    p/s, q/s and their squares carry forward to term k.
    """
    c, p, q = rays[-1]
    s0 = c + p * x + q * y
    if s0 <= 0:
        return None
    a0, b0 = p / s0, q / s0
    aa0, ab0, bb0 = a0 * a0, a0 * b0, b0 * b0
    v = gx = gy = hxx = hxy = hyy = 0.0
    for det, (c, p, q) in zip(dets, rays):
        s = c + p * x + q * y
        if s <= 0:
            return None
        a, b = p / s, q / s
        aa, ab, bb = a * a, a * b, b * b
        t = det / (s0 * s)
        sx, sy = a0 + a, b0 + b
        v += t
        gx -= t * sx
        gy -= t * sy
        hxx += t * (sx * sx + aa0 + aa)
        hxy += t * (sx * sy + ab0 + ab)
        hyy += t * (sy * sy + bb0 + bb)
        s0, a0, b0, aa0, ab0, bb0 = s, a, b, aa, ab, bb
    gx, gy = gx / v, gy / v
    return v / 18, (gx, gy), (hxx / v - gx * gx, hxy / v - gx * gy, hyy / v - gy * gy)


def _sum_in_order(terms):
    """sum(terms) as sum() adds up to Python 3.11: left to right from the int 0.
    From 3.12 on, sum() adds floats with compensation."""
    acc = 0
    for term in terms:
        acc += term
    return acc


def minimize_volume_oracle(diagram, cy, start_offset=None) -> MinimizationResult:
    """`sasakit.minimize_volume` as it was written with a `_dot` or `sum()` for
    each sum of its tail, on `fan_oracle`; each such sum is `_sum_in_order`,
    so the result is the bytes of Python 3.11 on any interpreter.  It reads
    the frame that `_reduced_frame` keeps on the diagram.
    """
    _check_own(diagram, cy)
    rays, dets, (b1, x, y), back, cov = _reduced_frame(diagram)
    if start_offset is None:
        current = fan_oracle(rays, dets, x, y)
    else:
        dx, dy = (float(t) for t in start_offset)
        while (current := fan_oracle(rays, dets, x + dx, y + dy)) is None:
            dx, dy = dx / 2, dy / 2
        x, y = x + dx, y + dy
    iterations, converged = 0, False
    while True:
        val, (gx, gy), (hxx, hxy, hyy) = current
        det = hxx * hyy - hxy * hxy
        if hxx <= 0 or det <= 0:
            break
        dx, dy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        decrement = math.sqrt(max(-(gx * dx + gy * dy), 0.0))
        converged = decrement <= TOLERANCE
        if converged or iterations == MAX_ITERATIONS:
            break
        t = 1.0
        while t > 1e-20:
            trial = fan_oracle(rays, dets, x + t * dx, y + t * dy)
            if trial is not None and (
                decrement <= 1e-3
                or math.log(trial[0]) <= math.log(val) - 1e-4 * t * decrement**2
            ):
                break
            t /= 2
        else:
            break
        x, y, current = x + t * dx, y + t * dy, trial
        iterations += 1

    def dot(a, b):
        return _sum_in_order(u * v for u, v in zip(a, b))

    val, (gx, gy), _ = current
    xi = tuple(dot(row, (b1, x, y)) for row in back.entries)
    # grad V in the frame: (x, y) parts from grad log V, b_1 from <grad V, xi> = -3 V
    grad_v = ((-3 - x * gx - y * gy) * val / b1, val * gx, val * gy)
    g = [dot(row, grad_v) for row in cov]
    gamma = [float(c) for c in cy.gamma]
    along = dot(g, gamma) / dot(gamma, gamma)
    return MinimizationResult(
        xi=ReebVector(xi),
        volume=val,
        grad_norm=math.sqrt(_sum_in_order((a - along * c) ** 2 for a, c in zip(g, gamma))),
        iterations=iterations,
        converged=converged,
    )


def minimize_volume_bb(diagram, cy, start_offset=None, tol=1e-11, max_iter=20000):
    """Barzilai-Borwein descent on log V over the slice <gamma, xi> = -rank.

    Reference for `sasakit.minimize_volume`, sharing none of its frame or
    solver: an orthonormal QR frame of gamma-perp in the input basis,
    Barzilai-Borwein step lengths with an Armijo backtracking safeguard, and
    the absolute stop |frame^T grad V| <= tol.  `start_offset` moves the
    start, the canonical vector scaled onto the slice, in frame coordinates.
    """
    m1 = diagram.rank
    xi_can = canonical_reeb(diagram)
    x0 = np.array([float(Fraction(x) * m1 / -cy.pairing(xi_can)) for x in xi_can])
    kernel = nullspace([list(cy.gamma)])
    frame, _ = np.linalg.qr(np.array([[float(x) for x in b] for b in kernel]).T)

    def inside(t):
        return reeb_cone_contains(diagram, x0 + frame @ t)

    def logv(t):
        val, grad = volume_gradient(diagram, x0 + frame @ t)
        return np.log(val), frame.T @ grad / val, frame.T @ grad

    def descend(t):
        prev_t = prev_gf = None
        alpha = 1.0
        for it in range(max_iter):
            f, gf, tangential = logv(t)
            if np.linalg.norm(tangential) <= tol:
                return t, it, True
            if prev_t is not None:
                s, ydiff = t - prev_t, gf - prev_gf
                denom = float(s @ ydiff)
                alpha = float(s @ s) / denom if denom > 1e-300 else 1.0
                alpha = min(max(alpha, 1e-12), 1e8)
            while True:
                cand = t - alpha * gf
                if inside(cand) and logv(cand)[0] <= f - 1e-4 * alpha * (gf @ gf):
                    break
                alpha *= 0.5
                if alpha < 1e-18:
                    return t, it + 1, False
            prev_t, prev_gf, t = t, gf, cand
        return t, max_iter, False

    t = np.zeros(frame.shape[1])
    if start_offset is not None:
        t = t + np.asarray(start_offset, dtype=float)
        while not inside(t):
            t *= 0.5
    t, iterations, converged = descend(t)
    xi = x0 + frame @ t
    val, grad = volume_gradient(diagram, xi)
    return MinimizationResult(
        xi=ReebVector(tuple(float(x) for x in xi)),
        volume=float(val),
        grad_norm=float(np.linalg.norm(frame.T @ grad)),
        iterations=iterations,
        converged=converged,
    )


class LoopPotential:
    """Reference for `sasakit.SymplecticPotential`: the per-term loops.

    `entropy` is a tuple of (weight, form) pairs and `extras` of (weight,
    extra term) pairs; value, gradient and Hessian add one term at a time.
    `sizes` returns the same three quantities with every term replaced by
    its absolute value, the scale of their rounding.
    """

    def __init__(self, entropy, extras=()):
        self.entropy = tuple((float(c), tuple(float(x) for x in vec)) for c, vec in entropy)
        self.extras = tuple(extras)

    def _forms(self, y):
        return np.array([np.dot(vec, y) for _, vec in self.entropy])

    def _terms(self, y):
        y = np.asarray(y, dtype=float)
        assert np.all(self._forms(y) > 0), "point is outside the domain"
        for c, vec in self.entropy:
            v = np.asarray(vec, dtype=float)
            lev = np.dot(v, y)
            yield c * lev * np.log(lev), c * (np.log(lev) + 1.0) * v, c * np.outer(v, v) / lev
        for c, g in self.extras:
            yield c * g.value(y), c * g.grad(y), c * g.hess(y)

    def value(self, y):
        return float(sum(t[0] for t in self._terms(y)))

    def grad(self, y):
        return sum(t[1] for t in self._terms(y))

    def hess(self, y):
        return sum(t[2] for t in self._terms(y))

    def sizes(self, y):
        terms = list(self._terms(y))
        return tuple(sum(np.abs(t[k]) for t in terms) for k in range(3))


def loop_canonical(diagram, xi=None):
    """The canonical potential, or with `xi` the pairing-adapted one."""
    entropy = [(0.5, lam) for lam in diagram.normals]
    if xi is not None:
        entropy += [(0.5, xi), (-0.5, canonical_reeb(diagram))]
    return LoopPotential(entropy)


def loop_segment(g0: LoopPotential, g1: LoopPotential, t: float) -> LoopPotential:
    """(1 - t) g0 + t g1, term by term."""
    return LoopPotential(
        [((1 - t) * c, v) for c, v in g0.entropy] + [(t * c, v) for c, v in g1.entropy],
        [((1 - t) * c, g) for c, g in g0.extras] + [(t * c, g) for c, g in g1.extras],
    )


class OnesBump:
    """Reference for `RationalBump(i, j)`: y_i y_j / (y_1 + ... + y_n), as
    written before the bump took a covector."""

    def __init__(self, i: int = 0, j: int = 1):
        self.i, self.j = i, j

    def value(self, y):
        return y[self.i] * y[self.j] / y.sum()

    def grad(self, y):
        s = y.sum()
        g = np.full_like(y, -y[self.i] * y[self.j] / s**2)
        g[self.i] += y[self.j] / s
        g[self.j] += y[self.i] / s
        return g

    def hess(self, y):
        n = len(y)
        s = y.sum()
        e_i = np.eye(n)[self.i]
        e_j = np.eye(n)[self.j]
        ones = np.ones(n)
        return (
            (np.outer(e_i, e_j) + np.outer(e_j, e_i)) / s
            - (y[self.j] * (np.outer(e_i, ones) + np.outer(ones, e_i))) / s**2
            - (y[self.i] * (np.outer(e_j, ones) + np.outer(ones, e_j))) / s**2
            + 2 * y[self.i] * y[self.j] * np.outer(ones, ones) / s**3
        )


def check_canonical_grid(normals, rows, digits=12):
    """Check a `--potential-grid` CSV body against the canonical closed forms.

    Each row is y1..y3, G, x1..x3, F and the round-trip residual, as printed.
    From the printed y alone, in plain Python floats with l = <lambda, y>:
    G = 1/2 sum l log l, x = 1/2 sum (log l + 1) lambda and F = 1/2 sum l.
    Each column's tolerance is the `digits`-digit rounding of the printed
    value, that of y carried through its closed form, and 1e-12 of the
    summed term sizes for the program's own rounding.
    """
    printed = 0.5 * 10.0 ** (1 - digits)
    for row in rows:
        vals = [float(v) for v in row]
        y, (G, *x, F) = vals[:3], vals[3:8]
        forms = [sum(a * b for a, b in zip(lam, y)) for lam in normals]
        assert min(forms) > 0, f"grid point {y} outside the cone"
        dls = [printed * sum(abs(a * b) for a, b in zip(lam, y)) for lam in normals]
        logs = [math.log(l) for l in forms]
        want_G = 0.5 * sum(l * g for l, g in zip(forms, logs))
        tol_G = printed * abs(want_G) + 1e-12 * 0.5 * sum(abs(l * g) for l, g in zip(forms, logs))
        tol_G += 0.5 * sum(abs(g + 1) * dl for g, dl in zip(logs, dls))
        assert abs(G - want_G) <= tol_G, ("G", y, G, want_G)
        for t in range(3):
            terms = [(g + 1) * lam[t] for g, lam in zip(logs, normals)]
            tol = printed * abs(0.5 * sum(terms)) + 1e-12 * 0.5 * sum(map(abs, terms))
            tol += 0.5 * sum(abs(lam[t]) * dl / l for lam, dl, l in zip(normals, dls, forms))
            assert abs(x[t] - 0.5 * sum(terms)) <= tol, (f"x{t + 1}", y, x[t], 0.5 * sum(terms))
        want_F = 0.5 * sum(forms)
        assert abs(F - want_F) <= (printed + 1e-12) * want_F + 0.5 * sum(dls), ("F", y, F, want_F)


def invert_gradient_oracle(
    pot: SymplecticPotential,
    x,
    y0=None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """`sasakit.potentials.invert_gradient` as it was written before a trial
    point's levels served its gradient: public grad, hess and domain_contains
    calls, and index gathers and scatters at every step.  Kept verbatim as an
    oracle.

    Solve grad G(y) = x by damped Newton, staying inside the domain.

    x is one target (n,) or a stack (m, n), y0 one start or one per row.  The
    rows step together, one batched solve per step, but each row stops on
    its own |grad G(y) - x| <= tol (1 + |x|) and takes the first step length
    of 1, 1/2, 1/4, ... that stays in the domain and lowers its residual.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_2d(x)
    if y0 is None:
        y0 = [float(v) for v in interior_point(pot.diagram)]
    ys = np.array(np.broadcast_to(np.asarray(y0, dtype=float), xs.shape))
    scale = 1.0 + np.linalg.norm(xs, axis=1)
    resid = pot.grad(ys) - xs
    norms = np.linalg.norm(resid, axis=1)
    for _ in range(max_iter):
        rows = np.flatnonzero(norms > tol * scale)
        if not rows.size:
            break
        step = np.linalg.solve(pot.hess(ys[rows]), -resid[rows, :, None])[..., 0]
        alpha = 1.0
        while rows.size:  # rows still searching, and their steps
            if alpha <= 1e-16:
                raise StencilOutsideDomain("gradient inversion stalled at the boundary")
            cand = ys[rows] + alpha * step
            accept = pot.domain_contains(cand)
            if accept.any():
                inside, cand = rows[accept], cand[accept]
                cand_resid = pot.grad(cand) - xs[inside]
                cand_norms = np.linalg.norm(cand_resid, axis=1)
                better = cand_norms < norms[inside]
                done = inside[better]
                ys[done], resid[done] = cand[better], cand_resid[better]
                norms[done] = cand_norms[better]
                accept[accept] = better
                rows, step = rows[~accept], step[~accept]
            alpha *= 0.5
    bad = norms > max(tol, 1e-8) * scale
    if bad.any():
        raise StencilOutsideDomain(
            f"gradient inversion did not converge (residual {norms[bad].max():.3e})"
        )
    return ys if x.ndim > 1 else ys[0]
