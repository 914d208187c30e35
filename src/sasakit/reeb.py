"""Volume of the truncated cone and its minimization over the Reeb slice.

Slicing the cone at <y, xi> <= 1 gives a polytope whose vertices are the
apex and the extreme rays scaled by 1/<ray, xi>.  Its Euclidean volume V is
rational in xi, homogeneous of degree -rank and log-convex on the open Reeb
cone.  `volume` sums it exactly over simplices around one ray.  The float
pass of `minimize_volume` uses the cyclic form of Martelli-Sparks-Yau, one
term per facet normal over that normal's two rays:
V = sum_k c_k / (<xi, r_k-1> <xi, r_k>) / (-6 <gamma, xi>), where
c_k = det(l_k-1, l_k, l_k+1) and r_k = l_k x l_k+1 around the facet cycle.
It runs damped Newton on log V in an exact reduced lattice basis, so every
input basis gets the same answer; `converged` means a Newton decrement at
most `TOLERANCE`.  The frame is O(d) exact integer work done once per
diagram and kept on it; a start then costs O(h) floats per pass.  V is the
raw polytope volume; any constant tying it to a metric volume is a
convention left to the caller.  The printed bytes are fixed by the order of
the float operations in `_fan` and in `minimize_volume`'s tail.  The tail
adds left to right from the int 0 and calls no float `sum()`, which adds
with compensation from Python 3.12 on.
"""

from __future__ import annotations

from fractions import Fraction
from math import log, sqrt

from .cones import ToricDiagram, _cross, _dot, _kept_on_diagram, cone_skeleton, extreme_rays
from .cy import CalabiYauData, _check_own, _normalized, compute_gamma
from .errors import UnboundedRegion
from .lattice import IntMatrix, Record

MAX_ITERATIONS = 100
TOLERANCE = 1e-13  # the Newton decrement at which minimize_volume stops, converged


class ReebVector(Record):
    """A pairing vector in the open Reeb cone."""

    xi: tuple[float, ...]


class TruncatedPolytope(Record):
    """Vertices of {y in C : <y, xi> <= 1}; the apex comes first."""

    vertices: tuple[tuple, ...]

    @property
    def cap_vertices(self) -> tuple[tuple, ...]:
        return self.vertices[1:]


def _ray_scales(diagram: ToricDiagram, xi):
    """Extreme rays and their pairings with xi, all of which must be positive.

    An int pairing comes back as a Fraction, so an int divided by it stays
    exact; a float one stays a float.
    """
    rays = extreme_rays(diagram)
    scales = [sum(r * x for r, x in zip(ray, xi)) for ray in rays]
    if any(s <= 0 for s in scales):
        raise UnboundedRegion(
            "pairing vector is not interior to the Reeb cone; region unbounded"
        )
    return rays, [Fraction(s) if isinstance(s, int) else s for s in scales]


def truncated_polytope(diagram: ToricDiagram, xi) -> TruncatedPolytope:
    """Vertex enumeration of the truncated cone.

    Raises UnboundedRegion when xi fails to pair positively with some
    extreme ray, in which case the slice does not bound the cone.
    """
    rays, scales = _ray_scales(diagram, xi)
    verts = [tuple(r / s for r in ray) for ray, s in zip(rays, scales)]
    return TruncatedPolytope(vertices=(tuple(0 * x for x in xi), *verts))


def volume(diagram: ToricDiagram, xi):
    """Euclidean volume of the truncated cone, exact for rational input.

    Homogeneous of degree -rank in xi.
    """
    rays, scales = _ray_scales(diagram, xi)
    total = 0
    for j in range(1, len(rays) - 1):
        det = _dot(rays[0], _cross(rays[j], rays[j + 1]))
        total += det / (scales[0] * scales[j] * scales[j + 1])
    return total / 6


class MinimizationResult(Record):
    xi: ReebVector
    volume: float
    grad_norm: float
    iterations: int
    converged: bool


def _round_div(a: int, b: int) -> int:
    """round(Fraction(a, b)) for b > 0, in ints: the nearest integer, ties to even."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q % 2 == 1))


def _reduced_basis(a, b, c):
    """Lagrange-Gauss: a det +1 basis (u, v) of Z^2 reduced for a x^2 + 2b xy + c y^2."""

    def bil(w, z):
        return a * w[0] * z[0] + b * (w[0] * z[1] + w[1] * z[0]) + c * w[1] * z[1]

    u, v = sorted([(1, 0), (0, 1)], key=lambda w: bil(w, w))
    while True:
        m = _round_div(bil(u, v), bil(u, u))  # bil(u, u) > 0: the form is definite
        v = (v[0] - m * u[0], v[1] - m * u[1])
        if bil(v, v) >= bil(u, u):
            break
        u, v = v, u
    # det -1 would reverse the facet cycle and turn every ray outward
    return (u, v) if u[0] * v[1] > u[1] * v[0] else (u, (-v[0], -v[1]))


@_kept_on_diagram
def _reduced_frame(diagram: ToricDiagram):
    """The slice problem in an exact lattice basis where the height polygon is small.

    normalize_height's A makes every normal (l, p, q), so the slice is
    b_1 = 3l.  M = [[1,0,0],[a,p,q],[b,r,s]] keeps that: its block is the
    Lagrange-Gauss basis of the facet cycle's integer (p, q) second-moment
    form, and (a, b) recentres the points by integer multiples of l.  The
    normals map by N = M A^-T, the rays by N^-T: cross products of the
    mapped cycle normals.  Returns the rays as floats (3l r_1, r_2, r_3),
    the cycle determinants c_k = det(l_k-1, l_k, l_k+1) = <l_k-1, r_k> of
    the mapped normals (det N = 1, so they are the input's own), the
    canonical start (3/d) sum of the mapped normals, N^-1 (maps xi back,
    keeping every pairing) and N^T (maps covectors back).  Built once per
    diagram, from its own height data, in plain ints: no Fraction
    (`_round_div` rounds), N^-1 = A^T M^-1 as one 3 x 3 product.  One loop
    over the cycle takes the five moment sums; the start maps the column
    sums of the normalized normals, not each normal; one more loop over the
    mapped cycle points (l, x_k, y_k) gives each ray r_k = (x_k y_k+1 -
    y_k x_k+1, l (y_k - y_k+1), l (x_k+1 - x_k)), its determinant and its
    floats.
    """
    ell = compute_gamma(diagram).height
    A, normalized = _normalized(diagram)
    cycle = cone_skeleton(diagram).facet_cycle
    pts = [normalized.normals[i][1:] for i in cycle]
    sp = sq = spp = spq = sqq = 0
    for u, w in pts:
        sp, sq, spp, spq, sqq = sp + u, sq + w, spp + u * u, spq + u * w, sqq + w * w
    n = len(pts)
    (p, q), (r, s) = _reduced_basis(n * spp - sp * sp, n * spq - sp * sq, n * sqq - sq * sq)
    a, b = -_round_div(p * sp + q * sq, n * ell), -_round_div(r * sp + s * sq, n * ell)
    # back = A^T M^-1, M^-1 = [[1, 0, 0], [e, s, -q], [f, -r, p]], one row per column of A
    e, f = q * b - s * a, r * a - p * b
    back = IntMatrix(3, 3, tuple(
        (x + e * y + f * z, s * y - r * z, p * z - q * y) for x, y, z in zip(*A.entries)
    ))
    b0, b1, b2 = back.entries
    cov = (_cross(b1, b2), _cross(b2, b0), _cross(b0, b1))  # cof(N^-1) = N^T
    d = diagram.d
    _, su, sw = map(sum, zip(*normalized.normals))
    # 3/d times the column sums: the first, 3 l d / d, is 3l exactly
    start = (float(3 * ell), 3 * (a * ell * d + p * su + q * sw) / d,
             3 * (b * ell * d + r * su + s * sw) / d)
    ring = [(a * ell + p * u + q * w, b * ell + r * u + s * w) for u, w in pts]
    floats, dets = [], []
    (xp, yp), (x, y) = ring[-1], ring[0]
    for xn, yn in ring[1:] + ring[:1]:
        r1, r2, r3 = x * yn - y * xn, ell * (y - yn), ell * (xn - x)
        dets.append(float(ell * r1 + xp * r2 + yp * r3))  # det(l_k-1, l_k, l_k+1), exact
        floats.append((float(3 * ell * r1), float(r2), float(r3)))
        xp, yp, x, y = x, y, xn, yn
    return floats, dets, start, back, cov


def _fan(rays, dets, x, y):
    """(V, grad log V, Hess log V as (xx, xy, yy)) at (x, y), one float pass
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
        s0, a0, b0 = s, a, b
        aa0, ab0, bb0 = aa, ab, bb
    gx, gy = gx / v, gy / v
    return v / 18, (gx, gy), (hxx / v - gx * gx, hxy / v - gx * gy, hyy / v - gy * gy)


def minimize_volume(
    diagram: ToricDiagram,
    cy: CalabiYauData,
    start_offset=None,
) -> MinimizationResult:
    """Minimize the truncated-cone volume over the normalization slice.

    The slice is {<gamma, xi> = -3} in the open Reeb cone of a rank-3
    diagram, gamma its height covector; log V is strictly convex there, so
    the minimizer is unique (Martelli-Sparks-Yau).  The work runs in the
    exact frame of `_reduced_frame`, where no input basis costs the float
    pairings digits, and xi is mapped back exactly.  `start_offset` moves
    the canonical start in that frame's slice coordinates (halved until it
    lies in the cone).  Damped Newton on log V: a step is halved until it
    stays in the cone and passes an Armijo test, except that at a Newton
    decrement sqrt(g^T H^-1 g) <= 1e-3 the full step is taken, as the
    decrease is then below the rounding of log V.  `converged` means the
    scale-free decrement reached `TOLERANCE`; `grad_norm` is grad V tangent
    to the slice, in the input basis.  Cost: O(d) exact integer work for the
    frame, once per diagram (every call and start reads the one kept on it),
    then O(h) floats per pass for h rays, one pass per step or backtrack.
    Raises InfeasibleSlice unless cy is the diagram's own height data.
    """
    _check_own(diagram, cy)
    rays, dets, (b1, x, y), back, cov = _reduced_frame(diagram)
    if start_offset is None:
        current = _fan(rays, dets, x, y)
    else:
        dx, dy = (float(t) for t in start_offset)
        while (current := _fan(rays, dets, x + dx, y + dy)) is None:
            dx, dy = dx / 2, dy / 2
        x, y = x + dx, y + dy
    iterations, converged = 0, False
    while True:
        val, (gx, gy), (hxx, hxy, hyy) = current
        det = hxx * hyy - hxy * hxy
        if hxx <= 0 or det <= 0:
            break
        dx, dy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        decrement = sqrt(max(-(gx * dx + gy * dy), 0.0))
        converged = decrement <= TOLERANCE
        if converged or iterations == MAX_ITERATIONS:
            break
        t = 1.0
        while t > 1e-20:
            trial = _fan(rays, dets, x + t * dx, y + t * dy)
            if trial is not None and (
                decrement <= 1e-3
                or log(trial[0]) <= log(val) - 1e-4 * t * decrement**2
            ):
                break
            t /= 2
        else:
            break
        x, y, current = x + t * dx, y + t * dy, trial
        iterations += 1

    val, (gx, gy), _ = current
    # every sum below adds left to right from the int 0, as sum() did up to 3.11
    xi = tuple(0 + r * b1 + s * x + t * y for r, s, t in back.entries)
    # grad V in the frame: (x, y) parts from grad log V, b_1 from <grad V, xi> = -3 V
    v0, v1, v2 = (-3 - x * gx - y * gy) * val / b1, val * gx, val * gy
    g0, g1, g2 = (0 + r * v0 + s * v1 + t * v2 for r, s, t in cov)
    c0, c1, c2 = map(float, cy.gamma)
    along = (0 + g0 * c0 + g1 * c1 + g2 * c2) / (0 + c0 * c0 + c1 * c1 + c2 * c2)
    norm2 = 0 + (g0 - along * c0) ** 2 + (g1 - along * c1) ** 2 + (g2 - along * c2) ** 2
    return MinimizationResult(
        xi=ReebVector(xi),
        volume=val,
        grad_norm=sqrt(norm2),
        iterations=iterations,
        converged=converged,
    )
