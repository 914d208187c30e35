"""Volume of the truncated cone as a function of the pairing vector.

Slicing the cone at <y, xi> <= 1 gives a simplex-fan polytope whose vertices
are the extreme rays scaled by 1/<ray, xi>.  Its Euclidean volume is a
rational function of xi, smooth and log-convex on the open Reeb cone, which
is what makes damped Newton on the normalization slice reliable.  The
reported quantity is the raw polytope volume; any proportionality constant
tying it to a metric volume is a convention left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cones import ToricDiagram, _cross, _dot, canonical_reeb, extreme_rays, reeb_cone_contains
from .cy import CalabiYauData
from .errors import InfeasibleSlice, UnboundedRegion
from .lattice import rational_kernel_basis


@dataclass(frozen=True)
class ReebVector:
    """A pairing vector in the open Reeb cone."""

    xi: tuple[float, ...]

    def __iter__(self):
        return iter(self.xi)


@dataclass(frozen=True)
class TruncatedPolytope:
    """Vertices of {y in C : <y, xi> <= 1}; the apex comes first."""

    vertices: tuple[tuple, ...]

    @property
    def cap_vertices(self) -> tuple[tuple, ...]:
        return self.vertices[1:]


def _quotient(a: int, b):
    """a / b, kept exact when b is an int or a Fraction."""
    return Fraction(a) / b if isinstance(b, (int, Fraction)) else a / b


def _ray_scales(diagram: ToricDiagram, xi):
    """Extreme rays and their pairings with xi, all of which must be positive."""
    rays = extreme_rays(diagram)
    scales = [sum(r * x for r, x in zip(ray, xi)) for ray in rays]
    if any(s <= 0 for s in scales):
        raise UnboundedRegion(
            "pairing vector is not interior to the Reeb cone; region unbounded"
        )
    return rays, scales


def truncated_polytope(diagram: ToricDiagram, xi) -> TruncatedPolytope:
    """Vertex enumeration of the truncated cone.

    Raises UnboundedRegion when xi fails to pair positively with some
    extreme ray, in which case the slice does not bound the cone.
    """
    rays, scales = _ray_scales(diagram, xi)
    origin = tuple(0 * x for x in xi)
    verts = [origin]
    for ray, s in zip(rays, scales):
        verts.append(tuple(_quotient(r, s) for r in ray))
    return TruncatedPolytope(vertices=tuple(verts))


@lru_cache(maxsize=256)
def _fan_triangles(diagram: ToricDiagram):
    """det(rays[0], rays[j], rays[j+1]) for the triangles fanning the cap polygon.

    Entry j-1 belongs to the triangle of rays 0, j and j+1, for j = 1 .. h-2.
    """
    rays = extreme_rays(diagram)
    dets = tuple(_dot(rays[0], _cross(rays[j], rays[j + 1])) for j in range(1, len(rays) - 1))
    assert dets and all(det > 0 for det in dets)  # the skeleton's rays run counterclockwise
    return dets


def volume(diagram: ToricDiagram, xi):
    """Euclidean volume of the truncated cone, exact for rational input.

    Homogeneous of degree -rank in xi.
    """
    _, scales = _ray_scales(diagram, xi)
    total = 0
    for j, det in enumerate(_fan_triangles(diagram), 1):
        total += _quotient(det, scales[0] * scales[j] * scales[j + 1])
    return total / 6


def _volume_derivatives(diagram: ToricDiagram, xi: np.ndarray):
    """(V, grad V, Hess V) at a float point strictly inside the Reeb cone."""
    rays = extreme_rays(diagram)
    n = len(xi)
    val = 0.0
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    for j, det in enumerate(_fan_triangles(diagram), 1):
        r = np.array([rays[0], rays[j], rays[j + 1]], dtype=float)
        s = r @ xi
        if np.any(s <= 0):
            raise UnboundedRegion("point left the open Reeb cone")
        term = det / (s[0] * s[1] * s[2])
        u = (r / s[:, None]).sum(axis=0)  # sum of r_v / s_v
        val += term
        grad -= term * u
        hess += term * (np.outer(u, u) + (r / s[:, None] ** 2).T @ r)
    return val / 6.0, grad / 6.0, hess / 6.0


@dataclass(frozen=True)
class MinimizationResult:
    xi: ReebVector
    volume: float
    grad_norm: float
    iterations: int
    converged: bool
    optimizer: str


def _slice_frame(diagram: ToricDiagram, cy: CalabiYauData):
    """Feasible slice point and an orthonormal tangent basis of the slice."""
    m1 = diagram.rank
    xi_can = canonical_reeb(diagram)
    pairing = cy.pairing(xi_can)
    if pairing >= 0:
        raise InfeasibleSlice(
            "the covector does not pair negatively with the canonical vector; "
            "the normalization slice misses the open Reeb cone"
        )
    base = tuple(Fraction(x) * m1 / (-pairing) for x in xi_can)
    kernel = rational_kernel_basis([list(map(Fraction, cy.gamma))])
    z = np.array([[float(x) for x in b] for b in kernel]).T  # columns span gamma-perp
    q, _ = np.linalg.qr(z)
    x0 = np.array([float(x) for x in base])
    if not reeb_cone_contains(diagram, x0):
        raise InfeasibleSlice("canonical start is not interior; slice misses the cone")
    return x0, q


def minimize_volume(
    diagram: ToricDiagram,
    cy: CalabiYauData,
    optimizer: str = "newton",
    start_offset=None,
    tol: float = 1e-11,
) -> MinimizationResult:
    """Minimize the truncated-cone volume over the normalization slice.

    The slice is {<gamma, xi> = -rank} inside the open Reeb cone.  The
    objective log V is convex there with a barrier at the cone boundary, so
    the minimizer is unique; `optimizer` selects damped Newton ("newton") or
    Armijo projected gradient descent ("gradient"), which serve as
    independent cross-checks of each other.  `start_offset` perturbs the
    starting point in slice coordinates.  Minimizer components are
    typically irrational (irregular Reeb vectors); they are reported as
    plain floats.
    """
    x0, frame = _slice_frame(diagram, cy)
    t = np.zeros(frame.shape[1])
    if start_offset is not None:
        t = t + np.asarray(start_offset, dtype=float)
        while not reeb_cone_contains(diagram, x0 + frame @ t):
            t *= 0.5
    if optimizer == "newton":
        t, iters, converged = _newton_on_slice(diagram, x0, frame, t, tol)
    elif optimizer == "gradient":
        t, iters, converged = _gradient_on_slice(diagram, x0, frame, t, tol)
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    xi = x0 + frame @ t
    val, grad, _ = _volume_derivatives(diagram, xi)
    grad_norm = float(np.linalg.norm(frame.T @ grad))
    return MinimizationResult(
        xi=ReebVector(tuple(float(x) for x in xi)),
        volume=float(val),
        grad_norm=grad_norm,
        iterations=iters,
        converged=converged,
        optimizer=optimizer,
    )


def _logv_and_derivs(diagram, x0, frame, t):
    xi = x0 + frame @ t
    val, grad, hess = _volume_derivatives(diagram, xi)
    f = np.log(val)
    gf = frame.T @ grad / val
    hf = frame.T @ (hess / val - np.outer(grad, grad) / val**2) @ frame
    return f, gf, hf, val, grad


def _newton_on_slice(diagram, x0, frame, t, tol, max_iter=200):
    for it in range(max_iter):
        f, gf, hf, val, grad = _logv_and_derivs(diagram, x0, frame, t)
        if np.linalg.norm(frame.T @ grad) <= tol:
            return t, it, True
        try:
            step = np.linalg.solve(hf, -gf)
        except np.linalg.LinAlgError:
            step = -gf
        if gf @ step > 0:  # not a descent direction, fall back
            step = -gf
        alpha = 1.0
        for _ in range(80):
            cand = t + alpha * step
            if reeb_cone_contains(diagram, x0 + frame @ cand):
                fc = np.log(_volume_derivatives(diagram, x0 + frame @ cand)[0])
                if fc <= f + 1e-4 * alpha * (gf @ step):
                    t = cand
                    break
            alpha *= 0.5
        else:
            return t, it + 1, False
    _, _, _, _, grad = _logv_and_derivs(diagram, x0, frame, t)
    return t, max_iter, bool(np.linalg.norm(frame.T @ grad) <= tol)


def _gradient_on_slice(diagram, x0, frame, t, tol, max_iter=20000):
    # Barzilai-Borwein step lengths with an Armijo backtracking safeguard
    prev_t = None
    prev_gf = None
    alpha = 1.0
    for it in range(max_iter):
        f, gf, _, val, grad = _logv_and_derivs(diagram, x0, frame, t)
        if np.linalg.norm(frame.T @ grad) <= tol:
            return t, it, True
        if prev_t is not None:
            s = t - prev_t
            ydiff = gf - prev_gf
            denom = float(s @ ydiff)
            alpha = float(s @ s) / denom if denom > 1e-300 else 1.0
            alpha = min(max(alpha, 1e-12), 1e8)
        while True:
            cand = t - alpha * gf
            if reeb_cone_contains(diagram, x0 + frame @ cand):
                fc = np.log(_volume_derivatives(diagram, x0 + frame @ cand)[0])
                if fc <= f - 1e-4 * alpha * (gf @ gf):
                    break
            alpha *= 0.5
            if alpha < 1e-18:
                return t, it + 1, False
        prev_t, prev_gf = t, gf
        t = cand
    _, _, _, _, grad = _logv_and_derivs(diagram, x0, frame, t)
    return t, max_iter, bool(np.linalg.norm(frame.T @ grad) <= tol)
