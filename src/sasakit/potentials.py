"""Torus-invariant symplectic potentials and their Legendre transforms.

Potentials live on the open cone interior and are sums of entropy terms
c * l(y) log l(y) for linear forms l, plus optional smooth extra terms.
The lattice side of the package is exact; this side is plain float work,
with finite-difference stencils scaled to stay inside the domain.

The dual picture is recovered numerically: the gradient map y -> x is
inverted with a damped Newton solve, which gives pointwise access to the
dual potential and to the time-dependent family along a segment of
potentials.  The residual functions quantify, at a point, how far a segment
is from solving the geodesic equation and whether a difference of
potentials preserves the pairing vector (degree-zero gradient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import ToricDiagram, canonical_reeb, interior_point, reeb_cone_contains
from .errors import BoundaryOrOutside, MismatchedDiagrams, StencilOutsideDomain


class ExtraTerm:
    """Interface for smooth extra summands of a potential."""

    def value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RationalBump(ExtraTerm):
    """g(y) = y_i * y_j / (y_1 + ... + y_n), homogeneous of degree 1.

    Its gradient is degree 0, so the radial (Euler) derivative of the
    gradient vanishes identically: adding it to a potential keeps the
    pairing vector.
    """

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
        h = (
            (np.outer(e_i, e_j) + np.outer(e_j, e_i)) / s
            - (y[self.j] * (np.outer(e_i, ones) + np.outer(ones, e_i))) / s**2
            - (y[self.i] * (np.outer(e_j, ones) + np.outer(ones, e_j))) / s**2
            + 2 * y[self.i] * y[self.j] * np.outer(ones, ones) / s**3
        )
        return h


class QuadraticCoordinate(ExtraTerm):
    """g(y) = y_k^2; its gradient has degree 1, so it shifts the pairing vector."""

    def __init__(self, k: int = 0):
        self.k = k

    def value(self, y):
        return float(y[self.k] ** 2)

    def grad(self, y):
        g = np.zeros_like(y)
        g[self.k] = 2 * y[self.k]
        return g

    def hess(self, y):
        h = np.zeros((len(y), len(y)))
        h[self.k, self.k] = 2.0
        return h


class LinearTerm(ExtraTerm):
    """g(y) = <c, y> + b; Legendre-dual to a coordinate translation."""

    def __init__(self, c, b: float = 0.0):
        self.c = np.asarray(c, dtype=float)
        self.b = b

    def value(self, y):
        return float(self.c @ y + self.b)

    def grad(self, y):
        return self.c.copy()

    def hess(self, y):
        return np.zeros((len(y), len(y)))


@dataclass(frozen=True)
class SymplecticPotential:
    """Weighted entropy terms plus weighted extras, on one diagram."""

    diagram: ToricDiagram
    entropy: tuple[tuple[float, tuple[float, ...]], ...]
    extras: tuple[tuple[float, ExtraTerm], ...] = ()

    def _forms(self, y: np.ndarray) -> np.ndarray:
        return np.array([np.dot(vec, y) for _, vec in self.entropy])

    def domain_contains(self, y) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all(self._forms(y) > 0))

    def _require_interior(self, y: np.ndarray):
        if not np.all(self._forms(y) > 0):
            raise BoundaryOrOutside(
                "point is outside the domain of this potential"
            )

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        self._require_interior(y)
        vals = self._forms(y)
        total = sum(c * v * np.log(v) for (c, _), v in zip(self.entropy, vals))
        total += sum(c * g.value(y) for c, g in self.extras)
        return float(total)

    def grad(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        self._require_interior(y)
        out = np.zeros_like(y)
        for c, vec in self.entropy:
            l = np.dot(vec, y)
            out += c * (np.log(l) + 1.0) * np.asarray(vec, dtype=float)
        for c, g in self.extras:
            out += c * g.grad(y)
        return out

    def hess(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        self._require_interior(y)
        n = len(y)
        out = np.zeros((n, n))
        for c, vec in self.entropy:
            v = np.asarray(vec, dtype=float)
            out += c * np.outer(v, v) / np.dot(v, y)
        for c, g in self.extras:
            out += c * g.hess(y)
        return out


@dataclass(frozen=True)
class PotentialSample:
    """One evaluation: the point, the potential, its derivatives, the dual value."""

    y: tuple[float, ...]
    G: float
    gradG: tuple[float, ...]
    hessG: tuple[tuple[float, ...], ...]
    F: float

    @property
    def x(self) -> tuple[float, ...]:
        return self.gradG


def canonical_potential(diagram: ToricDiagram) -> SymplecticPotential:
    """Half the sum of l log l over the facet forms."""
    return SymplecticPotential(
        diagram=diagram,
        entropy=tuple((0.5, tuple(float(x) for x in lam)) for lam in diagram.normals),
    )


def canonical_xi_potential(diagram: ToricDiagram, xi) -> SymplecticPotential:
    """Canonical potential adapted to a general pairing vector.

    Adds half l_xi log l_xi and subtracts half l_inf log l_inf, where l_inf
    pairs with the sum of the normals; for xi equal to that sum the two
    corrections cancel and the plain canonical potential returns.
    """
    if not reeb_cone_contains(diagram, xi):
        raise BoundaryOrOutside("xi is not interior to the Reeb cone")
    xi_can = canonical_reeb(diagram)
    entropy = [(0.5, tuple(float(x) for x in lam)) for lam in diagram.normals]
    entropy.append((0.5, tuple(float(x) for x in xi)))
    entropy.append((-0.5, tuple(float(x) for x in xi_can)))
    return SymplecticPotential(diagram=diagram, entropy=tuple(entropy))


def shifted_potential(
    base: SymplecticPotential, extra: ExtraTerm, coeff: float = 1.0
) -> SymplecticPotential:
    return SymplecticPotential(
        diagram=base.diagram,
        entropy=base.entropy,
        extras=base.extras + ((coeff, extra),),
    )


def _combine(g0: SymplecticPotential, g1: SymplecticPotential, t: float) -> SymplecticPotential:
    if g0.diagram != g1.diagram:
        raise MismatchedDiagrams("potentials live on different diagrams")
    entropy = tuple(((1 - t) * c, vec) for c, vec in g0.entropy) + tuple(
        (t * c, vec) for c, vec in g1.entropy
    )
    extras = tuple(((1 - t) * c, g) for c, g in g0.extras) + tuple(
        (t * c, g) for c, g in g1.extras
    )
    return SymplecticPotential(diagram=g0.diagram, entropy=entropy, extras=extras)


def geodesic_segment(
    g0: SymplecticPotential, g1: SymplecticPotential, t: float
) -> SymplecticPotential:
    """The straight segment (1-t) G0 + t G1; affine in t, so its second
    t-derivative at fixed y vanishes identically."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return _combine(g0, g1, t)


def eval_potential(pot: SymplecticPotential, y) -> PotentialSample:
    y = np.asarray(y, dtype=float)
    G = pot.value(y)
    grad = pot.grad(y)
    hess = pot.hess(y)
    F = float(y @ grad - G)
    return PotentialSample(
        y=tuple(y),
        G=G,
        gradG=tuple(grad),
        hessG=tuple(tuple(row) for row in hess),
        F=F,
    )


def eval_canonical(diagram: ToricDiagram, y) -> PotentialSample:
    return eval_potential(canonical_potential(diagram), y)


def eval_canonical_xi(diagram: ToricDiagram, xi, y) -> PotentialSample:
    return eval_potential(canonical_xi_potential(diagram, xi), y)


def legendre(pot, y=None) -> tuple[tuple[float, ...], float]:
    """The dual pair (x, F): x is the gradient, F = <y, x> - G(y).

    Accepts either a potential together with the point y, or an already
    computed sample (whose dual data is just read off).
    """
    if isinstance(pot, PotentialSample):
        return pot.x, pot.F
    if y is None:
        raise TypeError("legendre of a potential needs the evaluation point")
    sample = eval_potential(pot, y)
    return sample.x, sample.F


def invert_gradient(
    pot: SymplecticPotential,
    x,
    y0=None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """Solve grad G(y) = x by damped Newton, staying inside the domain."""
    x = np.asarray(x, dtype=float)
    if y0 is None:
        y = np.array([float(v) for v in interior_point(pot.diagram)])
    else:
        y = np.asarray(y0, dtype=float).copy()
    scale = 1.0 + float(np.linalg.norm(x))
    for _ in range(max_iter):
        resid = pot.grad(y) - x
        norm0 = np.linalg.norm(resid)
        if norm0 <= tol * scale:
            return y
        step = np.linalg.solve(pot.hess(y), -resid)
        alpha = 1.0
        while alpha > 1e-16:
            cand = y + alpha * step
            if pot.domain_contains(cand) and (
                np.linalg.norm(pot.grad(cand) - x) < norm0
            ):
                break
            alpha *= 0.5
        else:
            raise StencilOutsideDomain("gradient inversion stalled at the boundary")
        y = cand
    resid = np.linalg.norm(pot.grad(y) - x)
    if resid > 1e-8 * scale:
        raise StencilOutsideDomain(
            f"gradient inversion did not converge (residual {resid:.3e})"
        )
    return y


def legendre_roundtrip_error(pot: SymplecticPotential, y) -> float:
    """Relative error of y -> x -> y through the dual gradient map."""
    y = np.asarray(y, dtype=float)
    x, _ = legendre(pot, y)
    back = invert_gradient(pot, x, y0=y * 1.1)
    return float(np.linalg.norm(back - y) / (1.0 + np.linalg.norm(y)))


def dual_hessian_fd(pot: SymplecticPotential, y, h: float = 1e-4) -> np.ndarray:
    """Hessian of the dual potential at the dual point of y, by differencing.

    Central differences of the dual gradient map x -> y(x), one Newton
    inversion per stencil point.
    """
    y = np.asarray(y, dtype=float)
    x_bar = pot.grad(y)
    n = len(y)
    out = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        y_p = invert_gradient(pot, x_bar + e, y0=y, tol=1e-13)
        y_m = invert_gradient(pot, x_bar - e, y0=y, tol=1e-13)
        out[:, k] = (y_p - y_m) / (2 * h)
    return out


def hessian_identity_error(pot: SymplecticPotential, y, h: float = 1e-4) -> float:
    """Max-entry defect of (finite-difference dual Hessian) @ (Hessian of G) = I."""
    y = np.asarray(y, dtype=float)
    product = dual_hessian_fd(pot, y, h) @ pot.hess(y)
    return float(np.max(np.abs(product - np.eye(len(y)))))


def reeb_invariance_residual(g, y, h: float = 1e-4) -> float:
    """Radial derivative of the gradient of g, by central differences.

    Returns max_i |d/de grad_i g((1+e) y)| at e = 0.  Vanishes exactly when
    grad g is homogeneous of degree 0, the condition for both endpoint
    potentials of a segment to share one pairing vector.
    """
    y = np.asarray(y, dtype=float)
    gp = np.asarray(g.grad((1 + h) * y), dtype=float)
    gm = np.asarray(g.grad((1 - h) * y), dtype=float)
    return float(np.max(np.abs((gp - gm) / (2 * h))))


def geodesic_equation_residual(
    g0: SymplecticPotential,
    g1: SymplecticPotential,
    y,
    t: float,
    h: float = 1e-3,
    fd_order: int = 2,
) -> float:
    """Pointwise geodesic-equation defect of the segment between g0 and g1.

    The dual potential is sampled on a t-stencil at the dual point of y:
    at each stencil time the gradient map is inverted, giving both the dual
    value and (through the transform itself) its x-gradient.  The residual
    is d2F/dt2 minus the squared x-gradient of dF/dt in the dual metric,
    whose inverse Hessian is the Hessian of the segment potential, taken in
    closed form at the center.  Central differences of order `fd_order`
    (2 or 4); with the default the residual shrinks like h^2.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    if fd_order not in (2, 4):
        raise ValueError("fd_order must be 2 or 4")
    y = np.asarray(y, dtype=float)
    center = _combine(g0, g1, t)
    center._require_interior(y)
    x_bar = center.grad(y)

    def solve(tau: float) -> tuple[np.ndarray, float]:
        pot = _combine(g0, g1, tau)
        try:
            y_sol = invert_gradient(pot, x_bar, y0=y, tol=1e-13)
        except BoundaryOrOutside as exc:
            raise StencilOutsideDomain(str(exc)) from exc
        return y_sol, float(y_sol @ x_bar - pot.value(y_sol))

    if fd_order == 2:
        (y_p, f_p), (y_c, f_c), (y_m, f_m) = solve(t + h), solve(t), solve(t - h)
        f_tt = (f_p - 2 * f_c + f_m) / h**2
        grad_fdot = (y_p - y_m) / (2 * h)  # grad_x F_tau = y_tau(x)
    else:
        (y_p2, f_p2), (y_p, f_p) = solve(t + 2 * h), solve(t + h)
        (y_c, f_c) = solve(t)
        (y_m, f_m), (y_m2, f_m2) = solve(t - h), solve(t - 2 * h)
        f_tt = (-f_p2 + 16 * f_p - 30 * f_c + 16 * f_m - f_m2) / (12 * h**2)
        grad_fdot = (-y_p2 + 8 * y_p - 8 * y_m + y_m2) / (12 * h)

    hess_g = center.hess(y_c)
    quad = float(grad_fdot @ hess_g @ grad_fdot)
    return float(f_tt - quad)
