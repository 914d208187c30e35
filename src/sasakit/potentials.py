"""Torus-invariant symplectic potentials and their Legendre transforms.

Potentials live on the open cone interior and are sums of entropy terms
w * l(y) log l(y) for linear forms l, plus optional smooth extra terms.  A
potential keeps its weights as one vector and its forms as one matrix, so
value, gradient and Hessian are whole-array expressions, and the segment
between two potentials concatenates them.  The lattice side of the package
is exact; this side is plain float work, with finite-difference stencils
scaled to stay inside the domain.

The dual picture is recovered numerically: the gradient map y -> x is
inverted with a damped Newton solve, which gives pointwise access to the
dual potential and to the time-dependent family along a segment of
potentials.  The residual functions quantify, at a point, how far a segment
is from solving the geodesic equation and whether a difference of
potentials preserves the pairing vector (degree-zero gradient).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """g(y) = y_i * y_j / <c, y>, homogeneous of degree 1, on <c, y> > 0.

    c defaults to all ones.  A c positive on the whole cone, such as the
    sum of the normals, makes the domain independent of the lattice basis.
    Its gradient is degree 0, so the radial (Euler) derivative of the
    gradient vanishes identically: adding it to a potential keeps the
    pairing vector.
    """

    def __init__(self, i: int = 0, j: int = 1, c=None):
        self.i, self.j = i, j
        self.c = None if c is None else np.asarray(c, dtype=float)

    def _pairing(self, y):
        c = np.ones_like(y) if self.c is None else self.c
        return c, (c * y).sum()

    def value(self, y):
        return y[self.i] * y[self.j] / self._pairing(y)[1]

    def grad(self, y):
        c, s = self._pairing(y)
        g = -y[self.i] * y[self.j] / s**2 * c
        g[self.i] += y[self.j] / s
        g[self.j] += y[self.i] / s
        return g

    def hess(self, y):
        n = len(y)
        c, s = self._pairing(y)
        e_i = np.eye(n)[self.i]
        e_j = np.eye(n)[self.j]
        h = (
            (np.outer(e_i, e_j) + np.outer(e_j, e_i)) / s
            - (y[self.j] * (np.outer(e_i, c) + np.outer(c, e_i))) / s**2
            - (y[self.i] * (np.outer(e_j, c) + np.outer(c, e_j))) / s**2
            + 2 * y[self.i] * y[self.j] * np.outer(c, c) / s**3
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


@dataclass(frozen=True, eq=False)
class SymplecticPotential:
    """sum_a weights[a] l_a log l_a over the levels l = forms @ y, plus extras.

    `forms` is a k x n float array, one row per entropy term.  eq=False:
    the generated comparison would raise on the array fields.
    """

    diagram: ToricDiagram
    weights: np.ndarray
    forms: np.ndarray
    extras: tuple[tuple[float, ExtraTerm], ...] = ()

    def domain_contains(self, y) -> bool:
        return bool(np.all(self.forms @ np.asarray(y, dtype=float) > 0))

    def _levels(self, y: np.ndarray) -> np.ndarray:
        """The form values l = forms @ y, which must all be positive."""
        levels = self.forms @ y
        if not np.all(levels > 0):
            raise BoundaryOrOutside("point is outside the domain of this potential")
        return levels

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        levels = self._levels(y)
        total = self.weights @ (levels * np.log(levels))
        return float(total + sum(c * g.value(y) for c, g in self.extras))

    def grad(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = (self.weights * (np.log(self._levels(y)) + 1.0)) @ self.forms
        for c, g in self.extras:
            out += c * g.grad(y)
        return out

    def hess(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = (self.forms.T * (self.weights / self._levels(y))) @ self.forms
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


def _entropy_potential(diagram: ToricDiagram, *corrections) -> SymplecticPotential:
    """Half of l log l for every facet normal, plus (weight, form) corrections."""
    weights = [0.5] * diagram.d + [w for w, _ in corrections]
    forms = [*diagram.normals, *(form for _, form in corrections)]
    return SymplecticPotential(diagram, np.array(weights), np.array(forms, dtype=float))


def canonical_potential(diagram: ToricDiagram) -> SymplecticPotential:
    """Half the sum of l log l over the facet forms."""
    return _entropy_potential(diagram)


def canonical_xi_potential(diagram: ToricDiagram, xi) -> SymplecticPotential:
    """Canonical potential adapted to a general pairing vector.

    Adds half l_xi log l_xi and subtracts half l_inf log l_inf, where l_inf
    pairs with the sum of the normals; for xi equal to that sum the two
    corrections cancel and the plain canonical potential returns.
    """
    if not reeb_cone_contains(diagram, xi):
        raise BoundaryOrOutside("xi is not interior to the Reeb cone")
    return _entropy_potential(diagram, (0.5, xi), (-0.5, canonical_reeb(diagram)))


def shifted_potential(
    base: SymplecticPotential, extra: ExtraTerm, coeff: float = 1.0
) -> SymplecticPotential:
    return replace(base, extras=base.extras + ((coeff, extra),))


def _combine(g0: SymplecticPotential, g1: SymplecticPotential, t: float) -> SymplecticPotential:
    if g0.diagram != g1.diagram:
        raise MismatchedDiagrams("potentials live on different diagrams")
    extras = tuple(((1 - t) * c, g) for c, g in g0.extras) + tuple(
        (t * c, g) for c, g in g1.extras
    )
    return SymplecticPotential(
        diagram=g0.diagram,
        weights=np.concatenate([(1 - t) * g0.weights, t * g1.weights]),
        forms=np.concatenate([g0.forms, g1.forms]),
        extras=extras,
    )


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
    resid = pot.grad(y) - x
    for _ in range(max_iter):
        norm0 = np.linalg.norm(resid)
        if norm0 <= tol * scale:
            return y
        step = np.linalg.solve(pot.hess(y), -resid)
        alpha = 1.0
        while alpha > 1e-16:
            cand = y + alpha * step
            if pot.domain_contains(cand):
                cand_resid = pot.grad(cand) - x
                if np.linalg.norm(cand_resid) < norm0:
                    break
            alpha *= 0.5
        else:
            raise StencilOutsideDomain("gradient inversion stalled at the boundary")
        y, resid = cand, cand_resid
    norm = np.linalg.norm(resid)
    if norm > 1e-8 * scale:
        raise StencilOutsideDomain(
            f"gradient inversion did not converge (residual {norm:.3e})"
        )
    return y


def legendre_roundtrip_error(pot: SymplecticPotential, y) -> float:
    """Relative error of y -> x -> y through the dual gradient map."""
    y = np.asarray(y, dtype=float)
    back = invert_gradient(pot, pot.grad(y), y0=y * 1.1)
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
