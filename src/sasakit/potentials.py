"""Torus-invariant symplectic potentials and their Legendre transforms.

Potentials live on the open cone interior and are sums of entropy terms
w * l(y) log l(y) for linear forms l, plus optional smooth extra terms.  A
potential keeps its weights as one vector and its forms as one matrix, so
value, gradient and Hessian are whole-array expressions, and the segment
between two potentials concatenates them.  The lattice side of the package
is exact; this side is plain float work, with finite-difference stencils
scaled to stay inside the domain.

Every evaluation takes y of shape (n,), one point, or (m, n), a stack of m
points, and returns one result or a stack of m: value () or (m,), gradient
(n,) or (m, n), Hessian (n, n) or (m, n, n).  A single point is a batch of
one, so a whole grid costs one call per quantity rather than one per point.

The dual picture is recovered numerically: the gradient map y -> x is
inverted with a damped Newton solve over a whole stack of targets at once,
which gives pointwise access to the dual potential and to the time-dependent
family along a segment of potentials.  The residual functions quantify, at a
point, how far a segment is from solving the geodesic equation and whether a
difference of potentials preserves the pairing vector (degree-zero gradient).
"""

from __future__ import annotations

import numpy as np

from .cones import ToricDiagram, canonical_reeb, interior_point, reeb_cone_contains
from .errors import BoundaryOrOutside, MismatchedDiagrams, StencilOutsideDomain
from .lattice import Record


class ExtraTerm:
    """Interface for smooth extra summands of a potential; y is (n,) or (m, n)."""

    def value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RationalBump(ExtraTerm):
    """g(y) = <a, y> <b, y> / <c, y>, homogeneous of degree 1, on <c, y> > 0.

    a, b and c are covectors; an int k for a or b stands for the coordinate
    y_k, and c defaults to all ones.  Two facet normals for a and b and the
    sum of the normals for c keep the numerator and the denominator
    positive on the open cone, in every lattice basis.  Its gradient is
    degree 0, so the radial (Euler) derivative of the gradient vanishes
    identically: adding it to a potential keeps the pairing vector.
    """

    def __init__(self, a=0, b=1, c=None):
        self.a, self.b, self.c = a, b, c

    def _forms(self, y):
        """a, b and c as float vectors of y's length, and their pairings with y."""
        n = y.shape[-1]
        forms = [
            np.eye(n)[f] if np.ndim(f) == 0 else np.asarray(f, dtype=float)
            for f in (self.a, self.b)
        ]
        forms.append(np.ones(n) if self.c is None else np.asarray(self.c, dtype=float))
        return forms, [(y * f).sum(axis=-1) for f in forms]

    def value(self, y):
        _, (a, b, s) = self._forms(y)
        return a * b / s

    def grad(self, y):
        (p, q, c), (a, b, s) = self._forms(y)
        u, v, w = (np.asarray(t)[..., None] for t in (b / s, a / s, a * b / s**2))
        return u * p + v * q - w * c

    def hess(self, y):
        (p, q, c), (a, b, s) = self._forms(y)
        # numpy cubes an array by its own pow, not libm's as for a scalar; cube
        # each entry as a scalar so a stack matches its rows bit for bit
        s2, s3 = s**2, np.array([v**3 for v in np.ravel(s)]).reshape(np.shape(s))
        a, b, s, s2, s3 = (np.asarray(v)[..., None, None] for v in (a, b, s, s2, s3))
        return (
            (np.outer(p, q) + np.outer(q, p)) / s
            - (b * (np.outer(p, c) + np.outer(c, p))) / s2
            - (a * (np.outer(q, c) + np.outer(c, q))) / s2
            + 2 * a * b * np.outer(c, c) / s3
        )


class QuadraticCoordinate(ExtraTerm):
    """g(y) = y_k^2; its gradient has degree 1, so it shifts the pairing vector."""

    def __init__(self, k: int = 0):
        self.k = k

    def value(self, y):
        return y[..., self.k] ** 2

    def grad(self, y):
        g = np.zeros_like(y)
        g[..., self.k] = 2 * y[..., self.k]
        return g

    def hess(self, y):
        h = np.zeros(y.shape + y.shape[-1:])
        h[..., self.k, self.k] = 2.0
        return h


class LinearTerm(ExtraTerm):
    """g(y) = <c, y> + b; Legendre-dual to a coordinate translation."""

    def __init__(self, c, b: float = 0.0):
        self.c = np.asarray(c, dtype=float)
        self.b = b

    def value(self, y):
        return (y * self.c).sum(axis=-1) + self.b

    def grad(self, y):
        return np.broadcast_to(self.c, y.shape).copy()

    def hess(self, y):
        return np.zeros(y.shape + y.shape[-1:])


class SymplecticPotential(Record):
    """sum_a weights[a] l_a log l_a over the levels l = y @ forms.T, plus extras.

    `forms` is a k x n float array, one row per entropy term.  Equality is
    identity: comparing the array fields would raise.
    """

    diagram: ToricDiagram
    weights: np.ndarray
    forms: np.ndarray
    extras: tuple[tuple[float, ExtraTerm], ...] = ()

    __eq__, __hash__ = object.__eq__, object.__hash__

    def domain_contains(self, y):
        """Whether y lies in the open domain, or whether each row of a stack does."""
        return np.all(np.asarray(y, dtype=float) @ self.forms.T > 0, axis=-1)

    def _levels(self, y: np.ndarray, strict: bool = True) -> np.ndarray:
        """The form values l = y @ forms.T; strict, they must all be positive."""
        levels = y @ self.forms.T
        if strict and not np.all(levels > 0):
            raise BoundaryOrOutside("point is outside the domain of this potential")
        return levels

    # value, grad and hess from y's levels (and their logs), for callers that
    # share one levels product and one log between them
    def _value(self, y, levels, logs):
        total = (levels * logs) @ self.weights
        return total + sum(c * g.value(y) for c, g in self.extras)

    def _grad(self, y, logs):
        out = (self.weights * (logs + 1.0)) @ self.forms
        for c, g in self.extras:
            out += c * g.grad(y)
        return out

    def _hess(self, y, levels):
        scaled = self.forms.T * (self.weights / levels)[..., None, :]
        out = scaled @ self.forms
        for c, g in self.extras:
            out += c * g.hess(y)
        return out

    def value(self, y):
        y = np.asarray(y, dtype=float)
        levels = self._levels(y)
        return self._value(y, levels, np.log(levels))

    def grad(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self._grad(y, np.log(self._levels(y)))

    def hess(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self._hess(y, self._levels(y))


class PotentialSample(Record):
    """The point, the potential, its derivatives and the dual value, or a
    stack of m of each for a stack of m points.  Equality is identity: the
    fields are arrays."""

    y: np.ndarray
    G: np.ndarray
    gradG: np.ndarray
    hessG: np.ndarray
    F: np.ndarray

    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def x(self) -> np.ndarray:
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
    return SymplecticPotential(
        base.diagram, base.weights, base.forms, base.extras + ((coeff, extra),)
    )


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
    """G, its gradient x and Hessian, and F = <y, x> - G, at y or a stack of points.

    One levels product and one log serve all three: each is the same
    expression, bit for bit, as a separate value, grad or hess call.
    """
    y = np.asarray(y, dtype=float)
    levels = pot._levels(y)
    logs = np.log(levels)
    G = pot._value(y, levels, logs)
    grad = pot._grad(y, logs)
    F = (y * grad).sum(axis=-1) - G
    return PotentialSample(y=y, G=G, gradG=grad, hessG=pot._hess(y, levels), F=F)


def eval_canonical(diagram: ToricDiagram, y) -> PotentialSample:
    return eval_potential(canonical_potential(diagram), y)


def eval_canonical_xi(diagram: ToricDiagram, xi, y) -> PotentialSample:
    return eval_potential(canonical_xi_potential(diagram, xi), y)


def legendre(pot, y=None) -> tuple[np.ndarray, np.ndarray]:
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


def _row_norms(r: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row; the same bits as np.linalg.norm(r, axis=1)."""
    return np.sqrt((r * r).sum(axis=1))


def _where(mask: np.ndarray):
    """An index of mask's true entries, a full slice (no gather) when all are,
    and their count."""
    count = int(np.count_nonzero(mask))
    return (slice(None) if count == mask.size else np.flatnonzero(mask)), count


def _within(rows, sub):
    """rows[sub] for the indices `_where` makes."""
    if isinstance(rows, slice):
        return sub
    return rows if isinstance(sub, slice) else rows[sub]


def invert_gradient(
    pot: SymplecticPotential,
    x,
    y0=None,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """Solve grad G(y) = x by damped Newton, staying inside the domain.

    x is one target (n,) or a stack (m, n), y0 one start or one per row.  The
    rows step together, one batched solve per step, but each row stops on
    its own |grad G(y) - x| <= tol (1 + |x|) and takes the first step length
    of 1, 1/2, 1/4, ... that stays in the domain and lowers its residual.

    Each step costs one Hessian and one batched solve over the rows still
    searching, and each trial point one levels product, which serves both
    its domain test and its gradient (when only some trial points are
    inside, their gradient takes its levels again over its own rows).  Rows
    are indexed by a slice, with nothing gathered, while all of them are
    searching, inside or accepted, as in every step of the potential grids
    of perfbench's analyze-small-d.
    """
    x = np.asarray(x, dtype=float)
    xs = np.atleast_2d(x)
    if y0 is None:
        y0 = [float(v) for v in interior_point(pot.diagram)]
    ys = np.array(np.broadcast_to(np.asarray(y0, dtype=float), xs.shape))
    scale = 1.0 + _row_norms(xs)
    resid = pot.grad(ys) - xs
    norms = _row_norms(resid)
    for _ in range(max_iter):
        rows, count = _where(norms > tol * scale)
        if not count:
            break
        step = np.linalg.solve(pot.hess(ys[rows]), -resid[rows, :, None])[..., 0]
        alpha = 1.0
        while True:  # rows still searching, and their steps
            if alpha <= 1e-16:
                raise StencilOutsideDomain("gradient inversion stalled at the boundary")
            cand = ys[rows] + alpha * step
            levels = pot._levels(cand, strict=False)
            accept = np.all(levels > 0, axis=1)
            inside, count = _where(accept)
            if count:
                at = _within(rows, inside)
                if count < accept.size:
                    # a product's rows need not have the same bits in a stack
                    # of another height (one row is multiplied as a vector,
                    # and its last bits differ), so the gradient of the rows
                    # inside takes its levels over them alone, as grad would
                    cand = cand[inside]
                    levels = pot._levels(cand)
                cand_resid = pot._grad(cand, np.log(levels)) - xs[at]
                cand_norms = _row_norms(cand_resid)
                # a row takes its trial point when it is inside and lowers the residual
                better = cand_norms < norms[at]
                done, _ = _where(better)
                to = _within(at, done)
                ys[to], resid[to], norms[to] = cand[done], cand_resid[done], cand_norms[done]
                accept[inside] = better
                if accept.all():
                    break
                rest = np.flatnonzero(~accept)
                rows, step = _within(rows, rest), step[rest]
            alpha *= 0.5
    bad = norms > max(tol, 1e-8) * scale
    if bad.any():
        raise StencilOutsideDomain(
            f"gradient inversion did not converge (residual {norms[bad].max():.3e})"
        )
    return ys if x.ndim > 1 else ys[0]


def legendre_roundtrip_error(pot: SymplecticPotential, y):
    """Relative error of y -> x -> y through the dual gradient map, per point."""
    y = np.asarray(y, dtype=float)
    back = invert_gradient(pot, pot.grad(y), y0=y * 1.1)
    return np.linalg.norm(back - y, axis=-1) / (1.0 + np.linalg.norm(y, axis=-1))


def dual_hessian_fd(pot: SymplecticPotential, y, h: float = 1e-4) -> np.ndarray:
    """Hessian of the dual potential at the dual point of y, by differencing.

    Central differences of the dual gradient map x -> y(x): one batched
    Newton inversion over the 2n stencil targets x +- h e_k.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    targets = pot.grad(y) + h * np.concatenate([np.eye(n), -np.eye(n)])
    ys = invert_gradient(pot, targets, y0=y, tol=1e-13)
    return (ys[:n] - ys[n:]).T / (2 * h)


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
