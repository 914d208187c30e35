import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sasakit import (
    BoundaryOrOutside,
    MismatchedDiagrams,
    StencilOutsideDomain,
    LinearTerm,
    QuadraticCoordinate,
    RationalBump,
    canonical_potential,
    canonical_reeb,
    canonical_xi_potential,
    eval_canonical,
    eval_canonical_xi,
    extreme_rays,
    geodesic_equation_residual,
    geodesic_segment,
    interior_point,
    invert_gradient,
    legendre,
    legendre_roundtrip_error,
    lens,
    main4_even,
    main4_odd,
    shifted_potential,
    z5_lens,
)
from sasakit.potentials import (
    SymplecticPotential,
    dual_hessian_fd,
    eval_potential,
    hessian_identity_error,
    reeb_invariance_residual,
)

from helpers import (
    LoopPotential,
    OnesBump,
    interior_points,
    invert_gradient_oracle,
    loop_canonical,
    loop_segment,
    octant,
    random_sl3,
    transform_normals,
)


def test_canonical_values_octant():
    assert eval_canonical(octant(), (1, 1, 1)).G == pytest.approx(0.0, abs=1e-15)
    e = math.e
    assert eval_canonical(octant(), (e, e, e)).G == pytest.approx(3 * e / 2)


def test_canonical_value_lens2_substitution():
    # forms at (1,1,1) are (1, 1, 4), so only the last term contributes
    sample = eval_canonical(lens(2), (1, 1, 1))
    assert sample.G == pytest.approx(0.5 * 4 * math.log(4))


def test_canonical_gradient_and_dual_value_octant():
    sample = eval_canonical(octant(), (1, 1, 1))
    assert sample.x == pytest.approx((0.5, 0.5, 0.5))
    assert sample.F == pytest.approx(1.5)
    x, f = legendre(canonical_potential(octant()), (1, 1, 1))
    assert x == pytest.approx(sample.x) and f == pytest.approx(sample.F)


def test_canonical_hessian_closed_form():
    d = lens(2)
    y = np.array([0.8, 1.1, 0.4])
    sample = eval_canonical(d, y)
    expected = np.zeros((3, 3))
    for lam in d.normals:
        v = np.array(lam, dtype=float)
        expected += 0.5 * np.outer(v, v) / (v @ y)
    assert np.allclose(sample.hessG, expected, rtol=0, atol=1e-14)


def test_canonical_xi_cancellation_at_canonical_reeb():
    d = octant()
    y = (0.7, 1.3, 2.1)
    assert eval_canonical_xi(d, (1, 1, 1), y).G == pytest.approx(
        eval_canonical(d, y).G
    )
    d2 = lens(2)
    y2 = (0.5, 0.5, 0.1)
    assert eval_canonical_xi(d2, canonical_reeb(d2), y2).G == pytest.approx(
        eval_canonical(d2, y2).G
    )


def test_canonical_xi_substitution_octant():
    sample = eval_canonical_xi(octant(), (2, 1, 1), (1, 1, 1))
    assert sample.G == pytest.approx(0.5 * 4 * math.log(4) - 0.5 * 3 * math.log(3))
    assert sample.F == pytest.approx(2.0)  # half the xi-pairing 4


def test_dual_value_is_half_xi_pairing():
    for d, xi in ((octant(), (2, 1, 1)), (lens(2), (2, 2, 3)), (z5_lens(), (3, 5, 6))):
        for y in interior_points(d, 100, seed=17):
            sample = eval_canonical_xi(d, xi, y)
            half_pairing = 0.5 * float(np.dot(xi, y))
            assert abs(sample.F - half_pairing) < 1e-9 * abs(half_pairing)


def test_boundary_rejected():
    with pytest.raises(BoundaryOrOutside):
        eval_canonical(octant(), (1, 0, 1))
    with pytest.raises(BoundaryOrOutside):
        eval_canonical(lens(2), (-1, -1, 0.2))
    with pytest.raises(BoundaryOrOutside):
        canonical_xi_potential(octant(), (1, 0, 0))


def test_legendre_roundtrip():
    for d in (octant(), lens(2), z5_lens()):
        pot = canonical_potential(d)
        for y in interior_points(d, 25, seed=3):
            assert legendre_roundtrip_error(pot, y) < 1e-9


def test_legendre_roundtrip_xi_potentials():
    d = lens(2)
    pot = canonical_xi_potential(d, (2, 2, 3))
    for y in interior_points(d, 25, seed=8):
        assert legendre_roundtrip_error(pot, y) < 1e-9


def test_hessian_positive_definite():
    for d, xi in ((octant(), (2, 1, 1)), (lens(2), (2, 2, 3)), (z5_lens(), (3, 5, 5))):
        pot = canonical_xi_potential(d, xi)
        plain = canonical_potential(d)
        for y in interior_points(d, 100, seed=23):
            for p in (pot, plain):
                h = p.hess(y)
                eigs = np.linalg.eigvalsh(h)
                assert eigs.min() > -1e-12 * max(1.0, eigs.max())
                assert eigs.min() > 0


def test_hessian_inverse_identity():
    d = lens(2)
    pot = canonical_xi_potential(d, (2, 2, 3))
    for y in interior_points(d, 20, seed=29):
        assert hessian_identity_error(pot, y) < 1e-6


def test_dual_hessian_symmetric():
    d = octant()
    pot = canonical_potential(d)
    h = dual_hessian_fd(pot, (0.9, 1.2, 0.7))
    assert np.allclose(h, h.T, atol=1e-7)


def test_geodesic_segment_endpoints():
    d = octant()
    g0 = canonical_potential(d)
    g1 = shifted_potential(g0, RationalBump(0, 1))
    y = (1.1, 0.8, 1.3)
    assert geodesic_segment(g0, g1, 0.0).value(y) == pytest.approx(g0.value(y))
    assert geodesic_segment(g0, g1, 1.0).value(y) == pytest.approx(g1.value(y))
    mid = geodesic_segment(g0, g1, 0.5).value(y)
    assert mid == pytest.approx(g0.value(y) + 0.5 * RationalBump(0, 1).value(np.array(y)))


def test_geodesic_segment_constant_when_equal():
    d = octant()
    g0 = canonical_potential(d)
    y = (0.5, 0.7, 0.9)
    vals = [geodesic_segment(g0, g0, t).value(y) for t in (0.0, 0.3, 0.8, 1.0)]
    assert max(vals) - min(vals) < 1e-15


def test_geodesic_segment_rejects_mismatched_diagrams():
    with pytest.raises(MismatchedDiagrams):
        geodesic_segment(
            canonical_potential(octant()), canonical_potential(lens(2)), 0.5
        )


def test_geodesic_segment_t_range():
    g0 = canonical_potential(octant())
    with pytest.raises(ValueError):
        geodesic_segment(g0, g0, 1.5)


def test_reeb_invariance_residuals():
    y = np.array([1.1, 0.8, 1.3])
    assert reeb_invariance_residual(RationalBump(0, 1), y) < 1e-6
    assert reeb_invariance_residual(LinearTerm([0.3, -0.2, 0.8], 1.0), y) == 0.0
    assert reeb_invariance_residual(QuadraticCoordinate(0), np.array([1.0, 1.0, 1.0])) >= 0.1
    # degree-2 term: the radial derivative of grad is grad itself
    assert reeb_invariance_residual(
        QuadraticCoordinate(0), np.array([1.0, 1.0, 1.0])
    ) == pytest.approx(2.0, rel=1e-6)


def test_geodesic_residual_trivial_cases():
    d = octant()
    g0 = canonical_potential(d)
    y = (1.1, 0.8, 1.3)
    assert geodesic_equation_residual(g0, g0, y, t=0.5) == 0.0
    # a linear shift solves the geodesic equation exactly: what the stencil
    # reads is its truncation error, which falls fourfold when h halves
    g_lin = shifted_potential(g0, LinearTerm([0.25, -0.1, 0.4], 0.7))
    ladder = [
        abs(geodesic_equation_residual(g0, g_lin, y, t=0.4, h=h))
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    orders = [math.log2(a / b) for a, b in zip(ladder, ladder[1:])]
    assert all(abs(order - 2) < 0.05 for order in orders), orders


def test_geodesic_residual_bump_small_and_second_order():
    d = octant()
    g0 = canonical_potential(d)
    g1 = shifted_potential(g0, RationalBump(0, 1))
    y = (1.1, 0.8, 1.3)
    r_h3 = abs(geodesic_equation_residual(g0, g1, y, t=0.4, h=1e-3))
    assert r_h3 < 1e-4
    ladder = [
        abs(geodesic_equation_residual(g0, g1, y, t=0.4, h=h))
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    orders = [math.log2(a / b) for a, b in zip(ladder, ladder[1:])]
    assert min(orders) >= 1.8


def test_geodesic_residual_t_validation():
    g0 = canonical_potential(octant())
    with pytest.raises(ValueError):
        geodesic_equation_residual(g0, g0, (1, 1, 1), t=0.0)


def test_default_bump_is_the_ones_bump():
    # c defaults to all ones, and an explicit all-ones c is the same function, bit for bit
    rng = np.random.default_rng(5)
    old = OnesBump(0, 1)
    for bump in (RationalBump(0, 1), RationalBump(0, 1, c=(1, 1, 1))):
        for y in rng.uniform(0.1, 3.0, size=(50, 3)):
            assert bump.value(y) == old.value(y)
            assert np.array_equal(bump.grad(y), old.grad(y))
            assert np.array_equal(bump.hess(y), old.hess(y))


def test_bump_with_covector_derivatives():
    c = np.array([2.0, -1.0, 3.0])
    bump = RationalBump(2, 0, c=c)
    y = np.array([0.7, 0.4, 1.1])
    assert bump.value(y) == pytest.approx(y[2] * y[0] / (c @ y), rel=1e-15)
    h = 1e-5
    for k in range(3):
        e = np.eye(3)[k] * h
        fd_grad = (bump.value(y + e) - bump.value(y - e)) / (2 * h)
        fd_hess = (bump.grad(y + e) - bump.grad(y - e)) / (2 * h)
        assert bump.grad(y)[k] == pytest.approx(fd_grad, rel=1e-8)
        assert np.allclose(bump.hess(y)[:, k], fd_hess, rtol=1e-7, atol=1e-9)
    assert reeb_invariance_residual(bump, y) < 1e-9


FAMILY = [octant(), lens(2), lens(5), z5_lens(), main4_even(2, 1), main4_odd(3, 2)]


def shifted_with_reference(d):
    """xi, the xi-adapted potential shifted by all three extra terms, and its
    per-term reference."""
    xi = tuple(a + b for a, b in zip(canonical_reeb(d), d.normals[0]))
    extras = [
        (0.7, RationalBump(0, 2, c=canonical_reeb(d))),
        (-0.3, QuadraticCoordinate(1)),
        (1.5, LinearTerm([0.2, -0.4, 0.9], 0.3)),
    ]
    shifted = canonical_xi_potential(d, xi)
    for coeff, extra in extras:
        shifted = shifted_potential(shifted, extra, coeff)
    return xi, shifted, LoopPotential(loop_canonical(d, xi).entropy, extras)


def segment_with_reference(d, t):
    """The segment from the canonical potential to the shifted one at t, and its reference."""
    _, shifted, ref_shifted = shifted_with_reference(d)
    return (
        geodesic_segment(canonical_potential(d), shifted, t),
        loop_segment(loop_canonical(d), ref_shifted, t),
    )


@st.composite
def potentials_with_reference(draw):
    """(potential, its per-term reference, an interior point) on a family
    member or a shear of one: canonical, pairing-adapted, shifted by all
    three extra terms, or a segment at a random t."""
    d = draw(st.sampled_from(FAMILY))
    if draw(st.booleans()):
        d = transform_normals(d, random_sl3(draw(st.randoms(use_true_random=False))))
    xi, shifted, ref_shifted = shifted_with_reference(d)
    t = draw(st.floats(0.0, 1.0))
    pot, ref = draw(
        st.sampled_from(
            [
                (canonical_potential(d), loop_canonical(d)),
                (canonical_xi_potential(d, xi), loop_canonical(d, xi)),
                (shifted, ref_shifted),
                segment_with_reference(d, t),
            ]
        )
    )
    y = interior_points(d, 1, seed=draw(st.integers(0, 2**16)))[0]
    return pot, ref, y


@settings(max_examples=100, deadline=None)
@given(potentials_with_reference())
# a subnormal t: the two Hessians then differ by one subnormal ulp
@example((*segment_with_reference(octant(), 2.2250738585e-313),
          np.array([0.61965332, 0.79379945, 0.51641353])))
def test_kernel_matches_per_term_loops(case):
    pot, ref, y = case
    # the standard rounding model with gradual underflow (Higham, ch. 2): a
    # relative error per term, and an absolute one of at most a subnormal
    # ulp per operation, a few of them in each of the n terms
    underflow = 4 * (len(ref.entropy) + len(ref.extras)) * np.finfo(float).smallest_subnormal
    for got, want, size in zip(
        (pot.value(y), pot.grad(y), pot.hess(y)),
        (ref.value(y), ref.grad(y), ref.hess(y)),
        ref.sizes(y),
    ):
        assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * size + underflow)


def _count_calls(monkeypatch, trials=None) -> Counter:
    """Count levels products, trial points (the products that leave the
    domain test to the caller) and those inside the domain, and the value,
    gradient and Hessian kernels and public methods; append each trial
    point, as a tuple, to `trials`."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(self, y, *args, **kwargs):
            result = fn(self, y, *args, **kwargs)
            if name == "_levels" and not kwargs.get("strict", True):
                calls["trial"] += 1
                calls["trial_inside"] += bool(np.all(result > 0))
                if trials is not None:
                    trials.append(tuple(np.ravel(y)))
            else:
                calls[name] += 1
            return result

        return wrapper

    names = ("_levels", "_value", "_grad", "_hess", "value", "grad", "hess", "domain_contains")
    for name in names:
        fn = getattr(SymplecticPotential, name)
        monkeypatch.setattr(SymplecticPotential, name, counted(name, fn))
    return calls


def test_newton_evaluates_one_gradient_per_trial_point(monkeypatch):
    d = main4_odd(3, 2)
    pot = canonical_xi_potential(d, (2, 2, 3))
    points = interior_points(d, 5, seed=41)
    targets = [pot.grad(y) for y in points]
    trials = []
    calls = _count_calls(monkeypatch, trials)
    for y, x in zip(points, targets):
        calls.clear()
        trials.clear()
        invert_gradient(pot, x, y0=y * 1.1)
        newton = dict(calls)
        # one levels product per trial point, never two for one point, which
        # serves its domain test and, inside, its gradient; the start's
        # gradient and one Hessian per step, each step ending on a point inside
        assert len(set(trials)) == len(trials) == newton["trial"]
        assert newton["grad"] == 1 and newton["_grad"] == 1 + newton["trial_inside"]
        assert 1 <= newton["hess"] == newton["_hess"] <= newton["trial_inside"]
        assert newton["_levels"] == newton["grad"] + newton["hess"]
        assert newton.keys() == {"_levels", "trial", "trial_inside", "_grad", "_hess", "grad", "hess"}
        calls.clear()
        trials.clear()
        legendre_roundtrip_error(pot, y)
        # the round trip adds one gradient to the same solve, and no value or Hessian
        extra = {"grad": 1, "_grad": 1, "_levels": 1}
        assert dict(calls) == {**newton, **{k: newton[k] + v for k, v in extra.items()}}


def test_newton_trial_points_outside_the_domain_take_no_gradient(monkeypatch):
    # the octant from far out along one axis: the full Newton step leaves it
    pot = canonical_potential(octant())
    x = pot.grad(np.array([1.0, 1.0, 1.0]))
    calls = _count_calls(monkeypatch)
    invert_gradient(pot, x, y0=[50.0, 1.0, 1.0])
    assert calls["trial"] > calls["trial_inside"] == calls["_grad"] - 1


def test_inversion_starts_at_the_interior_point_by_default():
    d = main4_odd(3, 2)
    pot = canonical_potential(d)
    xs = pot.grad(np.array(interior_points(d, 3, seed=5)))
    ys = invert_gradient(pot, xs)
    assert np.array_equal(ys, invert_gradient(pot, xs, y0=[float(v) for v in interior_point(d)]))
    assert np.allclose(pot.grad(ys), xs, rtol=0, atol=1e-10)


def test_eval_potential_takes_one_levels_product_and_one_log(monkeypatch):
    d = main4_odd(3, 2)
    pot = shifted_potential(canonical_potential(d), RationalBump(d.normals[0], d.normals[1]))
    ys = np.array(interior_points(d, 4, seed=7))
    calls = _count_calls(monkeypatch)
    logs = Counter()
    log = np.log

    def counted_log(*args, **kwargs):
        logs["log"] += 1
        return log(*args, **kwargs)

    monkeypatch.setattr(np, "log", counted_log)
    eval_potential(pot, ys)
    assert dict(calls) == {"_levels": 1, "_value": 1, "_grad": 1, "_hess": 1}
    assert logs == {"log": 1}


def _inversion_potentials(d):
    """The canonical and a pairing-adapted potential of d, bare or shifted by
    one extra term of each kind."""
    xi = tuple(a + b for a, b in zip(canonical_reeb(d), d.normals[0]))
    extras = [
        (0.7, RationalBump(d.normals[0], d.normals[1], c=canonical_reeb(d))),
        (0.4, RationalBump(0, 2)),
        (-0.3, QuadraticCoordinate(1)),
        (1.5, LinearTerm([0.2, -0.4, 0.9], 0.3)),
    ]
    bases = [canonical_potential(d), canonical_xi_potential(d, xi)]
    return bases + [shifted_potential(b, g, c) for b in bases for c, g in extras]


@st.composite
def inversion_stacks(draw):
    """(potential, targets, starts, tol, max_iter) on a family member or a
    shear of one, for a stack of 1 to 12 rows (the benchmark grid's height)
    or one point.  Each row's start is its answer (converged at the start),
    a scaling of it by 1/20 .. 30 (full steps that leave the domain, or that
    must backtrack), or a point near an extreme ray, on the boundary's edge.
    tol = 0 leaves every row searching at the rounding floor, where no step
    lowers the residual and the line search stalls; a few steps leave rows
    unconverged."""
    d = draw(st.sampled_from(FAMILY))
    if draw(st.booleans()):
        d = transform_normals(d, random_sl3(draw(st.randoms(use_true_random=False))))
    pot = draw(st.sampled_from(_inversion_potentials(d)))
    m = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    answers = np.array(interior_points(d, m, seed=seed))
    rays = extreme_rays(d)
    starts = []
    for y in answers:
        kind = draw(st.sampled_from(["answer", "scaled", "ray"]))
        if kind == "answer":
            starts.append(y)
        elif kind == "scaled":
            starts.append(y * draw(st.sampled_from([0.05, 0.3, 2.0, 7.0, 30.0])))
        else:
            ray = np.array(draw(st.sampled_from(rays)), dtype=float)
            starts.append(ray + draw(st.sampled_from([1e-3, 1e-2, 0.2])) * y)
    targets, starts = pot.grad(answers), np.array(starts)
    if m == 1 and draw(st.booleans()):  # one point, not a stack of one
        targets, starts = targets[0], starts[0]
    tol = draw(st.sampled_from([1e-12, 1e-13, 0.0]))
    max_iter = draw(st.sampled_from([100, 100, 4]))
    return pot, targets, starts, tol, max_iter


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(inversion_stacks())
def test_inversion_matches_the_oracle_bit_for_bit(case):
    pot, targets, starts, tol, max_iter = case
    kwargs = dict(y0=starts, tol=tol, max_iter=max_iter)
    with np.errstate(all="ignore"):
        got = _outcome(invert_gradient, pot, targets, **kwargs)
        want = _outcome(invert_gradient_oracle, pot, targets, **kwargs)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(potentials_with_reference())
def test_eval_potential_is_separate_value_grad_hess(case):
    pot, _, y = case
    for ys in (y, np.array([y, 1.5 * y, 0.7 * y])):
        sample = eval_potential(pot, ys)
        assert np.array_equal(sample.G, pot.value(ys))
        assert np.array_equal(sample.x, pot.grad(ys))
        assert np.array_equal(sample.hessG, pot.hess(ys))


@st.composite
def potentials_with_stacks(draw):
    """(potential, its per-term reference, a stack of interior points): the
    canonical potential of a family member or a shear of one, bare or
    shifted by one extra term."""
    d = draw(st.sampled_from(FAMILY))
    if draw(st.booleans()):
        d = transform_normals(d, random_sl3(draw(st.randoms(use_true_random=False))))
    extras = [
        None,
        (0.7, RationalBump(d.normals[0], d.normals[1], c=canonical_reeb(d))),
        (0.4, RationalBump(0, 2)),
        (0.3, QuadraticCoordinate(1)),
        (1.5, LinearTerm([0.2, -0.4, 0.9], 0.3)),
    ]
    extra = draw(st.sampled_from(extras))
    pot = canonical_potential(d)
    ref = loop_canonical(d)
    if extra is not None:
        pot = shifted_potential(pot, extra[1], extra[0])
        ref = LoopPotential(ref.entropy, [extra])
    m = draw(st.integers(1, 6))
    ys = np.array(interior_points(d, m, seed=draw(st.integers(0, 2**16))))
    return pot, ref, ys


def _level_spread(ref, y):
    """How far value, gradient and Hessian move when each level l = <lam, y>
    moves by its own rounding scale <|lam|, |y|>.

    A stack and a single point sum the levels in different orders, so a
    level that cancels differs by that much more than `ref.sizes` allows.
    """
    spread = [0.0, 0.0, 0.0]
    for w, lam in ref.entropy:
        lam = np.asarray(lam)
        level, scale = lam @ y, np.abs(lam) @ np.abs(y)
        spread[0] += abs(w) * abs(np.log(level) + 1) * scale
        spread[1] += abs(w) * scale / level * np.abs(lam)
        spread[2] += abs(w) * scale / level**2 * np.abs(np.outer(lam, lam))
    return spread


@settings(max_examples=100, deadline=None)
@given(potentials_with_stacks())
def test_batched_evaluation_equals_row_by_row(case):
    pot, ref, ys = case
    for k, name in enumerate(("value", "grad", "hess")):
        batch = getattr(pot, name)(ys)
        assert batch.shape == (len(ys),) + np.shape(getattr(pot, name)(ys[0]))
        for y, got in zip(ys, batch):
            size = ref.sizes(y)[k] + _level_spread(ref, y)[k]
            assert np.all(np.abs(got - getattr(pot, name)(y)) <= 1e-13 * size)


@settings(max_examples=50, deadline=None)
@given(potentials_with_stacks())
def test_batched_inversion_equals_per_row(case):
    pot, _, ys = case
    xs, starts = pot.grad(ys), ys * 1.1
    try:
        rows = np.array([invert_gradient(pot, x, y0=s) for x, s in zip(xs, starts)])
    except (StencilOutsideDomain, np.linalg.LinAlgError) as exc:
        with pytest.raises(type(exc)):
            invert_gradient(pot, xs, y0=starts)
        return
    batch = invert_gradient(pot, xs, y0=starts)
    assert batch.shape == ys.shape
    assert np.all(np.abs(batch - rows) <= 1e-11 * (1 + np.abs(rows)))
    assert np.all(np.abs(batch - ys) <= 1e-8 * (1 + np.abs(ys)))
