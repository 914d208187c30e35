import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sasakit import (
    UnboundedRegion,
    compute_gamma,
    is_good,
    lens,
    main4_even,
    main4_odd,
    minimize_volume,
    topology_report,
    truncated_polytope,
    validate_diagram,
    volume,
    z5_lens,
)
from sasakit import reeb
from sasakit.cli import RESTART_OFFSETS
from sasakit.cones import cone_skeleton
from sasakit.lattice import IntMatrix
from sasakit.reeb import _fan, _reduced_frame, _round_div
from sasakit.serialize import format_float

from helpers import (
    fan_oracle,
    minimize_volume_bb,
    minimize_volume_oracle,
    nullspace,
    octant,
    random_convex_height1_diagram,
    random_sl3,
    reduced_frame_oracle,
    transform_normals,
    ypq,
    ypq_reeb_oracle,
)

# a det-1 shear of the pentagon (0,0),(1,1),(2,4),(1,3),(0,1), on which an
# absolute gradient stop ran into its iteration cap
FAULT_PENTAGON = [[1, -3, -3], [4, -5, -11], [13, -13, -35], [10, -11, -27], [4, -6, -11]]

# the fixed shear of tests/test_golden.py
GOLDEN_SHEAR = IntMatrix.from_rows([[1, 0, 0], [1, 1, 0], [2, -1, 1]])
SMALL_D = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "small_d.json").read_text()
)["entries"]


def test_truncated_octant_unit_simplex():
    poly = truncated_polytope(octant(), (Fraction(1), Fraction(1), Fraction(1)))
    assert poly.vertices[0] == (0, 0, 0)
    assert set(poly.cap_vertices) == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }


def test_truncated_octant_scaled():
    poly = truncated_polytope(octant(), (Fraction(2), Fraction(1), Fraction(1)))
    assert set(poly.cap_vertices) == {
        (Fraction(1, 2), 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }


def test_truncated_vertices_satisfy_three_equalities():
    d = lens(2)
    xi = (Fraction(2), Fraction(2), Fraction(2))
    poly = truncated_polytope(d, xi)
    planes = [tuple(lam) for lam in d.normals]
    for v in poly.cap_vertices:
        prods = [sum(a * b for a, b in zip(v, lam)) for lam in planes]
        assert all(p >= 0 for p in prods)
        active = sum(1 for p in prods if p == 0)
        slice_hit = sum(a * b for a, b in zip(v, xi)) == 1
        assert active >= 2 and slice_hit
    # the apex saturates every facet inequality
    assert all(
        sum(a * b for a, b in zip(poly.vertices[0], lam)) == 0 for lam in planes
    )


def test_truncated_unbounded_outside_reeb_cone():
    with pytest.raises(UnboundedRegion):
        truncated_polytope(octant(), (1, 0, 0))
    with pytest.raises(UnboundedRegion):
        volume(octant(), (1, -1, 1))


def test_volume_octant_exact():
    assert volume(octant(), (Fraction(1), Fraction(1), Fraction(1))) == Fraction(1, 6)
    assert volume(octant(), (Fraction(2), Fraction(1), Fraction(1))) == Fraction(1, 12)


def test_volume_homogeneity_exact():
    d = lens(2)
    base = volume(d, (Fraction(2), Fraction(2), Fraction(2)))
    for t in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
        scaled = volume(d, tuple(t * Fraction(2) for _ in range(3)))
        assert scaled == base / t**3


def test_volume_homogeneity_float():
    d = z5_lens()
    xi = np.array([3.0, 5.0, 5.0])
    base = volume(d, tuple(xi))
    for t in (0.5, 2.0, 3.7):
        assert volume(d, tuple(t * xi)) == pytest.approx(base / t**3, rel=1e-10)


def test_volume_monte_carlo_oracle():
    d = lens(2)
    xi = (2.0, 2.0, 2.0)
    exact = float(volume(d, (Fraction(2), Fraction(2), Fraction(2))))
    rng = np.random.default_rng(42)
    n = 1_200_000
    pts = rng.uniform([0, 0, -0.5], [1, 1, 0.5], size=(n, 3))
    normals = np.array(d.normals, dtype=float)
    inside = np.all(pts @ normals.T >= 0, axis=1) & (pts @ np.array(xi) <= 1)
    estimate = inside.mean() * 1.0  # box volume is 1
    assert abs(estimate - exact) / exact < 0.005
    assert volume(d, xi) == pytest.approx(exact, rel=1e-12)


def test_volume_midpoint_convexity():
    d = lens(3)
    cy = compute_gamma(d)
    rng = np.random.default_rng(5)
    from sasakit import canonical_reeb
    frame = np.array([[float(x) for x in b] for b in nullspace([list(cy.gamma)])]).T
    x0 = np.array([float(x) for x in canonical_reeb(d)])
    assert cy.pairing(tuple(Fraction(int(v)) for v in x0)) == -3
    count = 0
    while count < 100:
        a = x0 + frame @ rng.uniform(-0.7, 0.7, 2)
        b = x0 + frame @ rng.uniform(-0.7, 0.7, 2)
        try:
            va, vb = volume(d, tuple(a)), volume(d, tuple(b))
            vm = volume(d, tuple((a + b) / 2))
        except UnboundedRegion:
            continue
        assert vm <= (va + vb) / 2 + 1e-12
        count += 1


def test_volume_barrier_growth():
    d = octant()
    # approach the boundary of the Reeb cone along a fixed ray
    vols = []
    for eps in (0.5, 0.1, 0.02, 0.004, 0.0008):
        vols.append(volume(d, (eps, 1.0, 1.0)))
    assert all(a < b for a, b in zip(vols, vols[1:]))


def test_minimize_octant():
    d = octant()
    cy = compute_gamma(d)
    res = minimize_volume(d, cy)
    assert res.converged
    assert max(abs(x - 1.0) for x in res.xi.xi) < 1e-6
    assert abs(res.volume - 1 / 6) < 1e-9
    assert res.grad_norm < 1e-8


def test_minimize_lens1_matches_transformed_octant():
    # the lens diagram at height 1 is the octant in another lattice basis;
    # the minimizer must be the image of (1,1,1) under that basis change
    d = lens(1)
    cy = compute_gamma(d)
    m = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    expected = m.mul_vector((1, 1, 1))  # = (2, 2, 1)
    res = minimize_volume(d, cy)
    assert max(abs(a - b) for a, b in zip(res.xi.xi, expected)) < 1e-6
    assert abs(res.volume - 1 / 6) < 1e-9


def test_minimize_two_optimizers_agree():
    for d in (octant(), lens(2), z5_lens(), main4_even(1, 0), main4_odd(1, 0)):
        cy = compute_gamma(d)
        a = minimize_volume(d, cy)
        b = minimize_volume_bb(d, cy, start_offset=[0.3, -0.2])
        assert a.converged and b.converged
        assert max(abs(x - y) for x, y in zip(a.xi.xi, b.xi.xi)) < 1e-6
        assert a.grad_norm < 1e-8


def test_minimizer_slice_constraint():
    d = main4_even(1, 0)
    cy = compute_gamma(d)
    res = minimize_volume(d, cy)
    pairing = sum(float(g) * x for g, x in zip(cy.gamma, res.xi.xi))
    assert abs(pairing + 3) < 1e-12 * 3


def test_minimizer_first_order_condition_finite_differences():
    d = z5_lens()
    cy = compute_gamma(d)
    res = minimize_volume(d, cy)
    xi = np.array(res.xi.xi)
    kernel = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # gamma = (-1, 0, 0)
    h = 1e-5
    for k in range(2):
        e = kernel[:, k]
        deriv = (volume(d, tuple(xi + h * e)) - volume(d, tuple(xi - h * e))) / (2 * h)
        assert abs(deriv) < 1e-6


def test_volume_gradient_matches_finite_differences():
    # grad and Hessian of log V in the reduced slice coordinates, against
    # central differences of the exact volume at the mapped-back point
    for d in (z5_lens(), transform_normals(main4_odd(2, 1), random_sl3(random.Random(3)))):
        rays, dets, (b1, x0, y0), back, _ = _reduced_frame(d)

        def log_v(x, y):
            xi = [sum(c * t for c, t in zip(row, (b1, x, y))) for row in back.entries]
            return math.log(volume(d, xi))

        for x, y in ((x0, y0), (x0 + 0.2, y0 - 0.1)):
            val, grad, (hxx, hxy, hyy) = _fan(rays, dets, x, y)
            assert math.log(val) == pytest.approx(log_v(x, y), rel=1e-12)
            h = 1e-4
            fd = ((log_v(x + h, y) - log_v(x - h, y)) / (2 * h),
                  (log_v(x, y + h) - log_v(x, y - h)) / (2 * h))
            assert fd == pytest.approx(grad, abs=1e-7)
            f0 = log_v(x, y)
            fd_xx = (log_v(x + h, y) - 2 * f0 + log_v(x - h, y)) / h**2
            fd_yy = (log_v(x, y + h) - 2 * f0 + log_v(x, y - h)) / h**2
            fd_xy = (log_v(x + h, y + h) - log_v(x + h, y - h)
                     - log_v(x - h, y + h) + log_v(x - h, y - h)) / (4 * h * h)
            assert (fd_xx, fd_xy, fd_yy) == pytest.approx((hxx, hxy, hyy), rel=1e-4, abs=1e-6)


def test_minimize_infeasible_slice():
    from sasakit import InfeasibleSlice
    from sasakit.cy import CalabiYauData

    bogus = CalabiYauData(gamma=(Fraction(1), Fraction(0), Fraction(0)), height=1)
    with pytest.raises(InfeasibleSlice):
        minimize_volume(octant(), bogus)


def test_frame_is_kept_on_the_diagram_and_checks_every_cy():
    # the frame is built from the diagram's own gamma and kept on it; a cy
    # that is not the diagram's own still raises, after the frame exists
    from sasakit import InfeasibleSlice
    from sasakit.cy import CalabiYauData

    d = transform_normals(main4_odd(3, 2), random_sl3(random.Random(4)))
    cy = compute_gamma(d)
    first = minimize_volume(d, cy)
    frame = d.__dict__["_reduced_frame"]
    for bogus in (
        CalabiYauData(gamma=tuple(-g for g in cy.gamma), height=cy.height),
        CalabiYauData(gamma=cy.gamma, height=2 * cy.height),
        CalabiYauData(gamma=(Fraction(-1), Fraction(0), Fraction(0)), height=1),
    ):
        with pytest.raises(InfeasibleSlice):
            minimize_volume(d, bogus)
    # an equal cy built elsewhere (as a loaded "gamma" is) reads the same frame
    equal = CalabiYauData(gamma=cy.gamma, height=cy.height)
    again = minimize_volume(d, equal, start_offset=[0.1, -0.2])
    assert d.__dict__["_reduced_frame"] is frame
    scale = max(abs(x) for x in first.xi.xi)
    assert again.converged
    assert max(abs(a - b) for a, b in zip(first.xi.xi, again.xi.xi)) <= 1e-9 * scale


@pytest.mark.parametrize("exponent", [3, 5, 6, 9, 12, 15])
def test_sheared_octant_ladder(exponent):
    n = 10**exponent
    shear = IntMatrix.from_rows([[1, 0, 0], [n, 1, 0], [0, n + 1, 1]])
    d = transform_normals(octant(), shear)
    res = minimize_volume(d, compute_gamma(d))
    assert res.converged
    assert res.volume == 1 / 6
    expected = shear.mul_vector((1, 1, 1))
    assert all(abs(x - e) <= 1e-15 * abs(e) for x, e in zip(res.xi.xi, expected))


def _equivariance_corpus():
    rng = random.Random(11)
    base = [lens(1), lens(2), lens(5), z5_lens(), main4_even(2, 1), main4_even(3, 2),
            main4_odd(2, 0), main4_odd(4, 3)]
    while len(base) < 20:
        d = random_convex_height1_diagram(rng)
        if d is not None:
            base.append(d)
    return [(d, random_sl3(rng)) for d in base for _ in range(2)]


def test_minimizer_is_shear_equivariant():
    for d, m in _equivariance_corpus():
        a = minimize_volume(d, compute_gamma(d))
        sheared = transform_normals(d, m)
        b = minimize_volume(sheared, compute_gamma(sheared))
        assert a.converged and b.converged
        assert format_float(b.volume) == format_float(a.volume), d.normals
        assert b.iterations == a.iterations, d.normals
        mapped = [sum(c * x for c, x in zip(row, a.xi.xi)) for row in m.entries]
        scale = max(abs(x) for x in mapped)
        assert max(abs(x - y) for x, y in zip(b.xi.xi, mapped)) <= 1e-12 * scale, d.normals


YPQ_CASES = [(p, q) for p in range(2, 13) for q in range(1, p)] + [
    (10**3, 7), (10**6, 1), (10**9, 12345), (10**12, 3), (10**15, 10**15 - 1),
]


@pytest.mark.parametrize("p, q", YPQ_CASES)
def test_ypq_minimizer_matches_the_closed_form(p, q):
    # Martelli-Sparks's Y^{p,q} volume and Reeb vector, as given and under two
    # shears, xi mapped back exactly; the worst readings were 2.7e-16 (V) and
    # 6.4e-14 (xi), where Newton's 1e-13 decrement, not rounding, bounds xi
    rng = random.Random(p % 1009 + q % 1013)
    volume_, xi = ypq_reeb_oracle(p, q)
    for m in (IntMatrix.identity(3), random_sl3(rng), random_sl3(rng)):
        d = transform_normals(ypq(p, q), m)
        res = minimize_volume(d, compute_gamma(d))
        assert res.converged
        assert abs(res.volume - volume_) <= 1e-14 * volume_
        with mpmath.workdps(60):
            back = [mpmath.fsum(c * mpmath.mpf(x) for c, x in zip(row, res.xi.xi))
                    for row in m.inverse_unimodular().entries]
            assert max(abs(x - e) for x, e in zip(back, xi)) <= 1e-12 * max(xi)
        if p <= 12:
            g = math.gcd(p, q)
            assert is_good(d).good
            assert topology_report(d).pi1_invariant_factors == ((g,) if g > 1 else ())
            assert topology_report(d).b2 == 1


def test_fault_pentagon_converges():
    d = validate_diagram(FAULT_PENTAGON)
    res = minimize_volume(d, compute_gamma(d))
    assert res.converged and res.iterations <= 5
    unsheared = validate_diagram([(1, p, q) for p, q in [(0, 0), (1, 1), (2, 4), (1, 3), (0, 1)]])
    assert res.volume == pytest.approx(minimize_volume(unsheared, compute_gamma(unsheared)).volume,
                                       rel=1e-13)


def test_restarts_agree():
    rng = random.Random(5)
    for d, _ in _equivariance_corpus()[::3] + [(validate_diagram(FAULT_PENTAGON), None)]:
        cy = compute_gamma(d)
        base = minimize_volume(d, cy)
        scale = max(abs(x) for x in base.xi.xi)
        for _ in range(3):
            other = minimize_volume(d, cy, start_offset=[rng.uniform(-0.5, 0.5) for _ in range(2)])
            assert other.converged
            assert max(abs(x - y) for x, y in zip(base.xi.xi, other.xi.xi)) <= 1e-9 * scale


def test_each_start_takes_one_fan_pass(monkeypatch):
    # Newton starts from the pass of the cyclic sum that accepted the
    # (halved) offset, so no start point is evaluated twice
    calls = []

    def recorded(rays, dets, x, y):
        out = _fan(rays, dets, x, y)
        calls.append(((x, y), out is None))
        return out

    monkeypatch.setattr(reeb, "_fan", recorded)
    d = transform_normals(main4_odd(3, 2), random_sl3(random.Random(3)))
    cy = compute_gamma(d)
    halvings = []
    for offset in (None, (0.3, -0.2), (80.0, -60.0)):
        calls.clear()
        result = minimize_volume(d, cy, start_offset=offset)
        assert result.converged
        k = next(i for i, (_, outside) in enumerate(calls) if not outside)
        assert [p for p, _ in calls].count(calls[k][0]) == 1
        halvings.append(k)
    assert halvings[0] == halvings[1] == 0 < halvings[2]


def _damped(monkeypatch, refuse):
    """minimize_volume on main4_odd(3, 2) from the offset (0.3, -0.2), with `_fan`
    passed through `refuse(call index, its result)`; also returns the points
    `_fan` was called at."""
    calls = []

    def patched(rays, dets, x, y):
        calls.append((x, y))
        return refuse(len(calls) - 1, _fan(rays, dets, x, y))

    monkeypatch.setattr(reeb, "_fan", patched)
    d = main4_odd(3, 2)
    return minimize_volume(d, compute_gamma(d), start_offset=(0.3, -0.2)), calls


def test_a_refused_trial_halves_the_step_once(monkeypatch):
    # call 0 is the start and call 1 the first full step: refused, the step
    # halves once and Newton still lands on the unpatched minimizer
    d = main4_odd(3, 2)
    plain = minimize_volume(d, compute_gamma(d), start_offset=(0.3, -0.2))
    res, calls = _damped(monkeypatch, lambda k, out: None if k == 1 else out)
    (x0, y0), (x1, y1) = calls[:2]
    assert calls[2] == pytest.approx(((x0 + x1) / 2, (y0 + y1) / 2), rel=1e-12)
    assert res.converged and res.iterations == 5
    scale = max(abs(x) for x in plain.xi.xi)
    assert max(abs(a - b) for a, b in zip(res.xi.xi, plain.xi.xi)) <= 1e-12 * scale


def test_a_stalled_line_search_stops_unconverged(monkeypatch):
    # every trial refused: the step halves from 1 past 1e-20 (67 trials after
    # the start) and the search gives up without raising
    res, calls = _damped(monkeypatch, lambda k, out: out if k == 0 else None)
    assert not res.converged and res.iterations == 0
    assert len(calls) == 68


def test_a_non_positive_hessian_stops_unconverged(monkeypatch):
    # negated, the Hessian keeps its positive determinant: hxx <= 0 alone stops
    def negated(k, out):
        v, g, (hxx, hxy, hyy) = out
        return v, g, (-hxx, hxy, -hyy)

    res, calls = _damped(monkeypatch, negated)
    assert not res.converged and res.iterations == 0
    assert len(calls) == 1


def test_fan_is_none_where_the_last_ray_pairs_non_positively():
    # the last ray's pairing is tested before anything is divided by it
    rays, dets, (_, x, y), _, _ = _reduced_frame(main4_odd(3, 2))
    c, p, q = rays[-1]
    k = 2 * (c + p * x + q * y) / (p * p + q * q)
    # a point on that ray's wall, and the start reflected through the wall
    for x, y in ((-c / p, 0.0), (x - k * p, y - k * q)):
        assert c + p * x + q * y <= 0
        assert _fan(rays, dets, x, y) is None


@st.composite
def frame_diagrams(draw):
    """Family members, plain, under the golden shear or a random_sl3 shear,
    and sampled perfbench/small_d.json entries."""
    source = draw(st.sampled_from(["family", "small-d"]))
    if source == "small-d":
        return validate_diagram(draw(st.sampled_from(SMALL_D))["normals"])
    build = draw(st.sampled_from([
        lambda: lens(draw(st.integers(1, 12))),
        z5_lens,
        lambda: main4_even(draw(st.integers(1, 12)), draw(st.integers(0, 6))),
        lambda: main4_odd(draw(st.integers(1, 19)), draw(st.integers(0, 6))),
    ]))
    d = build()
    shear = draw(st.sampled_from(["none", "golden", "random"]))
    if shear == "golden":
        return transform_normals(d, GOLDEN_SHEAR)
    if shear == "random":
        return transform_normals(d, random_sl3(random.Random(draw(st.integers(0, 10**6)))))
    return d


@settings(max_examples=150, deadline=None)
@given(frame_diagrams())
def test_reduced_frame_equals_the_fraction_oracle(d):
    # the int-only frame matches the frame written with Fraction rounding,
    # IntMatrix.from_rows and a cross product per determinant, field for
    # field with float ==: the same floats, so the same Newton bytes
    new = _reduced_frame(d)
    old = reduced_frame_oracle(validate_diagram(d.normals))
    assert new[0] == old[0]
    assert new[1] == old[1]
    assert new[2] == old[2]
    assert new[3] == old[3] and all(type(x) is int for row in new[3].entries for x in row)
    assert new[4] == old[4]


_OFFSETS = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))


@settings(max_examples=100, deadline=None)
@given(frame_diagrams(), st.data())
def test_fan_and_minimizer_equal_their_reference_copies(d, data):
    # bit for bit (repr tells -0.0 from 0.0): `_fan` against its six-name-carry
    # copy at the canonical start and at slice points around it, and every
    # MinimizationResult field against a tail that adds left to right from 0
    rays, dets, (_, x, y), _, _ = _reduced_frame(d)
    for dx, dy in [(0.0, 0.0), *data.draw(st.lists(_OFFSETS, min_size=1, max_size=4))]:
        new, old = _fan(rays, dets, x + dx, y + dy), fan_oracle(rays, dets, x + dx, y + dy)
        assert new == old and repr(new) == repr(old)
    cy = compute_gamma(d)
    for offset in (None, *RESTART_OFFSETS, data.draw(_OFFSETS)):
        new = minimize_volume(d, cy, start_offset=offset)
        old = minimize_volume_oracle(d, cy, start_offset=offset)
        assert new == old and repr(new) == repr(old), offset


def _det3(a, b, c):
    """det of the rows a, b, c by cofactors along a."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _cycle_triples(d):
    """(l_k-1, l_k, l_k+1) around the input's facet cycle."""
    ring = [d.normals[i] for i in cone_skeleton(d).facet_cycle]
    return list(zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1]))


@settings(max_examples=100, deadline=None)
@given(frame_diagrams(), st.data())
def test_cyclic_sum_is_the_exact_volume(d, data):
    # Martelli-Sparks-Yau in Fractions, at a rational xi = sum w_i l_i (w_i > 0,
    # so xi is in the open Reeb cone): with c_k = det(l_k-1, l_k, l_k+1) and
    # <xi, r_k> = det(xi, l_k, l_k+1), sum_k c_k / (<xi, r_k-1> <xi, r_k>)
    # / (-6 <gamma, xi>) is the fan volume; and the frame's dets are the c_k
    weights = data.draw(st.lists(
        st.fractions(Fraction(1, 20), 20, max_denominator=50), min_size=d.d, max_size=d.d
    ))
    xi = [sum(w * n[t] for w, n in zip(weights, d.normals)) for t in range(3)]
    triples = _cycle_triples(d)
    dets = [_det3(*triple) for triple in triples]
    s = sum(c / (_det3(xi, a, b) * _det3(xi, b, e)) for c, (a, b, e) in zip(dets, triples))
    pairing = sum(g * x for g, x in zip(compute_gamma(d).gamma, xi))
    assert s / (-6 * pairing) == volume(d, xi)
    assert _reduced_frame(d)[1] == [float(c) for c in dets]


def _charge_residual(d):
    """max |xi - (3/2) sum R_k l_k| / max |xi| at minimize_volume's xi, where
    R_k = 2 L_k / sum L and L_k = c_k / (det(xi, l_k-1, l_k) det(xi, l_k, l_k+1)),
    in the input basis and in Fractions of the float xi."""
    res = minimize_volume(d, compute_gamma(d))
    assert res.converged
    xi = [Fraction(x) for x in res.xi.xi]
    triples = _cycle_triples(d)
    charges = [_det3(a, b, e) / (_det3(xi, a, b) * _det3(xi, b, e)) for a, b, e in triples]
    total = sum(charges)
    mixed = [Fraction(3, 2) * sum(2 * c / total * b[t] for c, (_, b, _) in zip(charges, triples))
             for t in range(3)]
    return float(max(abs(x - m) for x, m in zip(xi, mixed)) / max(abs(x) for x in xi))


@settings(max_examples=60, deadline=None)
@given(frame_diagrams())
@example(transform_normals(main4_odd(19, 4), random_sl3(random.Random(3))))
def test_minimizer_is_rebuilt_from_its_r_charges(d):
    # Butti-Zaffaroni: at the minimum the R-charges R_k, which sum to 2,
    # rebuild xi = (3/2) sum R_k l_k; computed with no code of `_fan`
    assert _charge_residual(d) <= 1e-10


def test_catalogue_minimizers_are_rebuilt_from_their_r_charges():
    for entry in SMALL_D[::8]:
        assert _charge_residual(validate_diagram(entry["normals"])) <= 1e-10, entry["normals"]


@given(st.integers(-10**30, 10**30), st.integers(1, 10**12))
@example(-5, 2)  # a tie below zero goes to the even -2
@example(-7, 3)
@example(0, 7)
def test_round_div_is_fraction_rounding(a, b):
    assert _round_div(a, b) == round(Fraction(a, b))


@given(st.integers(-10**6, 10**6), st.integers(1, 1000))
def test_round_div_ties_go_to_even(k, b):
    # (2k + 1) b / (2 b) = k + 1/2, unreduced, lies halfway between k and k + 1
    assert _round_div((2 * k + 1) * b, 2 * b) == round(Fraction(2 * k + 1, 2))
