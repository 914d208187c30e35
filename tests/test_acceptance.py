"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Each criterion is self-contained and uses independent oracles
where expected values are not pinned by hand.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from sasakit import (
    QuadraticCoordinate,
    RationalBump,
    canonical_potential,
    canonical_reeb,
    canonical_xi_potential,
    compute_gamma,
    eval_canonical_xi,
    fundamental_group,
    geodesic_equation_residual,
    is_good,
    is_good_height1_3d,
    legendre_roundtrip_error,
    lens,
    main4_even,
    main4_odd,
    minimize_volume,
    non_cy,
    second_betti,
    shifted_potential,
    smith_normal_form,
    volume,
    z5_lens,
)
from sasakit.lattice import IntMatrix
from sasakit.potentials import hessian_identity_error, reeb_invariance_residual
from sasakit.topology import area_invariant_times_2, convexity_and_span_check

from helpers import (
    interior_points,
    invariant_factors_via_minors,
    minimize_volume_bb,
    octant,
    random_convex_height1_diagram,
    random_height_preserving,
    random_sl3,
    transform_normals,
)

def corpus():
    return [
        octant(),
        lens(1),
        lens(2),
        lens(3),
        lens(5),
        z5_lens(),
        non_cy(2),
        main4_even(1, 0),
        main4_odd(1, 0),
        main4_odd(2, 2),
    ]


def cy_corpus():
    return [(d, compute_gamma(d)) for d in corpus() if compute_gamma(d) is not None]


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_01_lens_pipeline():
    t0 = time.perf_counter()
    for ell in range(1, 11):
        d = lens(ell)
        assert is_good(d).good
        cy = compute_gamma(d)
        assert cy.gamma == (Fraction(-1), Fraction(-1), Fraction(1, ell))
        assert cy.height == ell
        assert fundamental_group(d) == (() if ell == 1 else (ell,))
        # the printed normalizing matrix does the job for every height
        a = IntMatrix.from_rows([[0, 0, -1], [-1, 1, 0], [1, 0, ell]])
        assert a.det() == 1
        a_gamma = tuple(
            sum(Fraction(x) * g for x, g in zip(row, cy.gamma)) for row in a.entries
        )
        assert a_gamma == (Fraction(-1, ell), Fraction(0), Fraction(0))
        at_inv = a.inverse_unimodular().transpose()
        assert [at_inv.mul_vector(v) for v in d.normals] == [
            (ell, 0, 1),
            (ell, 1, 1),
            (ell, 1, 2),
        ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"lens pipeline took {elapsed:.3f}s"
    report(1, "lens pipeline, exact values and printed normalizer")


def test_criterion_02_obstructed_diagram():
    for ell in range(2, 7):
        d = non_cy(ell)
        assert is_good(d).good
        assert compute_gamma(d) is None
    report(2, "four-normal diagrams are good with no height covector")


def test_criterion_03_z5_diagram():
    d = z5_lens()
    assert is_good(d).good
    cy = compute_gamma(d)
    assert cy.height == 1
    assert fundamental_group(d) == (5,)
    # independent shoelace oracle on the declared vertices
    pts = [(0, 0), (2, 1), (3, 4)]
    twice = 0
    for k in range(3):
        x1, y1 = pts[k]
        x2, y2 = pts[(k + 1) % 3]
        twice += x1 * y2 - x2 * y1
    assert abs(twice) == 5
    assert area_invariant_times_2(d) == 5  # area 5/2
    report(3, "height-1 lens diagram: good, pi1 = Z_5, area 5/2")


def test_criterion_04_main4_suite():
    t0 = time.perf_counter()
    for r in range(1, 5):
        for family, gen, k in (("even", main4_even, 2 * r), ("odd", main4_odd, 2 * r - 1)):
            areas = []
            for s in range(6):
                d = gen(r, s)
                pts = [(p, q) for _, p, q in d.normals]
                assert is_good(d).good, (family, r, s)
                assert is_good_height1_3d(d), (family, r, s)
                assert convexity_and_span_check(pts), (family, r, s)
                assert fundamental_group(d) == (), (family, r, s)
                assert second_betti(d) == k, (family, r, s)
                areas.append(area_invariant_times_2(d))
            assert len(set(areas)) == 6, (family, r, areas)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"main4 suite took {elapsed:.3f}s"
    report(4, "both infinite families over the full parameter grid")


def test_criterion_05_goodness_criterion_equivalence():
    rng = random.Random(20240)
    tested = 0
    disagreements = 0
    while tested < 200:
        d = random_convex_height1_diagram(rng, max_coord=8, max_vertices=8)
        if d is None:
            continue
        if is_good_height1_3d(d) != bool(is_good(d)):
            disagreements += 1
        tested += 1
    assert disagreements == 0
    report(5, "difference criterion matches face-lattice goodness on 200 diagrams")


def test_criterion_06_snf_oracle():
    rng = random.Random(606)
    for trial in range(500):
        cols = 3 if trial % 2 == 0 else 5
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(3)]
        )
        snf = smith_normal_form(m)
        assert (snf.U @ m @ snf.V).entries == snf.D.entries
        assert abs(snf.U.det()) == 1 and abs(snf.V.det()) == 1
        diag = snf.diagonal
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    for _ in range(60):
        rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        m = IntMatrix.from_rows(rows)
        assert tuple(smith_normal_form(m).invariant_factors) == tuple(
            invariant_factors_via_minors(rows)
        )
    report(6, "normal form exactness on 500 matrices plus 2x2 oracle")


def test_criterion_07_reeb_minimization():
    t0 = time.perf_counter()
    d0 = octant()
    cy0 = compute_gamma(d0)
    res = minimize_volume(d0, cy0)
    assert max(abs(x - 1.0) for x in res.xi.xi) < 1e-6
    assert abs(res.volume - 1 / 6) < 1e-9

    rng = np.random.default_rng(707)
    for d, cy in cy_corpus():
        a = minimize_volume(d, cy)
        b = minimize_volume_bb(d, cy, start_offset=[0.3, -0.2])
        assert a.converged and b.converged, d.normals
        assert max(abs(x - y) for x, y in zip(a.xi.xi, b.xi.xi)) < 1e-6, d.normals
        assert a.grad_norm < 1e-8

        lams = np.array(d.normals, dtype=float)
        gamma = np.array([float(g) for g in cy.gamma])
        # homogeneity at 100 random interior pairing vectors
        for _ in range(100):
            xi = rng.uniform(0.1, 1.0, len(lams)) @ lams
            t = rng.uniform(0.3, 3.0)
            v1 = volume(d, tuple(xi))
            v2 = volume(d, tuple(t * xi))
            assert abs(v2 - v1 / t**3) <= 1e-10 * abs(v1 / t**3)
        # midpoint convexity on the normalization slice, 100 random pairs
        for _ in range(100):
            xi0 = rng.uniform(0.1, 1.0, len(lams)) @ lams
            xi1 = rng.uniform(0.1, 1.0, len(lams)) @ lams
            xi0 *= -3.0 / float(gamma @ xi0)
            xi1 *= -3.0 / float(gamma @ xi1)
            vm = volume(d, tuple((xi0 + xi1) / 2))
            assert vm <= (volume(d, tuple(xi0)) + volume(d, tuple(xi1))) / 2 + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"minimization suite took {elapsed:.3f}s"
    report(7, "volume minimization, optimizer agreement, convexity properties")


def test_criterion_08_potential_identities():
    for d in corpus():
        xi = tuple(a + b for a, b in zip(canonical_reeb(d), d.normals[0]))
        pot = canonical_xi_potential(d, xi)
        pts = interior_points(d, 100, seed=808)
        for y in pts:
            sample = eval_canonical_xi(d, xi, y)
            half_pairing = 0.5 * float(np.dot(xi, y))
            assert abs(sample.F - half_pairing) < 1e-9 * abs(half_pairing)
            assert legendre_roundtrip_error(pot, y) < 1e-9
        for y in pts[:20]:
            assert hessian_identity_error(pot, y) < 1e-6
    report(8, "dual value identity, inversion round trip, Hessian identity")


def test_criterion_09_geodesic_residuals():
    d = octant()
    g0 = canonical_potential(d)
    bump = RationalBump(0, 1)
    g1 = shifted_potential(g0, bump)
    y = (1.1, 0.8, 1.3)
    assert abs(geodesic_equation_residual(g0, g1, y, t=0.4, h=1e-3)) < 1e-4
    ladder = [
        abs(geodesic_equation_residual(g0, g1, y, t=0.4, h=h))
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    orders = [math.log2(a / b) for a, b in zip(ladder, ladder[1:])]
    assert min(orders) >= 1.8, (ladder, orders)
    assert reeb_invariance_residual(bump, np.array(y)) < 1e-6
    assert (
        reeb_invariance_residual(QuadraticCoordinate(0), np.array([1.0, 1.0, 1.0]))
        >= 0.1
    )
    report(9, "geodesic equation residual and pairing-vector invariance")


def test_criterion_10_invariance_suite():
    rng = random.Random(1010)
    for d in corpus():
        goodness = bool(is_good(d))
        pi1 = fundamental_group(d)
        has_gamma = compute_gamma(d) is not None
        for _ in range(50):
            m = random_sl3(rng)
            t = transform_normals(d, m)
            assert bool(is_good(t)) == goodness
            assert fundamental_group(t) == pi1
            assert (compute_gamma(t) is not None) == has_gamma
    for d in (z5_lens(), main4_even(1, 0), main4_even(2, 1), main4_odd(2, 2)):
        expected = area_invariant_times_2(d)
        for _ in range(50):
            m = random_height_preserving(rng)
            assert area_invariant_times_2(transform_normals(d, m)) == expected
    report(10, "verdicts invariant under lattice basis changes, area exactly")
