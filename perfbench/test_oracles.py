"""Tests of the benchmark's own oracles against hand values.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import itertools
import random
from fractions import Fraction

import pytest

import gen
import oracle


def test_octant_volume_is_one_sixth_at_one_one_one():
    e = oracle.expect([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert e.gamma == (-1, -1, -1) and e.height == 1
    assert oracle.msy_volume(e, (Fraction(1),) * 3) == Fraction(1, 6)
    # the simplex y >= 0, y1 + 2 y2 + 3 y3 <= 1 has volume 1/36
    assert oracle.msy_volume(e, (Fraction(1), Fraction(2), Fraction(3))) == Fraction(1, 36)


def test_octant_minimizer_is_critical():
    e = oracle.expect([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    _, tangential = oracle.msy_slice_gradient(e, (1.0, 1.0, 1.0))
    assert max(abs(t) for t in tangential) < 1e-15
    _, tangential = oracle.msy_slice_gradient(e, (0.5, 1.0, 1.5))
    assert max(abs(t) for t in tangential) > 0.1


def test_z5_lens_has_pi1_z5():
    e = oracle.expect(gen.z5_lens())
    assert e.good and e.height == 1 and e.pi1 == (5,)


@pytest.mark.parametrize("r", [1, 2, 3, 6, 18])
def test_main4_is_simply_connected_with_b2_2r_and_2r_minus_1(r):
    even, odd = oracle.expect(gen.main4_even(r, 1)), oracle.expect(gen.main4_odd(r, 2))
    assert even.good and odd.good
    assert even.pi1 == () and odd.pi1 == ()
    assert even.d - 3 == 2 * r and odd.d - 3 == 2 * r - 1


def test_lens_height_and_pi1():
    e = oracle.expect(gen.lens(4))
    assert e.height == 4 and e.gamma == (-1, -1, Fraction(1, 4)) and e.pi1 == (4,)


def test_parabola_is_not_good_at_its_long_edge():
    e = oracle.expect(gen.parabola(3))
    assert not e.good
    bad = [pos for pos, r in enumerate(e.rays) if oracle.vgcd(r) != 1]
    assert len(bad) == 1
    a, b = e.cycle[bad[0]], e.cycle[(bad[0] + 1) % e.d]
    assert {e.normals[a][1], e.normals[b][1]} == {-3, 3}


def test_verdicts_are_shear_invariant():
    rng = random.Random(5)
    for base in (gen.main4_odd(3, 1), gen.parabola(4), gen.z5_lens(), gen.lens(3)):
        want = oracle.expect(base)
        for _ in range(10):
            got = oracle.expect(gen.apply(gen.random_shear(rng, steps=6), base))
            assert (got.good, got.pi1, got.height) == (want.good, want.pi1, want.height)


def _triangulated_volume(normals, b):
    """Volume of {y in C : <y, b> <= 1} as a fan of simplices, in Fractions."""
    e = oracle.expect(normals)
    caps = [[Fraction(x) / oracle.dot(r, b) for x in r] for r in e.rays]
    return sum(
        abs(oracle.det3(caps[0], caps[j], caps[j + 1])) for j in range(1, len(caps) - 1)
    ) / 6


def test_closed_form_matches_triangulation():
    rng = random.Random(9)
    for base in (gen.main4_even(2, 1), gen.main4_odd(3, 2), gen.random_good_polygon(rng, 7)):
        normals = gen.apply(gen.random_shear(rng), base)
        e = oracle.expect(normals)
        for xi in ([Fraction(sum(col)) for col in zip(*normals)],
                   [Fraction(3 * sum(col), 2) + Fraction(1, 7) for col in zip(*normals)]):
            assert oracle.msy_volume(e, xi) == _triangulated_volume(normals, xi)


def test_invariant_factors_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(3)
    cases = [gen.z5_lens(), gen.lens(6), [(1, 0, 0), (1, 2, 1), (1, 3, 4), (1, 1, 1)]]
    cases += [gen.random_good_polygon(rng, k) for k in (3, 4, 5, 6)]
    for normals in cases:
        m = sympy.Matrix([list(col) for col in zip(*normals)])
        want = tuple(int(abs(x)) for x in invariant_factors(m) if abs(x) not in (0, 1))
        assert oracle.invariant_factors(normals) == want


def test_random_polygons_are_good_and_strictly_convex():
    rng = random.Random(1)
    for k in itertools.chain(range(3, 10), range(3, 10)):
        e = oracle.expect(gen.random_good_polygon(rng, k))
        assert e.good and e.d == k


def test_potential_closed_form_dual_value():
    e = oracle.expect(gen.lens(2))
    y = [0.3, 0.2, 0.1]
    (G, _), *x, (F, _) = oracle.canonical_potential(e, y)
    assert F == pytest.approx(sum(a * b for a, (b, _) in zip(y, x)) - G, rel=1e-12)
