import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sasakit.lattice import (
    IntMatrix,
    _as_int_vector,
    complete_to_unimodular,
    is_primitive,
    smith_normal_form,
    sublattice_saturation_equal,
)

from helpers import (
    completion_oracle,
    invariant_factors_via_minors,
    make_primitive,
    saturation_box_oracle,
)


def test_as_int_vector_contract():
    # ints, integral floats and Fractions and bools come back as plain ints;
    # a generator is read once; a fraction or a string is a ValueError, None
    # a TypeError
    cases = [(1, -2, 3), (1.0, -2.0, 3.0), (True, False, 7), (Fraction(6, 2), 0, -1)]
    for v in cases:
        out = _as_int_vector(v)
        assert out == tuple(int(x) for x in v)
        assert all(type(x) is int for x in out)
    assert _as_int_vector(x for x in (4, 5.0, True)) == (4, 5, 1)
    assert _as_int_vector([]) == ()
    for bad in ((1, 1.5, 0), (1, "3", 0), (Fraction(1, 2),), (float("nan"), 0)):
        with pytest.raises(ValueError):
            _as_int_vector(bad)
    with pytest.raises(TypeError):
        _as_int_vector((1, None, 0))


def test_snf_identity():
    m = IntMatrix.identity(3)
    snf = smith_normal_form(m)
    assert snf.D.entries == m.entries
    assert snf.verify(m)


def test_snf_2x2_example():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    snf = smith_normal_form(m)
    assert snf.diagonal == (1, 6)
    assert snf.verify(m)


def brute_force_2x2_diagonal(m: IntMatrix, bound=3):
    """Search small unimodular U, V until U M V is a valid normal form."""
    unimodular = []
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if a * d - b * c in (1, -1):
            unimodular.append(IntMatrix.from_rows([[a, b], [c, d]]))
    for u in unimodular:
        for v in unimodular:
            p = u @ m @ v
            e = p.entries
            if e[0][1] == 0 and e[1][0] == 0 and e[0][0] >= 0 and e[1][1] >= 0:
                d1, d2 = e[0][0], e[1][1]
                if d1 == 0 and d2 != 0:
                    continue
                if d1 != 0 and d2 % d1 != 0:
                    continue
                return (d1, d2)
    raise AssertionError("no small unimodular pair found")


def test_snf_2x2_matches_brute_force_search():
    # matrices whose normal form is reachable with factor entries up to 3
    cases = [
        [[2, 0], [0, 3]],
        [[-2, 0], [-3, 1]],
        [[-2, -4], [2, 2]],
        [[-3, -3], [-2, 1]],
        [[-1, 1], [1, 1]],
        [[2, -3], [-1, -1]],
        [[3, 3], [2, -1]],
        [[0, 0], [0, 0]],
        [[4, 2], [0, 0]],
    ]
    for rows in cases:
        m = IntMatrix.from_rows(rows)
        assert smith_normal_form(m).diagonal == brute_force_2x2_diagonal(m)


def test_snf_2x2_random_against_minors_oracle():
    rng = random.Random(14)
    for _ in range(120):
        rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        m = IntMatrix.from_rows(rows)
        assert tuple(smith_normal_form(m).invariant_factors) == tuple(
            invariant_factors_via_minors(rows)
        )


@pytest.mark.parametrize("ell", [1, 2, 3, 5, 12])
def test_snf_lens_columns(ell):
    m = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0), (1, 1, ell)])
    snf = smith_normal_form(m)
    assert snf.diagonal == (1, 1, ell)
    assert snf.verify(m)


def test_snf_random_matrices_exact():
    rng = random.Random(6)
    for trial in range(500):
        rows = 3
        cols = 3 if trial % 2 == 0 else 5
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        snf = smith_normal_form(m)
        assert snf.verify(m), m.entries
        assert tuple(snf.invariant_factors) == tuple(
            invariant_factors_via_minors(m.entries)
        ), m.entries


def test_is_primitive_examples():
    assert is_primitive((1, 0, 0))
    assert not is_primitive((2, 4, 6))
    assert is_primitive((-1, 0, 0))
    with pytest.raises(ValueError):
        is_primitive((0, 0, 0))


def test_is_primitive_iff_snf_unit():
    rng = random.Random(11)
    for _ in range(100):
        v = tuple(rng.randint(-30, 30) for _ in range(3))
        if v == (0, 0, 0):
            continue
        column = IntMatrix.from_rows([[x] for x in v])
        d1 = smith_normal_form(column).diagonal[0]
        assert is_primitive(v) == (d1 == 1)


def test_complete_to_unimodular_fixed_cases():
    a = complete_to_unimodular((-1, 0, 0))
    assert a.mul_vector((-1, 0, 0)) == (-1, 0, 0)
    assert a.det() == 1

    # scaled covector of the lens diagram at ell = 2
    v = (-2, -2, 1)
    a = complete_to_unimodular(v)
    assert a.mul_vector(v) == (-1, 0, 0)
    assert a.det() == 1


def test_complete_to_unimodular_random_property():
    rng = random.Random(5)
    done = 0
    while done < 60:
        v = tuple(rng.randint(-50, 50) for _ in range(3))
        if v == (0, 0, 0):
            continue
        v = make_primitive(v)
        a = complete_to_unimodular(v)
        assert a.mul_vector(v) == (-1, 0, 0)
        assert a.det() == 1
        done += 1


COMPLETION_ENTRIES = st.sampled_from([0, 1, -1]) | st.integers(-(10**15), 10**15)


@settings(max_examples=200, deadline=None)
@given(st.lists(COMPLETION_ENTRIES, min_size=2, max_size=5))
@example([0, 0, 1])
@example([-1, 0, 0, 0, 0])
@example([10**15, 10**15 - 1])
def test_complete_to_unimodular_matches_the_smith_transform(entries):
    # one Euclid pass on the column gives exactly the old full-SNF completion
    g = gcd(*entries)
    assume(g != 0)
    v = tuple(x // g for x in entries)
    a = complete_to_unimodular(v)
    assert a == completion_oracle(v)
    assert a.mul_vector(v) == (-1,) + (0,) * (len(v) - 1)


def test_complete_to_unimodular_rejects_non_primitive():
    with pytest.raises(ValueError):
        complete_to_unimodular((2, 4, 6))
    with pytest.raises(ValueError):
        complete_to_unimodular((3,))


def test_saturation_examples():
    assert sublattice_saturation_equal([(1, 0, 0)])
    assert not sublattice_saturation_equal([(2, 0, 0)])
    assert sublattice_saturation_equal([(1, 0, 0), (1, 1, 3)])
    # dependent sets are rejected outright
    assert not sublattice_saturation_equal([(1, 0, 0), (2, 0, 0)])
    with pytest.raises(ValueError, match="different lengths"):
        sublattice_saturation_equal([(1, 0, 0), (0, 1)])
    with pytest.raises(ValueError, match="at least one nonempty vector"):
        sublattice_saturation_equal([])


def test_saturation_against_box_oracle():
    rng = random.Random(9)
    checked = 0
    while checked < 30:
        k = rng.choice([1, 2])
        vecs = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(k)]
        m = IntMatrix.from_columns(vecs) if all(any(v) for v in vecs) else None
        if m is None or smith_normal_form(m).rank != k:
            continue
        assert sublattice_saturation_equal(vecs) == saturation_box_oracle(vecs)
        checked += 1


def test_unimodular_inverse_roundtrip():
    m = IntMatrix.from_rows([[0, 0, -1], [-1, 1, 0], [1, 0, 2]])
    inv = m.inverse_unimodular()
    assert (m @ inv).entries == IntMatrix.identity(3).entries


def test_matrix_shape_errors():
    with pytest.raises(ValueError, match="nonempty"):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix.from_rows([[1, 0], [0]])
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="shape mismatch"):
        m @ m
    with pytest.raises(ValueError, match="shape mismatch"):
        m.mul_vector((1, 2))
    with pytest.raises(ValueError, match="non-square"):
        m.det()
