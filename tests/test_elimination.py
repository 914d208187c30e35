"""The one fraction-free (Bareiss) elimination and the determinant it gives,
the SNF, the transform-free invariant factors and sublattice saturation
against sympy and independent oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from sasakit.lattice import (
    IntMatrix,
    invariant_factors,
    kernel_basis_from_rref,
    rref,
    smith_normal_form,
    sublattice_saturation_equal,
)

from helpers import invariant_factors_via_minors, random_sl3, saturation_snf_oracle

ORACLE = settings(max_examples=120, deadline=None)


@st.composite
def int_matrices(draw, rows=st.integers(1, 5), cols=st.integers(1, 5), lo=-3, hi=3):
    m, n = draw(rows), draw(cols)
    entry = st.integers(lo, hi)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


def kernel_basis(a):
    rows, pivots, scale, _ = rref(a, len(a[0]))
    return kernel_basis_from_rref(rows, pivots, scale, len(a[0]))


@ORACLE
@given(int_matrices())
def test_rref_pivot_count_matches_sympy_rank(a):
    assert len(rref(a, len(a[0]))[1]) == sympy.Matrix(a).rank()


@ORACLE
@given(int_matrices())
def test_kernel_basis_is_annihilated_and_has_full_size(a):
    basis = kernel_basis(a)
    ncols = len(a[0])
    assert len(basis) == ncols - sympy.Matrix(a).rank()
    for vec in basis:
        assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in a)
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)


@ORACLE
@given(int_matrices(), st.integers(0, 2), st.randoms(use_true_random=False))
def test_rref_is_scale_times_sympy_rref_and_carries_the_augmented_block(a, extra, rng):
    m, n = len(a), len(a[0])
    b = [[rng.randint(-3, 3) for _ in range(extra)] for _ in a]
    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    rows, pivots, scale, sign = rref([r + s + e for r, s, e in zip(a, b, identity)], n)
    assert all(type(x) is int for row in rows for x in row)
    assert type(scale) is int and scale != 0 and sign in (1, -1)
    reduced, sympy_pivots = sympy.Matrix(a).rref()
    assert pivots == list(sympy_pivots)
    out = sympy.Matrix(rows)
    assert out[:, :n] == scale * reduced
    # the carried identity block is the row operation T: T @ [A | B] = rows
    t = out[:, n + extra:]
    assert t.det() != 0
    assert t * sympy.Matrix(a) == out[:, :n]
    if extra:
        assert t * sympy.Matrix(b) == out[:, n:n + extra]


@ORACLE
@given(st.integers(1, 5).flatmap(
    lambda n: int_matrices(rows=st.just(n), cols=st.just(n), lo=-2, hi=2)
).flatmap(st.permutations))
def test_det_matches_sympy(rows):
    # small entries make singular matrices common; permuted rows make odd swap counts
    assert IntMatrix.from_rows(rows).det() == sympy.Matrix(rows).det()


@pytest.mark.parametrize(
    "rows, swaps, det",
    [
        ([[0, 1], [1, 0]], 1, -1),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 1, -1),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2, 1),
        ([[0, 2, 1], [0, 4, 2], [3, 1, 1]], 1, 0),
    ],
)
def test_det_is_swap_sign_times_last_pivot(rows, swaps, det):
    _, pivots, scale, sign = rref(rows, len(rows))
    assert sign == (-1) ** swaps
    assert IntMatrix.from_rows(rows).det() == det == sympy.Matrix(rows).det()
    assert det == (sign * scale if len(pivots) == len(rows) else 0)


@st.composite
def degenerate_int_matrices(draw):
    """1-4 x 1-7 matrices, often with a zero row or column or a dependent row."""
    rows = draw(int_matrices(rows=st.integers(1, 4), cols=st.integers(1, 7), lo=-6, hi=6))
    kind = draw(st.sampled_from(["plain", "zero-row", "zero-col", "dependent"]))
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "zero-row":
        rows[i] = [0] * len(rows[0])
    elif kind == "zero-col":
        j = draw(st.integers(0, len(rows[0]) - 1))
        for r in rows:
            r[j] = 0
    elif kind == "dependent" and len(rows) > 1:
        k = draw(st.integers(0, len(rows) - 1).filter(lambda k: k != i))
        c = draw(st.integers(-3, 3))
        rows[i] = [c * x for x in rows[k]]
    return rows


@ORACLE
@given(st.one_of(
    int_matrices(rows=st.just(3), cols=st.integers(1, 7), lo=-6, hi=6),
    degenerate_int_matrices(),
))
def test_snf_invariant_factors_match_sympy(rows):
    m = IntMatrix.from_rows(rows)
    snf = smith_normal_form(m)
    expected = tuple(abs(int(x)) for x in sympy_invariant_factors(sympy.Matrix(rows)))
    assert snf.diagonal == expected
    torsion = tuple(x for x in expected if x not in (0, 1))
    assert snf.invariant_factors == torsion
    # the transform-free diagonalization and the minors oracle agree with it
    assert invariant_factors(m) == torsion
    assert tuple(invariant_factors_via_minors(rows)) == torsion


@ORACLE
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=3
        )
    )
)
def test_saturation_matches_full_snf_rule(vectors):
    # the transform-free diagonal against the Smith form with its transforms
    assert sublattice_saturation_equal(vectors) == saturation_snf_oracle(vectors)


@ORACLE
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=1, max_size=4
        )
    )
)
@example([[1, 0, 0]])
@example([[2, 0, 0]])
@example([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
@example([[1], [1]])
@example([[1, 2], [3, 4]])
def test_saturation_matches_sympy_smith_form(vectors):
    # k vectors in Z^n, n = 1..6, k = 1..4: saturated iff sympy's Smith form
    # of the n x k column matrix has k unit entries (so k <= n)
    diagonal = sympy_invariant_factors(sympy.Matrix(vectors).T)
    expected = sum(abs(int(x)) == 1 for x in diagonal) == len(vectors)
    assert sublattice_saturation_equal(vectors) == expected


def test_kernel_basis_is_pinned():
    # kernel_lattice returns these vectors: pivot columns are taken left to right
    basis = kernel_basis([[0, 2, 1, 3], [1, 1, 0, 2], [1, 3, 1, 5]])
    assert basis == [
        [Fraction(1, 2), Fraction(-1, 2), 1, 0],
        [Fraction(-1, 2), Fraction(-3, 2), 0, 1],
    ]


def test_rref_reports_pivot_columns_and_keeps_augmented_columns():
    # integer rows over the common pivot 6: the reduced rows are [1, 0, 2], [0, 1, 2]
    rows, pivots, scale, sign = rref([[0, 2, 4], [3, 0, 6]], 2)
    assert pivots == [0, 1]
    assert (rows, scale, sign) == ([[6, 0, 12], [0, 6, 12]], 6, -1)


def test_inverse_unimodular_on_random_sl3():
    rng = random.Random(5)
    for _ in range(20):
        m = random_sl3(rng)
        assert (m @ m.inverse_unimodular()).entries == IntMatrix.identity(3).entries


@pytest.mark.parametrize(
    "rows, det",
    [([[2, 0], [0, 1]], 2), ([[1, 2], [2, 4]], 0)],
)
def test_inverse_unimodular_rejects_other_determinants(rows, det):
    with pytest.raises(ValueError, match=f"det = {det}"):
        IntMatrix.from_rows(rows).inverse_unimodular()
