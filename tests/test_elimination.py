"""The shared Fraction elimination, the SNF, the transform-free invariant
factors and sublattice saturation against sympy and independent oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from sasakit.lattice import (
    IntMatrix,
    invariant_factors,
    rational_kernel_basis,
    rational_rank,
    rref,
    smith_normal_form,
    solve_rational,
    sublattice_saturation_equal,
)

from helpers import invariant_factors_via_minors, random_sl3, saturation_snf_oracle

ORACLE = settings(max_examples=120, deadline=None)


@st.composite
def int_matrices(draw, rows=st.integers(1, 5), cols=st.integers(1, 5), lo=-3, hi=3):
    m, n = draw(rows), draw(cols)
    entry = st.integers(lo, hi)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@st.composite
def linear_systems(draw):
    """(A, b) with b in the column space of A about half the time."""
    a = draw(int_matrices())
    if draw(st.booleans()):
        x = [draw(st.integers(-3, 3)) for _ in a[0]]
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
    else:
        b = [draw(st.integers(-3, 3)) for _ in a]
    return a, b


@ORACLE
@given(int_matrices())
def test_rational_rank_matches_sympy(a):
    assert rational_rank(a) == sympy.Matrix(a).rank()


@ORACLE
@given(int_matrices())
def test_kernel_basis_is_annihilated_and_has_full_size(a):
    basis = rational_kernel_basis(a)
    ncols = len(a[0])
    assert len(basis) == ncols - sympy.Matrix(a).rank()
    for vec in basis:
        assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in a)
    if basis:
        assert rational_rank(basis) == len(basis)


@ORACLE
@given(linear_systems())
def test_solve_rational_matches_sympy_consistency(system):
    a, b = system
    x = solve_rational(a, b)
    try:
        sympy.Matrix(a).gauss_jordan_solve(sympy.Matrix(b))
        consistent = True
    except ValueError:
        consistent = False
    assert (x is not None) == consistent
    if x is not None:
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


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
def test_saturation_closed_forms_match_full_snf_rule(vectors):
    # 1 vector: gcd; 2 vectors: gcd of 2x2 minors; 3: transform-free diagonal
    assert sublattice_saturation_equal(vectors) == saturation_snf_oracle(vectors)


def test_kernel_basis_is_pinned():
    # the Reeb slice frame is built from these vectors, so their choice is
    # part of the float output: pivot columns are taken left to right
    basis = rational_kernel_basis([[0, 2, 1, 3], [1, 1, 0, 2], [1, 3, 1, 5]])
    assert basis == [
        [Fraction(1, 2), Fraction(-1, 2), 1, 0],
        [Fraction(-1, 2), Fraction(-3, 2), 0, 1],
    ]


def test_rref_reports_pivot_columns_and_keeps_augmented_columns():
    rows, pivots = rref([[0, 2, 4], [3, 0, 6]], 2)
    assert pivots == [0, 1]
    assert rows == [[1, 0, 2], [0, 1, 2]]


def test_solve_rational_free_variables_are_zero():
    assert solve_rational([[1, 1]], [3]) == [3, 0]
    assert solve_rational([[1, 1], [2, 2]], [1, 3]) is None


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
