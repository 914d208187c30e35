import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sasakit import (
    CalabiYauData,
    InfeasibleSlice,
    compute_gamma,
    is_good,
    kernel_lattice,
    lens,
    main4_even,
    main4_odd,
    non_cy,
    normalize_height,
    validate_diagram,
    z5_lens,
)
from sasakit.lattice import IntMatrix

from helpers import (
    completion_oracle,
    kernel_lattice_oracle,
    normalized_normals_oracle,
    octant,
    random_convex_height1_diagram,
    random_sl3,
    transform_normals,
)


def test_gamma_lens_family():
    for ell in range(1, 11):
        cy = compute_gamma(lens(ell))
        assert cy is not None
        assert cy.gamma == (Fraction(-1), Fraction(-1), Fraction(1, ell))
        assert cy.height == ell


def test_gamma_octant():
    cy = compute_gamma(octant())
    assert cy.gamma == (Fraction(-1), Fraction(-1), Fraction(-1))
    assert cy.height == 1


def test_gamma_absent_for_four_normal_diagram():
    for ell in range(2, 7):
        assert compute_gamma(non_cy(ell)) is None


def test_gamma_pairs_to_minus_one_exactly():
    for d in (octant(), lens(3), z5_lens(), main4_even(2, 1)):
        cy = compute_gamma(d)
        for lam in d.normals:
            assert cy.pairing(lam) == -1


def test_height_is_minimal():
    for ell in range(1, 11):
        cy = compute_gamma(lens(ell))
        for k in range(1, cy.height):
            assert any((g * k).denominator != 1 for g in cy.gamma)


def test_z5_height_one():
    cy = compute_gamma(z5_lens())
    assert cy.height == 1
    assert cy.gamma == (Fraction(-1), Fraction(0), Fraction(0))


def test_normalize_contract_lens():
    for ell in (1, 2, 5):
        d = lens(ell)
        cy = compute_gamma(d)
        a, transformed = normalize_height(d, cy)
        assert a.det() == 1
        scaled = tuple(int(g * cy.height) for g in cy.gamma)
        assert a.mul_vector(scaled) == (-1, 0, 0)
        assert all(v[0] == ell for v in transformed.normals)
        # goodness survives the change of basis
        assert bool(is_good(transformed)) == bool(is_good(d))


def test_normalize_printed_matrix_agrees():
    # the fixed matrix below normalizes the lens diagrams for every height
    for ell in (1, 2, 3, 5):
        d = lens(ell)
        cy = compute_gamma(d)
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


HEIGHT_FAMILIES = (
    [lens(ell) for ell in (1, 2, 3, 7)]
    + [z5_lens(), main4_even(2, 1), main4_even(8, 3), main4_odd(3, 2), main4_odd(19, 4)]
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(HEIGHT_FAMILIES), st.integers(0, 2**32), st.integers(1, 12))
def test_normalize_height_matches_the_elimination_inverse(base, seed, shears):
    # the cofactor map of the rank-3 path against A's elimination inverse, and A
    # against the Smith-transform completion, exactly, on sheared family members
    d = transform_normals(base, random_sl3(random.Random(seed), shears=shears, max_c=9))
    cy = compute_gamma(d)
    a, transformed = normalize_height(d, cy)
    assert a == completion_oracle(tuple(int(g * cy.height) for g in cy.gamma))
    assert transformed.normals == normalized_normals_oracle(a, d.normals)


def test_normalize_height_at_other_ranks():
    # ranks 2 and 4 invert A by elimination
    for normals in ([(1, 0), (3, 1)], [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 1)]):
        d = validate_diagram(normals)
        cy = compute_gamma(d)
        a, transformed = normalize_height(d, cy)
        assert transformed.normals == normalized_normals_oracle(a, d.normals)
        assert all(v[0] == cy.height for v in transformed.normals)


def test_normalize_octant_height_one():
    d = octant()
    cy = compute_gamma(d)
    _, transformed = normalize_height(d, cy)
    assert all(v[0] == 1 for v in transformed.normals)


def test_normalize_height1_diagram_keeps_first_components():
    # gamma is already (-1, 0, 0), so the identity is a valid normalizer
    d = z5_lens()
    cy = compute_gamma(d)
    a, transformed = normalize_height(d, cy)
    assert all(v[0] == 1 for v in transformed.normals)
    assert a.mul_vector((-1, 0, 0)) == (-1, 0, 0)


def test_gamma_equivariance_under_normalization():
    for d in (lens(2), lens(5), z5_lens()):
        cy = compute_gamma(d)
        a, transformed = normalize_height(d, cy)
        cy2 = compute_gamma(transformed)
        expected = tuple(
            sum(Fraction(x) * g for x, g in zip(row, cy.gamma)) for row in a.entries
        )
        assert cy2.gamma == expected
        assert cy2.height == cy.height


def test_kernel_lattice_octant():
    d = octant()
    cy = compute_gamma(d)
    a, transformed = normalize_height(d, cy)
    kl = kernel_lattice(transformed)
    assert kl.rank == 0
    assert kl.component_group == ()


def test_kernel_lattice_four_normal_diagram():
    kl = kernel_lattice(non_cy(2))
    assert kl.rank == 1
    assert kl.component_group == ()


def test_kernel_lattice_main4_even():
    d = main4_even(1, 0)
    assert compute_gamma(d).height == 1
    kl = kernel_lattice(d)
    assert kl.rank == 2
    assert kl.component_group == ()


def test_kernel_lattice_normalized_lens():
    for ell in (2, 3, 5):
        d = lens(ell)
        cy = compute_gamma(d)
        _, transformed = normalize_height(d, cy)
        kl = kernel_lattice(transformed)
        assert kl.rank == 0
        assert kl.component_group == (ell,)


def test_kernel_lattice_same_on_loaded_and_normalized():
    # A^-T N is row-equivalent to N: same rref, kernel basis and invariant factors
    for d in _kernel_corpus():
        cy = compute_gamma(d)
        if cy is not None:
            assert kernel_lattice(normalize_height(d, cy)[1]) == kernel_lattice(d)


def test_kernel_basis_is_built_on_first_read():
    for d in _kernel_corpus():
        kl = kernel_lattice(d)
        assert kl.rank == d.d - 3 and "basis" not in kl.__dict__
        assert len(kl.basis) == kl.rank and kl.basis is kl.basis
        assert kl == kernel_lattice(d) and hash(kl) == hash(kernel_lattice(d))


def test_normalize_height_takes_only_the_diagrams_own_height_data():
    # computed once per diagram; an equal cy built elsewhere reads the same result
    d = lens(3)
    cy = compute_gamma(d)
    equal = CalabiYauData(gamma=cy.gamma, height=cy.height)
    assert normalize_height(d, equal) is normalize_height(d, cy)
    for bogus in (
        CalabiYauData(gamma=cy.gamma, height=1),
        CalabiYauData(gamma=(Fraction(-1),) * 3, height=1),
    ):
        with pytest.raises(InfeasibleSlice):
            normalize_height(d, bogus)


def test_kernel_basis_annihilated():
    d = main4_even(2, 3)
    kl = kernel_lattice(d)
    for b in kl.basis:
        combo = [
            sum(c * Fraction(v[k]) for c, v in zip(b, d.normals))
            for k in range(d.rank)
        ]
        assert all(x == 0 for x in combo)


def test_underdetermined_rejected_at_validation():
    from sasakit import DegenerateCone

    with pytest.raises(DegenerateCone):
        validate_diagram([(1, 0, 0), (0, 1, 0), (2, 1, 0)])


def _kernel_corpus():
    yield from (lens(ell) for ell in range(1, 6))
    yield z5_lens()
    yield from (non_cy(ell) for ell in range(2, 5))
    yield from (main4_even(r, k) for r, k in ((1, 0), (2, 1), (8, 3)))
    yield from (main4_odd(r, k) for r, k in ((1, 0), (3, 2), (19, 4)))
    rng = random.Random(11)
    count = 0
    while count < 20:
        d = random_convex_height1_diagram(rng)
        if d is not None:
            yield transform_normals(d, random_sl3(rng))
            count += 1


def test_kernel_lattice_matches_per_question_eliminations():
    # the diagram's one elimination against sympy's nullspace; the height
    # integrality flag, printed as the constant true by analyze --cy, holds
    # on every normalized diagram
    for d in _kernel_corpus():
        cy = compute_gamma(d)
        if cy is None:
            assert kernel_lattice(d).basis == kernel_lattice_oracle(d, 1)[0]
            continue
        _, transformed = normalize_height(d, cy)
        basis, flag = kernel_lattice_oracle(transformed, cy.height)
        assert kernel_lattice(transformed).basis == basis
        assert flag is True
