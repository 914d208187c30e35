"""Height structure of a toric diagram.

A diagram carries a height-l structure when a rational covector gamma pairs
to -1 with every normal and l is the least positive integer making l*gamma
a primitive lattice vector.  Detection is a pure rational-linear-algebra
question and is decided exactly: either gamma exists (and is unique, since
validated diagrams have full rank) or it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cones import ToricDiagram
from .errors import NotNormalized
from .lattice import (
    IntMatrix,
    complete_to_unimodular,
    invariant_factors,
    is_primitive,
    kernel_basis_from_rref,
    rref,
    solve_rational,
)
from .lattice import smith_normal_form  # noqa: F401  perfbench/tracing.py patches this name


@dataclass(frozen=True)
class CalabiYauData:
    """The covector gamma and its height l, with l*gamma primitive."""

    gamma: tuple[Fraction, ...]
    height: int

    def pairing(self, vector) -> Fraction:
        return sum(g * x for g, x in zip(self.gamma, vector))

    @cached_property
    def normalizer(self) -> IntMatrix:
        """A in SL(m+1, Z) with A(l*gamma) = (-1, 0, ..., 0); one Smith transform per object."""
        return complete_to_unimodular(tuple(int(g * self.height) for g in self.gamma))

    @cached_property
    def normalizer_inverse_transpose(self) -> IntMatrix:
        """A^-T, which carries the normals to normalized ones; one inverse per object."""
        return self.normalizer.inverse_unimodular().transpose()


@dataclass(frozen=True)
class KernelLattice:
    """Kernel data of the torus map sending basis vectors to the normals."""

    basis: tuple[tuple[Fraction, ...], ...]
    component_group: tuple[int, ...]
    row_sum_times_height_integral: bool | None

    @property
    def rank(self) -> int:
        return len(self.basis)


def compute_gamma(diagram: ToricDiagram) -> CalabiYauData | None:
    """Solve <gamma, lambda_i> = -1 for all i, exactly.

    Returns None when the system is inconsistent (no height structure).
    The height is the lcm of the denominators of gamma; this automatically
    makes height*gamma primitive whenever integer normals admit a gamma.
    """
    gamma = solve_rational(diagram.normals, [-1] * diagram.d)
    if gamma is None:
        return None
    gamma = tuple(gamma)
    height = lcm(*(g.denominator for g in gamma)) if gamma else 1
    scaled = tuple(int(g * height) for g in gamma)
    assert is_primitive(scaled), "height*gamma must be primitive"
    return CalabiYauData(gamma=gamma, height=height)


def normalize_height(
    diagram: ToricDiagram, cy: CalabiYauData
) -> tuple[IntMatrix, ToricDiagram]:
    """Move gamma to (-1/l, 0, ..., 0) by a unimodular change of basis.

    Returns (A, transformed diagram) where A is in SL(m+1, Z), A*gamma has
    the normal form above, and every transformed normal (the inverse
    transpose acting on the original ones) has first component exactly l.
    """
    at_inv = cy.normalizer_inverse_transpose
    new_normals = [at_inv.mul_vector(v) for v in diagram.normals]
    assert all(v[0] == cy.height for v in new_normals)
    # a unimodular image of a validated diagram is valid: no second Fourier-Motzkin
    return cy.normalizer, ToricDiagram(rank=diagram.rank, normals=tuple(new_normals))


def kernel_lattice(
    diagram: ToricDiagram, cy: CalabiYauData | None = None
) -> KernelLattice:
    """Kernel basis, component group, and the height integrality condition.

    The component group (invariant factors of the quotient lattice by the
    span of the normals) never needs the height data.  The integrality
    condition does: with all first components equal to l it asks that l
    times the coordinate sum be an integer both on the kernel subspace and
    on rational preimages of the standard lattice generators.  Pass cy=None
    to skip it (the field is then None).  Once the normals are normalized
    the condition always holds: the first row of N (the rank x d matrix
    whose columns are the normals) is l(1, ..., 1), so l times the
    coordinate sum of x is (Nx)_1, which is 0 on the kernel and 0 or 1 on a
    preimage of e_k.  So only the normalization is checked.

    Cost: one Fraction elimination of N, whose free columns give the kernel
    basis, and the transform-free `invariant_factors` for the component
    group.
    """
    d = diagram.d
    rows, pivots = rref(list(zip(*diagram.normals)), d)
    basis = tuple(tuple(b) for b in kernel_basis_from_rref(rows, pivots, d))
    component_group = invariant_factors(IntMatrix.from_columns(diagram.normals))

    row_sum_ok: bool | None = None
    if cy is not None:
        ell = cy.height
        if any(v[0] != ell for v in diagram.normals):
            raise NotNormalized(
                "kernel integrality check requires normals with first component "
                f"{ell}; run normalize_height first"
            )
        row_sum_ok = True
    return KernelLattice(
        basis=basis,
        component_group=component_group,
        row_sum_times_height_integral=row_sum_ok,
    )
