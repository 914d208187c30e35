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
from math import lcm

from .cones import ToricDiagram
from .errors import NotNormalized
from .lattice import (
    IntMatrix,
    complete_to_unimodular,
    is_primitive,
    rational_kernel_basis,
    smith_normal_form,
    solve_rational,
)


@dataclass(frozen=True)
class CalabiYauData:
    """The covector gamma and its height l, with l*gamma primitive."""

    gamma: tuple[Fraction, ...]
    height: int
    normalizer: IntMatrix | None = None

    def pairing(self, vector) -> Fraction:
        return sum(g * x for g, x in zip(self.gamma, vector))


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
    scaled = tuple(int(g * cy.height) for g in cy.gamma)
    A = complete_to_unimodular(scaled)
    at_inv = A.inverse_unimodular().transpose()
    new_normals = [at_inv.mul_vector(v) for v in diagram.normals]
    assert all(v[0] == cy.height for v in new_normals)
    # a unimodular image of a validated diagram is valid: no second Fourier-Motzkin
    return A, ToricDiagram(rank=diagram.rank, normals=tuple(new_normals))


def kernel_lattice(
    diagram: ToricDiagram, cy: CalabiYauData | None = None
) -> KernelLattice:
    """Kernel basis, component group, and the height integrality condition.

    The component group (invariant factors of the quotient lattice by the
    span of the normals) never needs the height data.  The integrality
    condition does: with all first components equal to l it asks that l
    times the coordinate sum be an integer both on the kernel subspace and
    on rational preimages of the standard lattice generators.  Pass cy=None
    to skip it (the field is then None).
    """
    matrix = [list(col) for col in zip(*diagram.normals)]  # rank x d, columns = normals
    basis = tuple(tuple(b) for b in rational_kernel_basis(matrix))
    snf = smith_normal_form(IntMatrix.from_columns(diagram.normals))
    component_group = snf.invariant_factors

    row_sum_ok: bool | None = None
    if cy is not None:
        ell = cy.height
        if any(v[0] != ell for v in diagram.normals):
            raise NotNormalized(
                "kernel integrality check requires normals with first component "
                f"{ell}; run normalize_height first"
            )
        # one rational preimage of each standard generator, free variables 0
        generators = IntMatrix.identity(diagram.rank).entries
        row_sum_ok = all(sum(b) == 0 for b in basis) and all(
            (ell * sum(solve_rational(matrix, e))).denominator == 1 for e in generators
        )
    return KernelLattice(
        basis=basis,
        component_group=component_group,
        row_sum_times_height_integral=row_sum_ok,
    )

