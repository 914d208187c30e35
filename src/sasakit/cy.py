"""Height structure of a toric diagram.

A diagram carries a height-l structure when a rational covector gamma pairs
to -1 with every normal and l is the least positive integer making l*gamma
a primitive lattice vector.  Detection is a pure rational-linear-algebra
question and is decided exactly: either gamma exists (and is unique, since
validated diagrams have full rank) or it does not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .cones import ToricDiagram, _cross, _kept_on_diagram, elimination, height_covector, torsion
from .errors import InfeasibleSlice
from .lattice import (
    IntMatrix,
    Record,
    complete_to_unimodular,
    is_primitive,
    kernel_basis_from_rref,
)
from .lattice import smith_normal_form  # noqa: F401  perfbench/tracing.py patches this name


class CalabiYauData(Record):
    """The covector gamma and its height l, with l*gamma primitive."""

    gamma: tuple[Fraction, ...]
    height: int

    def pairing(self, vector) -> Fraction:
        return sum(g * x for g, x in zip(self.gamma, vector))

    @cached_property
    def normalizer(self) -> IntMatrix:
        """A in SL(m+1, Z) with A(l*gamma) = (-1, 0, ..., 0): one Euclid pass on
        l*gamma (`complete_to_unimodular`), once per object."""
        return complete_to_unimodular(tuple(int(g * self.height) for g in self.gamma))


class KernelLattice(Record):
    """Kernel data of the torus map sending basis vectors to the normals.

    The basis is built on first read; equality compares basis and component
    group.
    """

    diagram: ToricDiagram
    component_group: tuple[int, ...]

    @cached_property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        rows, pivots, scale, _ = elimination(self.diagram)
        return tuple(map(tuple, kernel_basis_from_rref(rows, pivots, scale, self.diagram.d)))

    @property
    def rank(self) -> int:
        return self.diagram.d - len(elimination(self.diagram)[1])

    def __eq__(self, other):
        if not isinstance(other, KernelLattice):
            return NotImplemented
        return (self.basis, self.component_group) == (other.basis, other.component_group)

    def __hash__(self):
        return hash((self.basis, self.component_group))


@_kept_on_diagram
def compute_gamma(diagram: ToricDiagram) -> CalabiYauData | None:
    """Solve <gamma, lambda_i> = -1 for all i, exactly.

    Returns None when the system is inconsistent (no height structure);
    gamma comes from the diagram's one elimination.  The height is the lcm
    of the denominators of gamma, which makes height*gamma primitive.  Kept
    on the diagram.
    """
    gamma = height_covector(diagram)
    if gamma is None:
        return None
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
    cy must be the diagram's own height data (InfeasibleSlice otherwise):
    both are computed once per diagram and kept on it.
    """
    if cy != compute_gamma(diagram):
        raise InfeasibleSlice("not the diagram's own height data: no normalization slice")
    return _normalized(diagram)


@_kept_on_diagram
def _normalized(diagram: ToricDiagram) -> tuple[IntMatrix, ToricDiagram]:
    cy = compute_gamma(diagram)
    A = cy.normalizer
    if diagram.rank == 3:
        a0, a1, a2 = A.entries
        cof = (_cross(a1, a2), _cross(a2, a0), _cross(a0, a1))  # A^-T, as det A = 1
        new_normals = _map_normals(cof, diagram.normals)
    else:
        at_inv = A.inverse_unimodular().transpose()
        new_normals = tuple(map(at_inv.mul_vector, diagram.normals))
    assert all(v[0] == cy.height for v in new_normals)
    # a unimodular image of a validated diagram is valid: no second interior test
    return A, ToricDiagram(rank=diagram.rank, normals=new_normals)


def _map_normals(cof, normals):
    """cof @ v for each rank-3 normal v, unrolled."""
    (a, b, c), (d, e, f), (g, h, i) = cof
    return tuple((a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)
                 for x, y, z in normals)


def kernel_lattice(diagram: ToricDiagram) -> KernelLattice:
    """Kernel basis (free columns of the diagram's elimination, built on first
    read; the rank is d minus its pivot count) and component group (its
    `torsion`, kept on the diagram and read by `fundamental_group` too: one
    gcd pass over the normals at rank 3 when an edge is saturated).

    The normalized copy A^-T N of `normalize_height` is row-equivalent to N,
    so it has the same reduced rows, kernel basis and invariant factors.  Its
    first row is l(1, ..., 1), so l times the coordinate sum is always
    integral on the kernel and on preimages of the lattice generators.
    """
    return KernelLattice(diagram=diagram, component_group=torsion(diagram))
