"""sasakit: exact combinatorics and numerics of toric contact cones.

The package decides goodness of rational polyhedral cones given by facet
normals, detects height structures (the covector pairing to -1 with every
normal), computes topology invariants of the associated 5-manifolds,
minimizes the truncated-cone volume over the Reeb cone, and verifies the
Legendre/geodesic identities of torus-invariant symplectic potentials.
"""

__version__ = "0.1.0"

from .cones import (
    FaceDescriptor,
    GoodnessReport,
    ToricDiagram,
    canonical_reeb,
    enumerate_faces_3d,
    extreme_rays,
    interior_point,
    is_good,
    is_good_height1_3d,
    reeb_cone_contains,
    validate_diagram,
)
from .cy import CalabiYauData, KernelLattice, compute_gamma, kernel_lattice, normalize_height
from .errors import (
    BoundaryOrOutside,
    DegenerateCone,
    DiagramError,
    EmptyInterior,
    InfeasibleSlice,
    MismatchedDiagrams,
    NonPrimitiveNormal,
    NotNormalized,
    RedundantNormal,
    SasakitError,
    StencilOutsideDomain,
    UnboundedRegion,
)
from .families import lens, main4_even, main4_odd, non_cy, z5_lens
from .lattice import (
    IntMatrix,
    SnfDecomposition,
    complete_to_unimodular,
    invariant_factors,
    is_primitive,
    smith_normal_form,
    sublattice_saturation_equal,
)
from .reeb import (
    MinimizationResult,
    ReebVector,
    TruncatedPolytope,
    minimize_volume,
    truncated_polytope,
    volume,
)
from .topology import (
    TopologyReport,
    area_invariant,
    area_invariant_times_2,
    convexity_and_span_check,
    fundamental_group,
    identify_5d,
    second_betti,
    topology_report,
)

# numpy is the cost of importing these; PEP 562 defers it to the first use
_POTENTIALS = (
    "LinearTerm", "PotentialSample", "QuadraticCoordinate", "RationalBump",
    "SymplecticPotential", "canonical_potential", "canonical_xi_potential", "eval_canonical",
    "eval_canonical_xi", "geodesic_equation_residual", "geodesic_segment", "invert_gradient",
    "legendre", "legendre_roundtrip_error", "reeb_invariance_residual", "shifted_potential",
)

__all__ = sorted([n for n in dir() if not n.startswith("_")] + ["potentials", *_POTENTIALS])


def __getattr__(name):
    if name == "potentials" or name in _POTENTIALS:
        from importlib import import_module

        # not `from . import potentials`: that asks this hook for the module again
        potentials = import_module(".potentials", __name__)
        return potentials if name == "potentials" else getattr(potentials, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
