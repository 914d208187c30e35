"""Exception types shared across the package."""


class SasakitError(Exception):
    """Base class for all errors raised by this package."""


class DiagramError(SasakitError, ValueError):
    """Invalid toric diagram input."""


class NonPrimitiveNormal(DiagramError):
    def __init__(self, index: int, normal):
        self.index = index
        self.normal = tuple(normal)
        super().__init__(f"normal #{index} = {self.normal} is not primitive")


class RedundantNormal(DiagramError):
    def __init__(self, index: int, normal):
        self.index = index
        self.normal = tuple(normal)
        super().__init__(f"normal #{index} = {self.normal} duplicates another normal direction")


class EmptyInterior(DiagramError):
    def __init__(self):
        super().__init__("the cone cut out by the normals has empty interior")


class DegenerateCone(DiagramError):
    def __init__(self, rank: int, found: int):
        super().__init__(
            f"cone is not strongly convex: normals span rank {found} < {rank}"
        )


class WrongRank(DiagramError):
    """A diagram of another rank than its caller handles, refused before validation."""


class NotNormalized(SasakitError, ValueError):
    """Operation requires normals in first-component-equals-height form."""


class UnboundedRegion(SasakitError, ValueError):
    """Truncated region is unbounded; the pairing vector is not interior to the Reeb cone."""


class InfeasibleSlice(SasakitError, ValueError):
    """The normalization slice does not meet the open Reeb cone."""


class BoundaryOrOutside(SasakitError, ValueError):
    """Evaluation point is on the boundary of, or outside, the cone."""


class StencilOutsideDomain(BoundaryOrOutside):
    """A finite-difference stencil point left the evaluation domain."""


class MismatchedDiagrams(SasakitError, ValueError):
    """Two potentials built on different diagrams were combined."""
