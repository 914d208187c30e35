"""Rational polyhedral cones presented by facet normals.

A diagram is a list of primitive integer normals cutting out the cone
C = {y : <y, lambda_i> >= 0}.  All verdicts here (validity, face structure,
goodness) are decided in exact arithmetic; no floating point is involved.

Non-minimal normal collections are accepted on purpose: a normal whose
halfspace is implied by the others cuts out an empty face and simply does
not participate in any face condition, but it still changes the quotient
data downstream, so it must survive validation.  Only literally duplicated
normal directions are rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    DegenerateCone,
    EmptyInterior,
    NonPrimitiveNormal,
    NotNormalized,
    RedundantNormal,
)
from .lattice import (
    IntVector,
    _as_int_vector,
    make_primitive,
    rational_rank,
    sublattice_saturation_equal,
    vector_gcd,
)


@dataclass(frozen=True)
class ToricDiagram:
    """Integer facet normals of a rational polyhedral cone of full rank."""

    rank: int
    normals: tuple[IntVector, ...]

    @property
    def d(self) -> int:
        return len(self.normals)

    def __iter__(self):
        return iter(self.normals)


@dataclass(frozen=True)
class FaceDescriptor:
    """A proper face, recorded by the normals vanishing on it.

    `witness` is a point in the relative interior of the face, or None when
    the face is empty (the cutting normal is implied by the others).
    """

    kind: str  # "facet" or "edge"
    indices: tuple[int, ...]
    witness: tuple[int, ...] | None

    @property
    def nonempty(self) -> bool:
        return self.witness is not None


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b) -> IntVector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# --- Fourier-Motzkin feasibility (exact) ------------------------------------

def _fm_feasible(constraints, nvars):
    """Witness for the system <c, y> >= r, or None if infeasible.

    Small-scale Fourier-Motzkin over Fraction.  It is the package's single
    interior test, at every rank, and runs once per diagram: `interior_point`
    caches it for validation and the rank-3 skeleton alike.
    """
    levels = [[(tuple(map(Fraction, c)), Fraction(r)) for c, r in constraints]]
    for k in range(nvars - 1, -1, -1):
        nxt = []
        lows, ups = [], []
        for c, r in levels[-1]:
            if c[k] > 0:
                lows.append((c, r))
            elif c[k] < 0:
                ups.append((c, r))
            else:
                nxt.append((c[:k], r))
        for (a, ra), (b, rb) in itertools.product(lows, ups):
            p, n = a[k], b[k]
            coeffs = tuple(p * b[j] - n * a[j] for j in range(k))
            nxt.append((coeffs, p * rb - n * ra))
        levels.append(nxt)
    if any(r > 0 for _, r in levels[-1]):
        return None
    witness = []
    for k in range(nvars):
        level = levels[nvars - 1 - k]  # constraints still involving y_k
        lo, hi = None, None
        for c, r in level:
            rest = r - sum(ci * wi for ci, wi in zip(c, witness))
            if c[k] > 0:
                bound = rest / c[k]
                lo = bound if lo is None else max(lo, bound)
            elif c[k] < 0:
                bound = rest / c[k]
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            witness.append(Fraction(0))
        elif hi is None:
            witness.append(lo + 1)
        elif lo is None:
            witness.append(hi - 1)
        else:
            witness.append((lo + hi) / 2)
    return witness


@lru_cache(maxsize=256)
def interior_point(diagram: ToricDiagram):
    """A rational point y with <y, lambda_i> >= 1 for every normal."""
    w = _fm_feasible([(lam, 1) for lam in diagram.normals], diagram.rank)
    if w is None:
        raise EmptyInterior()
    return tuple(w)


# --- validation --------------------------------------------------------------

def validate_diagram(normals, rank: int | None = None) -> ToricDiagram:
    """Check primitivity, distinctness, nonempty interior and strong convexity.

    Raises NonPrimitiveNormal, RedundantNormal, EmptyInterior or
    DegenerateCone; returns the validated diagram otherwise.
    """
    vecs = [_as_int_vector(v) for v in normals]
    if not vecs:
        raise ValueError("no normals given")
    m1 = len(vecs[0])
    if any(len(v) != m1 for v in vecs):
        raise ValueError("normals of unequal length")
    if rank is not None and rank != m1:
        raise ValueError(f"declared rank {rank} does not match normal length {m1}")
    for i, v in enumerate(vecs):
        if vector_gcd(v) != 1:  # the zero vector has gcd 0
            raise NonPrimitiveNormal(i, v)
    seen = {}
    for i, v in enumerate(vecs):
        if v in seen:
            raise RedundantNormal(i, v)
        seen[v] = i
    diagram = ToricDiagram(rank=m1, normals=tuple(vecs))
    interior_point(diagram)  # raises EmptyInterior
    found = rational_rank(vecs)
    if found < m1:
        raise DegenerateCone(m1, found)
    return diagram


# --- face skeleton at rank 3 --------------------------------------------------

@dataclass(frozen=True)
class ConeSkeleton:
    """Extreme rays and the facet cycle of a rank-3 cone.

    rays: primitive generators, in cyclic order; active[j] is the set of
    normal indices vanishing on rays[j].  rays[i] is shared by the facets of
    facet_cycle[i] and facet_cycle[i+1] (cyclically).  The cycle starts at
    its smallest index and runs counterclockwise: det(lambda_c0, lambda_c1,
    sum of its normals) > 0.  Normals in `grazing` touch the cone only along
    a ray; normals in `empty` touch it only at the apex.  Computed by
    `cone_skeleton` from one convex hull.
    """

    rays: tuple[IntVector, ...]
    active: tuple[frozenset, ...]
    facet_cycle: tuple[int, ...]
    grazing: tuple[int, ...]
    empty: tuple[int, ...]


@lru_cache(maxsize=256)
def cone_skeleton(diagram: ToricDiagram) -> ConeSkeleton:
    """The skeleton from one exact convex hull of the normals.

    Seen from the interior witness w, the normals are points of the plane
    <w, y> = 1; their hull vertices are the true facets and its edges the
    extreme rays.  Cost: one Fourier-Motzkin witness (shared with
    validation), an O(d log d) sort, and O(h*d) integer dot products for
    h extreme rays.
    """
    if diagram.rank != 3:
        raise ValueError("face enumeration is implemented for rank 3 only")
    normals = diagram.normals
    w = interior_point(diagram)
    k = next(i for i, x in enumerate(w) if x != 0)
    a, b = (k + 1) % 3, (k + 2) % 3  # w_k != 0: these two coordinates chart the plane

    def chart(i):
        s = _dot(w, normals[i])
        return normals[i][a] / s, normals[i][b] / s

    # Andrew's monotone chain, strict left turns only.  The sort is just a
    # sweep of the plane; the integer det3 test alone fixes the orientation.
    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2 and _dot(
                _cross(normals[out[-2]], normals[out[-1]]), normals[i]
            ) <= 0:
                out.pop()
            out.append(i)
        return out[:-1]

    order = sorted(range(len(normals)), key=chart)
    hull = chain(order) + chain(reversed(order))
    # counterclockwise, so det3(normals[c0], normals[c1], sum of hull normals) > 0
    first = hull.index(min(hull))
    facet_cycle = hull[first:] + hull[:first]
    # rays[i] is shared by facet_cycle[i] and facet_cycle[i+1]
    rays = [
        make_primitive(_cross(normals[i], normals[j]))
        for i, j in zip(facet_cycle, facet_cycle[1:] + facet_cycle[:1])
    ]
    active = [frozenset(n for n, lam in enumerate(normals) if _dot(r, lam) == 0) for r in rays]
    touching = set().union(*active)
    return ConeSkeleton(
        rays=tuple(rays),
        active=tuple(active),
        facet_cycle=tuple(facet_cycle),
        grazing=tuple(sorted(touching - set(hull))),
        empty=tuple(sorted(set(range(len(normals))) - touching)),
    )


def enumerate_faces_3d(diagram: ToricDiagram) -> list[FaceDescriptor]:
    """All proper faces of the rank-3 cone: facets first, then edges.

    Facets appear in cyclic order around the cone followed by any whose face
    is a single ray or empty; edges are the extreme rays between cyclically
    adjacent facets, each carrying the full set of normals vanishing on it.
    """
    sk = cone_skeleton(diagram)
    faces = []
    cycle = sk.facet_cycle
    for pos, i in enumerate(cycle):
        r1 = sk.rays[pos - 1]
        r2 = sk.rays[pos]
        witness = tuple(a + b for a, b in zip(r1, r2))
        faces.append(FaceDescriptor(kind="facet", indices=(i,), witness=witness))
    for i in sk.grazing:
        ray = next(r for r, act in zip(sk.rays, sk.active) if i in act)
        faces.append(FaceDescriptor(kind="facet", indices=(i,), witness=ray))
    for i in sk.empty:
        faces.append(FaceDescriptor(kind="facet", indices=(i,), witness=None))
    for ray, act in zip(sk.rays, sk.active):
        faces.append(
            FaceDescriptor(kind="edge", indices=tuple(sorted(act)), witness=ray)
        )
    return faces


def extreme_rays(diagram: ToricDiagram) -> tuple[IntVector, ...]:
    """Primitive generators of the extreme rays, in cyclic order."""
    return cone_skeleton(diagram).rays


# --- goodness ----------------------------------------------------------------

@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    failing_face: tuple[int, ...] | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.good


def is_good(diagram: ToricDiagram, faces=None) -> GoodnessReport:
    """Decide the lattice condition on every nonempty proper face.

    For each face, the normals vanishing on it must be linearly independent
    over Z and span a saturated sublattice.  At rank 3 the faces are found
    automatically; at other ranks the caller supplies `faces` as index sets.
    """
    if faces is None:
        if diagram.rank != 3:
            raise ValueError("supply a face list for ranks other than 3")
        face_sets = [
            f.indices for f in enumerate_faces_3d(diagram) if f.nonempty
        ]
    else:
        face_sets = [tuple(sorted(f)) for f in faces]
    for idxs in face_sets:
        vecs = [diagram.normals[i] for i in idxs]
        if not sublattice_saturation_equal(vecs):
            return GoodnessReport(
                good=False,
                failing_face=idxs,
                reason="normals on this face are not a saturated independent set",
            )
    return GoodnessReport(good=True)


def height1_points(diagram: ToricDiagram) -> list[tuple[int, int]]:
    """The (p, q) parts of normals (1, p, q), in the diagram's facet cycle order."""
    if diagram.rank != 3 or any(v[0] != 1 for v in diagram.normals):
        raise NotNormalized("diagram normals are not all of the form (1, p, q)")
    sk = cone_skeleton(diagram)
    if sk.grazing or sk.empty:
        raise ValueError("normals are not in strictly convex position")
    return [(diagram.normals[i][1], diagram.normals[i][2]) for i in sk.facet_cycle]


def is_good_height1_3d(diagram: ToricDiagram) -> bool:
    """Goodness of a height-1 diagram from consecutive vertex differences.

    Walking the cyclic (p, q) loop, each step (dp, dq) must be a primitive
    lattice vector, gcd(dp, dq) = 1.
    """
    pts = height1_points(diagram)
    return all(
        gcd(q[0] - p[0], q[1] - p[1]) == 1 for p, q in zip(pts, pts[1:] + pts[:1])
    )


def reeb_cone_contains(diagram: ToricDiagram, xi) -> bool:
    """True iff xi pairs strictly positively with every extreme ray."""
    rays = extreme_rays(diagram)
    return all(_dot(r, xi) > 0 for r in rays)


def canonical_reeb(diagram: ToricDiagram) -> IntVector:
    """The distinguished interior pairing vector: the sum of all normals."""
    return tuple(sum(col) for col in zip(*diagram.normals))
