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

    Small-scale Fourier-Motzkin over Fraction; adequate for the handful of
    variables and a few dozen constraints this package ever sees.
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


def interior_point(diagram: ToricDiagram):
    """A rational point strictly inside the cone."""
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
    if _fm_feasible([(v, 1) for v in vecs], m1) is None:
        raise EmptyInterior()
    found = rational_rank(vecs)
    if found < m1:
        raise DegenerateCone(m1, found)
    return ToricDiagram(rank=m1, normals=tuple(vecs))


# --- face skeleton at rank 3 --------------------------------------------------

@dataclass(frozen=True)
class ConeSkeleton:
    """Extreme rays and the facet cycle of a rank-3 cone.

    rays: primitive generators, in cyclic order; active[j] is the set of
    normal indices vanishing on rays[j].  rays[i] is shared by the facets of
    facet_cycle[i] and facet_cycle[i+1] (cyclically).  Normals in `grazing`
    touch the cone only along a ray; normals in `empty` touch it only at the
    apex.
    """

    rays: tuple[IntVector, ...]
    active: tuple[frozenset, ...]
    facet_cycle: tuple[int, ...]
    grazing: tuple[int, ...]
    empty: tuple[int, ...]


@lru_cache(maxsize=256)
def cone_skeleton(diagram: ToricDiagram) -> ConeSkeleton:
    if diagram.rank != 3:
        raise ValueError("face enumeration is implemented for rank 3 only")
    normals = diagram.normals
    rays: dict[IntVector, set] = {}
    for i, j in itertools.combinations(range(len(normals)), 2):
        v = _cross(normals[i], normals[j])
        if all(x == 0 for x in v):
            continue
        v = make_primitive(v)
        for cand in (v, tuple(-x for x in v)):
            prods = [_dot(cand, lam) for lam in normals]
            if all(p >= 0 for p in prods):
                rays[cand] = {k for k, p in enumerate(prods) if p == 0}
                break
    if len(rays) < 3:
        # a validated diagram always has at least 3 extreme rays
        raise DegenerateCone(3, 2)

    facet_rays: dict[int, list[IntVector]] = {}
    for r, act in rays.items():
        for i in act:
            facet_rays.setdefault(i, []).append(r)
    true_facets = {i for i, rs in facet_rays.items() if len(rs) == 2}
    grazing = tuple(sorted(i for i, rs in facet_rays.items() if len(rs) == 1))
    empty = tuple(sorted(set(range(len(normals))) - set(facet_rays)))

    # walk the polygon: every extreme ray joins exactly two true facets
    ray_facets = {
        r: sorted(i for i in act if i in true_facets) for r, act in rays.items()
    }
    assert all(len(fs) == 2 for fs in ray_facets.values())
    start = min(true_facets)
    first_ray = min(facet_rays[start])
    facet_cycle = [start]
    ray_cycle = [first_ray]
    while True:
        cur_facet = facet_cycle[-1]
        cur_ray = ray_cycle[-1]
        nxt_facet = next(i for i in ray_facets[cur_ray] if i != cur_facet)
        if nxt_facet == start:
            break
        nxt_ray = next(r for r in facet_rays[nxt_facet] if r != cur_ray)
        facet_cycle.append(nxt_facet)
        ray_cycle.append(nxt_ray)
    # fix orientation: counterclockwise as seen from the dual interior point
    w = [0, 0, 0]
    for i in true_facets:
        w = [a + b for a, b in zip(w, normals[i])]
    if len(facet_cycle) >= 3:
        orient = _dot(_cross(normals[facet_cycle[0]], normals[facet_cycle[1]]), w)
        assert orient != 0
        if orient < 0:
            facet_cycle = [facet_cycle[0]] + facet_cycle[:0:-1]
            ray_cycle.reverse()
    # ray_cycle[i] is the ray shared by facet_cycle[i] and facet_cycle[i+1]
    return ConeSkeleton(
        rays=tuple(ray_cycle),
        active=tuple(frozenset(rays[r]) for r in ray_cycle),
        facet_cycle=tuple(facet_cycle),
        grazing=grazing,
        empty=empty,
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

    Walking the cyclic (p, q) loop, each step must be a primitive lattice
    vector: it moves by 1 in one coordinate or by a coprime pair of nonzero
    amounts.
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
