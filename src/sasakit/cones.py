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

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import wraps
from math import gcd

from .errors import (
    DegenerateCone,
    EmptyInterior,
    NonPrimitiveNormal,
    NotNormalized,
    RedundantNormal,
)
from .lattice import (
    IntMatrix,
    IntVector,
    Record,
    _as_int_vector,
    _saturated,
    invariant_factors,
    rref,
)


class ToricDiagram(Record):
    """Integer facet normals of a rational polyhedral cone of full rank."""

    rank: int
    normals: tuple[IntVector, ...]

    @property
    def d(self) -> int:
        return len(self.normals)

    def __iter__(self):
        return iter(self.normals)


class FaceDescriptor(Record):
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


def _kept_on_diagram(fn):
    """Memoize fn(diagram) in the diagram's __dict__, so it lives as long as the diagram."""
    @wraps(fn)
    def memo(diagram):
        if fn.__name__ not in diagram.__dict__:
            diagram.__dict__[fn.__name__] = fn(diagram)
        return diagram.__dict__[fn.__name__]
    return memo


@_kept_on_diagram
def elimination(diagram: ToricDiagram):
    """`rref` of [N | I], N the rank x d matrix whose columns are the normals: the
    one fraction-free elimination behind the rank, gamma and the kernel basis."""
    identity = IntMatrix.identity(diagram.rank).entries
    return rref([n + e for n, e in zip(zip(*diagram.normals), identity)], diagram.d)


@_kept_on_diagram
def height_covector(diagram: ToricDiagram) -> tuple[Fraction, ...] | None:
    """gamma with <gamma, lambda_i> = -1 for every normal, or None.

    (-1, ..., -1) is in the row space of N exactly when the reduced rows
    sum to (1, ..., 1), i.e. the pivot rows to scale * (1, ..., 1).  The sum
    of their identity block, divided by -scale, is then gamma: no second solve.
    """
    rows, pivots, scale, _ = elimination(diagram)
    sums = [sum(col) for col in zip(*rows[: len(pivots)])]
    if any(s != scale for s in sums[: diagram.d]):
        return None
    return tuple(Fraction(-s, scale) for s in sums[diagram.d :])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b) -> IntVector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# --- Gordan's alternative (exact) --------------------------------------------

def _gordan_witness(normals, rank):
    """y with <lambda_i, y> >= 1 for every normal, or None when 0 is a convex
    combination of the normals: Gordan's alternative, decided exactly.

    Phase 1 of the simplex method on sum mu_i (lambda_i, 1) = (0, ..., 0, 1),
    mu >= 0, from one artificial per row, under Bland's rule with no
    artificial re-entering, so it cannot cycle.  Each basis B is solved by one
    `rref` of [B | A | I | b], whose identity block is scale * B^-1.  At a
    positive optimum the prices pi = c_B B^-1 pair to at most 0 with every
    column (lambda_i, 1) and to pi[rank] > 0 with b, so y = -pi[:rank] / pi[rank].
    """
    m, d = rank + 1, len(normals)
    cols = [*((*lam, 1) for lam in normals), *IntMatrix.identity(m).entries]
    basis = list(range(d, d + m))  # the artificials are columns d, ..., d + rank
    while True:
        rows, _, scale, _ = rref(zip(*(cols[j] for j in basis), *cols, (0,) * rank + (1,)), m)
        sign = -1 if scale < 0 else 1
        # c_B [I | B^-1 A | B^-1 | B^-1 b], times |scale|: the artificial rows' sums
        priced = [sign * sum(c) for c in zip(*(r for r, j in zip(rows, basis) if j >= d))]
        if not priced or priced[-1] == 0:
            return None
        enter = next((j for j in range(d) if priced[m + j] > 0), None)
        if enter is None:
            pi = priced[m + d : m + d + m]
            return tuple(Fraction(-p, pi[rank]) for p in pi[:rank])
        leave = min(
            (i for i in range(m) if sign * rows[i][m + enter] > 0),
            key=lambda i: (Fraction(rows[i][-1], rows[i][m + enter]), basis[i]),
        )
        basis[leave] = enter


@_kept_on_diagram
def interior_point(diagram: ToricDiagram):
    """A rational point y with <y, lambda_i> >= 1 for every normal.

    -gamma, pairing to exactly 1, when the height covector exists; otherwise
    `_gordan_witness` decides, raising EmptyInterior.
    """
    gamma = height_covector(diagram)
    if gamma is not None:
        return tuple(-g for g in gamma)
    w = _gordan_witness(diagram.normals, diagram.rank)
    if w is None:
        raise EmptyInterior()
    return w


# --- validation --------------------------------------------------------------

def validate_diagram(normals, rank: int | None = None) -> ToricDiagram:
    """Check primitivity, distinctness, nonempty interior and strong convexity.

    Raises NonPrimitiveNormal, RedundantNormal, EmptyInterior or
    DegenerateCone, in that order; the rank is read from `elimination`.
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
        if gcd(*v) != 1:  # the zero vector has gcd 0
            raise NonPrimitiveNormal(i, v)
    seen = {}
    for i, v in enumerate(vecs):
        if v in seen:
            raise RedundantNormal(i, v)
        seen[v] = i
    diagram = ToricDiagram(rank=m1, normals=tuple(vecs))
    interior_point(diagram)  # raises EmptyInterior
    found = len(elimination(diagram)[1])
    if found < m1:
        raise DegenerateCone(m1, found)
    return diagram


# --- face skeleton at rank 3 --------------------------------------------------

class ConeSkeleton(Record):
    """Extreme rays and the facet cycle of a rank-3 cone.

    rays: primitive generators, in cyclic order; active[j] is the set of
    normal indices vanishing on rays[j].  rays[i] is shared by the facets of
    facet_cycle[i] and facet_cycle[i+1] (cyclically).  The cycle starts at
    its smallest index and runs counterclockwise: det(lambda_c0, lambda_c1,
    sum of its normals) > 0.  Normals in `grazing` touch the cone only along
    a ray; normals in `empty` touch it only at the apex.  gcds[i] is the gcd
    of the cross product of facet_cycle[i] and facet_cycle[i+1], which
    divided by it is rays[i].  Computed by `cone_skeleton` from one convex
    hull.
    """

    rays: tuple[IntVector, ...]
    active: tuple[frozenset, ...]
    facet_cycle: tuple[int, ...]
    grazing: tuple[int, ...]
    empty: tuple[int, ...]
    gcds: tuple[int, ...]


def _hull_chain(normals, order):
    """One half of Andrew's monotone chain over `order`, strict left turns only.

    The sort is just a sweep of the plane; the integer det3 test, written out
    inline, alone fixes the orientation.  Each index is pushed once and popped
    at most once, so the chain makes at most 2 len(order) turn tests.
    """
    out = []
    for i in order:
        x, y, z = normals[i]
        while len(out) >= 2:
            (a0, a1, a2), (b0, b1, b2) = normals[out[-2]], normals[out[-1]]
            if (a1 * b2 - a2 * b1) * x + (a2 * b0 - a0 * b2) * y + (a0 * b1 - a1 * b0) * z > 0:
                break
            out.pop()
        out.append(i)
    return out


@_kept_on_diagram
def cone_skeleton(diagram: ToricDiagram) -> ConeSkeleton:
    """The skeleton from one exact convex hull of the normals.

    Seen from the interior witness w, the normals are points of the plane
    <w, y> = 1; their hull vertices are the true facets and its edges the
    extreme rays, whichever the witness.  Cost: the witness of validation
    (-gamma, or one `rref` per simplex basis without a height covector), an
    O(d log d) sort of integer chart keys (without a height covector,
    Fractions from one pairing with w per normal), at most 4d integer det3
    tests for the hull (`_hull_chain`), and for each normal off the hull two
    bisections and at most four integer dot products with rays.  Each edge's
    ray is lambda_i x lambda_j over its gcd, kept for `is_good` and `torsion`.
    """
    if diagram.rank != 3:
        raise ValueError("face enumeration is implemented for rank 3 only")
    normals = diagram.normals
    w = interior_point(diagram)
    k = next(i for i, x in enumerate(w) if x != 0)
    a, b = (k + 1) % 3, (k + 2) % 3  # w_k != 0: these two coordinates chart the plane
    if height_covector(diagram) is not None:  # w = -gamma pairs to 1 with every normal
        keys = [(lam[a], lam[b]) for lam in normals]
    else:
        dots = [_dot(w, lam) for lam in normals]
        keys = [(lam[a] / t, lam[b] / t) for lam, t in zip(normals, dots)]

    order = sorted(range(len(normals)), key=keys.__getitem__)
    lower, upper = _hull_chain(normals, order), _hull_chain(normals, reversed(order))
    hull = lower[:-1] + upper[:-1]
    # counterclockwise, so det3(normals[c0], normals[c1], sum of hull normals) > 0
    first = hull.index(min(hull))
    facet_cycle = hull[first:] + hull[:first]
    # rays[i] is shared by facet_cycle[i] and facet_cycle[i+1]
    pairs = list(zip(facet_cycle, facet_cycle[1:] + facet_cycle[:1]))
    crosses = [_cross(normals[i], normals[j]) for i, j in pairs]
    # adjacent hull vertices are distinct primitive normals, never parallel: g > 0
    gcds = tuple(gcd(*c) for c in crosses)
    rays = [(x // g, y // g, z // g) for (x, y, z), g in zip(crosses, gcds)]
    active = [set(pair) for pair in pairs]
    # Both chains are monotone in the chart's x, so a normal off the hull can
    # lie only on the edges of each chain whose x-range holds its own x: at
    # most two, as two vertices of one chain share an x only at its ends.
    off_hull = sorted(set(range(len(normals))) - set(hull))
    grazing = set()
    for sign, ch, offset in ((1, lower, 0), (-1, upper, len(lower) - 1)):
        xs = [sign * keys[v][0] for v in ch]
        for n in off_hull:
            x = sign * keys[n][0]
            lo, hi = bisect_left(xs, x), bisect_right(xs, x)
            for j in range(max(lo - 1, 0), min(hi, len(ch) - 1)):  # edge j joins ch[j], ch[j+1]
                pos = (offset + j - first) % len(hull)
                if _dot(rays[pos], normals[n]) == 0:
                    active[pos].add(n)
                    grazing.add(n)
    return ConeSkeleton(
        rays=tuple(rays),
        active=tuple(map(frozenset, active)),
        facet_cycle=tuple(facet_cycle),
        grazing=tuple(sorted(grazing)),
        empty=tuple(n for n in off_hull if n not in grazing),
        gcds=gcds,
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
    ray_of = {i: ray for ray, act in zip(sk.rays, sk.active) for i in act}
    for i in sk.grazing:  # a grazing normal is active on exactly one ray
        faces.append(FaceDescriptor(kind="facet", indices=(i,), witness=ray_of[i]))
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


@_kept_on_diagram
def torsion(diagram: ToricDiagram) -> IntVector:
    """Invariant factors of Z^rank / span(normals): pi1 and the kernel torus's
    component group.

    At rank 3, an edge of the facet cycle whose c = lambda_i x lambda_j is
    primitive decides it in O(d): <c, .> maps Z^3 onto Z with kernel the
    saturated span(lambda_i, lambda_j), so the quotient is Z/g with
    g = gcd_k <c, lambda_k>.  Every good diagram has such an edge; the first
    is the first whose kept gcd (`ConeSkeleton.gcds`) is 1, and its ray is c.
    Without one the group need not be cyclic ((1,0,0), (1,2,0), (1,0,2)
    gives Z/2 x Z/2), and the transform-free Smith diagonal of the normals
    decides, as it does at other ranks.
    """
    if diagram.rank == 3:
        sk = cone_skeleton(diagram)
        for (c0, c1, c2), edge_gcd in zip(sk.rays, sk.gcds):
            if edge_gcd == 1:
                g = gcd(*(c0 * x + c1 * y + c2 * z for x, y, z in diagram.normals))
                return (g,) if g > 1 else ()
    return invariant_factors(IntMatrix.from_columns(diagram.normals))


# --- goodness ----------------------------------------------------------------

class GoodnessReport(Record):
    good: bool
    failing_face: tuple[int, ...] | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.good


def is_good(diagram: ToricDiagram, faces=None) -> GoodnessReport:
    """Decide the lattice condition on every nonempty proper face.

    For each face, the normals vanishing on it must be linearly independent
    over Z and span a saturated sublattice.  At rank 3 the faces are found
    automatically and only the edges are checked: a validated normal is
    primitive, so a facet's one normal always spans a saturated line.  Cost
    at rank 3: `cone_skeleton` (its edges' index sets, in the order of
    `enumerate_faces_3d`, with no face list built) and no arithmetic for an
    edge of two normals, which is saturated iff the gcd of their cross
    product (`ConeSkeleton.gcds`) is 1.  An edge of more normals takes one
    `_saturated` test.  The first failing edge in facet-cycle order is
    reported, whatever its size.  At other ranks the caller supplies `faces`
    as index sets.
    """
    normals = diagram.normals
    if faces is None:
        if diagram.rank != 3:
            raise ValueError("supply a face list for ranks other than 3")
        sk = cone_skeleton(diagram)
        for act, g in zip(sk.active, sk.gcds):
            saturated = g == 1 if len(act) == 2 else _saturated([normals[i] for i in sorted(act)])
            if not saturated:
                return _not_saturated(tuple(sorted(act)))
        return GoodnessReport(good=True)
    for f in faces:
        idxs = tuple(sorted(f))
        if not _saturated([normals[i] for i in idxs]):
            return _not_saturated(idxs)
    return GoodnessReport(good=True)


def _not_saturated(face: tuple[int, ...]) -> GoodnessReport:
    reason = "normals on this face are not a saturated independent set"
    return GoodnessReport(good=False, failing_face=face, reason=reason)


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
