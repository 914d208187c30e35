import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from sasakit import (
    DegenerateCone,
    EmptyInterior,
    NonPrimitiveNormal,
    RedundantNormal,
    canonical_reeb,
    enumerate_faces_3d,
    extreme_rays,
    interior_point,
    is_good,
    is_good_height1_3d,
    lens,
    main4_even,
    main4_odd,
    non_cy,
    reeb_cone_contains,
    validate_diagram,
    z5_lens,
)

from sasakit import cones
from sasakit.cones import ToricDiagram, cone_skeleton, height1_points, height_covector
from sasakit.lattice import IntMatrix, rref

from helpers import (
    _fm_feasible,
    gamma_oracle,
    make_primitive,
    octant,
    random_convex_height1_diagram,
    random_sl3,
    skeleton_oracle,
    transform_normals,
    validation_oracle,
)


# --- validation ---------------------------------------------------------------

def test_validate_lens_family():
    for ell in range(1, 7):
        d = validate_diagram([(1, 0, 0), (0, 1, 0), (1, 1, ell)])
        assert d.d == 3 and d.rank == 3


def test_validate_rejects_non_primitive():
    with pytest.raises(NonPrimitiveNormal) as err:
        validate_diagram([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert err.value.index == 1


def test_validate_rejects_duplicates():
    with pytest.raises(RedundantNormal) as err:
        validate_diagram([(1, 0, 0), (0, 1, 0), (1, 0, 0)])
    assert err.value.index == 2


def test_validate_rejects_empty_interior():
    with pytest.raises(EmptyInterior):
        validate_diagram([(1, 0, 0), (-1, 0, 0)])


def test_validate_rejects_line_containing_cone():
    with pytest.raises(DegenerateCone):
        validate_diagram([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_validate_rejects_zero_vector():
    with pytest.raises(NonPrimitiveNormal):
        validate_diagram([(0, 0, 0), (0, 1, 0)])


def test_interior_point_strict():
    d = lens(3)
    y = interior_point(d)
    assert all(sum(a * b for a, b in zip(y, lam)) > 0 for lam in d.normals)


# --- one elimination against the earlier path -----------------------------------

def assert_matches_earlier_path(normals):
    """Verdict, gamma and witness against Fourier-Motzkin, sympy rank and a d x 3 solve."""
    expected = validation_oracle(normals)
    try:
        d = validate_diagram(normals)
    except (NonPrimitiveNormal, RedundantNormal, EmptyInterior, DegenerateCone) as exc:
        assert type(exc) is expected
        return
    assert expected is None
    assert height_covector(d) == gamma_oracle(normals)
    assert all(sum(a * b for a, b in zip(interior_point(d), lam)) >= 1 for lam in normals)


@st.composite
def raw_box_normals(draw):
    """Box normals of every verdict: raw, primitive, flat (rank 2), or of height l."""
    kind = draw(st.sampled_from(["raw", "primitive", "flat", "height"]))
    coord = st.integers(-2, 2)
    if kind == "height":
        ell = draw(st.integers(1, 3))
        vec = st.tuples(st.just(ell), st.integers(-3, 3), st.integers(-3, 3))
    elif kind == "flat":
        vec = st.tuples(coord, coord, st.just(0))
    else:
        vec = st.tuples(coord, coord, coord)
    vecs = draw(st.lists(vec, min_size=1, max_size=9))
    if kind != "raw":
        vecs = list(dict.fromkeys(make_primitive(v) for v in vecs if any(v)))
        assume(vecs)
    if draw(st.booleans()):
        m = random_sl3(draw(st.randoms(use_true_random=False)))
        vecs = [m.mul_vector(v) for v in vecs]
    return vecs


@settings(max_examples=300, deadline=None)
@given(raw_box_normals())
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])  # empty interior
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0)])  # degenerate, no gamma
@example([(1, 0, 0), (0, 1, 0), (2, -1, 0)])  # degenerate with gamma (-1, -1, 0)
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])  # valid, no gamma
def test_validation_matches_earlier_path_on_box_diagrams(normals):
    assert_matches_earlier_path(normals)


def test_validation_matches_earlier_path_on_families():
    rng = random.Random(21)
    family = [lens(ell) for ell in range(1, 6)] + [z5_lens(), octant()]
    family += [non_cy(ell) for ell in range(2, 5)]
    family += [main4_even(2, 1), main4_even(8, 3), main4_odd(3, 2), main4_odd(19, 4)]
    for d in family:
        for m in (IntMatrix.identity(3), random_sl3(rng), random_sl3(rng)):
            assert_matches_earlier_path([m.mul_vector(v) for v in d.normals])


def test_gordan_witness_runs_only_without_a_height_covector(monkeypatch):
    systems = []
    gordan_witness = cones._gordan_witness
    no_gamma = non_cy(2).normals

    def counted(normals, rank):
        systems.append(len(normals))
        return gordan_witness(normals, rank)

    monkeypatch.setattr(cones, "_gordan_witness", counted)
    validate_diagram(no_gamma)
    assert systems == [4]
    # a sheared d = 161 parabola has a height covector: -gamma is its witness
    shear = IntMatrix.from_rows([[1, 0, 0], [3, 1, 0], [5, 7, 1]])
    d = validate_diagram([shear.mul_vector((1, i, i * i)) for i in range(-80, 81)])
    assert systems == [4]
    assert interior_point(d) == tuple(-g for g in height_covector(d))


@st.composite
def rank3_lists(draw):
    """Raw rank-3 normal lists of rank 0 to 3: integer mixes of k = 1, 2 or 3
    generators (parallel normals at k = 1), sometimes after a zero normal."""
    k = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * 3)
    gens = draw(st.lists(vec, min_size=k, max_size=k))
    mixes = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                          min_size=1, max_size=8))
    normals = [tuple(sum(c * g[i] for c, g in zip(mix, gens)) for i in range(3)) for mix in mixes]
    return [(0, 0, 0)] * draw(st.booleans()) + normals


def elimination_gamma(normals):
    """gamma read off one rref of [N | I], as before the cofactor path, or None."""
    d, identity = len(normals), IntMatrix.identity(3).entries
    rows, pivots, scale, _ = rref([n + e for n, e in zip(zip(*normals), identity)], d)
    sums = [sum(col) for col in zip(*rows[: len(pivots)])]
    if any(s != scale for s in sums[:d]):
        return None
    return tuple(Fraction(-s, scale) for s in sums[d:])


@settings(max_examples=400, deadline=None)
@given(rank3_lists())
@example([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])  # a zero first normal
@example([(1, 0, 0), (0, 0, 0), (2, 0, 0), (-1, 0, 0)])  # parallel: rank 1
@example([(1, 2, 3), (2, 4, 6), (0, 1, 0), (1, 1, 0), (5, 5, 5)])  # a normal parallel to l before m
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0)])  # rank 2, no gamma
@example([(1, 0, 0), (0, 1, 0), (2, -1, 0)])  # rank 2 with gamma (-1, -1, 0)
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])  # rank 3, the last normal refuses gamma
def test_cofactor_pivots_and_gamma_match_the_elimination(normals):
    d = ToricDiagram(rank=3, normals=tuple(normals))
    assert cones.pivots(d) == tuple(cones.elimination(d)[1])
    assert height_covector(d) == elimination_gamma(normals)
    primitive = list(dict.fromkeys(make_primitive(v) for v in normals if any(v)))
    if primitive:  # the earlier path's verdict: Fourier-Motzkin, then sympy's rank
        try:
            validate_diagram(primitive)
        except (EmptyInterior, DegenerateCone) as exc:
            assert type(exc) is validation_oracle(primitive)
        else:
            assert validation_oracle(primitive) is None


@st.composite
def ranked_normals(draw):
    """Raw normals of rank 2 to 5: zero, repeated and non-primitive ones included."""
    rank = draw(st.integers(2, 5))
    return draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(ranked_normals())
@example([(1, 0), (-1, 0), (0, 1)])  # rank 2, 0 in the convex hull: EmptyInterior
@example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)])  # valid, no gamma
def test_gordan_witness_agrees_with_fourier_motzkin_at_every_rank(normals):
    rank = len(normals[0])
    w = cones._gordan_witness(normals, rank)
    assert (w is None) == (_fm_feasible([(v, 1) for v in normals], rank) is None)
    if w is not None:
        assert all(sum(a * b for a, b in zip(w, v)) >= 1 for v in normals)
    assert_matches_earlier_path(normals)


def test_fourier_motzkin_oracle_fails_fast_past_its_bound():
    # 317 constraints bound y_2 below and 317 above: eliminating it would pair
    # them into 100489, past FM_LEVEL_BOUND, so the oracle refuses before it builds
    system = [((j, sign), 1) for j in range(317) for sign in (1, -1)]
    with pytest.raises(AssertionError, match="level of 100489 constraints"):
        _fm_feasible(system, 2)


def centred_no_gamma_parabola(n):
    """(1, i, i^2) for |i| <= n plus (2, 1, -1), moved by (l, p, q) -> (l, p, q - n^2 // 2 * l).

    The extra normal pairs to -2 with (-1, 0, 0), so there is no height covector.
    """
    normals = [(1, i, i * i) for i in range(-n, n + 1)] + [(2, 1, -1)]
    return [(l, p, q - n * n // 2 * l) for l, p, q in normals]


def counted_rref(monkeypatch):
    """The `ncols` of every `cones.rref` call from now on."""
    calls, rref = [], cones.rref
    monkeypatch.setattr(cones, "rref", lambda rows, ncols: calls.append(ncols) or rref(rows, ncols))
    return calls


def test_gordan_witness_bases_do_not_grow_with_d(monkeypatch):
    # the simplex solves each basis by one rref, so the count of rref calls is
    # its count of bases: it must not grow with d
    bases = counted_rref(monkeypatch)
    shear = IntMatrix.from_rows([[1, 0, 0], [3, 1, 0], [5, 7, 1]])
    for m in (IntMatrix.identity(3), shear):
        counts = []
        for n in (20, 320):  # d = 42 and 642
            normals = [m.mul_vector(v) for v in centred_no_gamma_parabola(n)]
            bases.clear()
            w = cones._gordan_witness(normals, 3)
            assert all(sum(a * b for a, b in zip(w, v)) >= 1 for v in normals)
            counts.append(len(bases))
        assert counts[1] <= counts[0]


def test_rank9_library_call_finds_the_empty_interior_in_few_bases(monkeypatch):
    # 30 normals of rank 9 with no height covector, through the library path
    bases = counted_rref(monkeypatch)
    rng = random.Random(0)
    normals = [tuple(rng.randint(-3, 3) for _ in range(9)) for _ in range(30)]
    with pytest.raises(EmptyInterior):
        validate_diagram(normals)
    # the simplex solves bases on 10 columns, the elimination of [N | I] on 30;
    # seeds 0-9 took 19-48 bases
    assert bases.count(10) <= 50


# --- face enumeration -----------------------------------------------------------

def facet_count(diagram):
    return sum(1 for f in enumerate_faces_3d(diagram) if f.kind == "facet")


def edge_count(diagram):
    return sum(1 for f in enumerate_faces_3d(diagram) if f.kind == "edge")


def test_octant_faces():
    faces = enumerate_faces_3d(octant())
    facets = [f for f in faces if f.kind == "facet"]
    edges = [f for f in faces if f.kind == "edge"]
    assert len(facets) == 3 and len(edges) == 3
    assert all(len(e.indices) == 2 for e in edges)
    assert all(f.nonempty for f in faces)


def brute_force_rays(diagram):
    """Oracle: enumerate candidate directions from all pairs, keep feasible ones."""
    rays = set()
    normals = diagram.normals
    for i, j in itertools.combinations(range(len(normals)), 2):
        a, b = normals[i], normals[j]
        v = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        if v == (0, 0, 0):
            continue
        from math import gcd

        g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
        v = tuple(x // g for x in v)
        for cand in (v, tuple(-x for x in v)):
            if all(sum(c * l for c, l in zip(cand, lam)) >= 0 for lam in normals):
                rays.add(cand)
    return rays


def test_lens_faces_against_ray_oracle():
    d = lens(2)
    assert facet_count(d) == 3 and edge_count(d) == 3
    assert set(extreme_rays(d)) == brute_force_rays(d)


def test_four_normal_diagram_faces():
    d = non_cy(2)
    faces = enumerate_faces_3d(d)
    facets = [f for f in faces if f.kind == "facet"]
    edges = [f for f in faces if f.kind == "edge"]
    assert len(facets) == 4
    assert sum(1 for f in facets if not f.nonempty) == 1
    # the cone itself is the lens cone: three extreme rays
    assert len(edges) == 3
    assert set(extreme_rays(d)) == brute_force_rays(d)


def test_main4_faces_count():
    from sasakit import main4_even

    d = main4_even(1, 0)
    assert facet_count(d) == 5 and edge_count(d) == 5
    assert all(f.nonempty for f in enumerate_faces_3d(d))


def test_every_normal_has_exactly_one_facet_descriptor():
    for d in (octant(), lens(3), z5_lens(), non_cy(2)):
        facet_indices = [
            f.indices[0] for f in enumerate_faces_3d(d) if f.kind == "facet"
        ]
        assert sorted(facet_indices) == list(range(d.d))


def test_edges_join_cyclically_adjacent_facets():
    for d in (octant(), lens(3), z5_lens()):
        from sasakit.cones import cone_skeleton

        sk = cone_skeleton(d)
        cycle = sk.facet_cycle
        for pos, act in enumerate(sk.active):
            a = cycle[pos]
            b = cycle[(pos + 1) % len(cycle)]
            assert act == frozenset({a, b})


# --- the hull skeleton against the all-pairs oracle ------------------------------

@st.composite
def box_diagrams(draw):
    """Primitive normals in a small box, paired positively with (1, 1, 1).

    Many points in a small box give redundant normals: some on hull edges
    (grazing), some inside the hull (empty).
    """
    vecs = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3).filter(lambda v: sum(v) > 0),
            min_size=3,
            max_size=14,
        )
    )
    vecs = list(dict.fromkeys(make_primitive(v) for v in vecs))
    assume(len(vecs) >= 3 and sympy.Matrix(vecs).rank() == 3)
    return validate_diagram(vecs)


@st.composite
def height1_diagrams(draw):
    d = random_convex_height1_diagram(draw(st.randoms(use_true_random=False)))
    assume(d is not None)
    return d


@st.composite
def grazing_diagrams(draw):
    """A height-1 polygon with extra normals on its edges and inside it.

    An edge normal is a primitive positive combination s*lam + t*mu of two
    adjacent hull normals, so it vanishes on their ray alone.  When `flat`,
    s + t is the gcd of the edge vector, so the normal is a lattice point of
    the edge, the inner normals are lattice points of the polygon, gamma
    exists and the chart keys are the integers (p, q), where the box
    polygons give chart x ties and vertical edges.  Otherwise s, t are free,
    an inner normal is the primitive sum of three hull normals, and gamma
    mostly does not exist (Fraction keys).
    """
    d = random_convex_height1_diagram(draw(st.randoms(use_true_random=False)))
    assume(d is not None)
    hull, h = d.normals, d.d
    flat = draw(st.booleans())
    weights = st.integers(1, 4)
    normals = list(hull)
    edge_normals = st.lists(
        st.tuples(st.integers(0, h - 1), weights, weights), min_size=1, max_size=6
    )
    for i, s, t in draw(edge_normals):
        lam, mu = hull[i], hull[i - 1]
        if flat:
            g = gcd(lam[1] - mu[1], lam[2] - mu[2])
            if g == 1:
                continue
            t = 1 + t % (g - 1)
            s = g - t
        normals.append(make_primitive(tuple(s * x + t * y for x, y in zip(lam, mu))))
    if flat:
        box = range(-8, 9)
        edges = list(zip(hull[-1:] + hull[:-1], hull))  # counterclockwise
        inner = [(1, p, q) for p in box for q in box if all(
            (b[1] - a[1]) * (q - a[2]) > (b[2] - a[2]) * (p - a[1]) for a, b in edges)]
    else:
        trios = itertools.combinations(hull, 3)
        inner = [make_primitive(tuple(map(sum, zip(*trio)))) for trio in trios]
    if inner:
        normals += draw(st.lists(st.sampled_from(inner), max_size=3))
    return validate_diagram(draw(st.permutations(list(dict.fromkeys(normals)))))


def corpus():
    return st.one_of(box_diagrams(), height1_diagrams(), grazing_diagrams())


# a square with one normal on each vertical edge, one on its bottom edge and
# one inside, at the chart x of the bottom one: every bisection case
SQUARE_WITH_EDGE_NORMALS = [
    (1, 0, 0), (1, 2, 0), (1, 2, 2), (1, 0, 2), (1, 2, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1),
]


@settings(max_examples=200, deadline=None)
@given(corpus(), st.booleans(), st.randoms(use_true_random=False))
@example(validate_diagram(SQUARE_WITH_EDGE_NORMALS), False, random.Random(0))
def test_hull_skeleton_matches_all_pairs_oracle(d, shear, rng):
    if shear:
        d = transform_normals(d, random_sl3(rng))
    assert cone_skeleton(d) == skeleton_oracle(d)


def test_grazing_normal_touches_one_ray():
    # (1, 1, 0) vanishes on the ray (0, 0, 1) of the octant and nowhere else
    d = validate_diagram([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
    sk = cone_skeleton(d)
    assert sk == skeleton_oracle(d)
    assert sk.facet_cycle == (0, 1, 2)
    assert sk.rays == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    assert sk.active[0] == frozenset({0, 1, 3})
    assert sk.grazing == (3,) and sk.empty == ()
    grazing_facet = [f for f in enumerate_faces_3d(d) if f.indices == (3,)]
    assert [f.witness for f in grazing_facet] == [(0, 0, 1)]


def test_facet_witnesses_lie_on_their_facet():
    square = validate_diagram(SQUARE_WITH_EDGE_NORMALS)
    for d in (octant(), lens(3), z5_lens(), non_cy(2), square):
        for f in enumerate_faces_3d(d):
            if not f.nonempty:
                continue
            prods = [
                sum(a * b for a, b in zip(f.witness, lam)) for lam in d.normals
            ]
            for i in f.indices:
                assert prods[i] == 0
            assert all(p >= 0 for p in prods)


# --- goodness -------------------------------------------------------------------

def test_lens_good_all_heights():
    for ell in range(1, 8):
        assert is_good(lens(ell))


def test_z5_good():
    assert is_good(z5_lens())


def test_four_normal_diagram_good():
    for ell in range(2, 7):
        assert is_good(non_cy(ell))


def test_not_good_non_saturated_edge():
    d = validate_diagram([(1, 0, 0), (1, 2, 0), (0, 0, 1)])
    report = is_good(d)
    assert not report.good
    assert set(report.failing_face) == {0, 1}
    # oracle: (1, 1, 0) is in the real span of the two normals but not their
    # integer span, so the saturation condition genuinely fails
    from helpers import span_membership

    coeffs = span_membership([(1, 0, 0), (1, 2, 0)], (1, 1, 0))
    assert coeffs is not None
    assert any(c.denominator != 1 for c in coeffs)


@settings(max_examples=150, deadline=None)
@given(corpus(), st.booleans(), st.randoms(use_true_random=False))
@example(validate_diagram(SQUARE_WITH_EDGE_NORMALS), False, random.Random(0))
@example(validate_diagram([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]), True, random.Random(1))
@example(validate_diagram([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]), True, random.Random(2))
def test_rank3_goodness_of_edges_is_goodness_of_all_faces(d, shear, rng):
    # the skeleton's edges give the verdict and failing face of the face
    # list's edges and of all its faces
    if shear:
        d = transform_normals(d, random_sl3(rng))
    faces = [f for f in enumerate_faces_3d(d) if f.nonempty]
    edges = [f.indices for f in faces if f.kind == "edge"]
    assert is_good(d) == is_good(d, faces=edges) == is_good(d, faces=[f.indices for f in faces])


def test_skeleton_dot_products_are_linear_in_d(monkeypatch):
    # the d = 641 parabola with 320 normals (1, i, i^2 + 1) off its hull, each
    # met by the rays of the edges it lies between: one dot product per
    # (ray, normal) pair would make h * d = 641 * 961 calls.  The hull's turn
    # tests call no _dot; each reads two normals past the one being added,
    # so they are counted from the chains' reads, at most 2 per index each.
    # Its one non-primitive edge joins i = -320 and 320.
    shear = IntMatrix.from_rows([[1, 0, 0], [3, 1, 0], [5, 7, 1]])
    plain = [(1, i, i * i) for i in range(-320, 321)]
    plain += [(1, i, i * i + 1) for i in range(-319, 320, 2)]
    dot, chain = cones._dot, cones._hull_chain
    calls, turns = [], []

    def counted(a, b):
        calls.append(None)
        return dot(a, b)

    class CountedReads:
        def __init__(self, seq):
            self.seq, self.reads = seq, 0

        def __getitem__(self, i):
            self.reads += 1
            return self.seq[i]

    def counted_chain(normals, order):
        order, seen = list(order), CountedReads(normals)
        out = chain(seen, order)
        turns.append((seen.reads - len(order)) // 2)
        return out

    for normals in (plain, [shear.mul_vector(v) for v in plain]):
        d = validate_diagram(normals)
        calls.clear()
        turns.clear()
        monkeypatch.setattr(cones, "_dot", counted)
        monkeypatch.setattr(cones, "_hull_chain", counted_chain)
        cone_skeleton(d)
        monkeypatch.undo()
        assert 320 <= len(calls) <= 10 * d.d
        assert len(turns) == 2 and d.d <= sum(turns) <= 4 * d.d
        assert is_good(d).failing_face == (0, 640)


def sympy_torsion(diagram):
    factors = (abs(int(x)) for x in sympy_invariant_factors(sympy.Matrix(diagram.normals).T))
    return tuple(x for x in factors if x != 1)


NO_SATURATED_EDGE = [(1, 0, 0), (1, 2, 0), (1, 0, 2)]  # Z/2 x Z/2: not cyclic
NOT_GOOD = [
    [(1, 0, 0), (1, 2, 4), (1, 1, 4)],
    [(1, 0, 0), (1, 2, 0), (0, 0, 1)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)],
    NO_SATURATED_EDGE,
]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(
            [lens(ell) for ell in range(1, 6)]
            + [z5_lens(), octant(), non_cy(2), non_cy(3)]
            + [main4_even(2, 1), main4_even(8, 3), main4_odd(3, 2), main4_odd(19, 4)]
            + [validate_diagram(normals) for normals in NOT_GOOD]
        ),
        corpus(),
    ),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example(validate_diagram(NO_SATURATED_EDGE), False, random.Random(0))
@example(validate_diagram(NO_SATURATED_EDGE), True, random.Random(0))
def test_torsion_matches_sympy_invariant_factors(d, shear, rng):
    if shear:
        d = transform_normals(d, random_sl3(rng))
    assert cones.torsion(d) == sympy_torsion(d)


def test_is_good_general_rank_with_supplied_faces():
    d = validate_diagram([(1, 0), (0, 1)])
    assert is_good(d, faces=[(0,), (1,), (0, 1)])
    bad = validate_diagram([(1, 0), (1, 2)])
    assert not is_good(bad, faces=[(0, 1)])


def test_is_good_rank_other_than_3_needs_faces():
    d = validate_diagram([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        is_good(d)


# --- height-1 criterion -----------------------------------------------------------

def test_height1_criterion_examples():
    loop = validate_diagram([(1, 0, 0), (1, 1, 1), (1, 0, 1)])
    assert is_good_height1_3d(loop)
    assert is_good(loop).good

    # consecutive difference (2, 4): both even, neither coordinate steps by 1
    bad = validate_diagram([(1, 0, 0), (1, 2, 4), (1, 1, 4)])
    assert not is_good_height1_3d(bad)
    assert not is_good(bad).good

    # consecutive difference (2, 3): coprime nonzero pair passes
    good = validate_diagram([(1, 0, 0), (1, 2, 3), (1, 1, 3)])
    assert is_good_height1_3d(good)
    assert is_good(good).good


def test_height1_requires_height1_form():
    from sasakit import NotNormalized

    with pytest.raises(NotNormalized):
        is_good_height1_3d(lens(2))


def test_validation_rejects_malformed_normal_lists():
    with pytest.raises(ValueError, match="no normals"):
        validate_diagram([])
    with pytest.raises(ValueError, match="unequal length"):
        validate_diagram([(1, 0, 0), (0, 1)])
    with pytest.raises(ValueError, match="declared rank 4 does not match normal length 3"):
        validate_diagram(lens(2).normals, rank=4)


def test_skeleton_is_rank_3_only():
    d = validate_diagram([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError, match="rank 3 only"):
        cone_skeleton(d)


def test_height1_points_refuse_a_normal_inside_the_polygon():
    # (0, 0) lies inside the triangle of the other three: the diagram is good,
    # but its last normal is implied by the others, so no convex loop exists
    d = validate_diagram([(1, -1, -1), (1, 1, 0), (1, 0, 1), (1, 0, 0)])
    assert is_good(d).good
    sk = cone_skeleton(d)
    assert (sk.facet_cycle, sk.grazing, sk.empty) == ((0, 1, 2), (), (3,))
    with pytest.raises(ValueError, match="not in strictly convex position"):
        height1_points(d)


def test_height1_equivalence_random():
    rng = random.Random(2024)
    seen = 0
    while seen < 60:
        d = random_convex_height1_diagram(rng)
        if d is None:
            continue
        assert is_good_height1_3d(d) == bool(is_good(d)), d.normals
        seen += 1


# --- Reeb cone ------------------------------------------------------------------

def test_reeb_cone_membership():
    assert reeb_cone_contains(octant(), (1, 1, 1))
    assert not reeb_cone_contains(octant(), (1, 0, 0))
    d = lens(2)
    assert reeb_cone_contains(d, canonical_reeb(d))
    assert reeb_cone_contains(d, (Fraction(2), Fraction(2), Fraction(2)))


def test_canonical_reeb_values():
    assert canonical_reeb(octant()) == (1, 1, 1)
    assert canonical_reeb(lens(2)) == (2, 2, 2)
    assert canonical_reeb(non_cy(3)) == (3, 3, 5)


def test_canonical_reeb_interior_on_corpus():
    from sasakit import main4_even, main4_odd

    for d in (octant(), lens(1), lens(4), z5_lens(), non_cy(2), main4_even(2, 1), main4_odd(2, 1)):
        assert reeb_cone_contains(d, canonical_reeb(d))


# --- invariance -----------------------------------------------------------------

def test_goodness_invariant_under_lattice_basis_change():
    rng = random.Random(77)
    base = [lens(2), z5_lens(), validate_diagram([(1, 0, 0), (1, 2, 0), (0, 0, 1)])]
    for d in base:
        verdict = bool(is_good(d))
        for _ in range(10):
            m = random_sl3(rng)
            assert bool(is_good(transform_normals(d, m))) == verdict


def test_goodness_invariant_under_relabeling():
    d = z5_lens()
    for perm in itertools.permutations(d.normals):
        assert is_good(validate_diagram(list(perm))).good
