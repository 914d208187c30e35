import random
import warnings
from fractions import Fraction

import pytest

from sasakit import (
    area_invariant,
    area_invariant_times_2,
    convexity_and_span_check,
    fundamental_group,
    identify_5d,
    lens,
    main4_even,
    main4_odd,
    non_cy,
    second_betti,
    topology_report,
    validate_diagram,
    z5_lens,
)

from helpers import (
    octant,
    random_height_preserving,
    random_sl3,
    transform_normals,
)


def test_pi1_lens_family():
    for ell in range(1, 9):
        expected = () if ell == 1 else (ell,)
        assert fundamental_group(lens(ell)) == expected


def test_pi1_octant_trivial():
    assert fundamental_group(octant()) == ()


def test_pi1_z5():
    assert fundamental_group(z5_lens()) == (5,)


def test_pi1_four_normal_diagram():
    # the four columns contain consecutive normals differing by a unit vector,
    # so they span the whole lattice
    for ell in (2, 3, 4):
        assert fundamental_group(non_cy(ell)) == ()


def test_second_betti_values():
    assert second_betti(octant()) == 0
    assert second_betti(main4_even(1, 0)) == 2
    assert second_betti(main4_odd(1, 0)) == 1


def test_second_betti_warns_outside_simply_connected():
    with pytest.warns(UserWarning):
        second_betti(lens(3))


def test_second_betti_is_rank_3_only():
    d = validate_diagram([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError, match="rank-3"):
        second_betti(d)


def test_second_betti_warns_when_a_normal_is_no_facet():
    # d - 3 counts normals: the octant plus the implied (1, 1, 1) has the
    # octant's cone, and non_cy(l) has lens(l)'s
    implied = validate_diagram([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    for d in (implied, non_cy(3)):
        with pytest.warns(UserWarning, match="counts normals, not facets"):
            second_betti(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        second_betti(main4_odd(3, 2))


def shoelace_triangle_fan(points):
    """Independent oracle: sum of signed triangle areas from the first vertex."""
    twice = 0
    for k in range(1, len(points) - 1):
        (x0, y0), (x1, y1), (x2, y2) = points[0], points[k], points[k + 1]
        twice += (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    return abs(twice)


def test_area_triangle():
    d = validate_diagram([(1, 0, 0), (1, 1, 0), (1, 0, 1)])
    assert area_invariant(d) == Fraction(1, 2)
    assert area_invariant_times_2(d) == 1


def test_area_z5():
    d = z5_lens()
    assert area_invariant(d) == Fraction(5, 2)
    assert area_invariant_times_2(d) == shoelace_triangle_fan([(0, 0), (2, 1), (3, 4)])


def test_area_main4_strictly_increasing_in_s():
    for r in (1, 2):
        even = [area_invariant(main4_even(r, s)) for s in range(6)]
        odd = [area_invariant(main4_odd(r, s)) for s in range(6)]
        assert all(a < b for a, b in zip(even, even[1:]))
        assert all(a < b for a, b in zip(odd, odd[1:]))


def test_area_requires_height1():
    from sasakit import NotNormalized

    with pytest.raises(NotNormalized):
        area_invariant(lens(2))


def test_identify_5d_labels():
    assert identify_5d(octant()) == "S^5"
    assert identify_5d(main4_even(1, 0)) == "S^5 # 2(S^2 x S^3)"
    assert identify_5d(main4_odd(1, 0)) == "S^5 # 1(S^2 x S^3)"
    assert identify_5d(lens(2)) == "lens-type: pi1 = Z_2"
    assert identify_5d(lens(5)) == "lens-type: pi1 = Z_5"


@pytest.mark.parametrize(
    "normals",
    [
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],  # the octant of an S^7
        [(1, 0), (0, 1)],  # the quadrant of an S^3
    ],
)
def test_labels_are_unknown_off_rank_3(normals):
    # d - 3 names no 5-manifold unless the rank is 3
    d = validate_diagram(normals)
    assert identify_5d(d) == "unknown"
    rep = topology_report(d).to_json_dict()
    assert rep["label"] == "unknown" and rep["b2"] is None


def test_topology_report_json_shape():
    rep = topology_report(lens(5)).to_json_dict()
    assert rep["pi1"] == [5]
    assert rep["label"] == "lens-type: pi1 = Z_5"
    assert rep["b2"] == 0 and rep["area2"] is None
    rep2 = topology_report(z5_lens()).to_json_dict()
    assert rep2 == {"pi1": [5], "b2": 0, "area2": 5, "label": "lens-type: pi1 = Z_5"}


def test_convexity_and_span_examples():
    assert convexity_and_span_check([(0, 0), (1, 0), (0, 1)])
    assert not convexity_and_span_check([(0, 0), (1, 0), (2, 0), (0, 1)])
    assert convexity_and_span_check(
        [(p, q) for _, p, q in main4_odd(2, 0).normals]
    )
    with pytest.raises(ValueError):
        convexity_and_span_check([(0, 0), (1, 1)])
    # no turn is straight, but the second turns the other way: not convex
    assert not convexity_and_span_check([(0, 0), (2, 0), (1, 1), (1, 3)])


def test_convexity_catches_non_spanning():
    # strictly convex but the differences generate an index-2 sublattice
    assert not convexity_and_span_check([(0, 0), (2, 0), (2, 2), (0, 2)])


def test_pi1_invariant_under_lattice_basis_change():
    rng = random.Random(31)
    for d in (lens(4), z5_lens(), non_cy(2), main4_even(1, 2)):
        expected = fundamental_group(d)
        for _ in range(10):
            m = random_sl3(rng)
            assert fundamental_group(transform_normals(d, m)) == expected


def test_area_invariant_under_height_preserving_maps():
    rng = random.Random(13)
    for d in (z5_lens(), main4_even(1, 0), main4_odd(2, 1)):
        expected = area_invariant_times_2(d)
        for _ in range(20):
            m = random_height_preserving(rng)
            t = transform_normals(d, m)
            assert all(v[0] == 1 for v in t.normals)
            assert area_invariant_times_2(t) == expected
