import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import rotate60

from trilat.lattice import (
    LatticePoint,
    PeriodicStripe,
    StripeWindow,
    TriangleRegion,
    norm,
    symmetries,
)

coords = st.integers(min_value=-200, max_value=200)
points = st.builds(LatticePoint, coords, coords)


def test_contains_examples():
    t4 = TriangleRegion(4)
    assert t4.contains((0, 0))
    assert not t4.contains((1, 3))
    assert t4.contains((1, 2))


@pytest.mark.parametrize("region", [TriangleRegion(1), TriangleRegion(5), StripeWindow(3, -4, 2),
                                    StripeWindow(1, -2, -1), PeriodicStripe(3, 4)], ids=repr)
def test_contains_arrays_match_points(region):
    a, b = (np.indices((17, 11)) - np.array([8, 3])[:, None, None]).reshape(2, -1)
    inside = region.contains((a, b))
    assert inside.shape == a.shape
    assert inside.tolist() == [region.contains(p) for p in zip(a.tolist(), b.tolist())]
    assert inside.any() and not inside.all()


def test_rotate60_examples():
    assert rotate60((1, 0), +1) == (0, 1)
    assert rotate60((0, 0), +1) == (0, 0)
    assert rotate60((0, 0), -1) == (0, 0)
    p = LatticePoint(1, 0)
    for _ in range(6):
        p = rotate60(p, +1)
    assert p == (1, 0)


def test_rotate60_direction_validation():
    with pytest.raises(ValueError):
        rotate60((1, 0), 2)


@given(points, points, st.sampled_from([1, -1]))
def test_rotation_preserves_norm(p, q, d):
    assert norm(rotate60(p, d) - rotate60(q, d)) == norm(p - q)


@given(points, st.sampled_from([1, -1]))
def test_rotation_inverse(p, d):
    assert rotate60(rotate60(p, d), -d) == p


@given(points)
def test_norm_zero_iff_equal(p):
    assert norm(p - p) == 0
    assert (norm(p) == 0) == (p == LatticePoint(0, 0))


def test_symmetry_examples():
    maps = symmetries(4)
    assert maps[1]((0, 0)) == (0, 3)  # rotation: corner to corner
    assert maps[3]((0, 0)) == (3, 0)  # reflection: corner swap


@pytest.mark.parametrize("n", range(1, 11))
def test_symmetries_permute_region(n):
    pts = set(TriangleRegion(n).points())
    for f in symmetries(n):
        assert {f(p) for p in pts} == pts


def test_symmetries_preserve_distances():
    pts = list(TriangleRegion(5).points())
    for f in symmetries(5):
        for p in pts:
            for q in pts:
                assert norm(f(p) - f(q)) == norm(p - q)


@pytest.mark.parametrize("n", [1, 2, 10, 50, 100])
def test_triangle_cardinality(n):
    assert sum(1 for _ in TriangleRegion(n).points()) == n * (n + 1) // 2


def test_stripe_window_membership():
    w = StripeWindow(3, -2, 4)
    assert w.contains((-2, 0))
    assert w.contains((4, 2))
    assert not w.contains((5, 0))
    assert not w.contains((0, 3))
    assert w.size() == 21


@pytest.mark.parametrize("region", [
    *[TriangleRegion(n) for n in range(1, 31)],
    StripeWindow(3, -4, 2), StripeWindow(2, 5, 4), PeriodicStripe(1, 1), PeriodicStripe(4, 5),
], ids=str)
def test_point_arrays_match_points(region):
    a, b = region.point_arrays()
    pts = list(region.fundamental_domain() if isinstance(region, PeriodicStripe) else region.points())
    assert list(zip(a.tolist(), b.tolist())) == pts
    assert (region.rank(a, b) == np.arange(len(pts))).all()


def test_bad_regions():
    with pytest.raises(ValueError):
        TriangleRegion(0)
    with pytest.raises(ValueError):
        PeriodicStripe(3, 0)
