import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import apex_candidates, pair_walk_tallies, pair_walk_triangles

from trilat.coloring import stripe_span_bound
from trilat.lattice import (
    LatticePoint,
    PeriodicStripe,
    StripeWindow,
    TriangleRegion,
    norm,
    symmetries,
)
from trilat.triangles import (
    EquilateralTriangle,
    _row_order,
    classify_pairs,
    count_upright,
    enumerate_triangles,
    triangle_ranks,
)

# T1..T15, every window the periodic-stripe constraints read for k <= 7, p <= 12,
# and a window reaching to negative a
ORACLE_REGIONS = [TriangleRegion(n) for n in range(1, 16)] + [
    StripeWindow(k, 0, p - 1 + stripe_span_bound(k)) for k in range(1, 8) for p in range(1, 13)] + [
    StripeWindow(4, -6, 3)]

coords = st.integers(min_value=-50, max_value=50)
points = st.builds(LatticePoint, coords, coords)


def test_apex_examples():
    assert apex_candidates(LatticePoint(0, 0), LatticePoint(1, 0)) == ((0, 1), (1, -1))
    assert apex_candidates(LatticePoint(1, 1), LatticePoint(2, 1)) == ((1, 2), (2, 0))
    assert apex_candidates(LatticePoint(0, 0), LatticePoint(3, 0)) == ((0, 3), (3, -3))


def test_apex_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        apex_candidates(LatticePoint(1, 2), LatticePoint(1, 2))


@given(points, points)
def test_apex_properties(p, q):
    if p == q:
        return
    u, v = apex_candidates(p, q)
    assert u != v
    side = norm(q - p)
    for apex in (u, v):
        assert norm(apex - p) == side
        assert norm(apex - q) == side
    # the two candidates are mirror images across the pair, so their midpoints
    # along the pair axis agree: u + v = p + q
    assert u + v == p + q


def test_enumerate_t2():
    tris = enumerate_triangles(TriangleRegion(2))
    assert len(tris) == 1
    assert tris[0].vertices() == ((0, 0), (1, 0), (0, 1))


@pytest.mark.parametrize("n,count", [(1, 0), (3, 5), (4, 15), (9, 330)])
def test_enumerate_counts(n, count):
    assert len(enumerate_triangles(TriangleRegion(n))) == count


@pytest.mark.parametrize("region", ORACLE_REGIONS, ids=repr)
def test_generator_matches_pair_walk(region):
    assert enumerate_triangles(region) == pair_walk_triangles(region)  # order included
    cls = classify_pairs(region)
    assert cls.tallies() == pair_walk_tallies(region)
    assert cls.triangles == len(triangle_ranks(region))


@pytest.mark.parametrize("span", [7, (1 << 21) - 1, 1 << 21, 1 << 40])
def test_row_order_packed_and_lexsort(span, monkeypatch):
    """Rows of keys in [0, span): the packed argsort while span**3 < 2**63
    (up to 2**21 - 1), the lexsort from 2**21 on; both give sorted() order."""
    rng = np.random.default_rng(span)
    keys = rng.integers(0, span, size=(400, 3))
    keys[:2] = [[span - 1] * 3, [0, span - 1, 0]]
    keys = rng.permutation(np.unique(keys, axis=0))
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(k) or lexsort(k))
    assert keys[_row_order(keys)].tolist() == sorted(keys.tolist())
    assert bool(lexsorts) == (span >= 1 << 21)


def test_enumerate_rejects_periodic():
    with pytest.raises(ValueError):
        enumerate_triangles(PeriodicStripe(3, 4))


def test_triangles_are_valid_and_canonical():
    for t in enumerate_triangles(TriangleRegion(6)):
        p1, p2, p3 = t.vertices()
        assert norm(p2 - p1) == norm(p3 - p2) == norm(p3 - p1) > 0
        assert (t.p1.b, t.p1.a) <= (t.p2.b, t.p2.a) <= (t.p3.b, t.p3.a)


def test_third_vertex_is_an_apex_candidate():
    for t in enumerate_triangles(TriangleRegion(6)):
        p1, p2, p3 = t.vertices()
        assert p3 in apex_candidates(p1, p2)
        assert p2 in apex_candidates(p1, p3)
        assert p1 in apex_candidates(p2, p3)


@pytest.mark.parametrize("n,count", [(2, 1), (4, 10), (5, 20)])
def test_count_upright(n, count):
    assert count_upright(TriangleRegion(n)) == count


@pytest.mark.parametrize("n", range(2, 11))
def test_triangle_set_symmetry_invariant(n):
    tris = set(enumerate_triangles(TriangleRegion(n)))
    for f in symmetries(n):
        mapped = {EquilateralTriangle.of(f(t.p1), f(t.p2), f(t.p3)) for t in tris}
        assert mapped == tris


def test_classify_t4_values():
    cls = classify_pairs(TriangleRegion(4))
    assert cls.tallies() == (9, 27, 9)
    assert sum(cls.tallies()) == 45


def test_classify_t1_empty():
    cls = classify_pairs(TriangleRegion(1))
    assert cls.tallies() == (0, 0, 0)


def test_classify_t5():
    assert classify_pairs(TriangleRegion(5)).tallies() == (24, 57, 24)


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_triangle_double_count(n):
    # each triangle is counted by exactly 3 of its pairs
    cls = classify_pairs(TriangleRegion(n))
    tris = enumerate_triangles(TriangleRegion(n))
    assert cls.a1 + 2 * cls.a2 == 3 * len(tris)
