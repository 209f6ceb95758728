"""Direct generation of equilateral triangles and classification of point pairs.

Every equilateral triangle is inscribed in exactly one upright sub-triangle
with corner (x, y) and side L: its vertices are (x+i, y), (x+L-i, y+i) and
(x, y+L-i) for one offset 0 <= i < L, and i = 0 is the upright triangle
itself.  `triangle_ranks` generates them from this formula with numpy, as
point ranks in the region's (b, a) point order, with no search and no
deduplication.  In T_n the corners of side L are exactly the points of
T_{n-L}; in a stripe window the corners run over the whole window and
triangles leaving it are clipped.

Pair classes fall out of the triangle list: a point pair has two apex
completions, so it lies in 0, 1 or 2 of the region's triangles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticePoint, PeriodicStripe, Region, TriangleRegion


@dataclass(frozen=True, order=True)
class EquilateralTriangle:
    """Three lattice points in canonical lexicographic order by (b, a)."""
    p1: LatticePoint
    p2: LatticePoint
    p3: LatticePoint

    @staticmethod
    def of(p: LatticePoint, q: LatticePoint, r: LatticePoint) -> "EquilateralTriangle":
        s1, s2, s3 = sorted((p, q, r), key=lambda t: (t.b, t.a))
        return EquilateralTriangle(s1, s2, s3)

    def vertices(self) -> tuple[LatticePoint, LatticePoint, LatticePoint]:
        return (self.p1, self.p2, self.p3)


def _triangle_ranks(region: Region, upright_only: bool) -> np.ndarray:
    if isinstance(region, PeriodicStripe):
        raise ValueError("use windowed enumeration for periodic stripes")
    a_pts, b_pts = region.point_arrays()
    a_lo = int(a_pts.min(initial=0))
    height = int(b_pts.max(initial=0)) + 1
    rank = np.full((int(a_pts.max(initial=0)) - a_lo + 1, height), -1, dtype=np.int64)
    rank[a_pts - a_lo, b_pts] = np.arange(a_pts.size)
    triangle = isinstance(region, TriangleRegion)
    # in a k-row window i and L - i are both vertex rises above the corner row, so L <= 2(k - 1)
    sides = range(1, region.n) if triangle else range(1, 2 * region.k - 1)
    parts = [np.empty((0, 3), dtype=np.int64)]
    for L in sides:
        x, y = a_pts, b_pts
        if triangle:  # the corners of side L are the points of T_{n-L}; nothing to clip
            corner = a_pts + b_pts <= region.n - 1 - L
            x, y = a_pts[corner], b_pts[corner]
        i = np.arange(1 if upright_only else L)
        x, y = x[:, None], y[:, None]
        a = np.stack(np.broadcast_arrays(x + i, x + L - i, x), axis=-1).reshape(-1, 3)
        b = np.stack(np.broadcast_arrays(y, y + i, y + L - i), axis=-1).reshape(-1, 3)
        if not triangle:  # corners lie in the window, so only the upper bounds can fail
            inside = ((a <= region.x_max) & (b <= region.k - 1)).all(axis=1)
            a, b = a[inside], b[inside]
        parts.append(rank[a - a_lo, b])
    ranks = np.sort(np.concatenate(parts), axis=1)
    # sorted() order of EquilateralTriangle: vertices compared as (a, b) tuples
    key = (a_pts - a_lo) * height + b_pts
    k = key[ranks]
    return ranks[np.lexsort((k[:, 2], k[:, 1], k[:, 0]))]


def triangle_ranks(region: Region) -> np.ndarray:
    """Every equilateral triangle of a finite region, as a (T, 3) int array.

    Entries are point ranks in the (b, a) order of `region.points()`; each row
    is ascending (the canonical vertex order) and the rows follow the sorted
    order of the corresponding `EquilateralTriangle` objects.
    """
    return _triangle_ranks(region, upright_only=False)


def enumerate_triangles(region: Region) -> list[EquilateralTriangle]:
    """All equilateral triangles with vertices in a finite region, each exactly once, sorted."""
    ranks = triangle_ranks(region)
    pts = np.fromiter(region.points(), dtype=object, count=region.size())
    return list(map(EquilateralTriangle, *pts[ranks.T]))


def count_upright(region: Region) -> int:
    """Triangles that are translates of a dilated {(0,0),(s,0),(0,s)}, s >= 1."""
    return len(_triangle_ranks(region, upright_only=True))


@dataclass
class PairClassification:
    """The (a0, a1, a2) tallies: point pairs with 0, 1 or 2 in-region apex completions."""
    a0: int
    a1: int
    a2: int

    def tallies(self) -> tuple[int, int, int]:
        return (self.a0, self.a1, self.a2)


def classify_pairs(region: Region) -> PairClassification:
    """Sort all unordered point pairs by their number of in-region apex completions."""
    ranks = triangle_ranks(region)
    size = region.size()
    # every triangle holds three pairs; a pair's key is built from its point ranks
    keys = np.concatenate([ranks[:, 0] * size + ranks[:, 1],
                           ranks[:, 0] * size + ranks[:, 2],
                           ranks[:, 1] * size + ranks[:, 2]])
    per_pair = np.bincount(np.unique(keys, return_counts=True)[1], minlength=3)
    a1, a2 = int(per_pair[1]), int(per_pair[2])
    return PairClassification(size * (size - 1) // 2 - a1 - a2, a1, a2)
