"""Direct generation of equilateral triangles and classification of point pairs.

Every equilateral triangle is inscribed in exactly one upright sub-triangle
with corner (x, y) and side L: its vertices are (x+i, y), (x+L-i, y+i) and
(x, y+L-i) for one offset 0 <= i < L, and i = 0 is the upright triangle
itself.  `_generate` yields them from this formula with numpy, unsorted,
with no search and no deduplication.  In T_n the corners of side L are
exactly the points of T_{n-L}; in a stripe window the corners run over the
whole window and triangles leaving it are clipped.  `triangle_ranks` alone
puts them in canonical order, as point ranks in the region's (b, a) order.

Pair classes come from the unsorted triangles by reflection: a point pair
{p, q} has two apex completions, so it lies in 0, 1 or 2 of the region's
triangles, and from a triangle {p, q, r} its other apex is p + q - r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lattice import LatticePoint, PeriodicStripe, Region, TriangleRegion, points


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


def _generate(region: Region, upright_only: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The triangles of a finite region, unsorted, one block per side L.

    A block is two (3, m) arrays a, b of vertex coordinates: row v holds vertex
    v of (x+i, y), (x+L-i, y+i), (x, y+L-i), and the columns run over the
    corners (x, y) in rank order, then over the offsets i.
    """
    if isinstance(region, PeriodicStripe):
        raise ValueError("use windowed enumeration for periodic stripes")
    a_pts, b_pts = region.point_arrays()
    triangle = isinstance(region, TriangleRegion)
    # in a k-row window i and L - i are both vertex rises above the corner row, so L <= 2(k - 1)
    sides = range(1, region.n) if triangle else range(1, 2 * region.k - 1)
    level = a_pts + b_pts
    for L in sides:
        x, y = a_pts, b_pts
        if triangle:  # the corners of side L are the points of T_{n-L}; nothing to clip
            corner = level <= region.n - 1 - L
            x, y = a_pts[corner], b_pts[corner]
        i = np.arange(1 if upright_only else L)
        x, y = x[:, None], y[:, None]
        a = np.empty((3, x.size, i.size), dtype=np.int64)
        b = np.empty((3, x.size, i.size), dtype=np.int64)
        a[0], a[1], a[2] = x + i, x + L - i, x
        b[0], b[1], b[2] = y, y + i, y + L - i
        a, b = a.reshape(3, -1), b.reshape(3, -1)
        if not triangle:  # corners lie in the window, so only the upper bounds can fail
            inside = ((a <= region.x_max) & (b <= region.k - 1)).all(axis=0)
            a, b = a[:, inside], b[:, inside]
        yield a, b


def triangle_ranks(region: Region) -> np.ndarray:
    """Every equilateral triangle of a finite region, as a (T, 3) int array.

    Entries are point ranks in the (b, a) order of `points(region)`; each row
    is ascending (the canonical vertex order) and the rows follow the sorted
    order of the corresponding `EquilateralTriangle` objects.
    """
    ranks = np.concatenate([np.empty((0, 3), dtype=np.int64)]
                           + [region.rank(a, b).T for a, b in _generate(region, upright_only=False)])
    ranks.sort(axis=1)
    # sorted() order of EquilateralTriangle: vertices compared as (a, b) tuples
    a_pts, b_pts = region.point_arrays()
    key = a_pts * (int(b_pts.max(initial=0)) + 1) + b_pts
    key -= key.min(initial=0)  # a window may reach to negative a
    return ranks[_row_order(key[ranks])]


def _row_order(keys: np.ndarray) -> np.ndarray:
    """The lexicographic order of the rows of a (T, 3) array of distinct rows of
    non-negative ints: one argsort of the packed key (k0*S + k1)*S + k2, with S
    the key range, when S**3 < 2**63, else a three-key lexsort.  The rows are
    distinct (no two triangles share their vertices), so the order is unique
    and the argsort need not be stable."""
    span = int(keys.max(initial=0)) + 1
    if span ** 3 < 1 << 63:
        packed = keys[:, 0] * span
        packed += keys[:, 1]
        packed *= span
        packed += keys[:, 2]
        return np.argsort(packed)
    return np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))


def enumerate_triangles(region: Region) -> list[EquilateralTriangle]:
    """All equilateral triangles with vertices in a finite region, each exactly once, sorted."""
    ranks = triangle_ranks(region)
    pts = np.fromiter(points(region), dtype=object, count=region.size())
    return list(map(EquilateralTriangle, *pts[ranks.T]))


def count_upright(region: Region) -> int:
    """Triangles that are translates of a dilated {(0,0),(s,0),(0,s)}, s >= 1.

    The length of the unsorted generation of upright triangles (offset i = 0).
    """
    return sum(a.shape[1] for a, _ in _generate(region, upright_only=True))


@dataclass
class PairClassification:
    """The (a0, a1, a2) tallies: point pairs with 0, 1 or 2 in-region apex completions,
    and the number of triangles they were read from."""
    a0: int
    a1: int
    a2: int
    triangles: int

    def tallies(self) -> tuple[int, int, int]:
        return (self.a0, self.a1, self.a2)


def classify_pairs(region: Region) -> PairClassification:
    """Sort all unordered point pairs by their number of in-region apex completions.

    One unsorted generation is walked once.  The second apex of the pair
    opposite vertex r is r reflected across it, p + q - r = (p + q + r) - 2r.
    If it is in the region the pair lies in two triangles and is met twice,
    else in one triangle and met once; the pairs never met lie in none.
    """
    count = hits = 0
    for a, b in _generate(region, upright_only=False):
        count += a.shape[1]
        hits += int(np.count_nonzero(region.contains((a[0] + a[1] + a[2] - 2 * a,
                                                      b[0] + b[1] + b[2] - 2 * b))))
    a1, a2 = 3 * count - hits, hits // 2
    size = region.size()
    return PairClassification(size * (size - 1) // 2 - a1 - a2, a1, a2, count)
