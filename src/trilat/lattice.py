"""Integer coordinates for the triangular lattice.

Points are pairs (a, b) of integers, representing a*(1, 0) + b*(1/2, sqrt(3)/2)
in the plane.  All geometry in this package is done on these integer pairs:
rotations by 60 degrees and the squared Euclidean norm are exact integer maps,
so no floating point ever enters a correctness argument.

Each region orders its points by (b, a); a point's place in that order is its
rank, and `point_arrays` / `rank` convert between ranks and coordinates with
numpy, so dense per-point arrays can stand in for dicts keyed by point;
`points(region)` iterates that order as `LatticePoint`s.  A periodic stripe's
points are its fundamental domain 0 <= a < period, and its `window()` holds a
translate of every triangle of the stripe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np


class LatticePoint(NamedTuple):
    a: int
    b: int

    def __add__(self, other):
        return LatticePoint(self.a + other[0], self.b + other[1])

    def __sub__(self, other):
        return LatticePoint(self.a - other[0], self.b - other[1])

    def __neg__(self):
        return LatticePoint(-self.a, -self.b)

    def to_cartesian(self) -> tuple[float, float]:
        """Float embedding, for rendering only."""
        return (self.a + self.b / 2, self.b * (3 ** 0.5) / 2)


def norm(p: LatticePoint | tuple[int, int]) -> int:
    """Squared Euclidean length of a lattice vector; zero iff the vector is zero."""
    a, b = p
    return a * a + a * b + b * b


@dataclass(frozen=True)
class TriangleRegion:
    """Upright n-row triangle T_n: points (a, b) with 0 <= b <= n-1, 0 <= a <= n-1-b."""
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")

    def contains(self, p) -> bool:
        """Membership of a point, or elementwise of coordinate arrays (a, b)."""
        a, b = p
        return (0 <= a) & (0 <= b) & (a + b <= self.n - 1)

    def size(self) -> int:
        return self.n * (self.n + 1) // 2

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates a, b of the points, indexed by rank: row b holds n - b
        points, and a counts up from 0 along each row."""
        lengths = np.arange(self.n, 0, -1)
        b = np.repeat(np.arange(self.n), lengths)
        a = np.arange(b.size)
        a -= np.repeat(np.cumsum(lengths) - lengths, lengths)  # each point's row start
        return a, b

    def rank(self, a, b):
        """Rank of the points (a, b) of the region: row b starts after b rows of n, n-1, ..."""
        return b * self.n - b * (b - 1) // 2 + a


@dataclass(frozen=True)
class StripeWindow:
    """Finite window of the k-row stripe: 0 <= b <= k-1, x_min <= a <= x_max."""
    k: int
    x_min: int
    x_max: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")

    def contains(self, p) -> bool:
        """Membership of a point, or elementwise of coordinate arrays (a, b)."""
        a, b = p
        return (0 <= b) & (b <= self.k - 1) & (self.x_min <= a) & (a <= self.x_max)

    def size(self) -> int:
        return self.k * max(0, self.x_max - self.x_min + 1)

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates a, b of the points, indexed by rank."""
        b, a = np.indices((self.k, max(0, self.x_max - self.x_min + 1))).reshape(2, -1)
        return a + self.x_min, b

    def rank(self, a, b):
        """Rank of the points (a, b) of the window."""
        return b * (self.x_max - self.x_min + 1) + a - self.x_min


@dataclass(frozen=True)
class PeriodicStripe:
    """Infinite k-row stripe with (a, b) identified with (a + period, b)."""
    k: int
    period: int

    def __post_init__(self):
        if self.k < 1 or self.period < 1:
            raise ValueError("k and period must be positive")

    def contains(self, p) -> bool:
        """Membership of a point, or elementwise of coordinate arrays (a, b).

        Membership constrains b only; a wraps mod period.
        """
        return (0 <= p[1]) & (p[1] <= self.k - 1)

    def size(self) -> int:
        return self.k * self.period

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates a, b of the fundamental domain, 0 <= a < period, indexed by rank."""
        b, a = np.indices((self.k, self.period)).reshape(2, -1)
        return a, b

    def rank(self, a, b):
        """Rank of the cell of the points (a, b) of the stripe: a is taken mod the period."""
        return b * self.period + a % self.period

    def window(self) -> StripeWindow:
        """The stripe window a translate of every triangle of the stripe fits in:
        one period plus `stripe_span_bound(k)` columns, from a = 0."""
        return StripeWindow(self.k, 0, self.period - 1 + stripe_span_bound(self.k))


Region = TriangleRegion | StripeWindow | PeriodicStripe


def points(region: Region) -> Iterator[LatticePoint]:
    """The points of a region (a periodic stripe's fundamental domain) in rank order."""
    a, b = region.point_arrays()
    return map(LatticePoint, a.tolist(), b.tolist())


def stripe_span_bound(k: int) -> int:
    """Max a-coordinate spread of an equilateral triangle inside a k-row stripe.

    Any side has squared length at most (k-1)^2, and a lattice vector (da, db)
    satisfies 3*da^2 <= 4*norm, so da <= 2(k-1)/sqrt(3).
    """
    if k == 1:
        return 0
    return math.isqrt(4 * (k - 1) ** 2 // 3)


def symmetries(n: int) -> np.ndarray:
    """The dihedral symmetry group of T_n as a (6, N) int array, identity first.

    Row s maps the rank of each point to the rank of its image.  With the
    barycentric coordinates (a, b, c = n - 1 - a - b) of a point, the images
    are (a, b), (b, c), (c, a): the identity and the two rotations, then
    (c, b), (b, a), (a, c): the three reflections.
    """
    region = TriangleRegion(n)
    a, b = region.point_arrays()
    c = n - 1 - a - b
    return np.stack([region.rank(x, y) for x, y in ((a, b), (b, c), (c, a), (c, b), (b, a), (a, c))])
