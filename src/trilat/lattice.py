"""Integer coordinates for the triangular lattice.

Points are pairs (a, b) of integers, representing a*(1, 0) + b*(1/2, sqrt(3)/2)
in the plane.  All geometry in this package is done on these integer pairs:
rotations by 60 degrees and the squared Euclidean norm are exact integer maps,
so no floating point ever enters a correctness argument.

Each region orders its points by (b, a); a point's place in that order is its
rank, and `point_arrays` / `rank` convert between ranks and coordinates with
numpy, so dense per-point arrays can stand in for dicts keyed by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

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

    def points(self) -> Iterator[LatticePoint]:
        for b in range(self.n):
            for a in range(self.n - b):
                yield LatticePoint(a, b)

    def size(self) -> int:
        return self.n * (self.n + 1) // 2

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates a, b of `points()`, indexed by rank: row b holds n - b
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

    def points(self) -> Iterator[LatticePoint]:
        for b in range(self.k):
            for a in range(self.x_min, self.x_max + 1):
                yield LatticePoint(a, b)

    def size(self) -> int:
        return self.k * max(0, self.x_max - self.x_min + 1)

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates a, b of `points()`, indexed by rank."""
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

    def fundamental_domain(self) -> Iterator[LatticePoint]:
        for b in range(self.k):
            for a in range(self.period):
                yield LatticePoint(a, b)

    def size(self) -> int:
        return self.k * self.period

    def point_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates a, b of `fundamental_domain()`, indexed by rank."""
        b, a = np.indices((self.k, self.period)).reshape(2, -1)
        return a, b

    def rank(self, a, b):
        """Rank of the cell of the points (a, b) of the stripe: a is taken mod the period."""
        return b * self.period + a % self.period


Region = TriangleRegion | StripeWindow | PeriodicStripe


def symmetries(n: int) -> list[Callable[[LatticePoint], LatticePoint]]:
    """The six maps of the dihedral symmetry group of T_n, identity first."""
    if n < 1:
        raise ValueError("n must be positive")
    m = n - 1

    def identity(p):
        return LatticePoint(p[0], p[1])

    def rot(p):
        return LatticePoint(p[1], m - p[0] - p[1])

    def rot2(p):
        return LatticePoint(m - p[0] - p[1], p[0])

    def refl(p):
        return LatticePoint(m - p[0] - p[1], p[1])

    def refl_rot(p):
        return rot(refl(p))

    def refl_rot2(p):
        return rot2(refl(p))

    return [identity, rot, rot2, refl, refl_rot, refl_rot2]

