"""Closed-form counts of triangles and pair classes in T_n, and the same counts
from the generated triangle list; brute oracles are in tests/oracles.py.

Notation (all counts are for the n-row triangle T_n):
  alpha(n)  equilateral triangles, any orientation
  beta(n)   equilateral triangles with horizontal bottom side (upright)
  gamma(n)  point pairs, C(n(n+1)/2, 2)
  a0/a1/a2  pairs with 0 / 1 / 2 in-lattice apex completions
  m(k)      60-120 rhombi minimally contained in T_k
  h(k)      upright placements of T_k inside T_n

All arithmetic is exact Python integers; every division asserts divisibility
so a parity-branch mistake fails loudly instead of truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import TriangleRegion
from .triangles import classify_pairs, count_upright


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} not divisible by {den}")
    return q


def alpha_closed(n: int) -> int:
    return _exact_div(n**4 + 2 * n**3 - n**2 - 2 * n, 24)


def beta_closed(n: int) -> int:
    return _exact_div(n**3 - n, 6)


def gamma_closed(n: int) -> int:
    s = n * (n + 1) // 2
    return s * (s - 1) // 2


def a2_closed(n: int) -> int:
    if n < 1:
        return 0
    if n % 2 == 1:
        return _exact_div((n - 1) ** 2 * (n + 1) * (n + 3), 32)
    return _exact_div(n * (n - 2) * (n + 2) ** 2, 32)


def a1_closed(n: int) -> int:
    if n < 1:
        return 0
    if n % 2 == 1:
        return _exact_div((n**2 - 1) * (n**2 + 2 * n + 3), 16)
    return _exact_div(n * (n + 2) * (n**2 + 2), 16)


def a0_closed(n: int) -> int:
    return a2_closed(n)


def h_closed(k: int, n: int) -> int:
    """Upright translated copies of T_k inside T_n."""
    if k > n:
        return 0
    return (n - k + 1) * (n - k + 2) // 2


def m_closed(k: int) -> int:
    """Rhombi minimally contained in T_k: 3(k-1)/2 for odd k, 0 for even k."""
    if k < 3:
        raise ValueError("no rhombi fit")
    if k % 2 == 0:
        return 0
    return _exact_div(3 * (k - 1), 2)


@dataclass
class CountReport:
    n: int
    alpha: int
    beta: int
    gamma: int
    a0: int
    a1: int
    a2: int
    source: str  # "closed_form" or "brute_force"


def report_closed(n: int) -> CountReport:
    return CountReport(
        n=n,
        alpha=alpha_closed(n),
        beta=beta_closed(n),
        gamma=gamma_closed(n),
        a0=a0_closed(n),
        a1=a1_closed(n),
        a2=a2_closed(n),
        source="closed_form",
    )


def report_brute(n: int) -> CountReport:
    region = TriangleRegion(n)
    cls = classify_pairs(region)
    return CountReport(
        n=n,
        alpha=cls.triangles,
        beta=count_upright(region),
        gamma=cls.a0 + cls.a1 + cls.a2,
        a0=cls.a0,
        a1=cls.a1,
        a2=cls.a2,
        source="brute_force",
    )
