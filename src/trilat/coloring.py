"""Colorings of lattice regions and the monochromatic-triangle checker.

A coloring is proper when no three points forming an equilateral triangle (any
orientation, any size) share a color.  The production checker iterates pairs
within one color class and tests the two apex completions, vectorized with
numpy; the O(pairs * 2) work per class is what makes n = 600 constructions
checkable in seconds.  A plain triangle-scan checker is kept as the oracle.

Periodic stripe colorings are checked on a finite window: any equilateral
triangle with vertices in the k-row stripe has bounded horizontal extent, so a
window of one period plus that bound sees a translate of every triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import (
    LatticePoint,
    PeriodicStripe,
    Region,
    StripeWindow,
    TriangleRegion,
)
from .triangles import EquilateralTriangle, enumerate_triangles


class CertificateError(ValueError):
    pass


def stripe_span_bound(k: int) -> int:
    """Max a-coordinate spread of an equilateral triangle inside a k-row stripe.

    Any side has squared length at most (k-1)^2, and a lattice vector (da, db)
    satisfies 3*da^2 <= 4*norm, so da <= 2(k-1)/sqrt(3).
    """
    if k == 1:
        return 0
    return math.isqrt(4 * (k - 1) ** 2 // 3)


@dataclass
class Coloring:
    region: Region
    assignment: dict[LatticePoint, int]
    num_colors: int

    def __post_init__(self):
        if isinstance(self.region, PeriodicStripe):
            domain = set(self.region.fundamental_domain())
        else:
            domain = set(self.region.points())
        if set(self.assignment) != domain:
            raise CertificateError("partial coloring")
        if any(not (0 <= c < self.num_colors) for c in self.assignment.values()):
            raise CertificateError("color index out of range")

    def color_of(self, p) -> int:
        if isinstance(self.region, PeriodicStripe):
            return self.assignment[self.region.reduce(p)]
        return self.assignment[LatticePoint(p[0], p[1])]


def color_count(c: Coloring) -> int:
    return len(set(c.assignment.values()))


def _check_window(points, color_of, member_color):
    """Shared pair-based check.

    points: list of LatticePoint to scan pairs over; color_of(p) -> color;
    member_color(a_array, b_array) -> color array with -1 for non-members.
    Returns a witness triple or None.
    """
    by_color: dict[int, list[LatticePoint]] = {}
    for p in points:
        by_color.setdefault(color_of(p), []).append(p)
    for col, pts in by_color.items():
        if len(pts) < 3:
            continue
        arr = np.array(pts, dtype=np.int64)
        a = arr[:, 0]
        b = arr[:, 1]
        da = a[None, :] - a[:, None]
        db = b[None, :] - b[:, None]
        iu = np.triu_indices(len(pts), k=1)
        da = da[iu]
        db = db[iu]
        base_a = a[iu[0]]
        base_b = b[iu[0]]
        for direction in (+1, -1):
            if direction == +1:
                apex_a = base_a - db
                apex_b = base_b + da + db
            else:
                apex_a = base_a + da + db
                apex_b = base_b - da
            colors = member_color(apex_a, apex_b)
            hit = colors == col
            if hit.any():
                idx = int(np.argmax(hit))
                p1 = LatticePoint(int(base_a[idx]), int(base_b[idx]))
                p2 = LatticePoint(int(base_a[idx] + da[idx]), int(base_b[idx] + db[idx]))
                apex = LatticePoint(int(apex_a[idx]), int(apex_b[idx]))
                return EquilateralTriangle.of(p1, p2, apex)
    return None


def is_proper(c: Coloring) -> tuple[bool, Optional[EquilateralTriangle]]:
    """Pair-based properness check; returns (verdict, witness-or-None)."""
    region = c.region
    if isinstance(region, TriangleRegion):
        n = region.n
        grid = np.full((n, n), -1, dtype=np.int64)
        for p, col in c.assignment.items():
            grid[p.a, p.b] = col

        def member_color(aa, bb):
            inside = (aa >= 0) & (bb >= 0) & (aa + bb <= n - 1)
            out = np.full(aa.shape, -1, dtype=np.int64)
            out[inside] = grid[aa[inside], bb[inside]]
            return out

        witness = _check_window(list(region.points()), c.color_of, member_color)
        return (witness is None, witness)

    if isinstance(region, StripeWindow):
        k, x0, x1 = region.k, region.x_min, region.x_max
        width = x1 - x0 + 1
        grid = np.full((width, k), -1, dtype=np.int64)
        for p, col in c.assignment.items():
            grid[p.a - x0, p.b] = col

        def member_color(aa, bb):
            inside = (aa >= x0) & (aa <= x1) & (bb >= 0) & (bb <= k - 1)
            out = np.full(aa.shape, -1, dtype=np.int64)
            out[inside] = grid[aa[inside] - x0, bb[inside]]
            return out

        witness = _check_window(list(region.points()), c.color_of, member_color)
        return (witness is None, witness)

    if isinstance(region, PeriodicStripe):
        k, p = region.k, region.period
        block = np.full((p, k), -1, dtype=np.int64)
        for pt, col in c.assignment.items():
            block[pt.a, pt.b] = col
        span = stripe_span_bound(k)
        window = [LatticePoint(a, b) for b in range(k) for a in range(p + span)]

        def member_color(aa, bb):
            inside = (bb >= 0) & (bb <= k - 1)
            out = np.full(aa.shape, -1, dtype=np.int64)
            out[inside] = block[aa[inside] % p, bb[inside]]
            return out

        witness = _check_window(window, c.color_of, member_color)
        return (witness is None, witness)

    raise TypeError(f"unsupported region {region!r}")


def is_proper_scan(c: Coloring) -> tuple[bool, Optional[EquilateralTriangle]]:
    """Oracle checker: enumerate every triangle and test it. Finite regions,
    and periodic stripes via an explicit window scan."""
    region = c.region
    if isinstance(region, PeriodicStripe):
        span = stripe_span_bound(region.k)
        window = StripeWindow(region.k, 0, region.period - 1 + span)
        tris = enumerate_triangles(window)
    else:
        tris = enumerate_triangles(region)
    for t in tris:
        c1 = c.color_of(t.p1)
        if c1 == c.color_of(t.p2) == c.color_of(t.p3):
            return (False, t)
    return (True, None)


# -- certificate files --------------------------------------------------------

MAGIC = "trilat-coloring v1"


def write_certificate(c: Coloring) -> str:
    lines = [MAGIC]
    if isinstance(c.region, TriangleRegion):
        lines.append(f"region triangle {c.region.n}")
        pts = sorted(c.assignment, key=lambda p: (p.b, p.a))
    elif isinstance(c.region, PeriodicStripe):
        lines.append(f"region stripe {c.region.k} period {c.region.period}")
        pts = sorted(c.assignment, key=lambda p: (p.b, p.a))
    else:
        raise CertificateError("only triangle and periodic stripe certificates are supported")
    lines.append(f"colors {c.num_colors}")
    for p in pts:
        lines.append(f"{p.a} {p.b} {c.assignment[p]}")
    return "\n".join(lines) + "\n"


def read_certificate(text: str) -> Coloring:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != MAGIC:
        raise CertificateError("bad or missing header")
    if len(lines) < 3:
        raise CertificateError("truncated certificate")
    region_parts = lines[1].split()
    try:
        if region_parts[:2] == ["region", "triangle"] and len(region_parts) == 3:
            region: Region = TriangleRegion(int(region_parts[2]))
        elif region_parts[:2] == ["region", "stripe"] and len(region_parts) == 5 and region_parts[3] == "period":
            region = PeriodicStripe(int(region_parts[2]), int(region_parts[4]))
        else:
            raise ValueError("unknown region")
    except ValueError as e:  # int() and the region constructors raise ValueError
        raise CertificateError(f"bad region line: {lines[1]!r} ({e})") from e
    colors_parts = lines[2].split()
    try:
        if colors_parts[0] != "colors" or len(colors_parts) != 2:
            raise ValueError("expected 'colors <count>'")
        num_colors = int(colors_parts[1])
    except ValueError as e:
        raise CertificateError(f"bad colors line: {lines[2]!r} ({e})") from e
    if num_colors < 1:
        raise CertificateError("colors must be positive")
    assignment: dict[LatticePoint, int] = {}
    for ln in lines[3:]:
        parts = ln.split()
        if len(parts) != 3:
            raise CertificateError(f"bad point line: {ln!r}")
        try:
            a, b, col = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as e:
            raise CertificateError(f"bad point line: {ln!r}") from e
        p = LatticePoint(a, b)
        if isinstance(region, PeriodicStripe):
            if not (0 <= a < region.period and 0 <= b < region.k):
                raise CertificateError(f"point outside fundamental domain: {ln!r}")
        elif not region.contains(p):
            raise CertificateError(f"point outside region: {ln!r}")
        if p in assignment:
            raise CertificateError(f"duplicate point: {ln!r}")
        if not (0 <= col < num_colors):
            raise CertificateError(f"color out of range: {ln!r}")
        assignment[p] = col
    # every point is in the region and distinct, so a short count means a gap;
    # checking it first keeps a huge declared region from being enumerated
    if len(assignment) != region.size():
        raise CertificateError("partial coloring")
    return Coloring(region, assignment, num_colors)
