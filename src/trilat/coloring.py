"""Colorings of lattice regions and the monochromatic-triangle checker.

A coloring is a dense int array `colors` in the region's rank order: the
(b, a) order of `region.points()`, or of `fundamental_domain()` for a periodic
stripe (`Region.rank` maps coordinates to ranks).  It is proper when no three
points forming an equilateral triangle (any orientation, any size) share a
color.

The checker scans the ordered pairs (p, q) of each color class and looks up
the apex p + rot(q - p) of each, where rot(a, b) = (-b, a + b) turns a vector
by +60 degrees.  Every region kind is unrolled into one padded color grid: the
points of T_n or of a stripe window carry their colors and every other cell
holds -1, while a periodic stripe is tiled across the grid.  The padding is as
wide as the scanned points' spread in b and in a + b, which bounds how far an
apex can stray, so every apex lookup is one unmasked flat index.  The flat
index is affine in the point, so with U[p] = flat(p - rot p) and
V[q] = flat(rot q) - flat(0) the apex of (p, q) sits at U[p] + V[q]: one add,
one gather and one compare per pair.

One rotation over the pairs i < j (in rank order) of a class finds every
monochromatic triangle.  Going round a triangle counter-clockwise, x -> y -> z,
each vertex is the +60 degree apex of the edge before it (z = x + rot(y - x),
and so on cyclically), and ranks cannot fall along all three edges of a cycle,
so some edge goes up in rank and its pair i < j meets the triangle.  The first
hit in class order (first appearance in rank order), then row-major pair
order, is the witness; the triangle-scan oracle is in tests/oracles.py.

Periodic stripe colorings are scanned on a finite window: any equilateral
triangle with vertices in the k-row stripe has bounded horizontal extent, so a
window of one period plus that bound holds a translate of every triangle.
"""

from __future__ import annotations

import math
import re
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .lattice import (
    LatticePoint,
    PeriodicStripe,
    Region,
    StripeWindow,
    TriangleRegion,
)
from .triangles import EquilateralTriangle


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


class _Assignment(Mapping):
    """Read-only point -> color view of a coloring.

    Its dict is built on the first lookup or iteration; `len` needs none.
    Lookups take `LatticePoint`s or plain (a, b) tuples.
    """

    def __init__(self, region: Region, colors: np.ndarray):
        # not the coloring itself, which caches this view: that would be a reference cycle
        self._region = region
        self._colors = colors

    def __len__(self):
        return self._colors.size

    @cached_property
    def _dict(self) -> dict[LatticePoint, int]:
        a, b = self._region.point_arrays()
        return dict(zip(map(LatticePoint, a.tolist(), b.tolist()), self._colors.tolist()))

    def __getitem__(self, p):
        return self._dict[p]

    def __iter__(self):
        return iter(self._dict)


@dataclass(eq=False)
class Coloring:
    """`colors[r]` is the color of the point of rank r of `region`."""
    region: Region
    colors: np.ndarray
    num_colors: int

    def __post_init__(self):
        colors = np.array(self.colors, dtype=np.int64)
        if colors.shape != (self.region.size(),):
            raise CertificateError("partial coloring")
        if colors.size and (colors.min() < 0 or colors.max() >= self.num_colors):
            raise CertificateError("color index out of range")
        colors.flags.writeable = False
        self.colors = colors

    @cached_property
    def assignment(self) -> Mapping[LatticePoint, int]:
        return _Assignment(self.region, self.colors)


def color_count(c: Coloring) -> int:
    return int(np.unique(c.colors).size)


# pair probes per block of a color class, so memory stays bounded for any class size
_BLOCK = 1 << 16


def _first_hit(grid: np.ndarray, u: np.ndarray, v: np.ndarray, color) -> Optional[tuple[int, int]]:
    """First pair i < j of a class, row-major, whose apex cell grid[u[i] + v[j]] has `color`."""
    s = len(u)
    rows = max(1, _BLOCK // s)
    upper = np.tri(min(rows, s - 1), dtype=bool).T  # [t, c]: c >= t
    for i0 in range(0, s - 1, rows):
        h = min(rows, s - 1 - i0)
        # row t is i = i0 + t and column c is j = i0 + 1 + c, so c < t means j <= i
        hit = grid.take(u[i0:i0 + h, None] + v[None, i0 + 1:]) == color
        hit[:, :h] &= upper[:h, :h]
        if hit.any():
            t, col = divmod(int(hit.argmax()), hit.shape[1])
            return i0 + t, i0 + 1 + col
    return None


def is_proper(c: Coloring) -> tuple[bool, Optional[EquilateralTriangle]]:
    """Pair-based properness check; returns (verdict, witness-or-None)."""
    region = c.region
    periodic = isinstance(region, PeriodicStripe)
    scanned = (StripeWindow(region.k, 0, region.period - 1 + stripe_span_bound(region.k))
               if periodic else region)
    a, b = scanned.point_arrays()
    if a.size < 3:
        return (True, None)
    colors = c.colors[region.rank(a, b)]
    # an apex p + rot(q - p) = (a_p - db, b_p + d(a + b)) moves at most the points'
    # spread in b along a, and their spread in a + b along b
    s = a + b
    pad_a, pad_b = int(b.max() - b.min()), int(s.max() - s.min())
    a0, b0 = int(a.min()) - pad_a, int(b.min()) - pad_b
    width = int(a.max()) + pad_a - a0 + 1
    height = int(b.max()) + pad_b - b0 + 1
    # the cells that carry colors: the region's points, or all stripe rows when tiled
    paint = StripeWindow(region.k, a0, a0 + width - 1) if periodic else region
    pa, pb = paint.point_arrays()
    grid = np.full(height * width, -1, dtype=np.min_scalar_type(-c.num_colors))
    grid[(pb - b0) * width + pa - a0] = c.colors[region.rank(pa, pb)]
    u = (-a - b0) * width + s - a0  # flat(p - rot p), p - rot p = (a + b, -a)
    v = s * width - b  # flat(rot q) - flat(0), rot q = (-b, a + b)

    values, first, inverse, counts = np.unique(colors, return_index=True,
                                               return_inverse=True, return_counts=True)
    members = np.argsort(inverse, kind="stable")  # by class, rank order within each
    starts = np.cumsum(counts) - counts
    for cls in np.argsort(first):
        if counts[cls] < 3:
            continue
        m = members[starts[cls]:starts[cls] + counts[cls]]
        found = _first_hit(grid, u[m], v[m], int(values[cls]))
        if found is not None:
            p, q = m[found[0]], m[found[1]]
            p1 = LatticePoint(int(a[p]), int(b[p]))
            p2 = LatticePoint(int(a[q]), int(b[q]))
            apex = LatticePoint(int(s[p] - b[q]), int(s[q] - a[p]))
            return (False, EquilateralTriangle.of(p1, p2, apex))
    return (True, None)


# -- certificate files --------------------------------------------------------

MAGIC = "trilat-coloring v1"
_POINT_LINE = "%d %d %d\n"  # one line per point of a certificate: a b color


# rows formatted per chunk, so no tuple of a whole large array is built
_FORMAT_ROWS = 1 << 15


def format_chunks(line: str, rows: np.ndarray, sep: str = "") -> Iterator[str]:
    """`line % tuple(row)` for each row of a 2-D int array, joined by `sep`,
    one %-format per chunk of rows; the chunks are not joined to each other."""
    for chunk in np.split(rows, range(_FORMAT_ROWS, len(rows), _FORMAT_ROWS)):
        yield sep.join([line] * len(chunk)) % tuple(chunk.ravel().tolist())


def format_rows(line: str, rows: np.ndarray, sep: str = "") -> str:
    """`line % tuple(row)` for each row of a 2-D int array, joined by `sep`.

    The text of certificates, DIMACS clause blocks and triangle listings.
    """
    return sep.join(format_chunks(line, rows, sep))


def write_certificate(c: Coloring) -> str:
    if isinstance(c.region, TriangleRegion):
        region_line = f"region triangle {c.region.n}"
    elif isinstance(c.region, PeriodicStripe):
        region_line = f"region stripe {c.region.k} period {c.region.period}"
    else:
        raise CertificateError("only triangle and periodic stripe certificates are supported")
    a, b = c.region.point_arrays()
    rows = format_rows(_POINT_LINE, np.stack([a, b, c.colors], axis=1))
    return f"{MAGIC}\n{region_line}\ncolors {c.num_colors}\n" + rows


# the line boundaries of str.splitlines, "\r\n" first so it counts as one
_LINE_END = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _split_header(text: str) -> tuple[list[str], str]:
    """The first three non-blank, non-comment lines of a certificate, stripped,
    and the text after them; lines end where `str.splitlines` ends them, but
    only the header is split."""
    header, pos = [], 0
    ends = _LINE_END.finditer(text)
    while len(header) < 3 and pos < len(text):
        m = next(ends, None)
        ln = text[pos:m.start() if m else len(text)].strip()
        pos = m.end() if m else len(text)
        if ln and not ln.startswith("#"):
            header.append(ln)
    return header, text[pos:]


def _point_lines(body: str) -> list[str]:
    """The point lines of a certificate body, stripped, without blanks and comments."""
    return [ln for ln in map(str.strip, body.splitlines()) if ln and not ln.startswith("#")]


# point values are clamped to this magnitude, so that a + b stays within int64;
# the header caps the region's extents and the color count at it, so clamping
# changes no check
_CLAMP = 1 << 61


def _point_rows(lines: list[str]) -> tuple[np.ndarray, Optional[str]]:
    """The (a, b, color) rows of the point lines, as an (N, 3) int array, up to
    the first malformed line; that line, or None, comes second."""
    values, malformed = [], None
    for ln in lines:
        parts = ln.split()
        try:
            if len(parts) != 3:
                raise ValueError("expected 'a b color'")
            values += [int(parts[0]), int(parts[1]), int(parts[2])]
        except ValueError:
            malformed = ln
            break
    if values and not -_CLAMP <= min(values) <= max(values) <= _CLAMP:
        values = [max(-_CLAMP, min(_CLAMP, v)) for v in values]
    return np.array(values, dtype=np.int64).reshape(-1, 3), malformed


def _canonical_rows(body: str) -> Optional[np.ndarray]:
    """The (a, b, color) rows of a body exactly as `write_certificate` writes
    it, by one numpy parse checked by formatting the rows back; None for any
    other body, and for values the per-line parser would clamp."""
    with warnings.catch_warnings():
        # numpy 1.x warns on text it cannot parse and returns a prefix
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(body, dtype=np.int64, sep=" ")
        except ValueError:  # numpy 2 raises instead
            return None
    if values.size % 3 or values.min(initial=0) < -_CLAMP or values.max(initial=0) > _CLAMP:
        return None
    rows = values.reshape(-1, 3)
    end = 0
    for chunk in format_chunks(_POINT_LINE, rows):
        if not body.startswith(chunk, end):
            return None
        end += len(chunk)
    return rows if end == len(body) else None


def read_certificate(text: str) -> Coloring:
    """The coloring a certificate describes; CertificateError names its first fault.

    A body (the text after the three header lines) exactly as
    `write_certificate` writes it, one `%d %d %d\n` line per point and nothing
    else, is read by one numpy parse, kept only if formatting the parsed rows
    back gives the body byte for byte.  Then every line of the body is the
    canonical decimal form of its row, which `str.split` and `int` read back
    as that row, so the per-line parser would have read the same rows and no
    malformed line: both paths give the same coloring or the same error.
    Numpy's reading of the text does not matter, since only the round trip
    decides.  Any other body (comments, blank lines, CRLF, `+5`, `1_0`, no
    final newline, a value beyond int64 or past the +-2**61 clamp) goes to the
    per-line parser, which alone defines what is accepted.
    """
    header, body = _split_header(text)
    if not header or header[0] != MAGIC:
        raise CertificateError("bad or missing header")
    if len(header) < 3:
        raise CertificateError("truncated certificate")
    region_parts = header[1].split()
    try:
        if region_parts[:2] == ["region", "triangle"] and len(region_parts) == 3:
            extents = [int(region_parts[2])]
            region: Region = TriangleRegion(*extents)
        elif region_parts[:2] == ["region", "stripe"] and len(region_parts) == 5 and region_parts[3] == "period":
            extents = [int(region_parts[2]), int(region_parts[4])]
            region = PeriodicStripe(*extents)
        else:
            raise ValueError("unknown region")
        if max(extents) > _CLAMP:
            raise ValueError("wider than 2**61")
    except ValueError as e:  # int() and the region constructors raise ValueError
        raise CertificateError(f"bad region line: {header[1]!r} ({e})") from e
    colors_parts = header[2].split()
    try:
        if colors_parts[0] != "colors" or len(colors_parts) != 2:
            raise ValueError("expected 'colors <count>'")
        num_colors = int(colors_parts[1])
        if num_colors > _CLAMP:
            raise ValueError("more than 2**61 colors")
    except ValueError as e:
        raise CertificateError(f"bad colors line: {header[2]!r} ({e})") from e
    if num_colors < 1:
        raise CertificateError("colors must be positive")

    rows, lines, malformed = _canonical_rows(body), None, None
    if rows is None:
        lines = _point_lines(body)
        rows, malformed = _point_rows(lines)
    a, b, col = rows.T
    if isinstance(region, PeriodicStripe):
        where = "fundamental domain"
        inside = (a >= 0) & (a < region.period) & (b >= 0) & (b < region.k)
    else:
        where = "region"
        inside = (a >= 0) & (b >= 0) & (a + b < region.n)
    # a repeated point: every occurrence after the first of its (a, b); lexsort is stable
    order = np.lexsort((a, b))
    same = (a[order][1:] == a[order][:-1]) & (b[order][1:] == b[order][:-1])
    duplicate = np.zeros(a.size, dtype=bool)
    duplicate[order[1:][same]] = True
    bad_color = (col < 0) | (col >= num_colors)
    bad = ~inside | duplicate | bad_color
    # report the first bad line, by the first check it fails; the rows stop
    # before a malformed line, so a bad line ahead of it comes first
    if bad.any():
        r = int(bad.argmax())
        line = lines[r] if lines is not None else _POINT_LINE.rstrip() % tuple(rows[r].tolist())
        if not inside[r]:
            raise CertificateError(f"point outside {where}: {line!r}")
        if duplicate[r]:
            raise CertificateError(f"duplicate point: {line!r}")
        raise CertificateError(f"color out of range: {line!r}")
    if malformed is not None:
        raise CertificateError(f"bad point line: {malformed!r}")
    # every point is in the region and distinct, so a short count means a gap;
    # checking it first keeps a huge declared region from being laid out
    if a.size != region.size():
        raise CertificateError("partial coloring")
    colors = np.full(a.size, -1, dtype=np.int64)  # a slot left unfilled fails the range check
    colors[region.rank(a, b)] = col
    return Coloring(region, colors, num_colors)
