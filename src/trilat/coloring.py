"""Colorings of lattice regions and the monochromatic-triangle checker.

A coloring is a dense int array `colors` in the region's rank order: the
(b, a) order of `lattice.points(region)`, for a periodic stripe that of its
fundamental domain (`Region.rank` maps coordinates to ranks).  It is proper
when no three points forming an equilateral triangle (any orientation, any
size) share a color.

The checker scans the ordered pairs (p, q) of each color class and looks up
the apex p + rot(q - p) of each, where rot(a, b) = (-b, a + b) turns a vector
by +60 degrees.  Every region kind is unrolled into one clipped color grid:
the scanned points' rows b_min..b_max plus one border row on each side, and
the columns a_min - (b_max - b_min)..a_max.  The points of T_n or of a stripe
window carry their colors, a periodic stripe is tiled across its rows, and
every other cell holds the sentinel num_colors, which no point has; the grid's
dtype is `np.min_scalar_type(num_colors)`, one byte per cell up to 255 colors.
In rank order b_q >= b_p, so the apex (a_p - (b_q - b_p), b_p + (a_q - a_p) +
(b_q - b_p)) always has its column inside the grid.  Its row can stray
anywhere, but a row below the lower border row gives a flat index below 0 and
one above the upper border row gives one past the end, so a clipped lookup
(`take(mode="clip")`) lands on a sentinel cell of a border row; every other
row is a real row of the grid.  The flat index is affine in the point, so
with U[p] = flat(p - rot p) and V[q] = flat(rot q) - flat(0) the apex of
(p, q) sits at U[p] + V[q]: one add, one clipped gather and one compare per
pair.

One rotation over the pairs i < j (in rank order) of a class finds every
monochromatic triangle.  Going round a triangle counter-clockwise, x -> y -> z,
each vertex is the +60 degree apex of the edge before it (z = x + rot(y - x),
and so on cyclically), and ranks cannot fall along all three edges of a cycle,
so some edge goes up in rank and its pair i < j meets the triangle.  The first
hit in class order (first appearance in rank order), then row-major pair
order, is the witness; the triangle-scan oracle is in tests/oracles.py.

Periodic stripe colorings are scanned on `PeriodicStripe.window()`, which
holds a translate of every triangle of the stripe.

Certificate and DIMACS text.  Certificates, DIMACS clause blocks and `trilat
enumerate` are written by one function, `format_chunks`, from a template such
as "%d %d %d\n" whose only directives are %d, and rows of int64 values, 32,768
rows at a time.  The template splits on %d into literals, and the text of a
chunk is laid out in a byte array as one fixed-width slot per value: the
literal before it, right-aligned, a sign byte ('-', or '0' for zero), and the
value's magnitude (as uint64, so INT64_MIN has one) in groups of four decimal
digits, as many groups as the chunk's largest magnitude needs.  Each group is
one uint32 lookup in a digit table of 2 x 10**4 four-byte entries: digits
right-aligned behind 0 bytes for the leading group, zero-padded for a group
below a non-zero one, and all 0 bytes for a leading zero group.  The literal
before a row's first value is the previous row's last literal, the separator
and the row's first literal.  Every unused byte of the layout is 0, so one
pass that drops the 0 bytes leaves the text.  The table is built on first use
(`functools.cache`), so importing the module does no work.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, Optional

import numpy as np

# stripe_span_bound is unused here; perfbench/spans.py reads it as coloring.stripe_span_bound
from .lattice import LatticePoint, PeriodicStripe, Region, TriangleRegion, points, stripe_span_bound
from .triangles import EquilateralTriangle


class CertificateError(ValueError):
    pass


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
        return dict(zip(points(self._region), self._colors.tolist()))

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
    """First pair i < j of a class, row-major, whose apex cell grid[u[i] + v[j]]
    (clipped to the grid) has `color`."""
    s = len(u)
    rows = max(1, _BLOCK // s)
    upper = np.tri(min(rows, s - 1), dtype=bool).T  # [t, c]: c >= t
    for i0 in range(0, s - 1, rows):
        h = min(rows, s - 1 - i0)
        # row t is i = i0 + t and column c is j = i0 + 1 + c, so c < t means j <= i
        hit = grid.take(u[i0:i0 + h, None] + v[None, i0 + 1:], mode="clip") == color
        hit[:, :h] &= upper[:h, :h]
        if hit.any():
            t, col = divmod(int(hit.argmax()), hit.shape[1])
            return i0 + t, i0 + 1 + col
    return None


def is_proper(c: Coloring) -> tuple[bool, Optional[EquilateralTriangle]]:
    """Pair-based properness check; returns (verdict, witness-or-None).

    The color grid is clipped (module docstring): rows b_min - 1..b_max + 1
    of the scanned points, columns a_min - (b_max - b_min)..a_max, one cell of
    dtype `np.min_scalar_type(num_colors)` each, with num_colors marking the
    cells no point colors.  A rank-ordered pair has b_q >= b_p, so its apex
    column a_p - (b_q - b_p) is always a grid column, and an apex row past
    either border row clips onto a sentinel cell of that border row.  Beside
    the grid, the scan holds a few arrays of one entry per scanned point.
    """
    region = c.region
    periodic = isinstance(region, PeriodicStripe)
    a, b = (region.window() if periodic else region).point_arrays()
    if a.size < 3:
        return (True, None)
    b_min, b_max = int(b[0]), int(b[-1])  # rank order is (b, a)
    r0, c0 = b_min - 1, int(a.min()) - (b_max - b_min)
    height, width = b_max - b_min + 3, int(a.max()) - c0 + 1
    grid = np.full(height * width, c.num_colors, dtype=np.min_scalar_type(c.num_colors))
    cell = (b - r0) * width
    cell += a - c0
    if periodic:  # every stripe row, tiled across the grid's columns
        tiles = np.arange(c0, c0 + width) % region.period
        grid.reshape(height, width)[1:-1] = c.colors.reshape(region.k, region.period)[:, tiles]
    else:
        grid[cell] = c.colors
    colors = grid[cell]
    del cell
    u = (a + r0) * -width  # flat(p - rot p), p - rot p = (a + b, -a)
    u += a + b - c0
    v = (a + b) * width  # flat(rot q) - flat(0), rot q = (-b, a + b)
    v -= b

    members = np.argsort(colors, kind="stable")  # by class, rank order within each
    ordered = colors[members]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    del ordered
    ends = np.append(starts, a.size)
    starts = np.insert(starts, 0, 0)
    for cls in np.argsort(members[starts]):  # classes by first appearance
        if ends[cls] - starts[cls] < 3:
            continue
        m = members[starts[cls]:ends[cls]]
        found = _first_hit(grid, u[m], v[m], colors[m[0]])
        if found is not None:
            p, q = m[found[0]], m[found[1]]
            p1 = LatticePoint(int(a[p]), int(b[p]))
            p2 = LatticePoint(int(a[q]), int(b[q]))
            apex = LatticePoint(p1.a + p1.b - p2.b, p2.a + p2.b - p1.a)
            return (False, EquilateralTriangle.of(p1, p2, apex))
    return (True, None)


# -- certificate files --------------------------------------------------------

MAGIC = "trilat-coloring v1"
_POINT_LINE = "%d %d %d\n"  # one line per point of a certificate: a b color


# rows laid out per chunk, so the byte array of a whole large array is never built
_FORMAT_ROWS = 1 << 15
# one digit group: four decimal digits, looked up as four ASCII bytes at once
_GROUP = 10 ** 4


@cache
def _digit_table() -> np.ndarray:
    """Four ASCII bytes per digit group g < 10**4, as one uint32 each.

    Entry g holds g's digits right-aligned, with 0 bytes before them (g = 0 is
    four 0 bytes); entry 10**4 + g holds g zero-padded to four digits, for a
    group below a non-zero higher group.  Built on first use, not at import.
    """
    g = np.arange(_GROUP, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    padded = (g // place % 10 + ord("0")).astype(np.uint8)
    unpadded = np.where(g >= place, padded, 0).astype(np.uint8)
    return np.concatenate([unpadded, padded]).view(np.uint32).ravel()


def _chunk_text(values: np.ndarray, before: list[bytes], first: bytes, last: bytes) -> str:
    """Field k of a flat int64 array in decimal, each after its literal
    before[k % len(before)], except `first` before field 0, and `last` after
    the last field (module docstring)."""
    lit = max(map(len, before))
    mag = np.abs(values).view(np.uint64)  # abs wraps INT64_MIN to itself: 2**63 as uint64
    groups = -(-len(str(int(mag.max()))) // 4)
    slot = lit + 1 + 4 * groups  # literal, sign byte, digit groups
    fields = values.size * slot
    buf = bytearray(fields + len(last))
    text = np.frombuffer(buf, dtype=np.uint8)
    text[:fields].reshape(-1, len(before) * slot)[:] = np.frombuffer(
        b"".join(p.rjust(lit, b"\0") + bytes(1 + 4 * groups) for p in before), dtype=np.uint8)
    buf[:lit] = first.rjust(lit, b"\0")
    buf[fields:] = last
    sign = text[lit:fields:slot]
    sign[values < 0] = ord("-")
    sign[values == 0] = ord("0")  # zero has only empty digit groups
    digits = np.ndarray((values.size, groups), dtype=np.uint32, buffer=buf,
                        offset=lit + 1, strides=(slot, 4))
    table = _digit_table()
    # group j counts from the most significant; a group below a non-zero one is padded;
    # every index is in the table, and mode="clip" lets take write into the strided view
    for j in range(groups - 1, 0, -1):
        high = mag // np.uint64(_GROUP)
        mag -= high * np.uint64(_GROUP)
        mag += (high != 0) * np.uint64(_GROUP)
        table.take(mag.view(np.int64), out=digits[:, j], mode="clip")
        mag = high
    table.take(mag.view(np.int64), out=digits[:, 0], mode="clip")
    del mag  # not held while the text is made
    return buf.translate(None, b"\0").decode()


def format_chunks(line: str, rows: np.ndarray, sep: str = "") -> Iterator[str]:
    """`line % tuple(row)` for each row of a 2-D int array, joined by `sep`,
    one piece of text per chunk of 32,768 rows; the pieces are not joined to
    each other.

    `line` holds one `%d` per column and no other % directive; `line` and
    `sep` hold no NUL character (ValueError otherwise).  The text is laid out
    as bytes, as the module docstring describes.
    """
    pieces = [p.encode() for p in line.split("%d")]
    gap = sep.encode()
    if any(b"%" in p for p in pieces) or b"\0" in line.encode() + gap:
        raise ValueError(f"a line takes %d directives only, and no NUL: {line!r}")
    rows = np.asarray(rows, dtype=np.int64)
    if len(pieces) < 2 or rows.ndim != 2 or rows.shape[1] != len(pieces) - 1:
        raise ValueError(f"{line!r} does not fit rows of shape {rows.shape}")
    # the literal before each field; before a row's first field it is the end of
    # the row above, the separator and the row's start
    before = [pieces[-1] + gap + pieces[0], *pieces[1:-1]]
    for i in range(0, len(rows), _FORMAT_ROWS):
        yield _chunk_text(rows[i:i + _FORMAT_ROWS].ravel(), before, pieces[0], pieces[-1])


def format_rows(line: str, rows: np.ndarray, sep: str = "") -> str:
    """`line % tuple(row)` for each row of a 2-D int array, joined by `sep`.

    The text of certificates, DIMACS clause blocks and triangle listings, from
    one byte-array writer (`format_chunks`).  `line` takes `%d` directives
    only, one per column; any other directive raises ValueError.
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
    # one chunk of rows is stacked at a time, and the text is joined once
    chunks = [format_rows(_POINT_LINE, np.stack([a[i:i + _FORMAT_ROWS], b[i:i + _FORMAT_ROWS],
                                                 c.colors[i:i + _FORMAT_ROWS]], axis=1))
              for i in range(0, a.size, _FORMAT_ROWS)]
    return "".join([f"{MAGIC}\n{region_line}\ncolors {c.num_colors}\n", *chunks])


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
    periodic = isinstance(region, PeriodicStripe)
    where = "fundamental domain" if periodic else "region"
    inside = region.contains((a, b))  # a stripe's points also lie in 0 <= a < period
    if periodic:
        inside &= (a >= 0) & (a < region.period)
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
