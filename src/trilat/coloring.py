"""Colorings of lattice regions and the monochromatic-triangle checker.

A coloring is a dense int array `colors` in the region's rank order: the
(b, a) order of `lattice.points(region)`, for a periodic stripe that of its
fundamental domain (`Region.rank` maps coordinates to ranks).  It is proper
when no three points forming an equilateral triangle (any orientation, any
size) share a color.

The checker looks up apexes of pairs (p, q) of one color class: the +60
degree apex p + rot(q - p), where rot(a, b) = (-b, a + b) turns a vector by
+60 degrees, and the -60 degree apex, which is the +60 degree apex of
(q, p).  Every region kind is unrolled into one clipped color grid: the
scanned points' rows b_min..b_max plus one border row on each side, and the
columns a_min - (b_max - b_min)..a_max + (b_max - b_min).  The points of T_n
or of a stripe window carry their colors, a periodic stripe is tiled across
its rows, and every other cell holds the sentinel num_colors, which no point
has; the grid's dtype is `np.min_scalar_type(num_colors)`, one byte per cell
up to 255 colors (T600: 602 rows of 1,798 columns, 1.08 MB).  A pair in rank
order has 0 <= b_q - b_p <= b_max - b_min, so the +60 degree apex (a_p - (b_q
- b_p), a_q + b_q - a_p) and the -60 degree apex (a_q + (b_q - b_p), a_p +
b_p - a_q) both have their columns inside the grid.  Their rows can stray
anywhere, but a row below the lower border row gives a flat index below 0 and
one above the upper border row gives one past the end, so a clipped lookup
(`take(mode="clip")`) lands on a sentinel cell of a border row; every other
row is a real row of the grid.  The flat index is affine in the point, so
with U[p] = flat(p - rot p) and V[q] = flat(rot q) - flat(0) the +60 degree
apex of (p, q) sits at U[p] + V[q] and the -60 degree apex at V[p] + U[q]:
one add, one clipped gather and one compare per probe.  The terms are int32,
and so are the scan's indices, whenever that is exact (int64 otherwise).

Only pairs whose apex can lie in the class are probed.  Let p be the vertex
of lowest rank of a monochromatic triangle.  Going round the triangle
counter-clockwise from p, p -> q -> r, each vertex is the +60 degree apex of
the edge before it: r is the +60 degree apex of (p, q), and q the -60 degree
apex of (p, r).  Both q and r come after p in rank order, so scanning the
later members of each p at either rotation, chosen for each p, finds every
monochromatic triangle, and every hit is one.  With s = a + b, the +60
degree apex of (p, q) is (s_p - b_q, s_q - a_p) and lies at a >= a_lo, the
least a of the class, only if b_q <= s_p - a_lo; the -60 degree apex has
a + b = b_q + a_p, at most s_hi, the greatest a + b of the class, only if
b_q <= s_hi - a_p.  (The other sides of the class's hexagon, a <= a_hi and
s >= s_lo, hold for every later member.)  Members come in rank order, so each
bound is a band: the later members up to the last one in row s_p - a_lo, or
in row s_hi - a_p.  Each p takes the shorter band.  A (class, row) table of the
first member of each class in each row gives the band ends with one gather
per bound; it has (classes) x (rows + 2) entries, and when that is more than
twice the points, a search of the sorted (class, row) keys stands in for it.
The search gives the same ends, more slowly (BENCH_pruned_check.json).
Banded T600 then takes 1,375,767 probes, 1.3% of its 104.8 million class
pairs.

The witness is the first pair (p, q), in class order (first appearance in
rank order) and then row-major order, whose +60 degree apex is in the class,
with that apex; the pair-order and triangle-scan oracles are in
tests/oracles.py.  The band scan probes the classes in that order, so its
first hit names the first class with a monochromatic triangle.  That class
alone is then scanned again at +60 degrees, each p up to the end of its +60
degree band, a set that holds every +60 degree hit of the class: its first
hit is the witness.

Periodic stripe colorings are scanned on `PeriodicStripe.window()`, which
holds a translate of every triangle of the stripe, so the bands of the
window's members find every monochromatic triangle.  A witness's apex can be
a tiled cell outside the window, so the witness's class is scanned over all
its pairs.

The scan runs on one thread, in units: a run of rows of about 2**16 probes
(a row is one member p with its band), under 1 MB of temporaries, each cut
and sliced from the band arrays when the scan reaches it.  Rows come in class
order, so the scan stops at the first unit with a hit, which holds the first
hit.

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

A certificate body as `write_certificate` writes it for non-negative values
is read by one strict scan of its bytes.  The grammar: every line is D " " D
" " D "\n", where D is "0" or a digit 1-9 followed by at most 17 digits, and
the body ends in a newline.  The scan takes 256 KB of text at a time, each
chunk cut after a newline, into one (N, 3) int64 array, N the body's newline
count.  The bytes that are not digits are the separators: every third must be
a newline and the others spaces, with no empty value and no leading zero
between them; each value is then built from its digits right to left, one
gather per digit place.  With at most 18 digits every value is below 10**18 <
2**61, the magnitude the per-line parser clamps values to, so the scan reads
no value that parser would clamp, and a + b cannot wrap in int64.  Any other
body goes to the per-line parser, which alone defines what is accepted.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property, partial
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
    """The number of colors the points use; gaps in the palette are not counted."""
    if c.colors.size and c.colors.max() < c.colors.size:  # a dense palette: no sort
        return int(np.count_nonzero(np.bincount(c.colors)))
    return int(np.unique(c.colors).size)


# pair probes per unit of the scan (module docstring): under 1 MB of temporaries
_UNIT = 1 << 16


def _unit_hit(grid: np.ndarray, terms: np.ndarray, unit: tuple) -> Optional[tuple[int, int]]:
    """First probe (r, j), row by row and then by column, of a unit (rows,
    first, count, color) whose cell grid[terms[r] + terms[j]] (clipped to the
    grid) has the row's color, for each row r of `rows` and its columns
    first <= j < first + count."""
    rows, first, count, color = unit
    ends = np.cumsum(count, dtype=count.dtype)
    cols = np.repeat(first - ends + count, count)  # the k-th probe's column, less k
    cols += np.arange(cols.size, dtype=cols.dtype)
    cell = terms.take(cols)
    cell += np.repeat(terms.take(rows), count)
    hit = grid.take(cell, mode="clip") == np.repeat(color, count)
    if not hit.any():
        return None
    k = int(hit.argmax())
    return int(rows[np.searchsorted(ends, k, side="right")]), int(cols[k])


def _scan(grid: np.ndarray, terms: np.ndarray, rows: np.ndarray, first: np.ndarray,
          count: np.ndarray, color: np.ndarray) -> Optional[tuple[int, int]]:
    """The first hit of `_unit_hit` over the rows in order, each with its
    columns first..first + count - 1 (count >= 0) and its color, in units of
    about `_UNIT` probes, each sliced as it is reached."""
    ends = np.cumsum(count, dtype=np.int64)
    probes, i = int(ends[-1]), 0
    while i < rows.size:
        # a unit ends after the row whose probes reach the next multiple of _UNIT
        reach = (int(ends[i - 1]) if i else 0) // _UNIT * _UNIT + _UNIT
        j = int(np.searchsorted(ends, reach)) + 1 if reach < probes else rows.size
        found = _unit_hit(grid, terms, (rows[i:j], first[i:j], count[i:j], color[i:j]))
        if found is not None:
            return found
        i = j
    return None


def _apex_terms(x: np.ndarray, y: np.ndarray, width: int, rise: int) -> np.ndarray:
    """U then V, one entry per member each: the +60 degree apex of the pair
    (p, q) is the grid cell U[p] + V[q], and the -60 degree apex V[p] + U[q]."""
    n = x.size
    terms = np.empty(2 * n, dtype=x.dtype)
    u, v = terms[:n], terms[n:]
    np.add(x, y, out=v)
    np.subtract(v, x * width, out=u)  # (1 - x) * width + x + y + rise
    u += width + rise
    v *= width  # (x + y) * width - y
    v -= y
    return terms


def _bands(x: np.ndarray, y: np.ndarray, firsts: np.ndarray, sizes: np.ndarray,
           rise: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, first columns and column counts of the pruned scan (module
    docstring): for each member i, the later members of its class up to the
    end of its band, at +60 degrees (row i, columns n + j) or at -60 (row
    n + i, columns j), whichever band is shorter."""
    n, dt = x.size, x.dtype
    s = x + y
    x_lo, s_hi = np.minimum.reduceat(x, firsts), np.maximum.reduceat(s, firsts)
    # entry k * (rise + 2) + t of a (class, row) table: the first member of
    # class k in row t or above; `base` is entry k * (rise + 2) of each member's class
    base = np.repeat(np.arange(sizes.size, dtype=dt) * (rise + 2), sizes)
    key = base + y
    key += 1
    if sizes.size * (rise + 2) <= 2 * n:
        below = np.cumsum(np.bincount(key, minlength=sizes.size * (rise + 2)), dtype=dt).take
        del key
    else:  # many classes: search the sorted keys in place of the table
        below = partial(np.searchsorted, key, side="right")

    def first_above(offset, t):
        """For each member, the first member of its class above row offset + t
        (offset per class, t per member, and overwritten)."""
        t += np.repeat(offset + 1, sizes)
        np.clip(t, 0, rise + 1, out=t)
        t += base
        return below(t).astype(dt, copy=False)

    # +60 degrees: the apex (s_p - y_q, s_q - x_p) needs s_p - y_q >= x_lo
    end = first_above(-x_lo, s)
    # -60 degrees: the apex (s_q - y_p, s_p - x_q) needs y_q + x_p <= s_hi
    end_m = first_above(s_hi, -x)
    minus = end_m < end
    np.minimum(end, end_m, out=end)
    del end_m, base, below
    rows = np.arange(n, dtype=dt)
    end -= rows + 1
    np.maximum(end, 0, out=end)
    first = rows + (n + 1)
    np.subtract(first, n, out=first, where=minus)
    np.add(rows, n, out=rows, where=minus)
    return rows, first, end


def is_proper(c: Coloring) -> tuple[bool, Optional[EquilateralTriangle]]:
    """Pair-based properness check; returns (verdict, witness-or-None).

    The color grid is clipped (module docstring): rows b_min - 1..b_max + 1
    of the scanned points, columns a_min - (b_max - b_min)..a_max + (b_max -
    b_min), one cell of dtype `np.min_scalar_type(num_colors)` each, with
    num_colors marking the cells no point colors.  A rank-ordered pair (p, q)
    has 0 <= b_q - b_p <= b_max - b_min, so both its apex columns, a_p - (b_q
    - b_p) at +60 degrees and a_q + (b_q - b_p) at -60, are grid columns, and
    an apex row past either border row clips onto a sentinel cell of that
    border row.  Beside the grid, the scan holds a few arrays of one entry per
    scanned point, and the temporaries of one unit.
    """
    region = c.region
    periodic = isinstance(region, PeriodicStripe)
    a, b = (region.window() if periodic else region).point_arrays()
    n = a.size
    if n < 3:
        return (True, None)
    a_min, b_min = int(a.min()), int(b[0])  # rank order is (b, a)
    wide, rise = int(a.max()) - a_min, int(b[-1]) - b_min
    height, width = rise + 3, wide + 2 * rise + 1
    # int32 holds every coordinate, term, term sum and index below when this bound does
    dt = np.int32 if max(2 * width * width, n * height) < 2 ** 31 else np.int64
    # from here on a point is (x, y) = (a - a_min, b - b_min), in grid column x + rise, row y + 1
    x, y = (a - a_min).astype(dt), (b - b_min).astype(dt)
    del a, b
    grid = np.full(height * width, c.num_colors, dtype=np.min_scalar_type(c.num_colors))
    cell = (y + 1) * width
    cell += x + rise
    if periodic:  # every stripe row, tiled across the grid's columns
        tiles = np.arange(a_min - rise, a_min - rise + width) % region.period
        grid.reshape(height, width)[1:-1] = c.colors.reshape(region.k, region.period)[:, tiles]
    else:
        grid[cell] = c.colors
    colors = grid[cell]
    del cell

    members = np.argsort(colors, kind="stable")  # by color, rank order within each
    ordered = colors[members]
    new = np.empty(n, dtype=bool)  # the member is its color's first
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    order = np.argsort(members[starts])  # classes by first appearance
    sizes = np.diff(starts, append=n)[order]
    color = np.repeat(ordered[starts[order]], sizes)
    firsts = np.cumsum(sizes) - sizes
    at = np.repeat(starts[order] - firsts, sizes)
    at += np.arange(n)
    del colors, ordered, new
    # each class contiguous, in order of first appearance, and in rank order
    x, y = x[members][at], y[members][at]
    del members, at

    band = _bands(x, y, firsts, sizes, rise)
    terms = _apex_terms(x, y, width, rise)  # once the bands' temporaries are gone
    found = _scan(grid, terms, *band, color)
    del band
    if found is None:
        return (True, None)
    # the first class with a hit: its +60 degree hits lie in rows i with
    # columns up to the end of the +60 band
    k = int(np.searchsorted(firsts, found[0] % n, side="right")) - 1
    lo, hi = int(firsts[k]), int(firsts[k] + sizes[k])
    if periodic:  # the apex may be a tiled cell outside the window
        end = hi
    else:
        s = x[lo:hi] + y[lo:hi]
        end = lo + np.searchsorted(y[lo:hi], s - x[lo:hi].min(), side="right")
    # rows lo..hi - 1 at +60 degrees, row-major: the first hit is the witness
    rows = np.arange(lo, hi, dtype=dt)
    count = np.maximum(end - rows - 1, 0).astype(dt, copy=False)
    i, j = _scan(grid, terms, rows, rows + n + 1, count, color[lo:hi])
    j -= n
    p1 = LatticePoint(int(x[i]) + a_min, int(y[i]) + b_min)
    p2 = LatticePoint(int(x[j]) + a_min, int(y[j]) + b_min)
    apex = LatticePoint(p1.a + p1.b - p2.b, p2.a + p2.b - p1.a)
    return (False, EquilateralTriangle.of(p1, p2, apex))


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


# a canonical body is scanned in chunks of this many bytes, each cut after a newline
_READ_CHUNK = 1 << 18
# the most digits of a value in a canonical body: below 10**18 < 2**61 = _CLAMP,
# so no value the scan reads is clamped and a + b cannot wrap
_MAX_DIGITS = 18


def _canonical_rows(body: str) -> Optional[np.ndarray]:
    """The (a, b, color) rows of a body exactly as `write_certificate` writes
    it for non-negative values of at most 18 digits, by one strict scan of its
    bytes (module docstring); None for any other body."""
    if not body.isascii() or not body.endswith("\n"):
        return None if body else np.empty((0, 3), dtype=np.int64)
    lines = body.count("\n")
    if len(body) < 6 * lines:  # shorter than "0 0 0\n" a line: blank lines at least
        return None
    rows = np.empty((lines, 3), dtype=np.int64)
    values = rows.reshape(-1)
    start = done = 0
    while start < len(body):
        end = body.find("\n", start + _READ_CHUNK - 1) + 1 or len(body)
        text = np.frombuffer(body[start:end].encode("ascii"), dtype=np.uint8)
        start = end
        digit = text - np.uint8(ord("0"))  # bytes below '0' wrap round past 9
        other = digit > 9
        sep = np.flatnonzero(other)
        m = sep.size
        # " ", " ", "\n" per line: every third separator is a newline, and the
        # chunk holds as many spaces as the other separators
        if (m % 3 or np.count_nonzero(text == ord(" ")) != m // 3 * 2
                or not (text.take(sep[2::3]) == ord("\n")).all()):
            return None
        prev = np.empty_like(sep)  # the separator before each value; -1 reads the final newline
        prev[0] = -1
        prev[1:] = sep[:-1]
        at = sep - prev  # each value's digits, plus 1
        places = int(at.max()) - 1
        if at.min() < 2 or places > _MAX_DIGITS:
            return None
        # a leading zero: a 0 at a line's start or after a space, then a digit
        lead = digit[:-1] == 0
        lead[1:] &= other[:-2]
        lead &= digit[1:] <= 9
        if lead.any():
            return None
        # each value from its digits right to left, one gather per digit place;
        # a place left of a value's first digit reads the separator before it, as 0
        digit[sep] = 0
        out = values[done:done + m]
        done += m
        np.subtract(sep, 1, out=at)
        out[:] = digit.take(at)
        for place in range(1, places):
            at -= 1
            np.maximum(at, prev, out=at)
            out += np.multiply(digit.take(at), 10 ** place, dtype=np.int64)
    return rows


def read_certificate(text: str) -> Coloring:
    """The coloring a certificate describes; CertificateError names its first fault.

    A body (the text after the three header lines) exactly as
    `write_certificate` writes it for non-negative values, and nothing else, is
    read by one strict scan of its bytes (module docstring): every line is
    three values and two single spaces, ended by a newline, each value "0" or
    at most 18 digits with no leading zero.  Such a line is the canonical
    decimal form of its row, which `str.split` and `int` read back as that row,
    and its values are below 10**18 < 2**61, so none is clamped: the per-line
    parser would read the same rows and no malformed line, and both paths give
    the same coloring or the same error.  Any other body (comments, blank
    lines, CRLF, tabs, a sign, leading zeros, 19 digits or more, non-ASCII
    text, no final newline) goes to the per-line parser, which alone defines
    what is accepted.

    When the rows' points are the region's points in rank order (its
    `point_arrays`, as `write_certificate` lists them), none can be outside
    the region, repeated or missing, so only the colors' range is checked and
    the colors are already in rank order.  Any other rows go through the
    region, duplicate and gap checks, in that order for each line.
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
    bad = (col < 0) | (col >= num_colors)
    # the region's points in rank order, as `write_certificate` lists them:
    # none can be outside, repeated or missing
    ranked = a.size == region.size() and all(map(np.array_equal, (a, b), region.point_arrays()))
    if not ranked:
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
        bad |= ~inside | duplicate
    # report the first bad line, by the first check it fails; the rows stop
    # before a malformed line, so a bad line ahead of it comes first
    if bad.any():
        r = int(bad.argmax())
        line = lines[r] if lines is not None else _POINT_LINE.rstrip() % tuple(rows[r].tolist())
        if not ranked and not inside[r]:
            raise CertificateError(f"point outside {where}: {line!r}")
        if not ranked and duplicate[r]:
            raise CertificateError(f"duplicate point: {line!r}")
        raise CertificateError(f"color out of range: {line!r}")
    if malformed is not None:
        raise CertificateError(f"bad point line: {malformed!r}")
    if ranked:
        colors = col
    else:
        # every point is in the region and distinct, so a short count means a
        # gap; checking it first keeps a huge declared region from being laid out
        if a.size != region.size():
            raise CertificateError("partial coloring")
        colors = np.full(a.size, -1, dtype=np.int64)  # a slot left unfilled fails the range check
        colors[region.rank(a, b)] = col
    return Coloring(region, colors, num_colors)
