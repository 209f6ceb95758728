"""Modified Steiner triple systems: r pairs uncovered, r pairs doubly covered.

A triple system on v points is "modified" with defect r when exactly r of the
C(v, 2) point pairs appear in no triple, exactly r appear in two, every other
pair appears in exactly one, and no pair appears more often.  Summing pair
multiplicities shows such a system always has exactly C(v, 2) / 3 triples, so
3 | C(v, 2) is a hard feasibility precondition independent of r.

The equilateral triangles of T_n, viewed as triples on its n(n+1)/2 points,
form such a system with r = a2(n).  A system is a (T, 3) int64 array of points
1..v, rows ascending; its text is `trilat-triples v1`, `points <v>` and a line
`a b c` per triple (any order; written sorted), `#` comments and blanks skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .coloring import format_rows
from .lattice import TriangleRegion
from .solver import constraints

HEADER = "trilat-triples v1"


@dataclass
class TripleSystem:
    v: int
    triples: np.ndarray  # (T, 3) int64, rows ascending, points 1..v

    def __post_init__(self):
        if not 0 <= self.v < 1 << 63:  # points are counted as int64
            raise ValueError(f"{'too many' if self.v > 0 else 'negative'} points: {self.v}")
        try:
            rows = np.asarray(self.triples, dtype=np.int64)
            if rows.shape != (0,) and (rows.ndim != 2 or rows.shape[1] != 3):
                raise ValueError(f"shape {rows.shape}, not (T, 3)")
        except (ValueError, OverflowError, TypeError) as e:  # a wrong shape, ragged rows, non-ints
            raise ValueError(f"invalid triple rows: {e}") from e
        self.triples = rows = rows.reshape(-1, 3)
        a, b, c = rows.T
        # report the first fault in row order: the first invalid row, unless a row
        # before it repeats one (a later row of an equal run in the stable lexsort)
        first_bad = int(np.append((a < 1) | (a >= b) | (b >= c) | (c > self.v), True).argmax())
        head = rows[:first_bad]
        order = np.lexsort(head.T)
        later = order[1:][(head[order[1:]] == head[order[:-1]]).all(axis=1)]
        if later.size:
            raise ValueError(f"duplicate triple {head[later.min()].tolist()}")
        if first_bad < len(rows):
            raise ValueError(f"invalid triple {rows[first_bad].tolist()}")


@dataclass
class PairProfile:
    """Histogram: pair multiplicity -> number of pairs."""
    histogram: dict[int, int]

    def count(self, multiplicity: int) -> int:
        return self.histogram.get(multiplicity, 0)


def profile(ts: TripleSystem) -> PairProfile:
    # pair keys from the ranks of the points used (the ranks keep rows ascending)
    used, ranks = np.unique(ts.triples, return_inverse=True)
    tri = ranks.reshape(-1, 3)
    keys = tri[:, [0, 0, 1]] * used.size + tri[:, [1, 2, 2]]
    covered = np.unique(keys, return_counts=True)[1]
    counts = np.bincount(covered, minlength=1).tolist()
    counts[0] = comb(ts.v, 2) - covered.size  # the pairs no triple covers
    return PairProfile({m: c for m, c in enumerate(counts) if c})


def is_modified_sts(ts: TripleSystem) -> int | None:
    """The defect r if the system is a modified triple system, else None."""
    prof = profile(ts)
    r = prof.count(0)
    # the histogram counts all C(v, 2) pairs, so C(v, 2) - 2r are then covered once
    return r if prof.histogram.keys() <= {0, 1, 2} and prof.count(2) == r else None


def triangle_system(n: int) -> TripleSystem:
    """The equilateral triangles of T_n as triples on its points (1-indexed canonically)."""
    pts, ternary, _ = constraints(TriangleRegion(n))
    return TripleSystem(len(pts), ternary + 1)


def search_modified_sts(v: int, r: int, max_nodes: int = 5_000_000):
    """Exhaustive backtracking for a modified triple system on v points.

    Returns a TripleSystem, "UNSAT", or "UNKNOWN" on budget exhaustion.
    Triples are chosen in lexicographic order with pair-multiplicity pruning.
    """
    if v < 3 or r < 0:
        raise ValueError("need v >= 3 and r >= 0")
    pairs_total = comb(v, 2)
    if pairs_total % 3 or r > pairs_total:
        return "UNSAT"  # |triples| = C(v,2)/3 must be integral, and r <= C(v,2)
    target = pairs_total // 3
    candidates = np.array(list(combinations(range(1, v + 1), 3)), dtype=np.int64)
    # pair (i, j), i < j, is number (i-1)(2v-i)/2 + j-i-1 in combinations order
    i, j = candidates[:, [0, 0, 1]], candidates[:, [1, 2, 2]]
    cand_pairs = ((i - 1) * (2 * v - i) // 2 + j - i - 1).tolist()
    mult = [0] * pairs_total
    # one loop over an explicit stack: chosen[d] is the candidate taken at
    # depth d, twos[d] the doubly covered pairs after d choices, ci the next
    # candidate to try at the current depth
    chosen: list[int] = []
    twos = [0]
    ci = nodes = 0
    while True:
        if ci == len(candidates):
            if not chosen:
                return "UNSAT"
            ci = chosen.pop()
            twos.pop()
            for p in cand_pairs[ci]:
                mult[p] -= 1
            ci += 1
            continue
        nodes += 1
        if nodes > max_nodes:
            return "UNKNOWN"
        ps = cand_pairs[ci]
        ci += 1
        if any(mult[p] >= 2 for p in ps):
            continue
        new_twos = twos[-1] + sum(mult[p] for p in ps)  # each mult[p] is 0 or 1 here
        if new_twos > r:
            continue
        for p in ps:
            mult[p] += 1
        chosen.append(ci - 1)
        twos.append(new_twos)
        # a branch just extended: done, or backtrack when it is complete or
        # too few candidates are left (never so at the root: C(v, 3) >= target)
        if len(chosen) == target:
            if mult.count(0) == r and new_twos == r:
                return TripleSystem(v, candidates[chosen])
            ci = len(candidates)
        elif len(candidates) - ci < target - len(chosen):
            ci = len(candidates)


# -- file format --------------------------------------------------------------


def write_triples(ts: TripleSystem) -> str:
    rows = ts.triples[np.lexsort(ts.triples.T[::-1])]
    return f"{HEADER}\npoints {ts.v}\n" + format_rows("%d %d %d\n", rows)


def read_triples(text: str) -> TripleSystem:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or lines[0] != HEADER:
        raise ValueError("bad or missing header")
    points = lines[1].split() if len(lines) > 1 else []
    if len(points) != 2 or points[0] != "points":
        raise ValueError("bad or missing points line: expected 'points <count>'")
    v = int(points[1])
    rows = []
    for ln in lines[2:]:
        try:
            row = sorted(map(int, ln.split()))
            ok = len(set(row)) == len(row) == 3 and -1 << 63 <= row[0] and row[2] < 1 << 63
        except ValueError:
            row, ok = ln.split(), False
        if not ok:
            TripleSystem(v, rows)  # a fault on an earlier line is reported first
            raise ValueError(f"invalid triple {row}")
        rows.append(row)
    return TripleSystem(v, rows)
