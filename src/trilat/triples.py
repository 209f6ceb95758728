"""Modified Steiner triple systems: r pairs uncovered, r pairs doubly covered.

A triple system on v points is "modified" with defect r when exactly r of the
C(v, 2) point pairs appear in no triple, exactly r appear in two, every other
pair appears in exactly one, and no pair appears more often.  Summing pair
multiplicities shows such a system always has exactly C(v, 2) / 3 triples, so
3 | C(v, 2) is a hard feasibility precondition independent of r.

The equilateral triangles of T_n, viewed as triples on its n(n+1)/2 points,
form such a system with r = a2(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Optional

import numpy as np

from .lattice import TriangleRegion
from .solver import constraints

HEADER = "trilat-triples v1"


@dataclass
class TripleSystem:
    v: int
    triples: list[frozenset]

    def __post_init__(self):
        if self.v >= 1 << 63:  # points are counted as int64
            raise ValueError(f"too many points: {self.v}")
        triples = list(map(frozenset, self.triples))
        sizes = np.fromiter(map(len, triples), dtype=np.int64, count=len(triples))
        # object entries compare as Python ints, so no value can overflow
        points = np.fromiter(chain.from_iterable(triples), dtype=object, count=int(sizes.sum()))
        bad = sizes != 3
        bad[np.repeat(np.arange(len(triples)), sizes)[(points < 1) | (points > self.v)]] = True
        first_bad = int(np.argmax(bad)) if bad.any() else len(triples)
        head = triples[:first_bad]  # the first fault in list order is reported
        if len(set(head)) < len(head):
            seen = set()
            for t in head:
                if t in seen:
                    raise ValueError(f"duplicate triple {sorted(t)}")
                seen.add(t)
        if first_bad < len(triples):
            raise ValueError(f"invalid triple {sorted(triples[first_bad])}")


@dataclass
class PairProfile:
    """Histogram: pair multiplicity -> number of pairs."""
    histogram: dict[int, int]

    def count(self, multiplicity: int) -> int:
        return self.histogram.get(multiplicity, 0)


def profile(ts: TripleSystem) -> PairProfile:
    points = np.fromiter(chain.from_iterable(ts.triples), dtype=np.int64,
                         count=3 * len(ts.triples))
    # a pair's key is built from the ranks of its points among those used
    used, ranks = np.unique(points, return_inverse=True)
    tri = np.sort(ranks.reshape(-1, 3), axis=1)
    keys = np.concatenate([tri[:, 0] * used.size + tri[:, 1],
                           tri[:, 0] * used.size + tri[:, 2],
                           tri[:, 1] * used.size + tri[:, 2]])
    covered = np.unique(keys, return_counts=True)[1]
    hist = {m: c for m, c in enumerate(np.bincount(covered).tolist()) if c}
    if comb(ts.v, 2) > covered.size:
        hist[0] = comb(ts.v, 2) - covered.size
    return PairProfile(hist)


def is_modified_sts(ts: TripleSystem) -> Optional[int]:
    """The defect r if the system is a modified triple system, else None."""
    prof = profile(ts)
    if any(m > 2 for m in prof.histogram):
        return None
    r = prof.count(0)
    if prof.count(2) != r:
        return None
    if prof.count(1) != comb(ts.v, 2) - 2 * r:
        return None
    return r


def triangle_system(n: int) -> TripleSystem:
    """The equilateral triangles of T_n as triples on its points (1-indexed canonically)."""
    pts, ternary, _ = constraints(TriangleRegion(n))
    return TripleSystem(len(pts), list(map(frozenset, (ternary + 1).tolist())))


def search_modified_sts(v: int, r: int, max_nodes: int = 5_000_000):
    """Exhaustive backtracking for a modified triple system on v points.

    Returns a TripleSystem, "UNSAT", or "UNKNOWN" on budget exhaustion.
    Triples are chosen in lexicographic order with pair-multiplicity pruning.
    """
    if v < 3 or r < 0:
        raise ValueError("need v >= 3 and r >= 0")
    pairs_total = comb(v, 2)
    if pairs_total % 3 != 0:
        return "UNSAT"  # |triples| = C(v,2)/3 must be integral
    target = pairs_total // 3
    if r > pairs_total:
        return "UNSAT"
    candidates = [tuple(c) for c in combinations(range(1, v + 1), 3)]
    pair_ids = {frozenset(p): i for i, p in enumerate(combinations(range(1, v + 1), 2))}
    cand_pairs = [tuple(pair_ids[frozenset(p)] for p in combinations(c, 2))
                  for c in candidates]
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
                return TripleSystem(v, [frozenset(candidates[c]) for c in chosen])
            ci = len(candidates)
        elif len(candidates) - ci < target - len(chosen):
            ci = len(candidates)


# -- file format --------------------------------------------------------------


def write_triples(ts: TripleSystem) -> str:
    lines = [HEADER, f"points {ts.v}"]
    for t in sorted(tuple(sorted(t)) for t in ts.triples):
        lines.append(" ".join(map(str, t)))
    return "\n".join(lines) + "\n"


def read_triples(text: str) -> TripleSystem:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != HEADER:
        raise ValueError("bad or missing header")
    if len(lines) < 2 or not lines[1].startswith("points "):
        raise ValueError("missing points line")
    v = int(lines[1].split()[1])
    triples = [frozenset(map(int, ln.split())) for ln in lines[2:]]
    return TripleSystem(v, triples)
