"""Exact K-colorability search, f(n) bounds, and DIMACS plumbing.

`decide_k_colorable` answers every K-colorability question, for T_n, a stripe
window or a periodic stripe, by the internal search or by an external SAT
solver command; `compute_f` bounds f(n) by that call for K = 1, 2, ... up to
the chevron coloring's color count.

The internal solver is plain backtracking over a not-all-equal constraint
system (triangles become ternary constraints; in periodic stripes a triangle
whose vertices collide modulo the period degenerates to a binary disequality).
It uses forward checking, most-constrained-variable ordering, and the standard
color symmetry break: a value may only be one more than the largest color used
so far on the current branch.  UNSAT is reported only on exhausted search;
budget cutoffs yield UNKNOWN.

Forward checking and the variable choice are word-parallel: variables are
renumbered by degree, D[c] is the bitset of those whose domain holds color c,
and an apex table holds, for each pair (v, u), the bitset of the w with a row
(v, u, w), so a node is a few big-int operations and scans no rows.

A long search runs on several processes and still returns exactly what the
one-process search returns.  One loop, `_Search.run`, searches a *unit*: a
contiguous stretch of the depth-first order, given as a stack of frames whose
frames below the unit's base have no untried colors left.  The one-process
search is the unit that starts from the empty stack.  It runs alone for
SPLIT_NODES nodes; if it has no verdict by then and the platform can fork
onto at least two CPUs, it pauses, and the caller forks one worker per CPU
that `coloring.usable_cpus` counts (up to 4).  Worker 0 runs on with the
paused unit, and the caller coordinates:

- Stealing.  An idle worker waits while the worker of the earliest running
  unit, in depth-first order, is asked to donate; workers poll their pipe
  every CHECK_EVERY nodes.  The donor picks a frame j: the shallowest frame
  with untried colors at or below the shallowest frame that has tried more
  than one color, or, with no such frame, the deepest frame with untried
  colors.  It gives away all that follows its current subtree at j, frames
  0..j with their untried colors, and zeroes those on its own stack.  The
  donation becomes a unit of its own, right after the donor's.  Its worker
  replays the frames' colors through the same forward checking, which
  rebuilds the donor's bitsets and member lists exactly, and runs on.  The rule
  keeps the split near the donor's place in the order: the donor keeps a
  subtree at a depth where it has already finished one, and the thief starts
  right after it, not past the subtree of a shallow frame, which a budget
  cut or a coloring would keep the one-process search from ever leaving.
- Merging.  Every unit reports how it ended (exhausted, SAT, or cut by the
  node budget or the clock), its node count, the node count at which it
  first reached each new depth, and its colors if SAT.  The caller folds the
  reports in depth-first order: SAT at the first SAT unit after exhausted
  ones only, UNSAT when every unit is exhausted within the budget, UNKNOWN
  with nodes equal to the budget once the running total passes it inside a
  unit.  A unit searches the same nodes in the same order as the
  one-process search does within its stretch, so the fold gives the same
  status, nodes, max_depth and coloring for every node budget; work past
  the verdict is discarded.  A time budget cuts wherever the clock runs out,
  with one process or several, and is not reproducible.

Workers are forked children of the caller that leave only by os._exit, and
the caller kills and reaps every one of them on every way out; each talks to
it over a duplex `multiprocessing.connection` pipe.

Instances beyond the internal solver's reach can be exported as DIMACS CNF and
handed to any SAT-competition-style solver via a subprocess command; a solver
that outlives its time budget is killed with every process it started.
"""

from __future__ import annotations

import os
import random
import shlex
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .coloring import Coloring, color_count, format_chunks, is_proper, usable_cpus
from .constructions import chevron_coloring
from .lattice import LatticePoint, PeriodicStripe, Region, TriangleRegion, points
from .triangles import triangle_ranks

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

# the longest time budget in seconds: an external solver is waited on in
# C-int milliseconds
MAX_SECONDS = ((1 << 31) - 1) // 1000

# A search splits across processes once it has counted this many nodes
# without a verdict.  Fork, pipe and wait take 2-3 ms a worker (and the first
# split imports multiprocessing, 8-10 ms), and every search under about 4,500
# nodes (T9-T11 k3, f(9), the committed certificates) stays in one process.
SPLIT_NODES = 4608
CHECK_EVERY = 256  # nodes between deadline checks, and a worker's pipe polls

# how a unit of the internal search ends, besides SAT
EXHAUSTED, CUT, TIMED_OUT, PAUSED = "exhausted", "cut", "timed out", "paused"


@dataclass
class Budget:
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes must be nonnegative, not {self.max_nodes}")
        if self.max_seconds is not None and not 0 <= self.max_seconds <= MAX_SECONDS:
            # NaN compares false too
            raise ValueError(f"max_seconds must be from 0 to {MAX_SECONDS}, not {self.max_seconds}")


@dataclass
class SolveStats:
    nodes: int = 0
    elapsed: float = 0.0  # the search alone
    build_s: float = 0.0  # constraints and the search's index, before the search
    max_depth: int = 0    # most variables colored at once
    budget_exhausted: bool = False
    work_nodes: int = 0   # nodes counted by every process, discarded speculation too


@dataclass
class SolveOutcome:
    status: str
    coloring: Optional[Coloring] = None
    stats: SolveStats = field(default_factory=SolveStats)
    solver_stderr: str = ""  # external solver's error output, when it gave no verdict


def constraints(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """The coloring constraints of a region: (ternary, binary) rank rows.

    Variables are point ranks, the places of the region's points in (b, a)
    order (for a periodic stripe, its fundamental domain; there rank =
    b * period + a), so there are `region.size()` of them.
    A ternary row (i, j, k) is a triangle that must not be monochromatic, a
    binary row (i, j) requires different colors.  A finite region has one
    ternary row per triangle in enumeration order and no binary rows.  A
    periodic stripe is read off its `window()`, which sees a translate of every
    triangle: a triangle whose vertices collapse to two cells modulo the period
    becomes a binary row.  None collapses to a single cell, which would be a
    contradiction: a cell fixes the row, and no triangle has all three
    vertices in one row.  Periodic rows are sorted and deduplicated.
    """
    if not isinstance(region, PeriodicStripe):
        return triangle_ranks(region), np.empty((0, 2), dtype=np.int64)
    window = region.window()
    cells = np.sort(region.rank(*window.point_arrays())[triangle_ranks(window)], axis=1)
    distinct = (cells[:, 0] != cells[:, 1]) & (cells[:, 1] != cells[:, 2])
    ternary = np.unique(cells[distinct], axis=0).reshape(-1, 3)
    binary = np.unique(cells[~distinct][:, [0, 2]], axis=0).reshape(-1, 2)
    return ternary, binary


def _fewest_colors(ds: list[int], candidates: int) -> int:
    """The candidates whose bit is set in the fewest of the masks `ds`.

    A bit-sliced counter: planes[b] holds bit b of each variable's count.
    From the top plane down, keep the candidates with a 0 there, if any.
    """
    planes: list[int] = []
    for carry in ds:
        for b, plane in enumerate(planes):
            planes[b], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    for plane in reversed(planes):
        if candidates & ~plane:
            candidates &= ~plane
    return candidates


def decide_k_colorable(region: Region, K: int, budget: Budget = Budget(),
                       sat_cmd: Optional[str] = None) -> SolveOutcome:
    """Exact K-colorability of T_n, a stripe window or a periodic stripe.

    A periodic stripe's SAT payload is a base block, a coloring of its
    fundamental domain.  With a `sat_cmd`, the external solver decides, under
    `budget.max_seconds` as its timeout (the node budget is the internal
    search's); otherwise the internal search does.

    The internal search is one loop over an explicit stack with a frame per
    assigned variable, over variables renumbered by degree (see `_Search`);
    the colors are mapped back to rank order for the payload.  A search still
    running after SPLIT_NODES nodes is split across worker processes when it
    can be (see the module docstring); its status, nodes, max_depth and
    coloring are those of the one-process search.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if sat_cmd:
        return _decide_external(region, K, sat_cmd, budget.max_seconds)
    stats = SolveStats()
    start = time.monotonic()
    search = _Search(region, K)
    # the node budget is checked where a node is counted, so it is never overshot
    limit = budget.max_nodes if budget.max_nodes is not None else sys.maxsize
    # one worker per usable CPU, where the platform can fork
    workers = usable_cpus() if hasattr(os, "fork") else 1
    search_start = time.monotonic()
    stats.build_s = search_start - start
    deadline = search_start + budget.max_seconds if budget.max_seconds is not None else None

    def warm_up(nodes):
        if deadline is not None and time.monotonic() > deadline:
            return TIMED_OUT
        return PAUSED if workers > 1 and nodes >= SPLIT_NODES else None

    report = search.run(limit, warm_up)
    if report[0] == PAUSED:
        (status, nodes, max_depth, colors), stats.work_nodes = _split(search, limit, deadline, workers)
    else:
        (status, nodes, max_depth, colors), stats.work_nodes = _merge([report], limit), search.nodes
    stats.elapsed = time.monotonic() - search_start
    stats.nodes, stats.max_depth = nodes, max_depth
    stats.budget_exhausted = status == UNKNOWN
    if status != SAT:
        return SolveOutcome(status, None, stats)
    coloring = Coloring(region, np.array(colors)[search.index], K)
    ok, witness = is_proper(coloring)
    if not ok:
        raise RuntimeError(f"solver produced improper coloring, witness {witness}")
    return SolveOutcome(SAT, coloring, stats)


class _Search:
    """One exact search: its constraint index, the current partial coloring
    and the unit it searches, a contiguous stretch of the depth-first order.

    The index numbers the variables by (degree descending, rank), `index`
    mapping a rank to its search index, so "fewest colors under the cap, then
    higher degree, then first" is the lowest set bit of a mask.  apex[v][u] is
    the bitset of the w with a row (v, u, w), a binary row (i, j) acting as
    (i, i, j); an entry with a single w is the shared bits[w].

    The partial coloring is `color`; D[c], the bitset of the variables whose
    domain still holds c; U, that of the uncolored ones; and members[c], the
    variables colored c, last colored last.  Coloring v with c takes from D[c]
    the uncolored variables in the OR of apex[v][v] and of apex[v][u] for the
    members u of c; one then left in no D has a wiped-out domain.

    The unit is `stack`, its frames [variable, untried color bits, the
    largest color used above it, D[color] before its color was set, the
    color bits the frame started with]; `script`, frames still to push, last
    first; `nodes`, the nodes counted; and `records`, one (nodes, depth) pair
    for each new maximum depth.  The frames below the unit's base have no
    untried colors, so the unit ends when its stack empties.
    """

    def __init__(self, region: Region, K: int):
        ternary, binary = constraints(region)
        self.n = n = region.size()
        degree = np.bincount(np.concatenate([ternary, binary], axis=None), minlength=n)
        self.index = index = np.argsort(np.argsort(-degree, kind="stable"))  # rank -> search index
        self.K, self.bits = K, [1 << v for v in range(n)]
        # (v * n + u) * n + w for each row (v, u, w) in search numbering: a
        # ternary row six ways, a binary row (i, j) as (i, i, j) and (j, j, i)
        vuw = np.concatenate([ternary[:, [0, 1, 2, 0, 2, 1, 1, 0, 2, 1, 2, 0, 2, 0, 1, 2, 1, 0]],
                              binary[:, [0, 0, 1, 1, 1, 0]]], axis=None).reshape(-1, 3)
        key, w = np.divmod(np.sort(index[vuw] @ [n * n, n, 1]), n)
        del ternary, binary, vuw
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # each (v, u)'s first row
        table = np.zeros(n * n, dtype=object)
        table[key[starts]] = np.bitwise_or.reduceat(np.array(self.bits, dtype=object)[w], starts)
        self.apex = table.reshape(n, n).tolist()
        self.start(())

    def start(self, frames: Sequence[tuple[int, int, int]]) -> None:
        """Uncolor every variable and take up the unit that `frames` 0..j of a
        donation describe, as (variable, color, untried bits); no frames make
        the whole search.

        Frames 0..j-1 are pushed with their color ahead of their untried ones
        and frame j with its untried ones alone, so replaying the colors
        (counted from -j up to 0) rebuilds the donor's D bitsets and member
        lists and leaves this unit what the donor gave away.
        """
        n = self.n
        # the color cap is at most n while a variable is uncolored, so no
        # color from n on is ever tried
        k = min(self.K, n)
        self.color = [-1] * n
        self.members = [[] for _ in range(k)]
        self.D = [(1 << n) - 1] * k  # D[c]: the variables whose domain holds c
        self.U = (1 << n) - 1        # the uncolored variables
        self.script = [(v, untried) for v, _, untried in frames[-1:]]
        self.script += [(v, untried | 1 << c) for v, c, untried in reversed(frames[:-1])]
        self.stack, self.records, self.nodes = [], [], min(0, 1 - len(frames))

    def run(self, limit: int, check) -> tuple:
        """Search the unit on to its end; returns (end, nodes, records, colors).

        The end is EXHAUSTED when the stack empties, SAT when every variable
        is colored (with the colors), CUT when the unit would count node
        `limit` + 1, or whatever `check(nodes)` returns: it is called each
        time CHECK_EVERY more nodes have been counted, at the next point where
        every frame is colored, and a unit it stops can be run on.
        """
        n, K, apex, bits = self.n, self.K, self.apex, self.bits
        color, members, D, U = self.color, self.members, self.D, self.U
        stack, script, records, nodes = self.stack, self.script, self.records, self.nodes
        max_depth = records[-1][1] if records else 0
        check_at = max(nodes, 0) + CHECK_EVERY  # never while a script replays
        end = None
        while end is None:
            depth = len(stack)
            if depth > max_depth:
                max_depth = depth
                records.append((nodes, depth))
            if depth == n:
                end = SAT
                break
            if nodes >= check_at:
                check_at = nodes + CHECK_EVERY
                end = check(nodes)
                if end is not None:
                    break
            # a color may be at most one more than the largest used on this branch
            max_used = max(stack[-1][2], color[stack[-1][0]]) if stack else -1
            if script:
                v, untried = script.pop()
            else:
                cap = min(K, max_used + 2)
                # the most constrained variable, ties to the higher degree: the
                # lowest bit of the uncolored variables with the fewest colors
                # under the cap (with none left, any one will do: its frame is
                # popped at once)
                ge1 = ge2 = ge3 = 0
                for d in D[:cap]:
                    ge3 |= ge2 & d
                    ge2 |= ge1 & d
                    ge1 |= d
                cand = U & ~ge1 or U & ~ge2 or U & ~ge3 or _fewest_colors(D[:cap], U)
                v = (cand & -cand).bit_length() - 1
                bit = bits[v]
                untried = 0
                for c in range(cap):
                    if D[c] & bit:
                        untried |= 1 << c
            stack.append([v, untried, max_used, 0, untried])
            # undo the top frame's color and give it the next one that survives
            # forward checking; pop frames that run out of colors
            while stack:
                frame = stack[-1]
                v, untried, _, saved, _ = frame
                c = color[v]
                if c >= 0:
                    color[v] = -1
                    U |= bits[v]
                    D[c] = saved
                    members[c].pop()
                if not untried:
                    stack.pop()
                    continue
                if nodes >= limit:
                    end = CUT
                    break
                bit = untried & -untried
                c = bit.bit_length() - 1
                frame[1] = untried ^ bit
                frame[3] = Dc = D[c]
                nodes += 1
                color[v] = c
                U ^= bits[v]
                # no row turns monochromatic: its third variable lost c when its second took it
                av = apex[v]
                forced = av[v]
                for u in members[c]:
                    forced |= av[u]
                members[c].append(v)
                gone = forced & Dc & U
                D[c] = Dc ^ gone
                for d in D:  # drop the variables that still hold a color; any left are wiped out
                    if not gone:
                        break
                    gone &= ~d
                if not gone:
                    break  # consistent: pick the next variable
            else:
                end = EXHAUSTED
        self.U, self.nodes = U, nodes
        return end, nodes, records, color[:] if end == SAT else None

    def donate(self) -> Optional[list[tuple[int, int, int]]]:
        """What the unit gives away when asked, at a check: frames 0..j as
        (variable, color, untried bits), zeroing those untried bits on its own
        stack; None when no frame qualifies.

        j is the shallowest frame with untried colors at or below the
        shallowest frame that has tried more than one color (one that started
        with a color below its own); with no such frame, the deepest frame
        with untried colors.
        """
        frames = [(f[0], self.color[f[0]], f[1]) for f in self.stack]
        backtracked = [i for i, (f, (_, c, _)) in enumerate(zip(self.stack, frames))
                       if f[4] & ((1 << c) - 1)]
        top = backtracked[0] if backtracked else 0
        candidates = [i for i, (_, _, untried) in enumerate(frames) if untried and i >= top]
        if not candidates:
            return None
        j = candidates[0] if backtracked else candidates[-1]
        for f in self.stack[:j + 1]:
            f[1] = 0
        return frames[:j + 1]


def _merge(reports: Sequence[Optional[tuple]], limit: int) -> Optional[tuple]:
    """Fold unit reports, in depth-first order, as the one-process search would
    count them: (status, nodes, max_depth, colors), or None while a unit that
    decides it has not reported.

    The node budget cuts in the first unit that would take the running total
    past `limit`, or that was itself cut; max_depth is then the deepest point
    reached up to the cut.  A unit that found a coloring, or ran out of time,
    decides once every unit before it is exhausted.
    """
    total = depth = 0
    for report in reports:
        if report is None:
            return None
        end, count, records, colors = report
        if end == CUT or total + count > limit:
            return UNKNOWN, limit, max([depth] + [d for c, d in records if total + c <= limit]), None
        total += count
        depth = max([depth] + [d for _, d in records])
        if end == SAT:
            return SAT, total, depth, colors
        if end == TIMED_OUT:
            return UNKNOWN, total, depth, None
    return UNSAT, total, depth, None


def _work(search: _Search, busy: bool, limit: int, deadline: Optional[float],
          conn, counts, slot: int) -> None:
    """A worker's loop: run each unit it is given and report it, until killed.

    Messages are read in the same check as the deadline.  A request to
    donate stays pending until a frame qualifies or the unit ends; a unit
    told the nodes it has left before the budget stops once past them, since
    the cut then falls inside it.  The worker's node count so far is kept in
    counts[slot], for work_nodes.
    """
    done = 0

    def check(nodes):
        nonlocal pending, left
        counts[slot] = done + max(nodes, 0)
        if deadline is not None and time.monotonic() > deadline:
            return TIMED_OUT
        while conn.poll():
            kind, value = conn.recv()  # "donate" or "left": a busy worker gets no unit
            if kind == "left":
                left = value
            else:
                pending = True
        if nodes > left:
            return CUT
        if pending and (frames := search.donate()):
            conn.send(("give", frames))
            pending = False
        return None

    while True:
        if not busy:
            while (message := conn.recv())[0] != "unit":
                pass  # a message that crossed this worker's last report
            search.start(message[1])
        pending, left, busy = False, limit, False
        report = search.run(limit, check)
        done += search.nodes
        counts[slot] = done
        conn.send(("report", report))


def _split(search: _Search, limit: int, deadline: Optional[float],
           workers: int) -> tuple[tuple, int]:
    """Finish a paused search on `workers` forked processes: the merged
    (status, nodes, max_depth, colors) and the nodes every worker counted.

    Worker 0 runs on with the paused unit, unit 0, and the others start from
    its donations.  An idle worker waits while the worker of the earliest
    running unit, in depth-first order, is asked to donate; a donation
    becomes the unit right after the donor's.  Once every unit before the
    first running one is exhausted, that one is told the nodes it has left.
    Every way out kills and reaps every worker; a worker that dies makes the
    call raise EOFError or an OSError such as ConnectionResetError.
    """
    import mmap  # a split search alone needs these
    from multiprocessing.connection import Pipe, wait

    inbox = []  # (worker, message) pairs: first, unit 0's first donations, made here
    while len(inbox) < workers - 1 and (frames := search.donate()):
        inbox.append((0, ("give", frames)))
    # each worker's node count, the view released before the map closes
    with mmap.mmap(-1, 8 * workers) as shared, memoryview(shared).cast("q") as counts:
        counts[0] = search.nodes
        pids: list[int] = []
        conns = []  # the parent's end of each worker's pipe
        try:
            for w in range(workers):
                ours, theirs = Pipe()
                conns.append(ours)
                try:
                    with warnings.catch_warnings():
                        # numpy's BLAS pool makes this process multi-threaded,
                        # and Python 3.12+ warns at fork: a worker runs only
                        # the pure-Python search, writes only to its pipe and
                        # leaves by os._exit, so it takes no lock those
                        # threads may hold and flushes no buffer twice
                        warnings.simplefilter("ignore", DeprecationWarning)
                        pid = os.fork()
                    if pid == 0:
                        try:
                            for c in conns:
                                c.close()
                            _work(search, w == 0, limit, deadline, theirs, counts, w)
                        finally:
                            os._exit(1)
                    pids.append(pid)
                finally:
                    theirs.close()
            order = [0]                               # unit ids in depth-first order
            holder = [0] + [None] * (workers - 1)     # the unit each worker runs
            reports: dict[int, tuple] = {}
            asked = told = None  # the worker asked to donate, the unit told its nodes left
            while True:
                for w, (kind, value) in inbox:
                    if kind == "give":
                        order.insert(order.index(holder[w]) + 1, len(order))
                        # a worker is asked to donate only while another is idle
                        thief = holder.index(None)
                        holder[thief] = len(order) - 1
                        conns[thief].send(("unit", value))
                    else:
                        reports[holder[w]], holder[w] = value, None
                    if asked == w:
                        asked = None
                if (verdict := _merge([reports.get(u) for u in order], limit)) is not None:
                    break
                first = next(i for i, u in enumerate(order) if u not in reports)
                if limit < sys.maxsize and order[first] != told:
                    told = order[first]
                    left = limit - sum(reports[u][1] for u in order[:first])
                    conns[holder.index(told)].send(("left", left))
                if asked is None and None in holder:
                    asked = min((w for w, u in enumerate(holder) if u is not None),
                                key=lambda w: order.index(holder[w]))
                    conns[asked].send(("donate", None))
                inbox = [(conns.index(c), c.recv()) for c in wait(conns)]
        finally:
            for pid in pids:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            for pid in pids:
                with suppress(ChildProcessError):  # reaped already, where SIGCHLD is ignored
                    os.waitpid(pid, 0)
            for c in conns:
                c.close()
        work = sum(counts)
    return verdict, work


def solve_periodic_stripe(k: int, period: int, K: int, budget: Budget = Budget()) -> SolveOutcome:
    """`decide_k_colorable` on the k-row stripe of period `period`; perfbench/
    calls and traces it by this name."""
    return decide_k_colorable(PeriodicStripe(k, period), K, budget)


@dataclass
class FResult:
    n: int
    lo: int  # smallest K not proven uncolorable
    hi: int  # best proven upper bound: the K found SAT, or the chevron coloring's count
    coloring: Coloring  # a proper coloring with at most hi colors
    solver_stderr: str = ""  # external solver's error output, when it gave no verdict

    @property
    def exact(self) -> Optional[int]:
        return self.lo if self.hi == self.lo else None


def compute_f(n: int, budget: Budget = Budget(), sat_cmd: Optional[str] = None) -> FResult:
    """Decide K = 1, 2, ... until SAT; exact when every smaller K was refuted.

    The chevron coloring bounds K: the search stops at its color count, and
    when a K gives no verdict the chevron coloring is the upper bound.  Only a
    wrong external UNSAT can refute every K up to that count; the result is
    then the empty interval [count + 1, count].
    """
    region = TriangleRegion(n)
    chevron = chevron_coloring(n)
    hi = color_count(chevron)
    for K in range(1, hi + 1):
        outcome = decide_k_colorable(region, K, budget, sat_cmd)
        if outcome.status == SAT:
            return FResult(n, lo=K, hi=K, coloring=outcome.coloring)
        if outcome.status == UNKNOWN:
            return FResult(n, lo=K, hi=hi, coloring=chevron, solver_stderr=outcome.solver_stderr)
    return FResult(n, lo=hi + 1, hi=hi, coloring=chevron)


# -- DIMACS export / import ---------------------------------------------------


class _Clauses(Sequence):
    """Read-only view of a CNF's clause blocks: item i is its i-th clause, a list of ints."""

    def __init__(self, blocks: tuple[np.ndarray, ...]):
        self._blocks = blocks

    def __len__(self):
        return sum(len(b) for b in self._blocks)

    def __getitem__(self, i: int) -> list[int]:
        if i < 0:
            i += len(self)
        for block in self._blocks:
            if 0 <= i < len(block):
                return block[i].tolist()
            i -= len(block)
        raise IndexError("clause index out of range")

    def __iter__(self):
        for block in self._blocks:
            yield from block.tolist()


@dataclass
class CnfInstance:
    region: Region
    K: int
    blocks: tuple[np.ndarray, ...]  # clause rows, one int array per clause width, in order

    @property
    def num_vars(self) -> int:
        return self.region.size() * self.K

    @property
    def points(self) -> list[LatticePoint]:
        """The region's points in rank order, the point of each variable row."""
        return list(points(self.region))

    @property
    def clauses(self) -> Sequence[list[int]]:
        return _Clauses(self.blocks)

    def var(self, point_rank: int, color: int) -> int:
        return point_rank * self.K + color + 1

    def dimacs_chunks(self) -> Iterator[str]:
        """The DIMACS text in pieces: the header line, then each clause block
        a chunk of rows at a time, so a writer never holds the whole text."""
        yield f"p cnf {self.num_vars} {len(self.clauses)}\n"
        for b in self.blocks:
            yield from format_chunks("%d " * b.shape[1] + "0\n", b)

    def to_dimacs(self) -> str:
        return "".join(self.dimacs_chunks())


def export_dimacs(region: Region, K: int) -> CnfInstance:
    """The K-coloring CNF of a region, as three clause blocks of int literals.

    Variable var(rank, c) = rank * K + c + 1 says the point of that rank has
    color c.  The blocks, in clause order: one at-least-one-color clause per
    point, in rank order; then, for each ternary and then each binary row of
    `constraints(region)`, one clause per color forbidding that color on the
    whole row, colors innermost.  At-most-one clauses are omitted: projecting
    a model to each point's lowest true color yields a proper coloring, since
    a monochromatic triple in the projected colors would falsify that row's
    clause.
    """
    ternary, binary = constraints(region)
    n = region.size()
    colors = np.arange(1, K + 1)[:, None]
    blocks = (np.arange(1, n * K + 1).reshape(n, K),
              *((-K * rows[:, None, :] - colors).reshape(-1, rows.shape[1])
                for rows in (ternary, binary)))
    return CnfInstance(region, K, blocks)


def import_assignment(cnf: CnfInstance, assignment_text: str) -> Coloring:
    """Project a DIMACS v-line model onto a coloring by lowest true color."""
    true_vars: set[int] = set()
    seen_any = False
    for line in assignment_text.splitlines():
        line = line.strip()
        if line.startswith("v") or line.startswith("V"):
            line = line[1:]
        elif not line or not (line[0].isdigit() or line[0] == "-"):
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                continue
            seen_any = True
            if 0 < lit <= cnf.num_vars:  # literals beyond the instance are ignored
                true_vars.add(lit)
    if not seen_any:
        raise ValueError("incomplete/invalid assignment")
    # row r holds the truth of var(r, 0), ..., var(r, K-1)
    truth = np.zeros(cnf.num_vars + 1, dtype=bool)
    truth[np.fromiter(true_vars, dtype=np.int64, count=len(true_vars))] = True
    truth = truth[1:].reshape(-1, cnf.K)
    colored = truth.any(axis=1)
    if not colored.all():
        p = cnf.points[int(colored.argmin())]
        raise ValueError(f"incomplete/invalid assignment: no color for point {p}")
    coloring = Coloring(cnf.region, truth.argmax(axis=1), cnf.K)  # lowest true color
    ok, witness = is_proper(coloring)
    if not ok:  # a model of the clauses projects to a proper coloring
        raise ValueError(f"incomplete/invalid assignment: not a model, "
                         f"monochromatic triangle {witness}")
    return coloring


def run_sat_command(sat_cmd: str, dimacs: Iterable[str],
                    timeout: Optional[float] = None):
    """Run an external SAT solver on a DIMACS instance, given as an iterable
    of text chunks that are written out one by one.

    Returns (status, model_text, stderr): status per the s-line, model_text
    the concatenated v-lines, stderr the solver's error output.  The command
    is invoked as `<sat_cmd> <cnf-file>` in a session of its own.  A solver
    that cannot be started or that outlives `timeout` seconds gives UNKNOWN,
    with the reason prepended to stderr; on a timeout its whole process group
    is killed, so no process it started keeps running.
    """
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as f:
        f.writelines(dimacs)
        path = f.name
    try:
        proc = subprocess.Popen(shlex.split(sat_cmd) + [path], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
    except (OSError, ValueError) as e:  # missing or unrunnable command, bad quoting
        Path(path).unlink(missing_ok=True)
        return UNKNOWN, "", f"cannot run solver {sat_cmd!r}: {e}"
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException as e:  # a timeout, or an interrupt the solver's own session
        # does not see: leave no solver process behind
        with suppress(ProcessLookupError):  # the group is already gone
            os.killpg(proc.pid, signal.SIGKILL)
        err = proc.communicate()[1]  # what it wrote before the kill
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        return UNKNOWN, "", f"solver timed out after {timeout}s\n{err}".strip()
    finally:
        Path(path).unlink(missing_ok=True)
    status = UNKNOWN
    model_lines = []
    for line in stdout.splitlines():
        if line.startswith("s "):
            verdict = line[2:].strip().upper()
            if verdict.startswith("SAT"):
                status = SAT
            elif verdict.startswith("UNSAT"):
                status = UNSAT
        elif line.startswith("v ") or line.strip() == "v":
            model_lines.append(line)
    return status, "\n".join(model_lines), stderr


def _decide_external(region: Region, K: int, sat_cmd: str,
                     timeout: Optional[float]) -> SolveOutcome:
    """`decide_k_colorable` by an external SAT solver; `build_s` is the export
    and writing its DIMACS text, `elapsed` the solver run."""
    stats = SolveStats()
    start = time.monotonic()
    cnf = export_dimacs(region, K)
    written = []  # when the last chunk is out, i.e. when the solver starts

    def chunks():
        yield from cnf.dimacs_chunks()
        written.append(time.monotonic())

    status, model, stderr = run_sat_command(sat_cmd, chunks(), timeout)
    stats.build_s, stats.elapsed = written[0] - start, time.monotonic() - written[0]
    if status == SAT:
        try:
            return SolveOutcome(SAT, import_assignment(cnf, model), stats)
        except ValueError as e:  # a SAT answer whose model is not one: no verdict
            status, stderr = UNKNOWN, f"solver said SAT, model rejected: {e}\n{stderr}".strip()
    return SolveOutcome(status, None, stats, solver_stderr=stderr)


# -- incomplete search for upper-bound colorings ------------------------------


def local_search_coloring(region: Region, K: int, seed: int = 0,
                          max_steps: int = 2_000_000,
                          restarts: int = 20) -> Optional[Coloring]:
    """Min-conflicts search for a proper K-coloring; incomplete but fast.

    Only ever returns checker-verified colorings, so a hit is a valid upper
    bound regardless of the heuristic nature of the search.
    """
    rng = random.Random(seed)
    ternary, binary = constraints(region)
    n = region.size()
    # each row's vertices by row id, for the monochromatic test and the draw
    # of the vertex to move; a binary row (i, j) is (i, j, j) here
    groups = np.concatenate([ternary, binary[:, [0, 1, 1]]]).tolist()
    groups_of = [[] for _ in range(n)]  # the ids of the rows on each variable, in row order
    partners = [[] for _ in range(n)]   # and, in the same order, their other two vertices
    for g, row in enumerate(groups):
        for v in set(row):
            groups_of[v].append(g)
            others = row.copy()
            others.remove(v)
            partners[v].append(others)

    for _ in range(max(1, restarts)):
        colors = [rng.randrange(K) for _ in range(n)]
        bad = {gi for gi, (i, j, k) in enumerate(groups)
               if colors[i] == colors[j] == colors[k]}
        steps = 0
        while bad and steps < max_steps // max(1, restarts):
            steps += 1
            gi = rng.choice(tuple(bad))
            v = rng.choice(groups[gi])
            scores = []
            for c in range(K):  # the rows on v that color c leaves monochromatic
                colors[v] = c
                hits = sum(1 for u, w in partners[v] if colors[u] == c and colors[w] == c)
                scores.append((hits, rng.random(), c))
            colors[v] = min(scores)[2]
            for g in groups_of[v]:
                x, y, z = groups[g]
                if colors[x] == colors[y] == colors[z]:
                    bad.add(g)
                else:
                    bad.discard(g)
        if not bad:
            coloring = Coloring(region, colors, K)
            ok, _ = is_proper(coloring)
            if ok:
                return coloring
    return None
