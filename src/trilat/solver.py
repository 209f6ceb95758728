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

The variable choice is word-parallel: variables are renumbered by degree, and
per-color bitsets of the variables whose domain still holds that color make
"fewest colors, then highest degree, then first" a few big-int operations and
a lowest-set-bit, instead of a scan over every variable at every node.

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
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .coloring import Coloring, color_count, format_chunks, is_proper
from .constructions import chevron_coloring
from .lattice import LatticePoint, PeriodicStripe, Region, TriangleRegion, points
from .triangles import triangle_ranks

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


@dataclass
class Budget:
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass
class SolveStats:
    nodes: int = 0
    elapsed: float = 0.0  # the search alone
    build_s: float = 0.0  # constraints and the search's index, before the search
    max_depth: int = 0    # most variables colored at once
    budget_exhausted: bool = False


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


def constraint_lists(n: int, ternary: np.ndarray, binary: np.ndarray) -> list[list[tuple[int, int]]]:
    """Per-variable constraint lists of n variables: partners[v].

    partners[v] holds one (u, w) per constraint row on v: once two of v, u, w
    share a color, the third must avoid it.  A ternary row (i, j, k) gives
    (j, k), (i, k) and (i, j); a binary row (i, j) acts as (i, i, j), giving
    (i, j) to i and (j, i) to j.  Every list holds the ternary rows first and
    then the binary rows, each in row order.
    """
    # (v, u, w) once per variable of each row, rows in order
    vuw = np.concatenate([ternary[:, [0, 1, 2, 1, 0, 2, 2, 0, 1]].reshape(-1, 3),
                          binary[:, [0, 0, 1, 1, 1, 0]].reshape(-1, 3)])
    order = np.argsort(vuw[:, 0], kind="stable")
    ends = np.cumsum(np.bincount(vuw[:, 0], minlength=n)).tolist()
    pairs = list(zip(vuw[order, 1].tolist(), vuw[order, 2].tolist()))
    del vuw, order
    return [pairs[s:e] for s, e in zip([0] + ends[:-1], ends)]


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

    The internal search is one loop over an explicit stack with a
    frame per assigned variable: [variable, its untried color bits, the
    largest color used above it, the variables its color was removed from,
    D[color] before that removal].

    Variables are renumbered by (degree descending, rank) before the search,
    so "fewest colors under the cap, then higher degree, then first" is the
    lowest set bit of a mask.  D[c] is the bitset of variables whose domain
    still holds c and U the bitset of uncolored ones; one pass over D[:cap]
    gives the variables with at least one, two and three colors, and a
    bit-sliced count settles the rare node where every candidate has more.
    Forward checking flips a variable's bit in D[c] with its domain bit, and
    the frame keeps the old D[c] to restore it.  When several variables have
    no color left under the cap, the lowest-numbered one is taken, not the
    first by rank as a scan would; the choice is harmless, because that frame
    has nothing to try and is popped before it counts a node.  The colors are
    mapped back to rank order for the payload.
    """
    if K < 1:
        raise ValueError("K must be positive")
    if sat_cmd:
        return _decide_external(region, K, sat_cmd, budget.max_seconds)
    stats = SolveStats()
    start = time.monotonic()
    ternary, binary = constraints(region)
    n = region.size()
    degree = np.bincount(ternary.ravel(), minlength=n) + np.bincount(binary.ravel(), minlength=n)
    order = np.argsort(-degree, kind="stable")  # search index -> rank
    index = np.empty(n, dtype=np.int64)         # rank -> search index
    index[order] = np.arange(n)
    partners = constraint_lists(n, index[ternary], index[binary])
    bits = [1 << v for v in range(n)]
    # the color cap below is at most n while a variable is uncolored, so no
    # color from n on is ever tried
    dom = [(1 << min(K, n)) - 1] * n
    color = [-1] * n
    D = [(1 << n) - 1] * min(K, n)  # D[c]: the variables whose domain holds c
    U = (1 << n) - 1        # the uncolored variables
    # the node budget is checked where a node is counted, so it is never overshot
    limit = budget.max_nodes if budget.max_nodes is not None else sys.maxsize
    nodes = max_depth = 0
    search_start = time.monotonic()
    stats.build_s = search_start - start
    deadline = search_start + budget.max_seconds if budget.max_seconds is not None else None
    stack: list[list] = []
    status = None
    while status is None:
        depth = len(stack)
        if depth > max_depth:
            max_depth = depth
        if depth == n:
            status = SAT
            break
        if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
            status = UNKNOWN
            break
        # a color may be at most one more than the largest used on this branch
        max_used = max(stack[-1][2], color[stack[-1][0]]) if stack else -1
        cap = min(K, max_used + 2)
        # the most constrained variable, ties to the higher degree: the lowest
        # bit of the uncolored variables with the fewest colors under the cap
        # (with none left, any one will do: its frame is popped at once)
        ge1 = ge2 = ge3 = 0
        for d in D[:cap]:
            ge3 |= ge2 & d
            ge2 |= ge1 & d
            ge1 |= d
        cand = U & ~ge1 or U & ~ge2 or U & ~ge3 or _fewest_colors(D[:cap], U)
        v = (cand & -cand).bit_length() - 1
        stack.append([v, dom[v] & ((1 << cap) - 1), max_used, (), 0])
        # undo the top frame's color and give it the next one that survives
        # forward checking; pop frames that run out of colors
        while stack:
            frame = stack[-1]
            v, untried, _, removed, saved = frame
            c = color[v]
            if c >= 0:
                color[v] = -1
                U |= bits[v]
                D[c] = saved
                bit = 1 << c
                for x in removed:
                    dom[x] |= bit
            if not untried:
                stack.pop()
                continue
            if nodes >= limit:
                status = UNKNOWN
                break
            bit = untried & -untried
            c = bit.bit_length() - 1
            frame[1] = untried ^ bit
            frame[3] = removed = []
            frame[4] = Dc = D[c]
            nodes += 1
            color[v] = c
            U ^= bits[v]
            for (u, w) in partners[v]:
                if color[u] == c:
                    x = w
                elif color[w] == c:
                    x = u
                else:
                    continue
                if color[x] == c:
                    break  # a monochromatic constraint: next color
                if color[x] < 0 and dom[x] & bit:
                    dom[x] ^= bit
                    Dc ^= bits[x]
                    removed.append(x)
                    if not dom[x]:
                        break  # a wiped-out domain: next color
            else:
                D[c] = Dc
                break  # consistent: pick the next variable
        else:  # the first variable ran out of colors
            status = UNSAT
    stats.elapsed = time.monotonic() - search_start
    stats.nodes, stats.max_depth = nodes, max_depth
    stats.budget_exhausted = status == UNKNOWN
    if status != SAT:
        return SolveOutcome(status, None, stats)
    by_rank = np.empty(n, dtype=np.int64)
    by_rank[order] = color
    coloring = Coloring(region, by_rank, K)
    ok, witness = is_proper(coloring)
    if not ok:
        raise RuntimeError(f"solver produced improper coloring, witness {witness}")
    return SolveOutcome(SAT, coloring, stats)


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
    partners = constraint_lists(n, ternary, binary)
    # each row's vertices by row id, for the monochromatic test and the draw
    # of the vertex to move; a binary row (i, j) is (i, j, j) here
    groups = np.concatenate([ternary, binary[:, [0, 1, 1]]]).tolist()
    groups_of = [[] for _ in range(n)]  # the ids of the rows on each variable, in row order
    for g, row in enumerate(groups):
        for v in set(row):
            groups_of[v].append(g)

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
