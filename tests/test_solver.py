import hashlib
import itertools
import os
import random
import shlex
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from trilat import solver
from trilat.coloring import Coloring, color_count, is_proper, write_certificate
from trilat.lattice import LatticePoint, PeriodicStripe, StripeWindow, TriangleRegion
from trilat.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Budget,
    _fewest_colors,
    _Search,
    compute_f,
    constraints,
    decide_k_colorable,
    export_dimacs,
    import_assignment,
    local_search_coloring,
    run_sat_command,
    solve_periodic_stripe,
)

SATSTUB = f"{sys.executable} {Path(__file__).with_name('satstub.py')}"


def test_t4_two_colors_unsat():
    assert decide_k_colorable(TriangleRegion(4), 2).status == UNSAT


def test_t4_three_colors_sat():
    out = decide_k_colorable(TriangleRegion(4), 3)
    assert out.status == SAT
    assert is_proper(out.coloring)[0]
    assert color_count(out.coloring) <= 3


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 2), (4, 3),
                                        (5, 3), (6, 3), (7, 3), (8, 3)])
def test_small_f_values(n, expected):
    assert compute_f(n).exact == expected


def test_f_monotone_on_proven_values():
    values = [compute_f(n).exact for n in range(1, 9)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", range(1, 8))
def test_compute_f_external_agrees(n):
    assert compute_f(n, sat_cmd=SATSTUB).exact == compute_f(n).exact


def test_sat_payload_always_checked():
    for n in range(1, 7):
        for k in range(1, 5):
            out = decide_k_colorable(TriangleRegion(n), k)
            if out.status == SAT:
                assert is_proper(out.coloring)[0]
                assert out.coloring.num_colors == k


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
def test_backtracking_agrees_with_exhaustive(n, k):
    region = TriangleRegion(n)
    exhaustive = any(
        is_proper(Coloring(region, bits, k))[0]
        for bits in itertools.product(range(k), repeat=region.size())
    )
    assert (decide_k_colorable(region, k).status == SAT) == exhaustive


STRIPE_S6_K3_NODES = [3, 18, 75, 171, 461, 2205, 7071, 15703, 20313, 22960, 24328, 25144]


STRIPE_S6_K3_DEPTHS = [2, 5, 8, 10, 16, 18, 21, 24, 27, 28, 31, 32]


@pytest.mark.parametrize("solve,status,nodes,max_depth,sha", [
    *[(lambda n=n: decide_k_colorable(TriangleRegion(n), 3), UNSAT, nodes, depth, None)
      for n, nodes, depth in [(9, 4193, 22), (10, 3810, 21), (11, 3919, 24)]],
    *[(lambda p=p: solve_periodic_stripe(6, p, 3), UNSAT, nodes, depth, None)
      for p, (nodes, depth) in enumerate(zip(STRIPE_S6_K3_NODES, STRIPE_S6_K3_DEPTHS), start=1)],
    (lambda: decide_k_colorable(TriangleRegion(12), 4), SAT, 762, 78, "578805bbef3c63d9"),
    (lambda: decide_k_colorable(TriangleRegion(9), 3, Budget(max_nodes=5)), UNKNOWN, 5, 5, None),
    (lambda: decide_k_colorable(TriangleRegion(16), 5), SAT, 39731, 136, "c330a717aa8a8f5d"),
    (lambda: solve_periodic_stripe(6, 4, 4), SAT, 787, 24, "666eaa66c7f704bc"),
    (lambda: decide_k_colorable(TriangleRegion(45), 23), SAT, 1035, 1035, "c35e91da94c28940"),
    (lambda: decide_k_colorable(TriangleRegion(12), 4, Budget(max_nodes=77)), UNKNOWN, 77, 42, None),
], ids=["T9k3", "T10k3", "T11k3", *[f"S6p{p}k3" for p in range(1, 13)], "T12k4", "T9k3-budget5",
        "T16k5", "S6p4k4", "T45k23", "T12k4-budget77"])
def test_search_order_pinned(solve, status, nodes, max_depth, sha):
    """Status, node count, max_depth and SAT certificate (sha256 prefix) of
    the exact search: any change to the variable or color order, the pruning,
    the point where a wiped-out domain is found or the budget check moves
    these, and so does a renumbering slip that still returns some other
    proper coloring."""
    out = solve()
    assert (out.status, out.stats.nodes, out.stats.max_depth) == (status, nodes, max_depth)
    assert out.stats.budget_exhausted == (status == UNKNOWN)
    cert = write_certificate(out.coloring) if out.coloring is not None else None
    assert (cert and hashlib.sha256(cert.encode()).hexdigest()[:16]) == sha


@pytest.mark.parametrize("region", [
    *[TriangleRegion(n) for n in range(1, 13)],
    PeriodicStripe(3, 2), PeriodicStripe(4, 3), PeriodicStripe(6, 1), PeriodicStripe(6, 12),
    StripeWindow(3, -4, 2), StripeWindow(4, -3, 6),
], ids=repr)
def test_apex_table_matches_rows(region):
    """The search's apex table, against a loop over the rows of
    `constraints` under the (degree descending, rank) numbering: apex[v][u]
    holds the w of each row (v, u, w), a binary row (i, j) acting as (i, i, j),
    and every other entry is 0.  An entry with one w is bits[w] itself, not a
    copy."""
    search = _Search(region, 3)
    ternary, binary = constraints(region)
    n = region.size()
    degree = [0] * n
    for row in ternary.tolist() + binary.tolist():
        for r in row:
            degree[r] += 1
    order = sorted(range(n), key=lambda r: (-degree[r], r))
    assert search.index.tolist() == [order.index(r) for r in range(n)]
    index, bits = search.index.tolist(), search.bits
    expected = [[0] * n for _ in range(n)]
    for row in ternary.tolist():
        for v, u, w in itertools.permutations(row):
            expected[index[v]][index[u]] |= bits[index[w]]
    for i, j in binary.tolist():
        expected[index[i]][index[i]] |= bits[index[j]]
        expected[index[j]][index[j]] |= bits[index[i]]
    assert search.apex == expected
    singles = [a for row in search.apex for a in row if a and not a & (a - 1)]
    assert all(a is bits[a.bit_length() - 1] for a in singles)


def test_fewest_colors_matches_popcount():
    rng = random.Random(5)
    for _ in range(200):
        ds = [rng.getrandbits(40) for _ in range(rng.randrange(1, 12))]
        cand = rng.getrandbits(40) | 1
        counts = {v: sum(d >> v & 1 for d in ds) for v in range(40) if cand >> v & 1}
        low = min(counts.values())
        assert _fewest_colors(ds, cand) == sum(1 << v for v, k in counts.items() if k == low)


def test_solve_stats_phases():
    out = decide_k_colorable(TriangleRegion(4), 3)
    assert out.status == SAT and out.stats.max_depth == 10  # every point colored
    assert out.stats.build_s > 0
    out = decide_k_colorable(TriangleRegion(4), 2)
    assert out.status == UNSAT and 0 < out.stats.max_depth < 10


def test_deep_instance_no_recursion_limit():
    # T45 has 1035 points, one search frame each: past Python's recursion limit
    out = decide_k_colorable(TriangleRegion(45), 23)
    assert out.status == SAT
    assert is_proper(out.coloring)[0]


def test_budget_exhaustion_reports_unknown():
    out = decide_k_colorable(TriangleRegion(9), 3, Budget(max_nodes=5))
    assert out.status == UNKNOWN
    assert out.stats.budget_exhausted


def test_compute_f_degrades_to_interval():
    res = compute_f(9, Budget(max_nodes=5))
    assert res.exact is None
    assert res.lo >= 1 and res.hi == 5
    assert color_count(res.coloring) == 5  # the chevron coloring


def test_compute_f_every_k_refuted(tmp_path):
    # only a wrong external UNSAT refutes the chevron's count: an empty interval
    liar = tmp_path / "unsat.py"
    liar.write_text("print('s UNSATISFIABLE')\n")
    res = compute_f(4, sat_cmd=f"{sys.executable} {liar}")
    assert (res.lo, res.hi, res.exact) == (4, 3, None)


def test_dimacs_t4_k2_shape():
    cnf = export_dimacs(TriangleRegion(4), 2)
    assert cnf.num_vars == 20
    assert len(cnf.clauses) == 40  # 10 at-least-one + 15 triangles * 2 colors
    text = cnf.to_dimacs()
    assert text.startswith("p cnf 20 40\n")


def test_dimacs_t2_k1_shape():
    cnf = export_dimacs(TriangleRegion(2), 1)
    assert cnf.num_vars == 3
    assert len(cnf.clauses) == 4


def test_dimacs_t15_k5_shape():
    cnf = export_dimacs(TriangleRegion(15), 5)
    assert cnf.num_vars == 600
    assert len(cnf.clauses) == 120 + 2380 * 5


@pytest.mark.parametrize("region,k,sha", [
    (TriangleRegion(20), 7, "a4b9979f37de9efd"),
    (TriangleRegion(25), 8, "56b4c52b022d91ef"),
    (PeriodicStripe(6, 12), 3, "274210bb37156140"),
], ids=["T20k7", "T25k8", "S6p12k3"])
def test_dimacs_text_pinned(region, k, sha):
    text = export_dimacs(region, k).to_dimacs()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == sha


def reference_clauses(region, k):
    """The export's clauses built one at a time: a point's at-least-one clause
    in rank order, then one forbid clause per constraint row and color, colors
    innermost."""
    ternary, binary = constraints(region)
    clauses = [[rank * k + c + 1 for c in range(k)] for rank in range(region.size())]
    for rows in (ternary, binary):
        for row in rows.tolist():
            for c in range(k):
                clauses.append([-(rank * k + c + 1) for rank in row])
    return clauses


@pytest.mark.parametrize("region,k", [
    (TriangleRegion(1), 1), (TriangleRegion(2), 1), (TriangleRegion(4), 2),
    (PeriodicStripe(1, 1), 2), (PeriodicStripe(3, 2), 2),
], ids=["T1k1", "T2k1", "T4k2", "S1p1k2", "S3p2k2"])
def test_clauses_match_reference(region, k):
    cnf = export_dimacs(region, k)
    ref = reference_clauses(region, k)
    assert list(cnf.clauses) == ref
    assert len(cnf.clauses) == len(ref)
    assert [cnf.clauses[i] for i in range(-len(ref), len(ref))] == ref + ref
    with pytest.raises(IndexError):
        cnf.clauses[len(ref)]
    text = cnf.to_dimacs()
    assert text == "".join([f"p cnf {cnf.num_vars} {len(ref)}\n"]
                           + [" ".join(map(str, cl)) + " 0\n" for cl in ref])


def test_stripe_s3p2_has_binary_rows():
    assert len(constraints(PeriodicStripe(3, 2))[1]) > 0


def test_var_mapping():
    cnf = export_dimacs(TriangleRegion(2), 3)
    assert cnf.var(0, 0) == 1
    assert cnf.var(1, 2) == 6


def test_import_lowest_true_color():
    cnf = export_dimacs(TriangleRegion(2), 2)
    # proper 2-coloring of T2 with one point having both colors true
    lits = []
    colors = {0: 0, 1: 1, 2: 1}  # ranks: (0,0),(1,0),(0,1)
    for rank in range(3):
        for c in range(2):
            v = cnf.var(rank, c)
            lits.append(v if c >= colors[rank] else -v)
    text = "v " + " ".join(map(str, lits)) + " 0"
    col = import_assignment(cnf, text)
    assert col.assignment[LatticePoint(0, 0)] == 0
    assert col.assignment[LatticePoint(1, 0)] == 1


def test_import_incomplete_rejected():
    cnf = export_dimacs(TriangleRegion(2), 2)
    with pytest.raises(ValueError, match="incomplete"):
        import_assignment(cnf, "v " + " ".join(str(-v) for v in range(1, 7)) + " 0")
    with pytest.raises(ValueError, match="incomplete"):
        import_assignment(cnf, "")


def test_budget_is_an_upper_bound():
    for budget in range(1, 401):
        out = decide_k_colorable(TriangleRegion(13), 4, Budget(max_nodes=budget))
        assert out.stats.nodes <= budget
        if out.status == UNKNOWN:
            assert out.stats.nodes == budget


def test_zero_budget_unknown():
    out = decide_k_colorable(TriangleRegion(4), 3, Budget(max_nodes=0))
    assert (out.status, out.stats.nodes) == (UNKNOWN, 0)


def test_external_stats_recorded():
    out = decide_k_colorable(TriangleRegion(6), 3, sat_cmd=SATSTUB)
    assert out.status == SAT
    assert out.stats.build_s > 0  # export and DIMACS text
    assert out.stats.elapsed > 0  # the solver subprocess


def test_external_sat_roundtrip():
    out = decide_k_colorable(TriangleRegion(4), 3, sat_cmd=SATSTUB)
    assert out.status == SAT
    assert is_proper(out.coloring)[0]
    assert decide_k_colorable(TriangleRegion(4), 2, sat_cmd=SATSTUB).status == UNSAT


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(1, 5))
def test_internal_and_external_agree(n, k):
    internal = decide_k_colorable(TriangleRegion(n), k).status
    external = decide_k_colorable(TriangleRegion(n), k, sat_cmd=SATSTUB).status
    assert internal == external


def test_run_sat_command_parses_statuses():
    cnf = export_dimacs(TriangleRegion(2), 1)
    status, _, _ = run_sat_command(SATSTUB, [cnf.to_dimacs()])
    assert status == UNSAT


def test_run_sat_command_writes_chunks(tmp_path):
    cnf = export_dimacs(PeriodicStripe(3, 2), 3)
    text = cnf.to_dimacs()
    assert "".join(cnf.dimacs_chunks()) == text
    seen = tmp_path / "seen.cnf"
    saver = tmp_path / "saver.py"  # a "solver" that keeps a copy of its input
    saver.write_text(f"import shutil, sys\nshutil.copy(sys.argv[1], {str(seen)!r})\n")
    for dimacs in ([text], cnf.dimacs_chunks()):
        seen.unlink(missing_ok=True)
        assert run_sat_command(shlex.join([sys.executable, str(saver)]), dimacs)[0] == UNKNOWN
        assert seen.read_text() == text


def test_run_sat_command_missing_solver(tmp_path):
    status, model, stderr = run_sat_command(str(tmp_path / "no-such-solver"), ["p cnf 0 0\n"])
    assert (status, model) == (UNKNOWN, "")
    assert "cannot run solver" in stderr


def test_run_sat_command_timeout():
    sleeper = (f"{sys.executable} -c \"import sys, time; "
               f"print('still thinking', file=sys.stderr, flush=True); time.sleep(3)\"")
    status, model, stderr = run_sat_command(sleeper, ["p cnf 0 0\n"], timeout=0.5)
    assert (status, model) == (UNKNOWN, "")
    assert "timed out after 0.5s" in stderr
    assert "still thinking" in stderr


def _gone(pid):
    """Whether a process has exited: no such pid, or a zombie waiting to be reaped."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_run_sat_command_timeout_kills_children(tmp_path):
    # a "solver" that starts a sleeping child, says where it is, and sleeps too
    pid_file = tmp_path / "child.pid"
    forker = tmp_path / "forker.py"
    forker.write_text("import subprocess, sys, time\n"
                      "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(30)'])\n"
                      f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
                      "time.sleep(30)\n")
    status, _, stderr = run_sat_command(f"{sys.executable} {forker}", ["p cnf 0 0\n"], timeout=1)
    assert status == UNKNOWN and "timed out" in stderr
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 1
        while not _gone(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _gone(pid), "the solver's child outlived the timeout"
    finally:
        if not _gone(pid):
            os.kill(pid, signal.SIGKILL)


def test_periodic_tiny_agrees_with_exhaustive():
    s = PeriodicStripe(2, 1)
    exhaustive = any(
        is_proper(Coloring(s, bits, 2))[0]
        for bits in itertools.product(range(2), repeat=s.size())
    )
    assert (solve_periodic_stripe(2, 1, 2).status == SAT) == exhaustive


def test_s6_period4_four_colors_sat():
    out = solve_periodic_stripe(6, 4, 4)
    assert out.status == SAT
    assert is_proper(out.coloring)[0]


def test_s6_three_colors_unsat_small_periods():
    for p in range(1, 7):
        assert solve_periodic_stripe(6, p, 3).status == UNSAT


def test_periodic_dimacs_roundtrip():
    cnf = export_dimacs(PeriodicStripe(3, 2), 3)
    status, model, _ = run_sat_command(SATSTUB, [cnf.to_dimacs()])
    assert status == SAT
    col = import_assignment(cnf, model)
    assert is_proper(col)[0]


def test_local_search_finds_colorings():
    col = local_search_coloring(TriangleRegion(7), 3, seed=1)
    assert col is not None
    assert is_proper(col)[0]


@pytest.mark.parametrize("region,k,max_steps,restarts,shas", [
    (TriangleRegion(4), 3, 20000, 2,
     ["c6e2c940fa0c81e5", "b3b8c030b0ba72d7", "471d345a47977a31", "51183ff91215dbc4"]),
    (TriangleRegion(7), 3, 20000, 2,
     ["f7c26f6661d4a60e", None, "07dc541b1ae9ab22", "613384bba46a5181"]),
    (TriangleRegion(14), 5, 4000, 1, [None, None, None, "ab8ba52f690f2f65"]),
    (PeriodicStripe(6, 4), 4, 8000, 2, ["282aa4757da51c57", None, "cb49d71cf4a0db6a", None]),
    (PeriodicStripe(6, 5), 4, 8000, 2, [None, None, "5fa06c221c4af6a0", None]),
])
def test_local_search_pinned(region, k, max_steps, restarts, shas):
    """The coloring (sha256 prefix of its colors) or None that local search
    returns for seeds 0..3: any change to the constraint index, the move
    choice or the use of the random stream moves these."""
    for seed, sha in enumerate(shas):
        col = local_search_coloring(region, k, seed=seed, max_steps=max_steps, restarts=restarts)
        assert (col and hashlib.sha256(col.colors.tobytes()).hexdigest()[:16]) == sha


def test_deterministic_given_node_budget():
    a = decide_k_colorable(TriangleRegion(7), 3, Budget(max_nodes=100000))
    b = decide_k_colorable(TriangleRegion(7), 3, Budget(max_nodes=100000))
    assert a.status == b.status
    assert a.stats.nodes == b.stats.nodes
    assert a.coloring.assignment == b.coloring.assignment


@pytest.mark.parametrize("region", [TriangleRegion(3), TriangleRegion(6), PeriodicStripe(3, 2)],
                         ids=["T3", "T6", "S3p2"])
def test_huge_palette_searches_as_one_color_per_point(region):
    # no color from the number of points on is ever tried, so a palette of
    # 10**20 colors takes the same nodes and gives the same coloring
    n = region.size()
    small, huge = decide_k_colorable(region, n), decide_k_colorable(region, 10 ** 20)
    assert (small.status, small.stats.nodes) == (huge.status, huge.stats.nodes) == (SAT, n)
    assert small.coloring.colors.tolist() == huge.coloring.colors.tolist()
    assert huge.coloring.num_colors == 10 ** 20


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", ["all", "one"])
@pytest.mark.parametrize("region,k,max_nodes,status,nodes,max_depth,sha", [
    *[(TriangleRegion(13), 4, budget, UNKNOWN, budget, depth, None)
      for budget, depth in [(5000, 51), (20000, 56), (50000, 56), (100000, 56)]],
    (TriangleRegion(16), 5, 39730, UNKNOWN, 39730, 135, None),
    (TriangleRegion(16), 5, None, SAT, 39731, 136, "c330a717aa8a8f5d"),
    (PeriodicStripe(6, 12), 3, 20000, UNKNOWN, 20000, 32, None),
    (PeriodicStripe(6, 12), 3, 25144, UNSAT, 25144, 32, None),  # ends exactly at the budget
], ids=[*[f"T13k4-budget{b}" for b in (5000, 20000, 50000, 100000)], "T16k5-budget39730",
        "T16k5", "S6p12k3-budget20000", "S6p12k3-budget25144"])
def test_split_search_pinned(monkeypatch, cpus, region, k, max_nodes, status, nodes, max_depth, sha):
    """Searches long enough to be split across processes: status, nodes,
    max_depth and certificate equal the one-process search's, with every CPU
    and with one (where the search never forks)."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    if cpus == "one":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    out = decide_k_colorable(region, k, Budget(max_nodes=max_nodes))
    assert (out.status, out.stats.nodes, out.stats.max_depth) == (status, nodes, max_depth)
    assert out.stats.budget_exhausted == (status == UNKNOWN)
    cert = write_certificate(out.coloring) if out.coloring is not None else None
    assert (cert and hashlib.sha256(cert.encode()).hexdigest()[:16]) == sha
    split = cpus == "all" and len(os.sched_getaffinity(0)) >= 2
    assert bool(forks) == split
    assert out.stats.work_nodes >= out.stats.nodes if split else out.stats.work_nodes == out.stats.nodes
    _no_children_left()


def test_short_search_never_forks(monkeypatch):
    # T9 k3 (f(9) = 4) and every committed certificate stay in one process
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a short search forked"))
    for region, k in [(TriangleRegion(9), 3), (TriangleRegion(11), 3), (TriangleRegion(20), 7)]:
        out = decide_k_colorable(region, k)
        assert out.stats.work_nodes == out.stats.nodes < 4500


class _Interrupt(Exception):
    pass


def _open_fds():
    """The number of this process's open file descriptors, or None where
    /proc/self/fd is absent."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("case", ["SAT", "UNSAT", "budget", "deadline", "exception"])
def test_split_search_leaves_no_process(case):
    """Every way out of a split search kills and reaps its workers and
    closes every pipe end it opened."""
    fds = _open_fds()
    if case == "SAT":
        assert decide_k_colorable(TriangleRegion(16), 5).status == SAT
    elif case == "UNSAT":
        assert solve_periodic_stripe(6, 12, 3).status == UNSAT
    elif case == "budget":
        out = decide_k_colorable(TriangleRegion(13), 4, Budget(max_nodes=30000))
        assert (out.status, out.stats.nodes) == (UNKNOWN, 30000)
    elif case == "deadline":
        out = decide_k_colorable(TriangleRegion(13), 4, Budget(max_seconds=0.05))
        assert out.status == UNKNOWN and out.stats.budget_exhausted and out.stats.nodes > 0
    else:
        # an exception raised in the caller while the workers run, as an
        # interrupt would be: T13 k4 has no verdict for many seconds
        def interrupt(signum, frame):
            raise _Interrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.15)
            with pytest.raises(_Interrupt):
                decide_k_colorable(TriangleRegion(13), 4)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    _no_children_left()
    assert _open_fds() == fds


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the search splits only where it can fork")
def test_split_search_raises_when_a_worker_dies(monkeypatch):
    # worker 1 dies before it reads its first unit: the caller raises at
    # once, with no worker and no pipe end left behind
    work = solver._work  # its last argument is the worker's slot
    monkeypatch.setattr(solver, "_work", lambda *a: os._exit(3) if a[-1] == 1 else work(*a))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fds = _open_fds()
    start = time.monotonic()
    with pytest.raises((EOFError, OSError)):
        decide_k_colorable(TriangleRegion(13), 4, Budget(max_seconds=30))
    assert time.monotonic() - start < 5
    _no_children_left()
    assert _open_fds() == fds


def test_unsplit_search_imports_no_multiprocessing():
    # only a split search pays for multiprocessing's import
    code = ("import sys, trilat.cli, trilat.solver\n"
            "assert 'multiprocessing' not in sys.modules\n"
            "from trilat.lattice import TriangleRegion\n"
            "assert trilat.solver.decide_k_colorable(TriangleRegion(9), 3).status == 'UNSAT'\n"
            "assert 'multiprocessing' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_split_search_warns_nothing():
    # numpy's BLAS pool makes the process multi-threaded, and Python 3.12+
    # warns at fork unless the search handles it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert decide_k_colorable(TriangleRegion(16), 5).status == SAT
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


@pytest.mark.parametrize("kwargs", [
    {"max_seconds": float("nan")}, {"max_seconds": float("inf")}, {"max_seconds": -1.0},
    {"max_seconds": 2147484}, {"max_nodes": -1},
], ids=["seconds-nan", "seconds-inf", "seconds-negative", "seconds-2147484", "nodes-negative"])
def test_budget_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        Budget(**kwargs)


def test_budget_accepts_its_range():
    for budget in (Budget(max_seconds=0), Budget(max_seconds=2147483), Budget(max_nodes=0)):
        assert decide_k_colorable(TriangleRegion(2), 2, budget).status in (SAT, UNKNOWN)
