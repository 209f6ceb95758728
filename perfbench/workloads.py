"""The benchmark's workloads: fixed task lists over the trilat API and CLI.

Each workload has a `setup` that loads the committed certificates, builds the
seeded inputs and returns its task list.  A task's `run` is the timed call
into the program; its `check` re-verifies the result with reference code
called outside any span (the original, unwrapped functions) and returns a
one-line detail, or raises `CheckError`.  Tasks of one pass run in list
order; `state` carries results between tasks of the same pass.

Why each workload exists, and what each figure should move, is in README.md.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional


class CheckError(Exception):
    """A task's result failed its correctness check."""


def expect(cond, message):
    if not cond:
        raise CheckError(message)


@dataclass
class Task:
    name: str
    group: Optional[str]  # the timing group this task adds to, if any
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Context:
    root: Path  # checkout root
    work: Path  # scratch directory for generated files
    seed: int
    modules: dict  # short name -> trilat module


def _cli(m, argv):
    """`trilat <argv>` in-process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = m.cli.main(argv)
    return rc, out.getvalue()


def _committed(ctx):
    """Committed certificate texts by file name, read once per set-up."""
    return {p.name: p.read_text() for p in sorted((ctx.root / "certificates").glob("*.cert"))}


def _table(certs):
    """(n, k) of every committed triangle certificate and (rows, period, k) of
    every committed stripe certificate, parsed from the file names."""
    tri, stripe = [], []
    for name in certs:
        if mt := re.fullmatch(r"t(\d+)_k(\d+)\.cert", name):
            tri.append((name, int(mt[1]), int(mt[2])))
        elif ms := re.fullmatch(r"s(\d+)_p(\d+)_k(\d+)\.cert", name):
            stripe.append((name, int(ms[1]), int(ms[2]), int(ms[3])))
    return tri, stripe


def _model_text(coloring, n_colors):
    """A DIMACS v-line model for `coloring` under the export encoding:
    variable rank * K + color + 1, ranks in (b, a) point order."""
    pts = sorted(coloring.assignment, key=lambda p: (p.b, p.a))
    lits = []
    for rank, p in enumerate(pts):
        color = coloring.assignment[p]
        lits.extend(rank * n_colors + c + 1 if c == color else -(rank * n_colors + c + 1)
                    for c in range(n_colors))
    return "s SATISFIABLE\nv " + " ".join(map(str, lits)) + " 0\n"


class _Checks:
    """Reference checks, bound to the original (never traced) functions."""

    def __init__(self, modules):
        self.is_proper = modules["coloring"].is_proper
        self.norm = modules["lattice"].norm
        self.solver = modules["solver"]
        self.counting = modules["counting"]

    def proper(self, coloring, colors):
        expect(coloring is not None, "no coloring returned")
        expect(coloring.num_colors == colors, f"{coloring.num_colors} colors, wanted {colors}")
        ok, witness = self.is_proper(coloring)
        expect(ok, f"improper coloring, witness {witness}")

    def sat(self, out, colors):
        expect(out.status == self.solver.SAT, f"status {out.status}, wanted SAT")
        self.proper(out.coloring, colors)
        return f"SAT nodes={out.stats.nodes}"

    def unsat(self, out):
        expect(out.status == self.solver.UNSAT, f"status {out.status}, wanted UNSAT")
        expect(not out.stats.budget_exhausted, "UNSAT after a budget cut")
        return f"UNSAT nodes={out.stats.nodes}"

    def equilateral(self, vertices, inside):
        """Three distinct points of the region with equal, non-zero sides."""
        p, q, r = vertices
        expect(len({p, q, r}) == 3 and all(inside(v) for v in vertices),
               f"bad vertices {vertices}")
        sides = {self.norm((q[0] - p[0], q[1] - p[1])),
                 self.norm((r[0] - q[0], r[1] - q[1])),
                 self.norm((p[0] - r[0], p[1] - r[1]))}
        expect(len(sides) == 1 and 0 not in sides, f"not equilateral: {vertices}")


def smoke_task(m, chk, block):
    """A task that calls every layer on tiny inputs, in every workload.

    It is a liveness gate, and it makes each per-layer figure a measured,
    non-zero value on every workload; it costs milliseconds per pass.
    """
    T = m.lattice.TriangleRegion

    def run():
        found = m.solver.decide_k_colorable(T(4), 3)
        cnf = m.solver.export_dimacs(T(4), 3)
        chevron = m.constructions.chevron_coloring(9)
        ts = m.triples.triangle_system(6)
        return SimpleNamespace(
            brute=m.counting.report_brute(6), closed=m.counting.report_closed(6),
            refuted=m.solver.decide_k_colorable(T(4), 2), found=found,
            dimacs=cnf.to_dimacs(),
            imported=m.solver.import_assignment(cnf, _model_text(found.coloring, 3)),
            local=m.solver.local_search_coloring(T(4), 3, seed=0),
            chevron=chevron, banded=m.constructions.banded_coloring(40, block, 6, 15),
            reread=m.coloring.read_certificate(m.coloring.write_certificate(chevron)),
            defect=m.triples.is_modified_sts(ts), a2=chk.counting.a2_closed(6))

    def check(r):
        expect(vars(r.brute) | {"source": ""} == vars(r.closed) | {"source": ""},
               "brute and closed counts differ at n=6")
        chk.unsat(r.refuted)
        chk.sat(r.found, 3)
        expect(r.dimacs.startswith("p cnf 30 "), "bad DIMACS header for T4 k3")
        expect(r.imported.assignment == r.found.coloring.assignment, "DIMACS round trip differs")
        chk.proper(r.local, 3)
        chk.proper(r.chevron, 5)
        chk.proper(r.banded, r.banded.num_colors)
        expect(r.reread.assignment == r.chevron.assignment, "certificate round trip differs")
        expect(r.defect == r.a2, f"triple defect {r.defect}, wanted a2(6) = {r.a2}")
        return "ok"

    return Task("smoke_all_layers", None, run, check)


# -- exact_search -------------------------------------------------------------

FRONTIER_NODES = 100_000
LOCAL_SEARCH_STEPS = 4_000


def setup_exact_search(ctx):
    m = SimpleNamespace(**ctx.modules)
    chk = _Checks(ctx.modules)
    certs = _committed(ctx)
    tri_certs, stripe_certs = _table(certs)
    block = m.coloring.read_certificate(certs["s6_p4_k4.cert"])
    ls_seed = random.Random(f"exact_search/{ctx.seed}").randrange(2**32)
    T = m.lattice.TriangleRegion
    tasks = []

    def cli_f():
        return _cli(m, ["f", "--n", "9"])

    def check_f(r):
        expect(r == (0, "f(9) = 4\n"), f"trilat f --n 9 gave {r}")
        return "f(9) = 4"

    tasks.append(Task("cli_f_n9", None, cli_f, check_f))
    for n in (9, 10, 11):
        tasks.append(Task(f"refute_T{n}_k3", "refute_s",
                          lambda n=n: m.solver.decide_k_colorable(T(n), 3), chk.unsat))
    for p in range(1, 13):
        tasks.append(Task(f"refute_S6_p{p}_k3", "refute_s",
                          lambda p=p: m.solver.solve_periodic_stripe(6, p, 3), chk.unsat))

    def regenerate(decide, name, colors):
        def run():
            out = decide()
            text = m.coloring.write_certificate(out.coloring) if out.coloring else None
            return out, text

        def check(r):
            out, text = r
            detail = chk.sat(out, colors)
            expect(text == certs[name], f"regenerated {name} differs from the committed file")
            return detail + " bytes=identical"

        return run, check

    for name, n, k in tri_certs:
        run, check = regenerate(lambda n=n, k=k: m.solver.decide_k_colorable(T(n), k), name, k)
        tasks.append(Task(f"cert_T{n}_k{k}", "find_s", run, check))
    for name, rows, period, k in stripe_certs:
        run, check = regenerate(
            lambda rows=rows, period=period, k=k: m.solver.solve_periodic_stripe(rows, period, k),
            name, k)
        tasks.append(Task(f"cert_S{rows}_p{period}_k{k}", "find_s", run, check))
    for n, k in ((12, 4), (16, 5)):
        tasks.append(Task(f"find_T{n}_k{k}", "find_s",
                          lambda n=n, k=k: m.solver.decide_k_colorable(T(n), k),
                          lambda out, k=k: chk.sat(out, k)))

    def frontier():
        return m.solver.decide_k_colorable(T(13), 4, m.solver.Budget(max_nodes=FRONTIER_NODES))

    def check_frontier(out):
        # The f(13) frontier: UNKNOWN at this budget today, or a checked verdict.
        if out.status == chk.solver.UNKNOWN:
            expect(out.stats.budget_exhausted, "UNKNOWN without a budget cut")
            return f"UNKNOWN nodes={out.stats.nodes}"
        if out.status == chk.solver.SAT:
            return chk.sat(out, 4)
        return chk.unsat(out)

    tasks.append(Task("frontier_T13_k4", "frontier_s", frontier, check_frontier))

    def local_search():
        return m.solver.local_search_coloring(T(14), 5, seed=ls_seed,
                                              max_steps=LOCAL_SEARCH_STEPS, restarts=1)

    def check_local(col):
        if col is None:  # incomplete search: a miss is an allowed outcome
            return f"miss seed={ls_seed}"
        chk.proper(col, 5)
        return f"hit seed={ls_seed}"

    tasks.append(Task("local_search_T14_k5", "frontier_s", local_search, check_local))
    return tasks + [smoke_task(m, chk, block)]


# -- certify_large ------------------------------------------------------------

BANDED_N, BANDED_D, BANDED_COLORS = 600, 15, 214
REJECT_N, REJECT_COPIES = 300, 6


def _improper_copies(ctx, m, block):
    """Six copies of the banded T300 certificate, each with one seeded
    equilateral triangle recolored to a single color.

    A triangle is drawn as (origin x, y of an upright sub-triangle, side L,
    offset i), with vertices (x+i, y), (x+L-i, y+i), (x, y+L-i).  The six
    target colors are spread evenly over the palette from a seeded offset,
    so that the seed moves the defects but not, on average, how far into
    the palette the checker has to look before it finds one.
    """
    n = REJECT_N
    base = m.constructions.banded_coloring(n, block, 6, BANDED_D, verify=False)
    lines = m.coloring.write_certificate(base).split("\n")
    rng = random.Random(f"certify_large/{ctx.seed}")
    offset = rng.random()
    copies = []
    for j in range(REJECT_COPIES):
        color = int((j + offset) * base.num_colors / REJECT_COPIES)
        side = rng.randint(1, n - 1)
        x = rng.randint(0, n - 1 - side)
        y = rng.randint(0, n - 1 - side - x)
        i = rng.randrange(side)
        tri = ((x + i, y), (x + side - i, y + i), (x, y + side - i))
        text = list(lines)
        for a, b in tri:
            row = 3 + b * n - b * (b - 1) // 2 + a  # line of (a, b) in (b, a) order
            expect(text[row].startswith(f"{a} {b} "), f"certificate layout changed at {(a, b)}")
            text[row] = f"{a} {b} {color}"
        path = ctx.work / f"improper_{j}.cert"
        path.write_text("\n".join(text))
        override = {p: color for p in tri}
        copies.append((path, tri, lambda p, o=override: o.get(p, base.assignment[p])))
    return copies


def setup_certify_large(ctx):
    m = SimpleNamespace(**ctx.modules)
    chk = _Checks(ctx.modules)
    certs = _committed(ctx)
    tri_certs, stripe_certs = _table(certs)
    block = m.coloring.read_certificate(certs["s6_p4_k4.cert"])
    copies = _improper_copies(ctx, m, block)
    banded_path = ctx.work / f"banded_{BANDED_N}.cert"
    chevron_path = ctx.work / f"chevron_{BANDED_N}.cert"

    def construct(build, path):
        def run():
            col = build()
            text = m.coloring.write_certificate(col)
            path.write_text(text)
            return col.num_colors, len(col.assignment), text[:64]

        return run

    def check_construct(colors):
        def check(r):
            num, points, head = r
            expect(num == colors, f"{num} colors, wanted {colors}")
            expect(points == BANDED_N * (BANDED_N + 1) // 2, f"{points} points")
            expect(head.startswith(f"trilat-coloring v1\nregion triangle {BANDED_N}\n"),
                   "bad certificate header")
            return f"colors={num}"

        return check

    tasks = [
        Task("construct_banded600", "construct_s",
             construct(lambda: m.constructions.banded_coloring(
                 BANDED_N, block, 6, BANDED_D, verify=False), banded_path),
             check_construct(BANDED_COLORS)),
        Task("construct_chevron600", "construct_s",
             construct(lambda: m.constructions.chevron_coloring(BANDED_N, verify=False),
                       chevron_path),
             check_construct(BANDED_N // 2 + 1)),
    ]

    def check_verify600(r):
        expect(r == (0, f"proper: {BANDED_COLORS} colors\n"), f"trilat verify gave {r}")
        return f"proper colors={BANDED_COLORS}"

    tasks.append(Task("verify_banded600", "verify600_s",
                      lambda: _cli(m, ["verify", str(banded_path)]), check_verify600))

    def check_reject(tri, color_of):
        def check(r):
            rc, out = r
            expect(rc == 1 and out.startswith("improper: monochromatic triangle "),
                   f"trilat verify gave {r}")
            witness = ast.literal_eval(out.split("triangle ", 1)[1].strip())
            chk.equilateral(witness, lambda p: min(p) >= 0 and sum(p) <= REJECT_N - 1)
            colors = {color_of(tuple(p)) for p in witness}
            expect(len(colors) == 1, f"witness {witness} is not monochromatic")
            return f"witness={witness} planted={tri}"

        return check

    for j, (path, tri, color_of) in enumerate(copies):
        tasks.append(Task(f"reject_T300_{j}", "reject_s",
                          lambda path=path: _cli(m, ["verify", str(path)]),
                          check_reject(tri, color_of)))

    def check_committed(k):
        def check(r):
            rc, out = r
            found = re.fullmatch(r"proper: (\d+) colors\n", out)
            expect(rc == 0 and found and int(found[1]) <= k, f"trilat verify gave {r}")
            return out.strip()

        return check

    for name, k in [(c[0], c[2]) for c in tri_certs] + [(c[0], c[3]) for c in stripe_certs]:
        path = ctx.root / "certificates" / name
        tasks.append(Task(f"verify_{name}", None,
                          lambda path=path: _cli(m, ["verify", str(path)]),
                          check_committed(k)))
    return tasks + [smoke_task(m, chk, block)]


# -- enumerate_count ----------------------------------------------------------

ORACLE_N = 24
ENUMERATE_N = 30
TRIPLES_N = 20
EXPORTS = (("T20_k7", ("triangle", 20), 7), ("T25_k8", ("triangle", 25), 8),
           ("S6_p12_k3", ("stripe", 6, 12), 3))


def setup_enumerate_count(ctx):
    m = SimpleNamespace(**ctx.modules)
    chk = _Checks(ctx.modules)
    certs = _committed(ctx)
    block = m.coloring.read_certificate(certs["s6_p4_k4.cert"])
    t20 = m.coloring.read_certificate(certs["t20_k7.cert"])
    t20_model = _model_text(t20, 7)
    alpha = chk.counting.alpha_closed
    state = {}
    tasks = []

    def check_oracle(r):
        brute, closed = r
        fields = ("alpha", "beta", "gamma", "a0", "a1", "a2")
        got = [getattr(brute, f) for f in fields]
        expect(got == [getattr(closed, f) for f in fields],
               f"n={brute.n}: brute {got} != closed")
        return f"alpha={brute.alpha}"

    for n in range(1, ORACLE_N + 1):
        tasks.append(Task(f"oracle_n{n}", "oracle_s",
                          lambda n=n: (m.counting.report_brute(n), m.counting.report_closed(n)),
                          check_oracle))

    def check_enumerate(r):
        rc, out = r
        expect(rc == 0, f"exit code {rc}")
        tris = json.loads(out)
        expect(len(tris) == alpha(ENUMERATE_N), f"{len(tris)} triangles")
        expect(len({frozenset(map(tuple, t)) for t in tris}) == len(tris), "duplicate triangles")
        inside = lambda p: min(p) >= 0 and sum(p) <= ENUMERATE_N - 1  # noqa: E731
        for t in tris:
            chk.equilateral([tuple(p) for p in t], inside)
        return f"triangles={len(tris)}"

    tasks.append(Task(f"cli_enumerate_n{ENUMERATE_N}", None,
                      lambda: _cli(m, ["enumerate", "--n", str(ENUMERATE_N), "--format", "json"]),
                      check_enumerate))

    def triples():
        ts = m.triples.triangle_system(TRIPLES_N)
        return ts.v, len(ts.triples), m.triples.is_modified_sts(ts)

    def check_triples(r):
        v, count, defect = r
        n = TRIPLES_N
        expect((v, count, defect) == (n * (n + 1) // 2, alpha(n), chk.counting.a2_closed(n)),
               f"triangle system of T{n}: {r}")
        return f"triples={count} defect={defect}"

    tasks.append(Task(f"triples_T{TRIPLES_N}", None, triples, check_triples))

    def export(name, shape, k):
        def run():
            region = (m.lattice.TriangleRegion(shape[1]) if shape[0] == "triangle"
                      else m.lattice.PeriodicStripe(shape[1], shape[2]))
            cnf = m.solver.export_dimacs(region, k)
            state[name] = cnf
            return cnf, cnf.to_dimacs()

        def check(r):
            cnf, text = r
            header, _, body = text.partition("\n")
            n_points = len(cnf.points)
            expect(header == f"p cnf {n_points * k} {len(cnf.clauses)}", f"header {header!r}")
            expect(body.count("\n") == len(cnf.clauses), "clause lines differ from the header")
            least = n_points + (k * alpha(shape[1]) if shape[0] == "triangle" else 0)
            expect(len(cnf.clauses) >= least, f"{len(cnf.clauses)} clauses, fewer than {least}")
            return f"clauses={len(cnf.clauses)} bytes={len(text)}"

        return run, check

    for name, shape, k in EXPORTS:
        run, check = export(name, shape, k)
        tasks.append(Task(f"export_{name}", "export_s", run, check))

    def check_import(col):
        expect(col.num_colors == 7 and col.assignment == t20.assignment,
               "imported T20 k7 model differs from t20_k7.cert")
        return "model == t20_k7.cert"

    tasks.append(Task("import_T20_k7", "export_s",
                      lambda: m.solver.import_assignment(state["T20_k7"], t20_model),
                      check_import))
    return tasks + [smoke_task(m, chk, block)]


WORKLOADS = {
    "exact_search": setup_exact_search,
    "certify_large": setup_certify_large,
    "enumerate_count": setup_enumerate_count,
}
