"""End-to-end acceptance checks.

Each test prints a single `criterion N: PASS`/`FAIL` line (run with `pytest -s`
or see captured output) and enforces the stated time budget on this machine.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import oracles

from trilat import counting as ct
from trilat.coloring import color_count, is_proper, read_certificate
from trilat.constructions import banded_coloring, chevron_coloring
from trilat.counting import a2_closed
from trilat.lattice import PeriodicStripe, TriangleRegion
from trilat.solver import (
    SAT,
    UNSAT,
    compute_f,
    decide_k_colorable,
    solve_periodic_stripe,
)
from trilat.triangles import classify_pairs, count_upright, enumerate_triangles
from trilat.triples import is_modified_sts, search_modified_sts, triangle_system

CERT_DIR = Path(__file__).resolve().parent.parent / "certificates"


@contextmanager
def criterion(num: int, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_seconds:
        print(f"criterion {num}: FAIL (took {elapsed:.1f}s, budget {budget_seconds}s)",
              flush=True)
        raise AssertionError(f"criterion {num} exceeded {budget_seconds}s: {elapsed:.1f}s")
    print(f"criterion {num}: PASS ({elapsed:.2f}s)", flush=True)


def test_criterion_01_counting_oracle_equivalence():
    with criterion(1, 30):
        for n in range(1, 26):
            region = TriangleRegion(n)
            assert ct.alpha_closed(n) == len(enumerate_triangles(region))
            assert ct.beta_closed(n) == count_upright(region)
            tallies = classify_pairs(region).tallies()
            assert tallies == (ct.a0_closed(n), ct.a1_closed(n), ct.a2_closed(n))
        assert sum(classify_pairs(TriangleRegion(4)).tallies()) == 45
        assert classify_pairs(TriangleRegion(4)).tallies() == (9, 27, 9)


def test_criterion_02_decomposition_identity():
    with criterion(2, 30):
        for n in range(1, 26):
            assert oracles.a2_by_decomposition(n) == ct.a2_closed(n)
        for k in range(3, 26):
            assert oracles.m_brute(k) == ct.m_closed(k) == oracles.m_by_inclusion_exclusion(k)


def test_criterion_03_a0_equals_a2():
    with criterion(3, 30):
        for n in range(1, 26):
            cls = classify_pairs(TriangleRegion(n))
            assert cls.a0 == cls.a2
        for n in range(1, 1001):
            assert ct.a0_closed(n) == ct.a2_closed(n)


def test_criterion_04_small_chromatic_values():
    with criterion(4, 60):
        assert compute_f(1).exact == 1
        assert compute_f(2).exact == 2
        assert compute_f(3).exact == 2
        assert decide_k_colorable(TriangleRegion(4), 2).status == UNSAT
        out4 = decide_k_colorable(TriangleRegion(4), 3)
        assert out4.status == SAT and is_proper(out4.coloring)[0]
        for n in range(5, 9):
            out = decide_k_colorable(TriangleRegion(n), 3)
            assert out.status == SAT
            assert is_proper(out.coloring)[0]


def test_criterion_05_t9_three_color_verdict():
    # assert a definite verdict, whichever way the search lands
    with criterion(5, 600):
        out = decide_k_colorable(TriangleRegion(9), 3)
        assert out.status in (SAT, UNSAT)
        if out.status == SAT:
            assert is_proper(out.coloring)[0]
        print(f"  T9 with 3 colors: {out.status} "
              f"({out.stats.nodes} nodes)", flush=True)


TABLE = {9: 4, 10: 4, 11: 4, 12: 5, 13: 5, 14: 5, 15: 5,
         16: 6, 17: 6, 18: 7, 19: 7, 20: 7}


def test_criterion_06_upper_bound_certificates():
    with criterion(6, 10):
        for n, k in TABLE.items():
            cert = CERT_DIR / f"t{n:02d}_k{k}.cert"
            col = read_certificate(cert.read_text())
            assert col.region == TriangleRegion(n)
            assert color_count(col) == k
            assert is_proper(col)[0]


def test_criterion_07_stripe_four_coloring():
    with criterion(7, 600):
        found = None
        t0 = time.monotonic()
        for p in range(1, 13):
            out = solve_periodic_stripe(6, p, 4)
            if out.status == SAT:
                found = out.coloring
                break
        assert found is not None
        assert time.monotonic() - t0 < 600
        t0 = time.monotonic()
        ok, _ = is_proper(found)
        assert ok
        assert time.monotonic() - t0 < 1
        # committed certificate stays verifiable as well
        col = read_certificate((CERT_DIR / "s6_p4_k4.cert").read_text())
        assert isinstance(col.region, PeriodicStripe)
        assert is_proper(col)[0]


def test_criterion_08_banded_construction_ratio():
    with criterion(8, 120):
        block = solve_periodic_stripe(6, 4, 4).coloring
        t0 = time.monotonic()
        col = banded_coloring(600, block, w=6, d=15, verify=False)
        ok, _ = is_proper(col)
        assert ok
        assert time.monotonic() - t0 < 60
        ratio = color_count(col) / 600
        print(f"  banded n=600: {color_count(col)} colors, ratio {ratio:.4f}",
              flush=True)
        assert ratio <= 0.36


def test_criterion_09_chevron_bound():
    with criterion(9, 10):
        for n in range(1, 101):
            col = chevron_coloring(n)
            assert color_count(col) == n // 2 + 1


def test_criterion_10_triple_systems():
    with criterion(10, 5):
        for n in range(2, 13):
            assert is_modified_sts(triangle_system(n)) == a2_closed(n)
        assert is_modified_sts(oracles.fano_plane()) == 0
        assert search_modified_sts(5, 0) == "UNSAT"


def test_criterion_11_offline_operation():
    # criteria 1-4 and 8-10 above used only the in-process solver; 5-7 fall
    # back to the internal engine and committed certificates when no external
    # solver command is given.  The package itself never touches the network.
    with criterion(11, 5):
        src_dir = Path(sys.modules["trilat"].__file__).parent
        for py in src_dir.glob("*.py"):
            text = py.read_text()
            for banned in ("import socket", "import urllib", "import requests",
                           "import http"):
                assert banned not in text, f"{py.name} uses {banned}"
        for name in ("t09_k4.cert", "s6_p4_k4.cert"):
            assert (CERT_DIR / name).exists()


def test_regenerate_certificates_check():
    # the end-to-end certificate command: every committed certificate is what
    # the deterministic solver produces today, byte for byte
    root = CERT_DIR.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, str(root / "scripts" / "regenerate_certificates.py"),
                           "--check"], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = sorted(p.name for p in CERT_DIR.glob("*.cert"))
    assert len(names) == 13
    assert sorted(proc.stdout.split()) == sorted(["ok"] * 13 + names)
