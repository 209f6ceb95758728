import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import fano_plane

from trilat.cli import build_parser, main, render_svg
from trilat.coloring import Coloring, is_proper, read_certificate, write_certificate
from trilat.constructions import banded_coloring, chevron_coloring
from trilat.counting import report_closed
from trilat.solver import decide_k_colorable
from trilat.lattice import StripeWindow, TriangleRegion, points
from trilat.triples import write_triples

SATSTUB = f"{sys.executable} {Path(__file__).with_name('satstub.py')}"
CERT_DIR = Path(__file__).resolve().parent.parent / "certificates"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_tsv(capsys):
    code, out, _ = run(capsys, "count", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n\talpha")
    assert lines[1].split("\t")[:7] == ["4", "15", "10", "45", "9", "27", "9"]


def test_count_json_range_matches_reports(capsys):
    code, out, _ = run(capsys, "count", "--n", "6", "--n-min", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [2, 3, 4, 5, 6]
    for r in rows:
        assert r == vars(report_closed(r["n"]))


def test_count_brute_agrees(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--brute", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    closed = vars(report_closed(5))
    for key in ("alpha", "beta", "gamma", "a0", "a1", "a2"):
        assert row[key] == closed[key]


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 15


@pytest.mark.parametrize("fmt,sha", [("json", "883ebd71afdaab8b"), ("tsv", "ef00654e88e00979")])
def test_enumerate_output_pinned(capsys, fmt, sha):
    code, out, _ = run(capsys, "enumerate", "--n", "30", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == sha


@pytest.mark.parametrize("n,json_out,tsv_out", [
    (1, "[]\n", ""),
    (2, "[[[0, 0], [1, 0], [0, 1]]]\n", "0 0\t1 0\t0 1\n"),
    (3, None, None),
    (4, None, None),
])
def test_enumerate_small(capsys, n, json_out, tsv_out):
    code, out, _ = run(capsys, "enumerate", "--n", str(n), "--format", "json")
    assert code == 0
    tris = json.loads(out)
    assert len(tris) == report_closed(n).alpha
    assert out == json.dumps(tris) + "\n"  # json.dumps spacing
    if json_out is not None:
        assert out == json_out
    code, tsv, _ = run(capsys, "enumerate", "--n", str(n), "--format", "tsv")
    assert code == 0
    assert tsv == "".join("\t".join(f"{a} {b}" for a, b in t) + "\n" for t in tris)
    if tsv_out is not None:
        assert tsv == tsv_out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 5, "a0": 24, "a1": 57, "a2": 24}


def test_solve_sat_writes_certificate(capsys, tmp_path):
    cert = tmp_path / "t4.cert"
    code, out, _ = run(capsys, "solve", "--n", "4", "--colors", "3", "-o", str(cert))
    assert code == 0
    assert "s SATISFIABLE" in out
    col = read_certificate(cert.read_text())
    assert col.region == TriangleRegion(4)


def test_solve_unsat(capsys):
    code, out, _ = run(capsys, "solve", "--n", "4", "--colors", "2")
    assert code == 0
    assert "s UNSATISFIABLE" in out


def test_solve_stats_line(capsys):
    code, out, _ = run(capsys, "solve", "--n", "4", "--colors", "3")
    assert code == 0
    assert re.match(r"c nodes 10 elapsed \d+\.\d{3}s build \d+\.\d{3}s depth 10 verify \d+\.\d{3}s\n", out)


def test_solve_unknown_exit(capsys):
    code, out, _ = run(capsys, "solve", "--n", "9", "--colors", "3", "--nodes", "5")
    assert code == 3
    assert "s UNKNOWN" in out


@pytest.mark.parametrize("argv", [
    ("solve", "--n", "6", "--colors", "3", "--nodes", "0"),
    ("triples", "search", "--v", "9", "--r", "0", "--nodes", "0"),
], ids=["solve", "triples"])
def test_zero_node_budget_unknown(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert "s UNKNOWN" in out.splitlines()


def test_solve_external_stats(capsys):
    code, out, _ = run(capsys, "solve", "--n", "6", "--colors", "3", "--sat-cmd", SATSTUB)
    assert code == 0
    m = re.match(r"c nodes 0 elapsed (\d+\.\d{3})s build (\d+\.\d{3})s depth 0 verify \d+\.\d{3}s\n", out)
    assert m and float(m[1]) > 0


def test_solve_external(capsys):
    code, out, _ = run(capsys, "solve", "--n", "4", "--colors", "3",
                       "--sat-cmd", SATSTUB)
    assert code == 0
    assert "s SATISFIABLE" in out


def test_f_small(capsys):
    code, out, _ = run(capsys, "f", "--n", "4")
    assert code == 0
    assert "f(4) = 3" in out


def test_f_budget_interval(capsys):
    code, out, _ = run(capsys, "f", "--n", "11", "--nodes", "5")
    assert code == 3
    assert "f(11) in [" in out


@pytest.mark.parametrize("argv,code,line", [
    *[(("--n", str(n)), 0, f"f({n}) = {f}")
      for n, f in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 3), (7, 3), (8, 3), (9, 4)]],
    (("--n", "9", "--nodes", "5"), 3, "f(9) in [2, 5]"),
    (("--n", "13", "--nodes", "1000"), 3, "f(13) in [3, 7]"),
], ids=[*[f"n{n}" for n in range(1, 10)], "n9-nodes5", "n13-nodes1000"])
def test_f_output_pinned(capsys, argv, code, line):
    assert run(capsys, "f", *argv)[:2] == (code, line + "\n")


def test_f_every_k_refuted_by_external(capsys, tmp_path):
    # a solver that wrongly refutes every K up to the chevron's 3 colors
    liar = tmp_path / "unsat.py"
    liar.write_text("print('s UNSATISFIABLE')\n")
    code, out, _ = run(capsys, "f", "--n", "4", "--sat-cmd", f"{sys.executable} {liar}")
    assert (code, out) == (3, "f(4) in [4, 3]\n")


def _trilat(*argv, timeout, limit_bytes=None):
    """`trilat` in a subprocess with src/ on its path, optionally under an
    address-space limit of its own."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run([sys.executable, "-m", "trilat.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=limit if limit_bytes else None)


def test_f_external_timeout(tmp_path):
    # every K's external run must stop at --timeout; a hung solver is UNKNOWN
    sleeper = tmp_path / "sleeper.py"
    sleeper.write_text("import time\ntime.sleep(30)\n")
    proc = _trilat("f", "--n", "4", "--sat-cmd", f"{sys.executable} {sleeper}",
                   "--timeout", "1", timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "f(4) in [1, 3]\n")
    assert "solver timed out" in proc.stderr


@pytest.mark.parametrize("argv,fault", [
    (("f", "--n", str(10 ** 20)), "--n must be at most 4294967295"),
    (("classify", "--n", "99999999999"), "--n must be at most 4294967295"),
    (("triples", "search", "--v", str(10 ** 23 - 1), "--r", "0"), "--v must be at most 4294967296"),
], ids=["f-1e20", "classify-1e11", "triples-1e23"])
def test_array_sizes_are_usage_errors(capsys, argv, fault):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err == f"usage error: {fault}\n"


def test_count_closed_forms_take_any_n(capsys):
    code, out, _ = run(capsys, "count", "--n", str(10 ** 20))
    assert code == 0 and out.splitlines()[1].startswith(f"{10 ** 20}\t")


@pytest.mark.parametrize("argv", [
    ("solve", "--n", "99999999999", "--colors", "3"),
    ("solve", "--n", "100000000", "--colors", "3"),  # 35 PiB of point coordinates
    ("export-dimacs", "--n", "3", "--colors", "357913941"),  # 16 GiB of clauses
], ids=["solve-1e11", "solve-1e8", "export-2**31-2-vars"])
def test_instances_too_large_for_memory(argv):
    # under 2 GiB of address space, an instance whose arrays cannot fit must be
    # refused up front, not fill memory or end in a traceback
    proc = _trilat(*argv, timeout=60, limit_bytes=2 << 30)
    assert (proc.returncode, proc.stdout) == (64, "")
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1


def test_banded_widest_spacer_fits_small_memory():
    # the spacer's columns are colored by their place among the columns
    # present, so the largest --d asks for no table of 2**31 entries
    proc = _trilat("construct", "--scheme", "banded", "--n", "5", "--d", str(2 ** 32 - 1),
                   timeout=60, limit_bytes=2 << 30)
    assert proc.returncode == 0, proc.stderr
    # every point lies in the spacer: one color per column 2a + b
    col = read_certificate(proc.stdout)
    assert col.colors.tolist() == [2 * a + b for a, b in points(TriangleRegion(5))]
    assert proc.stderr == "c colors used: 9\n"


@pytest.mark.parametrize("argv", [
    ("stripe", "--k", "99999999999999999999", "--colors", "3", "--period", "1"),
    ("stripe", "--k", "3", "--colors", "3", "--period", "99999999999999999999"),
    ("stripe", "--k", "268435456", "--colors", "3", "--period", "1"),  # 2**28 rows
    ("construct", "--scheme", "banded", "--n", "5", "--d", "99999999999999999999"),
    ("construct", "--scheme", "banded", "--n", "5", "--width", "99999999999999999999"),
    ("export-dimacs", "--stripe", "2147483647", "--period", "1", "--colors", "1"),
    ("solve", "--n", "3", "--colors", "2", "--sat-cmd", SATSTUB, "--timeout", "nan"),
    ("solve", "--n", "3", "--colors", "2", "--sat-cmd", SATSTUB, "--timeout", "inf"),
    ("f", "--n", "4", "--timeout", "nan"),
    ("f", "--n", "4", "--timeout", "-1"),
    ("triples", "search", "--v", "99999", "--r", "0"),  # 1.7e14 candidate triples
], ids=["stripe-k-1e20", "stripe-period-1e20", "stripe-k-2**28", "banded-d-1e20",
        "banded-width-1e20", "export-stripe-2**31", "solve-timeout-nan", "solve-timeout-inf",
        "f-timeout-nan", "f-timeout-negative", "triples-v-99999"])
def test_size_and_timeout_options_are_usage_errors(argv):
    # out of range, or too large for 2 GiB of address space: one usage line, no traceback
    proc = _trilat(*argv, timeout=60, limit_bytes=2 << 30)
    assert (proc.returncode, proc.stdout) == (64, "")
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1


def test_construct_chevron_and_verify(capsys, tmp_path):
    cert = tmp_path / "chev.cert"
    code, _, err = run(capsys, "construct", "--scheme", "chevron", "--n", "9",
                       "-o", str(cert))
    assert code == 0
    assert "colors used: 5" in err
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0
    assert "proper: 5 colors" in out


def test_construct_banded(capsys, tmp_path):
    cert = tmp_path / "banded.cert"
    code, _, err = run(capsys, "construct", "--scheme", "banded", "--n", "40",
                       "--d", "15", "-o", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 0


def test_construct_banded_bad_block(capsys, tmp_path):
    one_color = tmp_path / "one_color.cert"
    block = (CERT_DIR / "s6_p4_k4.cert").read_text().splitlines()
    one_color.write_text("\n".join(block[:3] + [ln.rsplit(" ", 1)[0] + " 0"
                                                for ln in block[3:]]) + "\n")
    cases = [
        (["--block", str(tmp_path / "missing.cert")], "malformed certificate:"),
        (["--block", str(CERT_DIR / "t09_k4.cert")],
         "cannot build banded coloring: base block must color the 6-row stripe"),
        # minimal_spacer used to scan d = 0, 1, 2, ... forever on an improper block
        (["--block", str(one_color)], "cannot build banded coloring: base block improper"),
        (["--d", "-1"], "cannot build banded coloring: d must be nonnegative"),
    ]
    for extra, message in cases:
        code, out, err = run(capsys, "construct", "--scheme", "banded", "--n", "30", *extra)
        assert (code, out) == (2, "")
        assert err.startswith(message)


def test_undecodable_certificate(capsys, tmp_path):
    cert = tmp_path / "binary.cert"
    cert.write_bytes(b"\xff")
    for argv in (["verify", str(cert)], ["render", str(cert)],
                 ["construct", "--scheme", "banded", "--n", "30", "--block", str(cert)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("malformed certificate: 'utf-8' codec can't decode")


def test_verify_improper_exit_code(capsys, tmp_path):
    region = TriangleRegion(3)
    bad = Coloring(region, [0] * region.size(), 1)
    cert = tmp_path / "bad.cert"
    cert.write_text(write_certificate(bad))
    code, out, _ = run(capsys, "verify", str(cert))
    assert code == 1
    assert "improper" in out


def test_verify_malformed_exit_code(capsys, tmp_path):
    cert = tmp_path / "junk.cert"
    cert.write_text("not a certificate\n")
    code, _, err = run(capsys, "verify", str(cert))
    assert code == 2
    assert "malformed" in err
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.cert"))
    assert code == 2


@pytest.mark.parametrize("old,new", [
    ("region triangle 3", "region triangle x"),
    ("region triangle 3", "region triangle 0"),
    ("colors 1", "colors x"),
    ("region triangle 3", "region triangle 1000000000"),
])
def test_verify_malformed_header_values(capsys, tmp_path, old, new):
    region = TriangleRegion(3)
    text = write_certificate(Coloring(region, [0] * region.size(), 1))
    cert = tmp_path / "bad.cert"
    cert.write_text(text.replace(old, new))
    code, _, err = run(capsys, "verify", str(cert))
    assert code == 2
    assert "malformed certificate: " in err


def test_solve_missing_external_solver(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--n", "3", "--colors", "2",
                         "--sat-cmd", str(tmp_path / "no-such-solver"))
    assert code == 3
    assert "s UNKNOWN" in out
    assert "cannot run solver" in err


def _all_true_solver(tmp_path):
    """A solver command that answers SAT with every variable true: not a model."""
    stub = tmp_path / "alltrue.py"
    stub.write_text("import sys\n"
                    "n = int(next(l for l in open(sys.argv[1]) if l.startswith('p')).split()[2])\n"
                    "print('s SATISFIABLE')\n"
                    "print('v', *range(1, n + 1), 0)\n")
    return f"{sys.executable} {stub}"


def test_solve_external_non_model(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--n", "4", "--colors", "3",
                         "--sat-cmd", _all_true_solver(tmp_path))
    assert code == 3
    assert "s UNKNOWN" in out
    assert "model rejected" in err and "monochromatic triangle" in err


def test_f_external_non_model(capsys, tmp_path):
    code, out, err = run(capsys, "f", "--n", "4", "--sat-cmd", _all_true_solver(tmp_path))
    assert code == 3
    assert out == "f(4) in [1, 3]\n"
    assert "external solver: solver said SAT, model rejected" in err
    assert "monochromatic triangle" in err


def test_f_missing_external_solver(capsys, tmp_path):
    code, out, err = run(capsys, "f", "--n", "5", "--sat-cmd", str(tmp_path / "no-such-solver"))
    assert code == 3
    assert out == "f(5) in [1, 3]\n"
    assert "external solver: cannot run solver" in err


def test_verify_one_color_t600(capsys, tmp_path):
    # a single color class of 180,300 points is scanned in bounded blocks
    region = TriangleRegion(600)
    col = Coloring(region, [0] * region.size(), 1)
    ok, witness = is_proper(col)
    assert not ok
    assert witness.vertices() == ((0, 0), (1, 0), (0, 1))
    cert = tmp_path / "one_color.cert"
    cert.write_text(write_certificate(col))
    assert run(capsys, "verify", str(cert))[:2] == (
        1, "improper: monochromatic triangle [(0, 0), (1, 0), (0, 1)]\n")


def _planted(text, points, color):
    """A certificate text with the given points recolored."""
    lines = text.split("\n")
    for a, b in points:
        [row] = [i for i, ln in enumerate(lines) if ln.startswith(f"{a} {b} ")]
        lines[row] = f"{a} {b} {color}"
    return "\n".join(lines)


def _tri(x, y, side, i):
    """The triangle with offset i inscribed in the upright triangle at (x, y) of this side."""
    return [(x + i, y), (x + side - i, y + i), (x, y + side - i)]


def _banded60(*plants):
    """The banded T60 certificate (34 colors), with each (x, y, side, i, color)
    planted triangle recolored."""
    block = read_certificate((CERT_DIR / "s6_p4_k4.cert").read_text())
    text = write_certificate(banded_coloring(60, block, 6, 15))
    for *shape, color in plants:
        text = _planted(text, _tri(*shape), color)
    return text


def _window_coloring():
    w = StripeWindow(4, -3, 6)
    planted = set(_tri(-3, 0, 3, 1))
    return Coloring(w, [1 if p in planted else (p.a + 2 * p.b) % 3 if p.b < 2
                        else (2 * p.a + p.b) % 4 for p in points(w)], 4)


# Witnesses recorded from the checker before its grid rewrite: the first hit
# in class order (first appearance in rank order), then row-major pair order.
# With two planted classes the class order decides, with two bad triangles in
# one class the pair order does.
PINNED_WITNESSES = {
    "banded60_early": (lambda: _banded60((3, 5, 7, 2, 1)), [(5, 5), (8, 7), (3, 10)]),
    "banded60_mid": (lambda: _banded60((10, 20, 12, 5, 17)), [(3, 19), (15, 20), (2, 32)]),
    "banded60_late": (lambda: _banded60((30, 2, 20, 0, 33)), [(30, 2), (50, 2), (30, 22)]),
    "banded60_two_classes": (lambda: _banded60((31, 0, 4, 3, 27), (0, 28, 20, 8, 14)),
                             [(34, 0), (38, 0), (34, 4)]),
    "banded60_two_triangles": (lambda: _banded60((6, 20, 19, 0, 1), (41, 17, 1, 0, 24)),
                               [(43, 0), (26, 16), (42, 17)]),
    "stripe_planted": (lambda: _planted((CERT_DIR / "s6_p4_k4.cert").read_text(),
                                        _tri(1, 1, 3, 1), 3),
                       [(2, 1), (3, 2), (1, 3)]),
    "stripe_wraps": (lambda: _planted((CERT_DIR / "s6_p4_k4.cert").read_text(), [(3, 0)], 1),
                     [(3, 0), (7, 0), (3, 4)]),
    "window": (_window_coloring, [(0, 0), (1, 1), (-1, 2)]),
}


@pytest.mark.parametrize("case", PINNED_WITNESSES)
def test_witness_order_pinned(capsys, tmp_path, case):
    build, witness = PINNED_WITNESSES[case]
    expected = f"improper: monochromatic triangle {witness}\n"
    made = build()
    if isinstance(made, Coloring):  # stripe windows have no certificate format
        ok, found = is_proper(made)
        assert not ok
        assert f"improper: monochromatic triangle {[tuple(p) for p in found.vertices()]}\n" == expected
        return
    cert = tmp_path / f"{case}.cert"
    cert.write_text(made)
    assert run(capsys, "verify", str(cert))[:2] == (1, expected)


def test_dimacs_export_import_roundtrip(capsys, tmp_path):
    cnf_file = tmp_path / "t4k3.cnf"
    code, _, _ = run(capsys, "export-dimacs", "--n", "4", "--colors", "3",
                     "-o", str(cnf_file))
    assert code == 0
    assert cnf_file.read_text().startswith("p cnf 30 ")
    # solve with the internal engine, then re-import the model as v-lines
    col = decide_k_colorable(TriangleRegion(4), 3).coloring
    from trilat.solver import export_dimacs
    cnf = export_dimacs(TriangleRegion(4), 3)
    lits = []
    ranks = sorted(col.assignment, key=lambda p: (p.b, p.a))
    for i, p in enumerate(ranks):
        for c in range(3):
            v = cnf.var(i, c)
            lits.append(v if c == col.assignment[p] else -v)
    model = tmp_path / "model.txt"
    model.write_text("s SATISFIABLE\nv " + " ".join(map(str, lits)) + " 0\n")
    cert = tmp_path / "back.cert"
    code, _, _ = run(capsys, "import-solution", str(model), "--n", "4",
                     "--colors", "3", "-o", str(cert))
    assert code == 0
    assert read_certificate(cert.read_text()).assignment == col.assignment


def test_import_solution_malformed(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("v 1 0\n")
    code, _, err = run(capsys, "import-solution", str(model), "--n", "4",
                       "--colors", "3")
    assert code == 2
    assert "bad assignment" in err
    # every variable true projects to color 0 everywhere: not a model
    model.write_text("v " + " ".join(map(str, range(1, 31))) + " 0\n")
    code, _, err = run(capsys, "import-solution", str(model), "--n", "4", "--colors", "3")
    assert code == 2
    assert err.startswith("bad assignment: incomplete/invalid assignment: not a model")
    code, _, err = run(capsys, "import-solution", str(tmp_path / "missing.txt"),
                       "--n", "4", "--colors", "3")
    assert code == 2
    assert err.startswith("bad assignment: [Errno 2]")


def test_stripe_search(capsys):
    code, out, _ = run(capsys, "stripe", "--k", "6", "--colors", "4",
                       "--period", "4")
    assert code == 0
    assert "period=4: SAT" in out


def test_stripe_exhausts_periods(capsys):
    code, out, _ = run(capsys, "stripe", "--k", "6", "--colors", "3",
                       "--max-period", "3")
    assert code == 1
    assert out.count("UNSAT") == 3


def test_triples_check_and_search(capsys, tmp_path):
    f = tmp_path / "fano.triples"
    f.write_text(write_triples(fano_plane()))
    code, out, _ = run(capsys, "triples", "check", str(f))
    assert code == 0
    assert "r = 0" in out
    code, out, _ = run(capsys, "triples", "search", "--v", "7", "--r", "0")
    assert code == 0
    assert "s SATISFIABLE" in out
    code, out, _ = run(capsys, "triples", "search", "--v", "5", "--r", "0")
    assert code == 0
    assert "s UNSATISFIABLE" in out


def test_triples_search_deep_budget(capsys):
    # v = 100 needs 1650 triples, a search deeper than Python's recursion limit
    code, out, _ = run(capsys, "triples", "search", "--v", "100", "--r", "0",
                       "--nodes", "200000")
    assert code == 3
    assert out == "s UNKNOWN\n"


def test_triples_malformed(capsys, tmp_path):
    f = tmp_path / "bad.triples"
    f.write_text("garbage\n")
    code, _, err = run(capsys, "triples", "check", str(f))
    assert code == 2
    for points, fault in [("-5", "negative points: -5"), ("7 8", "bad or missing points line")]:
        f.write_text(f"trilat-triples v1\npoints {points}\n")
        code, out, err = run(capsys, "triples", "check", str(f))
        assert (code, out) == (2, "")
        assert err.startswith("malformed triple system: " + fault)


@pytest.mark.parametrize("argv", [
    ("count", "--n", "0"),
    ("solve", "--n", "4", "--colors", "0"),
    ("export-dimacs", "--colors", "3"),
    ("export-dimacs", "--n", "4", "--stripe", "6", "--period", "2", "--colors", "3"),
    ("export-dimacs", "--stripe", "6", "--colors", "3"),
    ("triples", "check"),
    ("triples", "search", "--v", "7"),
    ("nonsense",),
])
def test_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 64


@pytest.mark.parametrize("argv", [
    ("count", "--n", "3", "--n-min", "-1", "--brute"),
    ("count", "--n", "3", "--n-min", "-2"),
    ("triples", "search", "--v", "2", "--r", "0"),
    ("triples", "search", "--v", "7", "--r", "-1"),
    ("construct", "--scheme", "banded", "--n", "10", "--width", "0"),
    ("stripe", "--k", "0", "--colors", "3"),
    ("stripe", "--k", "6", "--colors", "3", "--period", "-2"),
    ("stripe", "--k", "6", "--colors", "3", "--max-period", "0"),
    ("export-dimacs", "--stripe", "3", "--period", "-1", "--colors", "3"),
    ("solve", "--n", "4", "--colors", "3", "--nodes", "-1"),
])
def test_out_of_range_arguments(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv,fault", [
    (("solve", "--n", "3", "--colors", str(10 ** 20)), "--colors must be at most 2**61"),
    (("solve", "--n", "3", "--colors", str((1 << 61) + 1)), "--colors must be at most 2**61"),
    (("stripe", "--k", "3", "--period", "2", "--colors", str(10 ** 20)),
     "--colors must be at most 2**61"),
    (("export-dimacs", "--n", "3", "--colors", "9999999999999"), "DIMACS variables"),
    (("export-dimacs", "--n", "3", "--colors", str(10 ** 20)), "--colors must be at most"),
    (("export-dimacs", "--stripe", "2", "--period", "3", "--colors", str((1 << 31) // 6 + 1)),
     "DIMACS variables"),
    (("import-solution", "model.txt", "--n", "3", "--colors", "9999999999999"), "DIMACS variables"),
], ids=["solve-1e20", "solve-2**61+1", "stripe-1e20", "export-1e13", "export-1e20",
        "export-stripe-2**31", "import-1e13"])
def test_huge_colors_are_usage_errors(capsys, argv, fault):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ") and fault in err


@pytest.mark.parametrize("colors", [100_000_000, 1 << 61])
def test_huge_colors_solve(capsys, tmp_path, colors):
    # the search never tries a color from the number of points on, so a huge
    # palette costs what T3's six points do, and the certificate reads back
    cert = tmp_path / "t3.cert"
    code, out, _ = run(capsys, "solve", "--n", "3", "--colors", str(colors), "-o", str(cert))
    assert code == 0 and "s SATISFIABLE" in out
    assert out.startswith("c nodes 6 ")
    assert read_certificate(cert.read_text()).num_colors == colors
    code, out, _ = run(capsys, "stripe", "--k", "3", "--period", "2", "--colors", str(colors))
    assert code == 0 and "period=2: SAT" in out


def test_main_calls_match_fresh_processes(capsys, monkeypatch):
    """`main` builds its parser once per process; a run of in-process calls
    answers each command as a process of its own does: usage errors, help and
    two subcommands."""
    monkeypatch.setenv("COLUMNS", "80")  # the help's line width
    commands = [["verify"], ["--help"], ["verify", str(CERT_DIR / "t09_k4.cert")],
                ["count", "--n", "5"], ["count", "--n", "0"], ["verify", "--help"]]
    for argv in commands:
        proc = _trilat(*argv, timeout=60)
        assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert build_parser() is build_parser()


def test_render_deterministic(capsys, tmp_path):
    cert = tmp_path / "c.cert"
    cert.write_text(write_certificate(chevron_coloring(6)))
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run(capsys, "render", str(cert), "-o", str(a))[0] == 0
    assert run(capsys, "render", str(cert), "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    svg = a.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<circle") == 21


def test_render_witness_overlay(tmp_path):
    region = TriangleRegion(3)
    bad = Coloring(region, [0] * region.size(), 1)
    _, witness = is_proper(bad)
    svg = render_svg(bad, witness)
    assert "<polygon" in svg
    assert render_svg(bad).count("<polygon") == 0
