"""Command-line surface for the lattice workbench.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 solver gave no definite verdict, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import constructions, counting, solver, triples
from .coloring import (
    _CLAMP,
    CertificateError,
    Coloring,
    color_count,
    format_rows,
    is_proper,
    read_certificate,
    write_certificate,
)
from .lattice import PeriodicStripe, TriangleRegion, points
from .triangles import classify_pairs, triangle_ranks

EX_USAGE = 64
EX_IMPROPER = 1
EX_MALFORMED = 2
EX_UNKNOWN = 3

# the least value of each integer option; a node budget of 0 stops at once,
# and banded_coloring rejects a negative `construct --d` itself
LEAST = {"n": 1, "n_min": 1, "colors": 1, "width": 1, "stripe": 1, "period": 1,
         "max_period": 1, "k": 1, "nodes": 0, "v": 3, "r": 0}
# the most of each integer option that sizes arrays: T_n's n(n+1)/2 points,
# the C(v, 2) pairs of a triple system, the spacer's colors and the
# k (period + 1.16 k) points of a stripe window fit int64 sizes; `count`
# without --brute uses closed forms and takes any n
MOST = {"n": (1 << 32) - 1, "v": 1 << 32, "d": (1 << 32) - 1,
        **dict.fromkeys(("k", "stripe", "width", "period", "max_period"), 1 << 28)}
# the most colors a certificate may declare, and the most DIMACS variables
# (points x colors) that common SAT solvers read
MAX_COLORS = _CLAMP
MAX_DIMACS_VARS = (1 << 31) - 1
# the longest --timeout in seconds: an external solver is waited on in C-int milliseconds
MAX_TIMEOUT = ((1 << 31) - 1) // 1000

PALETTE = [
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
    "#9a6324", "#fffac8", "#800000", "#aaffc3", "#808000", "#ffd8b1",
    "#000075", "#808080",
]


def _palette(i: int) -> str:
    if i < len(PALETTE):
        return PALETTE[i]
    # deterministic fallback colors beyond the named palette
    h = (i * 2654435761) & 0xFFFFFF
    return f"#{h:06x}"


def _budget(args) -> solver.Budget:
    return solver.Budget(max_nodes=getattr(args, "nodes", None),
                         max_seconds=getattr(args, "timeout", None))


def _emit(chunks: Iterable[str], output) -> None:
    """Write text chunks to the --output file, or to stdout when none is given."""
    if output:
        with open(output, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _region(args):
    """The --n triangle or the --stripe/--period stripe of a DIMACS command."""
    return PeriodicStripe(args.stripe, args.period) if args.stripe else TriangleRegion(args.n)


def _cnf(args) -> solver.CnfInstance:
    """The DIMACS instance of the command's region."""
    return solver.export_dimacs(_region(args), args.colors)


def _read_certificate(path: str):
    """The coloring in a certificate file, or None once the fault is on stderr."""
    try:
        return read_certificate(Path(path).read_text())
    except (OSError, UnicodeDecodeError, CertificateError) as e:
        print(f"malformed certificate: {e}", file=sys.stderr)
        return None


def cmd_count(args) -> int:
    report = counting.report_brute if args.brute else counting.report_closed
    rows = [report(n) for n in range(args.n_min, args.n + 1)]
    if args.format == "json":
        print(json.dumps([vars(r) for r in rows], indent=2))
    else:
        print("n\talpha\tbeta\tgamma\ta0\ta1\ta2\tsource")
        for r in rows:
            print(f"{r.n}\t{r.alpha}\t{r.beta}\t{r.gamma}\t{r.a0}\t{r.a1}\t{r.a2}\t{r.source}")
    return 0


def cmd_enumerate(args) -> int:
    region = TriangleRegion(args.n)
    a, b = region.point_arrays()
    ranks = triangle_ranks(region)
    rows = np.stack([a[ranks], b[ranks]], axis=2).reshape(-1, 6)  # a, b of each vertex
    if args.format == "json":
        print("[" + format_rows("[[%d, %d], [%d, %d], [%d, %d]]", rows, ", ") + "]")
    else:
        sys.stdout.write(format_rows("%d %d\t%d %d\t%d %d\n", rows))
    return 0


def cmd_classify(args) -> int:
    cls = classify_pairs(TriangleRegion(args.n))
    if args.format == "json":
        print(json.dumps({"n": args.n, "a0": cls.a0, "a1": cls.a1, "a2": cls.a2}))
    else:
        print(f"a0\t{cls.a0}\na1\t{cls.a1}\na2\t{cls.a2}")
    return 0


def cmd_solve(args) -> int:
    out = solver.decide_k_colorable(TriangleRegion(args.n), args.colors, _budget(args), args.sat_cmd)
    st = out.stats
    print(f"c nodes {st.nodes} elapsed {st.elapsed:.3f}s build {st.build_s:.3f}s depth {st.max_depth}")
    if out.status == solver.SAT:
        print("s SATISFIABLE")
        _emit([write_certificate(out.coloring)], args.output)
        return 0
    if out.status == solver.UNSAT:
        print("s UNSATISFIABLE")
        return 0
    print("s UNKNOWN")
    if out.solver_stderr:
        print(f"external solver: {out.solver_stderr.strip()}", file=sys.stderr)
    return EX_UNKNOWN


def cmd_f(args) -> int:
    res = solver.compute_f(args.n, _budget(args), args.sat_cmd)
    if res.exact is not None:
        print(f"f({args.n}) = {res.exact}")
        if args.output:
            Path(args.output).write_text(write_certificate(res.coloring))
        return 0
    print(f"f({args.n}) in [{res.lo}, {res.hi}]")
    if res.solver_stderr:
        print(f"external solver: {res.solver_stderr.strip()}", file=sys.stderr)
    return EX_UNKNOWN


def cmd_construct(args) -> int:
    if args.scheme == "chevron":
        col = constructions.chevron_coloring(args.n)
    else:
        if args.block:
            block = _read_certificate(args.block)
            if block is None:
                return EX_MALFORMED
        else:
            out = solver.decide_k_colorable(PeriodicStripe(args.width, 4), 4, _budget(args))
            if out.status != solver.SAT:
                print(f"no base block found for the {args.width}-row stripe", file=sys.stderr)
                return EX_UNKNOWN
            block = out.coloring
        try:
            if args.d is not None:
                col = constructions.banded_coloring(args.n, block, args.width, args.d)
            else:
                d = constructions.minimal_spacer(args.n, block, args.width)
                col = constructions.banded_coloring(args.n, block, args.width, d)
                print(f"c minimal spacer d = {d}", file=sys.stderr)
        except ValueError as e:  # a block of the wrong stripe, a negative spacer
            print(f"cannot build banded coloring: {e}", file=sys.stderr)
            return EX_MALFORMED
    _emit([write_certificate(col)], args.output)
    print(f"c colors used: {color_count(col)}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    col = _read_certificate(args.file)
    if col is None:
        return EX_MALFORMED
    ok, witness = is_proper(col)
    if ok:
        print(f"proper: {color_count(col)} colors")
        return 0
    print(f"improper: monochromatic triangle {[tuple(p) for p in witness.vertices()]}")
    return EX_IMPROPER


def cmd_export_dimacs(args) -> int:
    _emit(_cnf(args).dimacs_chunks(), args.output)
    return 0


def cmd_import_solution(args) -> int:
    try:
        col = solver.import_assignment(_cnf(args), Path(args.file).read_text())
    except (OSError, ValueError) as e:
        print(f"bad assignment: {e}", file=sys.stderr)
        return EX_MALFORMED
    _emit([write_certificate(col)], args.output)
    return 0


def cmd_stripe(args) -> int:
    periods = [args.period] if args.period else range(1, args.max_period + 1)
    for p in periods:
        out = solver.decide_k_colorable(PeriodicStripe(args.k, p), args.colors, _budget(args))
        print(f"c k={args.k} period={p}: {out.status}")
        if out.status == solver.SAT:
            _emit([write_certificate(out.coloring)], args.output)
            return 0
        if out.status == solver.UNKNOWN:
            return EX_UNKNOWN
    return EX_IMPROPER


def cmd_triples(args) -> int:
    if args.action == "check":
        try:
            ts = triples.read_triples(Path(args.file).read_text())
        except (OSError, ValueError) as e:
            print(f"malformed triple system: {e}", file=sys.stderr)
            return EX_MALFORMED
        r = triples.is_modified_sts(ts)
        if r is None:
            print("not a modified triple system")
            return EX_IMPROPER
        print(f"modified triple system with r = {r}")
        return 0
    max_nodes = 5_000_000 if args.nodes is None else args.nodes
    res = triples.search_modified_sts(args.v, args.r, max_nodes=max_nodes)
    if res == "UNSAT":
        print("s UNSATISFIABLE")
        return 0
    if res == "UNKNOWN":
        print("s UNKNOWN")
        return EX_UNKNOWN
    print("s SATISFIABLE")
    sys.stdout.write(triples.write_triples(res))
    return 0


def render_svg(col: Coloring, witness=None) -> str:
    """Deterministic SVG: one disc per point, fill keyed by color index."""
    scale = 24.0  # pixels per lattice unit
    coords = [p.to_cartesian() for p in points(col.region)]
    xs, ys = zip(*coords)
    pad = 1.0
    x0, y0 = min(xs) - pad, min(ys) - pad
    width = (max(xs) - min(xs) + 2 * pad) * scale
    height = (max(ys) - min(ys) + 2 * pad) * scale

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        # flip so row b = 0 is at the bottom
        return height - (y - y0) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for (x, y), color in zip(coords, col.colors.tolist()):
        lines.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{scale * 0.35:.2f}" '
                     f'fill="{_palette(color)}" stroke="black" stroke-width="1"/>')
    if witness is not None:
        path = " ".join(
            f"{sx(v.to_cartesian()[0]):.2f},{sy(v.to_cartesian()[1]):.2f}"
            for v in witness.vertices())
        lines.append(f'<polygon points="{path}" fill="none" stroke="black" stroke-width="3"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    col = _read_certificate(args.file)
    if col is None:
        return EX_MALFORMED
    witness = None
    if args.witness:
        ok, witness = is_proper(col)
        if ok:
            witness = None
    _emit([render_svg(col, witness)], args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trilat",
                                 description="Triangular-lattice coloring and counting workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def common_budget(p):
        p.add_argument("--nodes", type=int, default=None, help="node budget (deterministic)")
        p.add_argument("--timeout", type=float, default=None,
                       help="wall-clock budget in seconds (non-deterministic)")

    p = sub.add_parser("count", help="counting table for T_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--brute", action="store_true", help="use brute-force oracles")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list equilateral triangles of T_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="pair classification tallies for T_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="decide K-colorability of T_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", "-k", type=int, required=True)
    p.add_argument("--sat-cmd", default=None, help="external SAT solver command")
    p.add_argument("--output", "-o", default=None)
    common_budget(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("f", help="compute f(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sat-cmd", default=None)
    p.add_argument("--output", "-o", default=None)
    common_budget(p)
    p.set_defaults(func=cmd_f)

    p = sub.add_parser("construct", help="generate an explicit coloring")
    p.add_argument("--scheme", choices=("chevron", "banded"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None, help="spacer width (banded)")
    p.add_argument("--width", "-w", type=int, default=6, help="band width (banded)")
    p.add_argument("--block", default=None, help="base block certificate (banded)")
    p.add_argument("--output", "-o", default=None)
    common_budget(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a coloring certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-dimacs", help="emit DIMACS CNF for a coloring instance")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--stripe", type=int, default=None, help="stripe rows k")
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--colors", "-k", type=int, required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_export_dimacs)

    p = sub.add_parser("import-solution", help="project a DIMACS model to a certificate")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--stripe", type=int, default=None)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--colors", "-k", type=int, required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_import_solution)

    p = sub.add_parser("stripe", help="search periodic stripe colorings")
    p.add_argument("--k", type=int, required=True, help="stripe rows")
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--max-period", type=int, default=12)
    p.add_argument("--output", "-o", default=None)
    common_budget(p)
    p.set_defaults(func=cmd_stripe)

    p = sub.add_parser("triples", help="check or search modified triple systems")
    p.add_argument("action", choices=("check", "search"))
    p.add_argument("file", nargs="?")
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("render", help="render a certificate as SVG")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true",
                   help="overlay a monochromatic triangle if improper")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_render)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EX_USAGE if e.code not in (0, None) else 0
    # argument-range validation before dispatch
    try:
        for name, least in LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
        if args.command != "count" or args.brute:
            for name, most in MOST.items():
                if (getattr(args, name, None) or 0) > most:
                    raise ValueError(f"--{name.replace('_', '-')} must be at most {most}")
        if getattr(args, "colors", 0) > MAX_COLORS:
            raise ValueError("--colors must be at most 2**61")
        timeout = getattr(args, "timeout", None)
        if timeout is not None and not 0 <= timeout <= MAX_TIMEOUT:  # NaN compares false
            raise ValueError(f"--timeout must be from 0 to {MAX_TIMEOUT} seconds")
        if getattr(args, "n_min", None) is None and hasattr(args, "n_min"):
            args.n_min = args.n
        if args.command in ("export-dimacs", "import-solution"):
            if (args.n is None) == (args.stripe is None):
                raise ValueError("give exactly one of --n or --stripe")
            if args.stripe is not None and not args.period:
                raise ValueError("--stripe requires --period")
            if _region(args).size() * args.colors > MAX_DIMACS_VARS:
                raise ValueError(f"more than {MAX_DIMACS_VARS} DIMACS variables (points x colors)")
        if args.command == "triples":
            if args.action == "check" and not args.file:
                raise ValueError("check requires a file")
            if args.action == "search" and (args.v is None or args.r is None):
                raise ValueError("search requires --v and --r")
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.func(args)
    except MemoryError as e:  # numpy refuses an instance's arrays up front
        print(f"usage error: instance too large: {e or 'out of memory'}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
