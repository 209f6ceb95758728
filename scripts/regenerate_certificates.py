#!/usr/bin/env python3
"""Regenerate the committed coloring certificates.

The internal solver is deterministic, so regeneration is reproducible byte for
byte.  Run with --check to verify that the committed files match what the
solver produces today (suitable for CI) instead of rewriting them.
"""

import argparse
import sys
from pathlib import Path

from trilat.coloring import color_count, is_proper, write_certificate
from trilat.lattice import PeriodicStripe, TriangleRegion
from trilat.solver import SAT, decide_k_colorable

TABLE = {9: 4, 10: 4, 11: 4, 12: 5, 13: 5, 14: 5, 15: 5,
         16: 6, 17: 6, 18: 7, 19: 7, 20: 7}
STRIPE = (6, 4, 4)  # rows, period, colors


def generate():
    for n, k in TABLE.items():
        out = decide_k_colorable(TriangleRegion(n), k)
        assert out.status == SAT, f"no {k}-coloring found for n={n}"
        assert is_proper(out.coloring)[0]
        yield f"t{n:02d}_k{k}.cert", write_certificate(out.coloring)
    rows, period, colors = STRIPE
    out = decide_k_colorable(PeriodicStripe(rows, period), colors)
    assert out.status == SAT
    assert is_proper(out.coloring)[0]
    assert color_count(out.coloring) <= colors
    yield f"s{rows}_p{period}_k{colors}.cert", write_certificate(out.coloring)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", action="store_true",
                    help="compare against committed files instead of writing")
    ap.add_argument("--dir", default=str(Path(__file__).resolve().parent.parent / "certificates"))
    args = ap.parse_args()
    cert_dir = Path(args.dir)
    cert_dir.mkdir(exist_ok=True)
    failures = 0
    for name, text in generate():
        path = cert_dir / name
        if args.check:
            if not path.exists():
                print(f"MISSING {name}")
                failures += 1
            elif path.read_text() != text:
                print(f"STALE   {name}")
                failures += 1
            else:
                print(f"ok      {name}")
        else:
            path.write_text(text)
            print(f"wrote   {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
