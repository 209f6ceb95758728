"""Explicit coloring constructions giving upper bounds on the chromatic values.

Two schemes:

* chevron: the middle column of T_n is one class; every other class is the
  pair of 60-degree half-lines (one of constant a, one of constant a+b)
  meeting at a middle-column point.  Uses floor(n/2) + 1 colors.

* banded: the chevron scheme with d middle columns as singleton-column classes
  and the chevron arms grouped into slanted bands of w consecutive lines; the
  mirrored left/right bands of a pair share one palette, each colored through
  an exact lattice isometry by a periodic base-block coloring of the w-row
  stripe.  Color count is about d + K_b * n / (2w), which for the 4-colorable
  6-row stripe approaches n/3.

Correctness of every generated coloring is established by the checker at
construction time, never assumed from the geometry.
"""

from __future__ import annotations

import numpy as np

from .coloring import Coloring, is_proper
from .lattice import PeriodicStripe, TriangleRegion


class ConstructionError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def chevron_coloring(n: int, verify: bool = True) -> Coloring:
    """Proper coloring of T_n with exactly floor(n/2) + 1 colors."""
    if n < 1:
        raise ValueError("n must be positive")
    m = n - 1  # doubled x-coordinate of the middle column is m
    a, b = TriangleRegion(n).point_arrays()
    # off the middle column, the chevron index: distance to whichever arm the point lies on
    colors = np.where(2 * a + b == m, 0, 1 + np.minimum(a, n - 1 - a - b))
    coloring = Coloring(TriangleRegion(n), colors, int(colors.max()) + 1)
    if verify:
        ok, witness = is_proper(coloring)
        if not ok:
            raise ConstructionError("chevron coloring improper", witness)
    return coloring


def banded_coloring(n: int, base_block: Coloring, w: int = 6, d: int = 0,
                    verify: bool = True, left_phase: int = 0,
                    right_phase: int = 1) -> Coloring:
    """Composite coloring: d singleton middle columns plus banded stripe copies.

    base_block must be a proper periodic coloring of the w-row stripe.  Mirror
    bands at equal distance from the middle share a palette; properness across
    the pair depends on the spacer width d and is established by the checker.
    The phase arguments shift where each arm samples the base block; the
    defaults were picked by a phase scan and let the spacer shrink from 20 to
    15 columns for the period-4 block of the 6-row stripe.
    """
    if not isinstance(base_block.region, PeriodicStripe) or base_block.region.k != w:
        raise ValueError(f"base block must color the {w}-row stripe")
    ok, witness = is_proper(base_block)
    if not ok:
        raise ConstructionError("base block improper", witness)
    if d < 0:
        raise ValueError("d must be nonnegative")
    kb = base_block.num_colors
    m = n - 1  # doubled x-coordinate of the middle column
    c0 = m - d // 2  # leftmost middle column (doubled coordinate); ties leftward
    # each temporary is dropped once used, so a few arrays of one entry per point
    # are alive at a time
    a, b = TriangleRegion(n).point_arrays()
    x = 2 * a + b
    j = n - 1 - a - b  # right-arm line index
    left = (x < m) | ((x == m) & (a <= j))
    band, line = np.divmod(np.where(left, a, j), w)
    del j
    # each band maps onto the stripe rows by a lattice isometry: on the left arm
    # (a, b) -> (a + b, w - 1 - line) takes the constant-a lines to rows, on the
    # mirrored right arm (a, b) -> (-b, w - 1 - line) does so for constant a + b;
    # the stripe's rank reduces the first coordinate modulo its period
    stripe_a = np.where(left, a + b + left_phase, -b + right_phase)
    del a, b, left
    line = w - 1 - line
    sub = base_block.colors[base_block.region.rank(stripe_a, line)]
    del stripe_a, line
    band *= kb
    band += sub
    del sub
    x -= c0
    single = (x >= 0) & (x < d)  # the d singleton columns, x = 0..d-1
    # the singleton columns present take the colors from 0, in column order,
    # and the bands the colors above them, so the renumbering table below
    # grows with the points, not with d
    columns = x[single]
    if columns.size:
        lo = columns.min()
        x -= lo
        band += columns.max() - lo + 1
    del columns
    colors = np.where(single, x, band)
    del x, band, single
    # renumber the colors used as 0, 1, ... in increasing order
    present = np.zeros(int(colors.max()) + 1, dtype=bool)
    present[colors] = True
    renumber = np.cumsum(present) - 1
    colors = renumber[colors]
    coloring = Coloring(TriangleRegion(n), colors, int(renumber[-1]) + 1)
    if verify:
        ok, witness = is_proper(coloring)
        if not ok:
            raise ConstructionError(f"banded coloring improper at d={d}", witness)
    return coloring


def minimal_spacer(n: int, base_block: Coloring, w: int = 6) -> int:
    """Smallest d for which banded_coloring(n, base_block, w, d) is proper.

    Ascending scan from 0.  Finite: at d large enough every point is in a
    middle column.
    """
    ok, witness = is_proper(base_block)
    if not ok:  # no spacer helps, and the scan below would never end
        raise ConstructionError("base block improper", witness)
    d = 0
    while True:
        try:
            banded_coloring(n, base_block, w, d)
            return d
        except ConstructionError:
            d += 1
