import hashlib
from pathlib import Path

import pytest
from oracles import is_proper_scan, stripe_partition_coloring

from trilat.coloring import (
    Coloring,
    color_count,
    is_proper,
    read_certificate,
    write_certificate,
)
from trilat.constructions import (
    ConstructionError,
    banded_coloring,
    chevron_coloring,
    minimal_spacer,
)
from trilat.lattice import LatticePoint, PeriodicStripe, TriangleRegion, points
from trilat.solver import SAT, decide_k_colorable, solve_periodic_stripe

CERT_DIR = Path(__file__).resolve().parent.parent / "certificates"


@pytest.fixture(scope="module")
def block6():
    out = solve_periodic_stripe(6, 4, 4)
    assert out.status == SAT
    return out.coloring


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 33, 100])
def test_chevron_color_count_and_properness(n):
    c = chevron_coloring(n)
    assert color_count(c) == n // 2 + 1
    assert is_proper(c)[0]


def test_chevron_large_count_only():
    c = chevron_coloring(200, verify=False)
    assert color_count(c) == 101


def test_chevron_matches_scan_oracle():
    assert is_proper_scan(chevron_coloring(12))[0]


def test_chevron_middle_column_is_class_zero():
    n = 9
    c = chevron_coloring(n)
    for p, col in c.assignment.items():
        assert (col == 0) == (2 * p.a + p.b == n - 1)


def test_chevron_rejects_bad_n():
    with pytest.raises(ValueError):
        chevron_coloring(0)


def test_stripe_partition_trivial_row():
    base = chevron_coloring(1)
    c = stripe_partition_coloring(1, base)
    assert isinstance(c.region, PeriodicStripe)
    assert c.region.k == 1 and c.region.period == 1
    assert is_proper(c)[0]


@pytest.mark.parametrize("k,f", [(4, 3), (6, 3)])
def test_stripe_partition_doubles_palette(k, f, request):
    tri = decide_k_colorable(TriangleRegion(k), f).coloring
    c = stripe_partition_coloring(k, tri)
    assert is_proper(c)[0]
    assert c.num_colors == 2 * f
    # the upright copy of each period cell restricts to the input coloring
    for p, col in tri.assignment.items():
        assert c.assignment[p] == col


def test_stripe_partition_inverted_copy_is_half_turn():
    k = 5
    tri = decide_k_colorable(TriangleRegion(k), 3).coloring
    c = stripe_partition_coloring(k, tri)
    for b in range(k):
        for a in range(k - b, k):
            src = LatticePoint(k - 1 - a, k - 1 - b)
            assert c.assignment[LatticePoint(a, b)] == 3 + tri.assignment[src]


def test_stripe_partition_input_validation():
    with pytest.raises(ValueError, match="Triangle"):
        stripe_partition_coloring(3, chevron_coloring(4))
    region = TriangleRegion(3)
    bad = Coloring(region, [0] * region.size(), 1)
    with pytest.raises(ConstructionError):
        stripe_partition_coloring(3, bad)


def test_banded_input_validation(block6):
    with pytest.raises(ValueError, match="stripe"):
        banded_coloring(30, chevron_coloring(6), w=6, d=15)
    with pytest.raises(ValueError, match="nonnegative"):
        banded_coloring(30, block6, w=6, d=-1)
    region = PeriodicStripe(6, 2)
    bad = Coloring(region, [0] * region.size(), 1)
    with pytest.raises(ConstructionError, match="base block"):
        banded_coloring(30, bad, w=6, d=15)


def test_banded_improper_below_minimal_spacer(block6):
    n = 60
    d = minimal_spacer(n, block6)
    assert banded_coloring(n, block6, d=d) is not None
    with pytest.raises(ConstructionError) as err:
        banded_coloring(n, block6, d=d - 1)
    assert err.value.witness is not None


def test_minimal_spacer_stable_across_sizes(block6):
    d60 = minimal_spacer(60, block6)
    d120 = minimal_spacer(120, block6)
    assert d60 == d120


def test_banded_agrees_with_scan_oracle(block6):
    d = minimal_spacer(60, block6)
    c = banded_coloring(60, block6, d=d)
    assert is_proper_scan(c)[0]


def test_banded_color_budget(block6):
    # d singleton columns plus 4 colors per band pair of width 6
    n, d = 120, minimal_spacer(120, block6)
    c = banded_coloring(n, block6, d=d)
    bands = -(-(n - d // 2) // (2 * 6)) + 1
    assert color_count(c) <= d + 4 * bands
    assert color_count(c) < n // 2 + 1  # beats the chevron scheme


def test_banded_degenerate_small_n(block6):
    # with n no wider than the spacer every point is a middle column
    c = banded_coloring(8, block6, d=16)
    assert is_proper(c)[0]
    assert color_count(c) <= 16


def _banded_by_points(n, block, w, d, left_phase=0, right_phase=1):
    """The banded layout computed point by point, as the reference for the array code."""
    period, kb = block.region.period, block.num_colors
    m, c0 = n - 1, n - 1 - d // 2
    colors = []
    for a, b in points(TriangleRegion(n)):
        x, j = 2 * a + b, n - 1 - a - b
        if c0 <= x < c0 + d:
            colors.append(x - c0)
            continue
        if x < m or (x == m and a <= j):
            band, line = divmod(a, w)
            sub = block.assignment[((a + b + left_phase) % period, w - 1 - line)]
        else:
            band, line = divmod(j, w)
            sub = block.assignment[((-b + right_phase) % period, w - 1 - line)]
        colors.append(d + band * kb + sub)
    used = sorted(set(colors))
    return [used.index(c) for c in colors]


@pytest.mark.parametrize("n,d,phases", [(1, 0, (0, 1)), (8, 16, (0, 1)), (40, 15, (0, 1)),
                                        (61, 15, (2, 3)), (61, 0, (1, 0)), (30, 7, (3, 2)),
                                        (5, 2 ** 32 - 1, (0, 1)), (40, 2 ** 20, (0, 1)),
                                        (61, 61, (0, 1)), (61, 200, (2, 3))])
def test_array_constructions_match_point_loops(block6, n, d, phases):
    col = banded_coloring(n, block6, 6, d, verify=False, left_phase=phases[0],
                          right_phase=phases[1])
    assert col.colors.tolist() == _banded_by_points(n, block6, 6, d, *phases)
    assert col.num_colors == color_count(col)
    chevron = chevron_coloring(n, verify=False)
    assert chevron.colors.tolist() == [0 if 2 * a + b == n - 1 else 1 + min(a, n - 1 - a - b)
                                       for a, b in points(TriangleRegion(n))]


@pytest.mark.parametrize("build,sha,colors", [
    (lambda block: banded_coloring(600, block, 6, 15, verify=False), "793258690b397de0", 214),
    (lambda block: chevron_coloring(600, verify=False), "671d3ec628ad3340", 301),
    (lambda block: banded_coloring(300, block, 6, 15, verify=False), "91162388350e30b1", 114),
])
def test_large_certificates_byte_identical(build, sha, colors):
    block = read_certificate((CERT_DIR / "s6_p4_k4.cert").read_text())
    text = write_certificate(build(block))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == sha
    assert read_certificate(text).num_colors == colors
