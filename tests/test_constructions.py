import pytest

from trilat.coloring import Coloring, color_count, is_proper, is_proper_scan
from trilat.constructions import (
    ConstructionError,
    banded_coloring,
    chevron_coloring,
    minimal_spacer,
    stripe_partition_coloring,
)
from trilat.lattice import LatticePoint, PeriodicStripe, TriangleRegion
from trilat.solver import SAT, decide_k_colorable, solve_periodic_stripe


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
    bad = Coloring(region, {p: 0 for p in region.points()}, 1)
    with pytest.raises(ConstructionError):
        stripe_partition_coloring(3, bad)


def test_banded_input_validation(block6):
    with pytest.raises(ValueError, match="stripe"):
        banded_coloring(30, chevron_coloring(6), w=6, d=15)
    with pytest.raises(ValueError, match="nonnegative"):
        banded_coloring(30, block6, w=6, d=-1)
    region = PeriodicStripe(6, 2)
    bad = Coloring(region, {p: 0 for p in region.fundamental_domain()}, 1)
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
    d120 = minimal_spacer(120, block6, start=d60)
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
