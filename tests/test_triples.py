from collections import Counter
from itertools import combinations
from math import comb

import pytest
from oracles import fano_plane

from trilat.counting import a2_closed
from trilat.triples import (
    TripleSystem,
    is_modified_sts,
    profile,
    read_triples,
    search_modified_sts,
    triangle_system,
    write_triples,
)


def test_fano_is_defect_zero():
    fano = fano_plane()
    assert len(fano.triples) == 7
    assert is_modified_sts(fano) == 0
    assert profile(fano).histogram == {1: 21}


def test_triangle_system_t4():
    ts = triangle_system(4)
    assert ts.v == 10
    assert len(ts.triples) == 15
    assert is_modified_sts(ts) == 9


@pytest.mark.parametrize("n", range(2, 13))
def test_triangle_system_defect_is_a2(n):
    ts = triangle_system(n)
    assert is_modified_sts(ts) == a2_closed(n)
    assert len(ts.triples) == comb(ts.v, 2) // 3


def reference_histogram(ts):
    """Pair multiplicity -> number of pairs, counted pair by pair."""
    mult = Counter(frozenset(p) for t in ts.triples for p in combinations(sorted(t), 2))
    hist = Counter(mult.values())
    if comb(ts.v, 2) > len(mult):
        hist[0] = comb(ts.v, 2) - len(mult)
    return dict(hist)


@pytest.mark.parametrize("ts", [
    fano_plane(), triangle_system(1), triangle_system(2), triangle_system(9),
    TripleSystem(4, [frozenset((1, 2, 3)), frozenset((2, 3, 4))]),
    TripleSystem(6, [frozenset((1, 2, 3)), frozenset((1, 2, 4)), frozenset((1, 2, 5)),
                     frozenset((4, 5, 6))]),
    TripleSystem(3, []),
    TripleSystem((1 << 63) - 1, [frozenset((1, 2, (1 << 63) - 1)),
                                 frozenset((2, (1 << 63) - 2, (1 << 63) - 1))]),
], ids=["fano", "T1", "T2", "T9", "defect1", "triple-pair", "empty", "large-v"])
def test_profile_matches_reference(ts):
    assert profile(ts).histogram == reference_histogram(ts)


def test_small_positive_defect_example():
    # pair {2,3} is covered twice and {1,4} not at all: defect 1
    ts = TripleSystem(4, [frozenset((1, 2, 3)), frozenset((2, 3, 4))])
    assert is_modified_sts(ts) == 1


def test_non_modified_system_rejected():
    # a single triple on 4 points: 3 empty pairs but no doubled pair
    assert is_modified_sts(TripleSystem(4, [frozenset((1, 2, 3))])) is None


def test_triple_validation():
    with pytest.raises(ValueError, match="invalid"):
        TripleSystem(4, [frozenset((1, 2))])
    with pytest.raises(ValueError, match="invalid"):
        TripleSystem(4, [frozenset((1, 2, 5))])
    with pytest.raises(ValueError, match="duplicate"):
        TripleSystem(4, [frozenset((1, 2, 3)), frozenset((3, 2, 1))])
    with pytest.raises(ValueError, match="too many points"):
        TripleSystem(1 << 63, [frozenset((1, 2, 3))])


@pytest.mark.parametrize("v,triples,message", [
    (4, [(1, 2, 3), (3, 2, 1), (1, 2, 5)], r"duplicate triple \[1, 2, 3\]"),  # invalid after a duplicate
    (4, [(1, 2, 3), (1, 2, 5), (1, 2, 3)], r"invalid triple \[1, 2, 5\]"),  # duplicate after an invalid
    (4, [(1, 2, 3), (2, 3)], r"invalid triple \[2, 3\]"),
    (4, [(1, 2, 3), (1, 2, 3, 4)], r"invalid triple \[1, 2, 3, 4\]"),
    (4, [(1, 2, 3), (0, 1, 2)], r"invalid triple \[0, 1, 2\]"),
    (4, [(1, 2, -(1 << 70)), (1, 2, 3), (1, 2, 3)], r"invalid triple \[-1180591620717411303424, 1, 2\]"),
    ((1 << 63) - 1, [(1, 2, (1 << 63) - 1), (1, 2, 1 << 63)], r"invalid triple \[1, 2, 9223372036854775808\]"),
])
def test_triple_validation_reports_first_fault(v, triples, message):
    with pytest.raises(ValueError, match=message):
        TripleSystem(v, [frozenset(t) for t in triples])


def test_divisibility_precondition():
    # C(5,2) = 10 is not divisible by 3: no system exists for any r
    assert search_modified_sts(5, 0) == "UNSAT"
    assert search_modified_sts(5, 3) == "UNSAT"


def test_search_finds_steiner_systems():
    for v in (3, 7):
        ts = search_modified_sts(v, 0)
        assert isinstance(ts, TripleSystem)
        assert is_modified_sts(ts) == 0


def test_search_finds_positive_defect():
    ts = search_modified_sts(6, 3)
    assert isinstance(ts, TripleSystem)
    assert is_modified_sts(ts) == 3


def test_search_unsat_for_impossible_defect():
    # v=3 has a single candidate triple; only r=0 works
    assert search_modified_sts(3, 1) == "UNSAT"


def test_search_budget_unknown():
    assert search_modified_sts(9, 0, max_nodes=3) == "UNKNOWN"


def test_search_input_validation():
    with pytest.raises(ValueError):
        search_modified_sts(2, 0)
    with pytest.raises(ValueError):
        search_modified_sts(7, -1)


def test_format_roundtrip():
    for ts in (fano_plane(), triangle_system(4)):
        text = write_triples(ts)
        back = read_triples(text)
        assert back.v == ts.v
        assert set(back.triples) == set(ts.triples)
        assert write_triples(back) == text


def test_format_errors():
    good = write_triples(fano_plane())
    with pytest.raises(ValueError, match="header"):
        read_triples(good.replace("trilat-triples v1", "x"))
    with pytest.raises(ValueError, match="points"):
        read_triples("trilat-triples v1\n1 2 3\n")
    with pytest.raises(ValueError, match="invalid"):
        read_triples("trilat-triples v1\npoints 3\n1 2 9\n")


def test_format_comments_ignored():
    text = write_triples(fano_plane()).replace("points 7", "points 7\n# note")
    assert is_modified_sts(read_triples(text)) == 0
