import hashlib
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
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
    mult = Counter(frozenset(p) for t in ts.triples.tolist() for p in combinations(sorted(t), 2))
    hist = Counter(mult.values())
    if comb(ts.v, 2) > len(mult):
        hist[0] = comb(ts.v, 2) - len(mult)
    return dict(hist)


@pytest.mark.parametrize("ts", [
    fano_plane(), triangle_system(1), triangle_system(2), triangle_system(9),
    TripleSystem(4, [(1, 2, 3), (2, 3, 4)]),
    TripleSystem(6, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (4, 5, 6)]),
    TripleSystem(3, []),
    TripleSystem((1 << 63) - 1, [(1, 2, (1 << 63) - 1), (2, (1 << 63) - 2, (1 << 63) - 1)]),
], ids=["fano", "T1", "T2", "T9", "defect1", "triple-pair", "empty", "large-v"])
def test_profile_matches_reference(ts):
    assert profile(ts).histogram == reference_histogram(ts)


def test_small_positive_defect_example():
    # pair {2,3} is covered twice and {1,4} not at all: defect 1
    ts = TripleSystem(4, [(1, 2, 3), (2, 3, 4)])
    assert is_modified_sts(ts) == 1


def test_non_modified_system_rejected():
    # a single triple on 4 points: 3 empty pairs but no doubled pair
    assert is_modified_sts(TripleSystem(4, [(1, 2, 3)])) is None


def test_triple_validation():
    with pytest.raises(ValueError, match="invalid"):
        TripleSystem(4, [(1, 2)])
    with pytest.raises(ValueError, match="invalid"):
        TripleSystem(4, [(1, 2, 5)])
    with pytest.raises(ValueError, match="duplicate"):
        TripleSystem(4, [(1, 2, 3), (1, 2, 3)])
    with pytest.raises(ValueError, match="duplicate"):  # a line may list its points in any order
        read_triples("trilat-triples v1\npoints 4\n1 2 3\n3 2 1\n")
    with pytest.raises(ValueError, match="too many points"):
        TripleSystem(1 << 63, [(1, 2, 3)])
    with pytest.raises(ValueError, match="negative points"):
        TripleSystem(-1, [])


@pytest.mark.parametrize("v,rows,message", [
    (4, [(1, 1, 2)], r"invalid triple \[1, 1, 2\]"),  # a repeated entry
    (4, [(1, 2, 3), (3, 2, 1)], r"invalid triple \[3, 2, 1\]"),  # rows are ascending
    (4, [(0, 1, 2)], r"invalid triple \[0, 1, 2\]"),
    (4, [(1, 2, 5)], r"invalid triple \[1, 2, 5\]"),
    (4, [(-(1 << 63), 1, 2)], r"invalid triple \[-9223372036854775808, 1, 2\]"),
    (4, [(1, 2, 3), (1, 2, 4), (1, 2, 3), (0, 1, 2)], r"duplicate triple \[1, 2, 3\]"),
    (4, [(1, 2, 3), (0, 1, 2), (1, 2, 3)], r"invalid triple \[0, 1, 2\]"),
    (4, np.array([[2, 3, 4], [1, 2, 3], [2, 3, 4]]), r"duplicate triple \[2, 3, 4\]"),
    (4, [(1, 2, 3), (1, 2)], "invalid triple rows"),  # ragged
    (4, np.ones((2, 4), dtype=np.int64), r"invalid triple rows: shape \(2, 4\)"),
    (4, [1, 2, 3], r"invalid triple rows: shape \(3,\)"),
    (4, [[]], r"invalid triple rows: shape \(1, 0\)"),
    (4, [(1, 2, 1 << 63)], "invalid triple rows"),  # beyond int64
    (4, [frozenset((1, 2, 3))], "invalid triple rows"),
], ids=["repeated-entry", "descending", "below-1", "above-v", "int64-min", "duplicate-first",
        "invalid-first", "duplicate-array", "ragged", "four-columns", "one-row-flat",
        "empty-row", "beyond-int64", "set-row"])
def test_triple_rows_validation(v, rows, message):
    with pytest.raises(ValueError, match=message):
        TripleSystem(v, rows)


def test_triple_rows_are_int64():
    ts = TripleSystem(7, [(1, 2, 3)])
    assert ts.triples.dtype == np.int64 and ts.triples.shape == (1, 3)
    assert TripleSystem(3, []).triples.shape == (0, 3)


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
    text = f"trilat-triples v1\npoints {v}\n" + "".join(" ".join(map(str, t)) + "\n" for t in triples)
    with pytest.raises(ValueError, match=message):
        read_triples(text)


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
        assert sorted(back.triples.tolist()) == sorted(ts.triples.tolist())
        assert write_triples(back) == text


def test_format_errors():
    good = write_triples(fano_plane())
    with pytest.raises(ValueError, match="header"):
        read_triples(good.replace("trilat-triples v1", "x"))
    with pytest.raises(ValueError, match="points"):
        read_triples("trilat-triples v1\n1 2 3\n")
    with pytest.raises(ValueError, match="invalid"):
        read_triples("trilat-triples v1\npoints 3\n1 2 9\n")
    with pytest.raises(ValueError, match="points"):
        read_triples("trilat-triples v1\npoints 7 8\n1 2 3\n")
    with pytest.raises(ValueError, match="negative points"):
        read_triples("trilat-triples v1\npoints -5\n")


@pytest.mark.parametrize("lines,message", [
    (["1 2 3 1"], r"invalid triple \[1, 1, 2, 3\]"),  # not three distinct points
    (["1 1 2"], r"invalid triple \[1, 1, 2\]"),
    (["1 2 x"], r"invalid triple \['1', '2', 'x'\]"),
    (["1 2 3", "3 1 2", "1 2 x"], r"duplicate triple \[1, 2, 3\]"),  # the earlier fault first
    (["0 1 2", "1 2 3 4"], r"invalid triple \[0, 1, 2\]"),
    (["1 2 3", "1 2 9223372036854775808"], r"invalid triple \[1, 2, 9223372036854775808\]"),
])
def test_read_triples_rejects_non_triples(lines, message):
    with pytest.raises(ValueError, match=message):
        read_triples("trilat-triples v1\npoints 4\n" + "\n".join(lines) + "\n")


def test_format_comments_ignored():
    text = write_triples(fano_plane()).replace("points 7", "points 7\n# note")
    assert is_modified_sts(read_triples(text)) == 0


def test_triangle_system_text_pinned():
    """The text and the defect of the triangle systems of T_1..T_20, by digest."""
    h = hashlib.sha256()
    for n in range(1, 21):
        ts = triangle_system(n)
        h.update(write_triples(ts).encode())
        h.update(f"r {is_modified_sts(ts)}\n".encode())
    assert h.hexdigest() == "62bd912f5c2ee25b66c7644fcfebd5257e2f77d9c5de237d6b9b1ee30cc9eb6c"


@pytest.mark.parametrize("nodes,digest", [
    (50, "38947fae2348ce6bfb0ee8c7a90b25bed57dce0f9b0612df43d019addcbdc5ac"),
    (2000, "7b73bdcd1dfb652ce1cd25236ce52778916642b1a0e62bd00a70cf70888922b8"),
    (200_000, "2627f241ffac9517d9aa9d0b89479b4da88a93d930105405b27e5a1523e4e31a"),
])
def test_search_grid_pinned(nodes, digest):
    """Every verdict and system of search_modified_sts for v 3..13 and r 0..7
    under one node budget, by digest."""
    h = hashlib.sha256()
    for v in range(3, 14):
        for r in range(8):
            res = search_modified_sts(v, r, max_nodes=nodes)
            h.update((res if isinstance(res, str) else write_triples(res)).encode())
    assert h.hexdigest() == digest
