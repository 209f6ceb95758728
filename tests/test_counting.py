import oracles
import pytest

from trilat import counting as ct, triangles
from trilat.lattice import TriangleRegion
from trilat.triangles import classify_pairs, count_upright, triangle_ranks


def test_small_closed_values():
    assert ct.alpha_closed(1) == 0
    assert ct.beta_closed(1) == 0
    assert ct.alpha_closed(4) == 15
    assert ct.beta_closed(4) == 10
    assert ct.alpha_closed(9) == 330
    assert (ct.a0_closed(4), ct.a1_closed(4), ct.a2_closed(4)) == (9, 27, 9)
    assert (ct.a0_closed(1), ct.a1_closed(1), ct.a2_closed(1)) == (0, 0, 0)
    assert (ct.a2_closed(5), ct.a1_closed(5)) == (24, 57)


@pytest.mark.parametrize("n", range(1, 61))
def test_closed_forms_match_oracles(n):
    region = TriangleRegion(n)
    assert ct.alpha_closed(n) == len(triangle_ranks(region))
    assert ct.beta_closed(n) == count_upright(region)
    cls = classify_pairs(region)
    assert cls.tallies() == (ct.a0_closed(n), ct.a1_closed(n), ct.a2_closed(n))
    assert cls.triangles == ct.alpha_closed(n)


def test_m_examples():
    assert ct.m_closed(4) == 0
    assert oracles.m_brute(3) == 3 == ct.m_closed(3)
    assert ct.m_closed(7) == 9 == oracles.m_brute(7)


def test_m_rejects_tiny():
    with pytest.raises(ValueError):
        ct.m_closed(2)
    with pytest.raises(ValueError):
        oracles.m_brute(1)
    with pytest.raises(ValueError):
        oracles.m_by_inclusion_exclusion(2)


@pytest.mark.parametrize("k", range(3, 15))
def test_m_three_ways(k):
    assert oracles.m_brute(k) == ct.m_closed(k) == oracles.m_by_inclusion_exclusion(k)


def test_h_examples():
    assert ct.h_closed(4, 4) == 1
    assert ct.h_closed(3, 4) == 3
    assert ct.h_closed(1, 4) == 10
    assert ct.h_closed(5, 4) == 0


@pytest.mark.parametrize("n", range(1, 10))
def test_h_brute_agrees(n):
    for k in range(1, n + 2):
        assert oracles.h_brute(k, n) == ct.h_closed(k, n)


def test_decomposition_examples():
    assert oracles.a2_by_decomposition(2) == 0
    assert oracles.a2_by_decomposition(4) == 9
    assert oracles.a2_by_decomposition(5) == 24


@pytest.mark.parametrize("n", range(1, 26))
def test_decomposition_identity(n):
    assert oracles.a2_by_decomposition(n) == ct.a2_closed(n)


def test_identity_suite_closed_forms():
    for n in range(1, 1001):
        r = ct.report_closed(n)
        assert r.gamma == 3 * r.alpha
        assert r.a0 + r.a1 + r.a2 == r.gamma
        assert r.a1 + 2 * r.a2 == 3 * r.alpha
        assert r.a0 == r.a2


def test_report_brute_matches_closed():
    for n in range(1, 8):
        rb = vars(ct.report_brute(n))
        rc = vars(ct.report_closed(n))
        rb.pop("source")
        rc.pop("source")
        assert rb == rc


def test_report_brute_generates_once(monkeypatch):
    calls = []
    generate = triangles._generate

    def counted(region, upright_only):
        calls.append(upright_only)
        return generate(region, upright_only)

    monkeypatch.setattr(triangles, "_generate", counted)
    report = ct.report_brute(12)
    assert sorted(calls) == [False, True]  # every triangle once, the upright ones once
    assert report.alpha == ct.alpha_closed(12) and report.beta == ct.beta_closed(12)


def test_exact_division_guard():
    with pytest.raises(ArithmeticError):
        ct._exact_div(7, 3)
