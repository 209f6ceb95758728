import ast
import gc
import itertools
import random
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import format_rows_by_percent, is_proper_pairs, is_proper_scan, loop_points, reduce

from trilat import coloring
from trilat.cli import main
from trilat.coloring import (
    CertificateError,
    Coloring,
    color_count,
    is_proper,
    read_certificate,
    write_certificate,
)
from trilat.constructions import banded_coloring, chevron_coloring
from trilat.lattice import (
    LatticePoint,
    PeriodicStripe,
    StripeWindow,
    TriangleRegion,
    norm,
    points,
    stripe_span_bound,
    symmetries,
)
from trilat.triangles import enumerate_triangles

CERT_DIR = Path(__file__).resolve().parent.parent / "certificates"


def uniform(region, color=0, k=1):
    return Coloring(region, [color] * region.size(), k)


def agrees_with_scan(c):
    """is_proper gives the scan oracle's verdict and the pair-order oracle's
    witness, and any witness it gives is a monochromatic equilateral triangle
    of the region."""
    ok, witness = is_proper(c)
    assert ok == is_proper_scan(c)[0]
    assert (ok, witness) == is_proper_pairs(c)
    if witness is not None:
        p, q, r = witness.vertices()
        sides = {norm(q - p), norm(r - q), norm(p - r)}
        assert len(sides) == 1 and 0 not in sides
        assert all(c.region.contains(v) for v in (p, q, r))
        periodic = isinstance(c.region, PeriodicStripe)
        colors = {c.assignment[reduce(c.region, v) if periodic else v] for v in (p, q, r)}
        assert len(colors) == 1


def test_monochromatic_t2():
    ok, witness = is_proper(uniform(TriangleRegion(2)))
    assert not ok
    assert witness.vertices() == ((0, 0), (1, 0), (0, 1))


def test_all_two_colorings_of_t4_improper():
    region = TriangleRegion(4)
    for bits in itertools.product(range(2), repeat=10):
        c = Coloring(region, bits, 2)
        assert not is_proper(c)[0]


def test_mod3_coloring_agrees_with_scan():
    region = TriangleRegion(4)
    c = Coloring(region, [(p.a + p.b) % 3 for p in points(region)], 3)
    assert is_proper(c) == is_proper_scan(c)


@pytest.mark.parametrize("n", range(1, 17))
def test_pair_and_scan_checkers_agree(n):
    rng = random.Random(n)
    region = TriangleRegion(n)
    for _ in range(15):
        k = rng.randint(1, 4)
        c = Coloring(region, [rng.randrange(k) for _ in range(region.size())], k)
        agrees_with_scan(c)


def test_properness_invariant_under_color_permutation_and_symmetry():
    rng = random.Random(7)
    n = 7
    region = TriangleRegion(n)
    pts = list(points(region))
    for _ in range(10):
        k = 4
        colors = [rng.randrange(k) for _ in pts]
        verdict = is_proper(Coloring(region, colors, k))[0]
        perm = list(range(k))
        rng.shuffle(perm)
        assert is_proper(Coloring(region, [perm[c] for c in colors], k))[0] == verdict
        for sym in symmetries(n):
            moved = np.empty(len(colors), dtype=np.int64)
            moved[sym] = colors  # each point's image takes its color
            assert is_proper(Coloring(region, moved, k))[0] == verdict


def test_stripe_window_checker():
    w = StripeWindow(2, 0, 5)
    c = Coloring(w, [0] * w.size(), 1)
    assert not is_proper(c)[0]
    c2 = Coloring(w, [(p.a + 2 * p.b) % 3 for p in points(w)], 3)
    agrees_with_scan(c2)
    # negative and non-zero x_min move the window against the grid padding
    rng = random.Random(5)
    for w in [StripeWindow(3, -4, 3), StripeWindow(4, 7, 15), StripeWindow(5, -9, -2),
              StripeWindow(1, -3, 3), StripeWindow(6, -2, 0)]:
        for _ in range(10):
            k = rng.randint(1, 3)
            agrees_with_scan(Coloring(w, [rng.randrange(k) for _ in range(w.size())], k))


def test_periodic_stripe_checker():
    # one row is a line: no triangles at all
    s1 = PeriodicStripe(1, 3)
    c = Coloring(s1, [0] * s1.size(), 1)
    assert is_proper(c)[0]
    # two rows, all one color: improper
    s2 = PeriodicStripe(2, 2)
    c2 = Coloring(s2, [0] * s2.size(), 1)
    assert not is_proper(c2)[0]
    assert not is_proper_scan(c2)[0]


def test_periodic_vs_scan_randomized():
    rng = random.Random(3)
    for k, p in itertools.product(range(1, 7), range(1, 7)):
        s = PeriodicStripe(k, p)
        for _ in range(6):
            kk = rng.randint(1, 4)
            agrees_with_scan(Coloring(s, [rng.randrange(kk) for _ in range(s.size())], kk))


def test_periodic_stripe_reduce():
    s = PeriodicStripe(4, 5)
    assert s.contains((123, 3))
    assert not s.contains((0, 4))
    assert reduce(s, (-1, 2)) == (4, 2)
    assert len(list(points(s))) == 20


GRID_DTYPE_CASES = [1, 254, 255, 256, 70_000]


@pytest.mark.parametrize("num_colors", GRID_DTYPE_CASES)
def test_checker_grid_dtypes(num_colors):
    """The grid is uint8 up to 255 colors, then uint16, then uint32, with
    num_colors itself as the sentinel: colors next to it must not be taken
    for it, nor it for them."""
    rng = random.Random(num_colors)
    palette = sorted({0, num_colors - 1, max(0, num_colors - 2)})
    for region in [TriangleRegion(9), StripeWindow(3, -4, 6), PeriodicStripe(4, 3)]:
        for _ in range(8):
            colors = [rng.choice(palette) for _ in range(region.size())]
            agrees_with_scan(Coloring(region, colors, num_colors))


CLIPPED_REGIONS = [
    StripeWindow(1, -30, 30), StripeWindow(2, -40, 40), StripeWindow(3, 5, 60),
    *[PeriodicStripe(k, p) for k in range(1, 7) for p in (1, 2)],
]


@pytest.mark.parametrize("region", CLIPPED_REGIONS, ids=str)
def test_checker_clipped_lookups(region):
    """Wide, short regions, whose apexes mostly fall outside the grid's rows
    and are clipped onto its border rows."""
    rng = random.Random(str(region))
    agrees_with_scan(uniform(region))
    for _ in range(10):
        k = rng.randint(1, 4)
        agrees_with_scan(Coloring(region, [rng.randrange(k) for _ in range(region.size())], k))


def test_checker_memory_linear_in_stripe_period():
    """The checker holds a few arrays of one entry per scanned point, so its
    memory grows linearly with a periodic stripe's period, not as its square."""
    rng = np.random.default_rng(0)
    peaks = []
    for period in (1000, 4000):
        s = PeriodicStripe(6, period)
        c = Coloring(s, rng.integers(0, 3000, s.size()), 3000)
        tracemalloc.start()
        try:
            is_proper(c)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 6 * peaks[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checker_agrees_on_drawn_colorings(data):
    kind = data.draw(st.sampled_from(["triangle", "window", "stripe"]))
    if kind == "triangle":
        region = TriangleRegion(data.draw(st.integers(1, 12)))
    elif kind == "window":
        x_min = data.draw(st.integers(-8, 8))
        region = StripeWindow(data.draw(st.integers(1, 5)), x_min, x_min + data.draw(st.integers(0, 12)))
    else:
        region = PeriodicStripe(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6)))
    k = data.draw(st.integers(1, 4))
    size = region.size()
    agrees_with_scan(Coloring(region, data.draw(st.lists(st.integers(0, k - 1), min_size=size,
                                                         max_size=size)), k))


def test_small_units_agree_with_oracles(monkeypatch):
    """The oracle suites again, with units of 64 probes: even a small scan is
    cut into many units, and the earliest unit with a hit must give the
    witness."""
    monkeypatch.setattr(coloring, "_UNIT", 64)
    run_oracle_suites()


def run_oracle_suites():
    """The checker's oracle tests above, one after the other."""
    for n in range(1, 17):
        test_pair_and_scan_checkers_agree(n)
    test_stripe_window_checker()
    test_periodic_vs_scan_randomized()
    for num_colors in GRID_DTYPE_CASES:
        test_checker_grid_dtypes(num_colors)
    for region in CLIPPED_REGIONS:
        test_checker_clipped_lookups(region)
    test_checker_agrees_on_drawn_colorings()


# witnesses of copies of the banded T300 coloring with one seeded triangle
# recolored (planted), as `trilat verify` prints them
IMPROPER_T300_WITNESSES = [
    [(68, 134), (82, 135), (67, 149)], [(0, 42), (112, 42), (0, 154)],
    [(13, 8), (67, 9), (12, 63)], [(35, 4), (184, 6), (33, 155)],
    [(46, 41), (135, 45), (42, 134)], [(57, 2), (226, 4), (55, 173)],
    [(225, 0), (226, 37), (188, 38)], [(233, 2), (94, 46), (138, 141)],
    [(10, 4), (283, 9), (5, 282)], [(6, 38), (217, 40), (4, 251)],
    [(174, 69), (144, 76), (151, 99)], [(243, 3), (11, 49), (57, 235)],
]


def test_improper_banded_t300_witnesses_pinned(tmp_path, capsys):
    """The witnesses of twelve improper copies of banded T300, each with one
    planted triangle, are pinned."""
    base = banded_coloring(300, read_certificate((CERT_DIR / "s6_p4_k4.cert").read_text()), 6, 15,
                           verify=False)
    rng = random.Random("improper T300")
    offset = rng.random()
    for j, pinned in enumerate(IMPROPER_T300_WITNESSES):
        color = int((j + offset) * base.num_colors / 12)
        side = rng.randint(1, 299)
        x = rng.randint(0, 299 - side)
        y = rng.randint(0, 299 - side - x)
        i = rng.randrange(side)
        a, b = np.array([(x + i, y), (x + side - i, y + i), (x, y + side - i)]).T
        colors = base.colors.copy()
        colors[base.region.rank(a, b)] = color
        path = tmp_path / f"improper_{j}.cert"
        path.write_text(write_certificate(Coloring(base.region, colors, base.num_colors)))
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("improper: monochromatic triangle ")
        assert ast.literal_eval(out.split("triangle ", 1)[1].strip()) == pinned


def count_probes(monkeypatch):
    """The probe count of each unit the kernel scans from now on."""
    probes, unit_hit = [], coloring._unit_hit

    def counted(grid, terms, unit):
        probes.append(int(unit[2].sum()))
        return unit_hit(grid, terms, unit)

    monkeypatch.setattr(coloring, "_unit_hit", counted)
    return probes


def test_improper_scan_stops_at_its_first_hit(monkeypatch):
    """One-color T600's band scan has 6.8 billion probes (103,000 units) and
    its witness pass 10.8 billion (165,000), each with a hit in its first
    unit: each scans that unit alone, and cuts and slices no later one."""
    region = TriangleRegion(600)
    c = Coloring(region, np.zeros(region.size(), dtype=np.int64), 1)
    probes = count_probes(monkeypatch)
    tracemalloc.start()
    try:
        ok, witness = is_proper(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ok and witness.vertices() == ((0, 0), (1, 0), (0, 1))
    assert len(probes) == 2
    assert peak < 40 * 2 ** 20


@pytest.mark.parametrize("scheme", ["banded T300", "chevron T200"])
def test_proper_scan_probes_few_class_pairs(monkeypatch, scheme):
    """A proper banded or chevron coloring is checked with under 5% of its
    class pairs probed, those whose apex can lie in their class: a fallback
    to every pair would fail here."""
    if scheme == "banded T300":
        c = banded_coloring(300, read_certificate((CERT_DIR / "s6_p4_k4.cert").read_text()), 6, 15,
                            verify=False)
    else:
        c = chevron_coloring(200, verify=False)
    probes = count_probes(monkeypatch)
    assert is_proper(c) == (True, None)
    sizes = np.bincount(c.colors)
    assert 0 < sum(probes) < 0.05 * int(sizes @ (sizes - 1) // 2)


@pytest.mark.parametrize("scheme", ["banded", "chevron"])
def test_planted_triangles_agree_with_pair_oracle(scheme):
    """One triangle recolored into each class in turn, at the corners and
    edges of T_n, so that its points set the class hexagon's extreme a and
    a + b, where an off-by-one in a band bound would hide: the verdict and
    witness are the pair-order oracle's."""
    if scheme == "banded":  # proper at n = 32, so each plant is the one defect
        base = banded_coloring(32, read_certificate((CERT_DIR / "s6_p4_k4.cert").read_text()), 6, 15,
                               verify=False)
    else:
        base = chevron_coloring(30, verify=False)
    assert is_proper(base) == (True, None)
    m = base.region.n - 1
    # (x, y, side, i): the triangle (x + i, y), (x + side - i, y + i), (x, y + side - i)
    plants = [(0, 0, m, 0), (0, 0, m, m // 3), (m - 1, 0, 1, 0), (0, m - 1, 1, 0),
              (0, 0, 2, 1), (m - 2, 0, 2, 1), (4, 6, m // 2, 5)]
    for x, y, side, i in plants:
        a, b = np.array([(x + i, y), (x + side - i, y + i), (x, y + side - i)]).T
        for color in range(base.num_colors):
            colors = base.colors.copy()
            colors[base.region.rank(a, b)] = color
            c = Coloring(base.region, colors, base.num_colors)
            assert is_proper(c) == is_proper_pairs(c)


def test_span_bound_dominates_triangle_extent():
    # brute check: no triangle in a k-row stripe spreads further in a
    for k in range(2, 8):
        window = StripeWindow(k, 0, 3 * k)
        worst = 0
        for t in enumerate_triangles(window):
            span = max(p.a for p in t.vertices()) - min(p.a for p in t.vertices())
            worst = max(worst, span)
        assert worst <= stripe_span_bound(k)
    assert stripe_span_bound(6) == 5


def test_color_count():
    assert color_count(uniform(TriangleRegion(1))) == 1
    region = TriangleRegion(3)
    c = Coloring(region, [2 * ((p.a + p.b) % 2) for p in points(region)], 3)
    assert color_count(c) == 2  # gaps in the palette are not counted


def test_certificate_roundtrip():
    region = TriangleRegion(4)
    c = Coloring(region, [(p.a + p.b) % 3 for p in points(region)], 3)
    text = write_certificate(c)
    assert write_certificate(read_certificate(text)) == text
    back = read_certificate(text)
    assert back.assignment == c.assignment
    assert back.num_colors == 3


def test_certificate_stripe_roundtrip():
    s = PeriodicStripe(3, 2)
    c = Coloring(s, [p.b for p in points(s)], 3)
    text = write_certificate(c)
    assert write_certificate(read_certificate(text)) == text


def test_certificate_comments_ignored():
    region = TriangleRegion(2)
    c = Coloring(region, [0 if p.b else p.a for p in points(region)], 2)
    text = write_certificate(c)
    commented = text.replace("colors 2", "colors 2\n# a comment")
    assert read_certificate(commented).assignment == c.assignment


# a trailing comment makes a body non-canonical, so it sends the text to the
# per-line parser; the leading newline ends a last line that has no newline
STRICT = "\n# strict\n"


def read_both(text):
    """What read_certificate makes of `text`, checked to be the same on the
    strict scan and the per-line path: (region, num_colors, colors) or the
    error message."""
    results = []
    for t in (text, text + STRICT):
        try:
            c = read_certificate(t)
            results.append((c.region, c.num_colors, c.colors.tolist()))
        except CertificateError as e:
            results.append(str(e))
    assert results[0] == results[1]
    return results[0]


@pytest.mark.parametrize("mutate,message", [
    (lambda t: t.replace("trilat-coloring v1", "nope"), "header"),
    (lambda t: "\n".join(t.splitlines()[:-1]) + "\n", "partial"),
    (lambda t: t + "0 0 1\n", "duplicate"),
    (lambda t: t + "9 9 0\n", "outside"),
    (lambda t: t.replace("colors 3", "colors 2"), "color out of range"),
    (lambda t: t.replace("region triangle 4", "region blob 4"), "region"),
    (lambda t: t + "0 0\n", "bad point line: '0 0'"),
    (lambda t: t + "0 x 0\n", "bad point line"),
    (lambda t: t + "3 0 1 # note\n", "bad point line"),
    (lambda t: t.replace("0 0 0\n", "0 0 0\n# note\n0 0 1\n"), "duplicate point: '0 0 1'"),
    (lambda t: t.replace("0 0 0\n", "99999999999999999999999 0 0\n"), "outside region"),
    (lambda t: t.replace("0 0 0\n", "0 0 -1\n"), "color out of range: '0 0 -1'"),
    (lambda t: t.replace("0 0 0\n", "0 4 0\n"), "outside region: '0 4 0'"),
    # both fit in int64 but their sum wraps round to a negative number
    (lambda t: t.replace("0 0 0\n", "5764607523034234880 6917529027641081856 0\n"),
     "outside region: '5764607523034234880 6917529027641081856 0'"),
    (lambda t: t.replace("0 0 0\n", "0.0 0 0\n"), "bad point line: '0.0 0 0'"),
    (lambda t: t.replace("1 0 1\n", "1e0 0 1\n"), "bad point line: '1e0 0 1'"),
    # the first bad line in file order is reported, whichever check it fails
    (lambda t: t.replace("0 0 0\n", "9 9 0\n") + "0 x 0\n", "outside region: '9 9 0'"),
    (lambda t: t.replace("0 0 0\n", "0 x 0\n") + "9 9 0\n", "bad point line: '0 x 0'"),
    (lambda t: t.replace("1 0 1\n", "1 0 9\n0 0\n"), "color out of range: '1 0 9'"),
    (lambda t: t.replace("region triangle 4", "region triangle 2305843009213693953"),
     "bad region line"),
    (lambda t: t.replace("colors 3", "colors 2305843009213693953"), "bad colors line"),
    # as many values and characters as the canonical body, in other lines
    (lambda t: t.replace("1 0 1\n", "1 0\n1\n"), "bad point line: '1 0'"),
    # text numpy cannot even encode
    (lambda t: t + "0 0 \ud800\n", "bad point line"),
])
def test_certificate_errors(mutate, message):
    region = TriangleRegion(4)
    c = Coloring(region, [(p.a + p.b) % 3 for p in points(region)], 3)
    text = write_certificate(c)
    with pytest.raises(CertificateError, match=message):
        read_certificate(mutate(text))
    read_both(mutate(text))  # and the per-line parser gives the same message


def random_colorings():
    rng = random.Random(11)
    regions = ([TriangleRegion(n) for n in range(1, 13)]
               + [PeriodicStripe(k, p) for k in range(1, 5) for p in range(1, 5)])
    for region in regions:
        k = rng.randint(1, 5)
        yield Coloring(region, [rng.randrange(k) for _ in range(region.size())], k)


# the same body written in ways only the per-line parser accepts
BODY_VARIANTS = [
    lambda body: body.replace("\n", "\r\n"),
    lambda body: body.replace("\n", "\r"),
    lambda body: body.replace("\n", "  \n"),
    lambda body: body.replace(" ", "\t"),
    lambda body: "".join("+" + ln for ln in body.splitlines(keepends=True)),
    lambda body: "".join("00" + ln for ln in body.splitlines(keepends=True)),
    lambda body: body[:-1],
    lambda body: body.replace("\n", "\n# a comment\n", 1),
]


def test_parse_paths_agree_on_valid_certificates():
    texts = [cert.read_text() for cert in sorted(CERT_DIR.glob("*.cert"))]
    assert len(texts) == 13
    texts += [write_certificate(c) for c in random_colorings()]
    for text in texts:
        expected = read_both(text)
        assert not isinstance(expected, str)
        header = "".join(text.splitlines(keepends=True)[:3])
        body = text[len(header):]
        for variant in BODY_VARIANTS:
            assert read_both(header + variant(body)) == expected
        # no point lines at all
        assert read_both(header) == "partial coloring"


def test_parse_paths_agree_on_bad_rows():
    """A random row of extreme values in place of one line of a valid
    certificate: values past int64 go to the per-line parser on both reads,
    the rest to numpy first; both quote the same line."""
    rng = random.Random(12)
    extremes = [-(1 << 63), (1 << 63) - 1, 1 << 63, -(1 << 61) - 1, 1 << 61, (1 << 61) + 1,
                -1, 0, 1, 2, 10 ** 30]
    for c in random_colorings():
        lines = write_certificate(c).splitlines(keepends=True)
        for _ in range(4):
            r = rng.randrange(3, len(lines))
            row = " ".join(str(rng.choice(extremes)) for _ in range(3))
            mutated = lines[:r] + [row + "\n"] + lines[r + 1:]
            read_both("".join(mutated))


def test_canonical_body_skips_line_parser(monkeypatch):
    """A canonical body is read by the strict scan alone, also across the
    chunks of a body longer than one; a one-byte fault on either side of a
    chunk cut sends it to the per-line parser, which names the line."""
    colorings = []
    for region in [TriangleRegion(30), PeriodicStripe(6, 7), TriangleRegion(300)]:
        a, b = region.point_arrays()
        colorings.append(Coloring(region, (a + 2 * b) % 5, 5))
    texts = [write_certificate(c) for c in colorings]
    calls = []
    real = coloring._point_rows

    def spy(lines):
        calls.append(len(lines))
        return real(lines)

    monkeypatch.setattr(coloring, "_point_rows", spy)
    for text, c in zip(texts, colorings):
        back = read_certificate(text)
        assert (back.region, back.num_colors) == (c.region, c.num_colors)
        assert (back.colors == c.colors).all()
        # CRLF header lines in front of a canonical body
        assert (read_certificate(text.replace("\n", "\r\n", 3)).colors == c.colors).all()
    assert not calls
    read_certificate(texts[0] + "# a comment\n")
    assert calls

    # T300: the body is cut after the first newline from _READ_CHUNK bytes on
    body = coloring._split_header(texts[2])[1]
    head = texts[2][:-len(body)]
    cut = body.find("\n", coloring._READ_CHUNK - 1) + 1
    assert 0 < cut < len(body)
    last = body[body.rfind("\n", 0, cut - 1) + 1:cut - 1]  # the first chunk's last line
    first = body[cut:body.find("\n", cut)]  # the next chunk's first line
    for faulty, line in [
            (body[:cut - 2] + "x" + body[cut - 1:], last[:-1] + "x"),
            (body[:cut] + "x" + body[cut + 1:], "x" + first[1:]),
            (body[:cut - 1] + " " + body[cut:], f"{last} {first}")]:
        calls.clear()
        with pytest.raises(CertificateError, match=re.escape(f"bad point line: {line!r}")):
            read_certificate(head + faulty)
        assert calls
        read_both(head + faulty)


# a canonical body: `write_certificate`'s lines for values below 10**18, no sign
VALUE = "(?:0|[1-9][0-9]{0,17})"
CANONICAL = re.compile(f"(?:{VALUE} {VALUE} {VALUE}\n)*")


def test_strict_scan_takes_the_canonical_grammar():
    """Every one-byte insert, replace and delete at every position of a small
    certificate, and rows at the value limits: the strict scan takes a body
    exactly when it is canonical, and both parsers read each text alike."""
    region = TriangleRegion(3)
    # one- and two-digit colors, so a line can lose a byte and the body still be long enough
    text = write_certificate(Coloring(region, [(7 * p.a + 5 * p.b) % 13 for p in points(region)], 13))
    alphabet = [*"0123456789", " ", "\n", "\r", "\t", "-", "+", "#", "\0", "\u00e9"]
    texts = [text[:i] + ch + text[i + skip:] for ch in alphabet for skip in (0, 1)
             for i in range(len(text) + 1 - skip)]
    texts += [text[:i] + text[i + 1:] for i in range(len(text))]
    lines = text.splitlines(keepends=True)
    for value in [10 ** 18 - 1, 10 ** 18, 2 ** 61, 2 ** 61 + 1, "00", "-0", "-1"]:
        for r in range(3, len(lines)):
            for k in range(3):
                row = lines[r].split()
                row[k] = str(value)
                texts.append("".join(lines[:r] + [" ".join(row) + "\n"] + lines[r + 1:]))
    taken = 0
    for t in texts:
        read_both(t)
        body = coloring._split_header(t)[1]
        rows = coloring._canonical_rows(body)
        assert (rows is not None) == bool(CANONICAL.fullmatch(body)), repr(t)
        taken += rows is not None
    assert 0 < taken < len(texts)
    # a body shorter than "0 0 0\n" a line is refused before its rows are laid out
    blank = "\n" * 10 ** 6
    tracemalloc.start()
    try:
        assert coloring._canonical_rows(blank) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("end", ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_header_lines_end_as_splitlines(end):
    region = TriangleRegion(5)
    c = Coloring(region, [(p.a - p.b) % 3 for p in points(region)], 3)
    text = write_certificate(c)
    assert read_both(text.replace("\n", end)) == read_both(text)
    # blank and comment lines before the header, ended the same way
    assert read_both(f"{end}# note{end} {end}" + text.replace("\n", end, 3)) == read_both(text)


def test_stripe_certificate_outside_domain():
    text = write_certificate(Coloring(PeriodicStripe(3, 2), [0, 1, 1, 2, 2, 0], 3))
    with pytest.raises(CertificateError, match="outside fundamental domain: '2 0 1'"):
        read_certificate(text.replace("1 0 1", "2 0 1"))


def test_assignment_view():
    region = TriangleRegion(3)
    c = Coloring(region, range(6), 6)
    assert len(c.assignment) == 6
    assert list(c.assignment) == loop_points(region)
    assert c.assignment[(2, 0)] == 2 and c.assignment[LatticePoint(0, 2)] == 5
    assert c.assignment is c.assignment
    with pytest.raises(ValueError):
        c.colors[0] = 1  # the array is read-only, so the view cannot go stale


def test_assignment_view_is_not_a_reference_cycle():
    # without a cycle, dropping the last reference frees the coloring at once
    c = Coloring(TriangleRegion(50), np.arange(1275) % 7, 7)
    assert len(c.assignment) == 1275 and c.assignment[(0, 0)] == 0
    ref = weakref.ref(c)
    gc.disable()
    try:
        del c
        assert ref() is None
    finally:
        gc.enable()


def test_partial_coloring_rejected():
    region = TriangleRegion(2)
    with pytest.raises(CertificateError, match="partial"):
        Coloring(region, [0], 1)


# -- the text writer ----------------------------------------------------------

# every template the program writes: certificates, DIMACS clause blocks of
# widths 1..8, `trilat enumerate` as TSV, and as JSON with its separator
TEMPLATES = [("%d %d %d\n", ""), *(("%d " * w + "0\n", "") for w in range(1, 9)),
             ("%d %d\t%d %d\t%d %d\n", ""), ("[[%d, %d], [%d, %d], [%d, %d]]", ", ")]
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
# zero, one, the boundaries of every digit-group count, a zero group below a
# non-zero one, the certificate clamp and the ends of int64, with both signs
EDGES = sorted({s * v for s in (1, -1) for v in (
    0, 1, 10_001, 1 << 61, INT64_MAX,
    *(10 ** (4 * g) + d for g in range(1, 5) for d in (-1, 0, 1)))} | {INT64_MIN})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_writer_matches_percent_format(data):
    line, sep = data.draw(st.sampled_from(TEMPLATES))
    width = line.count("%d")
    value = st.one_of(st.sampled_from(EDGES), st.integers(INT64_MIN, INT64_MAX),
                      st.integers(-10 ** 5, 10 ** 5))
    rows = np.array(data.draw(st.lists(st.lists(value, min_size=width, max_size=width), max_size=12)),
                    dtype=np.int64).reshape(-1, width)
    assert coloring.format_rows(line, rows, sep) == format_rows_by_percent(line, rows, sep)


def test_writer_edge_values():
    rows = np.array(EDGES, dtype=np.int64).reshape(-1, 1)
    for line, sep in [("%d\n", ""), ("[%d]", ", ")]:
        assert coloring.format_rows(line, rows, sep) == format_rows_by_percent(line, rows, sep)
    assert coloring.format_rows("%d", np.array([[INT64_MIN]])) == "-9223372036854775808"


@pytest.mark.parametrize("size", [0, 1, 32_767, 32_768, 32_769])
def test_writer_chunks(size):
    rng = np.random.default_rng(size)
    for line, sep in TEMPLATES[-2:]:
        rows = rng.integers(-10 ** 6, 10 ** 6, size=(size, 6))
        rows[::7] = rng.integers(INT64_MIN, INT64_MAX, size=rows[::7].shape, endpoint=True)
        chunks = list(coloring.format_chunks(line, rows, sep))
        assert len(chunks) == -(-size // 32_768)
        # the chunks joined by the separator are one join of all the rows
        assert sep.join(chunks) == coloring.format_rows(line, rows, sep) \
            == format_rows_by_percent(line, rows, sep)


@pytest.mark.parametrize("line,sep", [("%s %d\n", ""), ("%d %5d\n", ""), ("%i\n", ""),
                                      ("%d %%\n", ""), ("100%% %d\n", ""), ("no fields\n", ""),
                                      ("%d\x00\n", ""), ("%d\n", "\x00")])
def test_writer_rejects_other_templates(line, sep):
    with pytest.raises(ValueError):
        coloring.format_rows(line, np.zeros((2, line.count("%d")), dtype=np.int64), sep)


def test_writer_rejects_rows_of_another_width():
    with pytest.raises(ValueError):
        coloring.format_rows("%d %d\n", np.zeros((2, 3), dtype=np.int64))
