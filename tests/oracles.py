"""Brute-force oracles that the library is tested against.

Each is the simplest correct method for what it computes; no trilat command
runs any of them, so they live with the tests.

- Pair walk: every pair of distinct points has exactly two apex completions
  (the rotations of one endpoint about the other by +-60 degrees).  Visiting
  all unordered pairs of region points and keeping the in-region apexes finds
  each triangle three times, once per pair; it is the reference for the
  direct triangle generator and the pair classification.
- Triangle scan: test every triangle of the region for one color, the
  reference for the pair-based properness checker's verdict.
- Pair order: the checker's witness by its definition, one pair and one apex
  at a time, the reference for which witness the checker reports.
- Rhombus and sub-triangle counts, and two derivations of a2(n) from them,
  the references for the closed forms.
- Text: `line % tuple(row)` per row, the reference for the byte-array writer
  behind certificates, DIMACS export and `trilat enumerate`.

It also holds the Fano plane, the known defect-zero triple system the triple
checks are run on, and the stripe partition coloring (g(k) <= 2 f(k)), which
no trilat command builds.
"""

import numpy as np

from trilat.coloring import Coloring, is_proper, stripe_span_bound
from trilat.constructions import ConstructionError
from trilat.counting import a2_closed, h_closed, m_closed
from trilat.lattice import LatticePoint, PeriodicStripe, StripeWindow, TriangleRegion
from trilat.triangles import EquilateralTriangle, enumerate_triangles
from trilat.triples import TripleSystem


def rotate60(p, direction):
    """Rotate a lattice vector by 60 degrees; direction +1 counterclockwise, -1 clockwise."""
    a, b = p
    if direction == 1:
        return LatticePoint(-b, a + b)
    if direction == -1:
        return LatticePoint(a + b, -a)
    raise ValueError("direction must be +1 or -1")


def apex_candidates(p1, p2):
    """The two points completing {p1, p2} to an equilateral triangle."""
    if p1 == p2:
        raise ValueError("degenerate pair")
    d = LatticePoint(p2[0] - p1[0], p2[1] - p1[1])
    return (p1 + rotate60(d, +1), p1 + rotate60(d, -1))


def pair_walk_triangles(region):
    """All equilateral triangles of a finite region, deduplicated and sorted."""
    pts = list(region.points())
    found = set()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            for apex in apex_candidates(p, q):
                if region.contains(apex):
                    found.add(EquilateralTriangle.of(p, q, apex))
    return sorted(found)


def pair_walk_tallies(region):
    """(a0, a1, a2): point pairs by their number of in-region apex completions."""
    pts = list(region.points())
    tally = [0, 0, 0]
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            tally[sum(1 for apex in apex_candidates(p, q) if region.contains(apex))] += 1
    return tuple(tally)


def reduce(region, p):
    """The fundamental-domain point of a periodic stripe that p is identified with."""
    return LatticePoint(p[0] % region.period, p[1])


def is_proper_scan(c):
    """Enumerate every triangle and test it. Finite regions, and periodic
    stripes via an explicit window scan."""
    region = c.region
    if isinstance(region, PeriodicStripe):
        span = stripe_span_bound(region.k)
        window = StripeWindow(region.k, 0, region.period - 1 + span)
        tris = enumerate_triangles(window)

        def color_of(p):
            return c.assignment[reduce(region, p)]
    else:
        tris = enumerate_triangles(region)
        color_of = c.assignment.__getitem__
    for t in tris:
        c1 = color_of(t.p1)
        if c1 == color_of(t.p2) == color_of(t.p3):
            return (False, t)
    return (True, None)


def is_proper_pairs(c):
    """(verdict, witness) by the checker's definition: color classes in order of
    first appearance among the scanned points (the region, or a periodic
    stripe's window), then the pairs p, q of a class in rank order, row-major;
    the first pair whose apex p + rot(q - p) is a region point of the same
    color gives the witness."""
    region = c.region
    if isinstance(region, PeriodicStripe):
        pts = StripeWindow(region.k, 0, region.period - 1 + stripe_span_bound(region.k)).points()

        def color_of(p):
            return c.assignment[reduce(region, p)]
    else:
        pts = region.points()
        color_of = c.assignment.__getitem__
    classes = {}  # in order of first appearance
    for p in pts:
        classes.setdefault(color_of(p), []).append(p)
    for color, members in classes.items():
        for i, p in enumerate(members):
            for q in members[i + 1:]:
                apex = p + rotate60(q - p, +1)
                if region.contains(apex) and color_of(apex) == color:
                    return (False, EquilateralTriangle.of(p, q, apex))
    return (True, None)


def h_brute(k, n):
    """Upright translated copies of T_k inside T_n, by trying every corner."""
    if k > n:
        return 0
    count = 0
    outer = TriangleRegion(n)
    for b0 in range(n):
        for a0 in range(n - b0):
            if outer.contains((a0 + k - 1, b0)) and outer.contains((a0, b0 + k - 1)):
                count += 1
    return count


def _rhombi(k):
    """All 4-point rhombus vertex sets in T_k: a class-2 pair plus its two apexes."""
    region = TriangleRegion(k)
    pts = list(region.points())
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            u, v = apex_candidates(pts[i], pts[j])
            if region.contains(u) and region.contains(v):
                out.append(frozenset((pts[i], pts[j], u, v)))
    return out


def m_brute(k):
    """Count rhombi in T_k touching all three sides (the minimal-containment criterion)."""
    if k < 3:
        raise ValueError("no rhombi fit")
    count = 0
    for rh in _rhombi(k):
        bottom = any(p.b == 0 for p in rh)
        left = any(p.a == 0 for p in rh)
        right = any(p.a + p.b == k - 1 for p in rh)
        if bottom and left and right:
            count += 1
    return count


def m_by_inclusion_exclusion(k):
    """m(k) from minimal containment as non-drawability in T_{k-1}.

    Rhombi drawable in T_k but not T_{k-1} satisfy
    m(k) = a2(k) - 3 a2(k-1) + 3 a2(k-2) - a2(k-3), by inclusion-exclusion over
    the three corner copies of T_{k-1} inside T_k.
    """
    if k < 3:
        raise ValueError("no rhombi fit")
    return a2_closed(k) - 3 * a2_closed(k - 1) + 3 * a2_closed(k - 2) - a2_closed(k - 3)


def a2_by_decomposition(n):
    """a2(n) as the sum over k of h(k, n) * m(k)."""
    return sum(h_closed(k, n) * m_closed(k) for k in range(3, n + 1))


def fano_plane():
    """The 7-point Steiner triple system: lines x + y = z in GF(2)^3 minus origin."""
    triples = []
    for x in range(1, 8):
        for y in range(x + 1, 8):
            z = x ^ y
            if z > y:
                triples.append((x, y, z))
    return TripleSystem(7, triples)


def format_rows_by_percent(line, rows, sep=""):
    """`line % tuple(row)` for each row of a 2-D int array, joined by `sep`."""
    return sep.join(line % tuple(row) for row in np.asarray(rows).tolist())


def stripe_partition_coloring(k, tri_coloring):
    """Period-k coloring of the k-row stripe from a proper coloring of T_k.

    The k-row stripe is tiled with alternating upright and inverted triangles:
    the upright copies take the coloring of T_k, the inverted ones the same
    coloring under a half-turn with a second palette, so g(k) <= 2 f(k).
    Row b of period cell j splits as [0, k-1-b] (upright copy) and
    [k-b, k-1] (inverted copy).
    """
    if not isinstance(tri_coloring.region, TriangleRegion) or tri_coloring.region.n != k:
        raise ValueError("tri_coloring must color Triangle(k)")
    ok, witness = is_proper(tri_coloring)
    if not ok:
        raise ConstructionError("input coloring improper", witness)
    f = tri_coloring.num_colors
    stripe = PeriodicStripe(k, k)
    a, b = stripe.point_arrays()
    upright = a <= k - 1 - b
    # half-turn (a, b) -> (k-1-a, k-1-b) takes the inverted part into Triangle(k-1)
    src_a = np.where(upright, a, k - 1 - a)
    src_b = np.where(upright, b, k - 1 - b)
    colors = tri_coloring.colors[tri_coloring.region.rank(src_a, src_b)] + np.where(upright, 0, f)
    coloring = Coloring(stripe, colors, 2 * f)
    ok, witness = is_proper(coloring)
    if not ok:
        raise ConstructionError("stripe partition coloring improper", witness)
    return coloring
