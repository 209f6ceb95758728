"""Pair-walk reference for triangle enumeration and pair classification.

Every pair of distinct points has exactly two apex completions (the rotations
of one endpoint about the other by +-60 degrees).  The walk visits all
unordered pairs of region points, keeps the in-region apexes and deduplicates,
since each triangle is seen once per pair, i.e. three times.  It is the
simplest correct method and serves as the oracle for the direct generator.
"""

from trilat.triangles import EquilateralTriangle, apex_candidates


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
