"""Finite unions of half-open intervals [lo, hi) on the real line.

A union is a tuple of ``(lo, hi)`` pairs.  Its normal form is sorted,
with every pair nonempty and no two pairs overlapping or touching, so
two unions are equal as sets exactly when their normal forms are equal.
Every function but ``normalize`` takes unions in normal form; all
return one.

The functions only compare endpoints; they never convert them.  The
real-line ring (:mod:`daniell.rings`) passes ``Fraction`` endpoints,
path space (:mod:`daniell.wiener`) floats with ``±inf`` for rays.
"""

from __future__ import annotations


def normalize(pairs) -> tuple:
    """Sort, drop empty pairs, and merge overlapping or touching ones."""
    merged = []
    for lo, hi in sorted((lo, hi) for lo, hi in pairs if lo < hi):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def union(a, b) -> tuple:
    return normalize(a + b)


def intersect(a, b) -> tuple:
    """One sweep over both unions; the pieces come out in normal form."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def complement(a, lo, hi) -> tuple:
    """[lo, hi) minus a."""
    out = []
    cur = lo
    for p, q in a:
        end = min(p, hi)
        if cur < end:
            out.append((cur, end))
        cur = max(cur, q)
    if cur < hi:
        out.append((cur, hi))
    return tuple(out)


def difference(a, b) -> tuple:
    if not a:
        return ()
    return intersect(a, complement(b, a[0][0], a[-1][1]))


def contains(a, x) -> bool:
    return any(lo <= x < hi for lo, hi in a)
