"""Finite unions of half-open intervals [lo, hi) on the real line.

A union is a tuple of ``(lo, hi)`` pairs.  Its normal form is sorted,
with every pair nonempty and no two pairs overlapping or touching, so
two unions are equal as sets exactly when their normal forms are equal.
Every function but ``normalize`` takes unions in normal form; all
return one.

The functions compare endpoints and return them unchanged.  The
real-line ring (:mod:`daniell.rings`) passes ``Fraction`` endpoints,
path space (:mod:`daniell.wiener`) floats with ``±inf`` for rays.  Sorts
order endpoints by ``_key``, which puts a float in front of each one, so
that most comparisons are between floats and the order stays exact.
"""

from __future__ import annotations

import math


def _key(v) -> tuple:
    """(float(v), v): orders endpoints exactly as v itself does.

    Rounding to the nearest float never reverses order, so two keys whose
    floats differ compare as their endpoints do, and equal floats fall
    through to comparing the endpoints.  Past the float range the float is
    ±inf, and the endpoint still decides between two such keys."""
    try:
        return (float(v), v)
    except OverflowError:
        return (math.inf if v > 0 else -math.inf, v)


def normalize(pairs) -> tuple:
    """Sort, drop empty pairs, and merge overlapping or touching ones."""
    merged = []
    for lo, hi in sorted((_key(lo), _key(hi)) for lo, hi in pairs):
        if not lo < hi:
            continue
        if merged and lo <= merged[-1][1]:
            if merged[-1][1] < hi:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo[1], hi[1]) for lo, hi in merged)


def union(a, b) -> tuple:
    return normalize(a + b)


def intersect(a, b) -> tuple:
    """One sweep over both unions; the pieces come out in normal form."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (alo, ahi), (blo, bhi) = a[i], b[j]
        lo = blo if alo < blo else alo
        if ahi < bhi:
            hi = ahi
            i += 1
        else:
            hi = bhi
            j += 1
        if lo < hi:
            out.append((lo, hi))
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
