"""Set rings and pre-measures.

The oracle throughout is pointwise membership: a boolean combination of
ring sets is correct iff its `contains` agrees with the boolean
combination of the operands' `contains` at every probe point.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from daniell import intervals
from daniell.extreal import POS_INF, ExtReal
from daniell.lattice import _line_classes
from daniell.rings import (
    BooleanOp,
    OverlapError,
    PreMeasure,
    RingSet,
    Universe,
    boolean_combine,
    check_additivity,
    difference,
    intersect,
    length_premeasure,
    union,
    weighted_counting_premeasure,
)

LINE = Universe.real_line()


def probe_points(*sets):
    """Endpoints, midpoints, and outside points for a family of interval sets."""
    ends = sorted({e for s in sets for lo, hi in s.intervals for e in (lo, hi)})
    if not ends:
        return [Fraction(0)]
    pts = [ends[0] - 1, ends[-1] + 1]
    pts.extend(ends)
    pts.extend((a + b) / 2 for a, b in zip(ends, ends[1:]))
    return pts


def iv(*pairs):
    return RingSet.from_intervals([(Fraction(a), Fraction(b)) for a, b in pairs])


interval_sets = st.lists(
    st.tuples(
        st.fractions(min_value=-8, max_value=8, max_denominator=8),
        st.fractions(min_value=0, max_value=4, max_denominator=8),
    ),
    min_size=0,
    max_size=4,
).map(lambda ps: RingSet.from_intervals([(a, a + w) for a, w in ps if w > 0]))


# -- boolean structure ---------------------------------------------------


@given(interval_sets, interval_sets)
@settings(max_examples=200)
def test_boolean_ops_match_membership_oracle(a, b):
    u, i, d = union(a, b), intersect(a, b), difference(a, b)
    for t in probe_points(a, b, u, i, d):
        ma, mb = a.contains(t), b.contains(t)
        assert u.contains(t) == (ma or mb)
        assert i.contains(t) == (ma and mb)
        assert d.contains(t) == (ma and not mb)


@given(interval_sets)
def test_canonical_form_is_sorted_and_disjoint(a):
    ivs = a.intervals
    assert all(lo < hi for lo, hi in ivs)
    # gaps between consecutive intervals, so union of own parts is itself
    assert all(prev_hi < lo for (_, prev_hi), (lo, _) in zip(ivs, ivs[1:]))


@given(interval_sets, interval_sets)
def test_difference_union_recovers_superset(a, b):
    # (a \ b) ∪ (a ∩ b) == a, exactly in canonical form
    assert union(difference(a, b), intersect(a, b)) == a


# -- exact sort keys -------------------------------------------------------
#
# normalize and the lattice's endpoint sweep sort ends by a key that puts a
# float in front of each; the reference sorts the Fractions themselves.


def ref_normalize(pairs):
    merged = []
    for lo, hi in sorted((lo, hi) for lo, hi in pairs if lo < hi):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def ref_line_classes(sets):
    """(mask, cells) in order of first appearance, by a sweep over the raw ends."""
    ends = sorted(((p, k) for k, s in enumerate(sets) for pair in s.intervals for p in pair),
                  key=lambda e: e[0])
    classes, mask, lo = {}, 0, None
    for i, (p, k) in enumerate(ends):
        if i == 0 or p != ends[i - 1][0]:
            if mask:
                classes.setdefault(mask, []).append((lo, p))
            lo = p
        mask ^= 1 << k
    return [(m, tuple(cells)) for m, cells in classes.items()]


def ref_intersect(a, b):
    return ref_normalize((max(p, r), min(q, t)) for p, q in a for r, t in b)


TINY = Fraction(1, 10**30)
HUGE = Fraction(10**400)
# ends whose floats tie (1/3 and its neighbours), or that no float holds
HARD_ENDS = [Fraction(1, 3), Fraction(1, 3) + TINY, Fraction(1, 3) - TINY, HUGE, -HUGE,
             HUGE + Fraction(1, 3), -HUGE - 1, Fraction(0), Fraction(-1, 2), Fraction(2, 7)]
# each draw is a new Fraction, so equal ends are distinct objects
ends = st.one_of(st.sampled_from(HARD_ENDS).map(Fraction),
                 st.fractions(min_value=-4, max_value=4, max_denominator=6))
pair_lists = st.lists(st.tuples(ends, ends), max_size=8)


def first_primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


# 200 ends of pairwise-coprime denominators, crowded into [3, 3.5]
COPRIME = [(Fraction(3 * p + j, p), Fraction(3 * p + j + 1, p))
           for j, p in enumerate(first_primes(200))]


@given(st.lists(pair_lists, min_size=1, max_size=5))
@example([COPRIME[0::4], COPRIME[1::4], COPRIME[2::4], COPRIME[3::4]])
def test_sort_keys_order_ends_exactly(families):
    for pairs in families:
        assert repr(intervals.normalize(pairs)) == repr(ref_normalize(pairs))
    sets = [RingSet(LINE, intervals=ref_normalize(pairs)) for pairs in families]
    got = [(m, s.intervals) for m, s in _line_classes(LINE, sets)]
    assert repr(got) == repr(ref_line_classes(sets))
    for a, b in zip(sets, sets[1:]):
        assert intervals.intersect(a.intervals, b.intervals) == ref_intersect(a.intervals,
                                                                              b.intervals)


def test_float_ends_sort_through_the_same_key():
    # path space passes float ends, with +-inf for rays
    pairs = [(1.0, math.inf), (-math.inf, 0.5), (0.5, 1.0), (2.0, 2.0)]
    assert intervals.normalize(pairs) == ((-math.inf, math.inf),)
    assert intervals.normalize(pairs[1:]) == ((-math.inf, 1.0),)
    assert intervals.intersect(((-math.inf, 0.5),), ((0.0, math.inf),)) == ((0.0, 0.5),)


def test_half_open_convention():
    s = iv((0, 1))
    assert s.contains(Fraction(0))
    assert not s.contains(Fraction(1))
    assert difference(iv((0, 2)), iv((1, 2))) == iv((0, 1))


def test_boolean_combine_dispatch():
    a, b = iv((0, 2)), iv((1, 3))
    assert boolean_combine(BooleanOp.UNION, a, b) == iv((0, 3))
    assert boolean_combine(BooleanOp.INTERSECT, a, b) == iv((1, 2))
    assert boolean_combine(BooleanOp.DIFFERENCE, a, b) == iv((0, 1))


def test_one_interval_constructor_matches_the_general_one():
    ends = [(0, 1), (Fraction(1, 3), Fraction(5, 2)), ("1/4", "3/4"), (-2, "7/3"),
            (2, 2), (Fraction(3, 2), "3/2"), (3, 1), ("5/2", Fraction(1, 2))]
    for a, b in ends:
        s = RingSet.interval(a, b)
        assert s == RingSet.from_intervals([(a, b)])
        assert s.is_empty == (Fraction(a) >= Fraction(b))
        assert all(type(e) is Fraction for pair in s.intervals for e in pair)
    assert Universe.real_line() is Universe.real_line()


def test_json_roundtrip():
    s = iv((0, 1), (2, Fraction(5, 2)))
    assert RingSet.from_json(s.to_json()) == s
    u = Universe.finite(("x", "y"))
    f = RingSet.finite(u, ("y",))
    assert RingSet.from_json(f.to_json()) == f


# -- pre-measures --------------------------------------------------------


def test_length_premeasure_values():
    mu = length_premeasure()
    assert mu(iv((0, 1))) == ExtReal(1)
    assert mu(iv((0, Fraction(1, 3)), (2, 3))) == ExtReal(Fraction(4, 3))
    assert mu(RingSet.empty(LINE)) == ExtReal(0)


def test_counting_premeasure_values():
    u = Universe.finite(("a", "b", "c"))
    mu = weighted_counting_premeasure(u, {"a": Fraction(2), "b": Fraction(1, 2)})
    assert mu(RingSet.finite(u, ("a", "b"))) == ExtReal(
        Fraction(5, 2)
    )
    assert mu(RingSet.finite(u, ("c",))) == ExtReal(0)


@given(interval_sets)
@settings(max_examples=100)
def test_length_additivity_on_own_components(a):
    mu = length_premeasure()
    parts = [RingSet.from_intervals([p]) for p in a.intervals]
    if parts:
        rep = check_additivity(mu, parts)
        assert rep["pass"]
        assert ExtReal.from_json(rep["lhs"]) == mu(a)


def test_infinite_measure_reported_as_infinity():
    from daniell.rings import PreMeasure

    u = Universe.finite(("a", "b"))
    mu = PreMeasure(
        u, lambda e: POS_INF if "a" in e.points else Fraction(0), name="heavy"
    )
    assert mu(RingSet.finite(u, ("a",))) == POS_INF
    assert mu(RingSet.finite(u, ("b",))) == ExtReal(0)


def test_path_space_overlap_names_a_cylinder():
    # a path-space set has no point to name: the overlap of {W_1 >= 0} and
    # {-1 <= W_1 < 1} is reported by its cylinder, not as "overlap at None"
    from daniell import wiener

    a = RingSet.path_space([wiener.Cylinder.of([1], [[(0, math.inf)]])])
    b = RingSet.path_space([wiener.Cylinder.of([1], [[(-1, 1)]])])
    mu = PreMeasure(Universe.path_space(), lambda e: Fraction(0), name="zero")
    with pytest.raises(OverlapError) as caught:
        check_additivity(mu, [a, b])
    assert caught.value.witness == wiener.Cylinder.of([1], [[(0, 1)]])
