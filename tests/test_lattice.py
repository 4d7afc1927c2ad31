"""Simple functions as a vector lattice.

Oracle: pointwise evaluation.  Every lattice identity is checked by
sampling probe points (interval endpoints and midpoints), where simple
functions are piecewise constant, so probing every constancy region is
an exact check, not an approximation.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from daniell import wiener
from daniell.extreal import ExtReal, ZERO
from daniell.fuzz import random_simple_function
from daniell.lattice import (
    LatticeOp,
    SimpleFunction,
    _refine,
    _set_sort_key,
    absolute,
    canonicalize,
    join,
    lattice_op,
    level_set,
    meet,
    neg_part,
    pos_part,
)
from daniell.rings import BooleanOp, RingSet, Universe, boolean_combine

LINE = Universe.real_line()


def iv(a, b):
    return RingSet.interval(Fraction(a), Fraction(b))


def probes(*fns):
    ends = sorted(
        {
            e
            for f in fns
            for _, s in f.terms
            for lo, hi in s.intervals
            for e in (lo, hi)
        }
    )
    if not ends:
        return [Fraction(0)]
    pts = [ends[0] - 1, ends[-1] + 1] + ends
    pts += [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return pts


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
terms = st.lists(
    st.tuples(
        coeffs,
        st.tuples(
            st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4)
        ).map(lambda ab: iv(ab[0], ab[0] + ab[1])),
    ),
    min_size=0,
    max_size=4,
)
simple_fns = terms.map(lambda ts: SimpleFunction.of(LINE, ts))


# -- canonical form --------------------------------------------------------


@given(simple_fns)
@settings(max_examples=150)
def test_canonicalize_preserves_values(x):
    xc = canonicalize(x)
    for t in probes(x, xc):
        assert xc.eval(t) == x.eval(t)


@given(simple_fns)
def test_canonical_terms_are_disjoint_nonzero(x):
    xc = canonicalize(x)
    for t in probes(xc):
        hits = [c for c, s in xc.terms if s.contains(t)]
        assert len(hits) <= 1
    assert all(c != 0 for c, _ in xc.terms)


def test_canonicalize_exhaustive_finite():
    import itertools

    u = Universe.finite(("p", "q", "r"))
    subsets = [
        RingSet.finite(u, labs)
        for k in range(1, 4)
        for labs in itertools.combinations("pqr", k)
    ]
    for s1, s2 in itertools.product(subsets, repeat=2):
        x = SimpleFunction.of(u, [(Fraction(2), s1), (Fraction(-1), s2)])
        xc = canonicalize(x)
        for lab in "pqr":
            assert xc.eval(lab) == x.eval(lab)


# -- vector space ops -------------------------------------------------------


@given(simple_fns, simple_fns)
@settings(max_examples=150)
def test_add_sub_pointwise(x, y):
    s, d = x + y, x - y
    for t in probes(x, y):
        assert s.eval(t) == x.eval(t) + y.eval(t)
        assert d.eval(t) == x.eval(t) - y.eval(t)


@given(simple_fns, coeffs)
def test_scale_pointwise(x, c):
    y = x.scale(c)
    for t in probes(x):
        assert y.eval(t) == ExtReal(c) * x.eval(t)


# -- lattice ops ------------------------------------------------------------


@given(simple_fns)
def test_abs_and_parts(x):
    a, p, n = absolute(x), pos_part(x), neg_part(x)
    for t in probes(x):
        v = x.eval(t)
        assert a.eval(t) == max(v, -v)
        assert p.eval(t) == max(v, ZERO)
        assert n.eval(t) == max(-v, ZERO)
        assert (p - n).eval(t) == v
        assert (p + n).eval(t) == a.eval(t)


def test_lattice_op_dispatch():
    x = SimpleFunction.indicator(iv(0, 2), Fraction(3))
    y = SimpleFunction.indicator(iv(1, 3), Fraction(-1))
    assert lattice_op(LatticeOp.MEET, x, y).eval(Fraction(3, 2)) == ExtReal(-1)
    assert lattice_op(LatticeOp.JOIN, x, y).eval(Fraction(3, 2)) == ExtReal(3)
    assert lattice_op(LatticeOp.PLUS, x, y).eval(Fraction(3, 2)) == ExtReal(2)
    assert lattice_op(LatticeOp.SCALE, x, c=Fraction(-2)).eval(1) == ExtReal(-6)
    assert lattice_op(LatticeOp.ABS, y).eval(2) == ExtReal(1)


# -- level sets and indicators ----------------------------------------------


def test_level_set_strict_threshold():
    x = SimpleFunction.of(
        LINE, [(Fraction(1), iv(0, 1)), (Fraction(2), iv(1, 2))]
    )
    assert level_set(x, Fraction(1)) == iv(1, 2)  # strict: {t : x(t) > 1}
    assert level_set(x, Fraction(1, 2)) == iv(0, 2)
    assert level_set(x, Fraction(2)) == RingSet.empty(LINE)


@given(simple_fns, st.fractions(min_value=0, max_value=5, max_denominator=4))
def test_level_set_matches_membership(x, thr):
    e = level_set(x, thr)
    for t in probes(x):
        assert e.contains(t) == (x.eval(t) > ExtReal(thr))


def test_json_roundtrip():
    rng = random.Random(1)
    for _ in range(20):
        x = random_simple_function(rng, LINE)
        y = SimpleFunction.from_json(x.to_json())
        for t in probes(x):
            assert y.eval(t) == x.eval(t)


# -- the sweep against pairwise refinement -----------------------------------
#
# The canonical form is defined by membership: a piece is the set of points
# in exactly the same term sets, valued at the sum of their coefficients.
# Pairwise refinement computes the same classes in every universe and is
# what path space uses; here it is the reference for the endpoint sweep on
# the real line and the label pass on finite universes.


def ref_canonical(terms):
    terms = [(c, s) for c, s in terms if not s.is_empty]
    pieces = []
    for m, s in _refine([s for _, s in terms]):
        v = sum((c for k, (c, _) in enumerate(terms) if m >> k & 1), Fraction(0))
        if v != 0:
            pieces.append((v, s))
    return tuple(sorted(pieces, key=lambda p: _set_sort_key(p[1])))


def ref_atoms(x, y):
    xt, yt = ref_canonical(x.terms), ref_canonical(y.terms)
    zero = Fraction(0)
    return [(sum((c for k, (c, _) in enumerate(xt) if m >> k & 1), zero),
             sum((c for k, (c, _) in enumerate(yt) if m >> (len(xt) + k) & 1), zero), s)
            for m, s in _refine([s for _, s in xt + yt])]


def ref_level_set(x, thr):
    out = RingSet.empty(x.universe)
    for c, s in ref_canonical(x.terms):
        if c > thr:
            out = boolean_combine(BooleanOp.UNION, out, s)
    return out


FINITE = Universe.finite("abcdef")


def random_coeff(rng):
    return Fraction(rng.choice([-3, -2, -1, 0, 1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def random_terms(rng, universe, count):
    """Terms built to hit the sweep's edge cases: endpoints on a grid of
    quarters (shared and touching ends), sets of up to three intervals,
    empty sets, repeated sets, and c next to -c on one set."""
    terms = []
    for _ in range(count):
        roll = rng.random()
        if terms and roll < 0.15:
            terms.append((random_coeff(rng), rng.choice(terms)[1]))
        elif terms and roll < 0.25:
            c, s = rng.choice(terms)
            terms.append((-c, s))
        elif roll < 0.3:
            terms.append((random_coeff(rng), RingSet.empty(universe)))
        elif universe == FINITE:
            labels = [lab for lab in universe.labels if rng.random() < 0.4]
            terms.append((random_coeff(rng), RingSet.finite(universe, labels)))
        else:
            pairs = []
            for _ in range(rng.randint(1, 3)):
                a = Fraction(rng.randint(0, 16), 4)
                pairs.append((a, a + Fraction(rng.randint(1, 6), 4)))
            terms.append((random_coeff(rng), RingSet.from_intervals(pairs)))
    return terms


def test_canonical_edge_cases():
    split = RingSet.from_intervals([(0, 1), (2, 3)])
    cases = [
        # touching sets stay separate pieces, even with equal values
        ([(1, iv(0, 1)), (1, iv(1, 2))], [(1, iv(0, 1)), (1, iv(1, 2))]),
        # one set repeated
        ([(1, iv(0, 2)), (2, iv(0, 2))], [(3, iv(0, 2))]),
        # c and -c on one set cancel, and the piece is dropped
        ([(2, iv(0, 1)), (-2, iv(0, 1))], []),
        ([(2, iv(0, 1)), (1, iv(0, 2)), (-2, iv(0, 1))], [(1, iv(0, 1)), (1, iv(1, 2))]),
        # empty term sets take no part
        ([(5, RingSet.empty(LINE)), (1, iv(0, 1))], [(1, iv(0, 1))]),
        # a zero coefficient still splits the other sets
        ([(0, iv(0, 1)), (1, iv(0, 2))], [(1, iv(0, 1)), (1, iv(1, 2))]),
        # one set of two intervals, crossed by another
        ([(1, split), (1, iv(Fraction(1, 2), Fraction(5, 2)))],
         [(1, RingSet.from_intervals([(0, Fraction(1, 2)), (Fraction(5, 2), 3)])),
          (2, RingSet.from_intervals([(Fraction(1, 2), 1), (2, Fraction(5, 2))])),
          (1, iv(1, 2))]),
    ]
    for terms, expected in cases:
        got = canonicalize(SimpleFunction.of(LINE, terms)).terms
        expected = tuple(sorted(((Fraction(c), s) for c, s in expected),
                                key=lambda p: _set_sort_key(p[1])))
        assert repr(got) == repr(expected)
        assert repr(got) == repr(ref_canonical(SimpleFunction.of(LINE, terms).terms))


def test_sweep_matches_pairwise_refinement():
    rng = random.Random(7)
    for universe in (LINE, FINITE):
        for _ in range(150):
            x = SimpleFunction.of(universe, random_terms(rng, universe, rng.randint(0, 7)))
            y = SimpleFunction.of(universe, random_terms(rng, universe, rng.randint(0, 7)))
            assert repr(canonicalize(x).terms) == repr(ref_canonical(x.terms))
            assert repr((x + y).terms) == repr(ref_canonical(x.terms + y.terms))
            atoms = ref_atoms(x, y)
            for op, fn in ((meet, min), (join, max)):
                want = ref_canonical([(fn(vx, vy), s) for vx, vy, s in atoms])
                assert repr(op(x, y).terms) == repr(want)
            zero = SimpleFunction.zero(universe)
            want = ref_canonical([(abs(vx), s) for vx, _, s in ref_atoms(x, zero)])
            assert repr(absolute(x).terms) == repr(want)
            for thr in (0, Fraction(1, 2), 1, 2):
                assert level_set(x, thr) == ref_level_set(x, thr)


def test_path_space_canonicalizes_by_refinement():
    half = Fraction(1, 2)
    a = RingSet.path_space([wiener.Cylinder.of([half, 1], [[(0, 2)], wiener.FULL_LINE])])
    b = RingSet.path_space([wiener.Cylinder.of([1], [[(1, 3)]])])
    x = SimpleFunction.of(Universe.path_space(), [(1, a), (2, b)])
    xc = canonicalize(x)
    assert sorted(c for c, _ in xc.terms) == [1, 2, 3]
    for w_half, w_one in [(1, 0), (1, 2), (-1, 2), (3, 5), (-1, 0)]:
        path = {half: w_half, Fraction(1): w_one}
        assert xc.eval(path) == x.eval(path)
        assert sum(s.contains(path) for _, s in xc.terms) <= 1
        assert level_set(x, 1).contains(path) == (x.eval(path) > ExtReal(1))


def test_path_space_order_test_names_a_cylinder():
    # chi_A <= chi_B fails on {W_1 >= 1}; were no witness named there, the
    # order test would pass it
    a = RingSet.path_space([wiener.Cylinder.of([1], [[(0, math.inf)]])])
    b = RingSet.path_space([wiener.Cylinder.of([1], [[(-1, 1)]])])
    chi_a, chi_b = SimpleFunction.indicator(a), SimpleFunction.indicator(b)
    assert chi_a.first_excess(chi_b) == wiener.Cylinder.of([1], [[(1, math.inf)]])
    assert chi_b.first_excess(chi_a) == wiener.Cylinder.of([1], [[(-1, 0)]])
    both = SimpleFunction.indicator(boolean_combine(BooleanOp.INTERSECT, a, b))
    assert both.first_excess(chi_a) is None
    assert chi_a.first_excess(chi_a) is None


def test_path_space_drops_empty_cylinders():
    # an empty cylinder kept in the set made it nonempty, named it as the
    # witness and let the order test report it as an excess over zero
    empty = wiener.Cylinder.of([1], [[]])
    e = RingSet.path_space([empty])
    assert e.is_empty and e.witness_point() is None
    zero = SimpleFunction.zero(Universe.path_space())
    assert SimpleFunction.indicator(e).first_excess(zero) is None
    assert RingSet.from_json(e.to_json()) == e
    assert RingSet.from_json({**e.to_json(), "cylinders": [empty.to_json()]}) == e
