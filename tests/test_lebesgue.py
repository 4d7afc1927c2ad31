"""Lebesgue instantiation: ramp functions recover interval length.

The ramp integral has the closed form (b − a)(1 − 1/(2n)).  That closed
form, the recovered length and the piecewise-linear lattice operations
on fuzzed inputs are records of ``daniell.verify.lebesgue_suite``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from daniell.extension import Direction, MonotoneSequence, i1_limit
from daniell.extreal import ExtReal
from daniell.functional import NonMonotoneSequence
from daniell.lattice import LatticeOp
from daniell.lebesgue import (
    PiecewiseLinear,
    interval_length_via_daniell,
    pl_lattice_op,
    ramp_sequence,
    riemann_integral,
)

rational_a = st.fractions(min_value=-10, max_value=10, max_denominator=12)
rational_w = st.fractions(
    min_value=Fraction(1, 12), max_value=10, max_denominator=12
)


# -- ramp sequence ------------------------------------------------------------


@given(rational_a, rational_w, st.integers(min_value=1, max_value=8))
def test_ramp_shape(a, w, n):
    b = a + w
    f = ramp_sequence(a, b, n)
    # supported inside [a, b], values in [0, 1] with peak 1, increasing in n
    assert f.eval(a) == ExtReal(0)
    assert f.eval(b) == ExtReal(0)
    assert max(f.ys) == 1 and min(f.ys) == 0
    g = ramp_sequence(a, b, n + 1)
    assert f.first_excess(g) is None
    # the steeper ramp first rises above the other at its own corner
    assert g.first_excess(f) == a + (b - a) / (2 * n + 2)


def test_ramp_n1_is_triangle():
    f = ramp_sequence(0, 1, 1)
    assert f.eval(Fraction(1, 2)) == ExtReal(1)
    assert riemann_integral(f) == Fraction(1, 2)


# -- the exact order ------------------------------------------------------------


def random_pl(rng, zero_ok=True):
    if zero_ok and rng.random() < 0.1:
        return PiecewiseLinear.zero()
    xs = sorted(rng.sample(range(-12, 13), rng.randint(2, 7)))
    ys = [0] + [Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in xs[2:]] + [0]
    return PiecewiseLinear.of([Fraction(x, 2) for x in xs], ys)


def test_first_excess_matches_a_dense_probe_grid():
    # reference: evaluate both functions (by bisection) at every breakpoint,
    # midpoint and quarter point of the merged breakpoints and beyond them
    rng = random.Random(18)
    pairs = [(random_pl(rng), random_pl(rng)) for _ in range(300)]
    # shared breakpoints, and a pair equal everywhere
    f = random_pl(rng, zero_ok=False)
    pairs += [(f, f), (f, pl_lattice_op(LatticeOp.SCALE, f, c=2)),
              (pl_lattice_op(LatticeOp.SCALE, f, c=2), f)]
    for f, g in pairs:
        ends = sorted(set(f.xs) | set(g.xs))
        if not ends:
            assert f.first_excess(g) is None
            continue
        grid = [ends[0] - 1, ends[-1] + 1, *ends]
        grid += [(3 * a + b) / 4 for a, b in zip(ends, ends[1:])]
        grid += [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        above = [t for t in grid if f.eval(t) > g.eval(t)]
        witness = f.first_excess(g)
        if not above:
            assert witness is None
        else:
            assert witness == min(t for t in ends if f.eval(t) > g.eval(t))


def notched_ramps(n):
    """ramp_sequence(0, 1, n), with a notch down to 0 of half-width 1/1000
    at 1/32 + 1/1000 on the plateau for even n >= 20."""
    f = ramp_sequence(0, 1, n)
    if n % 2 or n < 20:
        return f
    c, h = Fraction(1, 32) + Fraction(1, 1000), Fraction(1, 1000)
    xs = (*f.xs[:2], c - h, c, c + h, *f.xs[2:])
    return PiecewiseLinear.of(xs, (0, 1, 1, 0, 1, 1, 0))


def test_notch_between_sample_points_is_caught():
    # the notch lies between 0 and 1/16, the first two of 17 evenly spaced
    # sample points; comparing there let i1_limit return [0.994, 0.999]
    seq = MonotoneSequence(notched_ramps, Direction.INCREASING)
    with pytest.raises(NonMonotoneSequence) as caught:
        i1_limit(riemann_integral, seq, depth=100,
                 tail_bound=lambda n: Fraction(1, 2 * n))
    assert caught.value.index == 20
    assert caught.value.witness == Fraction(1, 32) + Fraction(1, 1000)  # the notch bottom


# -- the (=b−a) recovery --------------------------------------------------------


def test_interval_length_bracket_from_tail_bound():
    # bound on the defect of the n-th ramp is exactly (b−a)/(2n)
    res = interval_length_via_daniell(0, 1, n_max=8)
    assert res.value.value == 1 - Fraction(1, 16)
    assert res.upper.value - res.value.value == Fraction(1, 16)


def test_large_interval_keeps_its_certified_bracket():
    # the tail bound certifies [1.99e9, 2e9]; a size heuristic must not
    # turn that bracket into +inf
    res = interval_length_via_daniell(0, 2 * 10**9)
    assert res.value == res.lower == ExtReal(199 * 10**7)
    assert res.upper == ExtReal(2 * 10**9)
    assert not res.converged  # the last two ramps still differ by about 10^5


# -- piecewise-linear lattice ops ------------------------------------------------


def pl(xs, ys):
    return PiecewiseLinear.of([Fraction(x) for x in xs], [Fraction(y) for y in ys])


def probe_grid(*fs):
    ends = sorted({x for f in fs for x in f.xs})
    pts = [ends[0] - 1, ends[-1] + 1] + ends
    pts += [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    # quarter points catch crossings the midpoints miss
    pts += [(3 * a + b) / 4 for a, b in zip(ends, ends[1:])]
    return pts


def test_pl_abs_and_scale():
    f = pl([0, 1, 2], [0, 2, 0])
    g = pl_lattice_op(LatticeOp.SCALE, pl([0, 1, 2], [0, 3, 0]), c=Fraction(-1))
    d = pl_lattice_op(LatticeOp.PLUS, f, g)  # f − 3·tent, negative near the peak
    a = pl_lattice_op(LatticeOp.ABS, d)
    for t in probe_grid(f, d, a):
        assert a.eval(t) == max(d.eval(t), -d.eval(t))


def test_meet_introduces_crossing_breakpoints():
    # tents with different peaks cross strictly between breakpoints
    f = pl([0, 2, 4], [0, 2, 0])
    g = pl([0, 1, 4], [0, 3, 0])
    h = pl_lattice_op(LatticeOp.MEET, f, g)
    for t in probe_grid(f, g, h):
        assert h.eval(t) == min(f.eval(t), g.eval(t))


def reference_pl_op(op, f, g):
    """Sum, meet, join or |f| on the sorted union of the breakpoints and (for
    all but the sum) the crossings of f - g, each point evaluated by
    bisection, then trimmed of zero stretches at either end."""
    if op is LatticeOp.ABS:
        g = PiecewiseLinear.zero()
    pts = sorted(set(f.xs) | set(g.xs))
    if op is not LatticeOp.PLUS:
        diff = [f.eval(t).value - g.eval(t).value for t in pts]
        pts = sorted(set(pts) | {x0 + (x1 - x0) * d0 / (d0 - d1)
                                 for x0, x1, d0, d1 in zip(pts, pts[1:], diff, diff[1:])
                                 if d0 * d1 < 0})
    fn = {LatticeOp.PLUS: lambda a, b: a + b, LatticeOp.MEET: min,
          LatticeOp.JOIN: max, LatticeOp.ABS: lambda a, _: abs(a)}[op]
    ys = [fn(f.eval(t).value, g.eval(t).value) for t in pts]
    while len(pts) > 1 and ys[0] == ys[1] == 0:
        pts, ys = pts[1:], ys[1:]
    while len(pts) > 1 and ys[-1] == ys[-2] == 0:
        pts, ys = pts[:-1], ys[:-1]
    if len(pts) <= 1 or not any(ys):
        return PiecewiseLinear.zero()
    return PiecewiseLinear.of(pts, ys)


def test_pl_ops_keep_exactly_the_reference_breakpoints():
    # pointwise checks cannot see a missing or extra breakpoint, so the
    # result's (xs, ys) must be the reference's exactly, down to types
    rng = random.Random(19)
    pairs = [(random_pl(rng), random_pl(rng)) for _ in range(300)]
    f = random_pl(rng, zero_ok=False)
    pairs += [(f, f), (f, pl_lattice_op(LatticeOp.SCALE, f, c=-1))]
    pairs += [(ramp_sequence(0, 1, n), ramp_sequence(Fraction(1, 3), 2, n + 1))
              for n in (1, 2, 5)]
    pairs += [(ramp_sequence(-1, 1, 1), pl([-1, 0, 1], [0, 1, 0]))]  # equal, built two ways
    for f, g in pairs:
        for op in (LatticeOp.PLUS, LatticeOp.MEET, LatticeOp.JOIN, LatticeOp.ABS):
            got, want = pl_lattice_op(op, f, g), reference_pl_op(op, f, g)
            assert repr((got.xs, got.ys)) == repr((want.xs, want.ys)), (op, f, g)


def test_pl_requires_zero_boundary():
    with pytest.raises(ValueError):
        PiecewiseLinear.of([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
