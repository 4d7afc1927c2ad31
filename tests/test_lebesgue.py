"""Lebesgue instantiation: ramp functions recover interval length.

The ramp integral has the closed form (b − a)(1 − 1/(2n)).  That closed
form, the recovered length and the piecewise-linear lattice operations
on fuzzed inputs are records of ``daniell.verify.lebesgue_suite``.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from daniell.extreal import ExtReal
from daniell.lattice import LatticeOp
from daniell.lebesgue import (
    PiecewiseLinear,
    interval_length_via_daniell,
    pl_lattice_op,
    ramp_probe_points,
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
    # supported inside [a, b], peak value 1, increasing in n pointwise
    assert f.eval(a) == ExtReal(0)
    assert f.eval(b) == ExtReal(0)
    assert max(f.ys) == 1
    g = ramp_sequence(a, b, n + 1)
    for t in ramp_probe_points(a, b):
        assert f.eval(t) <= g.eval(t)
        assert ExtReal(0) <= f.eval(t) <= ExtReal(1)


def test_ramp_n1_is_triangle():
    f = ramp_sequence(0, 1, 1)
    assert f.eval(Fraction(1, 2)) == ExtReal(1)
    assert riemann_integral(f) == Fraction(1, 2)


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


def test_pl_requires_zero_boundary():
    with pytest.raises(ValueError):
        PiecewiseLinear.of([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
