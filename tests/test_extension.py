"""The Daniell extension: monotone limits and dyadic level-set integration.

Closed-form oracle for the central example x(t) = t on [0, 1):
E_{k,n} = [k·2⁻ⁿ, 1), so the n-th dyadic sum is

    S_n = 2⁻ⁿ Σ_{k=1}^{2ⁿ−1} (1 − k·2⁻ⁿ) = 1/2 − 2^{−n−1},

hence S₁ = 1/4, S₂ = 3/8, and |S_n − 1/2| = 2^{−n−1} < 2⁻ⁿ.
"""

import random
from fractions import Fraction

import pytest

from daniell.extension import (
    ApproximationUnreachable,
    Direction,
    MeasurableFunction,
    MonotoneSequence,
    approximate_in_t0,
    dyadic_levels,
    i1_limit,
    indicator_measurable,
    is_daniell_measurable,
    level_set_integral,
    null_test,
)
from daniell.extreal import POS_INF, ExtReal
from daniell.functional import ElementaryIntegral, NonMonotoneSequence
from daniell.lattice import SimpleFunction
from daniell.rings import (
    PreMeasure,
    RingSet,
    Universe,
    length_premeasure,
    weighted_counting_premeasure,
)

LENGTH = ElementaryIntegral(length_premeasure())


def dyadic_sum(x, i, n):
    """Oracle: S_n computed directly from the level sets."""
    total = sum((i.mu(e).value for e in dyadic_levels(x, n)), Fraction(0))
    return total / 2**n


# -- the identity-function example -------------------------------------------


def test_identity_level_sets():
    x = MeasurableFunction.identity_on(0, 1)
    levels = dyadic_levels(x, 2)
    # E_{k,2} = [k/4, 1) for k = 1, 2, 3; empty from k = 4 on
    assert levels[0] == RingSet.interval(Fraction(1, 4), 1)
    assert levels[1] == RingSet.interval(Fraction(1, 2), 1)
    assert levels[2] == RingSet.interval(Fraction(3, 4), 1)
    assert len(levels) <= 4


def test_identity_partial_sums_exact():
    x = MeasurableFunction.identity_on(0, 1)
    assert dyadic_sum(x, LENGTH, 1) == Fraction(1, 4)
    assert dyadic_sum(x, LENGTH, 2) == Fraction(3, 8)
    for n in range(1, 11):
        assert dyadic_sum(x, LENGTH, n) == Fraction(1, 2) - Fraction(1, 2 ** (n + 1))


def test_bracket_rule_width():
    # S_n ≤ ∫x ≤ S_n + 2⁻ⁿ·μ(support), since x − φ_n < 2⁻ⁿ on the support
    x = MeasurableFunction.identity_on(0, 2)
    for n in (3, 5):
        res = level_set_integral(x, LENGTH, n_max=n)
        assert res.lower.value <= Fraction(2) <= res.upper.value
        assert res.upper.value - res.lower.value <= Fraction(2, 2**n)


def test_depth_zero_integral_raises():
    # no dyadic sum at all: the bracket [0, μ(support)] = [0, 4] would be
    # reported converged although ∫₀⁴ t dt = 8 lies outside it
    x = MeasurableFunction.identity_on(0, 4)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max"):
            level_set_integral(x, LENGTH, n_max=n_max)


def test_truncated_bracket_is_not_certified():
    # 100·χ[0,1) exceeds 2^n_max = 4, so S_2 = 4 stops short of 100 and
    # no finite upper bound follows, on the from_simple and generic paths
    phi = SimpleFunction.indicator(RingSet.interval(0, 1), 100)
    big = MeasurableFunction.from_simple(SimpleFunction.indicator(RingSet.interval(0, 1), 200))
    for x in (MeasurableFunction.from_simple(phi), big.meet_with_simple(phi)):
        res = level_set_integral(x, LENGTH, n_max=2)
        assert res.value == res.lower == ExtReal(4)
        assert res.upper == POS_INF
        assert not res.converged
    res = level_set_integral(MeasurableFunction.from_simple(phi), LENGTH, n_max=7)
    assert res.converged and res.lower <= ExtReal(100) <= res.upper
    # mass-free excess is no truncation: a zero-weight atom may sit above 2^n
    u = Universe.finite(("a", "b"))
    i = ElementaryIntegral(weighted_counting_premeasure(u, {"a": 0, "b": 1}))
    x = SimpleFunction.of(u, [(100, RingSet.finite(u, ("a",))),
                              (Fraction(1, 2), RingSet.finite(u, ("b",)))])
    res = level_set_integral(MeasurableFunction.from_simple(x), i, n_max=2)
    assert res.converged and res.lower <= ExtReal(Fraction(1, 2)) <= res.upper


def test_only_depth_n_max_is_evaluated():
    base = MeasurableFunction.identity_on(0, 1)
    asked = set()

    def oracle(k, n):
        asked.add(n)
        return base.level_set(k, n)

    x = MeasurableFunction(base.evaluator, oracle, support=base.support)
    res = level_set_integral(x, LENGTH, n_max=6)
    assert asked == {6}
    assert res.lower == ExtReal(Fraction(1, 2) - Fraction(1, 2**7))


def test_infinite_measure_level_set_same_record_on_both_paths():
    # ½ on an atom of infinite mass and 3 on an atom of mass 1: E_{1,n}
    # has infinite measure from n = 2 on, so no finite sum S_n exists
    u = Universe.finite(("a", "b"))
    i = ElementaryIntegral(PreMeasure(
        u, lambda e: POS_INF if "a" in e.points else Fraction(len(e.points))))
    phi = SimpleFunction.of(u, [(Fraction(1, 2), RingSet.finite(u, ("a",))),
                                (3, RingSet.finite(u, ("b",)))])
    both = RingSet.finite(u, ("a", "b"))
    big = MeasurableFunction.from_simple(SimpleFunction.indicator(both, 8))
    expected = {"value": "+inf", "lower": ExtReal(0).to_json(), "upper": "+inf",
                "depth": 3, "converged": False}
    for x in (MeasurableFunction.from_simple(phi), big.meet_with_simple(phi)):
        assert level_set_integral(x, i, n_max=3).to_json() == expected


def test_level_sets_nest():
    x = MeasurableFunction.identity_on(0, 1)
    for n in (1, 2, 3):
        levels = dyadic_levels(x, n)
        for a, b in zip(levels, levels[1:]):
            assert b.subset_of(a)


# -- monotone limits (I1) ----------------------------------------------------


def stabilizing_sequence(values):
    """Simple functions stabilizing at `values` on a finite universe."""
    u = Universe.finite(tuple(values))
    full = SimpleFunction.of(
        u, [(Fraction(v), RingSet.finite(u, (lab,))) for lab, v in values.items()]
    )

    def gen(n):
        if n == 0:
            return SimpleFunction.zero(u)
        return full.scale(min(Fraction(n, 3), Fraction(1)))

    return u, full, gen


def test_monotone_convergence_stabilizing():
    values = {"a": Fraction(2), "b": Fraction(5, 2)}
    u, full, gen = stabilizing_sequence(values)
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    seq = MonotoneSequence(gen, Direction.INCREASING, probes=list(values))
    res = i1_limit(i.integrate, seq, depth=10)
    assert res.value == ExtReal(i.integrate(full))
    # a Cauchy test alone certifies nothing: no upper bound, not converged
    assert res.upper == POS_INF and not res.converged
    # the exact tail bound I(full) (1 - min(n/3, 1)) certifies the limit
    res = i1_limit(i.integrate, seq, depth=10,
                   tail_bound=lambda n: i.integrate(full) * (1 - min(Fraction(n, 3), 1)))
    assert res.lower == res.upper == ExtReal(Fraction(9, 2))
    assert res.converged


def test_uncertified_limit_has_no_upper_bound():
    # I(x_n) = 1 - 1/(bitlen(n) + 1) is constant for n in [2^j, 2^(j+1)),
    # so the last two values agree at depth 1000 although the limit is 1;
    # no finite stretch of the sequence bounds its limit
    u = Universe.finite(("a",))
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    seq = MonotoneSequence(lambda n: chi.scale(1 - Fraction(1, n.bit_length() + 1)),
                           Direction.INCREASING, ["a"])
    res = i1_limit(i.integrate, seq)
    assert res.lower == res.value == ExtReal(Fraction(10, 11))
    assert res.upper == POS_INF and not res.converged
    res = i1_limit(i.integrate, seq, depth=1)
    assert res.value == ExtReal(Fraction(1, 2))
    assert res.upper == POS_INF and not res.converged


def test_decreasing_to_zero_integrals_vanish():
    # the D2 axiom: x_n ↓ 0 pointwise forces I(x_n) ↓ 0
    values = {"a": Fraction(1), "b": Fraction(3)}
    u, full, gen = stabilizing_sequence(values)
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    seq = MonotoneSequence(
        lambda n: full.scale(Fraction(1, 2**n)),
        Direction.DECREASING,
        probes=list(values),
    )
    seq.check_monotone(12)
    vals = [i.integrate(seq.term(n)) for n in range(1, 13)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < Fraction(1, 100)
    # the increasing-limit engine refuses decreasing input outright
    with pytest.raises(ValueError):
        i1_limit(i.integrate, seq, depth=4)


def test_non_monotone_sequence_rejected():
    values = {"a": Fraction(1)}
    u, full, gen = stabilizing_sequence(values)

    def bad(n):
        return full if n % 2 == 0 else SimpleFunction.zero(u)

    seq = MonotoneSequence(bad, Direction.INCREASING, probes=["a"])
    with pytest.raises(NonMonotoneSequence):
        seq.check_monotone(4)


def test_divergent_sequence_reports_infinity():
    u = Universe.finite(("a",))
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    seq = MonotoneSequence(lambda n: chi.scale(2**n), Direction.INCREASING, ["a"])
    res = i1_limit(i.integrate, seq, depth=200)
    assert res.value == POS_INF


def test_depth_zero_limit_raises():
    # no term to integrate: a ValueError, not an IndexError on the empty list
    u = Universe.finite(("a",))
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    seq = MonotoneSequence(lambda n: chi, Direction.INCREASING, ["a"])
    with pytest.raises(ValueError, match="depth"):
        i1_limit(i.integrate, seq, depth=0)


def test_tail_bound_certifies_bracket():
    u = Universe.finite(("a",))
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    seq = MonotoneSequence(
        lambda n: chi.scale(1 - Fraction(1, n + 1)), Direction.INCREASING, ["a"]
    )
    res = i1_limit(
        i.integrate, seq, depth=50, tail_bound=lambda n: Fraction(1, n + 1)
    )
    assert res.lower <= ExtReal(1) <= res.upper


# -- Daniell measurability ---------------------------------------------------


def test_uncertified_probe_fails_measurability():
    # 1000·χ[0,1) ∧ 100·χ[0,1) exceeds 2^n_max = 4: the bracket [4, +inf]
    # certifies nothing, so the probe fails and says why
    x = MeasurableFunction.from_simple(SimpleFunction.indicator(RingSet.interval(0, 1), 100))
    probe = SimpleFunction.indicator(RingSet.interval(0, 1), 1000)
    report = is_daniell_measurable(x, [probe], LENGTH, n_max=2)
    assert not report["pass"] and not report["certificates"]
    (failure,) = report["failures"]
    assert failure["reason"] == "bracket not certified"
    assert failure["certificate"]["upper"] == "+inf"
    assert is_daniell_measurable(x, [probe], LENGTH, n_max=7)["pass"]


def test_indicator_is_daniell_measurable():
    e = RingSet.interval(0, 1)
    x = indicator_measurable(e)
    rng = random.Random(3)
    probes = [
        SimpleFunction.indicator(
            RingSet.interval(Fraction(rng.randint(-2, 4), 2), Fraction(rng.randint(3, 8), 2)),
            Fraction(rng.randint(1, 4)),
        )
        for _ in range(10)
    ]
    assert is_daniell_measurable(x, probes, LENGTH, n_max=8)["pass"]


# -- null functions and approximation ------------------------------------------


def test_null_test_on_zero_weight_atom():
    u = Universe.finite(("a", "b"))
    mu = weighted_counting_premeasure(u, {"a": Fraction(0), "b": Fraction(1)})
    i = ElementaryIntegral(mu)
    x = MeasurableFunction.from_simple(
        SimpleFunction.indicator(RingSet.finite(u, ("a",)), Fraction(7))
    )
    ok, report = null_test(x, i)
    assert ok, report
    y = MeasurableFunction.from_simple(
        SimpleFunction.indicator(RingSet.finite(u, ("b",)))
    )
    ok, _ = null_test(y, i)
    assert not ok


def test_approximate_in_t0_bracket():
    x = MeasurableFunction.identity_on(0, 1)
    phi = approximate_in_t0(x, LENGTH, eps=Fraction(1, 64))
    # φ ≤ x pointwise and ∫(x − φ) < ε
    for k in range(0, 64):
        t = Fraction(k, 64)
        assert phi.eval(t) <= x.eval(t)
    gap = Fraction(1, 2) - LENGTH.integrate(phi)
    assert 0 <= gap <= Fraction(1, 64)


def test_approximate_in_t0_deepens_past_the_top_level():
    # x = 20·χ[0,1) ∧ 10·χ[0,1): eps alone picks n = 2, whose levels stop at
    # 2^2 = 4; the top level {x > 2^n} is null only from n = 4 on
    big = MeasurableFunction.from_simple(SimpleFunction.indicator(RingSet.interval(0, 1), 20))
    x = big.meet_with_simple(SimpleFunction.indicator(RingSet.interval(0, 1), 10))
    phi = approximate_in_t0(x, LENGTH, eps=Fraction(1, 2))
    assert phi.eval(Fraction(1, 2)) == Fraction(159, 16)  # 2^-4 · #{k : k/16 < 10}
    assert 0 <= 10 - LENGTH.integrate(phi) < Fraction(1, 2)
    with pytest.raises(ApproximationUnreachable):
        approximate_in_t0(x, LENGTH, eps=Fraction(1, 2), n_max=3)


def test_integral_result_json():
    x = MeasurableFunction.identity_on(0, 1)
    res = level_set_integral(x, LENGTH, n_max=6)
    obj = res.to_json()
    assert ExtReal.from_json(obj["value"]) == res.value
    assert obj["depth"] == res.depth_used
