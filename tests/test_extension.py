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
    NEST_CHECK_TOP,
    ApproximationUnreachable,
    Direction,
    LevelSetNestingError,
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
    union,
    weighted_counting_premeasure,
)

LENGTH = ElementaryIntegral(length_premeasure())
LINE = Universe.real_line()


def dyadic_sum(x, i, n):
    """Oracle: S_n computed directly from the level sets."""
    total = sum((i.mu(e).value for e in dyadic_levels(x, n)), Fraction(0))
    return total / 2**n


def step_oracle(pieces, universe=None):
    """A hand-built oracle for the step function with disjoint pieces
    (set, value): E_{k,n} is the union of the pieces above k 2^-n."""
    universe = universe or Universe.real_line()

    def oracle(k, n):
        out = RingSet.empty(universe)
        for s, v in pieces:
            if v > Fraction(k, 2**n):
                out = union(out, s)
        return out

    support = oracle(0, 0)
    return MeasurableFunction(lambda t: max((v for s, v in pieces if s.contains(t)),
                                            default=Fraction(0)),
                              oracle, support)


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
    u = Universe.finite(("a", "b", "c"))
    i = ElementaryIntegral(PreMeasure(
        u, lambda e: POS_INF if "a" in e.points else Fraction(len(e.points))))
    phi = SimpleFunction.of(u, [(Fraction(1, 2), RingSet.finite(u, ("a",))),
                                (3, RingSet.finite(u, ("b",)))])
    both = RingSet.finite(u, ("a", "b"))
    big = MeasurableFunction.from_simple(SimpleFunction.indicator(both, 8))
    # through a hand-built oracle, "a" sits in the first, a middle or the
    # last (truncating) run of equal level sets
    by_oracle = [step_oracle([(RingSet.finite(u, ("a",)), Fraction(va)),
                              (RingSet.finite(u, ("b",)), Fraction(3)),
                              (RingSet.finite(u, ("c",)), Fraction(5, 4))], u)
                 for va in (Fraction(3, 4), 2, 40)]
    expected = {"value": "+inf", "lower": ExtReal(0).to_json(), "upper": "+inf",
                "depth": 3, "converged": False}
    for x in (MeasurableFunction.from_simple(phi), big.meet_with_simple(phi), *by_oracle):
        assert level_set_integral(x, i, n_max=3).to_json() == expected


def test_level_sets_nest():
    x = MeasurableFunction.identity_on(0, 1)
    for n in (1, 2, 3):
        levels = dyadic_levels(x, n)
        for a, b in zip(levels, levels[1:]):
            assert b.subset_of(a)


# -- the run walk against the level-by-level sum -------------------------------


def plain_level_sum(x, i, n):
    """Reference: the record of S_n = dyadic_sum, one level at a time."""
    masses = [i.mu(e) for e in dyadic_levels(x, n)]
    if not all(m.is_finite for m in masses):
        return {"value": "+inf", "lower": ExtReal(0).to_json(), "upper": "+inf",
                "depth": n, "converged": False}
    s_n = dyadic_sum(x, i, n)
    if len(masses) == 4**n and masses[-1].value > 0:
        upper, converged = POS_INF, False
    else:
        upper, converged = ExtReal(s_n + i.mu(x.support).value / 2**n), True
    return {"value": ExtReal(s_n).to_json(), "lower": ExtReal(s_n).to_json(),
            "upper": upper.to_json(), "depth": n, "converged": converged}


def random_step_pieces(rng, count):
    ends = sorted(rng.sample(range(0, 96), 2 * count))
    return [(RingSet.interval(Fraction(ends[2 * j], 8), Fraction(ends[2 * j + 1], 8)),
             Fraction(rng.randint(1, 48), rng.randint(1, 8))) for j in range(count)]


def test_run_sum_matches_the_level_by_level_sum():
    rng = random.Random(14)
    for n in range(1, 9):
        for _ in range(3):
            a = Fraction(rng.randint(0, 24), rng.randint(1, 8))
            b = a + Fraction(rng.randint(1, 24), rng.randint(1, 8))
            x = MeasurableFunction.identity_on(a, b)
            expected = plain_level_sum(x, LENGTH, n)
            assert level_set_integral(x, LENGTH, n_max=n).to_json() == expected
            # the same function as a bare oracle takes the walk, over runs
            # of length one: every nonempty level differs from the next
            y = MeasurableFunction(x.evaluator, x.level_set, x.support)
            assert level_set_integral(y, LENGTH, n_max=n).to_json() == expected
    for n in range(1, 6):
        for _ in range(4):
            pieces = random_step_pieces(rng, rng.randint(1, 6))
            phi = SimpleFunction.of(LINE, [(v, s) for s, v in pieces])
            c = Fraction(rng.randint(1, 64), rng.randint(1, 4))
            x = MeasurableFunction.from_simple(
                SimpleFunction.indicator(RingSet.interval(0, 12), c)).meet_with_simple(phi)
            assert level_set_integral(x, LENGTH, n_max=n).to_json() == plain_level_sum(x, LENGTH, n)
            # the same function through a hand-built oracle
            y = step_oracle(pieces)
            assert level_set_integral(y, LENGTH, n_max=n).to_json() == plain_level_sum(y, LENGTH, n)


def test_run_sum_truncates_when_the_last_run_reaches_the_top_level():
    # 100 on [0, 1/2) stays above 2^n for n <= 6: the last run ends at k = 4^n
    pieces = [(RingSet.interval(0, Fraction(1, 2)), Fraction(100)),
              (RingSet.interval(1, 3), Fraction(3, 2))]
    x = step_oracle(pieces)
    for n in range(1, 9):
        expected = plain_level_sum(x, LENGTH, n)
        assert level_set_integral(x, LENGTH, n_max=n).to_json() == expected
        assert (expected["upper"] == "+inf") == (n <= 6)
    # a run that reaches the top level with zero mass is no truncation
    u = Universe.finite(("a", "b"))
    i = ElementaryIntegral(weighted_counting_premeasure(u, {"a": 0, "b": 1}))
    y = step_oracle([(RingSet.finite(u, ("a",)), Fraction(100)),
                     (RingSet.finite(u, ("b",)), Fraction(1, 2))], u)
    res = level_set_integral(y, i, n_max=2)
    assert res.to_json() == plain_level_sum(y, i, 2) and res.converged


def test_run_walk_asks_for_few_level_sets(monkeypatch):
    # d distinct nonempty levels at depth n cost at most d (4n + 2) + 32
    # calls: the levels k <= 32 one by one, then per run at most 2n + 1
    # galloping probes and 2n bisection probes
    rng = random.Random(5)
    asked = []
    original = MeasurableFunction.level_set

    def counted(self, k, n):
        asked.append(k)
        return original(self, k, n)

    for n in (1, 3, 6):
        for count in (1, 3, 6):
            x = step_oracle(random_step_pieces(rng, count))
            levels = dyadic_levels(x, n)
            d = len(set(levels))
            asked.clear()
            monkeypatch.setattr(MeasurableFunction, "level_set", counted)
            level_set_integral(x, LENGTH, n_max=n)
            monkeypatch.undo()
            assert len(asked) <= d * (4 * n + 2) + NEST_CHECK_TOP
            if n == 6:  # one call per nonempty level would be hundreds
                assert len(asked) < len(levels) // 2


def count_level_sets(monkeypatch):
    """Patch a counter onto MeasurableFunction.level_set; returns the list
    of levels asked for."""
    asked = []
    original = MeasurableFunction.level_set

    def counted(self, k, n):
        asked.append(k)
        return original(self, k, n)

    monkeypatch.setattr(MeasurableFunction, "level_set", counted)
    return asked


# (a, b, n): a below, inside and above the first level; b past 2^n truncates
IDENTITY_CASES = [(0, 1, 1), (0, 1, 6), (Fraction(1, 3), Fraction(7, 5), 5),
                  (Fraction(5, 2), 3, 3), (1, 9, 3), (Fraction(1, 8), 4, 2)]


def test_identity_under_length_asks_for_no_level_set(monkeypatch):
    expected = [plain_level_sum(MeasurableFunction.identity_on(a, b), LENGTH, n)
                for a, b, n in IDENTITY_CASES]
    asked = count_level_sets(monkeypatch)
    got = [level_set_integral(MeasurableFunction.identity_on(a, b), LENGTH, n_max=n).to_json()
           for a, b, n in IDENTITY_CASES]
    assert asked == []
    assert got == expected


def test_identity_under_another_premeasure_takes_the_walk(monkeypatch):
    # twice the length, under the same name: only the length instance
    # itself selects the closed form
    double = ElementaryIntegral(PreMeasure(LINE, lambda e: 2 * LENGTH.mu(e).value,
                                           name="length"))
    for a, b, n in IDENTITY_CASES:
        x = MeasurableFunction.identity_on(a, b)
        once = level_set_integral(x, LENGTH, n_max=n)
        asked = count_level_sets(monkeypatch)
        twice = level_set_integral(x, double, n_max=n)
        monkeypatch.undo()
        assert asked
        assert twice.value == once.value + once.value
        assert twice.lower == once.lower + once.lower
        assert twice.upper == once.upper + once.upper
        assert twice.converged == once.converged


@pytest.mark.parametrize("broken", [3, 17, NEST_CHECK_TOP])
def test_nesting_break_inside_a_run_is_caught(broken):
    # E_broken = [0, 2) sits inside a run of [0, 1) whose ends are equal;
    # the walk still asks for every level k <= 32, so the spot-check sees it
    def oracle(k, n):
        if k == broken:
            return RingSet.interval(0, 2)
        return RingSet.interval(0, 1) if k <= 40 else RingSet.empty(LINE)

    x = MeasurableFunction(lambda t: 0, oracle, RingSet.interval(0, 2))
    with pytest.raises(LevelSetNestingError):
        level_set_integral(x, LENGTH, n_max=3)
    with pytest.raises(LevelSetNestingError):
        approximate_in_t0(x, LENGTH, 1, n_max=3)


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
    seq = MonotoneSequence(gen, Direction.INCREASING)
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
                           Direction.INCREASING)
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
    seq = MonotoneSequence(lambda n: full.scale(Fraction(1, 2**n)), Direction.DECREASING)
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

    seq = MonotoneSequence(bad, Direction.INCREASING)
    with pytest.raises(NonMonotoneSequence):
        seq.check_monotone(4)


def test_gap_in_a_line_indicator_is_caught():
    # chi[0, 1 - 2^-n) increases, except that term 20 leaves out
    # [1/3, 1/3 + 10^-6), far narrower than any sampling grid would see
    third, gap = Fraction(1, 3), Fraction(1, 10**6)

    def term(n):
        top = 1 - Fraction(1, 2**n)
        if n == 20:
            return SimpleFunction.indicator(
                RingSet.from_intervals([(0, third), (third + gap, top)]))
        return SimpleFunction.indicator(RingSet.interval(0, top))

    seq = MonotoneSequence(term, Direction.INCREASING)
    seq.check_monotone(19)
    with pytest.raises(NonMonotoneSequence) as caught:
        i1_limit(LENGTH.integrate, seq, depth=40)
    assert caught.value.index == 20
    assert caught.value.witness == third


def test_divergent_sequence_reports_infinity():
    u = Universe.finite(("a",))
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    seq = MonotoneSequence(lambda n: chi.scale(2**n), Direction.INCREASING)
    res = i1_limit(i.integrate, seq, depth=200)
    assert res.value == POS_INF


def test_depth_zero_limit_raises():
    # no term to integrate: a ValueError, not an IndexError on the empty list
    u = Universe.finite(("a",))
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    seq = MonotoneSequence(lambda n: chi, Direction.INCREASING)
    with pytest.raises(ValueError, match="depth"):
        i1_limit(i.integrate, seq, depth=0)


def test_tail_bound_certifies_bracket():
    u = Universe.finite(("a",))
    i = ElementaryIntegral(weighted_counting_premeasure(u))
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    seq = MonotoneSequence(lambda n: chi.scale(1 - Fraction(1, n + 1)), Direction.INCREASING)
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
