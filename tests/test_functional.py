"""Elementary integrals and the Riesz/Jordan decomposition S = S+ − S−.

Oracle, written before the implementation was consulted: on a finite
universe the supremum P(x) = sup{S(φ) : 0 ≤ φ ≤ x} over simple φ is
attained at a "corner", where each atom contributes either 0 or its
full value x(a).  `corner_sup` enumerates all 2^n corners.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daniell.functional import (
    ElementaryIntegral,
    InfiniteMeasureTerm,
    SignedFunctional,
    jordan_decompose,
    positive_part,
    positive_part_bruteforce,
    splus,
)
from daniell.lattice import SimpleFunction, absolute
from daniell.rings import (
    PreMeasure,
    RingSet,
    Universe,
    length_premeasure,
    weighted_counting_premeasure,
)

LABELS = tuple("abcdef")
U6 = Universe.finite(LABELS)


def corner_sup(nu: dict, values: dict) -> Fraction:
    """Independent oracle for P(x): max over all 0-or-full corners."""
    atoms = list(values)
    best = Fraction(0)
    for picks in itertools.product((0, 1), repeat=len(atoms)):
        s = sum(
            (nu.get(a, Fraction(0)) * values[a] for a, p in zip(atoms, picks) if p),
            Fraction(0),
        )
        best = max(best, s)
    return best


def point_fn(universe, values: dict) -> SimpleFunction:
    return SimpleFunction.of(
        universe,
        [(Fraction(v), RingSet.finite(universe, (lab,))) for lab, v in values.items()],
    )


weight_maps = st.dictionaries(
    st.sampled_from(LABELS),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=6,
)
value_maps = st.dictionaries(
    st.sampled_from(LABELS),
    st.fractions(min_value=0, max_value=5, max_denominator=4),
    max_size=6,
)


# -- positive part ---------------------------------------------------------


@given(weight_maps, value_maps)
@settings(max_examples=200)
def test_positive_part_matches_corner_oracle(nu, values):
    s = SignedFunctional.of(U6, nu)
    x = point_fn(U6, values)
    expected = corner_sup(nu, values)
    assert positive_part(s, x) == expected
    assert positive_part_bruteforce(s, x) == expected


def test_positive_part_rejects_negative_argument():
    s = SignedFunctional.of(U6, {"a": 1})
    x = point_fn(U6, {"a": Fraction(-1)})
    with pytest.raises(Exception):
        positive_part(s, x)


# -- Jordan decomposition ----------------------------------------------------


@given(weight_maps)
@settings(max_examples=100)
def test_decomposition_weights_are_jordan(nu):
    s = SignedFunctional.of(U6, nu)
    d = jordan_decompose(s)
    for lab in LABELS:
        e = RingSet.finite(U6, (lab,))
        chi = SimpleFunction.indicator(e)
        w = Fraction(nu.get(lab, 0))
        assert d.plus.integrate(chi) == max(w, 0)
        assert d.minus.integrate(chi) == max(-w, 0)
        assert d.abs.integrate(chi) == abs(w)


def test_splus_example():
    u = Universe.finite(("a", "b"))
    s = SignedFunctional.of(u, {"a": Fraction(2), "b": Fraction(-1)})
    x = point_fn(u, {"a": Fraction(1), "b": Fraction(1)})
    assert splus(s, x) == Fraction(2)
    assert s.evaluate(x) == Fraction(1)
    assert jordan_decompose(s).abs.integrate(x) == Fraction(3)


# -- elementary integral -----------------------------------------------------


def test_integral_is_representation_independent():
    mu = length_premeasure()
    i = ElementaryIntegral(mu)
    a = SimpleFunction.of(
        Universe.real_line(),
        [(Fraction(1), RingSet.interval(0, 2)), (Fraction(1), RingSet.interval(1, 2))],
    )
    b = SimpleFunction.of(
        Universe.real_line(),
        [(Fraction(1), RingSet.interval(0, 1)), (Fraction(2), RingSet.interval(1, 2))],
    )
    assert i.integrate(a) == i.integrate(b) == Fraction(3)


@given(value_maps, value_maps)
def test_integral_linear_and_monotone(va, vb):
    mu = weighted_counting_premeasure(
        U6, {lab: Fraction(i + 1, 2) for i, lab in enumerate(LABELS)}
    )
    i = ElementaryIntegral(mu)
    x, y = point_fn(U6, va), point_fn(U6, vb)
    assert i.integrate(x + y) == i.integrate(x) + i.integrate(y)
    assert i.integrate(x.scale(Fraction(5, 3))) == Fraction(5, 3) * i.integrate(x)
    assert abs(i.integrate(x - y)) <= i.integrate(absolute(x - y))


def test_infinite_mass_term_raises():
    from daniell.extreal import POS_INF

    u = Universe.finite(("a",))
    mu = PreMeasure(u, lambda e: POS_INF if e.points else Fraction(0), name="heavy")
    i = ElementaryIntegral(mu)
    chi = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    with pytest.raises(InfiniteMeasureTerm):
        i.integrate(chi)


def test_fuzzed_random_regression():
    # deterministic spot check with the package's own fuzz helpers
    from daniell.fuzz import random_simple_function

    rng = random.Random(7)
    mu = weighted_counting_premeasure(U6)
    i = ElementaryIntegral(mu)
    for _ in range(50):
        x = random_simple_function(rng, U6)
        total = sum((x.eval(lab).value for lab in LABELS), Fraction(0))
        assert i.integrate(x) == total
