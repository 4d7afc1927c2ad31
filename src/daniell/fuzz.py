"""Seeded random generators for ring sets and simple functions.

Everything takes an explicit ``random.Random`` so fuzz suites are
reproducible and parallelizable with independent generators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lattice import SimpleFunction
from .rings import RingSet, Universe, UniverseKind


def random_fraction(rng: random.Random, lo=-5, hi=5, max_den=8) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_finite_ringset(rng: random.Random, universe: Universe) -> RingSet:
    labels = [lab for lab in universe.labels if rng.random() < 0.5]
    return RingSet.finite(universe, labels)


def random_interval_ringset(rng: random.Random) -> RingSet:
    """Up to 3 intervals with left ends in [0, 8]."""
    ivs = []
    for _ in range(rng.randint(0, 3)):
        a = random_fraction(rng, 0, 8, max_den=6)
        b = a + abs(random_fraction(rng, 0, 2, max_den=6)) + Fraction(1, 7)
        ivs.append((a, b))
    return RingSet.from_intervals(ivs)


def random_ringset(rng: random.Random, universe: Universe) -> RingSet:
    if universe.kind is UniverseKind.FINITE:
        return random_finite_ringset(rng, universe)
    return random_interval_ringset(rng)


def random_simple_function(rng: random.Random, universe: Universe) -> SimpleFunction:
    """Up to 3 terms with coefficients in [-5, 5]."""
    out = []
    for _ in range(rng.randint(0, 3)):
        out.append((random_fraction(rng, -5, 5),
                    random_ringset(rng, universe)))
    return SimpleFunction.of(universe, out)


def random_nonneg_simple_function(rng: random.Random, universe: Universe) -> SimpleFunction:
    """Up to 3 terms with coefficients in [0, 5]."""
    out = []
    for _ in range(rng.randint(0, 3)):
        out.append((abs(random_fraction(rng, 0, 5)),
                    random_ringset(rng, universe)))
    return SimpleFunction.of(universe, out)

