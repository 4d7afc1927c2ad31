"""Elementary integrals on simple functions and signed-functional decomposition.

An elementary integral pairs a pre-measure with the induced linear
functional I(sum c_i chi_{R_i}) = sum c_i mu(R_i), evaluated on the
canonical form so the value is representation-independent.

A signed functional over a finite universe carries a rational weight
per point.  Its positive part P(x) = sup { S(phi) : 0 <= phi <= x } is
exactly computable two ways: the closed form using max(weight, 0), and
a brute-force supremum over the corners of the box 0 <= phi <= x (the
sup is attained at a corner since S is linear in each coordinate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    SimpleFunction,
    canonicalize,
    neg_part,
    pos_part,
)
from .rings import PreMeasure, Universe, UniverseKind, weighted_counting_premeasure


class InfiniteMeasureTerm(ValueError):
    pass


class ElementaryIntegral:
    """The functional induced by a nonnegative pre-measure on simple functions."""

    def __init__(self, mu: PreMeasure, name=None):
        if mu.signed:
            raise ValueError("elementary integrals need a nonnegative pre-measure")
        self.mu = mu
        self.universe = mu.universe
        self.name = name or mu.name

    def integrate(self, x: SimpleFunction) -> Fraction:
        xc = canonicalize(x)
        total = Fraction(0)
        for c, s in xc.terms:
            m = self.mu(s)
            if not m.is_finite:
                raise InfiniteMeasureTerm(
                    f"term {c}*chi_{s.to_json()} has infinite measure"
                )
            total += c * m.value
        return total

    __call__ = integrate


@dataclass(frozen=True)
class SignedFunctional:
    """S(x) = sum_a nu({a}) x(a) over a finite universe."""

    universe: Universe
    weights: tuple  # of (label, Fraction)

    @staticmethod
    def of(universe: Universe, weights) -> SignedFunctional:
        if universe.kind is not UniverseKind.FINITE:
            raise ValueError("signed functionals require a finite universe")
        w = dict(weights)
        items = tuple((lab, Fraction(w.get(lab, 0))) for lab in universe.labels)
        return SignedFunctional(universe, items)

    @property
    def weight_map(self):
        return dict(self.weights)

    def evaluate(self, x: SimpleFunction) -> Fraction:
        return sum(
            (w * x.eval(lab).value for lab, w in self.weights), Fraction(0)
        )

    __call__ = evaluate


class NegativeArgument(ValueError):
    def __init__(self, witness):
        super().__init__(f"argument is negative at {witness!r}")
        self.witness = witness


def _require_nonnegative(s: SignedFunctional, x: SimpleFunction):
    for lab, _ in s.weights:
        if x.eval(lab).value < 0:
            raise NegativeArgument(lab)


def positive_part(s: SignedFunctional, x: SimpleFunction) -> Fraction:
    """P(x) for x >= 0: the sup of S over the box 0 <= phi <= x.

    Closed form: only atoms with positive weight contribute, and there
    phi = x is optimal.
    """
    _require_nonnegative(s, x)
    return sum(
        (max(w, Fraction(0)) * x.eval(lab).value for lab, w in s.weights),
        Fraction(0),
    )


def positive_part_bruteforce(s: SignedFunctional, x: SimpleFunction) -> Fraction:
    """Independent oracle for P(x): enumerate all corner candidates phi.

    S is linear in phi(a) for each atom a, so the sup over the box
    0 <= phi <= x is attained with phi(a) in {0, x(a)}.  2^n candidates.
    """
    _require_nonnegative(s, x)
    atoms = [(lab, w, x.eval(lab).value) for lab, w in s.weights]
    if len(atoms) > 20:
        raise ValueError("brute-force oracle limited to 20 atoms")
    best = Fraction(0)
    for choice in itertools.product((0, 1), repeat=len(atoms)):
        val = sum(
            (w * xv for (lab, w, xv), pick in zip(atoms, choice) if pick),
            Fraction(0),
        )
        best = max(best, val)
    return best


def splus(s: SignedFunctional, x: SimpleFunction) -> Fraction:
    """S+(x) = P(x v 0) - P((-x) v 0) for general simple x."""
    return positive_part(s, pos_part(x)) - positive_part(s, neg_part(x))


@dataclass(frozen=True)
class DecomposedFunctional:
    plus: ElementaryIntegral
    minus: ElementaryIntegral
    abs: ElementaryIntegral


def jordan_decompose(s: SignedFunctional) -> DecomposedFunctional:
    """Split S into S+ - S-, with |S| = S+ + S-, as three elementary integrals."""
    w = s.weight_map
    pos = {lab: max(v, Fraction(0)) for lab, v in w.items()}
    neg = {lab: max(-v, Fraction(0)) for lab, v in w.items()}
    mod = {lab: abs(v) for lab, v in w.items()}
    return DecomposedFunctional(
        plus=ElementaryIntegral(
            weighted_counting_premeasure(s.universe, pos, name="S+"), name="S+"
        ),
        minus=ElementaryIntegral(
            weighted_counting_premeasure(s.universe, neg, name="S-"), name="S-"
        ),
        abs=ElementaryIntegral(
            weighted_counting_premeasure(s.universe, mod, name="|S|"), name="|S|"
        ),
    )


class NonMonotoneSequence(ValueError):
    def __init__(self, index, witness):
        super().__init__(f"sequence not monotone at n={index}, t={witness!r}")
        self.index = index
        self.witness = witness
