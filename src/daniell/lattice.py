"""Simple functions over a set ring, with vector-lattice operations.

A simple function is a finite rational linear combination of ring-set
indicators.  Canonical form has pairwise disjoint sets and nonzero
coefficients, obtained by the usual refinement: each new set splits the
existing disjoint pieces into "inside" and "outside" parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .extreal import ExtReal
from .rings import (
    BooleanOp,
    RingSet,
    Universe,
    UniverseKind,
    UniverseMismatch,
    boolean_combine,
)


class LatticeOp(Enum):
    PLUS = "plus"
    SCALE = "scale"
    MEET = "meet"
    JOIN = "join"
    ABS = "abs"


@dataclass(frozen=True)
class SimpleFunction:
    universe: Universe
    terms: tuple  # of (Fraction coeff, RingSet)
    canonical: bool = False

    @staticmethod
    def of(universe: Universe, terms) -> SimpleFunction:
        norm = []
        for c, s in terms:
            if s.universe != universe:
                raise UniverseMismatch("term set over a different universe")
            norm.append((Fraction(c), s))
        return SimpleFunction(universe, tuple(norm))

    @staticmethod
    def indicator(s: RingSet, coeff=1) -> SimpleFunction:
        return SimpleFunction.of(s.universe, [(Fraction(coeff), s)])

    @staticmethod
    def zero(universe: Universe) -> SimpleFunction:
        return SimpleFunction(universe, (), canonical=True)

    def eval(self, t) -> ExtReal:
        if self.universe.kind is UniverseKind.FINITE and t not in self.universe.labels:
            raise ValueError(f"point {t!r} outside universe")
        total = Fraction(0)
        for c, s in self.terms:
            if s.contains(t):
                total += c
        return ExtReal(total)

    def __add__(self, other: SimpleFunction) -> SimpleFunction:
        return lattice_op(LatticeOp.PLUS, self, other)

    def __sub__(self, other: SimpleFunction) -> SimpleFunction:
        return self + other.scale(-1)

    def scale(self, c) -> SimpleFunction:
        return lattice_op(LatticeOp.SCALE, self, c=c)

    def to_json(self):
        return {
            "universe": self.universe.to_json(),
            "terms": [
                {"coeff": [c.numerator, c.denominator], "set": s.to_json()}
                for c, s in self.terms
            ],
        }

    @staticmethod
    def from_json(obj) -> SimpleFunction:
        universe = Universe.from_json(obj["universe"])
        terms = [
            (Fraction(t["coeff"][0], t["coeff"][1]), RingSet.from_json(t["set"]))
            for t in obj["terms"]
        ]
        return SimpleFunction.of(universe, terms)


def _set_sort_key(s: RingSet):
    if s.universe.kind is UniverseKind.FINITE:
        return s.points
    return s.intervals


def _refine(pieces, r: RingSet, add, zero):
    """Refine a disjoint (value, set) list by r: the part of each piece
    inside r takes value add(value), and the part of r outside every
    piece becomes a new piece of value add(zero)."""
    out = []
    rest = r
    for v, b in pieces:
        inside = boolean_combine(BooleanOp.INTERSECT, b, r)
        outside = boolean_combine(BooleanOp.DIFFERENCE, b, r)
        if not inside.is_empty:
            out.append((add(v), inside))
        if not outside.is_empty:
            out.append((v, outside))
        rest = boolean_combine(BooleanOp.DIFFERENCE, rest, b)
    if not rest.is_empty:
        out.append((add(zero), rest))
    return out


def canonicalize(x: SimpleFunction) -> SimpleFunction:
    """Rewrite with pairwise disjoint sets and nonzero coefficients."""
    if x.canonical:
        return x
    pieces = []
    for c, r in x.terms:
        if r.is_empty:
            continue
        pieces = _refine(pieces, r, lambda d: d + c, Fraction(0))
    pieces = [(c, s) for c, s in pieces if c != 0]
    pieces.sort(key=lambda p: _set_sort_key(p[1]))
    return SimpleFunction(x.universe, tuple(pieces), canonical=True)


def _common_atoms(x: SimpleFunction, y: SimpleFunction):
    """Disjoint sets on which both x and y are constant, as ((vx, vy), set)
    pairs.  Off the returned atoms both functions vanish.
    """
    zero = Fraction(0)
    atoms = [((c, zero), s) for c, s in canonicalize(x).terms]
    for d, b in canonicalize(y).terms:
        atoms = _refine(atoms, b, lambda v: (v[0], v[1] + d), (zero, zero))
    return atoms


def lattice_op(op: LatticeOp, x: SimpleFunction, y: SimpleFunction | None = None,
               c=None) -> SimpleFunction:
    """Pointwise Plus/Scale/Meet/Join/Abs; result is canonical."""
    if op is LatticeOp.SCALE:
        if c is None:
            raise ValueError("Scale needs c")
        c = Fraction(c)
        return canonicalize(
            SimpleFunction(x.universe, tuple((c * a, s) for a, s in x.terms))
        )
    if op is LatticeOp.ABS:
        atoms = _common_atoms(x, SimpleFunction.zero(x.universe))
        terms = [(abs(vx), s) for (vx, _), s in atoms]
        return canonicalize(SimpleFunction(x.universe, tuple(terms)))
    if y is None:
        raise ValueError(f"{op.value} needs a second argument")
    if x.universe != y.universe:
        raise UniverseMismatch("lattice op across universes")
    if op is LatticeOp.PLUS:
        return canonicalize(SimpleFunction(x.universe, x.terms + y.terms))
    atoms = _common_atoms(x, y)
    fn = min if op is LatticeOp.MEET else max
    terms = [(fn(vx, vy), s) for (vx, vy), s in atoms]
    return canonicalize(SimpleFunction(x.universe, tuple(terms)))


def meet(x: SimpleFunction, y: SimpleFunction) -> SimpleFunction:
    return lattice_op(LatticeOp.MEET, x, y)


def join(x: SimpleFunction, y: SimpleFunction) -> SimpleFunction:
    return lattice_op(LatticeOp.JOIN, x, y)


def absolute(x: SimpleFunction) -> SimpleFunction:
    return lattice_op(LatticeOp.ABS, x)


def pos_part(x: SimpleFunction) -> SimpleFunction:
    return join(x, SimpleFunction.zero(x.universe))


def neg_part(x: SimpleFunction) -> SimpleFunction:
    return pos_part(x.scale(-1))


def is_nonnegative(x: SimpleFunction) -> bool:
    return all(c >= 0 for c, _ in canonicalize(x).terms)


def level_set(x: SimpleFunction, threshold) -> RingSet:
    """The ring set {t : x(t) > threshold}, for threshold >= 0."""
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError("level_set only supports nonnegative thresholds")
    xc = canonicalize(x)
    out = RingSet.empty(x.universe)
    for c, s in xc.terms:
        if c > threshold:
            out = boolean_combine(BooleanOp.UNION, out, s)
    return out
