"""Simple functions over a set ring, with vector-lattice operations.

A simple function is a finite rational linear combination of ring-set
indicators.  Its canonical form splits the union of the nonempty term
sets into membership classes: each piece is the set of points that lie
in exactly the same subset of those sets, with the sum of their
coefficients as its value.  Zero pieces are dropped and the rest sorted
by their sets, so on the line and on a finite universe the form does not
depend on how it is computed.  Cylinder families have no canonical form,
so on path space the pieces keep the order refinement finds them in.

On the real line one sweep over the sorted interval endpoints finds the
classes, and on a finite universe one pass over the labels.  Path space
has no cells to list, so there each set splits the pieces found so far
into their parts inside and outside it (pairwise refinement).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from . import intervals as iv
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

    def first_excess(self, other: SimpleFunction):
        """A point where self > other, or None when self <= other everywhere:
        the witness point of the first common atom, in the canonical order
        of sets, on which self's value exceeds other's.  On the line and on
        a finite universe that is the least such point."""
        if self.universe != other.universe:
            raise UniverseMismatch("order test across universes")
        above = [s for (vx, vy), s in _common_atoms(self, other) if vx > vy]
        return min(above, key=_set_sort_key).witness_point() if above else None

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


def _refine(sets):
    """Membership classes by pairwise refinement, as (mask, set) pairs with
    bit k of mask set when the class lies in sets[k]: each set splits every
    piece so far into its parts inside and outside, and what it covers of
    no piece becomes a new one.  Works in every universe; ``_classes`` uses
    it for path space only."""
    pieces = []
    for k, r in enumerate(sets):
        out = []
        rest = r
        for m, b in pieces:
            inside = boolean_combine(BooleanOp.INTERSECT, b, r)
            if inside.is_empty:  # b is kept whole, not re-cut into cylinders
                out.append((m, b))
                continue
            outside = boolean_combine(BooleanOp.DIFFERENCE, b, r)
            out.append((m | 1 << k, inside))
            if not outside.is_empty:
                out.append((m, outside))
            rest = boolean_combine(BooleanOp.DIFFERENCE, rest, b)
        if not rest.is_empty:
            out.append((1 << k, rest))
        pieces = out
    return pieces


def _line_classes(universe: Universe, sets):
    """Membership classes on the real line by one endpoint sweep.

    In normal form a set's intervals never touch, so at each endpoint every
    set covering it starts or stops there: the membership mask changes, and
    no two cells of one class touch."""
    ends = sorted(((p, k) for k, s in enumerate(sets) for pair in s.intervals for p in pair),
                  key=itemgetter(0))
    classes = {}
    mask = 0
    lo = None
    for p, group in groupby(ends, key=itemgetter(0)):
        if mask:
            classes.setdefault(mask, []).append((lo, p))
        for _, k in group:
            mask ^= 1 << k
        lo = p
    return [(m, RingSet(universe, intervals=tuple(cells))) for m, cells in classes.items()]


def _label_classes(universe: Universe, sets):
    """Membership classes on a finite universe, label by label.

    The labels of one class first appear together, in the set of its
    lowest bit, whose points are sorted, so each class comes out sorted."""
    member = {}
    for k, s in enumerate(sets):
        for p in s.points:
            member[p] = member.get(p, 0) | 1 << k
    classes = {}
    for p, m in member.items():
        classes.setdefault(m, []).append(p)
    return [(m, RingSet(universe, points=tuple(labels))) for m, labels in classes.items()]


def _classes(universe: Universe, sets):
    """The nonempty membership classes of ``sets`` as (mask, set) pairs, in
    no particular order; bit k of mask is set when the class lies in
    sets[k]."""
    if universe.kind is UniverseKind.REAL_LINE:
        return _line_classes(universe, sets)
    if universe.kind is UniverseKind.FINITE:
        return _label_classes(universe, sets)
    return _refine(sets)


def _coeff_sum(mask: int, coeffs) -> Fraction:
    """Sum of coeffs[k] over the bits k set in mask."""
    total = Fraction(0)
    while mask:
        low = mask & -mask
        total += coeffs[low.bit_length() - 1]
        mask ^= low
    return total


def canonicalize(x: SimpleFunction) -> SimpleFunction:
    """Rewrite with pairwise disjoint sets and nonzero coefficients."""
    if x.canonical:
        return x
    coeffs = [c for c, _ in x.terms]
    pieces = [(_coeff_sum(m, coeffs), s)
              for m, s in _classes(x.universe, [s for _, s in x.terms])]
    pieces = [(c, s) for c, s in pieces if c != 0]
    pieces.sort(key=lambda p: _set_sort_key(p[1]))
    return SimpleFunction(x.universe, tuple(pieces), canonical=True)


def _common_atoms(x: SimpleFunction, y: SimpleFunction):
    """Disjoint sets on which both x and y are constant, as ((vx, vy), set)
    pairs: the membership classes of the canonical pieces of x and of y.
    Off the returned atoms both functions vanish.
    """
    xt, yt = canonicalize(x).terms, canonicalize(y).terms
    coeffs = [c for c, _ in xt + yt]
    in_x = (1 << len(xt)) - 1
    return [((_coeff_sum(m & in_x, coeffs), _coeff_sum(m & ~in_x, coeffs)), s)
            for m, s in _classes(x.universe, [s for _, s in xt + yt])]


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


def level_set(x: SimpleFunction, threshold) -> RingSet:
    """The ring set {t : x(t) > threshold}, for threshold >= 0: the union
    of the canonical pieces above threshold, which are pairwise disjoint."""
    threshold = Fraction(threshold)
    if threshold < 0:
        raise ValueError("level_set only supports nonnegative thresholds")
    chosen = [s for c, s in canonicalize(x).terms if c > threshold]
    u = x.universe
    if u.kind is UniverseKind.REAL_LINE:
        return RingSet(u, intervals=iv.normalize(p for s in chosen for p in s.intervals))
    if u.kind is UniverseKind.FINITE:
        return RingSet(u, points=tuple(sorted(p for s in chosen for p in s.points)))
    return RingSet(u, cylinders=tuple(c for s in chosen for c in s.cylinders))
