"""Set rings over three universes, with canonical elements and pre-measures.

A ring here is a family of sets closed under union and difference.  The
three universes are: a finite labeled point set, the real line (where
ring elements are finite unions of half-open rational intervals), and
path space (where all set algebra is delegated to the cylinder code in
:mod:`daniell.wiener`).

Intervals are half-open ``[a, b)`` so that differences stay inside the
ring with exact rational arithmetic.  Their union, intersection and
difference come from :mod:`daniell.intervals`; endpoints are made
``Fraction`` once, when a set is built from pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import intervals as iv
from .extreal import ExtReal


class UniverseKind(Enum):
    FINITE = "finite"
    REAL_LINE = "real_line"
    PATH_SPACE = "path_space"


@dataclass(frozen=True)
class Universe:
    kind: UniverseKind
    labels: tuple = ()

    def __post_init__(self):
        if self.kind is UniverseKind.FINITE:
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("finite universe labels must be distinct")
        elif self.labels:
            raise ValueError("labels only apply to finite universes")

    @staticmethod
    def finite(labels) -> Universe:
        return Universe(UniverseKind.FINITE, tuple(labels))

    @staticmethod
    def real_line() -> Universe:
        return _REAL_LINE

    @staticmethod
    def path_space() -> Universe:
        return Universe(UniverseKind.PATH_SPACE)

    def to_json(self):
        if self.kind is UniverseKind.FINITE:
            return {"kind": "finite", "labels": list(self.labels)}
        return {"kind": self.kind.value}

    @staticmethod
    def from_json(obj) -> Universe:
        if obj["kind"] == "finite":
            return Universe.finite(obj["labels"])
        return Universe(UniverseKind(obj["kind"]))


_REAL_LINE = Universe(UniverseKind.REAL_LINE)


class UniverseMismatch(ValueError):
    """Raised when two ring sets live over different universes."""


class BooleanOp(Enum):
    UNION = "union"
    INTERSECT = "intersect"
    DIFFERENCE = "difference"


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


@dataclass(frozen=True)
class RingSet:
    """Canonical element of a set ring.

    ``points`` is a sorted tuple of labels (finite universes),
    ``intervals`` a maximally merged tuple of disjoint ``(a, b)``
    Fraction pairs (real line).  Path-space ring sets wrap a cylinder
    family from :mod:`daniell.wiener`.
    """

    universe: Universe
    points: tuple = ()
    intervals: tuple = ()
    cylinders: tuple = ()

    @staticmethod
    def finite(universe: Universe, labels) -> RingSet:
        if universe.kind is not UniverseKind.FINITE:
            raise ValueError("finite body requires a finite universe")
        labels = tuple(sorted(set(labels)))
        unknown = set(labels) - set(universe.labels)
        if unknown:
            raise ValueError(f"labels not in universe: {sorted(unknown)}")
        return RingSet(universe, points=labels)

    @staticmethod
    def from_intervals(pairs, universe: Universe | None = None) -> RingSet:
        universe = universe or Universe.real_line()
        if universe.kind is not UniverseKind.REAL_LINE:
            raise ValueError("interval body requires the real line universe")
        return RingSet(universe, intervals=iv.normalize(
            (_fraction(a), _fraction(b)) for a, b in pairs))

    @staticmethod
    def interval(a, b) -> RingSet:
        """[a, b), empty unless a < b; one pair is already in normal form."""
        a, b = _fraction(a), _fraction(b)
        return RingSet(_REAL_LINE, intervals=((a, b),) if a < b else ())

    @staticmethod
    def empty(universe: Universe) -> RingSet:
        return RingSet(universe)

    @staticmethod
    def path_space(cylinders) -> RingSet:
        """The union of the cylinders; empty ones are dropped, so a set
        is empty exactly when it names no cylinder."""
        return RingSet(Universe.path_space(),
                       cylinders=tuple(c for c in cylinders if not c.is_empty))

    # -- queries -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not (self.points or self.intervals or self.cylinders)

    def contains(self, t) -> bool:
        if self.universe.kind is UniverseKind.FINITE:
            return t in self.points
        if self.universe.kind is UniverseKind.REAL_LINE:
            return iv.contains(self.intervals, Fraction(t))
        return any(c.contains(t) for c in self.cylinders)

    def subset_of(self, other: RingSet) -> bool:
        return boolean_combine(BooleanOp.DIFFERENCE, self, other).is_empty

    def witness_point(self):
        """Some point of the set, or None if empty: the least label or left
        end.  A path-space set has no point to name, so there it is the
        set's first cylinder."""
        if self.points:
            return self.points[0]
        if self.intervals:
            return self.intervals[0][0]
        if self.cylinders:
            return self.cylinders[0]
        return None

    # -- serialization ---------------------------------------------------

    def to_json(self):
        out = {"universe": self.universe.to_json()}
        if self.universe.kind is UniverseKind.FINITE:
            out["points"] = list(self.points)
        elif self.universe.kind is UniverseKind.REAL_LINE:
            out["intervals"] = [
                [a.numerator, a.denominator, b.numerator, b.denominator]
                for a, b in self.intervals
            ]
        else:
            out["cylinders"] = [c.to_json() for c in self.cylinders]
        return out

    @staticmethod
    def from_json(obj) -> RingSet:
        universe = Universe.from_json(obj["universe"])
        if universe.kind is UniverseKind.FINITE:
            return RingSet.finite(universe, obj.get("points", []))
        if universe.kind is UniverseKind.REAL_LINE:
            pairs = [
                (Fraction(an, ad), Fraction(bn, bd))
                for an, ad, bn, bd in obj.get("intervals", [])
            ]
            return RingSet.from_intervals(pairs, universe)
        from .wiener import Cylinder

        return RingSet.path_space(
            Cylinder.from_json(c) for c in obj.get("cylinders", [])
        )


_INTERVAL_OPS = {
    BooleanOp.UNION: iv.union,
    BooleanOp.INTERSECT: iv.intersect,
    BooleanOp.DIFFERENCE: iv.difference,
}


def boolean_combine(op: BooleanOp, a: RingSet, b: RingSet) -> RingSet:
    """Union / intersection / difference, returned in canonical form."""
    if a.universe != b.universe:
        raise UniverseMismatch(f"{a.universe} vs {b.universe}")
    u = a.universe
    if u.kind is UniverseKind.FINITE:
        sa, sb = set(a.points), set(b.points)
        if op is BooleanOp.UNION:
            body = sa | sb
        elif op is BooleanOp.INTERSECT:
            body = sa & sb
        else:
            body = sa - sb
        return RingSet.finite(u, body)
    if u.kind is UniverseKind.REAL_LINE:
        return RingSet(u, intervals=_INTERVAL_OPS[op](a.intervals, b.intervals))
    from . import wiener

    return RingSet.path_space(wiener.family_combine(op, a.cylinders, b.cylinders))


def union(a: RingSet, b: RingSet) -> RingSet:
    return boolean_combine(BooleanOp.UNION, a, b)


def intersect(a: RingSet, b: RingSet) -> RingSet:
    return boolean_combine(BooleanOp.INTERSECT, a, b)


def difference(a: RingSet, b: RingSet) -> RingSet:
    return boolean_combine(BooleanOp.DIFFERENCE, a, b)


class PreMeasure:
    """A set function on a ring: nonnegative, zero on the empty set.

    Additivity is *checked* (see :func:`check_additivity`), never assumed.
    The signed variant is only available over finite universes, where it
    is a weight per point.
    """

    def __init__(self, universe: Universe, fn, name="premeasure", signed=False):
        if signed and universe.kind is not UniverseKind.FINITE:
            raise ValueError("signed pre-measures require a finite universe")
        self.universe = universe
        self._fn = fn
        self.name = name
        self.signed = signed

    def __call__(self, e: RingSet) -> ExtReal:
        if e.universe != self.universe:
            raise UniverseMismatch("set is not in this pre-measure's ring")
        v = ExtReal.of(self._fn(e))
        if not self.signed and v < 0:
            raise ValueError(f"{self.name} returned a negative value")
        return v


def _length(e: RingSet) -> Fraction:
    lengths = [b - a for a, b in e.intervals]
    return sum(lengths[1:], lengths[0]) if lengths else Fraction(0)


_LENGTH = PreMeasure(_REAL_LINE, _length, name="length")


def length_premeasure() -> PreMeasure:
    """Interval length Sum(b_i - a_i) on the real-line ring.

    Every call returns the same instance, so a shortcut that holds for
    length alone can recognize it by identity.
    """
    return _LENGTH


def weighted_counting_premeasure(universe: Universe, weights=None, name=None) -> PreMeasure:
    """Point-mass pre-measure on a finite universe.

    ``weights`` maps label -> rational weight (default all 1).  Negative
    weights give the signed variant.
    """
    if universe.kind is not UniverseKind.FINITE:
        raise ValueError("counting pre-measure requires a finite universe")
    if weights is None:
        weights = {lab: Fraction(1) for lab in universe.labels}
    weights = {lab: Fraction(w) for lab, w in weights.items()}
    signed = any(w < 0 for w in weights.values())
    return PreMeasure(
        universe,
        lambda e: sum((weights.get(p, Fraction(0)) for p in e.points), Fraction(0)),
        name=name or ("signed_weights" if signed else "counting"),
        signed=signed,
    )


class OverlapError(ValueError):
    def __init__(self, witness):
        super().__init__(f"parts overlap at {witness!r}")
        self.witness = witness


def check_additivity(mu: PreMeasure, parts) -> dict:
    """Compare mu(union of parts) against the sum of mu(part).

    Parts must be pairwise disjoint; an overlap raises :class:`OverlapError`
    with a witnessing point.  The two sides are compared exactly.
    """
    parts = list(parts)
    if not parts:
        return {"lhs": ExtReal(0).to_json(), "rhs": ExtReal(0).to_json(), "pass": True}
    for x, y in itertools.combinations(parts, 2):
        inter = intersect(x, y)
        if not inter.is_empty:
            raise OverlapError(inter.witness_point())
    total = parts[0]
    for p in parts[1:]:
        total = union(total, p)
    lhs = mu(total)
    rhs = ExtReal(0)
    for p in parts:
        rhs = rhs + mu(p)
    return {"lhs": lhs.to_json(), "rhs": rhs.to_json(), "pass": lhs == rhs}
