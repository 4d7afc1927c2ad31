"""Extended rational values: exact rationals plus +inf / -inf tags.

The only non-obvious rule is that the sum of opposite infinities is 0.
That convention makes addition total, which the rest of the library
relies on (sums of function values never raise).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from numbers import Rational


@total_ordering
class ExtReal:
    """An element of the extended rational line.

    Immutable. ``value`` is a ``Fraction`` when finite, otherwise the
    instance is one of the two infinity tags (``POS_INF`` / ``NEG_INF``).
    """

    __slots__ = ("_value", "_sign")

    def __init__(self, value=0, _sign: int = 0):
        if _sign not in (-1, 0, 1):
            raise ValueError("infinity sign must be -1, 0, or 1")
        self._sign = _sign
        if _sign:
            self._value = None
        else:  # a Fraction is immutable, so one passed in is kept as is
            self._value = value if type(value) is Fraction else Fraction(value)

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(v) -> ExtReal:
        if isinstance(v, ExtReal):
            return v
        return ExtReal(v)

    # -- predicates ---------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._sign == 0

    @property
    def value(self) -> Fraction:
        if self._sign != 0:
            raise ValueError("infinite ExtReal has no finite value")
        return self._value

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> ExtReal:
        other = ExtReal.of(other)
        if self._sign == 0 and other._sign == 0:
            return ExtReal(self._value + other._value)
        if self._sign != 0 and other._sign != 0:
            if self._sign != other._sign:
                return ExtReal(0)  # opposite infinities cancel to 0
            return self
        return self if self._sign != 0 else other

    __radd__ = __add__

    def __neg__(self) -> ExtReal:
        if self._sign == 0:
            return ExtReal(-self._value)
        return ExtReal(_sign=-self._sign)

    def __sub__(self, other) -> ExtReal:
        return self + (-ExtReal.of(other))

    def __mul__(self, other) -> ExtReal:
        other = ExtReal.of(other)
        if self._sign == 0 and other._sign == 0:
            return ExtReal(self._value * other._value)
        # 0 * inf = 0, the measure-theory convention
        if (self._sign == 0 and self._value == 0) or (
            other._sign == 0 and other._value == 0
        ):
            return ExtReal(0)
        sa = self._sign if self._sign != 0 else (1 if self._value > 0 else -1)
        sb = other._sign if other._sign != 0 else (1 if other._value > 0 else -1)
        return ExtReal(_sign=sa * sb)

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------

    def _key(self):
        return (self._sign, self._value if self._sign == 0 else 0)

    def __eq__(self, other):
        if isinstance(other, (ExtReal, Rational, int)):
            return self._key() == ExtReal.of(other)._key()
        return NotImplemented

    def __lt__(self, other):
        other = ExtReal.of(other)
        if self._sign != other._sign:
            return self._sign < other._sign
        if self._sign == 0:
            return self._value < other._value
        return False

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self._sign == 1:
            return "ExtReal(+inf)"
        if self._sign == -1:
            return "ExtReal(-inf)"
        return f"ExtReal({self._value})"

    def __float__(self) -> float:
        if self._sign == 1:
            return float("inf")
        if self._sign == -1:
            return float("-inf")
        return float(self._value)

    def to_json(self):
        if self._sign == 1:
            return "+inf"
        if self._sign == -1:
            return "-inf"
        return [self._value.numerator, self._value.denominator]

    @staticmethod
    def from_json(obj) -> ExtReal:
        if obj == "+inf":
            return POS_INF
        if obj == "-inf":
            return NEG_INF
        num, den = obj
        return ExtReal(Fraction(num, den))


POS_INF = ExtReal(_sign=1)
NEG_INF = ExtReal(_sign=-1)
ZERO = ExtReal(0)


def ext_add(a, b) -> ExtReal:
    """Total addition on the extended line; opposite infinities give 0."""
    return ExtReal.of(a) + ExtReal.of(b)
