"""Length on the line recovered through the extension machinery.

The base lattice here is compactly supported piecewise-linear functions
with rational breakpoints; the trapezoid rule is their exact Riemann
integral, and the ramp sequence climbing to an interval indicator drives
the limit that recovers b - a.  Two such functions are linear between the
union of their breakpoints and zero outside it.  One merge walk over the
two breakpoint lists (``_merged``) therefore decides their order exactly
(``PiecewiseLinear.first_excess``, which the ramp limit's monotonicity
check asks) and builds their sum, meet, join and absolute value
(``pl_lattice_op``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .extension import Direction, IntegralResult, MonotoneSequence, i1_limit
from .extreal import ExtReal
from .lattice import LatticeOp


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function, zero outside [xs[0], xs[-1]].

    Breakpoints strictly increase; the first and last values are 0 so
    the function is continuous with compact support.
    """

    xs: tuple  # Fractions, strictly increasing
    ys: tuple  # Fractions, same length

    @staticmethod
    def of(xs, ys) -> PiecewiseLinear:
        xs = tuple(Fraction(v) for v in xs)
        ys = tuple(Fraction(v) for v in ys)
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must strictly increase")
        if xs and (ys[0] != 0 or ys[-1] != 0):
            raise ValueError("compact support needs zero boundary values")
        return PiecewiseLinear(xs, ys)

    @staticmethod
    def zero() -> PiecewiseLinear:
        return PiecewiseLinear((), ())

    def eval(self, t) -> ExtReal:
        if type(t) is not Fraction:
            t = Fraction(t)
        return ExtReal(_value(self.xs, self.ys, bisect_left(self.xs, t), t))

    def first_excess(self, other: PiecewiseLinear):
        """The least breakpoint t of self or other with self(t) > other(t),
        or None when self <= other everywhere.

        Both functions are linear between their merged breakpoints and 0
        outside them, so the comparison there is exact.
        """
        return next((t for t, f, g in _merged(self, other) if f > g), None)


def _merged(f: PiecewiseLinear, g: PiecewiseLinear):
    """(t, f(t), g(t)) at every breakpoint t of f or g, in increasing order:
    one merge walk over the two sorted lists, interpolating each function
    only at the other's breakpoints."""
    fx, fy, gx, gy = f.xs, f.ys, g.xs, g.ys
    i = j = 0
    while i < len(fx) or j < len(gx):
        if j == len(gx) or (i < len(fx) and fx[i] < gx[j]):
            yield fx[i], fy[i], _value(gx, gy, j, fx[i])
            i += 1
        elif i == len(fx) or gx[j] < fx[i]:
            yield gx[j], _value(fx, fy, i, gx[j]), gy[j]
            j += 1
        else:
            yield fx[i], fy[i], gy[j]
            i += 1
            j += 1


def _value(xs, ys, i, t):
    """The function with breakpoints xs and values ys at t, where
    xs[i - 1] < t <= xs[i]; 0 when i is 0 or len(xs), outside the support."""
    if i == 0 or i == len(xs):
        return 0
    y0, y1 = ys[i - 1], ys[i]
    if y0 == y1:  # a flat piece, such as a ramp's plateau
        return y0
    x0 = xs[i - 1]
    return y0 + (y1 - y0) * (t - x0) / (xs[i] - x0)


def riemann_integral(f: PiecewiseLinear) -> Fraction:
    """Exact trapezoid sum; exact because the integrand is linear per piece."""
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(zip(f.xs, f.ys), zip(f.xs[1:], f.ys[1:])):
        total += Fraction(y0 + y1, 2) * (x1 - x0)
    return total


def ramp_sequence(a, b, n: int) -> PiecewiseLinear:
    """The n-th ramp under chi_(a,b): up on [a, a + (b-a)/2n], plateau at 1,
    down on [b - (b-a)/2n, b].  Increasing in n, integral (b-a)(1 - 1/2n)."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    if n < 1:
        raise ValueError("need n >= 1")
    # a < b orders the breakpoints, so the ramp skips PiecewiseLinear.of
    w = Fraction(b - a, 2 * n)
    zero, one = Fraction(0), Fraction(1)
    if n == 1:  # plateau degenerates to the midpoint: a triangle
        return PiecewiseLinear((a, a + w, b), (zero, one, zero))
    return PiecewiseLinear((a, a + w, b - w, b), (zero, one, one, zero))


_PL_VALUE = {LatticeOp.PLUS: lambda f, g: f + g, LatticeOp.MEET: min,
             LatticeOp.JOIN: max, LatticeOp.ABS: lambda f, _: abs(f)}


def pl_lattice_op(op: LatticeOp, f: PiecewiseLinear,
                  g: PiecewiseLinear | None = None, c=None) -> PiecewiseLinear:
    """Pointwise Plus/Scale/Meet/Join/Abs on piecewise-linear functions.

    One walk over the merged breakpoints of f and g (Abs takes g = 0)
    gives the result's breakpoints and values.  Meet, Join and Abs add a
    breakpoint wherever f - g changes sign between two of them, so the
    result is again exactly piecewise linear.
    """
    if op is LatticeOp.SCALE:
        if c is None:
            raise ValueError("Scale needs c")
        c = Fraction(c)
        if c == 0 or not f.xs:
            return PiecewiseLinear.zero()
        return PiecewiseLinear.of(f.xs, tuple(c * y for y in f.ys))
    if op is LatticeOp.ABS:
        g = PiecewiseLinear.zero()
    elif g is None:
        raise ValueError(f"{op.value} needs a second argument")
    value = _PL_VALUE[op]
    crossings = op is not LatticeOp.PLUS
    pts, ys = [], []
    f0 = d0 = 0
    for t, fv, gv in _merged(f, g):
        d1 = fv - gv
        if crossings and d0 * d1 < 0:  # f - g crosses 0, where f = g (Abs: f = 0)
            s = d0 / (d0 - d1)
            pts.append(pts[-1] + (t - pts[-1]) * s)
            ys.append(f0 + (fv - f0) * s)
        pts.append(t)
        ys.append(value(fv, gv))
        f0, d0 = fv, d1
    return _trim(pts, ys)


def _trim(pts, ys) -> PiecewiseLinear:
    """Drop leading/trailing zero stretches so boundary values are zero;
    pts and ys are lists, shortened in place."""
    while len(pts) > 1 and ys[0] == 0 and ys[1] == 0:
        pts.pop(0)
        ys.pop(0)
    while len(pts) > 1 and ys[-1] == 0 and ys[-2] == 0:
        pts.pop()
        ys.pop()
    if len(pts) <= 1 or all(y == 0 for y in ys):
        return PiecewiseLinear.zero()
    return PiecewiseLinear.of(pts, ys)


def interval_length_via_daniell(a, b, n_max=100) -> IntegralResult:
    """Recover b - a as the limit of ramp integrals, with an exact bracket.

    The tail bound (b-a)/(2n) comes from the closed form of the ramp
    integrals, so the bracket always contains b - a.  Each ramp is
    checked against the next by the exact order of piecewise-linear
    functions.
    """
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    seq = MonotoneSequence(lambda n: ramp_sequence(a, b, n), Direction.INCREASING)
    return i1_limit(
        riemann_integral,
        seq,
        depth=n_max,
        tail_bound=lambda n: Fraction(b - a, 2 * n),
    )
