"""The extension engine: monotone limits, dyadic level-set integration,
measure extraction, measurability probes, and simple-function approximation.

Values produced here come with certified brackets.  A monotone limit
proves its terms monotone by their exact order test (``first_excess``),
with no sample points.  The dyadic scheme integrates a nonnegative
function x through its level sets E_{k,n} = {t : x(t) > k 2^-n}: the
partial sum

    S_n = 2^-n * sum_{k=1}^{2^(2n)} mu(E_{k,n})

increases to the integral, and the defect x - phi_n is < 2^-n on the
support wherever x <= 2^n, which yields the bracket width
2^-n * mu(support).  Where x exceeds 2^n on a set of positive measure
at the last depth, the sum is cut off and no upper bound follows: the
result then has upper = +inf and is not converged.

The level sets nest, E_{k+1,n} inside E_{k,n}, so two equal sets E_{k,n}
= E_{k',n} force every set between them to equal them too.  The sum is
therefore taken over runs of equal sets (``_level_runs``): each run is
found by galloping and bisection over k (level by level up to k = 32,
where the nesting spot-check reaches), and its set is measured once,
counted as often as the run is long.  Equal ring sets have equal
measure, so the run sum is the level-by-level sum exactly.

Two kinds of function skip the walk and sum their levels in closed form:
a simple function (one built by ``from_simple``) counts the levels below
each canonical value, under any premeasure; and x(t) = t on [a, b), built
by ``identity_on``, under the length premeasure itself (recognized by
identity, since ``length_premeasure()`` returns one instance), where
mu(E_{k,n}) = b - max(a, k 2^-n) makes S_n an arithmetic series.  Under
any other premeasure ``identity_on`` takes the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .extreal import ExtReal, POS_INF
from .functional import ElementaryIntegral, NonMonotoneSequence
from .lattice import SimpleFunction, canonicalize, level_set
from .rings import BooleanOp, RingSet, Universe, boolean_combine, length_premeasure

DEFAULT_LEVEL_DEPTH = 16
DEFAULT_SEQ_DEPTH = 1000
DEFAULT_CEILING = Fraction(10**9)
CAUCHY_TOL = Fraction(1, 10**6)
# levels k <= NEST_CHECK_TOP are checked for nesting as they are asked for
NEST_CHECK_TOP = 32


class Direction(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"


class MonotoneSequence:
    """A lazily generated monotone sequence of integrands.

    ``generator`` maps n >= 1 to a term with an exact order test:
    ``x.first_excess(y)`` is a point where x > y, or None when x <= y
    everywhere.  ``SimpleFunction`` (ring-set indicators included) and
    ``PiecewiseLinear`` have one, so monotonicity is proved, not sampled;
    a violation is a hard error.
    """

    def __init__(self, generator, direction: Direction):
        self.generator = generator
        self.direction = direction
        self._cache = {}

    def term(self, n):
        if n not in self._cache:
            self._cache[n] = self.generator(n)
        return self._cache[n]

    def check_monotone(self, depth):
        """Compare terms 1..depth pairwise by the terms' exact order test."""
        prev = self.term(1)
        for n in range(2, depth + 1):
            cur = self.term(n)
            if self.direction is Direction.INCREASING:
                t = prev.first_excess(cur)
            else:
                t = cur.first_excess(prev)
            if t is not None:
                raise NonMonotoneSequence(n, t)
            prev = cur


@dataclass(frozen=True)
class IntegralResult:
    """A numeric value with a certified bracket [lower, upper]."""

    value: ExtReal
    lower: ExtReal
    upper: ExtReal
    depth_used: int
    converged: bool

    def __post_init__(self):
        if not (self.lower <= self.value <= self.upper):
            raise ValueError("bracket does not contain the value")

    def to_json(self):
        return {
            "value": self.value.to_json(),
            "lower": self.lower.to_json(),
            "upper": self.upper.to_json(),
            "depth": self.depth_used,
            "converged": self.converged,
        }


def i1_limit(integrate, seq: MonotoneSequence, depth=DEFAULT_SEQ_DEPTH,
             tail_bound=None) -> IntegralResult:
    """Limit of I(x_n) along an increasing sequence, with a bracket.

    Terms 1..depth (depth >= 1) are checked for monotonicity, and the
    last two are integrated.  The lower end is I(x_depth); the upper end
    is I(x_depth) + tail_bound(depth) when ``tail_bound`` (n -> bound on
    limit - I(x_n)) is given, and +inf otherwise, since no finite window
    of the sequence bounds its limit.  ``converged`` says that a tail
    bound certifies the bracket and the last two values differ by less
    than CAUCHY_TOL.  Without a tail bound, a last value past
    DEFAULT_CEILING that has not stabilized is reported as +inf.
    """
    if seq.direction is not Direction.INCREASING:
        raise ValueError("i1_limit expects an increasing sequence")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    seq.check_monotone(depth)
    last = Fraction(integrate(seq.term(depth)))
    stabilized = depth >= 2 and (
        abs(last - Fraction(integrate(seq.term(depth - 1)))) < CAUCHY_TOL)
    if tail_bound is not None:
        upper = ExtReal(last + Fraction(tail_bound(depth)))
        return IntegralResult(ExtReal(last), ExtReal(last), upper, depth, stabilized)
    value = POS_INF if last > DEFAULT_CEILING and not stabilized else ExtReal(last)
    return IntegralResult(value, ExtReal(last), POS_INF, depth, False)


class LevelSetNestingError(ValueError):
    pass


class MeasurableFunction:
    """A nonnegative function given through its dyadic level-set oracle.

    ``level_set_oracle(k, n)`` returns the ring set {t : x(t) > k 2^-n}.
    ``support`` is a ring set containing {x > 0} whose measure bounds the
    bracket width.  ``simple`` is x itself when x is simple, and
    ``identity`` is (a, b) when x is t on [a, b) and 0 elsewhere; either
    lets ``level_set_integral`` sum the levels in closed form.
    """

    def __init__(self, evaluator, level_set_oracle, support: RingSet,
                 simple: SimpleFunction | None = None, identity: tuple | None = None):
        self.evaluator = evaluator
        self._oracle = level_set_oracle
        self.support = support
        self.simple = simple
        self.identity = identity
        self._checked = set()
        self._last = None  # ((k, n), E_{k,n}) of the last level asked for

    def eval(self, t) -> ExtReal:
        return ExtReal.of(self.evaluator(t))

    def level_set(self, k: int, n: int) -> RingSet:
        e = self._oracle(k, n)
        # spot-check the nesting invariants the dyadic scheme relies on
        # (bounded k so deep sweeps stay cheap; a walk in order of k
        # compares with the set it asked for last)
        if (k, n) not in self._checked and 2 <= k <= NEST_CHECK_TOP:
            last = self._last
            prev = last[1] if last and last[0] == (k - 1, n) else self._oracle(k - 1, n)
            if not e.subset_of(prev):
                raise LevelSetNestingError(f"E_{k},{n} not inside E_{k-1},{n}")
            self._checked.add((k, n))
        self._last = ((k, n), e)
        return e

    @staticmethod
    def from_simple(x: SimpleFunction) -> MeasurableFunction:
        xc = canonicalize(x)
        if any(c < 0 for c, _ in xc.terms):
            raise ValueError("from_simple needs a nonnegative function")
        supp = level_set(xc, 0)
        return MeasurableFunction(
            evaluator=lambda t: xc.eval(t),
            level_set_oracle=lambda k, n: level_set(xc, Fraction(k, 2**n)),
            support=supp,
            simple=xc,
        )

    @staticmethod
    def identity_on(a, b) -> MeasurableFunction:
        """x(t) = t on [a, b), 0 elsewhere;  0 <= a < b.

        Level sets are half-open intervals; the boundary point of the
        strict inequality has length zero, so the closed-end realization
        is measure-equivalent.
        """
        a, b = Fraction(a), Fraction(b)
        if not 0 <= a < b:
            raise ValueError("need 0 <= a < b")
        supp = RingSet.interval(a, b)

        def oracle(k, n):
            thr = Fraction(k, 2**n)
            lo = max(a, thr)
            if lo >= b:
                return RingSet.empty(Universe.real_line())
            return RingSet.interval(lo, b)

        return MeasurableFunction(
            evaluator=lambda t: Fraction(t) if a <= Fraction(t) < b else Fraction(0),
            level_set_oracle=oracle,
            support=supp,
            identity=(a, b),
        )

    def meet_with_simple(self, phi: SimpleFunction) -> MeasurableFunction:
        """The pointwise minimum phi ^ x, for nonnegative phi."""
        phic = canonicalize(phi)

        def oracle(k, n):
            thr = Fraction(k, 2**n)
            return boolean_combine(
                BooleanOp.INTERSECT, level_set(phic, thr), self._oracle(k, n)
            )

        return MeasurableFunction(
            evaluator=lambda t: min(phic.eval(t), self.eval(t)),
            level_set_oracle=oracle,
            support=boolean_combine(BooleanOp.INTERSECT, self.support,
                                    level_set(phic, 0)),
        )


def dyadic_levels(x: MeasurableFunction, n: int):
    """The level sets (E_{1,n}, ..., E_{2^(2n),n}) at depth n.

    The list is truncated at the first empty set (levels nest downward,
    so all later sets are empty too); callers treat missing entries as
    empty.
    """
    out = []
    for k in range(1, 2 ** (2 * n) + 1):
        e = x.level_set(k, n)
        if e.is_empty:
            break
        out.append(e)
    return out


def _level_runs(x: MeasurableFunction, n: int):
    """The nonempty level sets at depth n as maximal runs of equal sets.

    Yields (count, E, last) for E = E_{k,n} = ... = E_{k+count-1,n},
    in increasing k, where ``last`` says that the run reaches the top
    level k = 2^(2n).  The walk asks for every level k <= NEST_CHECK_TOP
    in turn, so each of them passes ``x.level_set``'s nesting check.
    Above that, from the first level k of a run it gallops (k+1, k+3,
    k+7, ...) while the set stays equal, then bisects for the last equal
    index; the first set that differs starts the next run, and an empty
    set ends the walk.  Nesting makes the run between two equal sets
    constant, so with d distinct nonempty sets the walk asks
    ``x.level_set`` for at most d * (4n + 2) + NEST_CHECK_TOP sets.
    """
    top = 4**n
    k, e = 1, x.level_set(1, n)
    while not e.is_empty:
        same, step, nxt = k, 1, None  # E_same == e; nxt = E_differ
        while k + step <= top:
            f = x.level_set(k + step, n)
            if f != e:
                nxt = f
                break
            same = k + step
            step = step + 1 if same < NEST_CHECK_TOP else 2 * step + 1
        differ = min(k + step, top + 1)
        while differ - same > 1:
            mid = (same + differ) // 2
            f = x.level_set(mid, n)
            if f == e:
                same = mid
            else:
                differ, nxt = mid, f
        last = differ > top
        yield same - k + 1, e, last
        if last:
            return
        k, e = differ, nxt


def level_set_integral(x: MeasurableFunction, i: ElementaryIntegral,
                       n_max=DEFAULT_LEVEL_DEPTH) -> IntegralResult:
    """Integral of nonnegative x via the dyadic level-set sum S_n_max.

    Only depth n_max is evaluated (n_max >= 1): S_n_max is the lower end
    and 2^-n_max * mu(support) the bracket width.  The upper end is +inf
    when the sum is cut off at k = 2^(2n) with mass above it, and the
    value is +inf when a level set has infinite measure.

    Two closed forms ask for no level set: a simple x (``x.simple``)
    sums its canonical pieces under any premeasure, and an x from
    ``identity_on`` (``x.identity``) sums an arithmetic series when the
    premeasure is ``length_premeasure()`` itself.  Any other x, and
    ``identity_on`` under any other premeasure, is summed over runs of
    equal level sets (``_level_runs``): a run of count equal sets adds
    count * mu(E), which is exactly the sum of its levels, since the sets
    are equal; the sum is cut off when the last run reaches k = 2^(2n)
    with positive measure.  All three give the level-by-level sum exactly.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if x.simple is not None:
        level_sum = _simple_level_sum(x.simple, i, n_max)
    elif x.identity is not None and i.mu is length_premeasure():
        level_sum = _identity_level_sum(*x.identity, n_max)
    else:
        level_sum = _generic_level_sum(x, i, n_max)
    if level_sum is None:
        return IntegralResult(POS_INF, ExtReal(0), POS_INF, n_max, False)
    total, truncated = level_sum
    s_n = Fraction(1, 2**n_max) * total
    if truncated:
        return IntegralResult(ExtReal(s_n), ExtReal(s_n), POS_INF, n_max, False)
    supp_measure = i.mu(x.support)
    if not supp_measure.is_finite:
        raise ValueError("support has infinite measure; no finite bracket")
    gap = Fraction(1, 2**n_max) * supp_measure.value
    return IntegralResult(
        ExtReal(s_n), ExtReal(s_n), ExtReal(s_n + gap), n_max, True
    )


def _generic_level_sum(x: MeasurableFunction, i: ElementaryIntegral, n: int):
    """(sum_k mu(E_{k,n}), truncated) over the runs of equal level sets;
    None when a level set has infinite measure."""
    total = Fraction(0)
    truncated = False
    for count, e, last in _level_runs(x, n):
        m = i.mu(e)
        if not m.is_finite:
            return None
        total += count * m.value
        truncated = last and m.value > 0
    return total, truncated


def _simple_level_sum(xc: SimpleFunction, i: ElementaryIntegral, n: int):
    """(sum_k mu(E_{k,n}), truncated) for canonical simple xc, the sum
    collapsed analytically.

    The canonical pieces are disjoint, so each piece S with value c
    contributes mu(S) for every k with k 2^-n < c, i.e. for
    min(2^(2n), #{k : k < c 2^n}) values of k.  ``truncated`` says that
    a piece of positive measure lies above the last level 2^n.  Returns
    None when a contributing piece has infinite measure.
    """
    cap = 2 ** (2 * n)
    total = Fraction(0)
    truncated = False
    for c, s in canonicalize(xc).terms:
        if c <= 0:
            continue
        v = c * 2**n
        count = v.numerator // v.denominator
        if v.denominator == 1:
            count -= 1  # strict inequality k < v
        if count <= 0:
            continue
        m = i.mu(s)
        if not m.is_finite:
            return None
        truncated = truncated or (count > cap and m.value > 0)
        total += min(count, cap) * m.value
    return total, truncated


def _identity_level_sum(a: Fraction, b: Fraction, n: int):
    """(sum_k mu(E_{k,n}), truncated) for x(t) = t on [a, b) under length,
    in closed form.

    E_{k,n} = [max(a, k 2^-n), b) is nonempty for k < b 2^n, so the levels
    k = 1..K count, K = min(ceil(b 2^n) - 1, 4^n).  The first
    J = min(floor(a 2^n), K) of them are all of [a, b), and levels J+1..K
    add sum_k (b - k 2^-n), an arithmetic series.  ``truncated`` says
    that the top level E_{4^n,n} is nonempty, hence of positive length.
    """
    scale = 2**n
    nonempty = -(-b.numerator * scale // b.denominator) - 1  # ceil(b 2^n) - 1
    k = min(nonempty, 4**n)
    j = min(a.numerator * scale // a.denominator, k)
    total = j * (b - a) + (k - j) * b - Fraction(k * (k + 1) - j * (j + 1), 2 * scale)
    return total, nonempty >= 4**n


def indicator_measurable(e: RingSet) -> MeasurableFunction:
    """chi_e as a measurable function (level sets: e below 1, empty above)."""
    return MeasurableFunction.from_simple(SimpleFunction.indicator(e))


def measure_from_integral(i: ElementaryIntegral, e: RingSet,
                          n_max=DEFAULT_LEVEL_DEPTH) -> ExtReal:
    """The measure extracted from the integral: integral of chi_e,
    or +inf when that diverges.

    For ring sets the indicator is itself simple, so the limit of the
    dyadic sums is the exact elementary value; the level-set bracket is
    still computed and must contain it, as a cross-check of the two
    routes.
    """
    x = indicator_measurable(e)
    res = level_set_integral(x, i, n_max=n_max)
    if not res.value.is_finite:
        return POS_INF
    exact = i.integrate(x.simple)
    if not res.lower <= ExtReal(exact) <= res.upper:
        raise ValueError("dyadic bracket excludes the elementary value")
    return ExtReal(exact)


def is_daniell_measurable(x: MeasurableFunction, probes, i: ElementaryIntegral,
                          n_max=DEFAULT_LEVEL_DEPTH) -> dict:
    """Certify phi ^ x integrable for each probe phi from the base lattice.

    x is nonnegative here, so the negative part of phi ^ x is the
    negative part of phi, which is simple and exactly integrable; the
    positive part goes through the level-set bracket.  A probe passes only
    on a certified bracket: one cut off at the last depth, with upper
    bound +inf, is a failure.
    """
    failures = []
    certs = []
    for phi in probes:
        try:
            pos = x.meet_with_simple(phi)
            res = level_set_integral(pos, i, n_max=n_max)
            if not res.value.is_finite:
                failures.append({"probe": phi.to_json(), "reason": "divergent"})
            elif not res.converged:
                failures.append({"probe": phi.to_json(), "certificate": res.to_json(),
                                 "reason": "bracket not certified"})
            else:
                certs.append(res.to_json())
        except (ValueError, LevelSetNestingError) as exc:
            failures.append({"probe": phi.to_json(), "reason": str(exc)})
    return {"pass": not failures, "failures": failures, "certificates": certs}


def null_test(x: MeasurableFunction, i: ElementaryIntegral) -> tuple[bool, dict]:
    """True iff the certified upper bound of the integral of nonnegative x,
    at the default depth, is 0; the bracket comes back as JSON."""
    res = level_set_integral(x, i)
    ok = res.upper.is_finite and res.upper.value == 0
    return ok, res.to_json()


class ApproximationUnreachable(ValueError):
    def __init__(self, achievable):
        super().__init__(f"achievable bound is {achievable}")
        self.achievable = achievable


def approximate_in_t0(x: MeasurableFunction, i: ElementaryIntegral, eps,
                      n_max=DEFAULT_LEVEL_DEPTH) -> SimpleFunction:
    """A simple function within eps of x in the upper-functional gap.

    Returns the dyadic approximant phi_n = 2^-n sum chi_{E_{k,n}}, built
    with one term count * 2^-n * chi_E per run of equal level sets, with n
    chosen so the bracket width 2^-n * mu(support) is below eps and the
    top level E_{4^n,n} = {x > 2^n}, above which phi_n is cut off, is
    null.  Past n_max it raises ApproximationUnreachable.
    """
    eps = Fraction(eps)
    if x.simple is not None:
        return x.simple
    supp = i.mu(x.support)
    if not supp.is_finite:
        raise ValueError("support has infinite measure")
    m = supp.value
    n = 1
    while m > 0 and Fraction(1, 2**n) * m >= eps:
        n += 1
        if n > n_max:
            raise ApproximationUnreachable(Fraction(1, 2**n_max) * m)
    while m > 0 and i.mu(x.level_set(4**n, n)).value > 0:
        n += 1
        if n > n_max:  # mass above 2^n_max: no depth bounds the gap
            raise ApproximationUnreachable(POS_INF)
    universe = x.support.universe
    terms = [(Fraction(count, 2**n), e) for count, e, _ in _level_runs(x, n)]
    return canonicalize(SimpleFunction(universe, tuple(terms)))
