"""Invariant suites for every module, runnable from the CLI (verify-all)
and reused by the test suite.

Each suite returns a list of {"name", "pass", ...} records, drawing its
fuzz cases from a fixed seed of its own.  A record name is unique across
the suites and names one property's only check outside the acceptance
criteria.  Exact checks compare rationals with ==; numeric checks state
their tolerance in the record.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

from .extension import (
    MeasurableFunction,
    indicator_measurable,
    level_set_integral,
    measure_from_integral,
    null_test,
)
from .extreal import ExtReal, NEG_INF, POS_INF, ext_add
from .functional import (
    ElementaryIntegral,
    SignedFunctional,
    jordan_decompose,
    positive_part,
    positive_part_bruteforce,
    splus,
)
from .fuzz import (
    random_fraction,
    random_interval_ringset,
    random_nonneg_simple_function,
    random_simple_function,
)
from .lattice import (
    LatticeOp,
    SimpleFunction,
    absolute,
    canonicalize,
    join,
    meet,
)
from .lebesgue import (
    PiecewiseLinear,
    interval_length_via_daniell,
    pl_lattice_op,
    ramp_sequence,
    riemann_integral,
)
from .rings import (
    BooleanOp,
    OverlapError,
    RingSet,
    Universe,
    boolean_combine,
    check_additivity,
    length_premeasure,
    weighted_counting_premeasure,
)


def _record(name, ok, **detail):
    return {"name": name, "pass": bool(ok), **detail}


def _set_partitions(items):
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield part + [[first]]


# -- rings ------------------------------------------------------------------


def rings_suite(quick=False):
    rng = random.Random(0)
    out = []

    labels = tuple("abcdef"[: 4 if quick else 6])
    u = Universe.finite(labels)
    subsets = [RingSet.finite(u, c)
               for k in range(len(labels) + 1)
               for c in itertools.combinations(labels, k)]
    ok = True
    for a, b in itertools.product(subsets, repeat=2):
        for op, pyop in ((BooleanOp.UNION, lambda p, q: p or q),
                         (BooleanOp.INTERSECT, lambda p, q: p and q),
                         (BooleanOp.DIFFERENCE, lambda p, q: p and not q)):
            got = boolean_combine(op, a, b)
            for t in labels:
                if got.contains(t) != pyop(a.contains(t), b.contains(t)):
                    ok = False
    out.append(_record("rings.boolean_pointwise_exhaustive", ok,
                       universe_size=len(labels)))

    ok = True
    for _ in range(50 if quick else 300):
        s = random_interval_ringset(rng)
        again = RingSet.from_intervals(s.intervals)
        if again != s:
            ok = False
    out.append(_record("rings.canonical_idempotent", ok))

    ok = True
    base = list("abcde")
    u5 = Universe.finite(tuple(base))
    # unit weights; the full suite adds the weights (i + 1)/3
    mus = [weighted_counting_premeasure(u5)]
    if not quick:
        mus.append(weighted_counting_premeasure(
            u5, {lab: Fraction(i + 1, 3) for i, lab in enumerate(base)}))
    count = 0
    for part in _set_partitions(base):
        parts = [RingSet.finite(u5, block) for block in part]
        for mu in mus:
            ok = ok and check_additivity(mu, parts)["pass"]
        count += 1
    out.append(_record("rings.counting_additivity_all_partitions", ok,
                       partitions=count))

    length = length_premeasure()
    ok = True
    for _ in range(30 if quick else 200):
        a = random_interval_ringset(rng)
        b = random_interval_ringset(rng)
        b = boolean_combine(BooleanOp.DIFFERENCE, b, a)
        rep = check_additivity(length, [a, b])
        ok = ok and rep["pass"]
    out.append(_record("rings.length_additivity_fuzz", ok))

    try:
        check_additivity(length, [RingSet.interval(0, 2), RingSet.interval(1, 3)])
        ok = False
    except OverlapError as exc:
        ok = exc.witness == Fraction(1)
    out.append(_record("rings.overlap_witness", ok))
    return out


# -- lattice ----------------------------------------------------------------


def _line_points(*fns):
    """The endpoints of the functions' intervals, their midpoints and one
    point beyond each end: simple functions on the line are constant
    between consecutive endpoints, so comparing them there is exact."""
    ends = sorted({e for f in fns for _, s in f.terms
                   for iv in s.intervals for e in iv}) or [Fraction(0)]
    return [ends[0] - 1, ends[-1] + 1, *ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))]


def lattice_suite(quick=False):
    rng = random.Random(1)
    out = []

    labels = tuple("abcdef"[: 4 if quick else 6])
    u = Universe.finite(labels)
    ok = True
    for _ in range(100 if quick else 500):
        x = random_simple_function(rng, u)
        xc = canonicalize(x)
        sets = [s for _, s in xc.terms]
        for s1, s2 in itertools.combinations(sets, 2):
            if not boolean_combine(BooleanOp.INTERSECT, s1, s2).is_empty:
                ok = False
        for t in labels:
            if x.eval(t) != xc.eval(t):
                ok = False
    out.append(_record("lattice.canonicalize_pointwise_exhaustive", ok,
                       universe_size=len(labels)))

    line = Universe.real_line()
    ok = True
    for _ in range(30 if quick else 150):
        x = random_simple_function(rng, line)
        y = random_simple_function(rng, line)
        lhs = join(x, y)
        rhs = (x + y + absolute(x - y)).scale(Fraction(1, 2))
        low = meet(x, y)
        for t in _line_points(x, y):
            xv, yv = x.eval(t), y.eval(t)
            if not lhs.eval(t) == rhs.eval(t) == max(xv, yv):
                ok = False
            if low.eval(t) != min(xv, yv):
                ok = False
    out.append(_record("lattice.join_identity_and_meet_pointwise", ok))

    cases = [
        (ext_add(POS_INF, NEG_INF), ExtReal(0)),
        (ext_add(NEG_INF, POS_INF), ExtReal(0)),
        (ext_add(POS_INF, 5), POS_INF),
        (ext_add(ExtReal(1), ExtReal(2)), ExtReal(3)),
    ]
    ok = all(a == b for a, b in cases)
    for _ in range(50):
        a = rng.choice([POS_INF, NEG_INF, ExtReal(random_fraction(rng))])
        b = rng.choice([POS_INF, NEG_INF, ExtReal(random_fraction(rng))])
        if ext_add(a, b) != ext_add(b, a) or ext_add(a, ExtReal(0)) != a:
            ok = False
    out.append(_record("lattice.ext_add_convention", ok))

    # the exact order test against pointwise comparison; full size only,
    # so the quick suite's output stays as it was
    if not quick:
        ok = True
        for universe in (u, line):
            for _ in range(150):
                x = random_simple_function(rng, universe)
                y = random_simple_function(rng, universe)
                lo, hi = meet(x, y), join(x, y)
                points = labels if universe is u else _line_points(x, y)
                xv = [x.eval(t) for t in points]
                yv = [y.eval(t) for t in points]
                lov, hiv = list(map(min, xv, yv)), list(map(max, xv, yv))
                # the pair both ways, an equal pair, and lo <= hi, which
                # fails the other way round unless x = y
                for f, g, fv, gv in ((x, y, xv, yv), (y, x, yv, xv), (x, x, xv, xv),
                                     (lo, hi, lov, hiv), (hi, lo, hiv, lov)):
                    above = [t for t, a, b in zip(points, fv, gv) if a > b]
                    if f.first_excess(g) != min(above, default=None):
                        ok = False
        out.append(_record("lattice.first_excess_is_least_pointwise_excess", ok))
    return out


# -- functional ---------------------------------------------------------------


def _random_signed(rng, size):
    labels = tuple(f"p{i}" for i in range(size))
    u = Universe.finite(labels)
    weights = {lab: random_fraction(rng, -5, 5, max_den=4) for lab in labels}
    return SignedFunctional.of(u, weights)


def functional_suite(quick=False):
    rng = random.Random(2)
    out = []
    cases = 100 if quick else 1000

    ok = True
    for _ in range(cases):
        s = _random_signed(rng, rng.randint(1, 6))
        u = s.universe
        x1 = random_nonneg_simple_function(rng, u)
        x2 = random_nonneg_simple_function(rng, u)
        if positive_part(s, x1 + x2) != positive_part(s, x1) + positive_part(s, x2):
            ok = False
        c = abs(random_fraction(rng, 0, 4))
        if positive_part(s, x1.scale(c)) != c * positive_part(s, x1):
            ok = False
    out.append(_record("functional.P_additive_and_homogeneous", ok))

    ok = True
    for _ in range(cases // 2):
        s = _random_signed(rng, rng.randint(1, 8))
        x = random_nonneg_simple_function(rng, s.universe)
        if positive_part(s, x) != positive_part_bruteforce(s, x):
            ok = False
    out.append(_record("functional.P_closed_form_vs_bruteforce", ok))

    ok = True
    for _ in range(cases):
        s = _random_signed(rng, rng.randint(1, 6))
        dec = jordan_decompose(s)
        x = random_simple_function(rng, s.universe)
        sp = splus(s, x)
        if dec.plus.integrate(x) != sp:
            ok = False
        if dec.plus.integrate(x) - dec.minus.integrate(x) != s(x):
            ok = False
        if dec.plus.integrate(x) + dec.minus.integrate(x) != dec.abs.integrate(x):
            ok = False
        # splitting independence: any x = phi - psi with phi, psi >= 0
        shift = abs(random_fraction(rng, 0, 3))
        phi = join(x, SimpleFunction.zero(s.universe)) + SimpleFunction.indicator(
            RingSet.finite(s.universe, s.universe.labels), shift)
        psi = phi - x
        alt = positive_part(s, phi) - positive_part(s, psi)
        if alt != sp:
            ok = False
    out.append(_record("functional.decomposition_identities", ok))

    ok = True
    length = ElementaryIntegral(length_premeasure())
    for _ in range(cases // 2):
        x = random_simple_function(rng, Universe.real_line())
        raw = sum((c * length.mu(s).value for c, s in canonicalize(x).terms),
                  Fraction(0))
        if length.integrate(x) != raw:
            ok = False
        if abs(length.integrate(x)) > length.integrate(absolute(x)):
            ok = False
    out.append(_record("functional.I_repr_independent_and_S3_with_M_eq_I", ok))
    return out


# -- extension ----------------------------------------------------------------


def extension_suite(quick=False):
    rng = random.Random(3)
    out = []
    cases = 100 if quick else 1000
    labels = tuple("abcde")
    u = Universe.finite(labels)

    def fresh_integral():
        w = {lab: Fraction(rng.randint(0, 5)) for lab in labels}
        return ElementaryIntegral(weighted_counting_premeasure(u, w))

    ok = True
    for _ in range(cases):
        i = fresh_integral()
        x = random_nonneg_simple_function(rng, u)
        n_stab = rng.randint(1, 5)
        seq = [x.scale(Fraction(n, n_stab)) for n in range(1, n_stab + 1)]
        if i.integrate(seq[-1]) != i.integrate(x):
            ok = False
        vals = [i.integrate(f) for f in seq]
        if any(a > b for a, b in zip(vals, vals[1:])):
            ok = False
    out.append(_record("extension.monotone_convergence_stabilizing", ok))

    ok = True
    for _ in range(cases):
        i = fresh_integral()
        a = random_nonneg_simple_function(rng, u)
        b = random_nonneg_simple_function(rng, u)
        if i.integrate(meet(a, b)) > min(i.integrate(a), i.integrate(b)):
            ok = False
    sa = RingSet.finite(u, ("a",))
    sb = RingSet.finite(u, ("b",))
    counting = ElementaryIntegral(weighted_counting_premeasure(u))
    strict = counting.integrate(
        meet(SimpleFunction.indicator(sa), SimpleFunction.indicator(sb))
    ) < min(counting.integrate(SimpleFunction.indicator(sa)),
            counting.integrate(SimpleFunction.indicator(sb)))
    out.append(_record("extension.fatou_with_strict_witness", ok and strict))

    ok = True
    for _ in range(cases):
        i = fresh_integral()
        x = random_simple_function(rng, u)
        z = absolute(x) + random_nonneg_simple_function(rng, u)
        seq = [meet(join(random_simple_function(rng, u), z.scale(-1)), z)
               for _ in range(3)] + [x]
        if i.integrate(seq[-1]) != i.integrate(x):
            ok = False
    out.append(_record("extension.dominated_convergence_stabilizing", ok))

    ok = True
    for _ in range(cases):
        i = fresh_integral()
        x1 = random_simple_function(rng, u)
        x2 = random_simple_function(rng, u)
        # on finite universes the upper functional is attained and equals I
        if i.integrate(x1 + x2) > i.integrate(x1) + i.integrate(x2):
            ok = False
        if all(x1.eval(t) <= x2.eval(t) for t in labels):
            if i.integrate(x1) > i.integrate(x2):
                ok = False
        lhs = i.integrate(join(x1, x2)) + i.integrate(meet(x1, x2))
        if lhs > i.integrate(x1) + i.integrate(x2):
            ok = False
    out.append(_record("extension.upper_functional_subadditive_monotone", ok))

    # null domination + completeness, exhaustive on 5 points
    w = {"a": Fraction(0), "b": Fraction(0), "c": Fraction(1),
         "d": Fraction(2), "e": Fraction(0)}
    i = ElementaryIntegral(weighted_counting_premeasure(u, w))
    null_atoms = {lab for lab, v in w.items() if v == 0}
    ok = True
    for k in range(6):
        for combo in itertools.combinations(labels, k):
            e = RingSet.finite(u, combo)
            is_null, _ = null_test(indicator_measurable(e), i)
            if is_null != set(combo).issubset(null_atoms):
                ok = False
            if is_null:
                for k2 in range(len(combo) + 1):
                    for sub in itertools.combinations(combo, k2):
                        sub_null, _ = null_test(
                            indicator_measurable(RingSet.finite(u, sub)), i)
                        if not sub_null:
                            ok = False
    out.append(_record("extension.null_domination_and_completeness", ok))

    ok = True
    measurable = [RingSet.finite(u, combo)
                  for k in range(6) for combo in itertools.combinations(labels, k)]
    halves = {lab: Fraction(i, 2) for i, lab in enumerate(labels, 1)}
    for mu in (weighted_counting_premeasure(u), weighted_counting_premeasure(u, halves)):
        integral = ElementaryIntegral(mu)
        for e in measurable:
            if measure_from_integral(integral, e) != mu(e):
                ok = False
    for a, b in itertools.product(measurable[:8], repeat=2):
        for op in (BooleanOp.UNION, BooleanOp.DIFFERENCE):
            if boolean_combine(op, a, b) not in measurable:
                ok = False
    out.append(_record("extension.sigma_ring_closure_and_measure", ok))

    length = ElementaryIntegral(length_premeasure())
    x = MeasurableFunction.identity_on(0, 1)
    ok = True
    for n in (1, 2, 4, 8, 10):
        res = level_set_integral(x, length, n_max=n)
        if not (res.lower.value <= Fraction(1, 2) <= res.upper.value):
            ok = False
        if res.upper.value - res.lower.value > Fraction(1, 2**n):
            ok = False
    out.append(_record("extension.level_set_bracket_soundness", ok))
    return out


# -- lebesgue -----------------------------------------------------------------


def lebesgue_suite(quick=False):
    rng = random.Random(4)
    out = []
    cases = 20 if quick else 50

    ok = True
    for _ in range(cases):
        a = random_fraction(rng, -10, 10, max_den=12)
        b = a + (random_fraction(rng, 0, 10, max_den=12) or Fraction(1, 12))
        res = interval_length_via_daniell(a, b)
        width = res.upper.value - res.lower.value  # the tail bound at depth 100
        if not (res.lower.value <= b - a <= res.upper.value and width == (b - a) / 200):
            ok = False
        for n in (1, 2, 5, 8, 12):
            f = ramp_sequence(a, b, n)
            if not riemann_integral(f) == _trapezoid(f) == (b - a) * (1 - Fraction(1, 2 * n)):
                ok = False
    out.append(_record("lebesgue.interval_recovery_and_ramp_integrals", ok))

    ok = True
    length = ElementaryIntegral(length_premeasure())
    for _ in range(cases):
        pieces = []
        for _ in range(rng.randint(1, 3)):
            a = random_fraction(rng, -4, 4, max_den=4)
            w = max(random_fraction(rng, 0, 3, max_den=4), Fraction(1, 4))
            pieces.append((a, a + w))
        for e in (random_interval_ringset(rng), RingSet.from_intervals(pieces)):
            if e.is_empty:
                continue
            exact = length.mu(e).value
            res = level_set_integral(indicator_measurable(e), length)
            if not (res.lower.value <= exact <= res.upper.value):
                ok = False
            if measure_from_integral(length, e) != ExtReal(exact):
                ok = False
    out.append(_record("lebesgue.measure_from_integral_matches_length", ok))

    ok = True
    pairs = [(PiecewiseLinear.of([0, 1, 2], [0, 2, 0]),
              PiecewiseLinear.of([0, 2, 4], [0, 1, 0]))]
    pairs += [(_random_pl(rng), _random_pl(rng)) for _ in range(cases)]
    for f, g in pairs:
        h_meet = pl_lattice_op(LatticeOp.MEET, f, g)
        h_join = pl_lattice_op(LatticeOp.JOIN, f, g)
        h_sum = pl_lattice_op(LatticeOp.PLUS, f, g)
        # all five are linear between consecutive breakpoints of any of
        # them, so the breakpoints, midpoints and quarter points are exact
        ends = sorted({t for p in (f, g, h_meet, h_join, h_sum) for t in p.xs})
        probes = [ends[0] - 1, ends[-1] + 1, *ends]
        for a, b in zip(ends, ends[1:]):
            probes += [(a + b) / 2, (3 * a + b) / 4]
        for t in probes:
            fv, gv = f.eval(t).value, g.eval(t).value
            if h_meet.eval(t).value != min(fv, gv):
                ok = False
            if h_join.eval(t).value != max(fv, gv):
                ok = False
            if h_sum.eval(t).value != fv + gv:
                ok = False
    out.append(_record("lebesgue.pl_ops_pointwise", ok))

    # (D2): decreasing ramps scaled down have integrals sinking below any tol
    ok = True
    for n in (1, 2, 4, 8, 16, 64):
        f = pl_lattice_op(LatticeOp.SCALE, ramp_sequence(0, 1, 1), c=Fraction(1, n))
        if riemann_integral(f) != Fraction(1, 2 * n):
            ok = False
    out.append(_record("lebesgue.d2_decreasing_sequence", ok))
    return out


def _trapezoid(f):
    """The trapezoid rule on f's own breakpoints, exact for piecewise-linear f."""
    return sum(((x1 - x0) * (y0 + y1) / 2
                for x0, x1, y0, y1 in zip(f.xs, f.xs[1:], f.ys, f.ys[1:])), Fraction(0))


def _random_pl(rng):
    k = rng.randint(2, 5)
    xs = sorted({random_fraction(rng, -5, 5, max_den=7) for _ in range(k + 2)})
    if len(xs) < 2:
        xs = [Fraction(0), Fraction(1)]
    ys = [Fraction(0)] + [random_fraction(rng, -4, 4) for _ in xs[1:-1]] + [Fraction(0)]
    return PiecewiseLinear.of(xs, ys)


# -- wiener -------------------------------------------------------------------


def wiener_suite(quick=False):
    from . import wiener as wmod

    rng = random.Random(5)
    out = []

    full = wmod.Cylinder.full_space()
    r = wmod.wiener_premeasure(full, tol=1e-10)
    out.append(_record("wiener.full_space_mass_one",
                       abs(r["value"] - 1.0) < 1e-8, value=r["value"]))

    half = wmod.Cylinder.of((1,), ((( 0.0, wmod.INF),),))
    r = wmod.wiener_premeasure(half, tol=1e-10)
    out.append(_record("wiener.half_line_half",
                       abs(r["value"] - 0.5) < 1e-8, value=r["value"]))

    orthant = wmod.Cylinder.of(
        ("1/2", 1), (((0.0, wmod.INF),), ((0.0, wmod.INF),)))
    r = wmod.wiener_premeasure(orthant, tol=1e-8)
    out.append(_record("wiener.orthant_three_eighths",
                       abs(r["value"] - 0.375) < 1e-6, value=r["value"]))

    r = wmod.wiener_premeasure(full, tol=1e-10, kernel=wmod.Kernel.UNNORMALIZED)
    out.append(_record("wiener.printed_kernel_rsqrt2",
                       abs(r["value"] - 1.0 / math.sqrt(2)) < 1e-8,
                       value=r["value"]))

    ok = True
    for _ in range(3 if quick else 10):
        times = sorted({Fraction(rng.randint(1, 3), 4) for _ in range(2)} | {Fraction(1)})
        cut = rng.uniform(-1, 1)
        j = rng.randrange(len(times))
        sets_a, sets_b = [], []
        for i in range(len(times)):
            if i == j:
                sets_a.append(((-wmod.INF, cut),))
                sets_b.append(((cut, wmod.INF),))
            else:
                s = ((-wmod.INF, rng.uniform(0, 1)),)
                sets_a.append(s)
                sets_b.append(s)
        da = wmod.Cylinder.of(times, sets_a)
        db = wmod.Cylinder.of(times, sets_b)
        du = wmod.Cylinder.of(times, [sa + sb for sa, sb in zip(sets_a, sets_b)])
        tol = 1e-7
        va = wmod.wiener_premeasure(da, tol=tol)["value"]
        vb = wmod.wiener_premeasure(db, tol=tol)["value"]
        vu = wmod.wiener_premeasure(du, tol=tol)["value"]
        if abs(vu - va - vb) > 5e-6:
            ok = False
    # the 4 x 4 grid of boxes at times 1/2 and 1 adds up to the whole space
    cuts = [-wmod.INF, -0.7, 0.2, 1.1, wmod.INF]
    boxes = [wmod.Cylinder.of(("1/2", 1), (((a, b),), ((c, d),)))
             for a, b in zip(cuts, cuts[1:]) for c, d in zip(cuts, cuts[1:])]
    total = sum(wmod.wiener_premeasure(d, tol=1e-10)["value"] for d in boxes)
    out.append(_record("wiener.finite_additivity_same_partition",
                       ok and abs(total - 1.0) < 1e-7))

    ok = True
    pairs = [(wmod.Cylinder.of(("1/2", 1), (((0.0, wmod.INF),), wmod.FULL_LINE)),
              wmod.Cylinder.of(("3/4", 1), (((-1.0, 1.0),), ((-wmod.INF, 0.5),))))]
    pairs += [(_random_cylinder(rng), _random_cylinder(rng))
              for _ in range(3 if quick else 10)]
    for case, (d1, d2) in enumerate(pairs):
        inter = wmod.cylinder_combine(BooleanOp.INTERSECT, d1, d2)
        diff = wmod.cylinder_combine(BooleanOp.DIFFERENCE, d1, d2)
        times = sorted(set(d1.times) | set(d2.times))
        for row in wmod.sample_paths(times, 3000, seed=500 + case):
            path = dict(zip(times, row))
            m1, m2 = d1.contains(path), d2.contains(path)
            if any(c.contains(path) for c in inter) != (m1 and m2):
                ok = False
            # a path lies in at most one member of the difference family
            hits = sum(c.contains(path) for c in diff)
            if hits > 1 or (hits == 1) != (m1 and not m2):
                ok = False
    out.append(_record("wiener.ring_closure_vs_path_oracle", ok))

    ok = True
    for case in range(3 if quick else 20):
        d = _random_cylinder(rng)
        q = wmod.wiener_premeasure(d, tol=1e-8)
        mc = wmod.wiener_premeasure(d, method=wmod.Method.MONTE_CARLO,
                                    seed=case, paths=200_000)
        if abs(q["value"] - mc["value"]) > 4 * max(mc["stderr"], 1e-4):
            ok = False
    out.append(_record("wiener.quadrature_vs_monte_carlo", ok))
    return out


def _random_cylinder(rng):
    """A cylinder of 2-6 times in eighths: rays or bounded intervals."""
    from . import wiener as wmod

    k = rng.randint(1, 5)
    times = sorted(rng.sample([Fraction(i, 8) for i in range(1, 8)], k)) + [Fraction(1)]
    sets = []
    for _ in times:
        lo = rng.uniform(-2, 1)
        hi = lo + rng.uniform(0.3, 3)
        if rng.random() < 0.3:
            sets.append(((lo, wmod.INF),))
        elif rng.random() < 0.3:
            sets.append(((-wmod.INF, hi),))
        else:
            sets.append(((lo, hi),))
    return wmod.Cylinder.of(times, sets)


# -- dirichlet ----------------------------------------------------------------


def dirichlet_suite(quick=False):
    import numpy as np

    from . import dirichlet as dmod

    rng = random.Random(6)
    out = []
    h = 1.0 / 32.0 if quick else 1.0 / 128.0
    cfg = dmod.SolveConfig(domain=dmod.DiskDomain(h=h))
    pts = [(0.0, 0.0), (0.3, 0.1), (-0.5, 0.2), (0.0, 0.7), (0.25, -0.6), (0.5, 0.0),
           (0.2, 0.3), (-0.4, -0.4), (0.0, -0.7), (0.3, 0.4), (-0.6, 0.1), (0.2, -0.2)]

    ok = True
    for c in (1.0, 2.5):
        for p in pts:
            v, _ = dmod.ix_eval(p, dmod.BoundaryFunction.constant(c), cfg)
            if abs(v - c) > 1e-6:
                ok = False
    out.append(_record("dirichlet.constant_data", ok))

    err = max(abs(dmod.ix_eval(p, dmod.BoundaryFunction(np.cos), cfg)[0] - p[0])
              for p in pts)  # u = r cos(theta) = x
    out.append(_record("dirichlet.cos_theta_closed_form", err < 30 * h * h,
                       max_err=err, h=h))

    # the grid answer weighs the data at the nodes by the discrete harmonic
    # measure, which makes the order test of a monotone limit exact there
    square = dmod.SolveConfig(domain=dmod.DiskDomain(dmod.Shape.UNIT_SQUARE, h))
    least, mass_err = math.inf, 0.0
    for p in pts:  # the square takes each point mapped by p -> (1 + p) / 2
        for q, rule_cfg in ((p, cfg), (((1 + p[0]) / 2, (1 + p[1]) / 2), square)):
            _, w = dmod._rule(q, rule_cfg)
            least, mass_err = min(least, float(np.min(w))), max(mass_err, abs(float(np.sum(w)) - 1))
    out.append(_record("dirichlet.grid_weights_nonnegative_mass_one",
                       least >= 0 and mass_err <= 1e-12, min_weight=least, mass_err=mass_err))

    ok = True
    for case in range(10 if quick else 50):
        gf = _random_trig_boundary(rng)
        field = dmod.solve_dirichlet(cfg.domain, gf)
        if field.interior_max() > field.boundary_max() + 1e-9:
            ok = False
        if field.residual > 1e-6:
            ok = False
    out.append(_record("dirichlet.maximum_principle_fuzz", ok))

    ok = True
    for case in range(5 if quick else 20):
        gf = _random_trig_boundary(rng, nonneg=True)
        vals = []
        for n in (1, 2, 4, 8):
            scaled = dmod.BoundaryFunction(
                lambda s, gf=gf, n=n: np.asarray(gf(s)) / n)
            v, _ = dmod.ix_eval((0.1, 0.2), scaled, cfg)
            vals.append(v)
        if any(b > a + 1e-9 for a, b in zip(vals, vals[1:])):
            ok = False
        bound = max(float(np.max(np.asarray(gf(np.linspace(0, 2 * math.pi, 257))))), 0.0)
        if any(v > bound / n + 1e-9 for v, n in zip(vals, (1, 2, 4, 8))):
            ok = False
    out.append(_record("dirichlet.d2_decreasing_data", ok))

    res = dmod.harmonic_measure_of_arc((0.0, 0.0), 0.0, math.pi, cfg)
    out.append(_record("dirichlet.half_circle_measure_center",
                       abs(res["value"] - 0.5) < 1e-3, value=res["value"]))
    res = dmod.harmonic_measure_of_arc((0.0, 0.0), 0.0, math.pi / 3, cfg)
    out.append(_record("dirichlet.sixth_arc_measure_center",
                       abs(res["value"] - 1.0 / 6.0) < 1e-3, value=res["value"]))

    ok = True
    wos_cfg = dmod.SolveConfig(domain=cfg.domain, solver=dmod.Solver.WALK_ON_SPHERES,
                               walks=20_000 if quick else 100_000)
    for case in range(3 if quick else 10):
        gf = _random_trig_boundary(rng)
        p = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        vg, _ = dmod.ix_eval(p, gf, cfg)
        vw, se = dmod.ix_eval(p, gf, dataclasses.replace(wos_cfg, seed=case))
        if abs(vg - vw) > 3 * se + 30 * h * h:
            ok = False
    out.append(_record("dirichlet.grid_vs_wos", ok))
    return out


def _random_trig_boundary(rng, nonneg=False):
    import numpy as np

    from . import dirichlet as dmod

    coeffs = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
    c0 = rng.uniform(0, 1)
    # shifting by the coefficient l1 norm keeps the data nonnegative
    shift = abs(c0) + sum(abs(a) + abs(b) for a, b in coeffs) + 0.1 if nonneg else 0.0

    def f(s):
        s = np.asarray(s, dtype=float)
        return shift + c0 + sum(a * np.cos((k + 1) * s) + b * np.sin((k + 1) * s)
                                for k, (a, b) in enumerate(coeffs))

    return dmod.BoundaryFunction(f)


ALL_SUITES = {
    "rings": rings_suite,
    "lattice": lattice_suite,
    "functional": functional_suite,
    "extension": extension_suite,
    "lebesgue": lebesgue_suite,
    "wiener": wiener_suite,
    "dirichlet": dirichlet_suite,
}


def verify_all(quick=False):
    results = {}
    for name, suite in ALL_SUITES.items():
        results[name] = suite(quick=quick)
    return results
