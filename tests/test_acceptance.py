"""Acceptance suite: seven end-to-end criteria with stated tolerances.

Each criterion prints exactly one pass/fail line (to the real stderr, so
the lines survive pytest's capture).  Criterion 5 includes a 10^7-path
Monte-Carlo run and takes about 0.2 s on a 2-vCPU VM.
"""

import functools
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from daniell import dirichlet as dmod
from daniell import verify as vmod
from daniell import wiener as wmod
from daniell.extension import (
    Direction,
    MeasurableFunction,
    MonotoneSequence,
    dyadic_levels,
    i1_limit,
)
from daniell.extreal import ExtReal
from daniell.functional import (
    ElementaryIntegral,
    SignedFunctional,
    jordan_decompose,
    positive_part,
    positive_part_bruteforce,
)
from daniell.lattice import SimpleFunction, absolute
from daniell.lebesgue import (
    interval_length_via_daniell,
    ramp_sequence,
    riemann_integral,
)
from daniell.rings import (
    RingSet,
    Universe,
    length_premeasure,
    weighted_counting_premeasure,
)

LENGTH = ElementaryIntegral(length_premeasure())


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _announce(line):
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, file=sys.stderr, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _announce(f"criterion {num} ({label}): FAIL")
                raise
            _announce(f"criterion {num} ({label}): PASS")

        return wrapped

    return deco


def point_fn(u, values):
    return SimpleFunction.of(
        u, [(Fraction(v), RingSet.finite(u, (lab,))) for lab, v in values.items()]
    )


# -- 1: dyadic level-set integration --------------------------------------------


@criterion(1, "dyadic level-set integration")
def test_criterion_1():
    start = time.perf_counter()
    x = MeasurableFunction.identity_on(0, 1)
    sums = {}
    for n in range(1, 17):
        total = sum((LENGTH.mu(e).value for e in dyadic_levels(x, n)), Fraction(0))
        sums[n] = total / 2**n
    assert sums[1] == Fraction(1, 4)
    assert sums[2] == Fraction(3, 8)
    for n, s in sums.items():
        assert abs(s - Fraction(1, 2)) < Fraction(1, 2**n)
    assert time.perf_counter() - start < 5.0


# -- 2: Lebesgue recovery ---------------------------------------------------------


@criterion(2, "Lebesgue recovery of interval length")
def test_criterion_2():
    rng = random.Random(20)
    for _ in range(50):
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        b = a + Fraction(rng.randint(1, 60), rng.randint(1, 12))
        res = interval_length_via_daniell(a, b)
        assert res.lower <= ExtReal(b - a) <= res.upper
        for n in (1, 2, 5, 11):
            assert riemann_integral(ramp_sequence(a, b, n)) == (b - a) * (
                1 - Fraction(1, 2 * n)
            )


# -- 3: Jordan decomposition --------------------------------------------------------


@criterion(3, "Jordan decomposition")
def test_criterion_3():
    rng = random.Random(30)

    # closed form vs 2^n brute force, universes up to 10 atoms
    for _ in range(200):
        size = rng.randint(1, 10)
        u = Universe.finite(tuple(f"a{i}" for i in range(size)))
        nu = {lab: Fraction(rng.randint(-5, 5)) for lab in u.labels}
        s = SignedFunctional.of(u, nu)
        x = point_fn(u, {lab: Fraction(rng.randint(0, 5)) for lab in u.labels})
        assert positive_part(s, x) == positive_part_bruteforce(s, x)

    # identities S = S+ - S- and |S| = S+ + S- on 10^3 fuzzed functions
    u = Universe.finite(tuple("abcdef"))
    for _ in range(1000):
        nu = {lab: Fraction(rng.randint(-5, 5)) for lab in u.labels}
        s = SignedFunctional.of(u, nu)
        d = jordan_decompose(s)
        x = point_fn(
            u, {lab: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for lab in u.labels}
        )
        sp, sm = d.plus.integrate(x), d.minus.integrate(x)
        assert s.evaluate(x) == sp - sm
        assert d.abs.integrate(x) == sp + sm

    # exhaustive on 2-atom universes: every simple function lies in the
    # domain of all three functionals and the values add
    u2 = Universe.finite(("p", "q"))
    for wp, wq in itertools.product(range(-2, 3), repeat=2):
        s = SignedFunctional.of(u2, {"p": Fraction(wp), "q": Fraction(wq)})
        d = jordan_decompose(s)
        for vp, vq in itertools.product(range(-2, 3), repeat=2):
            x = point_fn(u2, {"p": Fraction(vp), "q": Fraction(vq)})
            assert d.plus.integrate(x) - d.minus.integrate(x) == s.evaluate(x)
            assert abs(s.evaluate(x)) <= d.abs.integrate(absolute(x))


# -- 4: convergence theorems -----------------------------------------------------------


@criterion(4, "convergence theorems")
def test_criterion_4():
    rng = random.Random(40)
    u = Universe.finite(tuple("abcd"))
    i = ElementaryIntegral(
        weighted_counting_premeasure(
            u, {lab: Fraction(k + 1, 2) for k, lab in enumerate(u.labels)}
        )
    )

    # monotone + dominated convergence on 10^3 stabilizing fuzz cases
    for _ in range(1000):
        x = point_fn(u, {lab: Fraction(rng.randint(0, 6)) for lab in u.labels})
        k = rng.randint(1, 5)
        seq = MonotoneSequence(
            lambda n, x=x, k=k: x.scale(min(Fraction(n, k), Fraction(1))),
            Direction.INCREASING,
        )
        res = i1_limit(i.integrate, seq, depth=8)
        assert res.value == ExtReal(i.integrate(x))  # exact equality
        # dominated: |x_n| <= x throughout and the limit is I(x)
        assert all(
            i.integrate(seq.term(n)) <= i.integrate(x) for n in range(1, 9)
        )

    # strict Fatou witness: alternating indicators
    chi_a = SimpleFunction.indicator(RingSet.finite(u, ("a",)))
    chi_b = SimpleFunction.indicator(RingSet.finite(u, ("b",)))
    terms = [chi_a if n % 2 == 0 else chi_b for n in range(12)]
    liminf_pointwise = SimpleFunction.zero(u)  # liminf x_n = 0 pointwise
    liminf_integrals = min(i.integrate(t) for t in terms)
    assert i.integrate(liminf_pointwise) < liminf_integrals  # strict


# -- 5: Wiener premeasure ------------------------------------------------------------------


@criterion(5, "Wiener premeasure")
def test_criterion_5():
    one = Fraction(1)
    half = Fraction(1, 2)

    full = wmod.Cylinder.full_space()
    assert abs(wmod.wiener_premeasure(full, tol=1e-10)["value"] - 1.0) < 1e-8

    half_line = wmod.Cylinder.of([one], [((0.0, wmod.INF),)])
    assert abs(wmod.wiener_premeasure(half_line, tol=1e-10)["value"] - 0.5) < 1e-8

    orthant = wmod.Cylinder.of([half, one], [((0.0, wmod.INF),), ((0.0, wmod.INF),)])
    q = wmod.wiener_premeasure(orthant, tol=1e-8)
    assert abs(q["value"] - 0.375) < 1e-4

    mc = wmod.wiener_premeasure(
        orthant, method=wmod.Method.MONTE_CARLO, seed=55, paths=10_000_000
    )
    assert abs(mc["value"] - 0.375) < 3 * mc["stderr"]

    # finite additivity over fuzzed disjoint same-partition families
    rng = random.Random(50)
    for _ in range(5):
        cuts = sorted(rng.uniform(-2, 2) for _ in range(3))
        edges = [-wmod.INF] + cuts + [wmod.INF]
        total, err = 0.0, 0.0
        whole_parts = []
        for j in range(len(edges) - 1):
            d = wmod.Cylinder.of([half, one], [((edges[j], edges[j + 1]),),
                                               wmod.FULL_LINE])
            r = wmod.wiener_premeasure(d, tol=1e-9)
            total += r["value"]
            err += r["quad_error"]
        assert abs(total - 1.0) < err + 1e-7

    # the unnormalized kernel variant (CLI flag --kernel paper)
    r = wmod.wiener_premeasure(full, kernel=wmod.Kernel.UNNORMALIZED, tol=1e-10)
    assert abs(r["value"] - 1 / math.sqrt(2)) < 1e-8


# -- 6: Dirichlet functional ------------------------------------------------------------------


@criterion(6, "Dirichlet functional")
def test_criterion_6():
    rng = random.Random(60)
    fine = dmod.SolveConfig(domain=dmod.DiskDomain(dmod.Shape.UNIT_DISK, 1 / 128))
    coarse = dmod.SolveConfig(domain=dmod.DiskDomain(dmod.Shape.UNIT_DISK, 1 / 32))

    # g = 1 extends to 1
    g1 = dmod.BoundaryFunction.constant(1.0)
    pts = [(0.0, 0.0)] + [
        (r * math.cos(t), r * math.sin(t))
        for r, t in ((rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi)) for _ in range(9))
    ]
    for x in pts:
        val, _ = dmod.ix_eval(x, g1, coarse)
        assert abs(val - 1.0) < 1e-6

    # harmonic measure of an arc at the center equals the arc fraction
    lo, hi = 0.4, 2.1
    r = dmod.harmonic_measure_of_arc((0.0, 0.0), lo, hi, fine, n=16)
    assert abs(r["value"] - (hi - lo) / (2 * math.pi)) < 1e-3

    wos = dmod.SolveConfig(
        domain=dmod.DiskDomain(dmod.Shape.UNIT_DISK, 1 / 32),
        solver=dmod.Solver.WALK_ON_SPHERES,
        seed=6,
        walks=100_000,
    )
    rw = dmod.harmonic_measure_of_arc((0.0, 0.0), lo, hi, wos, n=16)
    assert abs(rw["value"] - (hi - lo) / (2 * math.pi)) < 3 * rw["stderr"]

    # maximum principle and monotone decrease on 50 fuzzed boundary data
    for _ in range(50):
        coeffs = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]

        def raw(phi, coeffs=coeffs):
            return sum(
                a * np.cos((k + 1) * phi) + b * np.sin((k + 1) * phi)
                for k, (a, b) in enumerate(coeffs)
            )

        field = dmod.solve_dirichlet(coarse.domain, dmod.BoundaryFunction(raw))
        assert field.interior_max() <= field.boundary_max() + 1e-9

        # D2: nonnegative data scaled down to 0 forces the values down to 0
        shift = sum(abs(a) + abs(b) for a, b in coeffs)
        g = dmod.BoundaryFunction(lambda s, shift=shift: raw(s) + shift)
        v1, _ = dmod.ix_eval((0.2, 0.1), g, coarse)
        g2 = dmod.BoundaryFunction(lambda s, shift=shift: (raw(s) + shift) / 4)
        v2, _ = dmod.ix_eval((0.2, 0.1), g2, coarse)
        assert v1 >= v2 >= -1e-9
        assert abs(v2 - v1 / 4) < 1e-9


# -- 7: structural suites ----------------------------------------------------------------------


@criterion(7, "structural suites")
def test_criterion_7():
    results = vmod.lattice_suite() + vmod.rings_suite() + vmod.extension_suite()
    failures = [r["name"] for r in results if not r["pass"]]
    assert not failures, failures
