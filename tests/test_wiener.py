"""Wiener premeasure on cylinder sets.

Oracles:
  * one time slot: μ(W_t ∈ (a, b)) = Φ(b/√t) − Φ(a/√t), the Gaussian CDF;
  * two slots, both (0, ∞): μ = 1/4 + arcsin(√(t₁/t₂)) / (2π), the
    classical bivariate orthant probability (correlation √(t₁/t₂));
  * Sparre Andersen: P(W_{k/n} > 0 for k = 1..n) = C(2n, n) / 4ⁿ;
  * scipy's Genz integration of the Gaussian with covariance min(s, t),
    for orthants and boxes of up to 6 times;
  * nested scipy quadrature of the transition-kernel product (at most 3
    times), for interval unions whose endpoints fall off the grid;
  * Monte-Carlo path sampling as an independent estimator.
"""

import math
import os
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from daniell import intervals as iv
from daniell import wiener as w
from daniell.rings import RingSet

HALF = Fraction(1, 2)
ONE = Fraction(1)


def norm_cdf(x):
    return 0.5 * (1 + math.erf(x / math.sqrt(2)))


def one_slot_oracle(a, b, t=1.0):
    s = math.sqrt(t)
    return norm_cdf(b / s) - norm_cdf(a / s)


def orthant_oracle(t1, t2):
    return 0.25 + math.asin(math.sqrt(t1 / t2)) / (2 * math.pi)


# -- cylinder algebra ----------------------------------------------------------


def test_cylinder_canonical_form():
    d = w.Cylinder.of([HALF, ONE], [w.FULL_LINE, ((0.0, w.INF),)])
    # the unconstrained interior slot is dropped
    assert d.times == (ONE,)


def test_cylinder_requires_final_time_one():
    with pytest.raises(ValueError):
        w.Cylinder.of([HALF], [((0.0, 1.0),)])


def test_cylinder_contains():
    d = w.Cylinder.of([HALF, ONE], [((0.0, w.INF),), ((-1.0, 1.0),)])
    assert d.contains({HALF: 0.3, ONE: 0.0})
    assert not d.contains({HALF: -0.3, ONE: 0.0})
    assert not d.contains({HALF: 0.3, ONE: 2.0})


def test_cylinder_json_roundtrip():
    d = w.Cylinder.of(
        [Fraction(1, 4), ONE], [((-w.INF, 0.5),), ((0.25, 2.0), (3.0, w.INF))]
    )
    assert w.Cylinder.from_json(d.to_json()) == d


def _is_normal(a):
    return all(lo < hi for lo, hi in a) and all(
        p[1] < q[0] for p, q in zip(a, a[1:]))


def test_real_set_algebra_matches_membership():
    """daniell.intervals against pointwise membership, over float ends with
    -inf/inf rays and over Fraction ends; results keep the endpoint type."""
    rng = random.Random(11)

    def frac(lo, hi):
        return Fraction(rng.randint(16 * lo, 16 * hi), 16)

    for draw, top, line in ((rng.uniform, w.INF, (-w.INF, w.INF)),
                            (frac, Fraction(5), (Fraction(-5), Fraction(5)))):
        kind = type(top)
        for _ in range(200):
            a = iv.normalize([(draw(-3, 1), draw(-1, 3))])
            b = iv.normalize([(draw(-3, 0), draw(-2, 1)), (draw(0, 2), top)])
            results = {
                "union": iv.union(a, b),
                "intersect": iv.intersect(a, b),
                "difference": iv.difference(a, b),
                "complement": iv.complement(a, *line),
            }
            for r in results.values():
                assert _is_normal(r)
                assert all(type(e) is kind for pair in r for e in pair)
            for x in [draw(-4, 4) for _ in range(20)]:
                ina, inb = iv.contains(a, x), iv.contains(b, x)
                assert iv.contains(results["union"], x) == (ina or inb)
                assert iv.contains(results["intersect"], x) == (ina and inb)
                assert iv.contains(results["difference"], x) == (ina and not inb)
                assert iv.contains(results["complement"], x) == (not ina)


def test_endpoints_are_converted_once_per_universe():
    s = RingSet.from_intervals([(1, "3/2")])
    assert s.intervals == ((Fraction(1), Fraction(3, 2)),)
    assert all(type(e) is Fraction for e in s.intervals[0])
    d = w.Cylinder.of([1], [[(0, 2)]])
    assert d.sets == (((0.0, 2.0),),)
    assert all(type(e) is float for e in d.sets[0][0])
    assert w.Cylinder.from_json(d.to_json()) == d


# -- quadrature values -----------------------------------------------------------


def test_single_time_interval_matches_cdf_oracle():
    for a, b in [(-1.0, 1.0), (0.3, 2.2), (-2.5, -0.5)]:
        d = w.Cylinder.of([ONE], [((a, b),)])
        r = w.wiener_premeasure(d, tol=1e-10)
        assert abs(r["value"] - one_slot_oracle(a, b)) < 1e-8


def test_orthant_oracle_other_times():
    d = w.Cylinder.of([Fraction(1, 4), ONE], [((0.0, w.INF),), ((0.0, w.INF),)])
    r = w.wiener_premeasure(d, tol=1e-8)
    assert abs(r["value"] - orthant_oracle(0.25, 1.0)) < 1e-6


# -- Monte Carlo -------------------------------------------------------------------


def test_sample_paths_are_brownian_increments():
    times = [Fraction(1, 4), HALF, ONE]
    paths = w.sample_paths(times, 200_000, seed=7)
    assert paths.shape == (200_000, 3)
    # variances match the times, increments independent
    assert abs(paths[:, 0].var() - 0.25) < 0.01
    assert abs(paths[:, 2].var() - 1.0) < 0.02
    inc1, inc2 = paths[:, 1] - paths[:, 0], paths[:, 2] - paths[:, 1]
    assert abs(np.mean(inc1 * inc2)) < 0.01


def test_mc_reproducible_and_consistent_with_quad():
    d = w.Cylinder.of([HALF, ONE], [((-0.5, w.INF),), ((-w.INF, 1.0),)])
    mc1 = w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=3, paths=400_000)
    mc2 = w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=3, paths=400_000)
    assert mc1 == mc2  # byte-identical under the same seed
    q = w.wiener_premeasure(d, tol=1e-9)
    assert abs(q["value"] - mc1["value"]) < 4 * mc1["stderr"]


def test_mc_paths_per_stream_keep_their_counts():
    # 39 blocks of 2^16 paths, block i drawn from child i of SeedSequence(11)
    # and run on as many threads as there are CPUs: the counts of a plain
    # serial loop over the same blocks
    d = w.Cylinder.of([Fraction(1, 4), HALF, ONE],
                      [((-0.5, w.INF),), ((-1.0, 1.0),), ((-w.INF, 0.8),)])
    paths = 2_500_000
    blocks = -(-paths // w._BLOCK)
    assert blocks == 39
    hits = sum(w._mc_hits(d, np.random.SeedSequence(11, spawn_key=(i,)),
                          min(w._BLOCK, paths - i * w._BLOCK))
               for i in range(blocks))
    mc = w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=11, paths=paths)
    assert mc["value"] == hits / paths
    assert mc == {"value": 0.5895204, "stderr": 0.00031111804703928055}


def test_mc_single_block_is_unchanged():
    # 2^16 paths are one block, drawn from child 0 of SeedSequence(3), the
    # stream that the first of any number of blocks draws from
    d = w.Cylinder.of([HALF, ONE], [((-0.5, w.INF),), ((-w.INF, 1.0),)])
    mc = w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=3, paths=1 << 16)
    assert mc == {"value": 0.6042022705078125, "stderr": 0.0019102396726615595}


def test_mc_counts_do_not_depend_on_threads(monkeypatch):
    # 69 blocks of 2^16 paths on eight threads switching every microsecond,
    # and on one thread: the same counts
    d = w.Cylinder.of([HALF, ONE], [((-0.3, w.INF),), ((-1.0, 0.7),)])

    def run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=5, paths=4_500_000)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = run(8)
    finally:
        sys.setswitchinterval(interval)
    assert many == run(1)


def _record_threads(monkeypatch, barrier=None):
    """Wrap _mc_hits to record the thread of each block; with a barrier,
    every block waits there until as many blocks run at once."""
    seen = []
    mc_hits = w._mc_hits

    def recording(d, stream, m):
        seen.append(threading.get_ident())
        if barrier is not None:
            barrier.wait(timeout=10)
        return mc_hits(d, stream, m)

    monkeypatch.setattr(w, "_mc_hits", recording)
    return seen


def test_mc_blocks_run_on_a_thread_per_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # each block waits for the other, so one thread cannot take both
    seen = _record_threads(monkeypatch, threading.Barrier(2))
    d = w.Cylinder.of([ONE], [((0.0, w.INF),)])
    w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=2, paths=2 * w._BLOCK)
    assert len(seen) == 2 and len(set(seen)) == 2


def test_mc_single_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    seen = _record_threads(monkeypatch)
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    d = w.Cylinder.of([ONE], [((0.0, w.INF),)])
    w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=2, paths=w._BLOCK)
    assert seen == [threading.get_ident()] and started == []


def test_mc_memory_does_not_grow_with_blocks(monkeypatch):
    # 20 000 blocks under a stub kernel: no list of streams and no future
    # per block (together about 40 MB here), so the peak stays under 1 MB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(w, "_mc_hits", lambda d, stream, m: m // 2)
    d = w.Cylinder.of([ONE], [((0.0, w.INF),)])
    # a first threaded call loads modules, whose objects tracemalloc would count
    w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=2, paths=2 * w._BLOCK)
    tracemalloc.start()
    try:
        mc = w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=2,
                                 paths=w._BLOCK * 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mc["value"] == 0.5
    assert peak < 1 << 20


def test_mc_stderr_without_hits_is_clopper_pearson():
    d = w.Cylinder.of([ONE], [((8.0, 9.0),)])
    mc = w.wiener_premeasure(d, method=w.Method.MONTE_CARLO, seed=1, paths=100_000)
    assert mc["value"] == 0.0
    assert mc["stderr"] >= 1e-5  # the binomial floor gave 3.2e-9
    far = 1 - 0.025 ** (1 / 100_000)
    assert mc["stderr"] == pytest.approx(math.sqrt(far * (1 - far) / 100_000), rel=1e-9)
    full = w.wiener_premeasure(w.Cylinder.full_space(), method=w.Method.MONTE_CARLO,
                               seed=1, paths=100_000)
    assert full == {"value": 1.0, "stderr": mc["stderr"]}


# -- propagation against oracles ------------------------------------------------


def _positive(n):
    return w.Cylinder.of([Fraction(k, n) for k in range(1, n + 1)], [((0.0, w.INF),)] * n)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16, 24, 32])
def test_sparre_andersen(n):
    exact = math.comb(2 * n, n) / 4**n
    r = w.wiener_premeasure(_positive(n), tol=1e-8)
    assert abs(r["value"] - exact) <= 1e-8
    assert abs(r["value"] - exact) <= r["quad_error"]
    # the unnormalized kernel scales each of the n steps by 1/sqrt(2)
    r = w.wiener_premeasure(_positive(n), tol=1e-8, kernel=w.Kernel.UNNORMALIZED)
    assert abs(r["value"] - exact * 2 ** (-n / 2)) <= r["quad_error"] <= 1e-8


def test_sixteen_times_in_a_tenth_of_a_second():
    d = _positive(16)
    w.wiener_premeasure(d, tol=1e-8)  # warm numpy's FFT
    best = min(_timed(lambda: w.wiener_premeasure(d, tol=1e-8)) for _ in range(5))
    assert best < 0.1


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


GENZ_EPS = 1e-6


def _genz(times, lower, upper):
    from scipy.stats import multivariate_normal

    t = [float(x) for x in times]
    cov = np.minimum.outer(t, t)
    return multivariate_normal.cdf(np.array(upper), mean=np.zeros(len(t)), cov=cov,
                                   lower_limit=np.array(lower), abseps=GENZ_EPS,
                                   releps=0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orthants_and_boxes_against_genz(n):
    rng = random.Random(n)
    times = sorted(rng.sample([Fraction(k, 16) for k in range(1, 16)], n - 1)) + [ONE]
    signs = [rng.choice((-1.0, 1.0)) for _ in times]
    orthant = [((0.0, w.INF),) if s > 0 else ((-w.INF, 0.0),) for s in signs]
    lo = [rng.uniform(-1.5, 0.3) for _ in times]
    hi = [a + rng.uniform(0.5, 2.0) for a in lo]
    box = [((a, b),) for a, b in zip(lo, hi)]
    for sets, lower, upper in (
        (orthant, [0.0 if s > 0 else -np.inf for s in signs],
         [np.inf if s > 0 else 0.0 for s in signs]),
        (box, lo, hi),
    ):
        r = w.wiener_premeasure(w.Cylinder.of(times, sets), tol=1e-8)
        assert abs(r["value"] - _genz(times, lower, upper)) <= r["quad_error"] + 3 * GENZ_EPS


def _nested_quadrature(d):
    """The earlier nested scipy quadrature, every layer to 1e-13, the last
    in closed form; for up to 3 times."""
    from scipy.integrate import quad

    times = [float(t) for t in d.times]
    dts = [b - a for a, b in zip([0.0] + times, times)]

    def layer(i, x):
        scale = math.sqrt(2.0 * dts[i])
        if i == len(times) - 1:
            return sum(0.5 * (math.erf((b - x) / scale) - math.erf((a - x) / scale))
                       for a, b in d.sets[i])
        return sum(quad(lambda y: math.exp(-((y - x) / scale) ** 2) / (scale * math.sqrt(math.pi))
                        * layer(i + 1, y), a, b, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
                   for a, b in d.sets[i])

    return layer(0, 0.0)


# From h = 1/16 the differences v(2h) - v(h) shrink eighteenfold, then
# hardly at all, and fourfold only from h = 1/128: a rule that trusted
# any shrink of threefold or more returned this value 2.3e-8 off, with
# quad_error 6.4e-9.
LATE_SETTLING = w.Cylinder.of(
    [HALF, Fraction(3, 4), ONE],
    [((-1.8057469831532904, -0.34620538344394314),),
     ((-1.3169816845833981, -0.6763476115091881),),
     ((-0.8977322242675352, -0.18990756005486997), (-0.16793833816399775, 1.1839876312925077),
      (1.4118442388536403, 1.6684416719079074))])


def _random_union_cylinders(rng, count):
    for _ in range(count):
        n = rng.randint(2, 3)
        times = sorted(rng.sample([Fraction(k, 16) for k in range(1, 16)], n - 1)) + [ONE]
        sets = []
        for _ in times:
            pieces, lo = [], rng.uniform(-2.0, 0.5)
            for _ in range(rng.randint(1, 3)):
                hi = lo + 10 ** rng.uniform(-2, 0.2)
                pieces.append((lo, hi))
                lo = hi + 10 ** rng.uniform(-2, -0.3)
            sets.append(tuple(pieces))
        yield w.Cylinder.of(times, sets)


def test_off_grid_interval_unions_against_nested_quadrature():
    for d in [LATE_SETTLING, *_random_union_cylinders(random.Random(2024), 12)]:
        oracle = _nested_quadrature(d)
        for tol in (1e-4, 1e-6, 1e-8):
            r = w.wiener_premeasure(d, tol=tol)
            assert r["quad_error"] <= tol
            assert abs(r["value"] - oracle) <= r["quad_error"] + 1e-11


# -- steps far shorter than a cell ------------------------------------------------

GAP = Fraction(1, 10**9)  # a step of spread 4.5e-5, below the finest cell allowed


def test_short_last_step_against_the_orthant():
    # 1/4 + arcsin(sqrt(t1)) / (2 pi), written through sqrt(1 - t1) so the
    # reference keeps its digits; at the default tol a point mass at each
    # cell centre leaked nothing across 0 and missed the 5e-6 that does
    d = w.Cylinder.of([ONE - GAP, ONE], [((0.0, w.INF),)] * 2)
    exact = 0.5 - math.asin(math.sqrt(GAP)) / (2 * math.pi)
    r = w.wiener_premeasure(d)
    assert abs(r["value"] - exact) <= r["quad_error"] <= 1e-8


def test_short_middle_step_against_the_orthant():
    # three times: 1/8 + (arcsin r12 + arcsin r13 + arcsin r23) / (4 pi)
    # with r_ij = sqrt(t_i / t_j); arcsin r12 through sqrt(1 - t1 / t2)
    t1, t2 = HALF, HALF + GAP
    d = w.Cylinder.of([t1, t2, ONE], [((0.0, w.INF),)] * 3)
    asins = (math.pi / 2 - math.asin(math.sqrt(GAP / t2)), math.asin(math.sqrt(t1)),
             math.asin(math.sqrt(t2)))
    exact = 1 / 8 + sum(asins) / (4 * math.pi)
    r = w.wiener_premeasure(d)
    assert abs(r["value"] - exact) <= r["quad_error"] <= 1e-8


def _two_times(d):
    """P(W_t1 in B_1, W_1 in B_2) by adaptive quadrature over W_t1, with
    break points at the endpoints of B_2 and a few step spreads around them."""
    from scipy.integrate import quad

    t1, scale = float(d.times[0]), math.sqrt(2.0 * float(1 - d.times[0]))
    ends = [e for a, b in d.sets[1] for e in (a, b) if abs(e) < w.INF]

    def f(x):
        step = sum(0.5 * (math.erf((b - x) / scale) - math.erf((a - x) / scale))
                   for a, b in d.sets[1])
        return math.exp(-x * x / (2 * t1)) / math.sqrt(2 * math.pi * t1) * step

    total = 0.0
    for a, b in d.sets[0]:
        lo, hi = max(a, -12.0), min(b, 12.0)
        points = [e + k * scale for e in ends for k in (-8, -2, 0, 2, 8) if lo < e + k * scale < hi]
        total += quad(f, lo, hi, points=points or None, epsabs=1e-14, epsrel=1e-13, limit=1000)[0]
    return total


@pytest.mark.parametrize("sets", [[((0.0, w.INF),), ((0.3, w.INF),)],
                                  [((-1.0, 0.5),), ((-0.7, 0.2),)]])
def test_short_step_to_endpoints_inside_cells(sets):
    # the endpoints of B_2 fall inside whole cells of B_1, whose boxes of
    # mass straddle them in the last layer
    d = w.Cylinder.of([ONE - GAP, ONE], sets)
    r = w.wiener_premeasure(d)
    assert abs(r["value"] - _two_times(d)) <= r["quad_error"] <= 1e-8


def test_short_steps_against_quadrature():
    # final steps of 1e-10 to 7e-3 between interval unions, some shared, some
    # nudged off each other: a value returned lies within its quad_error.
    # Where a step is shorter than the cells the error shrinks erratically,
    # and the refinement may stop at the cell cap instead.
    rng = random.Random(6)
    returned = 0
    for _ in range(16):
        gap = Fraction(rng.choice([1, 3, 7]), 10 ** rng.randint(3, 10))
        sets = []
        for _ in range(2):
            pieces, lo = [], rng.uniform(-2.0, 0.5)
            for _ in range(rng.randint(1, 2)):
                hi = lo + 10 ** rng.uniform(-2, 0.3)
                pieces.append((lo, hi))
                lo = hi + 10 ** rng.uniform(-2, -0.3)
            sets.append(pieces)
        if rng.random() < 0.5:
            nudge = 1e-4
            sets[1] = [(a + rng.uniform(-nudge, nudge), b + rng.uniform(-nudge, nudge))
                       for a, b in sets[0]]
        d = w.Cylinder.of([ONE - gap, ONE], sets)
        oracle = _two_times(d)
        for tol in (1e-6, 1e-8):
            try:
                r = w.wiener_premeasure(d, tol=tol)
            except w.ToleranceUnreachable:
                continue
            returned += 1
            assert abs(r["value"] - oracle) <= r["quad_error"] + 1e-13
    assert returned >= 24


def test_tolerance_below_rounding_is_unreachable():
    with pytest.raises(w.ToleranceUnreachable, match="below the round-off"):
        w.wiener_premeasure(_positive(3), tol=1e-16)


def test_unsettled_differences_are_not_reported_as_success():
    # The grid values agree to far below tol, but their differences
    # (3.8e-12, -3.0e-13, 3.0e-13, 2.7e-14) never shrink by a steady ratio.
    d = w.Cylinder.of([ONE - Fraction(7, 10**6), ONE], [[(-0.9174, -0.8944)]] * 2)
    with pytest.raises(w.ToleranceUnreachable, match="did not settle") as info:
        w.wiener_premeasure(d, tol=1e-6)
    assert info.value.achieved < 1e-6
