"""Wiener premeasure on cylinder sets.

Oracles:
  * one time slot: μ(W_t ∈ (a, b)) = Φ(b/√t) − Φ(a/√t), the Gaussian CDF;
  * two slots, both (0, ∞): μ = 1/4 + arcsin(√(t₁/t₂)) / (2π), the
    classical bivariate orthant probability (correlation √(t₁/t₂));
  * Monte-Carlo path sampling as an independent estimator.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from daniell import intervals as iv
from daniell import wiener as w
from daniell.rings import BooleanOp, RingSet

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


def test_cylinder_ring_closure_vs_path_oracle():
    d1 = w.Cylinder.of([HALF, ONE], [((0.0, w.INF),), w.FULL_LINE])
    d2 = w.Cylinder.of([Fraction(3, 4), ONE], [((-1.0, 1.0),), ((-w.INF, 0.5),)])
    inter = w.cylinder_combine(BooleanOp.INTERSECT, d1, d2)
    diff = w.cylinder_combine(BooleanOp.DIFFERENCE, d1, d2)
    times = sorted(set(d1.times) | set(d2.times))
    paths = w.sample_paths(times, 3000, seed=42)
    for row in paths:
        p = dict(zip(times, row))
        m1, m2 = d1.contains(p), d2.contains(p)
        assert any(c.contains(p) for c in inter) == (m1 and m2)
        assert any(c.contains(p) for c in diff) == (m1 and not m2)
        # difference family members are pairwise disjoint
        assert sum(c.contains(p) for c in diff) <= 1


# -- quadrature values -----------------------------------------------------------


def test_total_mass_one():
    r = w.wiener_premeasure(w.Cylinder.full_space(), tol=1e-10)
    assert abs(r["value"] - 1.0) < 1e-8


def test_single_time_half_line():
    d = w.Cylinder.of([ONE], [((0.0, w.INF),)])
    r = w.wiener_premeasure(d, tol=1e-10)
    assert abs(r["value"] - 0.5) < 1e-8


def test_single_time_interval_matches_cdf_oracle():
    for a, b in [(-1.0, 1.0), (0.3, 2.2), (-2.5, -0.5)]:
        d = w.Cylinder.of([ONE], [((a, b),)])
        r = w.wiener_premeasure(d, tol=1e-10)
        assert abs(r["value"] - one_slot_oracle(a, b)) < 1e-8


def test_orthant_probability():
    d = w.Cylinder.of([HALF, ONE], [((0.0, w.INF),), ((0.0, w.INF),)])
    r = w.wiener_premeasure(d, tol=1e-8)
    assert abs(r["value"] - 0.375) < 1e-6
    assert abs(orthant_oracle(0.5, 1.0) - 0.375) < 1e-15  # oracle sanity


def test_orthant_oracle_other_times():
    d = w.Cylinder.of([Fraction(1, 4), ONE], [((0.0, w.INF),), ((0.0, w.INF),)])
    r = w.wiener_premeasure(d, tol=1e-8)
    assert abs(r["value"] - orthant_oracle(0.25, 1.0)) < 1e-6


def test_printed_kernel_normalization():
    # the unnormalized kernel exp(-dx^2/dt)/sqrt(2 pi dt) integrates to 1/sqrt(2)
    r = w.wiener_premeasure(w.Cylinder.full_space(), kernel=w.Kernel.UNNORMALIZED, tol=1e-10)
    assert abs(r["value"] - 1 / math.sqrt(2)) < 1e-8


def test_additivity_on_same_partition():
    times = [HALF, ONE]
    cuts = [-w.INF, -0.7, 0.2, 1.1, w.INF]
    total = 0.0
    for i in range(4):
        for j in range(4):
            d = w.Cylinder.of(
                times, [((cuts[i], cuts[i + 1]),), ((cuts[j], cuts[j + 1]),)]
            )
            total += w.wiener_premeasure(d, tol=1e-10)["value"]
    assert abs(total - 1.0) < 1e-7


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
