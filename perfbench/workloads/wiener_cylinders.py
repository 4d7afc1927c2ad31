"""wiener-cylinders: cylinder premeasures by nested quadrature and by
Monte Carlo, plus path-space ring algebra.

One round: 7 quadrature premeasures with closed forms (Sparre Andersen
n = 2, 3, 4, orthant, half line, full space, unnormalized kernel), 6
Monte Carlo premeasures of the same cylinders at 10^6 paths (standard
kernel), 18 Monte Carlo premeasures of random interval-union cylinders
with 1, 2 or 3 times, each checked against quadrature of its cylinder,
and 2 ring combinations of path-space sets.  The 4-time Sparre Andersen
quadrature takes most of the round's time: 3-5 s at the timed jobs'
tolerance of 1e-4, against 7-9 s at 1e-6, which would leave room for
only two rounds in a 25 s run.  Reference quadratures inside the checks
use 1e-6.

The random cylinders' path counts form a ladder, so that times x paths
grows evenly from 3*10^5 to 7.5*10^6 and Monte Carlo job times spread
evenly over about 10-250 ms.  The median and the tail (the 11th largest
job, under the 4-time quadratures) both fall inside that spread rather
than inside a tight cluster of like jobs; on a shared 2-vCPU VM that can
run 1.5x slower in spells of a few seconds, a statistic inside a tight
cluster jumps by that whole factor once half of a run falls in slow
spells.  Random cylinders stop at 3 times, because the quadrature that
checks a bounded 4-time cylinder takes 0.2-0.7 s.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

from daniell import wiener as wmod
from daniell.rings import BooleanOp, RingSet, boolean_combine

from .. import oracles
from ..harness import Job, Verdict, round_rng, statistical_check

LAYERS = {
    "exercises": ("wiener", "rings"),
    "bypasses": ("lattice", "functional", "extension", "lebesgue", "dirichlet", "cli"),
}

TOL = 1e-4  # timed quadrature jobs
REFERENCE_TOL = 1e-6  # quadratures that check Monte Carlo and ring jobs
PATHS = 1_000_000  # closed-form cylinders
RANDOM_TIMES = (1, 2, 3) * 6
# times x paths for the random cylinders: 18 steps from 3e5 to 7.5e6
RANDOM_WORK = tuple(3e5 * 25.0 ** (i / 17) for i in range(18))
INF = math.inf
POS = ((0.0, INF),)


def closed_forms():
    """(label, cylinder, kernel, exact value) for the reference cylinders."""
    out = [
        (f"sparre-andersen n={n}",
         wmod.Cylinder.of([F(k, n) for k in range(1, n + 1)], [POS] * n),
         wmod.Kernel.STANDARD, float(oracles.sparre_andersen(n)))
        for n in (2, 3, 4)
    ]
    out += [
        ("orthant", wmod.Cylinder.of((F(1, 2), 1), (POS, POS)),
         wmod.Kernel.STANDARD, float(oracles.ORTHANT)),
        ("half-line", wmod.Cylinder.of((1,), (POS,)),
         wmod.Kernel.STANDARD, float(oracles.HALF_LINE)),
        ("full-space", wmod.Cylinder.full_space(),
         wmod.Kernel.STANDARD, float(oracles.FULL_SPACE)),
        ("unnormalized-full-space", wmod.Cylinder.full_space(),
         wmod.Kernel.UNNORMALIZED, oracles.UNNORMALIZED_FULL),
    ]
    return out


def _quad(cyl, kernel=wmod.Kernel.STANDARD, tol=TOL):
    return wmod.wiener_premeasure(cyl, method=wmod.Method.QUADRATURE, tol=tol, kernel=kernel)


def _mc(cyl, seed, paths=PATHS):
    return wmod.wiener_premeasure(cyl, method=wmod.Method.MONTE_CARLO, seed=seed, paths=paths)


def _quad_check(exact):
    def check(res):
        err = abs(res["value"] - exact)
        ok = err <= res["quad_error"] + 1e-12
        return Verdict(ok, err, "" if ok else f"{res} vs {exact}")

    return check


def random_cylinder(rng, n_times, grid=8):
    """Bounded interval unions (1-3 intervals) at n_times times ending at 1."""
    times = sorted(rng.sample([F(i, grid) for i in range(1, grid)], n_times - 1)) + [F(1)]
    sets = []
    for _ in times:
        pieces = []
        lo = rng.uniform(-2.5, 0.0)
        for _ in range(rng.randint(1, 3)):
            hi = lo + rng.uniform(0.4, 1.6)
            pieces.append((lo, hi))
            lo = hi + rng.uniform(0.1, 0.6)
        sets.append(tuple(pieces))
    return wmod.Cylinder.of(times, sets)


def _mc_job(label, cyl, reference, seed):
    return Job(f"mc {label} seed={seed}", f"mc.closed.t{len(cyl.times)}", lambda: _mc(cyl, seed),
               lambda res: statistical_check(res, reference, lambda: _mc(cyl, seed + 1)))


def _random_mc_job(rng, n_times, work):
    """Monte Carlo on one random cylinder at ``work / n_times`` paths,
    checked against quadrature of the same cylinder: the two must agree
    within 4 stderr + quad_error."""
    cyl = random_cylinder(rng, n_times)
    seed = rng.randrange(2**31)
    paths = round(work / n_times)

    def check(res):
        quad = _quad(cyl, tol=REFERENCE_TOL)
        if not (0.0 <= quad["value"] <= 1.0 and quad["quad_error"] < 1e-4):
            return Verdict(False, None, f"reference quadrature {quad}")
        return statistical_check(res, quad["value"], lambda: _mc(cyl, seed + 1, paths),
                                 slack=quad["quad_error"])

    return Job(f"mc random {cyl.to_json()} paths={paths} seed={seed}",
               f"mc.random.t{n_times}", lambda: _mc(cyl, seed, paths), check)


def _family_job(rng, index):
    """One ring combination on path space, measured by quadrature.

    Checked by inclusion-exclusion against the other two operations, so
    the union, intersection and difference code paths vouch for each
    other: mu(A u B) = mu(A) + mu(B) - mu(A n B) and so on.
    """
    a = random_cylinder(rng, rng.randint(1, 2), grid=3)
    b = random_cylinder(rng, rng.randint(1, 2), grid=3)
    op = (BooleanOp.UNION, BooleanOp.INTERSECT, BooleanOp.DIFFERENCE)[index % 3]
    ra, rb = RingSet.path_space([a]), RingSet.path_space([b])

    def measure(cylinders, tol=TOL):
        parts = [_quad(c, tol=tol) for c in cylinders]
        return sum(p["value"] for p in parts), sum(p["quad_error"] for p in parts)

    def call():
        return measure(boolean_combine(op, ra, rb).cylinders)

    def check(got):
        (ma, ea), (mb, eb) = measure([a], REFERENCE_TOL), measure([b], REFERENCE_TOL)
        inter = measure(wmod.family_combine(BooleanOp.INTERSECT, [a], [b]), REFERENCE_TOL)
        if op is BooleanOp.UNION:
            expect = (ma + mb - inter[0], ea + eb + inter[1])
        elif op is BooleanOp.INTERSECT:
            b_minus_a = measure(wmod.family_combine(BooleanOp.DIFFERENCE, [b], [a]),
                                REFERENCE_TOL)
            expect = (mb - b_minus_a[0], eb + b_minus_a[1])
        else:
            expect = (ma - inter[0], ea + inter[1])
        err = abs(got[0] - expect[0])
        ok = err <= got[1] + expect[1] + 1e-12
        return Verdict(ok, err, "" if ok else f"{got} vs {expect}")

    return Job(f"family {op.value} A={a.to_json()} B={b.to_json()}", f"family.{op.value}",
               call, check)


def layer_metrics(records):
    """Largest quadrature error against a closed form (diagnostic only)."""
    errs = [r["err"] for r in records if r["name"].startswith("quad ") and "err" in r]
    return {"wiener.ref_err_max": max(errs, default=0.0)}


def make_round(seed: int, round_index: int) -> list:
    rng = round_rng(seed, round_index)
    jobs = []
    for label, cyl, kernel, exact in closed_forms():
        jobs.append(Job(f"quad {label}", f"quad.t{len(cyl.times)}",
                        lambda cyl=cyl, kernel=kernel: _quad(cyl, kernel), _quad_check(exact)))
        if kernel is wmod.Kernel.STANDARD:
            jobs.append(_mc_job(label, cyl, exact, rng.randrange(2**31)))
    jobs += [_random_mc_job(rng, n, w) for n, w in zip(RANDOM_TIMES, RANDOM_WORK)]
    jobs += [_family_job(rng, round_index * 2 + i) for i in range(2)]
    return jobs
