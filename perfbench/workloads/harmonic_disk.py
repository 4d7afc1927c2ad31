"""harmonic-disk: Dirichlet problems on the unit disk and square.

One round: disk grid solves on trig data at h = 1/32, 1/40, 1/48,
1/56, 1/64 (x2), 1/72, 1/80 and 1/128; harmonic measure of random arcs
at the center and at two off-center points at h = 1/32; one
extend_boundary ramp schedule; one square solve of u = x at h = 1/64;
and two walk-on-spheres estimates at 10^5 walks.  The 1/128 solve is
the largest single job.

A grid solve's time depends on h alone, so the h values form a ladder
and job times spread evenly from 20 ms to 0.6 s below the 1/128 solves.
The median and the tail (the 11th largest job) fall inside that spread
rather than inside a tight cluster of like solves; on a shared 2-vCPU
VM that can run 1.5x slower in spells of a few seconds, a statistic
inside a tight cluster jumps by that whole factor once half of a run
falls in slow spells.

Grid answers carry an O(h^2) discretization error, so grid checks allow
k^2 h^2 for mode k (measured errors are 50x smaller) and h^2 beside the
arc brackets.
"""

from __future__ import annotations

import math

import numpy as np

from daniell import dirichlet as dmod

from .. import oracles
from ..harness import Job, Verdict, round_rng, statistical_check

LAYERS = {
    "exercises": ("dirichlet",),
    "bypasses": ("rings", "lattice", "functional", "extension", "lebesgue", "wiener", "cli"),
}

WALKS = 100_000
RAMP_N = 16


def _disk(h):
    return dmod.SolveConfig(domain=dmod.DiskDomain(h=h))


def _point(rng, radius=0.8):
    r = radius * math.sqrt(rng.random())
    t = rng.uniform(0.0, 2.0 * math.pi)
    return (r * math.cos(t), r * math.sin(t))


def _trig(k, phase):
    return dmod.BoundaryFunction(lambda s: np.cos(k * (np.asarray(s) - phase)))


def _trig_job(rng, h):
    k, phase, p = rng.randint(1, 3), rng.uniform(0.0, 2.0 * math.pi), _point(rng)
    exact = oracles.disk_trig(k, phase, *p)
    cfg = _disk(h)

    def check(res):
        err = abs(res[0] - exact)
        ok = err <= k * k * h * h
        return Verdict(ok, err, "" if ok else f"{res[0]} vs {exact}")

    return Job(f"disk cos({k}(t-{phase:.4f})) at {p} h=1/{round(1 / h)}",
               f"disk.h{round(1 / h)}", lambda: dmod.ix_eval(p, _trig(k, phase), cfg), check)


def _arc_job(rng, h, center):
    lo = rng.uniform(0.0, 2.0 * math.pi)
    hi = lo + rng.uniform(0.3, 5.0)
    p = (0.0, 0.0) if center else _point(rng, 0.6)
    exact = oracles.arc_measure(*p, lo, hi)
    cfg = _disk(h)

    def check(res):
        slack = h * h
        ok = res["lower"] - slack <= exact <= res["upper"] + slack
        return Verdict(ok, abs(res["value"] - exact), "" if ok else f"{res} vs {exact}")

    where = "center" if center else f"{p}"
    return Job(f"arc [{lo:.4f},{hi:.4f}] at {where} h=1/{round(1 / h)}",
               f"arc.h{round(1 / h)}",
               lambda: dmod.harmonic_measure_of_arc(p, lo, hi, cfg, n=RAMP_N), check)


def _extend_job(rng):
    lo = rng.uniform(0.0, 2.0 * math.pi)
    length = rng.uniform(1.0, 4.0)
    p = _point(rng, 0.5)
    h = 1.0 / 32.0
    exact = oracles.arc_measure(*p, lo, lo + length)
    deficit = oracles.ramp_deficit_bound(*p, length, RAMP_N)

    def check(res):
        # inner ramps increase to the arc: u_16 <= omega <= u_16 + deficit
        ok = exact - deficit - h * h <= res["value"] <= exact + h * h
        return Verdict(ok, abs(res["value"] - exact), "" if ok else f"{res['value']} vs {exact}")

    return Job(f"extend arc [{lo:.4f},{lo + length:.4f}] at {p}", "extend",
               lambda: dmod.extend_boundary(p, lambda n: dmod.arc_ramp(lo, lo + length, n),
                                            RAMP_N, 0.5, _disk(h)),
               check)


def square_boundary_x(s):
    """u = x on the square's boundary, by arc length from the origin."""
    s = np.mod(np.asarray(s, dtype=float), 4.0)
    return np.where(s < 1.0, s, np.where(s < 2.0, 1.0, np.where(s < 3.0, 3.0 - s, 0.0)))


def _square_job(rng):
    p = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
    cfg = dmod.SolveConfig(domain=dmod.DiskDomain(dmod.Shape.UNIT_SQUARE, 1.0 / 64.0))
    exact = oracles.square_linear(*p)

    def check(res):
        err = abs(res[0] - exact)
        return Verdict(err <= 1e-12, err, "" if err <= 1e-12 else f"{res[0]} vs {exact}")

    return Job(f"square u=x at {p} h=1/64", "square.h64",
               lambda: dmod.ix_eval(p, dmod.BoundaryFunction(square_boundary_x), cfg), check)


def _wos_job(rng):
    k, phase, p = rng.randint(1, 3), rng.uniform(0.0, 2.0 * math.pi), _point(rng, 0.6)
    exact = oracles.disk_trig(k, phase, *p)
    seed = rng.randrange(2**31)

    def run(s):
        cfg = dmod.SolveConfig(solver=dmod.Solver.WALK_ON_SPHERES, walks=WALKS, seed=s)
        value, stderr = dmod.ix_eval(p, _trig(k, phase), cfg)
        return {"value": value, "stderr": stderr}

    return Job(f"wos cos({k}(t-{phase:.4f})) at {p} seed={seed}", "wos",
               lambda: run(seed),
               lambda res: statistical_check(res, exact, lambda: run(seed + 1)))


def layer_metrics(records):
    """Largest grid-solver error against an exact harmonic function."""
    errs = [r["err"] for r in records
            if r["kind"].startswith(("disk.", "square.")) and "err" in r]
    return {"dirichlet.ref_err_max": max(errs, default=0.0)}


GRID_STEPS = (32, 40, 48, 56, 64, 64, 72, 80, 128)  # 1/h of the disk trig solves


def make_round(seed: int, round_index: int) -> list:
    rng = round_rng(seed, round_index)
    jobs = [_trig_job(rng, 1.0 / n) for n in GRID_STEPS]
    jobs += [_arc_job(rng, 1.0 / 32.0, center) for center in (True, False, False)]
    jobs.append(_extend_job(rng))
    jobs.append(_square_job(rng))
    jobs += [_wos_job(rng) for _ in range(2)]
    return jobs
