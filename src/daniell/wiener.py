"""Cylinder sets on path space and the Gaussian premeasure.

Paths live on [0, 1] with f(0) = 0.  A cylinder constrains the path at
finitely many times t_1 < ... < t_n = 1 to Borel sets (finite unions of
intervals and rays, with float endpoints; their algebra comes from
:mod:`daniell.intervals`).  The premeasure is the probability that a standard
Brownian path satisfies the constraints, computed either by nested
quadrature of the transition-kernel product (the innermost layer in
closed form through erf) or by Monte Carlo over Gaussian increments.

The default kernel is exp(-dx^2 / (2 dt)) / sqrt(2 pi dt), which makes
the full path space have measure 1.  kernel="unnormalized" drops the
1/2 in the exponent while keeping the same prefactor; then the full
line at t = 1 has mass 1/sqrt(2) instead of 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from . import intervals as iv
from .rings import BooleanOp

INF = float("inf")

FULL_LINE = ((-INF, INF),)


def rs_to_json(a):
    def end(v):
        if v == -INF:
            return "-inf"
        if v == INF:
            return "+inf"
        return v

    return [[end(lo), end(hi)] for lo, hi in a]


def rs_from_json(obj):
    def end(v):
        if v in ("-inf", "-Infinity"):
            return -INF
        if v in ("+inf", "inf", "Infinity"):
            return INF
        return float(v)

    if obj and not isinstance(obj[0], (list, tuple)):
        obj = [obj]
    return iv.normalize((end(lo), end(hi)) for lo, hi in obj)


def _parse_time(v) -> Fraction:
    if isinstance(v, (list, tuple)):
        return Fraction(v[0], v[1])
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**9)
    return Fraction(v)


@dataclass(frozen=True)
class Cylinder:
    """Constraints f(t_i) in B_i at times 0 < t_1 < ... < t_n = 1."""

    times: tuple  # Fractions
    sets: tuple  # interval unions, one per time

    @staticmethod
    def of(times, sets) -> Cylinder:
        times = tuple(_parse_time(t) for t in times)
        sets = tuple(iv.normalize((float(lo), float(hi)) for lo, hi in s) for s in sets)
        if len(times) != len(sets):
            raise ValueError("one Borel set per time")
        if any(t <= 0 or t > 1 for t in times):
            raise ValueError("times must lie in (0, 1]")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("times must strictly increase")
        if not times or times[-1] != 1:
            raise ValueError("partitions must end at t = 1")
        # canonical: drop interior full-line slots, keep the final time
        keep = [
            (t, s)
            for idx, (t, s) in enumerate(zip(times, sets))
            if s != FULL_LINE or idx == len(times) - 1
        ]
        return Cylinder(tuple(t for t, _ in keep), tuple(s for _, s in keep))

    @staticmethod
    def full_space() -> Cylinder:
        return Cylinder.of((Fraction(1),), (FULL_LINE,))

    @property
    def is_empty(self) -> bool:
        return any(not s for s in self.sets)

    def contains(self, path) -> bool:
        get = path if callable(path) else path.__getitem__
        return all(iv.contains(s, get(t)) for t, s in zip(self.times, self.sets))

    def on_partition(self, times) -> Cylinder:
        """Rewrite on a refinement of this cylinder's times (full line fills
        the unconstrained slots)."""
        times = tuple(times)
        mine = dict(zip(self.times, self.sets))
        if not set(self.times) <= set(times):
            raise ValueError("not a refinement")
        return Cylinder(times, tuple(mine.get(t, FULL_LINE) for t in times))

    def to_json(self):
        return {
            "times": [[t.numerator, t.denominator] for t in self.times],
            "sets": [rs_to_json(s) for s in self.sets],
        }

    @staticmethod
    def from_json(obj) -> Cylinder:
        return Cylinder.of(obj["times"], [rs_from_json(s) for s in obj["sets"]])


def cylinder_combine(op: BooleanOp, d1: Cylinder, d2: Cylinder) -> list:
    """Intersection or difference over the merged partition.

    Returns a disjoint family of cylinders (a single difference can
    constrain several times, which one cylinder cannot express).
    """
    merged = tuple(sorted(set(d1.times) | set(d2.times)))
    a = d1.on_partition(merged).sets
    b = d2.on_partition(merged).sets
    if op is BooleanOp.INTERSECT:
        sets = tuple(iv.intersect(x, y) for x, y in zip(a, b))
        return [Cylinder.of(merged, sets)] if all(sets) else []
    # difference: a and not-b, where not-b splits by the first violated slot
    out = []
    for j, bj in enumerate(b):
        if bj == FULL_LINE:
            continue
        sets = tuple(iv.intersect(x, y) for x, y in zip(a[:j], b[:j]))
        sets += (iv.difference(a[j], bj),) + a[j + 1:]
        if all(sets):
            out.append(Cylinder.of(merged, sets))
    return out


def family_combine(op, fam_a, fam_b) -> tuple:
    """Boolean algebra on finite unions of cylinders (ring-set delegation)."""
    fam_a, fam_b = list(fam_a), list(fam_b)
    if op is BooleanOp.INTERSECT:
        out = []
        for x in fam_a:
            for y in fam_b:
                out.extend(cylinder_combine(BooleanOp.INTERSECT, x, y))
        return tuple(out)
    if op is BooleanOp.DIFFERENCE:
        pieces = fam_a
        for y in fam_b:
            nxt = []
            for x in pieces:
                nxt.extend(cylinder_combine(BooleanOp.DIFFERENCE, x, y))
            pieces = nxt
        return tuple(pieces)
    # union as disjoint pieces: a, plus b with a removed
    rest = family_combine(BooleanOp.DIFFERENCE, fam_b, fam_a)
    return tuple(fam_a) + tuple(rest)


# -- the Gaussian premeasure ------------------------------------------------


class Kernel(Enum):
    STANDARD = "standard"
    UNNORMALIZED = "unnormalized"  # exponent lacks the 1/2; not a probability


def _cdf_slice(kernel: Kernel, x, dt, lo, hi) -> float:
    """Integral of the transition kernel from x over [lo, hi]."""
    if kernel is Kernel.STANDARD:
        scale = math.sqrt(2.0 * dt)
        amp = 0.5
    else:
        scale = math.sqrt(dt)
        amp = 0.5 / math.sqrt(2.0)

    def e(v):
        if v == INF:
            return 1.0
        if v == -INF:
            return -1.0
        return math.erf((v - x) / scale)

    return amp * (e(hi) - e(lo))


def _density(kernel: Kernel, dx, dt) -> float:
    if kernel is Kernel.STANDARD:
        return math.exp(-dx * dx / (2.0 * dt)) / math.sqrt(2.0 * math.pi * dt)
    return math.exp(-dx * dx / dt) / math.sqrt(2.0 * math.pi * dt)


class Method(Enum):
    QUADRATURE = "quadrature"
    MONTE_CARLO = "mc"


class ToleranceUnreachable(RuntimeError):
    def __init__(self, achieved):
        super().__init__(f"achieved error bound {achieved}")
        self.achieved = achieved


def _quad_premeasure(d: Cylinder, tol: float, kernel: Kernel):
    times = [float(t) for t in d.times]
    sets = list(d.sets)
    n = len(times)
    dts = [times[0]] + [times[i] - times[i - 1] for i in range(1, n)]
    err_total = [0.0]

    def layer(i, x) -> float:
        # mass of the remaining constraints given path value x at level i-1
        if i == n - 1:
            return sum(_cdf_slice(kernel, x, dts[i], lo, hi) for lo, hi in sets[i])
        total = 0.0
        for lo, hi in sets[i]:
            val, err = quad(
                lambda y: _density(kernel, y - x, dts[i]) * layer(i + 1, y),
                lo, hi, epsabs=tol / (4 * n), limit=200,
            )
            total += val
            if i == 0:
                err_total[0] += err
        return total

    value = layer(0, 0.0)
    bound = err_total[0] + tol / 2
    if bound > max(tol, 1e-12) * 4:
        raise ToleranceUnreachable(bound)
    return value, bound


def sample_paths(times, count: int, seed: int) -> np.ndarray:
    """count independent samples of (W_{t_1}, ..., W_{t_n}); rows are paths.

    Deterministic for a fixed seed regardless of batching.
    """
    if count < 1:
        raise ValueError("need count >= 1")
    times = [float(_parse_time(t)) for t in times]
    rng = np.random.default_rng(seed)
    dts = np.diff([0.0] + times)
    incr = rng.standard_normal((count, len(times))) * np.sqrt(dts)
    return np.cumsum(incr, axis=1)


def _mc_premeasure(d: Cylinder, paths: int, seed: int, batch=1_000_000):
    hits = 0
    done = 0
    ss = np.random.SeedSequence(seed)
    streams = ss.spawn(math.ceil(paths / batch))
    for bi, stream in enumerate(streams):
        m = min(batch, paths - done)
        rng = np.random.default_rng(stream)
        dts = np.diff([0.0] + [float(t) for t in d.times])
        w = np.cumsum(rng.standard_normal((m, len(d.times))) * np.sqrt(dts), axis=1)
        ok = np.ones(m, dtype=bool)
        for j, s in enumerate(d.sets):
            member = np.zeros(m, dtype=bool)
            for lo, hi in s:
                member |= (w[:, j] >= lo) & (w[:, j] < hi)
            ok &= member
        hits += int(ok.sum())
        done += m
    p = hits / paths
    stderr = math.sqrt(max(p * (1 - p), 1e-12) / paths)
    return p, stderr


def wiener_premeasure(d: Cylinder, method: Method = Method.QUADRATURE,
                      tol: float = 1e-8, seed: int = 0,
                      kernel: Kernel = Kernel.STANDARD,
                      paths: int = 1_000_000) -> dict:
    """Premeasure of a cylinder: P(Brownian path in d) for the standard
    kernel; for the unnormalized kernel, the printed-product value with no
    probability interpretation.

    Returns {"value": v, "stderr"| "quad_error": e}.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if d.is_empty:
        key = "stderr" if method is Method.MONTE_CARLO else "quad_error"
        return {"value": 0.0, key: 0.0}
    if method is Method.QUADRATURE:
        value, bound = _quad_premeasure(d, tol, kernel)
        return {"value": value, "quad_error": bound}
    if kernel is not Kernel.STANDARD:
        raise ValueError("Monte Carlo sampling is defined for the standard kernel")
    value, stderr = _mc_premeasure(d, paths, seed)
    return {"value": value, "stderr": stderr}
