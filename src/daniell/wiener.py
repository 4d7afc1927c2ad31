"""Cylinder sets on path space and the Gaussian premeasure.

Paths live on [0, 1] with f(0) = 0.  A cylinder constrains the path at
finitely many times t_1 < ... < t_n = 1 to Borel sets (finite unions of
intervals and rays, with float endpoints; their algebra comes from
:mod:`daniell.intervals`).  The premeasure is the probability that a standard
Brownian path satisfies the constraints, computed either by
Chapman-Kolmogorov propagation (method "quadrature") or by Monte Carlo
over Gaussian increments.

Propagation carries the sub-density of the path from time to time on a
uniform grid, as mass spread evenly over each cell, each step one FFT
convolution with the Gaussian transition, and integrates the last layer
in closed form through erf; one-time cylinders are closed form
throughout.  Its ``quad_error`` is a grid term, a Richardson estimate from
spacings h and h/2 (an estimate, not a bound), plus a truncation term, the
closed-form Gaussian tails cut off at the edges of the grid and of every
kernel window.  A time step much shorter than the finest cell allowed
(steps of about 10^-6 and below) is computed too, but its error shrinks
erratically with h, so there the refinement can end in
ToleranceUnreachable, saying that the differences did not settle, even
when the values already agree to far below tol.  Monte Carlo draws
block i of 2^16 paths from its own seed stream, child i of
SeedSequence(seed), and runs the blocks on a thread per CPU, the calling
thread one of them, with counts that do not depend on the number of
threads; a job of one block, or on one CPU, starts no thread.  Its
``stderr`` is the binomial one, with a one-sided 97.5 % Clopper-Pearson
bound in place of p when no path (or every path) hits.

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

from . import intervals as iv
from .parallel import run_blocks
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
    """The (lo, hi) pairs of a set as rs_to_json writes it; Cylinder.of
    normalizes them."""

    def end(v):
        if v in ("-inf", "-Infinity"):
            return -INF
        if v in ("+inf", "inf", "Infinity"):
            return INF
        return float(v)

    if obj and not isinstance(obj[0], (list, tuple)):
        obj = [obj]
    return tuple((end(lo), end(hi)) for lo, hi in obj)


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
        sets = tuple(tuple((float(lo), float(hi)) for lo, hi in s) for s in sets)
        # normalize would read a NaN pair as empty, since lo < hi is false
        if any(math.isnan(v) for s in sets for pair in s for v in pair):
            raise ValueError("a set endpoint is NaN")
        sets = tuple(iv.normalize(s) for s in sets)
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


def _step_law(kernel: Kernel, dt: float):
    """(s, amp): over a step dt the kernel is amp times the normal density
    of standard deviation s / sqrt(2)."""
    if kernel is Kernel.STANDARD:
        return math.sqrt(2.0 * dt), 1.0
    return math.sqrt(dt), 1.0 / math.sqrt(2.0)


class Method(Enum):
    QUADRATURE = "quadrature"
    MONTE_CARLO = "mc"


class ToleranceUnreachable(RuntimeError):
    """The premeasure stopped short of tol: ``achieved`` is the error
    bound where it stopped, and the message says why it stopped."""

    def __init__(self, achieved, why):
        super().__init__(f"{why}; achieved error bound {achieved}")
        self.achieved = achieved


# -- Chapman-Kolmogorov propagation on a uniform grid -----------------------
#
# The sub-density of the path at t_i (the mass of the paths that met every
# constraint so far) lives on cells of width h with edges -L + e*h, the mass
# of each cell inside B_i spread evenly over the cell.  A cell that an
# endpoint of B_i cuts leaves a piece inside B_i: the mass that lands there,
# spread evenly over the piece.  A step sends each box of mass through the
# Gaussian kernel and collects, exactly, what lands in each whole cell of
# B_{i+1}; from cell to cell that mass depends on the offset of the cells
# alone, so that part is one Toeplitz product, applied by FFT, and the few
# pieces are done one by one.  The last layer, the mass that lands in B_n,
# is closed form in the same way.  A box, unlike a point mass at its
# centre, leaks across a nearby endpoint in a step much shorter than a cell.
#
# No cell straddles an endpoint, so the error is c*h^2 from the even spread
# plus higher-order terms that depend on where the endpoints cut their
# cells.  Once successive differences v(2h) - v(h) shrink fourfold per
# halving, the value reported is Richardson's (4 v(h/2) - v(h)) / 3, and the
# grid term |v(h) - v(h/2)| / 3 estimates the error of v(h/2).  It is an
# estimate, not a bound; it overstates the error of the extrapolated value
# while the h^2 term leads.  A step shorter than 8 cells breaks the h^2 law
# near the endpoints; _ck_premeasure then reports the finest value.

_CELL_CAP = 1 << 20  # cells across [-L, L] before ToleranceUnreachable
_ROUNDOFF = 1e-15  # floating-point allowance per step
_NARROW = 1.0 / 64.0  # boxes narrower than this many spreads take the series


def _tail(u: float) -> float:
    """Normal mass above u, in units of s: erfc(u) / 2."""
    return 0.5 * math.erfc(u)


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n.  numpy's FFT takes such lengths
    fastest: on 10^4-10^5 points, about half the time of the next power
    of two, and a tenth of that of a length with a large prime factor."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _erfc_at(z: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, z.tolist()), float, len(z))


def _box_tail(v: np.ndarray, w, s: float) -> np.ndarray:
    """The mass beyond v >= 0 after one step of spread s, of unit mass
    spread evenly over [-w/2, w/2] (w a width, or one width per v).

    A narrow box is a point mass plus the w^2 and w^4 terms of its
    Euler-Maclaurin series, the next term below 1e-15; a wider one is the
    tail averaged over the box exactly, through ierfc(x) / 2, the integral
    of the tail above x."""
    u, r = v / s, w / s
    if np.ndim(r):  # both forms, each taken where it holds
        return np.where(r < _NARROW, _narrow_tail(u, r), _wide_tail(u, np.maximum(r, _NARROW)))
    return _narrow_tail(u, r) if r < _NARROW else _wide_tail(u, r)


def _narrow_tail(u, r):
    series = r * r / 12.0 + r**4 * (8.0 * u * u - 12.0) / 1920.0
    return 0.5 * _erfc_at(u) + np.exp(-u * u) / math.sqrt(math.pi) * u * series


def _wide_tail(u, r):
    def ierfc_half(x):
        return 0.5 * (np.exp(-x * x) / math.sqrt(math.pi) - x * _erfc_at(x))

    a = r / 2.0 - u  # how far the box reaches past v
    return (np.maximum(a, 0.0) + ierfc_half(np.abs(a)) - ierfc_half(u + r / 2.0)) / r


def _below(d: np.ndarray, w, s: float) -> np.ndarray:
    """The mass below y after one step of spread s, of unit boxes of width
    w centred at y + d."""
    far = _box_tail(np.abs(d), w, s)
    return np.where(d > 0.0, far, 1.0 - far)


class _Grid:
    """Cells [-L + k*h, -L + (k+1)*h] with the kernels used on them.
    Every Gaussian window stops at z spreads, where the tail is _tail(z)."""

    def __init__(self, half_width: float, h: float, z: float):
        self.L, self.h, self.z = half_width, h, z
        self._kernels = {}

    def edge(self, e):
        return -self.L + e * self.h

    def centres(self, k0, k1) -> np.ndarray:
        return -self.L + (np.arange(k0, k1) + 0.5) * self.h

    def split(self, sets) -> tuple:
        """(runs of whole cells (k0, k1), pieces (a, b) cut from cells)."""
        runs, pieces = [], []
        for a, b in sets:
            ia = math.ceil((a + self.L) / self.h)
            ib = math.floor((b + self.L) / self.h)
            while self.edge(ia) < a:
                ia += 1
            while self.edge(ib) > b:
                ib -= 1
            if ia > ib:  # a and b cut the same cell
                pieces.append((a, b))
                continue
            if a < self.edge(ia):
                pieces.append((a, self.edge(ia)))
            if ia < ib:
                runs.append((ia, ib))
            if self.edge(ib) < b:
                pieces.append((self.edge(ib), b))
        return runs, pieces

    def kernel(self, s: float) -> np.ndarray:
        """Mass that a cell sends d cells away, for d = -D..D, where D*h
        covers z * s."""
        if s not in self._kernels:
            reach = math.ceil(self.z * s / self.h) + 1
            q = _box_tail((np.arange(reach + 1) + 0.5) * self.h, self.h, s)
            right = np.concatenate(([1.0 - 2.0 * q[0]], q[:-1] - q[1:]))
            self._kernels[s] = np.concatenate((right[:0:-1], right))
        return self._kernels[s]


class _SubDensity:
    """Boxes of mass: ``mass[k - first]`` over cell k, and ``piece_mass``
    over [piece_lo, piece_hi]."""

    def __init__(self, grid, first, mass, piece_lo, piece_hi, piece_mass):
        self.grid, self.first, self.mass = grid, first, mass
        self.piece_lo, self.piece_hi, self.piece_mass = piece_lo, piece_hi, piece_mass

    def cdf(self, y: float, s: float) -> float:
        """Mass below y after one step of spread s."""
        if y == INF:
            return float(self.mass.sum() + self.piece_mass.sum())
        if y == -INF:
            return 0.0
        # whole cells within z spreads of y; those left of them count in
        # full, those right of them not at all
        g, n = self.grid, len(self.mass)
        k0 = min(max(math.ceil((y - g.z * s + g.L) / g.h) - 1 - self.first, 0), n)
        k1 = min(max(math.floor((y + g.z * s + g.L) / g.h) + 1 - self.first, k0), n)
        x = g.centres(self.first + k0, self.first + k1)
        total = float(self.mass[:k0].sum())
        total += float(self.mass[k0:k1] @ _below(x - y, g.h, s))
        lo, hi = self.piece_lo, self.piece_hi
        return total + float(self.piece_mass @ _below((lo + hi) / 2.0 - y, hi - lo, s))

    def advance(self, sets, s: float) -> _SubDensity:
        """The sub-density one step of spread s later, restricted to sets."""
        g = self.grid
        runs, pieces = g.split(sets)
        piece_lo = np.array([a for a, _ in pieces])
        piece_hi = np.array([b for _, b in pieces])
        piece_mass = np.array([self.cdf(b, s) - self.cdf(a, s) for a, b in pieces])
        if not runs:
            return _SubDensity(g, 0, np.zeros(0), piece_lo, piece_hi, piece_mass)
        t0, t1 = runs[0][0], runs[-1][1]
        out = self._to_cells(t0, t1, s)
        old = zip(self.piece_lo.tolist(), self.piece_hi.tolist(), self.piece_mass.tolist())
        for a, b, m in old:
            self._box_to_cells(out, t0, a, b, m, s)
        keep = np.zeros(t1 - t0, dtype=bool)
        for k0, k1 in runs:
            keep[k0 - t0:k1 - t0] = True
        out[~keep] = 0.0
        return _SubDensity(g, t0, out, piece_lo, piece_hi, piece_mass)

    def _to_cells(self, t0, t1, s) -> np.ndarray:
        """Whole cells to whole cells t0..t1-1: one Toeplitz product by FFT."""
        out = np.zeros(t1 - t0)
        n = len(self.mass)
        if n == 0:
            return out
        kern = self.grid.kernel(s)
        reach = len(kern) // 2
        s0, s1 = self.first, self.first + n
        d0, d1 = max(t0 - (s1 - 1), -reach), min(t1 - 1 - s0, reach)
        if d0 > d1:
            return out
        kv = kern[d0 + reach:d1 + reach + 1]
        size = n + len(kv) - 1
        nfft = _fft_size(size)
        conv = np.fft.irfft(np.fft.rfft(self.mass, nfft) * np.fft.rfft(kv, nfft), nfft)
        # conv[r] lands in cell s0 + d0 + r
        j0, j1 = max(t0, s0 + d0), min(t1, s0 + d0 + size)
        out[j0 - t0:j1 - t0] = conv[j0 - s0 - d0:j1 - s0 - d0]
        return out

    def _box_to_cells(self, out, t0, a, b, m, s):
        """Add what mass m over [a, b] sends into each whole cell
        t0..t0+len(out)-1."""
        g = self.grid
        e0 = max(math.floor((a - g.z * s + g.L) / g.h), t0)
        e1 = min(math.ceil((b + g.z * s + g.L) / g.h), t0 + len(out))
        if e0 >= e1:
            return
        d = g.edge(np.arange(e0, e1 + 1)) - (a + b) / 2.0
        far = _box_tail(np.abs(d), b - a, s)  # mass beyond each edge, away from the box
        lo, hi = far[:-1], far[1:]
        cells = np.where(d[1:] <= 0.0, hi - lo, np.where(d[:-1] >= 0.0, lo - hi, 1.0 - lo - hi))
        out[e0 - t0:e1 - t0] += m * cells


def _steps(d: Cylinder) -> list:
    """t_i - t_{i-1}, rounded once (a short step keeps its digits)."""
    return [float(b - a) for a, b in zip((0,) + d.times, d.times)]


def _propagate(d: Cylinder, kernel: Kernel, grid: _Grid, bounds) -> float:
    """One propagation on ``grid``; B_i is clipped to [-bounds[i], bounds[i]]."""
    dts = _steps(d)
    dens = _SubDensity(grid, 0, np.zeros(0), np.array([0.0]), np.array([0.0]), np.array([1.0]))
    scale = 1.0
    for dt, sets, bound in zip(dts, d.sets, bounds):
        s, amp = _step_law(kernel, dt)
        dens = dens.advance(iv.intersect(sets, ((-bound, bound),)), s)
        scale *= amp
    s, amp = _step_law(kernel, dts[-1])
    return scale * amp * sum(dens.cdf(hi, s) - dens.cdf(lo, s) for lo, hi in d.sets[-1])


def _ck_premeasure(d: Cylinder, tol: float, kernel: Kernel):
    """(value, error estimate): the Richardson value, and the grid term
    plus the truncation term; one-time cylinders are closed form."""
    n = len(d.times)
    if n == 1:
        s, amp = _step_law(kernel, 1.0)
        return amp * sum(_tail(-hi / s) - _tail(-lo / s) for lo, hi in d.sets[0]), 0.0
    times = [float(t) for t in d.times[:-1]]
    spreads = [_step_law(kernel, t)[0] for t in times]
    # Truncation.  Paths outside [-L_i, L_i] at t_i < 1 are dropped, and
    # every kernel, cell and endpoint window stops at z spreads; each cut
    # loses at most the two normal tails beyond z of at most unit mass.
    # z is set so that the cuts stay a millionth of tol.
    cuts = 2 * (n - 1) + 4 * sum(len(s) for s in d.sets)
    z = 4.0
    while 2.0 * _tail(z) * cuts > 1e-6 * tol and z < 26.0:
        z += 0.25
    trunc = 2.0 * _tail(z) * cuts
    # The pilot spacing resolves the smallest step's spread and the
    # narrowest interval or gap of the sets (down to 2^-12): coarser grids
    # are not yet in the range where the error goes as h^2.
    shortest = scale = min(_step_law(kernel, dt)[0] for dt in _steps(d))
    for sets, s in zip(d.sets, spreads):
        ends = [e for pair in iv.intersect(sets, ((-z * s, z * s),)) for e in pair]
        scale = min([scale] + [b - a for a, b in zip(ends, ends[1:])])
    h = 2.0 ** -min(12, max(4, math.ceil(math.log2(8.0 / scale))))
    bounds = [math.ceil(z * s / h) * h for s in spreads]
    half_width = max(bounds)
    budget = tol - trunc
    floor = n * _ROUNDOFF
    if budget <= floor:
        raise ToleranceUnreachable(floor + trunc,
                                   "tol is below the round-off and truncation floor")

    def value(h):
        return _propagate(d, kernel, _Grid(half_width, h, z), bounds)

    fine, diff = value(h), None
    while True:
        h /= 2.0
        coarse, fine = fine, value(h)
        prev, diff = diff, coarse - fine
        ratio = prev / diff if prev is not None and diff else 0.0
        # Trust a convergence law only once successive differences keep
        # their sign and shrink by it.  With every step's spread at least 8
        # cells the law is h^2 (fourfold, give or take a quarter).  A shorter
        # step leaks across the endpoints next to it by an amount that the
        # even spread gets wrong to first order in h; there the differences
        # must shrink at least 1.5-fold, and the value of the finest grid is
        # reported with the geometric tail of the differences, 2 |diff|.
        if 8.0 * h <= shortest:
            best, err = fine - diff / 3.0, abs(diff) / 3.0 + floor
            settled = 3.0 <= ratio <= 5.5 or abs(diff) <= floor
        else:
            best, err = fine, 2.0 * abs(diff) + floor
            settled = 1.5 <= ratio <= 5.5
        if err <= budget and settled:
            return best, err + trunc
        if 4.0 * half_width / h > _CELL_CAP:  # h / 2 would pass the cap
            raise ToleranceUnreachable(err + trunc, (
                "the grid differences did not settle before the cell cap, so an "
                "estimate within tol is not trusted" if err <= budget else
                "the error did not fall to tol before the cell cap"))


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


_BLOCK = 1 << 16  # paths per seed stream, drawn and tested at once


def _mc_hits(d: Cylinder, stream, m: int) -> int:
    """Paths among m drawn from one seed stream that lie in d.

    The stream's (m, n) normal draw is taken at once, and each time is one
    contiguous row summed in place, x_j = x_{j-1} + z_j sqrt(dt_j).  These
    are the same float operations whatever thread runs them, so the count
    does not depend on scheduling.
    """
    rng = np.random.default_rng(stream)
    scale = np.sqrt(np.diff([0.0] + [float(t) for t in d.times]))
    z = rng.standard_normal((m, len(d.times)))
    x = z[:, 0] * scale[0]
    ok = np.ones(m, dtype=bool)
    for j, s in enumerate(d.sets):
        if j:
            x += z[:, j] * scale[j]
        if s != FULL_LINE:
            member = np.zeros(m, dtype=bool)
            for lo, hi in s:
                member |= (x >= lo) & (x < hi)
            ok &= member
    return int(np.count_nonzero(ok))


def _mc_premeasure(d: Cylinder, paths: int, seed: int):
    counts = np.zeros(-(-paths // _BLOCK), dtype=np.int64)

    def block(i):
        """Hits in block i, drawn from child i of SeedSequence(seed)."""
        stream = np.random.SeedSequence(seed, spawn_key=(i,))
        counts[i] = _mc_hits(d, stream, min(_BLOCK, paths - i * _BLOCK))

    run_blocks(block, counts.size)
    hits = int(counts.sum())
    p = hits / paths
    if 0 < hits < paths:
        return p, math.sqrt(p * (1 - p) / paths)
    # no hit or no miss: the one-sided 97.5 % Clopper-Pearson bound on the
    # far side of p stands in for p in the binomial variance
    far = -math.expm1(math.log(0.025) / paths)
    return p, math.sqrt(far * (1 - far) / paths)


def wiener_premeasure(d: Cylinder, method: Method = Method.QUADRATURE,
                      tol: float = 1e-8, seed: int = 0,
                      kernel: Kernel = Kernel.STANDARD,
                      paths: int = 1_000_000) -> dict:
    """Premeasure of a cylinder: P(Brownian path in d) for the standard
    kernel; for the unnormalized kernel, the printed-product value with no
    probability interpretation.

    Returns {"value": v, "stderr"| "quad_error": e}.  ``quad_error`` is
    an estimate within ``tol`` (see the module notes); past 2^20 grid
    cells ToleranceUnreachable is raised, which a step much shorter than
    the cells can bring about at any tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if paths < 1:
        raise ValueError("paths must be positive")
    if d.is_empty:
        key = "stderr" if method is Method.MONTE_CARLO else "quad_error"
        return {"value": 0.0, key: 0.0}
    if method is Method.QUADRATURE:
        value, bound = _ck_premeasure(d, tol, kernel)
        return {"value": value, "quad_error": bound}
    if kernel is not Kernel.STANDARD:
        raise ValueError("Monte Carlo sampling is defined for the standard kernel")
    value, stderr = _mc_premeasure(d, paths, seed)
    return {"value": value, "stderr": stderr}
