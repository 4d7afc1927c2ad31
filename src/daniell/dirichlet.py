"""Boundary-data functionals via numerical harmonic extension.

The point functional here is g -> u_g(x): solve the Laplace boundary
value problem for continuous boundary data g and read off the solution
at an interior point x.  Two independent solvers are provided so each
can serve as the other's oracle:

* a finite-difference solver: a polar 5-point grid on the unit disk, so
  the boundary is represented exactly, solved by an FFT in theta and one
  tridiagonal solve in r per Fourier mode; a standard 5-point grid on the
  unit square, diagonalised by the DST-I in both directions.  Both use
  numpy alone and report the residual of the stencil they solved; and
* walk-on-spheres: point estimates with a reported standard error.  Each
  block of 2^15 walkers walks to the end on its own seed stream, and the
  blocks run on a thread per CPU, so the estimate does not depend on the
  number of threads.  A step takes its direction from t = tan(a/2)
  of its uniform angle a and its distance to the circle from a square
  root, both on numpy's SIMD loops; estimates differ from those of a
  cos/sin/hypot step only at rounding level.  The standard error covers
  sampling only, not the O(1e-6 Lip g) bias of stopping a walker within
  1e-6 of the boundary.

Discontinuous boundary data (arc indicators) never reaches the solvers
directly; it enters only as the limit of monotone continuous ramps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .parallel import run_blocks

TWO_PI = 2.0 * math.pi
RESIDUAL_ULPS = 64  # disk residual gate: round-off in units of eps * top coefficient * max|g|


class Shape(Enum):
    UNIT_DISK = "disk"
    UNIT_SQUARE = "square"


@dataclass(frozen=True)
class DiskDomain:
    shape: Shape = Shape.UNIT_DISK
    h: float = 1.0 / 128.0

    def __post_init__(self):
        if not self.h > 0:  # NaN too
            raise ValueError("grid resolution must be positive")

    @property
    def param_period(self) -> float:
        return TWO_PI if self.shape is Shape.UNIT_DISK else 4.0


class BoundaryKind(Enum):
    CONTINUOUS = "continuous"
    ARC_INDICATOR = "arc_indicator"


@dataclass(frozen=True)
class BoundaryFunction:
    """Boundary data as a function of the boundary parameter.

    Disk: parameter is the angle in [0, 2pi).  Square: arc length in
    [0, 4) running counterclockwise from the origin corner.
    """

    evaluator: object
    kind: BoundaryKind = BoundaryKind.CONTINUOUS

    def __call__(self, s):
        return self.evaluator(s)

    @staticmethod
    def constant(c) -> BoundaryFunction:
        return BoundaryFunction(lambda s: c + 0.0 * np.asarray(s))

    @staticmethod
    def arc_indicator(lo, hi, period: float = TWO_PI) -> BoundaryFunction:
        lo, hi = float(lo), float(hi)

        def f(s):
            s = np.mod(np.asarray(s, dtype=float) - lo, period)
            return (s < (hi - lo)).astype(float)

        return BoundaryFunction(f, BoundaryKind.ARC_INDICATOR)


def arc_ramp(lo, hi, n: int, side: str = "lower",
             period: float = TWO_PI) -> BoundaryFunction:
    """Continuous trapezoid approximating an arc indicator.

    ``lower`` ramps sit inside the arc (increase to the indicator from
    below); ``upper`` ramps contain it.  Transition width is
    (hi - lo) / (2n), so the two means straddle the arc fraction
    symmetrically.  The arc wraps at ``period``, the length of the
    boundary parameter (2pi on the disk, 4 on the square), and must be
    shorter than it.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"arc ends must be finite, got [{lo}, {hi}]")
    length = hi - lo
    if length <= 0:
        raise ValueError("need lo < hi")
    if length >= period:
        raise ValueError(f"arc length {length} must be below the boundary's period {period}")
    if n < 1:
        raise ValueError(f"ramp index must be at least 1, got {n}")
    if side not in ("lower", "upper"):
        raise ValueError(f"ramp side must be 'lower' or 'upper', got {side!r}")
    delta = length / (2.0 * n)

    def f(s):
        s = np.mod(np.asarray(s, dtype=float) - lo, period)
        if side == "lower":
            up = s / delta
            down = (length - s) / delta
            inside = (s >= 0) & (s <= length)
            return np.where(inside, np.clip(np.minimum(up, down), 0.0, 1.0), 0.0)
        s = np.where(s > period - delta, s - period, s)
        up = (s + delta) / delta
        down = (length + delta - s) / delta
        inside = (s >= -delta) & (s <= length + delta)
        return np.where(inside, np.clip(np.minimum(up, down), 0.0, 1.0), 0.0)

    return BoundaryFunction(f)


@dataclass(frozen=True)
class HarmonicField:
    """Grid solution with its measured discrete-Laplacian residual."""

    domain: DiskDomain
    values: np.ndarray
    boundary: np.ndarray
    residual: float

    def at(self, x, y) -> float:
        if self.domain.shape is Shape.UNIT_DISK:
            return _disk_interpolate(self, x, y)
        return _square_interpolate(self, x, y)

    def interior_max(self) -> float:
        return float(np.max(self.values))

    def boundary_max(self) -> float:
        return float(np.max(self.boundary))


class SolverFailure(RuntimeError):
    pass


def _solve_disk_grid(dom: DiskDomain, g: BoundaryFunction) -> HarmonicField:
    """Polar 5-point scheme on rings i*hr, centre = mean of ring 1.

    An rfft in theta leaves one tridiagonal system in r per mode k; only
    mode 0 sees the centre, and only the last ring has data, so the
    Thomas back substitution is U_i = -c'_i U_{i+1}.
    """
    nr = max(4, round(1.0 / dom.h))
    ntheta = max(16, 1 << int(math.ceil(math.log2(TWO_PI / dom.h))))
    hr = 1.0 / nr
    ht = TWO_PI / ntheta
    gb = np.asarray(g(np.arange(ntheta) * ht), dtype=float)

    r = np.arange(1, nr)[:, None] * hr
    a_plus = 1.0 / hr**2 + 1.0 / (2.0 * r * hr)
    a_minus = 1.0 / hr**2 - 1.0 / (2.0 * r * hr)
    a_t = 1.0 / (r * ht) ** 2
    diag = -2.0 / hr**2 - 2.0 * a_t * (1.0 - np.cos(np.arange(ntheta // 2 + 1) * ht))
    diag[0, 0] += a_minus[0, 0]

    c_prime = np.empty((nr - 2, diag.shape[1]))  # Thomas sweep, all modes at once
    denom = diag[0]
    for i in range(nr - 2):
        c_prime[i] = a_plus[i] / denom
        denom = diag[i + 1] - a_minus[i + 1] * c_prime[i]
    modes = np.empty(diag.shape, dtype=complex)
    modes[-1] = -a_plus[-1] * np.fft.rfft(gb) / denom
    for i in range(nr - 3, -1, -1):
        modes[i] = -c_prime[i] * modes[i + 1]

    values = np.empty((nr, ntheta))
    values[1:] = np.fft.irfft(modes, n=ntheta, axis=1)
    values[0] = values[1].mean()
    full = np.vstack([values, gb])
    lap = (a_minus * full[:-2] + a_plus * full[2:]
           + a_t * (np.roll(full[1:-1], 1, axis=1) + np.roll(full[1:-1], -1, axis=1))
           - (2.0 / hr**2 + 2.0 * a_t) * full[1:-1])
    residual = float(np.max(np.abs(lap)))
    # round-off in the stencil grows with its largest coefficient times the data
    bound = 1e-6 + RESIDUAL_ULPS * np.finfo(float).eps * (
        2.0 / hr**2 + 2.0 * a_t[0, 0]) * float(np.max(np.abs(gb)))
    if not np.all(np.isfinite(values)) or residual > bound:
        raise SolverFailure(f"disk grid solve residual {residual} above {bound}")
    return HarmonicField(dom, values, gb, residual)


def _disk_interpolate(field: HarmonicField, x, y) -> float:
    nr, ntheta = field.values.shape  # rows i=0..nr-1 at radius i/nr
    r = math.hypot(x, y)
    theta = math.atan2(y, x) % TWO_PI
    ri = r * nr
    i0 = min(int(ri), nr - 1)
    fr = ri - i0
    tj = theta / (TWO_PI / ntheta)
    j0 = int(tj) % ntheta
    ft = tj - int(tj)

    def ring(i):
        if i >= nr:
            vals = field.boundary
        else:
            vals = field.values[i]
        return (1 - ft) * vals[j0] + ft * vals[(j0 + 1) % ntheta]

    return (1 - fr) * ring(i0) + fr * ring(i0 + 1)


def _square_param(x, y):
    """Arc length around the unit square, counterclockwise from (0,0)."""
    return np.where(y == 0.0, x, np.where(x == 1.0, 1.0 + y,
                                          np.where(y == 1.0, 3.0 - x, 4.0 - y)))


def _dst1(a):
    """DST-I along the last axis, by rfft of the odd extension:
    out[..., k] = sum_j a[..., j] sin(pi (j+1)(k+1) / (m+1))."""
    m = a.shape[-1]
    zero = np.zeros(a.shape[:-1] + (1,))
    ext = np.concatenate([zero, a, zero, -a[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(ext, axis=-1).imag[..., 1:m + 1]


def _solve_square_grid(dom: DiskDomain, g: BoundaryFunction) -> HarmonicField:
    """5-point scheme, diagonalised by the DST-I in x and in y.

    The 1-D second difference has eigenvalues 2 cos(k pi / n) - 2, k = 1..n-1.
    """
    n = max(4, round(1.0 / dom.h))
    h = 1.0 / n
    xs = np.arange(n + 1) * h
    full = np.zeros((n + 1, n + 1))  # full[i, j] is the value at (xs[i], xs[j])
    for e in (0, n):
        side = np.full(n + 1, xs[e])
        full[:, e] = g(_square_param(xs, side))
        full[e, :] = g(_square_param(side, xs))

    def lap(u):  # the 5-point stencil at the interior points
        return u[2:, 1:n] + u[:-2, 1:n] + u[1:n, 2:] + u[1:n, :-2] - 4.0 * u[1:n, 1:n]

    rhs = -lap(full)  # the interior is still zero, so these are the boundary terms
    lam = 2.0 * np.cos(np.arange(1, n) * math.pi / n) - 2.0
    coef = _dst1(_dst1(rhs).T).T / (lam[:, None] + lam[None, :])
    full[1:n, 1:n] = (2.0 / n) ** 2 * _dst1(_dst1(coef).T).T
    residual = float(np.max(np.abs(lap(full)))) / h**2
    if not np.all(np.isfinite(full)):
        raise SolverFailure("square grid solve failed")
    boundary = np.concatenate([full[0, :], full[:, 0], full[n, :], full[:, n]])
    return HarmonicField(dom, full, boundary, residual)


def _square_interpolate(field: HarmonicField, x, y) -> float:
    n = field.values.shape[0] - 1
    fx, fy = x * n, y * n
    i0, j0 = min(int(fx), n - 1), min(int(fy), n - 1)
    ax, ay = fx - i0, fy - j0
    v = field.values
    return float(
        (1 - ax) * (1 - ay) * v[i0, j0]
        + ax * (1 - ay) * v[i0 + 1, j0]
        + (1 - ax) * ay * v[i0, j0 + 1]
        + ax * ay * v[i0 + 1, j0 + 1]
    )


class Solver(Enum):
    GRID = "grid"
    WALK_ON_SPHERES = "wos"


def solve_dirichlet(dom: DiskDomain, g: BoundaryFunction) -> HarmonicField:
    """Harmonic extension of continuous boundary data on the grid of
    ``dom``, with the residual of the stencil it solved."""
    if g.kind is not BoundaryKind.CONTINUOUS:
        raise ValueError("discontinuous data must go through extend_boundary")
    if dom.shape is Shape.UNIT_DISK:
        return _solve_disk_grid(dom, g)
    return _solve_square_grid(dom, g)


_BLOCK = 1 << 15  # walkers per seed stream, walked to the end at once
_MAX_STEPS = 10_000


def _move(lx, ly, dist, ang):
    """Step each walker by its distance along its angle a, in place:
    with t = tan(a / 2), (cos a, sin a) = (1 - t^2, 2t) / (1 + t^2).

    Halving a is exact, and numpy runs tan on SIMD where cos and sin go
    through scalar libm.  The map is well conditioned for every t, also
    as a nears pi and t grows without bound.  ``ang`` is overwritten;
    the two scratch arrays die on return, before the caller compacts.
    """
    t = np.tan(np.multiply(ang, 0.5, out=ang), out=ang)
    q = np.multiply(t, t)
    k = np.add(q, 1.0)
    k = np.divide(dist, k, out=k)  # dist / (1 + t^2)
    q = np.subtract(1.0, q, out=q)
    q *= k
    lx += q
    t *= 2.0
    t *= k
    ly += t


def _wos_exits(dom: DiskDomain, x, y, walks, seed) -> np.ndarray:
    """Boundary parameters of the exit points of ``walks`` walkers started
    at (x, y), block by block.

    Block i of _BLOCK walkers draws every angle from its own stream, child
    i of SeedSequence(seed), walks its walkers to the end on one thread,
    and writes their exits to its slice, in the order they exit; the
    blocks run on a thread per CPU.  The exits depend on the seed and the
    walk count, not on the number of threads.
    """
    if walks < 2:
        raise ValueError(f"a standard error needs at least 2 walks, got {walks}")
    disk = dom.shape is Shape.UNIT_DISK
    px = np.empty(walks)  # exit points, block by block
    py = np.empty(walks)

    def walk(i):
        bx, by = px[i * _BLOCK:(i + 1) * _BLOCK], py[i * _BLOCK:(i + 1) * _BLOCK]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        lx, ly = np.full(bx.size, float(x)), np.full(bx.size, float(y))
        dist = np.empty(bx.size)
        n = 0  # walkers exited
        for _ in range(_MAX_STEPS):
            if disk:  # |x|, |y| < 1, so hypot's overflow guard buys nothing
                np.multiply(lx, lx, out=dist)
                dist += ly * ly
                np.subtract(1.0, np.sqrt(dist, out=dist), out=dist)
            else:
                np.minimum(np.minimum(lx, 1.0 - lx), np.minimum(ly, 1.0 - ly), out=dist)
            out = dist <= 1e-6
            k = np.count_nonzero(out)
            if k:
                bx[n:n + k], by[n:n + k] = lx[out], ly[out]
                n += k
                if n == bx.size:
                    return
                keep = ~out
                lx, ly, dist = lx[keep], ly[keep], dist[keep]
            _move(lx, ly, dist, rng.uniform(0.0, TWO_PI, size=lx.size))
        raise SolverFailure("walk-on-spheres did not terminate")

    run_blocks(walk, -(-walks // _BLOCK))
    if disk:
        return np.mod(np.arctan2(py, px), TWO_PI)
    return _square_project(px, py)


def _stderr(vals: np.ndarray) -> float:
    """Standard error of the mean of per-walk values."""
    return float(vals.std(ddof=1) / math.sqrt(vals.size))


def _square_project(px, py):
    d = np.stack([py, 1.0 - px, 1.0 - py, px])  # distance to each side
    side = np.argmin(d, axis=0)
    s = np.empty_like(px)
    s[side == 0] = px[side == 0]
    s[side == 1] = 1.0 + py[side == 1]
    s[side == 2] = 3.0 - px[side == 2]
    s[side == 3] = 4.0 - py[side == 3]
    return np.mod(s, 4.0)


@dataclass(frozen=True)
class SolveConfig:
    domain: DiskDomain = DiskDomain()
    solver: Solver = Solver.GRID
    seed: int = 0
    walks: int = 100_000


def _interior_point(x, dom: DiskDomain):
    x0, x1 = float(x[0]), float(x[1])
    if dom.shape is Shape.UNIT_DISK:
        if not math.hypot(x0, x1) < 1.0:  # NaN too
            raise ValueError("point must be strictly interior")
    elif not (0.0 < x0 < 1.0 and 0.0 < x1 < 1.0):
        raise ValueError("point must be strictly interior")
    return x0, x1


def ix_eval(x, g: BoundaryFunction, cfg: SolveConfig = SolveConfig()):
    """u_g at the interior point x = (x0, x1), for continuous g.

    Returns (value, stderr): the grid solver interpolates its field and
    reports stderr 0; walk-on-spheres uses ``cfg.walks`` walkers seeded
    by ``cfg.seed``, and its stderr is the sampling error alone.
    """
    x0, x1 = _interior_point(x, cfg.domain)
    if cfg.solver is Solver.GRID:
        return solve_dirichlet(cfg.domain, g).at(x0, x1), 0.0
    if g.kind is not BoundaryKind.CONTINUOUS:
        raise ValueError("discontinuous data must go through extend_boundary")
    vals = np.asarray(g(_wos_exits(cfg.domain, x0, x1, cfg.walks, cfg.seed)), dtype=float)
    return float(vals.mean()), _stderr(vals)


class NonMonotoneBoundary(ValueError):
    pass


def extend_boundary(x, f_seq, depth: int, tol: float,
                    cfg: SolveConfig = SolveConfig()) -> dict:
    """Limit of u_{f_n}(x) along a monotone sequence of boundary data.

    ``f_seq`` maps n >= 1 to a continuous BoundaryFunction; monotonicity
    is verified at 64 boundary probes along the doubling schedule
    1, 2, 4, ..., depth.  Only the last two terms of the schedule are
    solved: the certificate reports the observed gap between them (the
    Harnack-style convergence surrogate).
    """
    _interior_point(x, cfg.domain)
    period = cfg.domain.param_period
    ss = np.arange(64) * (period / 64)
    schedule = []
    n = 1
    while n < depth:
        schedule.append(n)
        n *= 2
    schedule.append(depth)
    prev = None
    last = []
    for n in schedule:
        f = f_seq(n)
        fv = np.asarray(f(ss), dtype=float)
        if prev is not None and np.any(fv < prev - 1e-12):
            raise NonMonotoneBoundary(f"boundary data decreased at n={n}")
        prev = fv
        last = [*last[-1:], f]
    values = [ix_eval(x, f, cfg) for f in last]
    gap = abs(values[-1][0] - values[0][0]) if len(values) > 1 else 0.0
    if gap > tol:
        raise NonMonotoneBoundary(
            f"bracket {gap} wider than tol {tol} at depth {depth}"
        )
    v, se = values[-1]
    return {"value": v, "stderr": se, "harnack_gap": gap, "depth": depth}


def harmonic_measure_of_arc(x, lo, hi, cfg: SolveConfig = SolveConfig(),
                            n: int = 16) -> dict:
    """Harmonic measure of the boundary arc [lo, hi] at interior point x.

    Brackets the measure between the harmonic extensions of inner and
    outer continuous ramps; the midpoint cancels the symmetric ramp bias.
    Walk-on-spheres reads both ramps at the same exit points, so its
    stderr is that of the per-walk midpoints.
    """
    period = cfg.domain.param_period
    lower = arc_ramp(lo, hi, n, side="lower", period=period)
    upper = arc_ramp(lo, hi, n, side="upper", period=period)
    if cfg.solver is Solver.GRID:
        v_lo, _ = ix_eval(x, lower, cfg)
        v_hi, _ = ix_eval(x, upper, cfg)
        stderr = 0.0
    else:
        params = _wos_exits(cfg.domain, *_interior_point(x, cfg.domain),
                            cfg.walks, cfg.seed)
        lo_vals, hi_vals = lower(params), upper(params)
        v_lo, v_hi = float(lo_vals.mean()), float(hi_vals.mean())
        stderr = _stderr(0.5 * (lo_vals + hi_vals))
    return {
        "value": 0.5 * (v_lo + v_hi),
        "lower": v_lo,
        "upper": v_hi,
        "stderr": stderr,
        "ramp_n": n,
    }
