"""Harmonic measure through the Dirichlet problem on the unit disk.

Oracle: the Poisson integral

    u(r, θ) = (1/2π) ∫ g(φ) (1 − r²) / (1 − 2r cos(θ − φ) + r²) dφ,

evaluated with adaptive quadrature.  An arc indicator evaluated at the
center gives the arc's angular fraction.  The closed forms g ≡ c and
g = cos and the maximum principle are records of
``daniell.verify.dirichlet_suite``.
"""

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from daniell import dirichlet as dmod
from daniell import parallel
from daniell.dirichlet import (
    BoundaryFunction,
    DiskDomain,
    NonMonotoneBoundary,
    Shape,
    SolveConfig,
    Solver,
    SolverFailure,
    arc_ramp,
    extend_boundary,
    harmonic_measure_of_arc,
    ix_eval,
    solve_dirichlet,
)
from daniell.verify import _random_trig_boundary

COARSE = SolveConfig(domain=DiskDomain(Shape.UNIT_DISK, 1 / 32))
FINE = SolveConfig(domain=DiskDomain(Shape.UNIT_DISK, 1 / 128))
# continuous data on the square, by arc length counterclockwise from (0, 0)
SQUARE_COS = BoundaryFunction(lambda s: np.cos(np.pi * np.asarray(s) / 2))


def poisson_oracle(g, r, theta):
    def integrand(phi):
        return g(phi) * (1 - r * r) / (1 - 2 * r * math.cos(theta - phi) + r * r)

    val, _ = quad(integrand, 0, 2 * math.pi, limit=400)
    return val / (2 * math.pi)


# -- the Poisson oracle ------------------------------------------------------


def test_poisson_oracle_agrees_with_grid_solver():
    rng = random.Random(2)
    g = arc_ramp(0.7, 2.9, 8)
    for _ in range(5):
        r = rng.uniform(0, 0.6)
        th = rng.uniform(0, 2 * math.pi)
        x, y = r * math.cos(th), r * math.sin(th)
        assert abs(ix_eval((x, y), g, FINE)[0] - poisson_oracle(g, r, th)) < 2e-3


# -- harmonic measure -----------------------------------------------------------


def test_arc_measure_at_center_is_arc_fraction():
    for lo, hi in [(0.0, math.pi), (0.0, math.pi / 3), (1.0, 2.5)]:
        r = harmonic_measure_of_arc((0.0, 0.0), lo, hi, FINE, n=16)
        assert abs(r["value"] - (hi - lo) / (2 * math.pi)) < 1e-3
        assert r["lower"] <= r["value"] <= r["upper"]


def test_arc_measure_off_center_matches_poisson_oracle():
    g = BoundaryFunction.arc_indicator(0.5, 1.5)
    r = harmonic_measure_of_arc((0.3, -0.2), 0.5, 1.5, FINE, n=16)
    rad = math.hypot(0.3, -0.2)
    th = math.atan2(-0.2, 0.3)
    assert abs(r["value"] - poisson_oracle(g, rad, th)) < 2e-3


@pytest.mark.parametrize("solver", [Solver.GRID, Solver.WALK_ON_SPHERES])
def test_discontinuous_data_reaches_no_solver(solver):
    cfg = SolveConfig(domain=COARSE.domain, solver=solver, walks=100)
    with pytest.raises(ValueError, match="extend_boundary"):
        ix_eval((0.0, 0.0), BoundaryFunction.arc_indicator(0.5, 1.5), cfg)


def test_arc_ramps_bracket_the_indicator():
    lo, hi = 0.5, 2.0
    ind = BoundaryFunction.arc_indicator(lo, hi)
    lower, upper = arc_ramp(lo, hi, 8, side="lower"), arc_ramp(lo, hi, 8, side="upper")
    for phi in np.linspace(0, 2 * math.pi, 200):
        assert lower(phi) <= ind(phi) <= upper(phi) + 1e-12


def test_square_arcs_wrap_at_the_square_period():
    # (0.5, 0.2) is symmetric about x = 1/2, so the arc [3.5, 4.5], which
    # wraps past the corner at s = 4 = 0, has the measure of its mirror
    # image [0.5, 1.5]; wrapping at 2pi kept only [3.5, 4] and read 0.10
    cfg = SolveConfig(domain=DiskDomain(Shape.UNIT_SQUARE, 1 / 64))
    wrapped = harmonic_measure_of_arc((0.5, 0.2), 3.5, 4.5, cfg)
    mirror = harmonic_measure_of_arc((0.5, 0.2), 0.5, 1.5, cfg)
    for key in ("lower", "upper"):
        assert wrapped[key] == pytest.approx(mirror[key], abs=1e-12)
    # and its two halves, split at the corner, sum to a bracket that meets it
    halves = [harmonic_measure_of_arc((0.5, 0.2), a, b, cfg) for a, b in [(3.5, 4.0), (0.0, 0.5)]]
    assert sum(h["lower"] for h in halves) <= wrapped["upper"]
    assert wrapped["lower"] <= sum(h["upper"] for h in halves)
    ind = BoundaryFunction.arc_indicator(3.5, 4.5, period=4.0)
    assert list(ind(np.array([3.4, 3.6, 0.2, 0.6]))) == [0.0, 1.0, 1.0, 0.0]


@pytest.mark.parametrize("shape, lo, hi, match", [
    (Shape.UNIT_DISK, math.nan, 1.0, "finite"),
    (Shape.UNIT_DISK, 0.0, math.nan, "finite"),
    (Shape.UNIT_DISK, -math.inf, 1.0, "finite"),
    (Shape.UNIT_DISK, 0.0, math.inf, "finite"),
    (Shape.UNIT_DISK, 0.0, 2 * math.pi, "period"),
    (Shape.UNIT_DISK, -1.0, 2 * math.pi, "period"),
    (Shape.UNIT_SQUARE, 0.0, 4.0, "period"),
])
def test_bad_arcs_are_rejected(shape, lo, hi, match):
    # each returned an unsound bracket or failed in the solver: a NaN end
    # gave [0, 0], an infinite one a NaN residual, and a whole-circle arc
    # [0.923, 0.972] for a measure of 1
    cfg = SolveConfig(domain=DiskDomain(shape, 1 / 16))
    with pytest.raises(ValueError, match=match):
        harmonic_measure_of_arc((0.5, 0.2), lo, hi, cfg)


def test_unknown_ramp_side_is_rejected():
    # any side but "lower" gave the upper ramp
    with pytest.raises(ValueError, match="side"):
        arc_ramp(0.0, 1.0, 4, side="Lower")


# -- monotone data -----------------------------------------------------------------


def ramp(n):
    return arc_ramp(0.2, 1.8, n, side="lower")


def test_extend_boundary_increasing_ramps(monkeypatch):
    # increasing ramp approximations of an arc indicator: the extension
    # converges and reports a certified gap, with one grid solve for the
    # whole schedule 1, 2, 4, 8, 16, whose last two terms it reports
    v8, v16 = (ix_eval((0.0, 0.0), ramp(n), COARSE)[0] for n in (8, 16))
    solved = []
    solve = dmod.solve_dirichlet
    monkeypatch.setattr(dmod, "solve_dirichlet",
                        lambda dom, g: solved.append(g) or solve(dom, g))
    out = extend_boundary((0.0, 0.0), ramp, depth=16, tol=1e-2, cfg=COARSE)
    assert len(solved) == 1
    assert out == {"value": v16, "stderr": 0.0, "harnack_gap": abs(v16 - v8), "depth": 16}
    assert abs(out["value"] - (1.8 - 0.2) / (2 * math.pi)) < 1e-2
    assert out["harnack_gap"] <= 1e-2


def test_extend_boundary_walks_once(monkeypatch):
    # walk-on-spheres reads every term at the exits of one walk: the
    # output is that of the last two terms' ix_eval under the same seed
    cfg = SolveConfig(solver=Solver.WALK_ON_SPHERES, seed=9, walks=5_000)
    (v8, _), (v16, se16) = (ix_eval((0.3, 0.2), ramp(n), cfg) for n in (8, 16))
    walked = []
    exits = dmod._wos_exits
    monkeypatch.setattr(dmod, "_wos_exits", lambda *a: walked.append(a) or exits(*a))
    out = extend_boundary((0.3, 0.2), ramp, depth=16, tol=0.5, cfg=cfg)
    assert len(walked) == 1
    assert out == {"value": v16, "stderr": se16, "harnack_gap": abs(v16 - v8), "depth": 16}


def test_extend_boundary_rejects_nonmonotone():
    lo, hi = 0.2, 1.8

    def flip(n):
        side = "lower" if n % 2 else "upper"
        return arc_ramp(lo, hi, n, side=side)

    with pytest.raises(NonMonotoneBoundary):
        extend_boundary((0.0, 0.0), flip, depth=8, tol=1e-3, cfg=COARSE)

    # 0.5, dropping to 0.1 within 1e-3 of grid node 1 for n >= 2: no
    # point of a 64-probe check came near it, and the limit read 0.4720,
    # below u_{f_1} = 0.5, with harnack_gap 0
    node = 2 * math.pi / 256

    def dip(n):
        drop = 0.0 if n == 1 else 0.4
        return BoundaryFunction(
            lambda s: 0.5 - drop * np.clip(1 - np.abs(np.asarray(s) - node) / 1e-3, 0, 1))

    with pytest.raises(NonMonotoneBoundary):
        extend_boundary((0.9, 0.05), dip, depth=4, tol=1e-3, cfg=COARSE)
    # a point off the domain is reported first, as when n = 1 was solved
    with pytest.raises(ValueError, match="strictly interior"):
        extend_boundary((1.0, 0.0), flip, depth=8, tol=1e-3, cfg=COARSE)


# -- walk on spheres ---------------------------------------------------------------


def test_wos_agrees_with_grid():
    g = arc_ramp(0.0, math.pi, 4)
    wos_cfg = SolveConfig(
        domain=DiskDomain(Shape.UNIT_DISK, 1 / 32),
        solver=Solver.WALK_ON_SPHERES,
        seed=5,
        walks=40_000,
    )
    for x in [(0.0, 0.0), (0.4, 0.1)]:
        val, err = ix_eval(x, g, wos_cfg)
        ref, _ = ix_eval(x, g, COARSE)
        assert err > 0
        assert abs(val - ref) < 4 * err + 1e-3


def test_wos_deterministic_under_seed():
    g = arc_ramp(0.0, math.pi, 4)
    cfg = SolveConfig(
        domain=DiskDomain(Shape.UNIT_DISK, 1 / 32),
        solver=Solver.WALK_ON_SPHERES, seed=8, walks=10_000,
    )
    assert ix_eval((0.2, 0.3), g, cfg) == ix_eval((0.2, 0.3), g, cfg)
    # exact floats of the fixed-seed estimator: any change to the walk or
    # to the order and size of its random draws shows here.  They are
    # those of serial_wos_exits; the bits follow numpy's SIMD dispatch of
    # tan, which may differ by CPU
    assert ix_eval((0.2, 0.3), g, cfg) == (0.6326477745346354, 0.004599976534142127)
    square = SolveConfig(domain=DiskDomain(Shape.UNIT_SQUARE, 1 / 32),
                         solver=Solver.WALK_ON_SPHERES, seed=3, walks=20_000)
    assert ix_eval((0.3, 0.6), SQUARE_COS, square) == (0.1367197140648616,
                                                        0.004621108404023371)


def serial_wos_exits(dom, x, y, walks, seed):
    """Walk-on-spheres as a serial loop over the blocks, block i walked to
    the end on child i of SeedSequence(seed), its exits in the order they
    exit: the reference for the threaded walk."""
    px, py = [], []
    for i, lo in enumerate(range(0, walks, dmod._BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        m = min(dmod._BLOCK, walks - lo)
        lx, ly = np.full(m, float(x)), np.full(m, float(y))
        for _ in range(10_000):
            if dom.shape is Shape.UNIT_DISK:
                dist = 1.0 - np.sqrt(lx * lx + ly * ly)
            else:
                dist = np.minimum(np.minimum(lx, 1.0 - lx), np.minimum(ly, 1.0 - ly))
            out = dist <= 1e-6
            px.append(lx[out])
            py.append(ly[out])
            lx, ly, dist = lx[~out], ly[~out], dist[~out]
            if lx.size == 0:
                break
            t = np.tan(rng.uniform(0.0, 2 * math.pi, size=lx.size) / 2)
            k = dist / (1 + t * t)  # (cos a, sin a) = (1 - t^2, 2t) / (1 + t^2)
            lx += k * (1 - t * t)
            ly += k * (2 * t)
        else:
            raise AssertionError("the reference walk did not terminate")
    px, py = np.concatenate(px), np.concatenate(py)
    if dom.shape is Shape.UNIT_DISK:
        return np.mod(np.arctan2(py, px), 2 * math.pi)
    return dmod._square_project(px, py)


WOS_CASES = [
    (Shape.UNIT_DISK, (0.3, -0.45), 10_001),  # not divisible by the block size
    (Shape.UNIT_DISK, (-0.2, 0.1), 2),  # fewer walkers than a block
    (Shape.UNIT_DISK, (0.0, 0.0), 3_001),  # every walker exits at step 2
    (Shape.UNIT_SQUARE, (0.8, 0.35), 10_001),
    (Shape.UNIT_SQUARE, (0.1, 0.6), 2),
    (Shape.UNIT_SQUARE, (0.5, 0.5), 3_001),
]


@pytest.mark.parametrize("blocks", [1, 2, 3, 7])
@pytest.mark.parametrize("inline", ["default", "never"])
def test_wos_exits_do_not_depend_on_block_count(monkeypatch, blocks, inline):
    # each case's walkers split into up to ``blocks`` blocks; the threaded
    # walk gives the exits of the serial walk over the same blocks.
    # "never" gives every block a thread of its own, so no thread walks
    # two blocks one after the other
    if inline == "never":
        monkeypatch.setattr(parallel, "cpus", lambda: blocks)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed, (shape, (x, y), walks) in enumerate(WOS_CASES):
            monkeypatch.setattr(dmod, "_BLOCK", -(-walks // blocks))
            dom = DiskDomain(shape, 1 / 32)
            got = dmod._wos_exits(dom, x, y, walks, seed)
            assert got.tobytes() == serial_wos_exits(dom, x, y, walks, seed).tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_wos_exits_do_not_depend_on_thread_count(monkeypatch, cpus):
    # blocks of 1 000 walkers, so the cases span up to 11 blocks
    monkeypatch.setattr(dmod, "_BLOCK", 1_000)
    monkeypatch.setattr(parallel, "cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed, (shape, (x, y), walks) in enumerate(WOS_CASES):
            dom = DiskDomain(shape, 1 / 32)
            got = dmod._wos_exits(dom, x, y, walks, seed)
            assert got.tobytes() == serial_wos_exits(dom, x, y, walks, seed).tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_wos_direction_matches_cos_and_sin():
    # a unit step from the origin is the direction itself
    alpha = np.concatenate([
        np.random.default_rng(17).uniform(0.0, 2 * math.pi, 10**6),
        [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, np.nextafter(2 * math.pi, 0.0)],
    ])
    c, s = np.zeros(alpha.size), np.zeros(alpha.size)
    dmod._move(c, s, np.ones(alpha.size), alpha.copy())
    assert np.max(np.abs(c - np.cos(alpha))) <= 4 * 2.0**-53
    assert np.max(np.abs(s - np.sin(alpha))) <= 4 * 2.0**-53
    assert np.max(np.abs(c * c + s * s - 1.0)) <= 4 * np.spacing(1.0)


def test_wos_stderr_covers_the_exact_value():
    # u = r^2 cos 2(phi - 0.7) for g = cos 2(theta - 0.7); the stopping
    # shell's O(1e-6) bias is far below the stderr of 4 000 walks
    x = (0.45, -0.3)
    g = BoundaryFunction(lambda s: np.cos(2 * (np.asarray(s) - 0.7)))
    exact = math.hypot(*x) ** 2 * math.cos(2 * (math.atan2(x[1], x[0]) - 0.7))
    z = []
    for seed in range(200):
        cfg = SolveConfig(solver=Solver.WALK_ON_SPHERES, seed=seed, walks=4_000)
        value, stderr = ix_eval(x, g, cfg)
        z.append((value - exact) / stderr)
    z = np.array(z)
    assert np.mean(np.abs(z) <= 2) >= 0.9
    assert abs(np.mean(z)) <= 0.3


def test_wos_memory_stays_within_six_point_seven_arrays(monkeypatch):
    # both exit arrays, and on each of two threads the compaction of a
    # block of 2^15 walkers: its old and new positions and distances and
    # two masks (about 6.1 arrays of ``walks`` floats in all); scratch
    # arrays of the step that outlive it would add to that
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    walks = 100_000
    dom = DiskDomain(Shape.UNIT_DISK, 1 / 32)
    # a first threaded call loads modules, whose objects tracemalloc would count
    dmod._wos_exits(dom, 0.3, 0.2, walks, 1)
    tracemalloc.start()
    try:
        dmod._wos_exits(dom, 0.3, 0.2, walks, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.7 * 8 * walks


def test_wos_threads_at_most_one_per_cpu(monkeypatch):
    pools = []

    class Recording(parallel.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Recording)
    g = arc_ramp(0.0, math.pi, 4)
    # the calling thread walks blocks itself, and one block makes no pool
    for cpus, walks, want in [(8, 100, []), (8, 8_000, []), (1, 100_000, []),
                              (2, 100_000, [1]), (64, 40_000, [1]),
                              (64, 100_000, [3])]:
        pools.clear()
        monkeypatch.setattr(parallel, "cpus", lambda cpus=cpus: cpus)
        cfg = SolveConfig(solver=Solver.WALK_ON_SPHERES, seed=2, walks=walks)
        ix_eval((0.1, 0.2), g, cfg)
        assert pools == want


def test_wos_failure_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(dmod, "_BLOCK", 4_096)
    monkeypatch.setattr(dmod, "_MAX_STEPS", 2)
    monkeypatch.setattr(parallel, "cpus", lambda: 3)
    before = set(threading.enumerate())
    cfg = SolveConfig(solver=Solver.WALK_ON_SPHERES, walks=10_000)
    with pytest.raises(SolverFailure, match="did not terminate"):
        ix_eval((0.1, 0.2), arc_ramp(0.0, math.pi, 4), cfg)
    assert set(threading.enumerate()) == before


def test_wos_arc_stderr_counts_the_shared_walkers():
    # both ramps read the same exit points, so the two means are not
    # independent: the stderr is that of the per-walk midpoints, which is
    # the stderr of walking the midpoint ramp itself under the same seed
    x, lo, hi = (0.3, 0.2), 0.4, 2.1
    cfg = SolveConfig(solver=Solver.WALK_ON_SPHERES, seed=4, walks=20_000)
    r = harmonic_measure_of_arc(x, lo, hi, cfg)
    lower, upper = arc_ramp(lo, hi, 16, side="lower"), arc_ramp(lo, hi, 16, side="upper")
    v_lo, se_lo = ix_eval(x, lower, cfg)
    v_hi, se_hi = ix_eval(x, upper, cfg)
    assert (r["lower"], r["upper"], r["value"]) == (v_lo, v_hi, 0.5 * (v_lo + v_hi))
    midpoint = BoundaryFunction(lambda s: 0.5 * (lower(s) + upper(s)))
    assert r["stderr"] == ix_eval(x, midpoint, cfg)[1]
    # treating the two as independent understated it: 0.00245 against an
    # empirical sd of 0.00376 over seeds 0-59
    assert r["stderr"] > 1.3 * 0.5 * math.hypot(se_lo, se_hi)


# -- the grid solvers against a dense assembly of the same scheme ---------------------


def dense_polar_solve(h, g):
    """Centre plus rings i=1..nr-1 of the polar 5-point scheme, solved densely."""
    nr = round(1 / h)
    nt = max(16, 1 << math.ceil(math.log2(2 * math.pi / h)))
    hr, ht = 1 / nr, 2 * math.pi / nt
    gb = g(np.arange(nt) * ht)
    n = 1 + (nr - 1) * nt
    mat, rhs = np.zeros((n, n)), np.zeros(n)

    def idx(i, j):
        return 0 if i == 0 else 1 + (i - 1) * nt + j % nt

    mat[0, 0] = 1.0
    mat[0, 1:1 + nt] = -1.0 / nt  # the centre is the mean of ring 1
    for i in range(1, nr):
        r = i * hr
        a_plus = 1 / hr**2 + 1 / (2 * r * hr)
        a_minus = 1 / hr**2 - 1 / (2 * r * hr)
        a_t = 1 / (r * ht) ** 2
        for j in range(nt):
            row = idx(i, j)
            mat[row, row] += -2 / hr**2 - 2 * a_t
            mat[row, idx(i, j + 1)] += a_t
            mat[row, idx(i, j - 1)] += a_t
            mat[row, idx(i - 1, j)] += a_minus
            if i + 1 == nr:
                rhs[row] -= a_plus * gb[j]
            else:
                mat[row, idx(i + 1, j)] += a_plus
    sol = np.linalg.solve(mat, rhs)
    return np.vstack([np.full(nt, sol[0]), sol[1:].reshape(nr - 1, nt)])


@pytest.mark.parametrize("n", [8, 16])
def test_disk_solver_matches_dense_assembly(n):
    def g(s):
        s = np.asarray(s)
        return np.cos(2 * (s - 0.3)) + 0.5 * np.sin(s) + np.abs(np.sin(3 * s))

    field = solve_dirichlet(DiskDomain(Shape.UNIT_DISK, 1 / n), BoundaryFunction(g))
    assert np.max(np.abs(field.values - dense_polar_solve(1 / n, g))) < 1e-12
    assert field.residual < 1e-9


@pytest.mark.parametrize("shape", [Shape.UNIT_DISK, Shape.UNIT_SQUARE])
def test_nan_boundary_data_raises(shape):
    g = BoundaryFunction(lambda s: np.where(np.asarray(s) < 0.5, np.nan, 1.0))
    with pytest.raises(SolverFailure):
        solve_dirichlet(DiskDomain(shape, 1 / 16), g)


@pytest.mark.parametrize("n", [128, 256])
def test_fine_disk_solves_pass_the_residual_gate(n):
    # round-off in the residual grows with the largest stencil coefficient
    # (about 8.7e8 at h = 1/128) times max|g|; a fixed gate of 1e-6 would
    # reject most of these solves at h = 1/128 and all of them at 1/256
    rng = random.Random(5)
    for _ in range(20):
        g = _random_trig_boundary(rng, nonneg=True)
        field = solve_dirichlet(DiskDomain(Shape.UNIT_DISK, 1 / n), g)
        lo, hi = float(np.min(field.boundary)), float(np.max(field.boundary))
        assert lo - 1e-9 <= float(np.min(field.values)) <= field.interior_max() <= hi + 1e-9


# -- the unit square ---------------------------------------------------------------------


SQUARE_POINTS = [(0.5, 0.5), (0.1, 0.9), (0.3, 0.6), (0.8, 0.25), (0.97, 0.03)]


def square_boundary_x(s):
    """u = x on the boundary, by arc length counterclockwise from (0, 0)."""
    s = np.mod(np.asarray(s, dtype=float), 4.0)
    return np.where(s < 1, s, np.where(s < 2, 1.0, np.where(s < 3, 3.0 - s, 0.0)))


def test_square_reproduces_linear_data():
    # the 5-point scheme is exact on u = x, so only rounding remains.  At
    # n = 49, 98 and 103, n * (1/n) != 1, and nodes built as i * (1/n)
    # read the right and top sides at the wrong arc length: u missed x by
    # up to 0.55
    g = BoundaryFunction(square_boundary_x)
    for n in (49, 64, 98, 103):
        cfg = SolveConfig(domain=DiskDomain(Shape.UNIT_SQUARE, 1 / n))
        for p in SQUARE_POINTS:
            assert abs(ix_eval(p, g, cfg)[0] - p[0]) < 1e-12
        assert solve_dirichlet(cfg.domain, g).residual < 1e-6


def test_square_grid_agrees_with_wos():
    h = 1 / 64
    grid = SolveConfig(domain=DiskDomain(Shape.UNIT_SQUARE, h))
    wos = SolveConfig(domain=DiskDomain(Shape.UNIT_SQUARE, h),
                      solver=Solver.WALK_ON_SPHERES, seed=1, walks=40_000)
    for p in SQUARE_POINTS[:4]:
        ref, _ = ix_eval(p, SQUARE_COS, grid)
        val, err = ix_eval(p, SQUARE_COS, wos)
        assert err > 0
        assert abs(val - ref) < 3 * err + h * h
