"""Cross-checks of the benchmark's references, so that a wrong oracle
cannot show up as a library failure.

Each oracle is compared with an independent computation (nested
quadrature, Poisson-kernel quadrature, a pointwise sweep) and with the
library at small sizes.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import quad

from daniell import dirichlet as dmod
from daniell import wiener as wmod
from daniell.extension import MeasurableFunction, level_set_integral
from daniell.functional import ElementaryIntegral, SignedFunctional, jordan_decompose
from daniell.lattice import SimpleFunction, absolute, join, meet
from daniell.rings import RingSet, Universe, length_premeasure
from perfbench import oracles
from perfbench.workloads import exact_dyadic

LENGTH = ElementaryIntegral(length_premeasure())


def _phi(x, var):
    return math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)


def _positive_path_probability(n):
    """P(W_{k/n} > 0, k = 1..n) by nested quadrature, last layer by erf."""
    dt = 1.0 / n

    def layer(i, x):
        if i == n - 1:
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2 * dt)))
        return quad(lambda y: _phi(y - x, dt) * layer(i + 1, y), 0.0, math.inf,
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    return layer(0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sparre_andersen_against_nested_quadrature(n):
    assert abs(_positive_path_probability(n) - oracles.sparre_andersen(n)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_sparre_andersen_against_library(n):
    cyl = wmod.Cylinder.of([F(k, n) for k in range(1, n + 1)], [((0.0, math.inf),)] * n)
    res = wmod.wiener_premeasure(cyl, tol=1e-8)
    assert abs(res["value"] - oracles.sparre_andersen(n)) < 1e-12


def test_fixed_wiener_constants():
    assert oracles.ORTHANT == oracles.sparre_andersen(2)
    assert oracles.HALF_LINE == oracles.sparre_andersen(1)
    full = wmod.Cylinder.full_space()
    res = wmod.wiener_premeasure(full, tol=1e-10, kernel=wmod.Kernel.UNNORMALIZED)
    assert abs(res["value"] - oracles.UNNORMALIZED_FULL) < 1e-12
    # the unnormalized kernel exp(-x^2/t)/sqrt(2 pi t) integrates to 1/sqrt(2)
    mass = quad(lambda x: math.exp(-x * x) / math.sqrt(2 * math.pi), -math.inf, math.inf)[0]
    assert abs(mass - oracles.UNNORMALIZED_FULL) < 1e-12


@pytest.mark.parametrize("s", [F(1, 16), F(1, 3), F(1, 2), F(15, 16)])
@pytest.mark.parametrize("same_sign", [True, False])
def test_two_time_orthant(s, same_sign):
    s_f = float(s)
    lo, hi = (0.0, math.inf) if same_sign else (-math.inf, 0.0)
    nested = quad(lambda x: _phi(x, s_f) * 0.5 * math.erfc(-x / math.sqrt(2 * (1 - s_f))),
                  lo, hi, epsabs=1e-14)[0]
    assert abs(nested - oracles.two_time_orthant(s, same_sign)) < 1e-12
    cyl = wmod.Cylinder.of((s, 1), (((lo, hi),), ((0.0, math.inf),)))
    res = wmod.wiener_premeasure(cyl, tol=1e-8)
    assert abs(res["value"] - oracles.two_time_orthant(s, same_sign)) < 1e-9


def _poisson(x, y, t):
    r2 = x * x + y * y
    return (1 - r2) / ((math.cos(t) - x) ** 2 + (math.sin(t) - y) ** 2)


ARCS = [((0.0, 0.0), 0.0, math.pi), ((0.3, 0.2), 0.5, 2.5), ((-0.5, 0.1), 1.0, 4.0),
        ((0.1, -0.7), 5.0, 8.0), ((0.6, 0.0), -0.4, 0.4)]


@pytest.mark.parametrize("point, alpha, beta", ARCS)
def test_arc_formula_against_poisson_kernel(point, alpha, beta):
    direct = quad(lambda t: _poisson(*point, t), alpha, beta, epsabs=1e-14, limit=200)[0]
    assert abs(direct / (2 * math.pi) - oracles.arc_measure(*point, alpha, beta)) < 1e-12


@pytest.mark.parametrize("point, alpha, beta", ARCS[1:4])
def test_ramp_deficit_bound_holds_for_exact_ramp_extension(point, alpha, beta):
    n = 16
    ramp = dmod.arc_ramp(alpha, beta, n, side="lower")
    u = quad(lambda t: _poisson(*point, t) * float(ramp(t)), alpha, beta,
             points=[alpha + (beta - alpha) / (2 * n), beta - (beta - alpha) / (2 * n)],
             epsabs=1e-13, limit=200)[0] / (2 * math.pi)
    deficit = oracles.arc_measure(*point, alpha, beta) - u
    assert 0.0 <= deficit <= oracles.ramp_deficit_bound(*point, beta - alpha, n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_disk_trig_is_the_harmonic_extension(k):
    phase, h = 0.7, 1.0 / 32.0
    # boundary values, the mean-value property at the center, and the grid solve
    assert abs(oracles.disk_trig(k, phase, math.cos(2.0), math.sin(2.0))
               - math.cos(k * (2.0 - phase))) < 1e-14
    assert oracles.disk_trig(k, phase, 0.0, 0.0) == 0.0
    g = dmod.BoundaryFunction(lambda s: np.cos(k * (np.asarray(s) - phase)))
    value, _ = dmod.ix_eval((0.3, -0.4), g, dmod.SolveConfig(domain=dmod.DiskDomain(h=h)))
    assert abs(value - oracles.disk_trig(k, phase, 0.3, -0.4)) <= k * k * h * h


def test_square_linear_against_library():
    from perfbench.workloads.harmonic_disk import square_boundary_x

    cfg = dmod.SolveConfig(domain=dmod.DiskDomain(dmod.Shape.UNIT_SQUARE, 1.0 / 64.0))
    for p in [(0.3, 0.7), (0.9, 0.1), (0.5, 0.5)]:
        value, _ = dmod.ix_eval(p, dmod.BoundaryFunction(square_boundary_x), cfg)
        assert abs(value - oracles.square_linear(*p)) < 1e-12


def test_step_oracles_against_library_and_pointwise_evaluation():
    rng = random.Random(7)
    for pieces in (1, 3, 6):
        f_cells = exact_dyadic.random_step(rng, pieces)
        g_cells = exact_dyadic.random_step(rng, pieces)
        f, g = exact_dyadic.to_simple(f_cells, rng), exact_dyadic.to_simple(g_cells, rng)
        assert LENGTH.integrate(f) == oracles.step_integral(f_cells)
        for fn, op in ((min, meet), (max, join)):
            cells = oracles.step_pointwise(fn, f_cells, g_cells)
            assert oracles.simple_function_cells(op(f, g)) == cells
            for t in [F(k, 7) for k in range(0, 7 * 60, 5)]:
                assert oracles.step_eval(cells, t) == fn(oracles.step_eval(f_cells, t),
                                                         oracles.step_eval(g_cells, t))
        diff = oracles.step_pointwise(lambda u, v: abs(u - v), f_cells, g_cells)
        assert oracles.simple_function_cells(absolute(f - g)) == diff


def test_identity_integral_against_library():
    for a, b in ((F(0), F(1)), (F(1, 3), F(7, 5)), (F(2), F(9, 2))):
        res = level_set_integral(MeasurableFunction.identity_on(a, b), LENGTH, n_max=6)
        assert res.lower.value <= oracles.identity_integral(a, b) <= res.upper.value


def test_jordan_parts_against_library():
    rng = random.Random(3)
    for atoms in (1, 4, 9):
        labels = [f"p{i}" for i in range(atoms)]
        weights = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in labels]
        x = [F(rng.randint(0, 9), rng.randint(1, 4)) for _ in labels]
        u = Universe.finite(labels)
        dec = jordan_decompose(SignedFunctional.of(u, dict(zip(labels, weights))))
        xs = SimpleFunction.of(u, [(v, RingSet.finite(u, [lab])) for lab, v in zip(labels, x)])
        got = (dec.plus.integrate(xs), dec.minus.integrate(xs), dec.abs.integrate(xs))
        assert got == oracles.jordan_parts(weights, x)


def _largest_value_and_cap(job_name):
    """(largest input value, 2^n_max) from an exact-dyadic integral's name."""
    cap = F(2) ** int(job_name.rsplit("n_max=", 1)[1])
    if job_name.startswith("identity"):
        return F(job_name[job_name.index(",") + 1:job_name.index(")")]), cap
    return F(job_name.split("max=", 1)[1].split()[0]), cap


def test_timed_dyadic_inputs_stay_in_range_and_probes_leave_it():
    for round_index in range(3):
        for job in exact_dyadic.make_round(11, round_index):
            if job.kind.startswith(("identity", "generic", "from_simple")):
                largest, cap = _largest_value_and_cap(job.name)
                assert largest <= cap, job.name
    for job in exact_dyadic.truncation_probes(11):
        largest, cap = _largest_value_and_cap(job.name)
        assert largest > cap, job.name
