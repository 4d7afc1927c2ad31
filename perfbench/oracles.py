"""Closed-form references that every benchmark job is checked against.

Everything here is computed without the library, so a wrong answer from
the library cannot hide in its own reference.  The exact oracles use
``Fraction``; the analytic ones use ``math``/``cmath`` only, so the exact
workload imports neither numpy nor scipy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# -- exact step functions on the line ----------------------------------------
# A step function is a list of (a, b, value) with half-open [a, b) pieces.


def step_integral(pieces) -> Fraction:
    """Exact integral of a step function whose pieces are pairwise disjoint."""
    return sum((v * (b - a) for a, b, v in pieces), Fraction(0))


def step_eval(pieces, t) -> Fraction:
    return sum((v for a, b, v in pieces if a <= t < b), Fraction(0))


def _normal_form(cells):
    """Merge adjacent equal-valued cells and drop zero cells."""
    out = []
    for a, b, v in cells:
        if v == 0:
            continue
        if out and out[-1][1] == a and out[-1][2] == v:
            out[-1] = (out[-1][0], b, v)
        else:
            out.append((a, b, v))
    return out


def step_pointwise(fn, *functions):
    """Normal form of ``t -> fn(f1(t), f2(t), ...)`` by a sorted-breakpoint
    sweep: every input is constant between consecutive breakpoints."""
    points = sorted({p for f in functions for a, b, _ in f for p in (a, b)})
    cells = [
        (a, b, fn(*(step_eval(f, a) for f in functions)))
        for a, b in zip(points, points[1:])
    ]
    return _normal_form(cells)


def simple_function_cells(sf):
    """Normal form of a real-line ``SimpleFunction`` (any term overlap)."""
    pieces = [(a, b, c) for c, s in sf.terms for a, b in s.intervals]
    return step_pointwise(lambda v: v, pieces)


def identity_integral(a, b) -> Fraction:
    """Integral of x(t) = t over [a, b)."""
    return (Fraction(b) ** 2 - Fraction(a) ** 2) / 2


def jordan_parts(weights, x):
    """(S+(x), S-(x), |S|(x)) for point weights and point values x."""
    plus = sum((max(w, 0) * v for w, v in zip(weights, x)), Fraction(0))
    minus = sum((max(-w, 0) * v for w, v in zip(weights, x)), Fraction(0))
    return plus, minus, plus + minus


# -- Wiener measure -----------------------------------------------------------


def sparre_andersen(n: int) -> Fraction:
    """P(W_{k/n} > 0 for k = 1..n) = C(2n, n) / 4^n."""
    return Fraction(math.comb(2 * n, n), 4**n)


ORTHANT = Fraction(3, 8)  # P(W_{1/2} > 0, W_1 > 0)
HALF_LINE = Fraction(1, 2)  # P(W_1 > 0)
FULL_SPACE = Fraction(1)
UNNORMALIZED_FULL = 1.0 / math.sqrt(2.0)  # exponent without the 1/2


def two_time_orthant(s, same_sign: bool) -> float:
    """P(W_s > 0, W_1 > 0) (or P(W_s < 0, W_1 > 0)) for 0 < s < 1.

    The pair is bivariate normal with correlation sqrt(s); the quadrant
    probability is 1/4 + arcsin(rho) / (2 pi).
    """
    rho = math.asin(math.sqrt(float(s))) / (2.0 * math.pi)
    return 0.25 + rho if same_sign else 0.25 - rho


# -- harmonic functions on the unit disk and square --------------------------


def disk_trig(k: int, phase: float, x: float, y: float) -> float:
    """Harmonic extension of cos(k (theta - phase)): r^k cos(k (theta - phase))."""
    r = math.hypot(x, y)
    return r**k * math.cos(k * (math.atan2(y, x) - phase))


def arc_measure(x: float, y: float, alpha: float, beta: float) -> float:
    """Harmonic measure at z of the boundary arc from angle alpha to beta.

    omega(z) = arg((e^{i beta} - z) / (e^{i alpha} - z)) mod 2 pi / pi
               - (beta - alpha) / (2 pi)
    """
    z = complex(x, y)
    angle = cmath.phase((cmath.exp(1j * beta) - z) / (cmath.exp(1j * alpha) - z))
    return (angle % (2.0 * math.pi)) / math.pi - (beta - alpha) / (2.0 * math.pi)


def poisson_kernel_max(x: float, y: float) -> float:
    """max over the circle of the Poisson kernel (1 - r^2) / |e^{it} - z|^2."""
    r = math.hypot(x, y)
    return (1.0 + r) / (1.0 - r)


def ramp_deficit_bound(x: float, y: float, arc_length: float, n: int) -> float:
    """Upper bound on omega(z) - u_{f_n}(z) for the n-th inner arc ramp.

    The ramp differs from the arc indicator on two transition bands of
    width arc_length / (2n), where the deficit averages 1/2, so the
    harmonic deficit is at most max(Poisson kernel) * band / (2 pi).
    """
    band = arc_length / (2.0 * n)
    return poisson_kernel_max(x, y) * band / (2.0 * math.pi)


def square_linear(x: float, y: float) -> float:
    """u = x on the unit square (harmonic, reproduced exactly by 5-point FD)."""
    return x

