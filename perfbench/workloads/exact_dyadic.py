"""exact-dyadic: pure-Fraction jobs through rings, lattice, functional,
extension and lebesgue; numpy and scipy are never imported.

One round: 6 identity integrals (n_max = 3 to 8), step functions of 5,
10 and 15 pieces each through the generic meet_with_simple oracle and
the from_simple shortcut, step functions of 20 to 45 pieces through
from_simple, one of meet, join and abs in turn on 14 pairs of 5 to 48
pieces, 2 ramp-limit interval lengths, and 2 Jordan decompositions.

The sizes form a ladder, so job times spread evenly from 0.1 ms to
0.5 s with no tight cluster at the median or at the tail (the 11th
largest job, among the lattice operations of 44 and 48 pieces).  A shared
2-vCPU VM can run up to 1.5x slower in spells of a few seconds; a median
that sits inside a tight cluster of like jobs jumps by that whole factor
once half of a run's rounds fall in slow spells, while over an even
spread it moves in proportion to the slow share.  The generic path stops
at 15 pieces: at 40 pieces it takes about 0.9 s, and those few jobs
would hold the tail alone.

Every value stays at or below 2^n_max, so every job of a round has a
sound answer to be checked against.  Values above 2^n_max meet the dyadic engine's truncation, which
returns a bracket that misses the integral; ``probe_metrics`` runs a few
such inputs once per traced run, untimed, and reports how many brackets
miss as ``extension.truncation_misses``.
"""

from __future__ import annotations

from fractions import Fraction as F

from daniell.extension import MeasurableFunction, level_set_integral
from daniell.functional import ElementaryIntegral, SignedFunctional, jordan_decompose
from daniell.lattice import SimpleFunction, absolute, join, meet
from daniell.lebesgue import interval_length_via_daniell
from daniell.rings import RingSet, Universe, length_premeasure

from .. import oracles
from ..harness import Job, Verdict, round_rng, run_round

LAYERS = {
    "exercises": ("rings", "lattice", "functional", "extension", "lebesgue"),
    "bypasses": ("wiener", "dirichlet", "cli"),
}

STEP_SIZES = (5, 10, 15)  # through both paths
SHORTCUT_SIZES = (20, 25, 30, 35, 40, 45)  # through from_simple only
LATTICE_SIZES = (5, 8, 11, 14, 17, 20, 23, 26, 29, 32, 36, 40, 44, 48)  # one operation each
IDENTITY_N_MAX = (3, 4, 5, 6, 7, 8)  # b <= 7 < 2^3
STEP_N_MAX = 4
SPAN = 60  # step functions live on [0, SPAN)
DOMINATING = 64  # above every generated value, so phi ^ (64 chi) = phi
LINE = Universe.real_line()
LENGTH = ElementaryIntegral(length_premeasure())


def _bracket_check(reference):
    def check(res):
        lo, hi = res.lower, res.upper
        ok = lo.is_finite and lo.value <= reference and (not hi.is_finite or reference <= hi.value)
        err = float(abs(res.value.value - reference)) if res.value.is_finite else None
        return Verdict(ok, err, "" if ok else f"[{lo}, {hi}] misses {reference}")

    return check


def _cells_check(fn, f_cells, g_cells):
    """Pointwise reference, computed when the result is checked so that
    set-up time is input generation alone."""
    def check(sf):
        reference_cells = oracles.step_pointwise(fn, f_cells, g_cells)
        got = oracles.simple_function_cells(sf)
        ok = got == reference_cells
        return Verdict(ok, 0.0 if ok else None, "" if ok else "pointwise mismatch")

    return check


def random_step(rng, pieces, spike=False):
    """Pieces on [0, SPAN) with rational ends and gaps between them, and
    with ``spike`` one value in (16, 32], above 2^STEP_N_MAX.

    The other values are stratified over (0, 6], one per slice of width
    6 / pieces, in shuffled order: the cost of a level-set sweep depends
    on how the values spread, and stratifying keeps that cost the same
    from seed to seed.
    """
    ends = sorted(rng.sample(range(1, 12 * SPAN), 2 * pieces))
    values = [F(rng.randint(48 * i // pieces + 1, 48 * (i + 1) // pieces), 8)
              for i in range(pieces)]
    rng.shuffle(values)
    if spike:
        values[rng.randrange(pieces)] = F(rng.randint(129, 256), 8)
    return [(F(ends[2 * i], 12), F(ends[2 * i + 1], 12), values[i]) for i in range(pieces)]


def to_simple(pieces, shuffle_rng):
    terms = [(v, RingSet.interval(a, b)) for a, b, v in pieces]
    shuffle_rng.shuffle(terms)
    return SimpleFunction.of(LINE, terms)


def _identity_job(rng, n_max, b_min=5):
    a, b = F(rng.randint(0, 64), 16), F(rng.randint(16 * b_min, 112), 16)  # b in [b_min, 7]
    return Job(
        f"identity[{a},{b}) n_max={n_max}", "identity",
        lambda: level_set_integral(MeasurableFunction.identity_on(a, b), LENGTH, n_max=n_max),
        _bracket_check(oracles.identity_integral(a, b)),
    )


def _step_jobs(rng, pieces, paths=("generic", "from_simple"), spike=False):
    cells = random_step(rng, pieces, spike=spike)
    phi = to_simple(cells, rng)
    reference = oracles.step_integral(cells)
    ceiling = SimpleFunction.indicator(RingSet.interval(0, SPAN), DOMINATING)
    tag = f"p={pieces} max={max(v for _, _, v in cells)} n_max={STEP_N_MAX}"
    calls = {
        "generic": lambda: level_set_integral(
            MeasurableFunction.from_simple(ceiling).meet_with_simple(phi),
            LENGTH, n_max=STEP_N_MAX),
        "from_simple": lambda: level_set_integral(MeasurableFunction.from_simple(phi), LENGTH,
                                                  n_max=STEP_N_MAX),
    }
    return [Job(f"{path} {tag}", f"{path}.p{pieces}", calls[path], _bracket_check(reference))
            for path in paths]


# (library call, pointwise reference); the calls look meet, join and
# absolute up when they run, so a traced run reaches the patched bindings
LATTICE_OPS = {
    "meet": (lambda f, g: meet(f, g), min),
    "join": (lambda f, g: join(f, g), max),
    "abs": (lambda f, g: absolute(f - g), lambda u, v: abs(u - v)),
}


def _lattice_job(rng, pieces, op):
    f_cells, g_cells = random_step(rng, pieces), random_step(rng, pieces)
    f, g = to_simple(f_cells, rng), to_simple(g_cells, rng)
    apply, pointwise = LATTICE_OPS[op]
    return Job(f"{op} p={pieces}", f"{op}.p{pieces}", lambda: apply(f, g),
               _cells_check(pointwise, f_cells, g_cells))


def _lebesgue_job(rng):
    a = F(rng.randint(-50, 50), rng.randint(1, 9))
    b = a + F(rng.randint(1, 80), rng.randint(1, 9))
    return Job(f"ramp-limit[{a},{b}) depth=100", "lebesgue",
               lambda: interval_length_via_daniell(a, b, n_max=100),
               _bracket_check(b - a))


def _jordan_job(rng):
    atoms = rng.randint(1, 10)
    labels = tuple(f"p{i}" for i in range(atoms))
    weights = [F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in labels]
    x = [F(rng.randint(0, 30), rng.randint(1, 6)) for _ in labels]
    u = Universe.finite(labels)
    s = SignedFunctional.of(u, dict(zip(labels, weights)))
    xs = SimpleFunction.of(u, [(v, RingSet.finite(u, [lab])) for lab, v in zip(labels, x)])

    def call():
        dec = jordan_decompose(s)
        return dec.plus.integrate(xs), dec.minus.integrate(xs), dec.abs.integrate(xs)

    reference = oracles.jordan_parts(weights, x)

    def check(got):
        ok = tuple(got) == reference
        return Verdict(ok, 0.0 if ok else None, "" if ok else f"{got} vs {reference}")

    return Job(f"jordan atoms={atoms}", "jordan", call, check)


def make_round(seed: int, round_index: int) -> list:
    rng = round_rng(seed, round_index)
    jobs = [_identity_job(rng, n_max) for n_max in IDENTITY_N_MAX]
    for pieces in STEP_SIZES:
        jobs += _step_jobs(rng, pieces)
    for pieces in SHORTCUT_SIZES:
        jobs += _step_jobs(rng, pieces, paths=("from_simple",))
    for i, pieces in enumerate(LATTICE_SIZES):
        jobs.append(_lattice_job(rng, pieces, ("meet", "join", "abs")[i % 3]))
    jobs += [_lebesgue_job(rng) for _ in range(2)]
    jobs += [_jordan_job(rng) for _ in range(2)]
    return jobs


def truncation_probes(seed: int) -> list:
    """Inputs above 2^n_max: two identity integrals at n_max = 2 with
    b in [6, 7], and two 10-piece step functions with a spike in (16, 32]
    at n_max = 4, each through both paths."""
    rng = round_rng(seed, -1)
    jobs = [_identity_job(rng, 2, b_min=6) for _ in range(2)]
    for _ in range(2):
        jobs += _step_jobs(rng, 10, spike=True)
    return jobs


def probe_metrics(seed: int):
    """Run the truncation probes once, untimed; returns (metrics, records).

    The dyadic engine cuts off values above 2^n_max and still reports a
    converged bracket, so on such inputs a bracket can miss the exact
    integral.  The misses are counted here, apart from the timed jobs,
    so that every timed job has a sound answer to be checked against.
    """
    records = run_round(truncation_probes(seed)).records
    return {"extension.truncation_misses": sum(not r.ok for r in records)}, records
