"""cli-cold: fresh ``daniell`` processes, one at a time.

One round runs each command once: integrate, lebesgue, decompose,
wiener --method quad on a 2-time cylinder file, dirichlet --h 1/32 on an
arc, and rings --quick.  Every job pays interpreter start plus
``import daniell.cli``.  Checks parse the JSON output and compare values
with references; they never compare bytes, and an upper bound of "+inf"
passes, so an honest "not certified" output does not count as a failure.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from fractions import Fraction as F

from .. import oracles
from ..harness import OUT_DIR, Job, Verdict, round_rng

LAYERS = {
    "exercises": ("cli",),
    "bypasses": ("rings", "lattice", "functional", "extension", "lebesgue", "wiener", "dirichlet"),
}

CLI = (sys.executable, "-m", "daniell.cli")
TIMEOUT_S = 120
DIRICHLET_H = 1.0 / 32.0


def run_cli(*args):
    return subprocess.run(CLI + ("--output", "-") + args, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def _frac(pair):
    return F(pair[0], pair[1])


def _parsed(proc):
    if proc.returncode != 0:
        raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def _contains(result, reference):
    upper = result["upper"]
    return _frac(result["lower"]) <= reference and (upper == "+inf" or reference <= _frac(upper))


def _cli_job(kind, args, judge):
    def check(proc):
        ok, err = judge(_parsed(proc))
        return Verdict(ok, err, "" if ok else proc.stdout[-300:])

    return Job(f"daniell {' '.join(args)}", f"cli.{kind}", lambda: run_cli(*args), check)


def _integrate(rng):
    lo = rng.randint(0, 63)
    a, b = F(lo, 16), F(rng.randint(lo + 1, 64), 16)  # 0 <= a < b <= 4
    depth = rng.randint(2, 8)
    reference = oracles.identity_integral(a, b)
    return _cli_job(
        "integrate",
        ("integrate", "--function", "t", "--interval", str(a), str(b), "--depth", str(depth)),
        lambda out: (_contains(out["result"], reference), None))


def _lebesgue(rng):
    # argparse reads a value such as -1/4 as an option, so --interval
    # cannot take a negative rational; intervals start at 0 or above
    a = F(rng.randint(0, 30), rng.randint(1, 9))
    b = a + F(rng.randint(1, 60), rng.randint(1, 9))
    return _cli_job(
        "lebesgue", ("lebesgue", "--interval", str(a), str(b), "--depth", "100"),
        lambda out: (_contains(out["result"], b - a), None))


def _decompose(rng):
    weights = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(1, 8))]
    ones = [F(1)] * len(weights)
    plus, minus, total = oracles.jordan_parts(weights, ones)

    def judge(out):
        got = tuple(_frac(out[k]) for k in ("Splus", "Sminus", "Sabs", "bruteforce_P"))
        return got == (plus, minus, total, plus), None

    # "--weights=" keeps argparse from reading a leading minus sign as an option
    return _cli_job("decompose",
                      ("decompose", "--weights=" + ",".join(str(w) for w in weights)), judge)


def _wiener(rng, path):
    s = F(rng.randint(1, 15), 16)
    same_sign = rng.random() < 0.5
    first = [[0.0, "+inf"]] if same_sign else [["-inf", 0.0]]
    spec = {"times": [[s.numerator, s.denominator], [1, 1]], "sets": [first, [[0.0, "+inf"]]]}
    path.write_text(json.dumps(spec))
    reference = oracles.two_time_orthant(s, same_sign)

    def judge(out):
        err = abs(out["value"] - reference)
        return err <= out["quad_error"] + 1e-12, err

    return _cli_job("wiener", ("wiener", "--cylinder", str(path), "--method", "quad"), judge)


def _dirichlet(rng):
    lo = rng.uniform(0.0, 2.0 * math.pi)
    hi = lo + rng.uniform(0.3, 5.0)
    r, t = 0.6 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
    x, y = r * math.cos(t), r * math.sin(t)
    reference = oracles.arc_measure(x, y, lo, hi)
    slack = DIRICHLET_H**2

    def judge(out):
        ok = out["lower"] - slack <= reference <= out["upper"] + slack
        return ok, abs(out["value"] - reference)

    # "--x=" keeps argparse from reading a leading minus sign as an option
    return _cli_job("dirichlet", ("dirichlet", "--g", f"arc:{lo!r}:{hi!r}",
                                    f"--x={x!r},{y!r}", "--h", repr(DIRICHLET_H)), judge)


def _rings_quick():
    return _cli_job("rings", ("rings", "--quick"), lambda out: (out["pass"] is True, None))


def setup():
    """Run the CLI once so bytecode and the page cache are warm."""
    OUT_DIR.mkdir(exist_ok=True)
    subprocess.run(CLI + ("--help",), capture_output=True, check=True, timeout=TIMEOUT_S)


IMPORT_PROBE = ("import time; t = time.perf_counter(); import daniell.cli; "
                "print(time.perf_counter() - t)")


def layer_metrics(records, import_samples=5):
    """Median wall time per command, and ``import daniell.cli`` alone."""
    imports = [float(subprocess.run((sys.executable, "-c", IMPORT_PROBE), capture_output=True,
                                    text=True, check=True, timeout=TIMEOUT_S).stdout)
               for _ in range(import_samples)]
    out = {"cli.import_s": statistics.median(imports)}
    for command in ("integrate", "lebesgue", "decompose", "wiener", "dirichlet", "rings"):
        times = [r["latency_s"] for r in records if r["kind"] == f"cli.{command}"]
        name = "verify.rings_quick_s" if command == "rings" else f"cli.process_s.{command}"
        out[name] = statistics.median(times) if times else 0.0
    return out


def make_round(seed: int, round_index: int) -> list:
    rng = round_rng(seed, round_index)
    cylinder = OUT_DIR / f"cylinder-{seed}-{round_index}.json"
    return [_integrate(rng), _lebesgue(rng), _decompose(rng), _wiener(rng, cylinder),
            _dirichlet(rng), _rings_quick()]
