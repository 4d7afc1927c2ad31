"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error (from
argparse), 3 bad input (a malformed file or an out-of-range number),
4 unreachable tolerance.
Every output record embeds the effective config, including the seed,
so identical configs give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction

from .extension import level_set_integral, MeasurableFunction
from .functional import (
    ElementaryIntegral,
    SignedFunctional,
    jordan_decompose,
    positive_part_bruteforce,
)
from .lattice import SimpleFunction
from .lebesgue import interval_length_via_daniell
from .rings import RingSet, Universe, length_premeasure

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 3
EXIT_TOL_UNREACHABLE = 4


def _frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from exc


def _default_seed(ns) -> int:
    if ns.seed is not None:
        return ns.seed
    raw = os.environ.get("DANIELL_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DANIELL_SEED is not an integer: {raw!r}") from None


def _emit(ns, record) -> None:
    if ns.format == "csv":
        buf = io.StringIO()
        flat = _flatten(record)
        writer = csv.writer(buf)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
        text = buf.getvalue()
    else:
        text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if ns.output == "-":
        sys.stdout.write(text)
    else:
        with open(ns.output, "w") as fh:
            fh.write(text)


def _flatten(record, prefix=""):
    out = {}
    for k, v in record.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = json.dumps(v) if isinstance(v, (list, tuple)) else v
    return out


def _cmd_integrate(ns) -> int:
    if ns.function != "t":
        print("only --function t is supported", file=sys.stderr)
        return EXIT_BAD_INPUT
    a, b = ns.interval
    try:
        res = level_set_integral(MeasurableFunction.identity_on(a, b),
                                 ElementaryIntegral(length_premeasure()), n_max=ns.depth)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    record = {"config": {"command": "integrate", "function": ns.function,
                         "interval": [str(a), str(b)], "depth": ns.depth},
              "result": res.to_json()}
    _emit(ns, record)
    return EXIT_OK


def _cmd_lebesgue(ns) -> int:
    a, b = ns.interval
    try:
        res = interval_length_via_daniell(a, b, n_max=ns.depth)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    record = {"config": {"command": "lebesgue", "interval": [str(a), str(b)],
                         "depth": ns.depth},
              "result": res.to_json()}
    _emit(ns, record)
    return EXIT_OK


def _cmd_decompose(ns) -> int:
    try:
        weights = [Fraction(w) for w in ns.weights.split(",")]
    except ValueError:
        print(f"malformed weights: {ns.weights!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    labels = tuple(f"p{i}" for i in range(len(weights)))
    u = Universe.finite(labels)
    s = SignedFunctional.of(u, dict(zip(labels, weights)))
    dec = jordan_decompose(s)
    ones = SimpleFunction.indicator(RingSet.finite(u, labels))
    record = {
        "config": {"command": "decompose", "weights": ns.weights},
        "Splus": _fjson(dec.plus.integrate(ones)),
        "Sminus": _fjson(dec.minus.integrate(ones)),
        "Sabs": _fjson(dec.abs.integrate(ones)),
        "bruteforce_P": _fjson(positive_part_bruteforce(s, ones)),
        "weights_plus": {lab: _fjson(max(w, Fraction(0)))
                         for lab, w in zip(labels, weights)},
        "weights_minus": {lab: _fjson(max(-w, Fraction(0)))
                          for lab, w in zip(labels, weights)},
    }
    _emit(ns, record)
    return EXIT_OK


def _fjson(fr: Fraction):
    return [fr.numerator, fr.denominator]


def _cmd_wiener(ns) -> int:
    from . import wiener as wmod

    try:
        with open(ns.cylinder) as fh:
            spec = json.load(fh)
        cyl = wmod.Cylinder.of(spec["times"],
                               [wmod.rs_from_json(s) for s in spec["sets"]])
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"bad cylinder spec: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    kernel = wmod.Kernel.UNNORMALIZED if ns.kernel == "paper" else wmod.Kernel.STANDARD
    method = wmod.Method.MONTE_CARLO if ns.method == "mc" else wmod.Method.QUADRATURE
    try:
        seed = _default_seed(ns)
        result = wmod.wiener_premeasure(cyl, method=method, tol=ns.tol,
                                        seed=seed, kernel=kernel, paths=ns.paths)
    except wmod.ToleranceUnreachable as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_TOL_UNREACHABLE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    record = {"config": {"command": "wiener", "method": ns.method,
                         "kernel": ns.kernel, "paths": ns.paths,
                         "seed": seed, "tol": ns.tol,
                         "cylinder": cyl.to_json()},
              **result}
    _emit(ns, record)
    return EXIT_OK


def _parse_boundary(spec: str):
    if spec.startswith("arc:"):
        _, lo, hi = spec.split(":")
        parsed = ("arc", float(_angle(lo)), float(_angle(hi)))
    elif spec.startswith("const:"):
        parsed = ("const", float(spec.split(":")[1]), None)
    elif spec == "cos":
        return ("cos", None, None)
    else:
        raise ValueError(f"unknown boundary spec {spec!r}")
    if not all(math.isfinite(v) for v in parsed[1:] if v is not None):
        raise ValueError(f"boundary spec {spec!r} has a non-finite number")
    return parsed


def _angle(s: str) -> float:
    if s.endswith("pi"):
        head = s[:-2].rstrip("*")
        return (float(head) if head else 1.0) * math.pi
    return float(s)


def _cmd_dirichlet(ns) -> int:
    from . import dirichlet as dmod

    try:
        seed = _default_seed(ns)
        kind, p1, p2 = _parse_boundary(ns.g)
        x = tuple(float(v) for v in ns.x.split(","))
        if len(x) != 2:
            raise ValueError("point must be x,y")
        shape = dmod.Shape.UNIT_DISK if ns.domain == "disk" else dmod.Shape.UNIT_SQUARE
        solver = dmod.Solver.WALK_ON_SPHERES if ns.solver == "wos" else dmod.Solver.GRID
        cfg = dmod.SolveConfig(domain=dmod.DiskDomain(shape, ns.h), solver=solver,
                               seed=seed, walks=ns.walks)
        if kind == "arc":
            res = dmod.harmonic_measure_of_arc(x, p1, p2, cfg, n=ns.depth)
            record = {"value": res["value"], "stderr": res["stderr"],
                      "lower": res["lower"], "upper": res["upper"]}
        else:
            if kind == "const":
                g = dmod.BoundaryFunction.constant(p1)
            else:
                import numpy as _np

                g = dmod.BoundaryFunction(lambda s: _np.cos(s))
            v, se = dmod.ix_eval(x, g, cfg)
            record = {"value": v, "stderr": se}
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT
    record = {"config": {"command": "dirichlet", "domain": ns.domain,
                         "g": ns.g, "x": ns.x, "solver": ns.solver,
                         "walks": ns.walks, "seed": seed, "h": ns.h,
                         "depth": ns.depth},
              **record}
    _emit(ns, record)
    return EXIT_OK


def _suite_command(name):
    def run(ns):
        from . import verify as vmod

        results = vmod.ALL_SUITES[name](quick=ns.quick)
        ok = all(r["pass"] for r in results)
        _emit(ns, {"config": {"command": name, "quick": ns.quick},
                   "checks": results, "pass": ok})
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    return run


def _cmd_verify_all(ns) -> int:
    from . import verify as vmod

    results = vmod.verify_all(quick=ns.quick)
    summary = []
    ok = True
    for suite, checks in results.items():
        for c in checks:
            summary.append({"suite": suite, "name": c["name"], "pass": c["pass"]})
            ok = ok and c["pass"]
    _emit(ns, {"config": {"command": "verify-all", "quick": ns.quick},
               "checks": summary, "pass": ok})
    for row in summary:
        state = "PASS" if row["pass"] else "FAIL"
        print(f"{state}  {row['name']}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    # argparse reads only plain negative decimals as values; -1/4, -1,2 and
    # -0.3,0.2 would parse as options.  No option here starts with '-' and
    # a digit.  Subparsers inherit the class.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="daniell")
    p.add_argument("--output", default="-", help="output path, - for stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("integrate", help="dyadic level-set integration")
    sp.add_argument("--function", default="t")
    sp.add_argument("--interval", nargs=2, type=_frac, default=(Fraction(0), Fraction(1)))
    sp.add_argument("--depth", type=int, default=8)
    sp.set_defaults(fn=_cmd_integrate)

    sp = sub.add_parser("lebesgue", help="interval length via the ramp limit")
    sp.add_argument("--interval", nargs=2, type=_frac, required=True)
    sp.add_argument("--depth", type=int, default=100)
    sp.set_defaults(fn=_cmd_lebesgue)

    sp = sub.add_parser("decompose", help="Jordan decomposition of point weights")
    sp.add_argument("--weights", required=True, help="comma-separated rationals")
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("wiener", help="cylinder premeasure")
    sp.add_argument("--cylinder", required=True, help="cylinder JSON file")
    sp.add_argument("--method", choices=("quad", "mc"), default="quad")
    sp.add_argument("--paths", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--kernel", choices=("standard", "paper"), default="standard")
    sp.set_defaults(fn=_cmd_wiener)

    sp = sub.add_parser("dirichlet", help="boundary functional evaluation")
    sp.add_argument("--domain", choices=("disk", "square"), default="disk")
    sp.add_argument("--g", required=True,
                    help="boundary data: const:<c>, cos, or arc:<lo>:<hi>")
    sp.add_argument("--x", required=True, help="interior point 'x,y'")
    sp.add_argument("--solver", choices=("grid", "wos"), default="grid")
    sp.add_argument("--walks", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--h", type=float, default=1.0 / 128.0)
    sp.add_argument("--depth", type=int, default=16)
    sp.set_defaults(fn=_cmd_dirichlet)

    for name in ("rings", "lattice"):
        sp = sub.add_parser(name, help=f"run the {name} invariant suite")
        sp.add_argument("--quick", action="store_true")
        sp.set_defaults(fn=_suite_command(name))

    sp = sub.add_parser("verify-all", help="run every module's invariant suite")
    sp.add_argument("--quick", action="store_true")
    sp.set_defaults(fn=_cmd_verify_all)
    return p


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    return ns.fn(ns)


if __name__ == "__main__":
    sys.exit(main())
