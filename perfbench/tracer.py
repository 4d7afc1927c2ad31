"""Span tracer that wraps the library's public functions from outside.

The library imports several functions by name into other modules
(``from .rings import boolean_combine``), so patching one module
attribute would miss calls made through the other bindings.  The tracer
therefore replaces *every* binding of each target it can find -- module
globals of every loaded ``daniell`` and benchmark module and the
attributes of the target's class -- and restores exactly those bindings
on ``uninstall``.

Spans are kept in memory in flat arrays (name, parent, job, start, end,
tag) and written out once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute path) -- the public entry points of each layer.
TARGETS = (
    ("rings.boolean_combine", "daniell.rings", "boolean_combine"),
    ("rings.premeasure", "daniell.rings", "PreMeasure.__call__"),
    ("lattice.canonicalize", "daniell.lattice", "canonicalize"),
    ("lattice.lattice_op", "daniell.lattice", "lattice_op"),
    ("lattice.level_set", "daniell.lattice", "level_set"),
    ("functional.integrate", "daniell.functional", "ElementaryIntegral.integrate"),
    ("functional.jordan_decompose", "daniell.functional", "jordan_decompose"),
    ("extension.level_set", "daniell.extension", "MeasurableFunction.level_set"),
    ("extension.level_set_integral", "daniell.extension", "level_set_integral"),
    ("extension.i1_limit", "daniell.extension", "i1_limit"),
    ("lebesgue.interval_length", "daniell.lebesgue", "interval_length_via_daniell"),
    ("wiener.premeasure", "daniell.wiener", "wiener_premeasure"),
    ("wiener.family_combine", "daniell.wiener", "family_combine"),
    ("dirichlet.solve", "daniell.dirichlet", "solve_dirichlet"),
    ("dirichlet.ix_eval", "daniell.dirichlet", "ix_eval"),
    ("dirichlet.harmonic_measure_of_arc", "daniell.dirichlet", "harmonic_measure_of_arc"),
    ("dirichlet.extend_boundary", "daniell.dirichlet", "extend_boundary"),
)


def _tag_level_set(args, kwargs, result):
    return 0.0 if result.is_empty else 1.0


def _tag_premeasure(args, kwargs, result):
    method = kwargs.get("method", args[1] if len(args) > 1 else None)
    if method is not None and method.value == "mc":
        return -float(kwargs.get("paths", 1_000_000))
    return float(len(args[0].times))


def _tag_solve(args, kwargs, result):
    dom = args[0]
    solver = kwargs.get("solver", args[2] if len(args) > 2 else None)
    if solver is not None and solver.value != "grid":
        return 0.0
    sign = 1.0 if dom.shape.value == "disk" else -1.0
    return sign * round(1.0 / dom.h)


def _tag_ix_eval(args, kwargs, result):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    if cfg is None or cfg.solver.value == "grid":
        return 0.0
    return float(cfg.walks)


# Modules whose globals are searched for bindings: the library, and the
# benchmark's own workloads, which import the entry points by name.
BINDING_MODULES = ("daniell", "perfbench.")

# Spans whose tag records what the call did (see metrics()).
TAGGERS = {
    "extension.level_set": _tag_level_set,
    "wiener.premeasure": _tag_premeasure,
    "dirichlet.solve": _tag_solve,
    "dirichlet.ix_eval": _tag_ix_eval,
}


def _bindings_of(original, owner):
    """Every module global and class attribute bound to ``original``."""
    found = []
    if isinstance(owner, type):
        found = [(owner, name) for name, v in vars(owner).items() if v is original]
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith(BINDING_MODULES):
            found += [(mod, name) for name, v in vars(mod).items() if v is original]
    return found


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records a span for every call of a target while installed.

    Bindings are looked up once, on the first ``install``, among the
    modules already imported, so a workload that never imports the
    scipy-backed modules does not import them here either.
    """

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_tag = array("d")
        self.job = -1
        self._stack = [-1]
        self._bindings = None  # (owner, attribute, original, wrapper)

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._bindings or ()):
            setattr(owner, attr, original)

    @contextmanager
    def recording(self, job_id):
        """Trace one job: spans carry ``job_id``; originals come back after."""
        self.job = job_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.job = -1

    def _find_bindings(self):
        found = []
        for sid, (name, module_name, path) in enumerate(TARGETS):
            if module_name not in sys.modules:
                continue
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, sid, TAGGERS.get(name))
            found += [(o, a, original, wrapper) for o, a in _bindings_of(original, owner)]
        return found

    def _wrap(self, fn, sid, tagger):
        stack = self._stack
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, tags = self.span_start, self.span_end, self.span_tag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            tags.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if tagger is not None:
                tags[idx] = tagger(args, kwargs, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def __len__(self):
        return len(self.span_start)

    def durations(self):
        return [e - s for s, e in zip(self.span_start, self.span_end)]

    def self_times(self):
        dur = self.durations()
        own = list(dur)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tjob\tstart_s\tend_s\ttag\n")
            for idx in range(len(self)):
                fh.write(
                    f"{idx}\t{self.names[self.span_name[idx]]}\t"
                    f"{self.span_parent[idx]}\t{self.span_job[idx]}\t"
                    f"{self.span_start[idx]:.9f}\t{self.span_end[idx]:.9f}\t"
                    f"{self.span_tag[idx]:g}\n"
                )

    def metrics(self) -> dict:
        """Per-layer counts and times from the recorded spans."""
        dur = self.durations()
        own = self.self_times()
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        by_tag = {}
        for idx, sid in enumerate(self.span_name):
            name = self.names[sid]
            calls[name] += 1
            self_s[name] += own[idx]
            if name in TAGGERS:
                by_tag.setdefault((name, self.span_tag[idx]), []).append(dur[idx])

        def median(name, tag):
            values = by_tag.get((name, tag))
            return statistics.median(values) if values else 0.0

        def tagged(name, keep):
            return [(t, d) for (n, t), ds in by_tag.items() if n == name and keep(t) for d in ds]

        evaluated = calls["extension.level_set"]
        nonempty = len(tagged("extension.level_set", lambda t: t == 1.0))
        mc = tagged("wiener.premeasure", lambda t: t < 0)
        wos = tagged("dirichlet.ix_eval", lambda t: t > 0)
        grid = tagged("dirichlet.solve", lambda t: t != 0)
        out = {
            "rings.combine_calls": calls["rings.boolean_combine"],
            "rings.combine_self_s": self_s["rings.boolean_combine"],
            "rings.premeasure_self_s": self_s["rings.premeasure"],
            "lattice.canonicalize_calls": calls["lattice.canonicalize"],
            "lattice.canonicalize_self_s": self_s["lattice.canonicalize"],
            "lattice.op_self_s": self_s["lattice.lattice_op"],
            "lattice.level_set_calls": calls["lattice.level_set"],
            "functional.integrate_calls": calls["functional.integrate"],
            "functional.integrate_self_s": self_s["functional.integrate"],
            "functional.jordan_self_s": self_s["functional.jordan_decompose"],
            "extension.level_sets_evaluated": evaluated,
            "extension.level_sets_nonempty_frac": nonempty / evaluated if evaluated else 0.0,
            "extension.level_set_integral_self_s": self_s["extension.level_set_integral"],
            "extension.i1_limit_self_s": self_s["extension.i1_limit"],
            "lebesgue.recover_calls": calls["lebesgue.interval_length"],
            "lebesgue.recover_self_s": self_s["lebesgue.interval_length"],
            "wiener.premeasure_calls": calls["wiener.premeasure"],
            "wiener.mc_paths_per_s": (-sum(t for t, _ in mc) / sum(d for _, d in mc)) if mc else 0.0,
            "wiener.family_combine_self_s": self_s["wiener.family_combine"],
            "dirichlet.grid_solves": len(grid),
            "dirichlet.square_solve_s.h64": median("dirichlet.solve", -64.0),
            "dirichlet.wos_walks_per_s": (sum(t for t, _ in wos) / sum(d for _, d in wos)) if wos else 0.0,
        }
        for times in (1, 2, 3, 4):
            out[f"wiener.quad_s.t{times}"] = median("wiener.premeasure", float(times))
        for n in (32, 64, 128):
            out[f"dirichlet.disk_solve_s.h{n}"] = median("dirichlet.solve", float(n))
        return out
