"""One benchmark process: set up a workload, then run it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Started by ``run.py`` from the root of a checkout with ``PYTHONPATH=src``.
It prints ``ready`` once imports and the first round's inputs exist (the
end of set-up), then, unless ``--setup-only``, runs whole rounds for about
``--seconds`` and prints one JSON line with every job record.

With ``--trace 1`` every job runs twice, traced and untraced, and the
difference in summed job time is the tracing overhead.  A workload may
also define ``probe_metrics(seed)``: diagnostic inputs run once after the
traced rounds, untimed and outside the job counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import OUT_DIR, run_round, run_round_traced  # noqa: E402

WORKLOADS = {
    "exact-dyadic": "perfbench.workloads.exact_dyadic",
    "wiener-cylinders": "perfbench.workloads.wiener_cylinders",
    "harmonic-disk": "perfbench.workloads.harmonic_disk",
    "cli-cold": "perfbench.workloads.cli_cold",
}


def load(name):
    """Import a workload, refusing any daniell that is not this checkout's."""
    module = importlib.import_module(WORKLOADS[name])
    import daniell

    src = (ROOT / "src").resolve()
    if Path(daniell.__file__).resolve().parent.parent != src:
        raise SystemExit(f"daniell imported from {daniell.__file__}, not {src}")
    return module


def run_timed(module, seed, seconds, first_round, run):
    """Whole rounds through ``run(jobs, first_job_id)`` for about ``seconds``.

    Another round starts only if it would end nearer to ``seconds`` than
    stopping now, judged by the last round's length, so a run lasts
    ``seconds`` give or take half a round.  Returns the round results.
    """
    t_start = perf_counter()
    results, jobs, next_id = [], first_round, 0
    while True:
        t_round = perf_counter()
        results.append(run(jobs, next_id))
        next_id += len(jobs)
        now = perf_counter()
        if now - t_start + (now - t_round) / 2 >= seconds:
            return results
        jobs = module.make_round(seed, len(results))


def _records(results):
    return [r.to_json() for res in results for r in res.records]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args(argv)

    module = load(ns.workload)
    if hasattr(module, "setup"):
        module.setup()
    first_round = module.make_round(ns.seed, 0)
    print("ready", flush=True)
    if ns.setup_only:
        return 0

    out = {}
    if ns.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        pairs = run_timed(module, ns.seed, ns.seconds, first_round,
                          lambda jobs, first_id: run_round_traced(jobs, tracer, first_id))
        traced = [t for t, _ in pairs]
        untraced = [u for _, u in pairs]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{ns.workload}-seed{ns.seed}.tsv"
        tracer.write(spans)
        out["jobs"] = _records(traced)
        out["replay_jobs"] = _records(untraced)
        out["traced_wall_s"] = sum(r.wall_s for r in traced)
        out["untraced_wall_s"] = sum(r.wall_s for r in untraced)
        out["spans"] = len(tracer)
        out["spans_file"] = str(spans.relative_to(ROOT))
        out["layers"] = tracer.metrics()
        if hasattr(module, "layer_metrics"):
            out["layers"].update(module.layer_metrics(out["jobs"]))
        if hasattr(module, "probe_metrics"):
            metrics, probes = module.probe_metrics(ns.seed)
            out["layers"].update(metrics)
            out["probe_jobs"] = [r.to_json() for r in probes]
    else:
        results = run_timed(module, ns.seed, ns.seconds, first_round,
                            lambda jobs, first_id: run_round(jobs))
        out["jobs"] = _records(results)
        out["wall_s"] = sum(r.wall_s for r in results)
        out["round_walls_s"] = [r.wall_s for r in results]
        out["rounds"] = len(results)
    out["numpy_imported"] = "numpy" in sys.modules
    out["scipy_imported"] = "scipy" in sys.modules
    out["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
