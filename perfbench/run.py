"""The daniell benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the library is imported from ``src/``
and nothing needs building.  Set-up is timed in fresh processes: four
set-up-only probes plus the measuring worker, reporting the median.  The
worker runs whole rounds of the workload (see ``workloads/``) for about
``--seconds`` and checks every job against its reference.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics from a traced run,
including the tracing overhead.  ``--workload all`` runs every workload in
turn and prints one object keyed by workload.  A full record (environment, job list,
failing jobs by name, tail percentile) goes to ``perfbench/out/``, and a
readable summary to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import OUT_DIR, JobRecord, summarize  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes timed to "ready"; the worker is the last
RUN_LIMIT_S = 170  # hard stop for all workers of one run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(nproc):
    """Environment for benchmark children only: this checkout's ``src`` and
    BLAS/OpenMP pools pinned to the CPUs this process may use."""
    env = dict(os.environ)
    env.update({var: str(nproc) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(nproc):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():  # never ask a repository above the checkout
        try:
            commit = subprocess.run(("git", "-C", str(ROOT), "rev-parse", "HEAD"),
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {
        "nproc": nproc,
        "blas_threads": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
    }


class Worker:
    """A worker process; ``setup_s`` is the time from spawn to ``ready``.

    The process is killed if it is still running at ``deadline``.
    """

    def __init__(self, args, env, deadline):
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(
            (sys.executable, str(ROOT / "perfbench" / "worker.py")) + args,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - self.t0, 0.0), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - self.t0
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")

    def finish(self):
        try:
            rest = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with {code}")
        return rest


def end_to_end(result, setup_samples):
    records = [JobRecord(**r) for r in result["jobs"]]
    summary = summarize(records, result["wall_s"])
    rss_kb = max(result["maxrss_self_kb"], result["maxrss_children_kb"])
    metrics = {
        "jobs_per_s": (summary["jobs_per_s"], "1/s"),
        "job_p50_ms": (summary["job_p50_ms"], "ms"),
        "job_tail_ms": (summary["job_tail_ms"], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return records, summary, metrics


def per_layer(result, spec_metrics):
    records = [JobRecord(**r) for r in result["jobs"] + result["replay_jobs"]]
    summary = summarize(records, result["traced_wall_s"] + result["untraced_wall_s"])
    layers = dict(result["layers"])
    overhead = result["traced_wall_s"] - result["untraced_wall_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / result["untraced_wall_s"]
    return records, summary, {m["name"]: (float(layers.get(m["name"], 0.0)), m["unit"])
                              for m in spec_metrics}


def run_workload(workload, seed, seconds, trace, spec):
    """One run of one workload; returns its result line as a dict."""
    deadline = perf_counter() + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    common = ("--workload", workload, "--seed", str(seed))
    setup_samples = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Worker(common + ("--seconds", "0", "--setup-only"), env, deadline)
        probe.finish()
        setup_samples.append(probe.setup_s)
    worker = Worker(common + ("--seconds", str(seconds), "--trace", str(trace)), env, deadline)
    setup_samples.append(worker.setup_s)
    result = json.loads(worker.finish().strip().splitlines()[-1])

    if trace:
        records, summary, metrics = per_layer(result, spec["per_layer"])
    else:
        records, summary, metrics = end_to_end(result, setup_samples)
    failing = [r.name for r in records if not r.ok]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(nproc),
        "setup_samples_s": setup_samples,
        "summary": summary,
        "metrics": metrics,
        "failing_jobs": failing,
        **{k: v for k, v in result.items() if k != "layers"},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {workload} seed {seed}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"jobs {summary['jobs']}, failed {summary['failed']} "
          f"(failed_frac {summary['failed_frac']:.4f}), tail at "
          f"p{summary['tail_percentile']:.1f}; record in {out_file.relative_to(ROOT)}",
          file=sys.stderr)
    for name in failing:
        print(f"  failed: {name}", file=sys.stderr)
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["jobs"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "daniell" / "__init__.py").is_file():
        print(f"no daniell sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if ns.workload not in names + ["all"]:
        print(f"unknown workload {ns.workload!r}", file=sys.stderr)
        return 2
    if ns.workload != "all":
        print(json.dumps(run_workload(ns.workload, ns.seed, ns.seconds, ns.trace, spec)))
        return 0
    results = {name: run_workload(name, ns.seed, ns.seconds, ns.trace, spec) for name in names}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
