"""The tracer reaches every binding, leaves none behind, and its layer
counts are non-zero exactly where each workload predicts."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import daniell.cli  # noqa: F401  (binds level_set_integral; loads every module)
from daniell import extension, functional, lattice, lebesgue, rings
from perfbench import harness
from perfbench.tracer import Tracer
from perfbench.worker import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

# (owner, attribute) pairs that must all be traced, with the original behind each
BINDINGS = [
    (rings, "boolean_combine"), (lattice, "boolean_combine"), (extension, "boolean_combine"),
    (lattice, "canonicalize"), (extension, "canonicalize"), (functional, "canonicalize"),
    (lattice, "level_set"), (extension, "level_set"),
    (extension, "i1_limit"), (lebesgue, "i1_limit"),
    (extension, "level_set_integral"), (daniell.cli, "level_set_integral"),
    (extension.MeasurableFunction, "level_set"),
    (functional.ElementaryIntegral, "integrate"), (functional.ElementaryIntegral, "__call__"),
    (rings.PreMeasure, "__call__"),
]

# the count that shows a layer did work
LAYER_COUNT = {
    "rings": "rings.combine_calls",
    "lattice": "lattice.canonicalize_calls",
    "functional": "functional.integrate_calls",
    "extension": "extension.level_sets_evaluated",
    "lebesgue": "lebesgue.recover_calls",
    "wiener": "wiener.premeasure_calls",
    "dirichlet": "dirichlet.grid_solves",
    "cli": "cli.process_s.integrate",
}

# jobs left out of the test rounds only to keep them short
SLOW = ("generic.p15", "abs.p40", "meet.p44", "join.p48", "disk.h80", "disk.h128")


def test_install_reaches_every_binding_and_uninstall_restores_it():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in BINDINGS}
    tracer = Tracer()
    with tracer.recording(0):
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not traced"
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_untraced_calls_see_the_original_functions():
    original = lattice.boolean_combine
    seen = []
    job = harness.Job("probe", "probe", lambda: seen.append(lattice.boolean_combine),
                      lambda _: harness.Verdict(True))
    tracer = Tracer()
    traced, untraced = harness.run_round_traced([job], tracer, 0)
    assert seen[0] is not original and seen[1] is original  # job 0 runs traced first
    harness.run_round([job])
    assert seen[2] is original
    assert traced.records[0].ok and untraced.records[0].ok


def _layer_metrics(workload):
    module = importlib.import_module(WORKLOADS[workload])
    if hasattr(module, "setup"):
        module.setup()
    jobs = [j for j in module.make_round(5, 0)
            if j.kind not in SLOW and not j.name.startswith("quad sparre-andersen n=4")]
    tracer = Tracer()
    traced, _ = harness.run_round_traced(jobs, tracer, 0)
    assert all(r.ok for r in traced.records)
    metrics = tracer.metrics()
    if hasattr(module, "layer_metrics"):
        metrics.update(module.layer_metrics([r.to_json() for r in traced.records]))
    return module.LAYERS, metrics


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_counts_match_predictions(workload):
    layers, metrics = _layer_metrics(workload)
    for layer in layers["exercises"]:
        assert metrics[LAYER_COUNT[layer]] > 0, layer
    for layer in layers["bypasses"]:
        assert metrics.get(LAYER_COUNT[layer], 0) == 0, layer


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-dyadic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    value, pct, n = harness.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert harness.tail([3.0, 1.0])[0] == 3.0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb"}
    reported = set(Tracer().metrics()) | {"trace.overhead_s", "trace.overhead_frac",
                                          "cli.import_s", "verify.rings_quick_s",
                                          "wiener.ref_err_max", "dirichlet.ref_err_max",
                                          "extension.truncation_misses"}
    reported |= {f"cli.process_s.{c}" for c in
                 ("integrate", "lebesgue", "decompose", "wiener", "dirichlet")}
    assert {m["name"] for m in spec["per_layer"]} == reported
