"""Closed-loop job runner shared by the workloads.

A workload builds its jobs one round at a time.  Every round has the same
composition (the seed varies the inputs, not the mix), so a run of whole
rounds measures the same mix whatever the seed.  Jobs run back to back in
one process; each is timed around the library call alone, and checked
against its reference after the round's timed phase.
"""

from __future__ import annotations

import random
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

OUT_DIR = Path(__file__).resolve().parent / "out"  # run records, spans, CLI inputs


@dataclass(frozen=True)
class Verdict:
    ok: bool
    err: float | None = None  # distance to the reference, where one exists
    detail: str = ""


@dataclass
class Job:
    """One user-level call with its reference check."""

    name: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]


@dataclass
class JobRecord:
    name: str
    kind: str
    latency_s: float
    ok: bool
    err: float | None = None
    detail: str = ""

    def to_json(self):
        return {k: v for k, v in vars(self).items() if v not in (None, "")}


@dataclass
class RoundResult:
    wall_s: float
    records: list


def round_rng(seed: int, round_index: int) -> random.Random:
    """Independent, reproducible stream for one round of one run."""
    return random.Random(f"{seed}:{round_index}")


def _call(job):
    t0 = perf_counter()
    try:
        result, error = job.call(), None
    except Exception:  # a raising job is a failed job; keep measuring
        result, error = None, traceback.format_exc(limit=3)
    return perf_counter() - t0, result, error


def _judge(job, latency, result, error) -> JobRecord:
    if error is None:
        try:
            verdict = job.check(result)
        except Exception:  # a malformed result fails its check
            verdict = Verdict(False, detail=traceback.format_exc(limit=3))
    else:
        verdict = Verdict(False, detail=error)
    err = None if verdict.err is None else float(verdict.err)
    return JobRecord(job.name, job.kind, latency, bool(verdict.ok), err, verdict.detail)


def run_round(jobs) -> RoundResult:
    """Run jobs back to back (timed), then check each result (untimed)."""
    t_round = perf_counter()
    outcomes = [_call(job) for job in jobs]
    wall = perf_counter() - t_round
    return RoundResult(wall, [_judge(job, *o) for job, o in zip(jobs, outcomes)])


def run_round_traced(jobs, tracer, first_job_id):
    """Run every job twice, traced and untraced, alternating which goes
    first so both see the same warm state; returns (traced, untraced)."""
    traced, untraced = [], []
    for offset, job in enumerate(jobs):
        job_id = first_job_id + offset
        plain_first = job_id % 2 == 1
        if plain_first:
            untraced.append(_call(job))
        with tracer.recording(job_id):
            traced.append(_call(job))
        if not plain_first:
            untraced.append(_call(job))
    return tuple(
        RoundResult(sum(o[0] for o in outcomes),
                    [_judge(job, *o) for job, o in zip(jobs, outcomes)])
        for outcomes in (traced, untraced))


# -- statistics ---------------------------------------------------------------


def tail(latencies):
    """(value, percentile, jobs): latency at the highest percentile that
    still has at least ten jobs beyond it (the maximum when fewer than
    eleven jobs ran)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n >= 11 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n


def summarize(records, wall_s):
    lat = [r.latency_s for r in records]
    value, pct, n = tail(lat)
    failed = sum(not r.ok for r in records)
    return {
        "jobs_per_s": len(records) / wall_s,
        "job_p50_ms": 1000.0 * statistics.median(lat),
        "job_tail_ms": 1000.0 * value,
        "tail_percentile": pct,
        "jobs": n,
        "failed": failed,
        "failed_frac": failed / n,
    }


def within_sigma(value, reference, stderr, slack=0.0):
    return abs(value - reference) <= 4.0 * stderr + slack


def statistical_check(first, reference, confirm, slack=0.0):
    """4-sigma agreement, confirmed on an independent sample after a miss.

    ``first`` is {"value", "stderr"}; ``confirm()`` draws a fresh
    estimate with another seed.  A genuine bias fails both; a 4-sigma
    fluctuation (about 6e-5 per check) almost never repeats.
    """
    err = abs(first["value"] - reference)
    if within_sigma(first["value"], reference, first["stderr"], slack):
        return Verdict(True, err)
    second = confirm()
    ok = within_sigma(second["value"], reference, second["stderr"], slack)
    return Verdict(ok, err, "" if ok else
                   f"{first['value']} and {second['value']} vs {reference}")
