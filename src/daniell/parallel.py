"""Seeded blocks of sampling work on a thread per CPU."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def run_blocks(fn, n: int) -> None:
    """Run fn(i) for each block i < n on min(cpus(), n) threads, the
    calling thread one of them.

    Each thread takes the next index from one shared counter until none
    is left, so nothing is kept per block.  A block that raises stops the
    others from taking more, and its exception reaches the caller once
    every thread has ended.
    """
    todo, lock = iter(range(n)), threading.Lock()

    def worker():
        nonlocal todo
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                fn(i)
            except BaseException:
                todo = iter(())  # the other threads take no more blocks
                raise

    workers = min(cpus(), n)
    if workers <= 1:
        worker()
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(worker) for _ in range(workers - 1)]
        worker()
    for f in rest:
        f.result()
