"""The number of CPUs this process may run on, for sizing thread pools."""

from __future__ import annotations

import os


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1
