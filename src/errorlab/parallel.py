"""Ordered parallel map with a deterministic reduction.

Cells derive all randomness from their own substream labels, so results are
identical for any worker count; only wall time changes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, else the machine's CPU count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(workers: int, n_items: int) -> int:
    """Processes to start: never more than the requested workers, the items
    to map, or the usable CPUs; 1 means run serially."""
    return max(1, min(workers, n_items, usable_cpus()))


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    processes = pool_size(workers, len(items))
    if processes == 1:
        return [fn(item) for item in items]
    ctx = mp.get_context("spawn")
    chunksize = max(1, len(items) // (processes * 4))
    with ctx.Pool(processes=processes) as pool:
        return pool.map(fn, items, chunksize=chunksize)
