"""Ordered parallel map with a deterministic reduction.

Cells derive all randomness from their own substream labels, so results are
identical for any worker count; only wall time changes.

A spawn pool costs a fresh interpreter per process, so the worker count is
set once, by the :func:`command_pool` a caller opens around its maps (the
CLI opens one per command); every ``ordered_map`` inside it shares that
pool, started on first use, and a map outside any pool runs in-process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from . import seeding

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


class CommandPool:
    """One spawn pool of ``min(workers, usable_cpus())`` processes, started
    by the first map that needs it and shared by every later one."""

    def __init__(self, workers: int) -> None:
        self.size = max(1, min(workers, usable_cpus()))
        self._pool = None

    @property
    def processes(self) -> int:
        """Processes that ran cells: the pool's size once it started, else 1."""
        return self.size if self._pool is not None else 1

    def map(self, fn: Callable[[T], R], items: Sequence[T], chunksize: int) -> list[R]:
        if self._pool is None:
            self._pool = mp.get_context("spawn").Pool(processes=self.size)
        return self._pool.map(fn, items, chunksize=chunksize)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()


_OPEN: Optional[CommandPool] = None


@contextmanager
def command_pool(workers: int) -> Iterator[CommandPool]:
    """Share one pool among the ``ordered_map`` calls made inside the block;
    the pool is shut down when the block exits."""
    global _OPEN
    if _OPEN is not None:
        raise RuntimeError("a command pool is already open")
    _OPEN = CommandPool(workers)
    try:
        yield _OPEN
    finally:
        pool, _OPEN = _OPEN, None
        pool.close()


def _recorded_cell(fn: Callable[[T], R], item: T) -> tuple[object, Optional[str], set[str]]:
    """Run one cell in a pool worker, which has a seed-label ledger of its
    own; return the cell's result, or the exception it raised with its
    traceback's text (a traceback does not pickle), and the labels it drew.
    So the caller's ledger comes out the same for any worker count, and the
    caller raises the first failing item's error, not the first to fail."""
    with seeding.recording() as labels:
        try:
            return fn(item), None, labels
        except Exception as exc:  # the caller raises it again, in item order
            import traceback  # not at the top: only a failing cell needs it

            return exc, traceback.format_exc(), labels


def ordered_map(
    fn: Callable[[T], R], items: Sequence[T], workers: Optional[int] = None
) -> list[R]:
    """``fn`` over ``items``, in order, on the open command pool, or in this
    process when none is open.  ``workers`` (the pool's size by default)
    bounds the processes the map spreads over: 1 runs it in-process.  A
    failing map raises the first failing item's error at any worker count."""
    if _OPEN is None:
        processes = 1
    else:
        processes = pool_size(_OPEN.size if workers is None else workers, len(items))
    if processes == 1:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (processes * 4))
    cells = _OPEN.map(partial(_recorded_cell, fn), items, chunksize)
    seeding.record(label for _, _, labels in cells for label in labels)
    for value, remote, _ in cells:
        if remote is not None:
            from multiprocessing.pool import RemoteTraceback  # as traceback above

            # The worker's traceback as the cause, as a pool's own map gives it.
            raise value from RemoteTraceback(remote)
    return [value for value, _, _ in cells]
