import os

import pytest

from errorlab import parallel


@pytest.mark.parametrize(
    "workers, n_items, cpus, expected",
    [
        (8, 100, 2, 2),
        (8, 3, 16, 3),
        (2, 100, 16, 2),
        (8, 1, 16, 1),
        (8, 0, 16, 1),
        (1, 100, 16, 1),
        (0, 100, 16, 1),
        (-4, 100, 16, 1),
        (8, 100, 1, 1),
    ],
)
def test_pool_size_caps_at_workers_items_and_cpus(monkeypatch, workers, n_items, cpus, expected):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert parallel.pool_size(workers, n_items) == expected


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parallel.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.usable_cpus() == 1


def test_single_usable_cpu_runs_serially_without_a_pool(monkeypatch):
    class NoPools:
        def get_context(self, method=None):
            raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    monkeypatch.setattr(parallel, "mp", NoPools())
    assert parallel.ordered_map(abs, [-3, 2, -1], workers=8) == [3, 2, 1]
