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


class _FakePool:
    def __init__(self, log, processes):
        self.log = log
        log.append(("start", processes))

    def map(self, fn, items, chunksize=1):
        self.log.append(("map", len(items)))
        return [fn(item) for item in items]

    def terminate(self):
        self.log.append("terminate")

    def join(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.terminate()
        return False


class _FakeMultiprocessing:
    def __init__(self):
        self.log = []

    def get_context(self, method=None):
        assert method == "spawn"
        return self

    def Pool(self, processes=None):
        return _FakePool(self.log, processes)


def test_command_pool_starts_lazily_and_serves_every_map(monkeypatch):
    fake = _FakeMultiprocessing()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(parallel, "mp", fake)
    with parallel.command_pool(8) as pool:
        assert parallel.ordered_map(abs, [-1], workers=8) == [1]  # one item: in-process
        assert fake.log == [] and pool.processes == 1
        assert parallel.ordered_map(abs, [-1, -2, 3], workers=8) == [1, 2, 3]
        assert parallel.ordered_map(abs, [-4, 5], workers=8) == [4, 5]
        assert pool.processes == 4
    assert fake.log == [("start", 4), ("map", 3), ("map", 2), "terminate"]


def test_outside_a_command_pool_a_map_runs_in_process_and_starts_nothing(monkeypatch):
    fake = _FakeMultiprocessing()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(parallel, "mp", fake)
    assert parallel.ordered_map(abs, [-1, -2, 3], workers=2) == [1, 2, 3]
    assert parallel.ordered_map(abs, [-4, 5]) == [4, 5]
    assert fake.log == []


def test_a_map_defaults_to_the_command_pool_size(monkeypatch):
    fake = _FakeMultiprocessing()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(parallel, "mp", fake)
    with parallel.command_pool(3) as pool:
        assert parallel.ordered_map(abs, [-1, -2], workers=1) == [1, 2]  # in-process
        assert fake.log == []
        assert parallel.ordered_map(abs, [-4, 5, -6, 7]) == [4, 5, 6, 7]
        assert pool.processes == 3
    assert fake.log == [("start", 3), ("map", 4), "terminate"]


def test_command_pool_closes_and_resets_on_error(monkeypatch):
    fake = _FakeMultiprocessing()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "mp", fake)
    with pytest.raises(ZeroDivisionError):
        with parallel.command_pool(2):
            parallel.ordered_map(lambda v: 1 / v, [1, 0], workers=2)
    assert fake.log[-1] == "terminate"
    assert parallel._OPEN is None
    with parallel.command_pool(2):
        with pytest.raises(RuntimeError, match="already open"):
            with parallel.command_pool(2):
                pass
    assert parallel._OPEN is None
