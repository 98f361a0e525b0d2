import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "identity_matrix.py"
_SPEC = importlib.util.spec_from_file_location("identity_matrix", _PATH)
identity_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity_matrix)


# A run that exited 2 and wrote no manifest.
_FAILED = {"exit": 2, "files": None, "seed_labels": None, "config_hash": None}


def _record(**files):
    return {"exit": 0, "files": files, "seed_labels": ["a"], "config_hash": "h"}


def test_compare_names_every_run_and_file_that_differs():
    base = {
        "s/ridge/biasvar/workers1": _record(**{"biasvar.json": "1", "replicates.csv": "2"}),
        "s/ridge/curve/workers1": _record(**{"curve.csv": "3"}),
        "s/ridge/probe/workers1": _FAILED,
    }
    head = {
        "s/ridge/biasvar/workers1": _record(**{"biasvar.json": "9", "replicates.csv": "2"}),
        "s/ridge/curve/workers1": _record(**{"curve.csv": "3"}),
        "s/ridge/probe/workers1": _record(**{"probe.json": "4"}),
        "s/knn/probe/workers1": _record(),
    }
    assert identity_matrix.differences(base, head) == [
        "s/knn/probe/workers1: only in head",
        "s/ridge/biasvar/workers1: files differ: biasvar.json",
        "s/ridge/probe/workers1: config_hash differs: None != 'h'",
        "s/ridge/probe/workers1: exit differs: 2 != 0",
        "s/ridge/probe/workers1: files differs: None != {'probe.json': '4'}",
        "s/ridge/probe/workers1: seed_labels differs: None != ['a']",
    ]
    assert identity_matrix.differences(base, base) == []


def test_worker_counts_must_agree_within_one_result():
    results = {
        "s/ridge/curve/workers1": _record(**{"curve.csv": "3"}),
        "s/ridge/curve/workers2": _record(**{"curve.csv": "3"}),
        "s/mlp/curve/workers1": _record(**{"curve.csv": "3"}),
        "s/mlp/curve/workers2": {**_record(**{"curve.csv": "5"}), "seed_labels": ["b"]},
    }
    assert identity_matrix.worker_mismatches(results) == [
        "s/mlp/curve: workers 1 and 2 differ in files, seed_labels",
    ]


def test_every_run_must_exit_as_its_scenario_expects():
    crashed = {**_FAILED, "exit": 1}
    results = {
        "standard/ridge/probe/workers1": _record(**{"probe.json": "4"}),
        "standard/knn/biasvar/workers1": crashed,
        "standard/knn/biasvar/workers2": crashed,
        "standard/mlp/curve/workers1": _FAILED,
        "reference/ridge/curve/workers1": _FAILED,
        "reference/ridge/probe/workers1": _record(**{"probe.json": "4"}),
        "reference/ridge/decompose/workers1": {**_FAILED, "exit": 4},
        "reference/ridge/simulate/workers1": _record(**{"samples.csv": "5"}),
    }
    # knn's biasvar crashes alike at both worker counts: still refused.
    knn = {run: results[run] for run in results if run.startswith("standard/knn/")}
    assert identity_matrix.worker_mismatches(knn) == []
    assert identity_matrix.exit_mismatches(results) == [
        "reference/ridge/decompose/workers1: exit 4, expected 0",
        "reference/ridge/probe/workers1: exit 0, expected 2",
        "standard/knn/biasvar/workers1: exit 1, expected 0",
        "standard/knn/biasvar/workers2: exit 1, expected 0",
        "standard/mlp/curve/workers1: exit 2, expected 0",
    ]
