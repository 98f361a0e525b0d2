"""Every benchmark check passes on real output and flags a corrupted copy.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from errorlab import cli, models  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 5

# The standard scenario at sizes that run in seconds.
SMALL = {
    "biasvar": {"replicates": 60, "components_replicates": 10},
    "curve": {"replicates": 3, "test_points": 2000},
    "gallery": {"replicates": 3, "test_points": 2000, "ceiling_n": 20000},
}
KNN = {**SMALL, "model": {"family": "knn", "k": 10}}
MLP = {**SMALL, "model": {"family": "mlp", "widths": [16], "epochs": 20}}


@pytest.fixture(scope="session")
def outputs(tmp_path_factory, monkeypatch_session):
    """(family, command) -> (output directory, scenario mapping)."""
    monkeypatch_session.chdir(REPO)
    root = tmp_path_factory.mktemp("outputs")
    runs = [("ridge", SMALL, c) for c in workloads.COMMANDS]
    runs += [("knn", KNN, "decompose"), ("mlp", MLP, "decompose")]
    found = {}
    for family, overrides, command in runs:
        scen = workloads.scenario_mapping(overrides)
        path = root / f"{family}.yaml"
        path.write_text(json.dumps(scen), encoding="utf-8")
        out = root / f"{family}-{command}"
        code = cli.main([command, "--config", str(path), "--out", str(out), "--seed", str(SEED)])
        assert code == 0
        found[family, command] = (out, scen)
    return found


@pytest.fixture(scope="session")
def monkeypatch_session():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def _checks(outputs, family: str, command: str, out: Path | None = None) -> dict:
    real_out, scen = outputs[family, command]
    return dict(checks.command_checks(command, out or real_out, scen, SEED))


# ---------------------------------------------------------------------------
# corruptions: each edits a copy of one command's output directory


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    edit(header, rows)
    path.write_text("\n".join([lines[0], ",".join(header)] + [",".join(r) for r in rows]) + "\n",
                    encoding="utf-8")


def _set_cell(file: str, row: int, column: str, fn):
    def corrupt(out: Path) -> None:
        def edit(header, rows):
            j = header.index(column)
            rows[row][j] = fn(rows[row][j])
        _edit_csv(out / file, edit)
    return corrupt


def _set_column(file: str, column: str, fn):
    def corrupt(out: Path) -> None:
        def edit(header, rows):
            j = header.index(column)
            for r in rows:
                r[j] = fn(r[j])
        _edit_csv(out / file, edit)
    return corrupt


def _drop_column(file: str, column: str):
    def corrupt(out: Path) -> None:
        def edit(header, rows):
            j = header.index(column)
            del header[j]
            for r in rows:
                del r[j]
        _edit_csv(out / file, edit)
    return corrupt


def _edit_json(file: str, edit):
    def corrupt(out: Path) -> None:
        doc = json.loads((out / file).read_text(encoding="utf-8"))
        edit(doc)
        (out / file).write_text(json.dumps(doc), encoding="utf-8")
    return corrupt


def _shift(amount: float):
    return lambda v: repr(float(v) + amount)


def _scale(factor: float):
    return lambda v: repr(float(v) * factor)


def _nan_token(out: Path) -> None:
    path = next(p for p in sorted(out.glob("*.json")) if p.name != "manifest.json")
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"schema_version": 1', '"schema_version": NaN'), encoding="utf-8")


def _append_byte(out: Path) -> None:
    with (out / "scenario.normalized.yaml").open("a", encoding="utf-8") as fh:
        fh.write(" ")


def _biasvar_gap(doc) -> None:
    step = 10 * doc["se_identity_gap"]
    doc["identity_gap"] += step
    doc["empirical_mse"] += step


def _models_edit(edit):
    def corrupt(out: Path) -> None:
        path = out / "models.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        model = json.loads(doc["OO"])
        edit(model)
        doc["OO"] = json.dumps(model)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return corrupt


def _swap_training_rows(model) -> None:
    p = model["params"]
    for key in ("train_x_std", "train_y"):
        p[key][0], p[key][-1] = p[key][-1], p[key][0]


def _set_knn_k(model) -> None:
    model["params"]["k"] = model["spec"]["k"] = 9


def _drop_hidden_unit(model) -> None:
    (w0, b0), (w1, b1) = model["params"]["layers"]
    model["params"]["layers"] = [[[r[:-1] for r in w0], b0[:-1]], [w1[:-1], b1]]


def _mlp_loss(model) -> None:
    model["diagnostics"]["final_loss"] = model["diagnostics"]["epoch_losses"][-1] * 0.5


def _panels_target_row(out: Path) -> None:
    def edit(header, rows):
        j, v = header.index("mean_mse"), header.index("variant")
        row = [r for r in rows if r[v] == "reconstructed_target"][-1]
        row[j] = repr(float(row[j]) * (1 + 1e-12))
    _edit_csv(out / "panels.csv", edit)


def _features_flag(doc) -> None:
    for c in doc["comparisons"]:
        if c["variant"] == "reconstructed_features":
            c["strictly_below_baseline"] = False


CORRUPTIONS = {
    ("ridge", "simulate.generative"): _set_cell("samples.csv", 5, "epsilon", _shift(0.5)),
    ("ridge", "simulate.observed_width"): _drop_column("samples.csv", "x_obs_1"),
    ("ridge", "simulate.epsilon_variance"): _set_column("samples.csv", "epsilon", _scale(1.5)),
    ("ridge", "simulate.selected_share"): _set_column("samples.csv", "selected", lambda v: "true"),
    ("ridge", "decompose.pointwise_sum"): _set_cell("decomposition.csv", 3, "meas_gain_y",
                                                    _shift(1e-6)),
    ("ridge", "decompose.error_sum"): _set_cell("decomposition.csv", 3, "err_x", _shift(1e-6)),
    ("ridge", "biasvar.aleatoric"): _edit_json(
        "biasvar.json", lambda d: d.update(aleatoric_variance=0.26)),
    ("ridge", "biasvar.replicates"): _set_cell("replicates.csv", 0, "mse", _shift(0.1)),
    ("ridge", "biasvar.identity"): _edit_json("biasvar.json", _biasvar_gap),
    ("ridge", "biasvar.tt_theory"): _edit_json(
        "biasvar.json", lambda d: d.update(empirical_mse=d["empirical_mse"] + 10 * d["se_mse"])),
    ("ridge", "biasvar.components"): _edit_json(
        "components.json", lambda d: d["means"].__setitem__(3, 1.0)),
    ("ridge", "curve.values"): _edit_json(
        "curve.json", lambda d: d["points"][2].update(performance=d["points"][2]["performance"]
                                                      + 1e-9)),
    ("ridge", "curve.monotone"): _edit_json(
        "curve.json", lambda d: d["points"][-1].update(mean_mse=100.0)),
    ("ridge", "curve.terminal"): _edit_json(
        "curve.json", lambda d: d["points"][-1].update(mean_mse=d["points"][-1]["mean_mse"] + 0.5)),
    ("ridge", "panels.features_below"): _edit_json("panels.json", _features_flag),
    ("ridge", "panels.target_at_fidelity0"): _panels_target_row,
    ("ridge", "gallery.ceiling"): _edit_json(
        "gallery.json", lambda d: d["low_noise"].update(ceiling_r2=d["low_noise"]["ceiling_r2"]
                                                        - 0.01)),
    ("ridge", "gallery.curves"): _set_cell("gallery.csv", 4, "mean_mse", lambda v: "nan"),
    ("ridge", "probe.ceiling"): _edit_json(
        "probe.json", lambda d: d.update(ceiling_r2=d["ceiling_r2"] - 0.01)),
    ("ridge", "probe.selection"): _edit_json(
        "probe.json", lambda d: d.update(n_selected=d["n_selected"] - 1)),
    ("knn", "decompose.knn_brute_force"): _models_edit(_swap_training_rows),
    ("mlp", "decompose.mlp_gradients"): _models_edit(_drop_hidden_unit),
    ("mlp", "decompose.mlp_final_loss"): _models_edit(_mlp_loss),
}
for _command in workloads.COMMANDS:
    CORRUPTIONS["ridge", f"{_command}.json"] = _nan_token
    CORRUPTIONS["ridge", f"{_command}.manifest"] = _append_byte


def _applicable(outputs) -> set:
    return {(family, name) for family, command in outputs
            for name in _checks(outputs, family, command)}


def test_every_check_passes_on_real_output(outputs):
    for family, command in outputs:
        for name, check in _checks(outputs, family, command).items():
            check()


def test_every_check_has_a_corruption(outputs):
    corrupted = {name for _, name in CORRUPTIONS}
    assert {name for _, name in _applicable(outputs)} <= corrupted


@pytest.mark.parametrize("family,name", sorted(CORRUPTIONS), ids=lambda v: str(v))
def test_check_flags_its_corruption(outputs, tmp_path, family, name):
    command = name.split(".")[0]
    real_out, _ = outputs[family, command]
    copy = tmp_path / "out"
    shutil.copytree(real_out, copy)
    CORRUPTIONS[family, name](copy)
    with pytest.raises(checks.CheckFailed):
        _checks(outputs, family, command, copy)[name]()


def test_knn_check_flags_a_wrong_k(outputs, tmp_path):
    real_out, _ = outputs["knn", "decompose"]
    shutil.copytree(real_out, tmp_path / "out")
    _models_edit(_set_knn_k)(tmp_path / "out")
    with pytest.raises(checks.CheckFailed):
        _checks(outputs, "knn", "decompose", tmp_path / "out")["decompose.knn_brute_force"]()


def test_knn_check_flags_corrupted_predictions(outputs, monkeypatch):
    real_predict = models.predict
    monkeypatch.setattr(models, "predict", lambda m, x: real_predict(m, x) + 1e-9)
    monkeypatch.setattr(sys.modules["errorlab"], "predict", models.predict)
    with pytest.raises(checks.CheckFailed):
        _checks(outputs, "knn", "decompose")["decompose.knn_brute_force"]()


def test_mlp_check_flags_corrupted_gradients(outputs, monkeypatch):
    real = models.mlp_loss_and_gradients

    def skewed(params, activation, x, y):
        loss, grads = real(params, activation, x, y)
        (gw, gb), rest = grads[0], grads[1:]
        return loss, [(gw * 1.01, gb), *rest]

    monkeypatch.setattr(models, "mlp_loss_and_gradients", skewed)
    with pytest.raises(checks.CheckFailed):
        _checks(outputs, "mlp", "decompose")["decompose.mlp_gradients"]()


def test_knn_reference_breaks_ties_by_lower_index():
    # Rows 1 and 2 are equidistant from the query; k = 2 must take rows 0 and 1.
    train = np.array([[0.0], [1.0], [-1.0], [5.0]])
    labels = np.array([10.0, 20.0, 40.0, 80.0])
    got = checks.knn_reference_predict(train, labels, np.zeros(1), np.ones(1), 2,
                                       np.array([[0.0]]))
    assert got[0] == 15.0


def test_knn_reference_matches_program_under_exact_ties():
    x = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]), 3, axis=0)
    y = np.arange(x.shape[0], dtype=float)
    model = models.fit(models.ModelSpec(family="knn", k=4), x, y)
    p = model.params
    queries = np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    expected = checks.knn_reference_predict(p["train_x_std"], p["train_y"], p["mean"], p["sd"],
                                            4, queries)
    assert np.array_equal(models.predict(model, queries), expected)


def test_same_checksums_flags_a_difference():
    checks.same_checksums({"a": "1"}, {"a": "1"})
    with pytest.raises(checks.CheckFailed):
        checks.same_checksums({"a": "1"}, {"a": "2"})


def test_benchmark_knows_every_cli_command():
    assert workloads.COMMANDS == cli.COMMANDS


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = set(Tracer().round_metrics(0, workloads.COMMANDS)) | {"trace.round_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
