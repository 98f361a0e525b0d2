import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import errorlab as el
from errorlab import cli, parallel, seeding
from errorlab.cli import main, run
from errorlab.config import normalize_scenario, parse_config, scenario_to_yaml
from errorlab.errors import ConfigError, InvariantError

STANDARD = Path(__file__).resolve().parents[1] / "scenarios" / "standard.yaml"

MINIMAL = """
seed: 4242
world:
  x: {kind: gaussian, dim: 2}
  f_star: {family: linear, coefficients: [2.0, -1.0]}
"""

REFERENCE = """
seed: 777
world:
  x: {kind: gaussian, dim: 3}
  f_star: {family: linear, coefficients: [1.5, -2.0, 0.7]}
  aleatoric: {variance: 0.25}
  target_noise: {variance: 0.5}
  feature_noise: {cov: 0.2}
model: {family: ridge, lam: 0.0}
simulate: {n: 200, label: sim}
decompose: {train_n: 150, n: 120}
biasvar: {regime: TT, n_train: 100, replicates: 60, test_points: 64}
probe: {n: 4000}
curve:
  replicates: 4
  test_points: 400
  comp_points: 64
  axis:
    levels:
      - {n_train: 50, features: [0, 1, 2], fidelity: [1.0, 1.0]}
      - {n_train: 120, features: [0, 1, 2], fidelity: [0.5, 0.5]}
      - {n_train: 250, features: [0, 1, 2], fidelity: [0.0, 0.0]}
panels:
  variants:
    - {variant: baseline}
    - {variant: reconstructed_target, target_noise: {variance: 0.25}}
"""


def _write(tmp_path: Path, text: str, name: str = "scenario.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parsing and normalization


def test_minimal_config_fills_defaults(tmp_path):
    scenario = parse_config(_write(tmp_path, MINIMAL))
    assert scenario.world.aleatoric.variance == 0.0
    assert scenario.model.family == "ridge"
    assert scenario.simulate.n == 1000
    assert scenario.biasvar.regime == "TT"
    assert scenario.curve is None


def test_normalized_echo_reparses_to_identical_objects(tmp_path):
    scenario = parse_config(_write(tmp_path, REFERENCE))
    echoed = _write(tmp_path, scenario_to_yaml(scenario), "normalized.yaml")
    reparsed = parse_config(echoed)
    assert reparsed.world == scenario.world
    assert reparsed.model == scenario.model
    assert reparsed.curve.axis == scenario.curve.axis
    assert reparsed.panels == scenario.panels
    # Normalizing again is a fixed point.
    assert normalize_scenario(reparsed) == normalize_scenario(scenario)


def test_missing_required_field_names_it(tmp_path):
    bad = _write(tmp_path, "seed: 1\nworld:\n  f_star: {coefficients: [1.0]}\n")
    with pytest.raises(ConfigError, match="world.x.dim"):
        parse_config(bad)


def test_missing_seed_named(tmp_path):
    bad = _write(tmp_path, "world:\n  x: {dim: 1}\n  f_star: {coefficients: [1.0]}\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(bad)


def test_yaml_syntax_error_reported(tmp_path):
    with pytest.raises(ConfigError, match="parse"):
        parse_config(_write(tmp_path, "seed: [unclosed\n"))


def test_non_psd_cov_rejected_at_parse_time(tmp_path):
    text = """
seed: 5
world:
  x: {kind: gaussian, dim: 2}
  f_star: {family: linear, coefficients: [1.0, 1.0]}
  feature_noise:
    cov: [[1.0, 2.0], [2.0, 1.0]]
"""
    with pytest.raises(ConfigError, match="feature_noise.cov"):
        parse_config(_write(tmp_path, text))


def _standard_with(tmp_path: Path, **sections) -> Path:
    """standard.yaml with the given fields replaced, section by section."""
    scenario = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    for section, fields in sections.items():
        scenario[section] = {**(scenario.get(section) or {}), **fields}
    return _write(tmp_path, yaml.safe_dump(scenario))


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("simulate", "n", 0),
        ("decompose", "train_n", 0),
        ("decompose", "n", -3),
        ("biasvar", "n_train", 0),
        ("biasvar", "test_points", 0),
        ("biasvar", "replicates", 1),
        ("biasvar", "components_replicates", 1),
        ("probe", "n", 0),
        ("curve", "replicates", 1),
        ("curve", "test_points", 0),
        ("curve", "comp_points", 0),
        ("gallery", "replicates", 0),
        ("gallery", "test_points", 0),
        ("gallery", "ceiling_n", -1),
        # A variance needs two test points, the noise ceiling two draws.
        ("curve", "test_points", 1),
        ("gallery", "test_points", 1),
        ("gallery", "ceiling_n", 1),
        ("probe", "n", 3),
    ],
)
def test_degenerate_sizes_rejected_at_parse_time(tmp_path, section, field, value):
    config = _standard_with(tmp_path, **{section: {field: value}})
    with pytest.raises(ConfigError, match=f"{section}.{field}: must be"):
        parse_config(config)


_RAGGED = [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
_TWO_BY_TWO = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "world, message",
    [
        ({"feature_noise": {"cov": _TWO_BY_TWO}}, "feature_noise.cov: expected a 3 x 3"),
        ({"feature_noise": {"cov": _RAGGED}}, "feature_noise.cov: expected a 3 x 3"),
        ({"x": {"kind": "correlated", "dim": 3, "cov": _RAGGED}}, "x.cov: expected a 3 x 3"),
    ],
)
def test_covariance_of_the_wrong_shape_exits_two(tmp_path, capsys, world, message):
    config = _standard_with(tmp_path, world=world)
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "c")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_panels_without_a_baseline_rejected_at_parse_time(tmp_path):
    variants = [{"variant": "reconstructed_target", "target_noise": {"variance": 0.5}}]
    config = _standard_with(tmp_path, panels={"variants": variants})
    with pytest.raises(ConfigError, match="panels.variants: needs a baseline"):
        parse_config(config)


# ---------------------------------------------------------------------------
# run() and outputs


def _run(tmp_path, command, text=REFERENCE, out="out", **kwargs):
    config = _write(tmp_path, text)
    return run(command, config, tmp_path / out, **kwargs), tmp_path / out


def test_simulate_writes_samples_and_manifest(tmp_path):
    manifest, out = _run(tmp_path, "simulate")
    assert (out / "samples.csv").exists()
    assert (out / "manifest.json").exists()
    header = (out / "samples.csv").read_text().splitlines()
    assert header[0] == "# schema_version=1"
    assert header[1].split(",")[:2] == ["x_true_0", "x_true_1"]
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["files"] == manifest.files
    assert "samples.csv" in saved["files"]
    assert "sim" in saved["seed_labels"]


def test_noiseless_decompose_outputs_zero_epistemic_columns(tmp_path):
    text = """
seed: 99
world:
  x: {kind: gaussian, dim: 2}
  f_star: {family: linear, coefficients: [2.0, -1.0]}
decompose: {train_n: 100, n: 50}
"""
    _, out = _run(tmp_path, "decompose", text=text)
    lines = (out / "decomposition.csv").read_text().splitlines()
    header = lines[1].split(",")
    idx = {name: i for i, name in enumerate(header)}
    for line in lines[2:]:
        cells = line.split(",")
        for column in ("model_approx_gain", "meas_gain_y", "meas_gain_x"):
            assert abs(float(cells[idx[column]])) < 1e-9


def test_rerun_is_byte_identical(tmp_path):
    _, out1 = _run(tmp_path, "decompose", out="out1")
    _, out2 = _run(tmp_path, "decompose", out="out2")
    for name in ("decomposition.csv", "summary.json", "models.json", "scenario.normalized.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["files"] == m2["files"]
    assert m1["config_hash"] == m2["config_hash"]


def test_biasvar_self_check_passes(tmp_path):
    _, out = _run(tmp_path, "biasvar")
    payload = json.loads((out / "biasvar.json").read_text())
    assert payload["self_check_identity_ok"] is True
    assert abs(payload["identity_z"]) < 3.0
    lines = (out / "replicates.csv").read_text().splitlines()
    assert len(lines) == 2 + payload["replicates"]


def test_curve_and_panels_commands(tmp_path):
    _, out = _run(tmp_path, "curve")
    curve = json.loads((out / "curve.json").read_text())
    assert curve["monotone_under_ci"] is True
    assert len(curve["points"]) == 3

    _, pout = _run(tmp_path, "panels", out="pout")
    panels = json.loads((pout / "panels.json").read_text())
    variants = [c["variant"] for c in panels["comparisons"]]
    assert variants == ["baseline", "reconstructed_target"]


def test_probe_command(tmp_path):
    probe_text = REFERENCE.replace(
        "world:",
        "world:\n  selection: {rule: threshold, score: epsilon, coverage: 0.7}",
    )
    _, out = _run(tmp_path, "probe", text=probe_text)
    payload = json.loads((out / "probe.json").read_text())
    assert abs(payload["coverage"] - 0.7) < 0.02
    assert abs(payload["z_var"]) > 3.0


def test_seed_override_changes_outputs_replicates_override_respected(tmp_path):
    m1, out1 = _run(tmp_path, "biasvar", out="s1", seed=111, replicates=40)
    m2, out2 = _run(tmp_path, "biasvar", out="s2", seed=222, replicates=40)
    p1 = json.loads((out1 / "biasvar.json").read_text())
    p2 = json.loads((out2 / "biasvar.json").read_text())
    assert p1["replicates"] == 40 and p2["replicates"] == 40
    assert p1["empirical_mse"] != p2["empirical_mse"]
    assert m1.config_hash != m2.config_hash


def test_workers_do_not_change_bytes(tmp_path):
    _, out1 = _run(tmp_path, "curve", out="w1", workers=1)
    _, out2 = _run(tmp_path, "curve", out="w2", workers=4)
    for name in ("curve.csv", "curve.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "command, edits",
    [
        ("biasvar", ()),
        (
            "decompose",
            (("model: {family: ridge, lam: 0.0}", "model: {family: mlp, widths: [4], epochs: 3}"),),
        ),
        ("biasvar", (("regime: TT", "regime: ORACLE"),)),
    ],
    ids=["ridge-biasvar", "mlp-decompose", "oracle-biasvar"],
)
def test_seed_ledger_covers_all_consumed_labels(tmp_path, monkeypatch, command, edits):
    # Observe every seed derivation directly, independently of the ledger.
    consumed: set[str] = set()
    derive = seeding.derive_seed

    def observed(master_seed, label, purpose=""):
        consumed.add(label)
        return derive(master_seed, label, purpose)

    monkeypatch.setattr(seeding, "derive_seed", observed)
    text = REFERENCE
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    manifest, _ = _run(tmp_path, command, text=text, out="ledger")
    assert set(manifest.seed_labels) == consumed


def test_seed_ledger_is_the_same_at_one_and_two_workers(tmp_path, monkeypatch):
    # The mlp streams are drawn inside the curve's cells, so at two workers
    # they reach the ledger only through what the pool's workers return.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    text = REFERENCE.replace(
        "model: {family: ridge, lam: 0.0}", "model: {family: mlp, widths: [4], epochs: 2}"
    )
    m1, _ = _run(tmp_path, "curve", text=text, out="w1", workers=1)
    m2, _ = _run(tmp_path, "curve", text=text, out="w2", workers=2)
    assert m2.timings["processes"] == 2
    assert m1.files == m2.files
    assert m1.seed_labels == m2.seed_labels
    assert {"mlp/init", "mlp/batches", "curve/test", "curve/L2/rep0003"} <= set(m1.seed_labels)


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_zero_on_success(tmp_path, capsys):
    config = _write(tmp_path, MINIMAL)
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "ok")])
    assert code == 0
    assert "wrote" in capsys.readouterr().out


def test_exit_code_two_on_config_error(tmp_path, capsys):
    bad = _write(tmp_path, "seed: 1\nworld:\n  f_star: {coefficients: [1.0]}\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # validation happens before any output


def test_exit_code_three_on_singular_fit(tmp_path, capsys):
    text = """
seed: 3
world:
  x: {kind: gaussian, dim: 2}
  f_star: {family: linear, coefficients: [1.0, 1.0]}
  feature_noise: {coarsen: [100.0, 100.0]}
model: {family: ridge, lam: 0.0}
decompose: {train_n: 60, n: 40}
"""
    config = _write(tmp_path, text)
    code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "y")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_empty_curve_test_pack_exits_two(tmp_path, capsys):
    config = _standard_with(tmp_path, curve={"test_points": 0, "replicates": 2})
    code = main(["curve", "--config", str(config), "--out", str(tmp_path / "c")])
    assert code == 2
    assert "curve.test_points" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def _panel_target_variance(doc, value):
    doc["panels"]["variants"][1]["target_noise"]["variance"] = value


def _curve_level_features(doc, level, features):
    doc["curve"]["axis"]["levels"][level]["features"] = features


def _gallery_level_features(doc, features):
    doc["gallery"]["axis"]["levels"][-1]["features"] = features


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["model"].update(family="oracle"), "model.family"),
        (lambda doc: _panel_target_variance(doc, -1.0), "panels.variants[1]: target_noise.variance"),
        # standard.yaml's world has 3 features, its gallery worlds 2.
        (
            lambda doc: _curve_level_features(doc, -1, [0, 1, 2, 7]),
            "curve.axis: axis level [0, 1, 2, 7]: feature index >= input_dim 3",
        ),
        (
            lambda doc: _gallery_level_features(doc, [0, 1, 2]),
            "gallery.axis: axis level [0, 1, 2]: feature index >= input_dim 2",
        ),
        # standard.yaml's world omits feature 2.
        (
            lambda doc: _curve_level_features(doc, 0, [2]),
            "curve.axis: axis level [2] leaves no observed features",
        ),
    ],
    ids=["oracle-family", "negative-panel-variance", "curve-feature-7", "gallery-feature-2",
         "curve-level-all-omitted"],
)
def test_degenerate_scenario_exits_two_before_any_output(tmp_path, capsys, edit, message):
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    edit(doc)
    config = _write(tmp_path, yaml.safe_dump(doc))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "s").exists()


def test_replicates_override_below_two_exits_two(tmp_path, capsys):
    config = _write(tmp_path, REFERENCE)
    argv = ["biasvar", "--config", str(config), "--out", str(tmp_path / "b"), "--replicates", "1"]
    assert main(argv) == 2
    assert "--replicates" in capsys.readouterr().err


def test_exit_code_three_on_non_finite_json(tmp_path, capsys):
    # At learning_rate 5.0 the OO fit diverges (its epoch loss would turn
    # NaN at epoch 27); the fit stops at the divergence bound, before any
    # decomposition or output.
    config = _standard_with(
        tmp_path,
        model={"family": "mlp", "learning_rate": 5.0},
        decompose={"train_n": 100, "n": 50},
    )
    with np.errstate(all="ignore"):
        code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "d")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "non-finite" in err
    assert "regime OO" in err and "after epoch" in err
    assert not (tmp_path / "d").exists()


def test_finite_mlp_divergence_exits_three(tmp_path, capsys):
    # This fit stays finite for all 20 epochs (OO ends near 5e194), so
    # only the divergence bound stops it: the first epoch's loss, 1.3e8,
    # is above 1e6 times mean(y^2), about 7.
    config = _standard_with(
        tmp_path,
        model={"family": "mlp", "widths": [8], "epochs": 20, "learning_rate": 5.0},
        decompose={"train_n": 100, "n": 50},
    )
    code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "d")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "regime OO" in err and "after epoch 1 of 20" in err and "divergence bound" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "section, fields, message",
    [
        ("model", {"famly": "knn"}, "model.famly: unknown field"),
        ("world", {"aleatorc": {"variance": 5.0}}, "world.aleatorc: unknown field"),
        ("decompose", {"nn": 20}, "decompose.nn: unknown field"),
        ("biasvar", {"replicate": 7}, "biasvar.replicate: unknown field"),
    ],
)
def test_misspelled_key_exits_two(tmp_path, capsys, section, fields, message):
    config = _standard_with(tmp_path, **{section: fields})
    code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "t")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "where, key, message",
    [
        ((), "modle", "modle"),
        (("world", "x"), "kidn", "world.x.kidn"),
        (("world", "f_star"), "input_dim", "world.f_star.input_dim"),
        (("world", "target_noise"), "varaince", "world.target_noise.varaince"),
        (("world", "feature_noise"), "coarse", "world.feature_noise.coarse"),
        (("world", "selection"), "rul", "world.selection.rul"),
        (("simulate",), "lable", "simulate.lable"),
        (("probe",), "nn", "probe.nn"),
        (("curve",), "replicate", "curve.replicate"),
        (("curve", "axis"), "level", "curve.axis.level"),
        (("curve", "axis", "levels", 2), "fidelty", "curve.axis.levels[2].fidelty"),
        (("panels",), "variant", "panels.variant"),
        (("panels", "variants", 0), "target", "panels.variants[0].target"),
        (
            ("panels", "variants", 1, "target_noise"),
            "varience",
            "panels.variants[1].target_noise.varience",
        ),
        (
            ("panels", "variants", 2, "feature_noise"),
            "omitt",
            "panels.variants[2].feature_noise.omitt",
        ),
        (("gallery",), "replicate", "gallery.replicate"),
        (("gallery", "axis", "levels", 0), "n", "gallery.axis.levels[0].n"),
        (("gallery", "low"), "modl", "gallery.low.modl"),
        (("gallery", "low", "world"), "aleatorc", "gallery.low.world.aleatorc"),
        (
            ("gallery", "high", "world", "aleatoric"),
            "varianc",
            "gallery.high.world.aleatoric.varianc",
        ),
        (("gallery", "high", "model"), "famly", "gallery.high.model.famly"),
    ],
)
def test_unknown_key_rejected_at_every_level(tmp_path, where, key, message):
    scenario = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    node = scenario
    for step in where:
        node = node[step]
    node[key] = 1
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}: unknown field$"):
        parse_config(_write(tmp_path, yaml.safe_dump(scenario)))


@pytest.mark.parametrize("version", [99, 0, "1", 1.5, True])
def test_foreign_schema_version_exits_two(tmp_path, capsys, version):
    scenario = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    scenario["schema_version"] = version
    config = _write(tmp_path, yaml.safe_dump(scenario))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "v")])
    assert code == 2
    assert "schema_version" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_current_or_absent_schema_version_is_accepted(tmp_path):
    scenario = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    assert "schema_version" not in scenario
    parse_config(_write(tmp_path, yaml.safe_dump(scenario), "absent.yaml"))
    scenario["schema_version"] = 1
    parse_config(_write(tmp_path, yaml.safe_dump(scenario), "current.yaml"))


def _with_interactions(items) -> dict:
    f_star = {"family": "linear", "coefficients": [1.5, -2.0, 0.7], "interactions": items}
    return {"world": {"f_star": f_star}}


def _with_level(**fields) -> dict:
    level = {"n_train": 50, "features": [0, 1], "fidelity": [1.0, 1.0], **fields}
    return {"curve": {"axis": {"levels": [level]}}}


@pytest.mark.parametrize(
    "sections, message",
    [
        ({"simulate": {"n": "abc"}}, "simulate.n: expected int, got 'abc'"),
        ({"model": {"family": "mlp", "widths": 8}}, "model.widths: expected list, got 8"),
        ({"model": {"family": "mlp", "widths": "16"}}, "model.widths: expected list, got '16'"),
        ({"model": {"family": "mlp", "widths": {"a": 1}}}, "model.widths: expected list"),
        ({"simulate": {"n": 2.5}}, "simulate.n: expected int, got 2.5"),
        ({"model": {"family": "mlp", "widths": ["a"]}}, "model.widths[0]: expected int, got 'a'"),
        ({"curve": {"comp_points": [1]}}, "curve.comp_points: expected int"),
        ({"world": {"x": {"kind": "gaussian", "dim": "three"}}}, "world.x.dim: expected int"),
        (
            {"world": {"feature_noise": {"cov": "abc"}}},
            "world.feature_noise.cov: expected float",
        ),
        (
            {"world": {"feature_noise": {"cov": [[0.4, "x"], [0.0, 0.4]]}}},
            "world.feature_noise.cov[0][1]: expected float, got 'x'",
        ),
        (
            _with_interactions([{"pair": [0]}]),
            "world.f_star.interactions[0]: expected {pair: [i, j], weight: w}",
        ),
        (_with_interactions([{"pair": [0, 1]}]), "world.f_star.interactions[0]"),
        (_with_interactions([{"pair": [0, 1], "weight": 1.0}, 7]), "world.f_star.interactions[1]"),
        # Values that int(), float(), bool() or tuple() would read without a word.
        ({"simulate": {"n": True}}, "simulate.n: expected int, got True"),
        (_with_level(n_train=50.7), "curve.axis.levels[0].n_train: expected int, got 50.7"),
        (_with_level(features="01"), "curve.axis.levels[0].features: expected list, got '01'"),
        (
            _with_level(fidelity=[True, True]),
            "curve.axis.levels[0].fidelity[0]: expected float, got True",
        ),
        (
            {"model": {"family": "mlp", "widths": [16.5]}},
            "model.widths[0]: expected int, got 16.5",
        ),
        (
            {"world": {"feature_noise": {"omit": ["no", False, False]}}},
            "world.feature_noise.omit[0]: expected bool, got 'no'",
        ),
        (
            {"world": {"f_star": {"coefficients": "123"}}},
            "world.f_star.coefficients: expected list, got '123'",
        ),
        (
            {"world": {"feature_noise": {"coarsen": "000"}}},
            "world.feature_noise.coarsen: expected list, got '000'",
        ),
        (
            _with_interactions([{"pair": [0, 1.5], "weight": 1}]),
            "world.f_star.interactions[0].pair[1]: expected int, got 1.5",
        ),
    ],
)
def test_wrong_typed_value_exits_two_naming_the_key(tmp_path, capsys, sections, message):
    config = _standard_with(tmp_path, **sections)
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "t")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err
    assert not (tmp_path / "t").exists()


class _CountingPool:
    def __init__(self, log):
        self.log = log

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]

    def terminate(self):
        self.log.append("closed")

    def join(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.terminate()
        return False


class _CountingMultiprocessing:
    """Stands in for ``multiprocessing`` in ``errorlab.parallel``: records
    each pool it is asked for and runs the pool's maps in this process."""

    def __init__(self):
        self.log = []

    def get_context(self, method=None):
        assert method == "spawn"
        return self

    def Pool(self, processes=None):
        self.log.append(("pool", processes))
        return _CountingPool(self.log)


@pytest.mark.parametrize("command", ["panels", "biasvar", "gallery"])
def test_one_pool_serves_a_whole_command(tmp_path, monkeypatch, command):
    # panels maps three curves, biasvar its replicates and then the
    # components, gallery its two sides: each run starts one pool.
    fake = _CountingMultiprocessing()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "mp", fake)
    config = _standard_with(
        tmp_path,
        biasvar={"replicates": 10, "components_replicates": 4},
        curve={"replicates": 2, "test_points": 200},
        gallery={"replicates": 2, "test_points": 200, "ceiling_n": 1000},
    )
    argv = [command, "--config", str(config), "--out", str(tmp_path / "p"), "--workers", "2"]
    assert main(argv) == 0
    assert fake.log == [("pool", 2), "closed"]
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["timings"]["processes"] == 2


def test_serial_command_starts_no_pool(tmp_path, monkeypatch):
    fake = _CountingMultiprocessing()
    monkeypatch.setattr(parallel, "mp", fake)
    config = _write(tmp_path, REFERENCE)
    for command in ("simulate", "curve"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["timings"]["processes"] == 1
    assert fake.log == []


def test_exit_code_four_on_invariant_breach(tmp_path, capsys, monkeypatch):
    def broken(scenario, workers):
        raise InvariantError("component sum failed to collapse")

    monkeypatch.setitem(cli._HANDLERS, "decompose", broken)
    config = _write(tmp_path, MINIMAL)
    code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "z")])
    assert code == 4
    assert "invariant" in capsys.readouterr().err


def test_unknown_command_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x", "--out", "y"])
    assert exc.value.code == 2
