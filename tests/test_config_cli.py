import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import errorlab as el
from errorlab import cli, decomp, parallel, seeding, worldgen
from errorlab.cli import main, run
from errorlab.config import normalize_scenario, parse_config, scenario_to_yaml
from errorlab.errors import ConfigError, InvalidSpecError, InvariantError
from errorlab.experiments import run_panel_scenarios
from errorlab.runio import render_json

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
        # A variance needs two test points.
        ("curve", "test_points", 1),
        ("gallery", "test_points", 1),
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


def test_simulate_exits_four_and_writes_nothing_when_y_true_breaks_its_identity(
    tmp_path, capsys, monkeypatch
):
    # A sample whose y_true is off by 1e-3 from f*(x_true) + epsilon.
    draw = worldgen.sample

    def shifted(world, n, label):
        bundle = draw(world, n, label)
        return dataclasses.replace(bundle, y_true=bundle.y_true + 1e-3)

    monkeypatch.setattr(worldgen, "sample", shifted)
    config = _write(tmp_path, REFERENCE)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(
        "internal invariant breach: sample sim: y_true != f_star(x_true) + epsilon"
    ), err
    assert not (tmp_path / "s").exists()


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


@pytest.mark.parametrize("command", ["gallery", "probe"])
def test_noise_ceiling_draws_no_rows_of_its_own(tmp_path, command):
    # The floor is read off rows each command already draws (each gallery
    # side's held-out pack, the probe's sample), so no substream is
    # labelled for the ceiling alone.
    config = _standard_with(
        tmp_path, gallery={"replicates": 2, "test_points": 300}, probe={"n": 2000}
    )
    manifest = run(command, config, tmp_path / "o")
    assert manifest.seed_labels
    assert not [label for label in manifest.seed_labels if "ceiling" in label]
    pack = "gallery/low_noise/test" if command == "gallery" else "probe"
    assert pack in manifest.seed_labels


def test_a_leftover_ceiling_n_is_ignored(tmp_path):
    # gallery.ceiling_n sized the ceiling's own draws before 0.2.0; a file
    # that still sets it parses, and every output equals the run without it.
    sizes = {"replicates": 2, "test_points": 300}
    runs = []
    for name, extra in (("without", {}), ("with", {"ceiling_n": 20_000})):
        (tmp_path / name).mkdir()
        config = _standard_with(tmp_path / name, gallery={**sizes, **extra})
        assert ("ceiling_n" in config.read_text(encoding="utf-8")) == bool(extra)
        manifest = run("gallery", config, tmp_path / name / "out")
        files = {f: (tmp_path / name / "out" / f).read_bytes() for f in manifest.files}
        runs.append((files, {**dataclasses.asdict(manifest), "timings": None}))
    assert runs[0] == runs[1]


def test_seed_override_changes_outputs_replicates_override_respected(tmp_path):
    m1, out1 = _run(tmp_path, "biasvar", out="s1", seed=111, replicates=40)
    m2, out2 = _run(tmp_path, "biasvar", out="s2", seed=222, replicates=40)
    p1 = json.loads((out1 / "biasvar.json").read_text())
    p2 = json.loads((out2 / "biasvar.json").read_text())
    assert p1["replicates"] == 40 and p2["replicates"] == 40
    assert p1["empirical_mse"] != p2["empirical_mse"]
    assert m1.config_hash != m2.config_hash


def test_seed_override_reaches_every_world_and_the_scenario_is_frozen(tmp_path):
    mapping = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    mapping["world"]["seed"] = 31
    mapping["gallery"]["high"]["world"]["seed"] = 32
    config = _write(tmp_path, yaml.safe_dump(mapping))

    def normalized(out: str, **overrides) -> dict:
        run("simulate", config, tmp_path / out, **overrides)
        return yaml.safe_load((tmp_path / out / "scenario.normalized.yaml").read_text())

    def seeds(echo: dict) -> list:
        gallery = echo["gallery"]
        worlds = (echo["world"], gallery["low"]["world"], gallery["high"]["world"])
        return [echo["seed"], *(world["seed"] for world in worlds)]

    # A world's own seed wins over the scenario's; --seed wins over both.
    assert seeds(normalized("own")) == [20240902, 31, 20240902, 32]
    echo = normalized("over", seed=700, replicates=3)
    assert seeds(echo) == [700] * 4
    assert [echo[name]["replicates"] for name in ("biasvar", "curve", "gallery")] == [3] * 3

    scenario = parse_config(config, seed=700, replicates=3)
    assert scenario.curve.replicates == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.curve.replicates = 5


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


_UNUSABLE_PATHS = {
    "config-directory": "scenario file cannot be read: .*: Is a directory",
    "config-not-utf8": "scenario file is not UTF-8: .*: invalid start byte at byte 9",
    "out-file": "--out: .*taken exists and is not a directory",
    "out-under-file": "--out: .*taken exists and is not a directory",
}


@pytest.mark.parametrize("case", _UNUSABLE_PATHS)
def test_unreadable_config_or_unwritable_out_exits_two_writing_nothing(tmp_path, capsys, case):
    config = _write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    if case == "config-directory":
        config = tmp_path / "scenarios"
        config.mkdir()
    elif case == "config-not-utf8":
        config.write_bytes(b"seed: 1\n#\xff\n")
    else:
        (tmp_path / "taken").write_text("kept", encoding="utf-8")
        out = tmp_path / "taken" if case == "out-file" else tmp_path / "taken" / "sub"
    before = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and re.search(_UNUSABLE_PATHS[case], err), err
    after = {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}
    assert after == before


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


def _reference_with(tmp_path, world=None, **sections):
    """reference.yaml with ``world`` merged into its world section and the
    other sections replaced."""
    doc = yaml.safe_load(STANDARD.with_name("reference.yaml").read_text(encoding="utf-8"))
    doc["world"].update(world or {})
    doc.update(sections)
    return _write(tmp_path, yaml.safe_dump(doc), "reference.yaml")


@pytest.mark.parametrize("seed", [None, "1", "3"])
def test_decompose_heldout_rows_ignore_the_selection_rule(tmp_path, seed):
    # At coverage 0.002 a 20-row sample keeps no row at these seeds; the
    # held-out rows are scored, not trained on, so they are never selected.
    config = _reference_with(
        tmp_path,
        world={"selection": {"rule": "probabilistic", "coverage": 0.002}},
        decompose={"train_n": 20000, "n": 20},
    )
    argv = ["decompose", "--config", str(config), "--out", str(tmp_path / "d")]
    assert main(argv + (["--seed", seed] if seed else [])) == 0
    assert (tmp_path / "d" / "decomposition.csv").exists()


def test_decompose_fit_failure_names_the_sample(tmp_path, capsys):
    config = _reference_with(tmp_path, world={"feature_noise": {"coarsen": [100.0, 100.0]}})
    code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "d")])
    assert code == 3
    assert "numerical failure: sample decompose/train: regime OO: " in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_panels_fit_failure_names_the_variant(tmp_path, capsys):
    # The variants share their substream labels (their draws are paired), so
    # only the variant's index and name tell which one failed.
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    variants = doc["panels"]["variants"]
    variants[2]["feature_noise"]["coarsen"] = [100.0, 100.0, 100.0]
    config = _standard_with(tmp_path, panels={"variants": variants})
    code = main(["panels", "--config", str(config), "--out", str(tmp_path / "p")])
    assert code == 3
    err = capsys.readouterr().err
    assert "panels.variants[2] (reconstructed_features): sample panels/L0/rep0000: regime OO" in err
    assert not (tmp_path / "p").exists()


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
        (
            lambda doc: doc["gallery"]["low"].update(model={"family": "oracle"}),
            "config error: gallery.low: model.family: unknown family 'oracle'",
        ),
        (
            lambda doc: doc["gallery"]["high"]["world"]["aleatoric"].update(variance=-1.0),
            "config error: gallery.high: aleatoric.variance: ",
        ),
        (
            lambda doc: doc["gallery"]["low"]["world"]["x"].pop("dim"),
            "config error: gallery.low.world.x.dim: required field is missing\n",
        ),
        (
            lambda doc: doc["world"]["x"].pop("dim"),
            "config error: world.x.dim: required field is missing\n",
        ),
        (
            lambda doc: doc["world"]["aleatoric"].update(variance=-1.0),
            "config error: world: aleatoric.variance: must be finite and nonnegative\n",
        ),
        (
            lambda doc: doc["world"]["x"].update(kind="correlated", cov=[[1.0, 0.0], [0.0, 1.0]]),
            "config error: world: x.cov: expected a 3 x 3 matrix, ",
        ),
    ],
    ids=["oracle-family", "negative-panel-variance", "curve-feature-7", "gallery-feature-2",
         "curve-level-all-omitted", "gallery-oracle-family", "negative-gallery-variance",
         "gallery-missing-dim", "world-missing-dim", "negative-world-variance", "world-cov-2x2"],
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


def _update_at(*keys, **fields):
    """An edit of standard.yaml that updates the mapping at ``keys``."""

    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc.update(fields)

    return edit


_U64 = "must fit in an unsigned 64-bit integer, got"


@pytest.mark.parametrize(
    "edit, flags, message",
    [
        (None, ["--seed", "-1"], f"--seed: {_U64} -1"),
        (None, ["--seed", str(2**64)], f"--seed: {_U64} {2**64}"),
        (_update_at(seed=-1), [], f"seed: {_U64} -1"),
        # The file's seeds are checked even where --seed replaces them.
        (_update_at(seed=-1), ["--seed", "5"], f"seed: {_U64} -1"),
        (_update_at("world", seed=2**64), [], f"world.seed: {_U64} {2**64}"),
        (_update_at("world", seed=-1), ["--seed", "5"], f"world.seed: {_U64} -1"),
        (
            _update_at("gallery", "high", "world", seed=-5),
            [],
            f"gallery.high.world.seed: {_U64} -5",
        ),
        (_update_at("world", "x", dim=0), [], "world.x.dim: must be >= 1, got 0"),
        (
            _update_at("gallery", "low", "world", "x", dim=0),
            [],
            "gallery.low.world.x.dim: must be >= 1, got 0",
        ),
    ],
    ids=["flag-negative", "flag-2**64", "file-negative", "file-negative-under-flag",
         "world-2**64", "world-negative-under-flag", "gallery-world-negative",
         "world-dim-0", "gallery-world-dim-0"],
)
def test_a_seed_or_dimension_out_of_range_exits_two_naming_its_key(
    tmp_path, capsys, edit, flags, message
):
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    if edit is not None:
        edit(doc)
    config = _write(tmp_path, yaml.safe_dump(doc))
    argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "s"), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command, workers", [("curve", "0"), ("simulate", "-3")])
def test_workers_below_one_exits_two_before_any_output(tmp_path, capsys, command, workers):
    config = _write(tmp_path, REFERENCE)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "w"), "--workers", workers]
    assert main(argv) == 2
    assert f"config error: --workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_panels_without_curve_or_panels_names_the_curve_first(tmp_path, capsys):
    config = _write(tmp_path, MINIMAL)
    assert main(["panels", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert "config error: curve: required section is missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "build, message",
    [
        # standard.yaml's curve axis names feature 2; its gallery worlds are 2-d.
        (
            lambda s: dataclasses.replace(s, world=s.gallery.low.world),
            "curve.axis: axis level [0, 1, 2]: feature index >= input_dim 2",
        ),
        (
            lambda s: dataclasses.replace(s, curve=None),
            "panels: requires a curve section",
        ),
        (
            lambda s: dataclasses.replace(s.biasvar, replicates=1),
            "biasvar.replicates: must be >= 2, got 1",
        ),
        (
            lambda s: dataclasses.replace(s.biasvar, regime="XX"),
            "biasvar.regime: unknown regime 'XX'",
        ),
        (
            lambda s: dataclasses.replace(s.curve, test_points=0),
            "curve.test_points: must be >= 2, got 0",
        ),
        (
            lambda s: dataclasses.replace(s.panels, variants=s.panels.variants[1:]),
            "panels.variants: needs a baseline variant",
        ),
        (
            lambda s: dataclasses.replace(s.curve, replicates=2.5),
            "curve.replicates: expected int, got 2.5",
        ),
        (
            lambda s: dataclasses.replace(s.biasvar, n_train=True),
            "biasvar.n_train: expected int, got True",
        ),
        (lambda s: dataclasses.replace(s.model, k=2.5), "model.k: expected int, got 2.5"),
        (
            lambda s: dataclasses.replace(s.model, epochs=2.5),
            "model.epochs: expected int, got 2.5",
        ),
        (
            lambda s: dataclasses.replace(s.model, batch_size=True),
            "model.batch_size: expected int, got True",
        ),
        (
            lambda s: dataclasses.replace(s.model, init_seed=-1),
            "model.init_seed: must fit in an unsigned 64-bit integer, got -1",
        ),
    ],
    ids=["world-without-feature-2", "panels-without-curve", "biasvar-replicates",
         "biasvar-regime", "curve-test-points", "panels-without-baseline",
         "curve-replicates-not-int", "biasvar-n-train-bool", "model-k-not-int",
         "model-epochs-not-int", "model-batch-size-bool", "model-init-seed-negative"],
)
def test_replace_checks_the_scenario_rules(build, message):
    scenario = parse_config(STANDARD)
    with pytest.raises(InvalidSpecError) as info:
        build(scenario)
    assert str(info.value).startswith(message)


def test_negative_model_init_seed_exits_two(tmp_path, capsys):
    # rng_for masks a seed to 64 bits, so -1 would train as 2**64 - 1.
    config = _standard_with(tmp_path, model={"family": "mlp", "init_seed": -1})
    assert main(["decompose", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == (
        "config error: model.init_seed: must fit in an unsigned 64-bit integer, got -1\n"
    )
    assert not (tmp_path / "d").exists()


def test_exit_code_three_on_non_finite_json(tmp_path, capsys):
    # At learning_rate 5.0 the OO fit diverges (its epoch loss would turn
    # NaN at epoch 27); the fit stops at the divergence bound, before any
    # decomposition or output.
    config = _standard_with(
        tmp_path,
        model={"family": "mlp", "learning_rate": 5.0},
        decompose={"train_n": 100, "n": 50},
    )
    code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "d")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "non-finite" in err
    assert "regime OO" in err and "after epoch" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_overflowing_f_star_exits_two_in_every_command(tmp_path, capsys, command):
    # Coefficients near the float maximum overflow f*(x) on gaussian inputs.
    # Every command evaluates f* before any fit, so each refuses it there,
    # naming f_star, instead of failing later with exit 3 or 4.  In the
    # gallery only the high side overflows, after the low side has run: the
    # message names that side.  panels names the first variant, the first
    # to evaluate f*.
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    side = doc["gallery"]["high"] if command == "gallery" else doc
    side["world"]["f_star"]["coefficients"] = [1e308] * side["world"]["x"]["dim"]
    config = _write(tmp_path, yaml.safe_dump(doc))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o"), "--replicates", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    where = {"gallery": "gallery.high: ", "panels": "panels.variants[0] (baseline): "}
    assert re.match(
        rf"config error: {re.escape(where.get(command, ''))}f_star: f\*\(x\) is (-?inf|nan) "
        r"at row \d+; ",
        err,
    ), err
    assert not (tmp_path / "o").exists()


# A world section whose draws overflow float64, and the value it names.
_OVERFLOWING_DRAWS = {
    "target_noise": ({"distribution": "quantization", "step": 1e-320}, "y_obs"),
    "feature_noise": ({"coarsen": [1e-320]}, "x_obs"),
    "aleatoric": ({"variance": 1e308, "het_link": "one_plus_mean_sq"}, "epsilon"),
}


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("section", list(_OVERFLOWING_DRAWS))
def test_overflowing_draw_exits_two_in_every_command(tmp_path, capsys, command, section):
    # A noise section whose draws overflow is refused where the draw is made,
    # naming the section, as an overflowing f* is: not a NaN bound for a JSON
    # output (exit 3), an infinity written to samples.csv (exit 0) or a failed
    # decomposition (exit 4).
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    world = (doc["gallery"]["high"] if command == "gallery" else doc)["world"]
    value, what = _OVERFLOWING_DRAWS[section]
    if section == "feature_noise":
        value = {"coarsen": value["coarsen"] + [0.0] * (world["x"]["dim"] - 1)}
    world[section] = value
    config = _write(tmp_path, yaml.safe_dump(doc))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o"), "--replicates", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    where = {"gallery": "gallery.high: ", "panels": "panels.variants[0] (baseline): "}
    assert re.match(
        rf"config error: {re.escape(where.get(command, ''))}{section}: {what} is (-?inf|nan) "
        r"at row \d+; ",
        err,
    ), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("side", ["world", "gallery"])
def test_uniform_box_whose_width_overflows_exits_two(tmp_path, capsys, side):
    # numpy's uniform draw would raise OverflowError (exit 1) on high - low.
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    world = doc["gallery"]["high"]["world"] if side == "gallery" else doc["world"]
    world["x"] = {"kind": "uniform", "dim": world["x"]["dim"], "low": -1e308, "high": 1e308}
    config = _write(tmp_path, yaml.safe_dump(doc))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    where = "gallery.high" if side == "gallery" else "world"
    assert capsys.readouterr().err == (
        f"config error: {where}: x.high: the uniform box's width high - low overflows float64\n"
    )
    assert not (tmp_path / "o").exists()


def test_overflowing_label_mean_refuses_the_ridge_fit(tmp_path, capsys):
    # y_obs stays finite at a target-noise mean of 1.7e308, but ridge's label
    # mean overflows: the fit is refused (exit 3), naming its sample and
    # regime, before a NaN coefficient reaches the decomposition (exit 4).
    # simulate's summary means overflow too: its JSON writer refuses them
    # (exit 3), and no numpy RuntimeWarning is printed (or, under this
    # suite's filter, raised) first.
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    doc["world"]["target_noise"] = {"mean": 1.7e308}
    doc["decompose"] = {"train_n": 100, "n": 50}
    config = _write(tmp_path, yaml.safe_dump(doc))
    assert main(["decompose", "--config", str(config), "--out", str(tmp_path / "d")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: sample decompose/train: regime OO: ridge fit gave a non-finite coef\n"
    )
    assert not (tmp_path / "d").exists()
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RuntimeWarning" not in err
    assert not (tmp_path / "s").exists()


def test_overflowing_knn_prediction_exits_three(tmp_path, capsys):
    # Every knn parameter is finite, but TO's mean of ten labels near
    # 1.7e308 overflows: a numerical failure naming the sample and regime
    # (exit 3), not a broken decomposition (exit 4), and no numpy warning.
    config = _reference_with(
        tmp_path, world={"target_noise": {"mean": 1.7e308}}, model={"family": "knn", "k": 10}
    )
    assert main(["decompose", "--config", str(config), "--out", str(tmp_path / "d")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: sample decompose/train: regime TO: knn prediction is inf at row 0; "
        "the mean of the 10 nearest labels overflows float64\n"
    )
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


def test_diverging_mlp_biasvar_exits_three_naming_its_replicate_and_regime(tmp_path, capsys):
    # biasvar's one regime trains through fit_regimes' stack, here a stack
    # of one; its divergence names the replicate's sample, the regime and
    # the epoch.
    config = _standard_with(
        tmp_path,
        model={"family": "mlp", "widths": [8], "epochs": 20, "learning_rate": 5.0},
        biasvar={"n_train": 100, "replicates": 3, "test_points": 20, "components_replicates": 0},
    )
    code = main(["biasvar", "--config", str(config), "--out", str(tmp_path / "b")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical failure: sample biasvar/rep00000: regime TT: mlp training loss "
    ), err
    assert "after epoch 2 of 20 is non-finite or above the divergence bound" in err
    assert not (tmp_path / "b").exists()


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
        # Non-finite numbers, which would run and fail late or not at all.
        (
            {"world": {"f_star": {"coefficients": [float("nan"), -2.0, 0.7]}}},
            "world.f_star.coefficients[0]: expected a finite float, got nan",
        ),
        (
            {"world": {"aleatoric": {"variance": float("inf")}}},
            "world.aleatoric.variance: expected a finite float, got inf",
        ),
        (
            {"world": {"x": {"kind": "uniform", "dim": 3, "high": float("inf")}}},
            "world.x.high: expected a finite float, got inf",
        ),
        (
            _with_interactions([{"pair": [0, 1], "weight": 1.0, "wieght": 5}]),
            "world.f_star.interactions[0].wieght: unknown field",
        ),
        ({"simulate": {"label": 5}}, "simulate.label: expected str, got 5"),
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


def test_a_number_spelled_as_a_string_is_read(tmp_path):
    scenario = parse_config(_standard_with(tmp_path, simulate={"n": "1000", "label": "5"}))
    assert (scenario.simulate.n, scenario.simulate.label) == (1000, "5")


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


def test_a_study_inside_a_command_pool_starts_it_once_and_matches_in_process(
    tmp_path, monkeypatch
):
    # A study takes its worker count from the enclosing pool: two panel
    # curves map twice on one pool, with the bytes and ledger of a run
    # made outside any pool.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    config = _standard_with(
        tmp_path,
        curve={"replicates": 3, "test_points": 200, "comp_points": 32},
        panels={"variants": [{"variant": "baseline"}, {"variant": "baseline"}]},
    )
    scenario = parse_config(config)

    def panels():
        with seeding.recording() as labels:
            result = run_panel_scenarios(
                scenario.world, scenario.panels, scenario.model, scenario.curve
            )
        return render_json(dataclasses.asdict(result)), labels

    in_process = panels()
    fake = _CountingMultiprocessing()
    monkeypatch.setattr(parallel, "mp", fake)
    with parallel.command_pool(2) as pool:
        pooled = panels()
        assert pool.processes == 2
    assert fake.log == [("pool", 2), "closed"]
    assert pooled == in_process
    assert in_process[1]


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
    def broken(scenario):
        raise InvariantError("component sum failed to collapse")

    monkeypatch.setitem(cli._HANDLERS, "decompose", broken)
    config = _write(tmp_path, MINIMAL)
    code = main(["decompose", "--config", str(config), "--out", str(tmp_path / "z")])
    assert code == 4
    assert "invariant" in capsys.readouterr().err


@dataclasses.dataclass
class _OffByOneMilli(decomp.DecompositionTable):
    """A decomposition whose measurement gain from the features is 1e-3 off,
    so its pointwise chain no longer collapses to y_true."""

    def __post_init__(self):
        self.meas_gain_x = self.meas_gain_x + 1e-3


# command -> where its first broken table is named.
_BROKEN_CHAIN_SAMPLE = {
    "decompose": "sample decompose/train",
    "biasvar": "sample components/rep00000",
    "curve": "sample curve/L0/rep0000",
    "panels": "panels.variants[0] (baseline): sample panels/L0/rep0000",
    "gallery": "gallery.low: sample gallery/low_noise/L0/rep0000",
}


@pytest.mark.parametrize("command", list(_BROKEN_CHAIN_SAMPLE))
def test_every_decomposing_command_exits_four_on_a_broken_chain(
    tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(decomp, "DecompositionTable", _OffByOneMilli)
    config = _standard_with(
        tmp_path,
        decompose={"train_n": 100, "n": 50},
        biasvar={"n_train": 50, "replicates": 2, "test_points": 16, "components_replicates": 2},
        curve={"replicates": 2, "test_points": 50, "comp_points": 16},
        gallery={"replicates": 2, "test_points": 50},
    )
    argv = [command, "--config", str(config), "--out", str(tmp_path / "m"), "--workers", "1"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    # The breach names the training sample whose table broke, behind the
    # variant or side that drew it.
    assert err.startswith(f"internal invariant breach: {_BROKEN_CHAIN_SAMPLE[command]}: ")
    assert "pointwise component sum misses y_true by 1.000e-03" in err
    assert not (tmp_path / "m").exists()


def test_a_failed_fit_in_a_gallery_side_names_the_side(tmp_path, capsys):
    doc = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    doc["gallery"]["low"]["model"] = {"family": "knn", "k": 100}  # its first level has 60 rows
    config = _write(tmp_path, yaml.safe_dump(doc))
    argv = ["gallery", "--config", str(config), "--out", str(tmp_path / "g"), "--replicates", "2"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "numerical failure: gallery.low: sample gallery/low_noise/L0/rep0000: regime OO: "
        "knn needs at least k=100 training rows, got 60\n"
    )
    assert not (tmp_path / "g").exists()


def test_unknown_command_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x", "--out", "y"])
    assert exc.value.code == 2
