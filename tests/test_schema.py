"""The dataclasses are the scenario schema: pinned normalized bytes, section
keys equal to field names, defaults taken from the dataclasses, and a
parse -> normalize -> parse round trip over random scenarios."""

import hashlib
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import errorlab as el
from errorlab import config
from errorlab.config import (
    BiasVarConfig,
    DecomposeConfig,
    ProbeConfig,
    SimulateConfig,
    normalize_scenario,
    parse_config,
    scenario_from_mapping,
    scenario_to_yaml,
)
from errorlab.errors import ConfigError
from errorlab.worldgen import world_to_config

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# (loader, dumper) per YAML backend: PyYAML's pure-Python classes, and
# libyaml's where PyYAML was built with it.
BACKENDS = {"python": (yaml.SafeLoader, yaml.SafeDumper)}
if yaml.__with_libyaml__:
    BACKENDS["libyaml"] = (yaml.CSafeLoader, yaml.CSafeDumper)


PINNED = [
    ("standard.yaml", "fc5db7f5c930864459884deb0f0df687c5c0d4bed70a07adbe44f07c7a79fb1c"),
    ("reference.yaml", "4f6648d2a2243a001f724b0ad5d03d8335490392655de4e5911529d89576406a"),
]


@pytest.fixture(params=sorted(BACKENDS))
def yaml_backend(request, monkeypatch):
    loader, dumper = BACKENDS[request.param]
    monkeypatch.setattr(config, "SafeLoader", loader)
    monkeypatch.setattr(config, "SafeDumper", dumper)
    return request.param


def test_config_uses_libyaml_when_available():
    expected = "libyaml" if yaml.__with_libyaml__ else "python"
    assert (config.SafeLoader, config.SafeDumper) == BACKENDS[expected]


@pytest.mark.parametrize("name, digest", PINNED)
def test_normalized_scenario_bytes_are_pinned(name, digest):
    text = scenario_to_yaml(parse_config(SCENARIOS / name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name, digest", PINNED)
def test_every_yaml_backend_gives_the_pinned_bytes(yaml_backend, name, digest):
    text = scenario_to_yaml(parse_config(SCENARIOS / name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_special_floats_normalize_identically_on_every_backend(tmp_path, yaml_backend):
    raw = yaml.safe_load((SCENARIOS / "standard.yaml").read_text(encoding="utf-8"))
    raw["world"]["f_star"]["coefficients"] = [1e-300, -0.0, 0.1 + 0.2]
    raw["world"]["feature_noise"]["coarsen"] = [5e-324, 0.0, 1.7976931348623157e308]
    raw["model"]["lam"] = 0.1 + 0.2
    path = tmp_path / "floats.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    scenario = parse_config(path)
    assert scenario.world.f_star.coefficients == (1e-300, -0.0, 0.1 + 0.2)
    assert math.copysign(1.0, scenario.world.f_star.coefficients[1]) == -1.0
    assert scenario.world.feature_noise.coarsen == (5e-324, 0.0, 1.7976931348623157e308)
    text = scenario_to_yaml(scenario)
    assert "-0.0" in text
    for loader, dumper in BACKENDS.values():
        assert yaml.dump(normalize_scenario(scenario), Dumper=dumper, sort_keys=True) == text
        assert scenario_from_mapping(yaml.load(text, Loader=loader)) == scenario


def _keys(spec) -> set:
    return {f.name for f in fields(spec) if getattr(spec, f.name) is not None}


def _assert_world_keys(section: dict, world: el.World) -> None:
    assert set(section) == {
        "x", "f_star", "aleatoric", "target_noise", "feature_noise", "selection", "seed"
    }
    assert set(section["x"]) == _keys(world.x_dist) | {"dim"}
    f_star = _keys(world.f_star) - {"input_dim"}
    if not world.f_star.interactions:
        f_star -= {"interactions"}
    assert set(section["f_star"]) == f_star
    for name in ("aleatoric", "target_noise", "feature_noise", "selection"):
        assert set(section[name]) == _keys(getattr(world, name))


def test_normalized_section_keys_are_the_dataclass_fields():
    scenario = parse_config(SCENARIOS / "standard.yaml")
    out = normalize_scenario(scenario)
    assert set(out) == _keys(scenario) | {"schema_version"}
    _assert_world_keys(out["world"], scenario.world)
    for name in ("model", "simulate", "decompose", "biasvar", "probe", "curve"):
        assert set(out[name]) == _keys(getattr(scenario, name))
    assert set(out["curve"]["axis"]) == _keys(scenario.curve.axis)
    for level, spec in zip(out["curve"]["axis"]["levels"], scenario.curve.axis.levels):
        assert set(level) == _keys(spec)
    for variant, panel in zip(out["panels"]["variants"], scenario.panels):
        assert set(variant) == _keys(panel)
        for name in ("target_noise", "feature_noise"):
            if name in variant:
                assert set(variant[name]) == _keys(getattr(panel, name))
    gallery = scenario.gallery
    sides = {"low_world", "low_model", "high_world", "high_model"}
    assert set(out["gallery"]) == (_keys(gallery) - sides) | {"low", "high"}
    for side in ("low", "high"):
        _assert_world_keys(out["gallery"][side]["world"], getattr(gallery, f"{side}_world"))
        assert set(out["gallery"][side]["model"]) == _keys(getattr(gallery, f"{side}_model"))


def test_optional_world_fields_appear_when_set():
    world = el.build_world(
        {
            "x": {"kind": "correlated", "dim": 2, "cov": [[1.0, 0.5], [0.5, 2.0]]},
            "f_star": {
                "coefficients": [1.0, 2.0],
                "interactions": [{"pair": [0, 1], "weight": 0.5}],
            },
            "aleatoric": {"variance": 1.0, "het_link": "one_plus_mean_sq"},
            "seed": 3,
        }
    )
    section = world_to_config(world)
    _assert_world_keys(section, world)
    assert "cov" in section["x"] and "het_link" in section["aleatoric"]
    assert el.build_world(section) == world


def test_empty_sections_take_the_dataclass_defaults(tmp_path):
    text = """
seed: 4242
world:
  x: {dim: 2}
  f_star: {coefficients: [2.0, -1.0]}
  aleatoric: {}
  target_noise: {}
  feature_noise: {}
  selection: {}
model: {}
simulate: {}
decompose: {}
biasvar: {}
probe: {}
"""
    path = tmp_path / "empty.yaml"
    path.write_text(text, encoding="utf-8")
    scenario = parse_config(path)
    world = scenario.world
    assert world.x_dist == el.XDistributionSpec()
    assert world.f_star.family == el.TrueFunctionSpec(coefficients=(1.0,), input_dim=1).family
    assert world.aleatoric == el.AleatoricSpec()
    assert world.target_noise == el.TargetNoiseSpec()
    assert world.feature_noise == el.FeatureNoiseSpec.none(2)
    assert world.selection == el.SelectionSpec()
    assert scenario.model == el.ModelSpec()
    assert scenario.simulate == SimulateConfig()
    assert scenario.decompose == DecomposeConfig()
    assert scenario.biasvar == BiasVarConfig()
    assert scenario.probe == ProbeConfig()


# ---------------------------------------------------------------------------
# round trip over random scenarios

_SPECIAL = [0.0, -0.0, 1e-300, 0.1 + 0.2, 1.0, 2.5e10]


def _real(lo: float, hi: float):
    special = st.sampled_from([v for v in _SPECIAL if lo <= v <= hi] or [lo])
    return st.one_of(special, st.floats(lo, hi, allow_nan=False))


def _some_keys(draw, section: dict) -> dict:
    """The section with a random subset of its keys, so defaults are
    exercised too."""
    keep = draw(st.sets(st.sampled_from(sorted(section)))) if section else set()
    return {k: v for k, v in section.items() if k in keep}


def _psd(draw, dim: int) -> list:
    lower = [
        [draw(_real(-2.0, 2.0)) if j <= i else 0.0 for j in range(dim)] for i in range(dim)
    ]
    return [
        [sum(lower[i][k] * lower[j][k] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]


@st.composite
def _world(draw, dim: int) -> dict:
    kind = draw(st.sampled_from(["gaussian", "uniform", "correlated"]))
    x = {"kind": kind, "dim": dim}
    if kind == "uniform":
        low = draw(_real(-1e3, 1e3))
        x.update(low=low, high=low + draw(_real(1e-3, 1e3)))
    if kind == "correlated":
        x["cov"] = _psd(draw, dim)

    family = draw(st.sampled_from(["linear", "polynomial", "step"]))
    if family == "linear":
        coefficients = [draw(_real(-1e3, 1e3)) for _ in range(dim)]
    elif family == "polynomial":
        degree = draw(st.integers(1, 3))
        coefficients = [draw(_real(-1e3, 1e3)) for _ in range(1 + degree * dim)]
    else:
        thresholds = sorted(set(draw(st.lists(_real(-10.0, 10.0), min_size=1, max_size=3))))
        coefficients = thresholds + [draw(_real(-1e3, 1e3)) for _ in range(len(thresholds) + 1)]
    f_star = {"family": family, "coefficients": coefficients}
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), _real(-5.0, 5.0))
    interactions = draw(st.lists(pairs, max_size=2))
    if interactions:
        f_star["interactions"] = [{"pair": [i, j], "weight": w} for i, j, w in interactions]

    aleatoric = _some_keys(
        draw,
        {
            "distribution": draw(st.sampled_from(["gaussian", "student_t", "mixture"])),
            "mean": draw(_real(-1e3, 1e3)),
            "variance": draw(_real(0.0, 1e3)),
            "df": draw(_real(2.5, 1e3)),
            "mixture_separation": draw(_real(0.0, 0.99)),
        },
    )
    if draw(st.booleans()):
        aleatoric["het_link"] = "one_plus_mean_sq"

    distribution = draw(st.sampled_from(["gaussian", "uniform", "quantization"]))
    target_noise = _some_keys(
        draw, {"mean": draw(_real(-1e3, 1e3)), "variance": draw(_real(0.0, 1e3))}
    )
    target_noise["distribution"] = distribution
    if distribution == "quantization" or draw(st.booleans()):
        target_noise["step"] = draw(st.sampled_from([1e-300, 0.25, 1.0, 0.1 + 0.2]))

    cov_form = draw(st.sampled_from(["none", "scalar", "vector", "matrix"]))
    feature_noise = _some_keys(
        draw,
        {
            "means": [draw(_real(-10.0, 10.0)) for _ in range(dim)],
            "omit": draw(st.lists(st.booleans(), min_size=dim, max_size=dim)),
            "coarsen": [draw(st.sampled_from([0.0, 1e-300, 0.5, 0.1 + 0.2])) for _ in range(dim)],
        },
    )
    if "omit" in feature_noise:
        # Every drawn axis level shows feature 0 (see ``_axis``), and a level
        # that leaves no feature observed is rejected at parse time.
        feature_noise["omit"][0] = False
    if cov_form == "scalar":
        feature_noise["cov"] = draw(_real(0.0, 10.0))
    elif cov_form == "vector":
        feature_noise["cov"] = [draw(_real(0.0, 10.0)) for _ in range(dim)]
    elif cov_form == "matrix":
        feature_noise["cov"] = _psd(draw, dim)

    selection = _some_keys(
        draw,
        {
            "rule": draw(st.sampled_from(["none", "threshold", "probabilistic"])),
            "score": draw(st.sampled_from(["epsilon", "y_true", "first_feature"])),
            "coverage": draw(_real(1e-300, 1.0)),
        },
    )
    return {
        "x": x,
        "f_star": f_star,
        "aleatoric": aleatoric,
        "target_noise": target_noise,
        "feature_noise": feature_noise,
        "selection": selection,
    }


@st.composite
def _model(draw) -> dict:
    return _some_keys(
        draw,
        {
            "family": draw(st.sampled_from(["ridge", "knn", "mlp"])),
            "lam": draw(_real(0.0, 1e3)),
            "k": draw(st.integers(1, 50)),
            "widths": draw(st.lists(st.integers(1, 64), max_size=3)),
            "activation": draw(st.sampled_from(["tanh", "relu", "identity"])),
            "learning_rate": draw(_real(1e-6, 1.0)),
            "epochs": draw(st.integers(1, 500)),
            "batch_size": draw(st.integers(1, 256)),
            "init_seed": draw(st.integers(0, 2**32)),
        },
    )


@st.composite
def _axis(draw, dim: int) -> dict:
    levels = []
    n_train, features, fidelity = 1, {0}, (1.0, 1.0)
    for _ in range(draw(st.integers(1, 4))):
        n_train += draw(st.integers(0, 500))
        features |= draw(st.sets(st.integers(0, dim - 1)))
        fidelity = tuple(f * draw(st.sampled_from([1.0, 0.5, 0.0])) for f in fidelity)
        levels.append(
            {"n_train": n_train, "features": sorted(features), "fidelity": list(fidelity)}
        )
    return {"levels": levels}


def _sizes(draw, names, minimum: int = 1) -> dict:
    return {name: draw(st.integers(minimum, 10**6)) for name in names}


@st.composite
def _scenarios(draw) -> dict:
    dim = draw(st.integers(1, 4))
    world = _world(dim)
    scenario = {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "world": draw(world),
        "model": draw(_model()),
        "simulate": _some_keys(
            draw, {"n": draw(st.integers(1, 10**6)), "label": draw(st.text("ab/_-01 ", max_size=8))}
        ),
        "decompose": _some_keys(draw, _sizes(draw, ["train_n", "n"])),
        "biasvar": _some_keys(
            draw,
            {
                "regime": draw(st.sampled_from(["OO", "TO", "TT", "ORACLE"])),
                **_sizes(draw, ["n_train", "test_points"]),
                **_sizes(draw, ["replicates"], minimum=2),
                "components_replicates": draw(st.sampled_from([0, 2, 50])),
            },
        ),
        "probe": _some_keys(draw, _sizes(draw, ["n"], 4)),
    }
    if draw(st.booleans()):
        scenario["curve"] = {
            "axis": draw(_axis(dim)),
            **_some_keys(draw, _sizes(draw, ["replicates", "test_points", "comp_points"], 2)),
        }
        if draw(st.booleans()):
            variants = [{"variant": "baseline"}]
            if draw(st.booleans()):
                target = draw(world)["target_noise"]
                variants.append({"variant": "reconstructed_target", "target_noise": target})
            if draw(st.booleans()):
                feature = draw(world)["feature_noise"]
                variants.append({"variant": "reconstructed_features", "feature_noise": feature})
            scenario["panels"] = {"variants": variants}
    if draw(st.booleans()):
        side_dim = draw(st.integers(1, 4))
        scenario["gallery"] = {
            "low": {"world": draw(_world(side_dim)), "model": draw(_model())},
            "high": {"world": draw(_world(side_dim))},
            "axis": draw(_axis(side_dim)),
            **_some_keys(draw, _sizes(draw, ["replicates", "test_points", "ceiling_n"], 2)),
        }
    return scenario


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(_scenarios())
def test_normalized_scenario_round_trips(raw):
    scenario = scenario_from_mapping(yaml.safe_load(yaml.safe_dump(raw)))
    text = scenario_to_yaml(scenario)
    reparsed = scenario_from_mapping(yaml.safe_load(text))
    assert reparsed == scenario
    assert scenario_to_yaml(reparsed) == text
    # Both YAML backends read and write the same scenario the same way.
    for loader, dumper in BACKENDS.values():
        assert scenario_from_mapping(yaml.load(yaml.dump(raw, Dumper=dumper), Loader=loader)) == (
            scenario
        )
        assert yaml.dump(normalize_scenario(scenario), Dumper=dumper, sort_keys=True) == text
        assert scenario_from_mapping(yaml.load(text, Loader=loader)) == scenario


def _list_items(node, path: str = ""):
    """(path, list, index) of every scalar list item in a raw scenario."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _list_items(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            if isinstance(value, (dict, list)):
                yield from _list_items(value, f"{path}[{i}]")
            else:
                yield f"{path}[{i}]", node, i


def _wrong_kind(value):
    """Values of another kind than ``value``: a number for a bool, and a
    string, a bool or (for an int) a fractional float for a number."""
    if isinstance(value, bool):
        return st.sampled_from([0, 1, 1.5, "no"])
    if isinstance(value, int):
        return st.sampled_from([0.5, "x", True])
    return st.sampled_from(["x", True, False])


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_list_item_of_the_wrong_kind_is_rejected_naming_its_path(data):
    raw = data.draw(_scenarios())
    # One field first, then one of its items, so that long lists (a
    # covariance, the coefficients) do not crowd out short ones.
    by_field = {}
    for path, items, i in _list_items(raw):
        by_field.setdefault(re.sub(r"\[\d+\]", "[]", path), []).append((path, items, i))
    field = data.draw(st.sampled_from(sorted(by_field)))
    path, items, i = data.draw(st.sampled_from(by_field[field]))
    items[i] = data.draw(_wrong_kind(items[i]))
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_mapping(raw)
    assert str(excinfo.value).startswith(f"{path}: expected ")
