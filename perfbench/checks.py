"""Independent checks of errorlab's written outputs.

Each check reads files one command wrote and either recomputes a value from
them or tests a property the method must have, using the scenario mapping
as the only other input.  Statistical checks take their band from the sizes
and standard errors in the outputs, at six standard errors, so they hold on
every seed and flag a real fault.  A check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

Z = 6.0  # standard errors allowed by every statistical band


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# readers


def _reject_constant(token: str):
    raise CheckFailed(f"JSON holds the non-finite token {token}")


def read_json(path: Path):
    """Parse strictly: bare NaN/Infinity tokens are rejected."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _split_csv(path: Path) -> tuple[list[str], list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# schema_version="),
             f"{path.name}: missing schema line")
    return lines[1].split(","), lines[2:]


def read_numeric_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of an all-numeric CSV (booleans as 1/0)."""
    header, rows = _split_csv(path)
    body = "\n".join(rows).replace("true", "1").replace("false", "0")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), f"{path.name}: row width differs from header")
    return header, data


def read_table_csv(path: Path) -> list[dict[str, str]]:
    header, rows = _split_csv(path)
    return [dict(zip(header, row.split(","))) for row in rows]


def _column(header: list[str], data: np.ndarray, name: str) -> np.ndarray:
    _require(name in header, f"column {name} is missing")
    return data[:, header.index(name)]


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(b)))


# ---------------------------------------------------------------------------
# facts about a scenario, read from its mapping


class World:
    """The parts of a scenario ``world`` section the checks rely on."""

    def __init__(self, cfg: dict):
        x = cfg.get("x") or {}
        f_star = cfg.get("f_star") or {}
        _require(x.get("kind", "gaussian") == "gaussian" and x.get("cov") is None,
                 "checks assume independent standard-normal inputs")
        _require(f_star.get("family", "linear") == "linear" and not f_star.get("interactions"),
                 "checks assume a linear true function")
        self.dim = int(x["dim"])
        self.beta = np.asarray(f_star["coefficients"], dtype=float)
        aleatoric = cfg.get("aleatoric") or {}
        _require(aleatoric.get("distribution", "gaussian") == "gaussian"
                 and aleatoric.get("het_link") is None, "checks assume gaussian noise")
        self.sigma2 = float(aleatoric.get("variance", 0.0))
        self.target_var = float((cfg.get("target_noise") or {}).get("variance", 0.0))
        noise = cfg.get("feature_noise") or {}
        self.omit = [bool(v) for v in noise.get("omit", [False] * self.dim)]
        cov = np.asarray(noise.get("cov", 0.0), dtype=float)
        self.feature_var = (
            np.full(self.dim, float(cov)) if cov.ndim == 0
            else (cov if cov.ndim == 1 else np.diag(cov))
        )
        _require(not any((noise.get("coarsen") or [0.0])), "checks assume no coarsening")
        selection = cfg.get("selection") or {}
        self.coverage = (
            1.0 if selection.get("rule", "none") == "none" else float(selection["coverage"])
        )

    @property
    def var_y(self) -> float:
        return float(self.beta @ self.beta) + self.sigma2

    def ceiling_r2(self) -> float:
        return 1.0 - self.sigma2 / self.var_y


def _ols_excess(n: float, p: int) -> float:
    """Expected out-of-sample MSE factor over the noise floor for least
    squares with an intercept on n gaussian rows and p features."""
    return 1.0 + 1.0 / n + (1.0 + 1.0 / n) * p / (n - p - 2.0)


# ---------------------------------------------------------------------------
# every command


def json_strict(out: Path) -> None:
    files = sorted(Path(out).glob("*.json"))
    _require(bool(files), f"{out}: no JSON output")

    def finite(value) -> bool:
        if isinstance(value, float):
            return math.isfinite(value)
        if isinstance(value, dict):
            return all(finite(v) for v in value.values())
        if isinstance(value, list):
            return all(finite(v) for v in value)
        return True

    for path in files:
        _require(finite(read_json(path)), f"{path.name}: holds a non-finite number")


def manifest_checksums(out: Path, command: str) -> None:
    manifest = read_json(Path(out) / "manifest.json")
    _require(manifest["command"] == command, "manifest names another command")
    _require(bool(manifest["files"]), "manifest lists no files")
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
        _require(actual == digest, f"{name}: checksum differs from the manifest")


# ---------------------------------------------------------------------------
# simulate


def _samples(out: Path, scen: dict):
    header, data = read_numeric_csv(Path(out) / "samples.csv")
    _require(data.shape[0] == int(scen["simulate"]["n"]), "samples.csv row count differs from n")
    return header, data


def simulate_generative(out: Path, scen: dict) -> None:
    """y_true - epsilon equals the true function of x_true."""
    world = World(scen["world"])
    header, data = _samples(out, scen)
    x_true = np.stack([_column(header, data, f"x_true_{j}") for j in range(world.dim)], axis=1)
    y_true = _column(header, data, "y_true")
    eps = _column(header, data, "epsilon")
    f = x_true @ world.beta
    _require(_close(y_true - eps, f, rtol=1e-12, atol=1e-12 * (1.0 + float(np.max(np.abs(eps))))),
             "y_true - epsilon differs from x_true @ coefficients")


def simulate_observed_width(out: Path, scen: dict) -> None:
    """The observed view drops the omitted features and carries the feature noise."""
    world = World(scen["world"])
    header, data = _samples(out, scen)
    kept = [j for j in range(world.dim) if not world.omit[j]]
    observed = [h for h in header if h.startswith("x_obs_")]
    _require(len(observed) == len(kept), f"{len(observed)} observed columns, expected {len(kept)}")
    _require(read_json(Path(out) / "summary.json")["observed_dim"] == len(kept),
             "summary observed_dim differs from the kept features")
    n = data.shape[0]
    for col, j in enumerate(kept):
        delta = _column(header, data, f"x_obs_{col}") - _column(header, data, f"x_true_{j}")
        var = float(np.var(delta, ddof=1))
        expected = float(world.feature_var[j])
        _require(abs(var - expected) <= Z * expected * math.sqrt(2.0 / (n - 1)) + 1e-12,
                 f"x_obs_{col} - x_true_{j} has variance {var}, expected {expected}")


def simulate_epsilon_variance(out: Path, scen: dict) -> None:
    world = World(scen["world"])
    header, data = _samples(out, scen)
    eps = _column(header, data, "epsilon")
    n = eps.shape[0]
    var = float(np.var(eps, ddof=1))
    band = Z * world.sigma2 * math.sqrt(2.0 / (n - 1))
    _require(abs(var - world.sigma2) <= band,
             f"epsilon variance {var} is outside {world.sigma2} +- {band}")
    summary = read_json(Path(out) / "summary.json")
    _require(_close(summary["epsilon_var"], var, rtol=1e-9), "summary epsilon_var differs")


def simulate_selected_share(out: Path, scen: dict) -> None:
    world = World(scen["world"])
    header, data = _samples(out, scen)
    share = float(np.mean(_column(header, data, "selected")))
    n = data.shape[0]
    band = Z * math.sqrt(world.coverage * (1.0 - world.coverage) / n)
    _require(abs(share - world.coverage) <= band,
             f"selected share {share} is outside {world.coverage} +- {band}")
    _require(_close(read_json(Path(out) / "summary.json")["coverage"], share, rtol=1e-12),
             "summary coverage differs from the selected share")


# ---------------------------------------------------------------------------
# decompose


def _decomposition(out: Path, scen: dict):
    header, data = read_numeric_csv(Path(out) / "decomposition.csv")
    _require(data.shape[0] == int(scen["decompose"]["n"]), "decomposition.csv row count differs")
    return {name: _column(header, data, name) for name in header}


def decompose_pointwise_sum(out: Path, scen: dict) -> None:
    c = _decomposition(out, scen)
    total = (c["model_approx_gain"] + c["meas_gain_y"] + c["meas_gain_x"]
             + c["current_prediction"] + c["aleatoric"])
    _require(_close(total, c["y_true"], rtol=1e-9, atol=1e-9),
             "pointwise components do not sum to y_true")


def decompose_error_sum(out: Path, scen: dict) -> None:
    c = _decomposition(out, scen)
    target = c["y_pred"] - c["y_true"]
    total = c["err_x"] + c["err_y"] + c["delta_f"] + c["aleatoric_term"]
    _require(_close(total, target, rtol=1e-9, atol=1e-9),
             "error components do not sum to y_pred - y_true")
    summary = read_json(Path(out) / "summary.json")
    _require(_close(summary["mse"], float(np.mean(target**2)), rtol=1e-9),
             "summary mse differs from the rows")


# ---------------------------------------------------------------------------
# biasvar


def biasvar_aleatoric(out: Path, scen: dict) -> None:
    report = read_json(Path(out) / "biasvar.json")
    expected = World(scen["world"]).sigma2
    _require(report["aleatoric_variance"] == expected,
             f"aleatoric_variance {report['aleatoric_variance']} differs from the spec {expected}")


def biasvar_replicates(out: Path, scen: dict) -> None:
    report = read_json(Path(out) / "biasvar.json")
    header, data = read_numeric_csv(Path(out) / "replicates.csv")
    _require(data.shape[0] == int(scen["biasvar"]["replicates"]) == report["replicates"],
             "replicates.csv row count differs from the replicate count")
    mean = float(np.mean(_column(header, data, "mse")))
    _require(_close(mean, report["empirical_mse"], rtol=1e-12),
             f"mean replicate mse {mean} differs from empirical_mse {report['empirical_mse']}")


def biasvar_identity(out: Path, scen: dict) -> None:
    """mse = bias^2 + variance + aleatoric + gap, and the gap is statistically zero."""
    r = read_json(Path(out) / "biasvar.json")
    parts = r["bias"] ** 2 + r["variance"] + r["aleatoric_variance"] + r["identity_gap"]
    _require(_close(parts, r["empirical_mse"], rtol=1e-12), "the identity terms do not add up")
    _require(abs(r["identity_gap"]) <= Z * r["se_identity_gap"],
             f"identity gap {r['identity_gap']} exceeds {Z} standard errors")


def biasvar_tt_theory(out: Path, scen: dict) -> None:
    """TT least squares: mse near sigma^2 (1 + 1/n + (1 + 1/n) p / (n - p - 2))."""
    world = World(scen["world"])
    r = read_json(Path(out) / "biasvar.json")
    _require(r["regime"] == "TT", "the theory check needs the TT regime")
    n = world.coverage * float(scen["biasvar"]["n_train"])
    expected = world.sigma2 * _ols_excess(n, world.dim)
    _require(abs(r["empirical_mse"] - expected) <= Z * r["se_mse"],
             f"TT mse {r['empirical_mse']} is more than {Z} se from {expected}")


def biasvar_components(out: Path, scen: dict) -> None:
    doc = read_json(Path(out) / "components.json")
    reps = int(scen["biasvar"]["components_replicates"])
    _require(doc["component_names"] == ["err_x", "err_y", "delta_f", "aleatoric_term"],
             "unexpected component names")
    _require(doc["replicates"] == reps, "component replicate count differs")
    cov = np.asarray(doc["covariance"], dtype=float)
    _require(cov.shape == (4, 4) and np.array_equal(cov, cov.T) and np.all(np.diag(cov) >= 0),
             "component covariance is not a symmetric 4x4 matrix with a nonnegative diagonal")
    se = math.sqrt(cov[3, 3] / reps)
    _require(abs(doc["means"][3]) <= Z * se,
             f"mean aleatoric term {doc['means'][3]} is not centred on zero")


# ---------------------------------------------------------------------------
# curve and panels


def _curve_axis(scen: dict) -> list[dict]:
    return scen["curve"]["axis"]["levels"]


def curve_values(out: Path, scen: dict) -> None:
    """Finite values, performance = 1 - mean_mse / var_y_test, CSV = JSON."""
    doc = read_json(Path(out) / "curve.json")
    points = doc["points"]
    levels = _curve_axis(scen)
    _require(len(points) == len(levels), "curve has the wrong number of levels")
    var_y = doc["var_y_test"]
    _require(math.isfinite(var_y) and var_y > 0, "var_y_test is not a positive number")
    rows = read_table_csv(Path(out) / "curve.csv")
    _require(len(rows) == len(points), "curve.csv and curve.json differ in length")
    for point, level, row in zip(points, levels, rows):
        _require(all(math.isfinite(v) for v in point.values()), "a curve value is not finite")
        _require(point["n_train"] == level["n_train"], "n_train differs from the axis")
        _require(point["performance"] == 1.0 - point["mean_mse"] / var_y,
                 f"level {point['level_index']}: performance != 1 - mean_mse / var_y_test")
        for key in ("mean_mse", "ci_half_width", "performance"):
            _require(float(row[key]) == point[key], f"curve.csv {key} differs from curve.json")


def monotone(points: list[dict]) -> bool:
    return all(
        cur["mean_mse"] <= prev["mean_mse"] + prev["ci_half_width"] + cur["ci_half_width"]
        for prev, cur in zip(points, points[1:])
    )


def curve_monotone(out: Path, scen: dict) -> None:
    doc = read_json(Path(out) / "curve.json")
    _require(len(doc["points"]) >= 2, "a one-level curve cannot show monotonicity")
    _require(monotone(doc["points"]), "curve rises by more than its confidence intervals")
    _require(doc["monotone_under_ci"] is True, "curve.json does not report monotone_under_ci")


def curve_terminal(out: Path, scen: dict) -> None:
    """Least squares at zero corruption: sigma^2 plus the omitted features'
    signal, within the sampling error of the shared held-out pack."""
    world = World(scen["world"])
    doc = read_json(Path(out) / "curve.json")
    level = _curve_axis(scen)[-1]
    _require(tuple(level["fidelity"]) == (0.0, 0.0), "terminal level is not at fidelity 0")
    kept = [j for j in level["features"] if not world.omit[j]]
    omitted = [j for j in range(world.dim) if j not in kept]
    floor = world.sigma2 + float(np.sum(world.beta[omitted] ** 2))
    expected = floor * _ols_excess(world.coverage * level["n_train"], len(kept))
    band = Z * expected * math.sqrt(2.0 / scen["curve"]["test_points"])
    terminal = doc["points"][-1]["mean_mse"]
    _require(abs(terminal - expected) <= band,
             f"terminal mse {terminal} is outside {expected} +- {band}")


def panels_features_below(out: Path, scen: dict) -> None:
    comparisons = {c["variant"]: c for c in read_json(Path(out) / "panels.json")["comparisons"]}
    base = comparisons["baseline"]
    feat = comparisons["reconstructed_features"]
    _require(feat["strictly_below_baseline"] is True, "features panel not reported below baseline")
    _require(feat["mean_diff_vs_baseline"] > 1.96 * feat["se_diff"] > 0,
             "features panel is not significantly below baseline")
    _require(feat["terminal_mean_mse"] < base["terminal_mean_mse"],
             "features panel terminal mse is not below baseline")


def panels_target_at_fidelity0(out: Path, scen: dict) -> None:
    """Without target noise, a reconstructed target changes nothing."""
    rows = read_table_csv(Path(out) / "panels.csv")
    numeric = [k for k in rows[0] if k not in ("scenario", "variant")]
    by_variant: dict[str, list[dict]] = {}
    for row in rows:
        by_variant.setdefault(row["variant"], []).append(row)
    base, target = by_variant["baseline"], by_variant["reconstructed_target"]
    _require(len(base) == len(target), "panel curves differ in length")
    compared = 0
    for b, t in zip(base, target):
        if float(b["fidelity_y"]) == 0.0:
            compared += 1
            _require(all(float(b[k]) == float(t[k]) for k in numeric),
                     f"level {b['level_index']}: reconstructed_target differs from baseline")
    _require(compared > 0, "no level has target fidelity 0")


# ---------------------------------------------------------------------------
# gallery and probe


def gallery_ceiling(out: Path, scen: dict) -> None:
    doc = read_json(Path(out) / "gallery.json")
    for side, name in (("low", "low_noise"), ("high", "high_noise")):
        expected = World(scen["gallery"][side]["world"]).ceiling_r2()
        got, se = doc[name]["ceiling_r2"], doc[name]["se_ceiling_r2"]
        _require(se > 0 and abs(got - expected) <= Z * se,
                 f"{name} ceiling_r2 {got} is more than {Z} se ({se}) from {expected}")


def gallery_curves(out: Path, scen: dict) -> None:
    rows = read_table_csv(Path(out) / "gallery.csv")
    levels = scen["gallery"]["axis"]["levels"]
    _require(len(rows) == 2 * len(levels), "gallery.csv has the wrong number of rows")
    for row in rows:
        values = [float(row[k]) for k in row if k not in ("scenario", "variant")]
        _require(all(math.isfinite(v) for v in values), "a gallery value is not finite")


def probe_ceiling(out: Path, scen: dict) -> None:
    """Delta-method standard error of 1 - s_eps^2 / s_y^2 for gaussian
    noise and signal: sqrt(4 sigma^4 / V^2 (1 - sigma^2 / V) / n)."""
    world = World(scen["world"])
    doc = read_json(Path(out) / "probe.json")
    n = max(int(scen["probe"]["n"]), 2)
    v, s2 = world.var_y, world.sigma2
    se = math.sqrt(4.0 * s2**2 / v**2 * (1.0 - s2 / v) / n)
    expected = world.ceiling_r2()
    _require(abs(doc["ceiling_r2"] - expected) <= Z * se,
             f"probe ceiling_r2 {doc['ceiling_r2']} is more than {Z} se ({se}) from {expected}")


def probe_selection(out: Path, scen: dict) -> None:
    world = World(scen["world"])
    doc = read_json(Path(out) / "probe.json")
    n = int(scen["probe"]["n"])
    _require(doc["n"] == n, "probe n differs from the scenario")
    _require(doc["coverage"] == doc["n_selected"] / n, "coverage != n_selected / n")
    band = Z * math.sqrt(world.coverage * (1.0 - world.coverage) / n)
    _require(abs(doc["coverage"] - world.coverage) <= band, "probe coverage is off the spec")


# ---------------------------------------------------------------------------
# model kernels (decompose writes the fitted models)


def _models(out: Path) -> dict:
    from errorlab import model_from_json

    return {regime: model_from_json(text)
            for regime, text in read_json(Path(out) / "models.json").items()
            if regime != "schema_version"}


def knn_reference_predict(train_std, labels, mean, sd, k: int, queries) -> np.ndarray:
    """Brute-force k nearest neighbours over standardized features.  Ties in
    distance go to the lower index in the stored (canonical) training order;
    the neighbours' labels are averaged in index order."""
    queries = (np.asarray(queries, dtype=float) - mean) / sd
    out = np.empty(queries.shape[0])
    index = np.arange(train_std.shape[0])
    for i, q in enumerate(queries):
        dist = np.zeros(train_std.shape[0])
        for j in range(train_std.shape[1]):
            dist = dist + (q[j] - train_std[:, j]) ** 2
        nearest = np.lexsort((index, dist))[:k]
        out[i] = labels[np.sort(nearest)].mean()
    return out


def knn_brute_force(out: Path, scen: dict, seed: int) -> None:
    """The OO knn model uses the scenario's k, stores its training rows in
    canonical order, and predicts as a brute-force neighbour search."""
    from errorlab import predict

    model = _models(out)["OO"]
    p = model.params
    k = int(scen["model"]["k"])
    _require(model.spec.family == "knn" and model.spec.k == p["k"] == k,
             f"knn model does not use the scenario's k = {k}")
    train, labels = p["train_x_std"], p["train_y"]
    keys = (labels,) + tuple(train[:, j] for j in range(train.shape[1] - 1, -1, -1))
    _require(np.array_equal(np.lexsort(keys), np.arange(train.shape[0])),
             "knn training rows are not in canonical order")
    rng = np.random.default_rng([seed, 1])
    raw = train * p["sd"] + p["mean"]
    queries = np.concatenate([
        rng.standard_normal((48, model.input_dim)) * 1.5,
        raw[rng.choice(raw.shape[0], 16, replace=False)],
    ])
    expected = knn_reference_predict(train, labels, p["mean"], p["sd"], k, queries)
    got = predict(model, queries)
    _require(_close(got, expected, rtol=1e-12, atol=1e-12),
             f"knn predictions differ from brute force by {float(np.max(np.abs(got - expected)))}")


def mlp_gradients(out: Path, scen: dict) -> None:
    """The OO mlp has the scenario's layer widths, and its analytic gradient
    passes the finite-difference check at the documented 1e-5.  The probe
    batch is fixed, not drawn from the workload seed: the check runs at the
    spec's initial weights, and on some batches rounding alone comes within
    a factor of two of the tolerance."""
    from errorlab import check_gradients

    model = _models(out)["OO"]
    _require(model.spec.family == "mlp", "models.json does not hold mlp models")
    sizes = [model.input_dim, *scen["model"]["widths"], 1]
    shapes = [w.shape for w, _ in model.params["layers"]]
    _require(shapes == list(zip(sizes, sizes[1:])),
             f"mlp layer shapes {shapes} differ from {sizes}")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, model.input_dim))
    y = x @ rng.standard_normal(model.input_dim) + 0.5 * rng.standard_normal(16)
    report = check_gradients(model.spec, x, y, step=1e-6)
    _require(report.max_relative_deviation < 1e-5,
             f"mlp gradient check deviates by {report.max_relative_deviation}")


def mlp_final_loss(out: Path, scen: dict) -> None:
    """Each regime's final loss is finite and is its last epoch's loss.
    Whether it lies below Var(y) is not checked: plain SGD at the default
    learning rate ends some seeds on a loss spike above it."""
    for regime, model in _models(out).items():
        loss = model.diagnostics["final_loss"]
        _require(math.isfinite(loss), f"{regime} final loss {loss} is not finite")
        _require(loss == model.diagnostics["epoch_losses"][-1],
                 f"{regime} final loss != last epoch loss")


# ---------------------------------------------------------------------------
# which checks apply


def command_checks(command: str, out: Path, scen: dict, seed: int
                   ) -> list[tuple[str, Callable[[], None]]]:
    """The checks for one command's output directory."""
    family = scen["model"]["family"]
    ridge = family == "ridge"
    by_command: dict[str, list[tuple[str, Callable]]] = {
        "simulate": [("generative", simulate_generative),
                     ("observed_width", simulate_observed_width),
                     ("epsilon_variance", simulate_epsilon_variance),
                     ("selected_share", simulate_selected_share)],
        "decompose": [("pointwise_sum", decompose_pointwise_sum),
                      ("error_sum", decompose_error_sum)],
        "biasvar": [("aleatoric", biasvar_aleatoric), ("replicates", biasvar_replicates),
                    ("identity", biasvar_identity)],
        "curve": [("values", curve_values)],
        "panels": [("features_below", panels_features_below),
                   ("target_at_fidelity0", panels_target_at_fidelity0)],
        "gallery": [("ceiling", gallery_ceiling), ("curves", gallery_curves)],
        "probe": [("ceiling", probe_ceiling), ("selection", probe_selection)],
    }
    checks = list(by_command[command])
    if command == "biasvar":
        if ridge and scen["biasvar"]["regime"] == "TT":
            checks.append(("tt_theory", biasvar_tt_theory))
        if int(scen["biasvar"].get("components_replicates", 0)) > 0:
            checks.append(("components", biasvar_components))
    if command == "curve" and ridge:
        # knn and mlp curves at two replicates can be flat between the first
        # levels, where a two-sample interval says little: no shape checks.
        checks += [("monotone", curve_monotone), ("terminal", curve_terminal)]
    if command == "decompose" and family == "knn":
        checks.append(("knn_brute_force", partial(knn_brute_force, seed=seed)))
    if command == "decompose" and family == "mlp":
        checks += [("mlp_gradients", mlp_gradients),
                   ("mlp_final_loss", mlp_final_loss)]
    named = [(f"{command}.{name}", partial(fn, out, scen)) for name, fn in checks]
    named.append((f"{command}.json", partial(json_strict, out)))
    named.append((f"{command}.manifest", partial(manifest_checksums, out, command)))
    return named


def same_checksums(timed: dict, reference: dict) -> None:
    """Outputs at N workers are byte-identical to those at one worker."""
    _require(bool(reference), "no reference checksums")
    _require(timed == reference,
             "checksums differ: " + ", ".join(sorted(
                 k for k in set(timed) | set(reference) if timed.get(k) != reference.get(k))))
