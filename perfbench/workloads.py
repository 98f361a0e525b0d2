"""The benchmark's workloads.

Every workload starts from ``scenarios/standard.yaml``.  A scenario variant
overrides fields section by section; the workload seed reaches the program
only as the CLI's ``--seed``.  Sizes were chosen so that one round of every
workload takes one to two seconds on one core.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

STANDARD = Path("scenarios/standard.yaml")

# The CLI's commands in the order ridge-study runs them; a test keeps this
# equal to errorlab.cli.COMMANDS.
COMMANDS = ("simulate", "decompose", "biasvar", "curve", "panels", "gallery", "probe")


@dataclass(frozen=True)
class Step:
    command: str
    scenario: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]
    # scenario name -> {section: {field: value}} replaced in standard.yaml
    scenarios: tuple[tuple[str, dict], ...]
    # commands run again after the timed rounds, untimed, at
    # PARALLEL_WORKERS, whose output checksums must equal the timed ones
    parallel_check: tuple[str, ...] = ()

    @property
    def parallel_steps(self) -> tuple[Step, ...]:
        return tuple(s for s in self.steps if s.command in self.parallel_check)


PARALLEL_WORKERS = 2


# Sizes keep every round near a second or two, so that a run of thirty
# seconds times each command a dozen times or more: one timing of a
# command says little on a shared host (see README.md).
RIDGE = {
    "biasvar": {"replicates": 100, "components_replicates": 20},
    "curve": {"replicates": 6},
    "gallery": {"replicates": 4},
}
KNN = {
    "model": {"family": "knn", "k": 10},
    "curve": {"replicates": 2, "test_points": 300, "comp_points": 128},
    "biasvar": {"replicates": 25, "components_replicates": 5},
}
MLP = {
    "model": {"family": "mlp", "widths": [16], "epochs": 10},
    "curve": {"replicates": 2, "test_points": 300, "comp_points": 128},
    "biasvar": {"replicates": 20, "components_replicates": 4},
}
EXPORT = {"simulate": {"n": 50_000}, "decompose": {"n": 25_000}}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ridge-study",
            "every command on the standard ridge scenario at one worker, at reduced "
            "replicate counts: the common path",
            tuple(Step(c, "ridge") for c in COMMANDS),
            scenarios=(("ridge", RIDGE),),
            parallel_check=("biasvar", "curve"),
        ),
        Workload(
            "model-kernels",
            "knn and mlp variants: knn predict and mlp fit, which ridge barely touches",
            tuple(Step(c, s) for s in ("knn", "mlp") for c in ("decompose", "curve", "biasvar")),
            scenarios=(("knn", KNN), ("mlp", MLP)),
        ),
        Workload(
            "export",
            "simulate 50k rows and decompose 25k: one large draw and bulk CSV rendering",
            (Step("simulate", "export"), Step("decompose", "export")),
            scenarios=(("export", EXPORT),),
        ),
    )
}


def scenario_mapping(overrides: dict) -> dict:
    """The standard scenario with the given sections' fields replaced."""
    scen = yaml.safe_load(STANDARD.read_text(encoding="utf-8"))
    for section, fields in overrides.items():
        scen[section] = {**(scen.get(section) or {}), **fields}
    return scen


def write_scenarios(workload: Workload, directory: Path) -> dict[str, tuple[Path, dict]]:
    """Scenario name -> (file the CLI reads, mapping the checks read)."""
    files = {}
    for name, overrides in workload.scenarios:
        scen = scenario_mapping(overrides)
        path = directory / f"{name}.yaml"
        path.write_text(yaml.safe_dump(scen, sort_keys=True), encoding="utf-8")
        files[name] = (path, scen)
    return files
