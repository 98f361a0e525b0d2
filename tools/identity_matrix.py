"""Output-identity matrix: run every command over a fixed set of scenarios
with one errorlab tree, record what each run wrote, and compare two trees.

Usage (from the repository root):

    python tools/identity_matrix.py run --src PATH/TO/src --out results.json
    python tools/identity_matrix.py compare base.json head.json

``run`` executes ``python -m errorlab.cli`` with ``--src`` first on
``PYTHONPATH`` for each of the 7 commands x {ridge, knn k=10, mlp [16]
tanh 5 epochs, mlp [5, 4] relu 4 epochs} x ``--workers`` 1 and 2, on
``scenarios/standard.yaml`` (``--replicates 3``, ``components_replicates:
4``) and on ``scenarios/reference.yaml``.  It writes one JSON object keyed
by run, holding each run's exit code and its manifest's ``files``,
``seed_labels`` and ``config_hash`` (null when the run wrote no manifest).
It exits 1, naming the run, if a run exits otherwise than expected (every
run exits 0, except that reference.yaml, which has no curve, panels,
gallery or probe section, makes those four commands exit 2; the stderr of
such a run is printed) or if a run's two worker counts disagree.

``compare`` exits 1 if the two result files differ, naming every run and
every output file that does, or if the second breaks either rule of
``run``.  Both subcommands read the scenarios of the
repository this script sits in, so two trees run on the same inputs.
Output bits depend on the machine's BLAS kernels: compare only results
made on one machine, never against digests kept from elsewhere.

Standard library and PyYAML only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
COMMANDS = ("simulate", "decompose", "biasvar", "curve", "panels", "gallery", "probe")
MODELS = {
    "ridge": {"family": "ridge", "lam": 0.0},
    "knn": {"family": "knn", "k": 10},
    "mlp-tanh": {"family": "mlp", "widths": [16], "epochs": 5},
    "mlp-relu": {"family": "mlp", "widths": [5, 4], "activation": "relu", "epochs": 4},
}
REPLICATES = "3"
MANIFEST_FIELDS = ("files", "seed_labels", "config_hash")
# reference.yaml has no section for these commands: they exit 2 there.
NEEDS_SECTION = ("curve", "panels", "gallery", "probe")
# One BLAS thread, so a result does not depend on the runner's core count.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _scenarios(work: Path) -> dict[str, Path]:
    """Each scenario x model variant, written under ``work``, by name."""
    out = {}
    for scenario in ("standard", "reference"):
        doc = yaml.safe_load((SCENARIOS / f"{scenario}.yaml").read_text(encoding="utf-8"))
        if scenario == "standard":
            doc["biasvar"]["components_replicates"] = 4
        for model, spec in MODELS.items():
            doc["model"] = spec
            path = work / f"{scenario}-{model}.yaml"
            path.write_text(yaml.safe_dump(doc), encoding="utf-8")
            out[f"{scenario}/{model}"] = path
    return out


def run_matrix(src: Path) -> dict[str, dict]:
    """Every run of the matrix with the errorlab under ``src``, by run name."""
    env = {**os.environ, **PINNED}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    results = {}
    with tempfile.TemporaryDirectory(prefix="identity-matrix-") as tmp:
        work = Path(tmp)
        for name, config in _scenarios(work).items():
            for command in COMMANDS:
                for workers in (1, 2):
                    run = f"{name}/{command}/workers{workers}"
                    out = work / run.replace("/", "-")
                    argv = [
                        sys.executable, "-m", "errorlab.cli", command,
                        "--config", str(config), "--out", str(out),
                        "--workers", str(workers), "--replicates", REPLICATES,
                    ]
                    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
                    if proc.returncode != expected_exit(run):
                        sys.stderr.write(proc.stderr.decode(errors="replace"))
                    manifest = out / "manifest.json"
                    doc = json.loads(manifest.read_text()) if manifest.exists() else {}
                    results[run] = {
                        "exit": proc.returncode,
                        **{key: doc.get(key) for key in MANIFEST_FIELDS},
                    }
                    print(f"{run}: exit {proc.returncode}", file=sys.stderr)
    return results


def expected_exit(run: str) -> int:
    """The exit code the run named ``scenario/model/command/workersN`` must give."""
    scenario, _, command, _ = run.split("/")
    return 2 if scenario == "reference" and command in NEEDS_SECTION else 0


def exit_mismatches(results: dict[str, dict]) -> list[str]:
    """The runs that exit otherwise than ``expected_exit`` says."""
    return [
        f"{run}: exit {result['exit']}, expected {expected_exit(run)}"
        for run, result in sorted(results.items())
        if result["exit"] != expected_exit(run)
    ]


def worker_mismatches(results: dict[str, dict]) -> list[str]:
    """The runs whose two worker counts disagree, each naming its fields."""
    bad = []
    for run in sorted(results):
        if run.endswith("/workers1"):
            name = run.rsplit("/", 1)[0]
            one, two = results[run], results.get(f"{name}/workers2", {})
            fields = sorted(k for k in one.keys() | two.keys() if one.get(k) != two.get(k))
            if fields:
                bad.append(f"{name}: workers 1 and 2 differ in {', '.join(fields)}")
    return bad


def differences(base: dict[str, dict], head: dict[str, dict]) -> list[str]:
    """Every run, field and output file that differs between two results."""
    lines = []
    for run in sorted(base.keys() | head.keys()):
        a, b = base.get(run), head.get(run)
        if a is None or b is None:
            lines.append(f"{run}: only in {'head' if a is None else 'base'}")
            continue
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) == b.get(key):
                continue
            if key == "files" and a.get(key) is not None and b.get(key) is not None:
                names = a[key].keys() | b[key].keys()
                changed = sorted(n for n in names if a[key].get(n) != b[key].get(n))
                lines.append(f"{run}: files differ: {', '.join(changed)}")
            else:
                lines.append(f"{run}: {key} differs: {a.get(key)!r} != {b.get(key)!r}")
    return lines


def _load(path: str) -> dict[str, dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run", help="run the matrix with one tree and write its results")
    run.add_argument("--src", required=True, help="the tree's src directory")
    run.add_argument("--out", required=True, help="results JSON to write")
    compare = sub.add_parser("compare", help="name every run that differs between two results")
    compare.add_argument("base")
    compare.add_argument("head")
    args = parser.parse_args(argv)

    if args.action == "run":
        results = run_matrix(Path(args.src).resolve())
        Path(args.out).write_text(json.dumps({"runs": results}, indent=1, sort_keys=True) + "\n")
        problems = exit_mismatches(results) + worker_mismatches(results)
        summary = f"{len(results)} runs written to {args.out}"
    else:
        base, head = _load(args.base), _load(args.head)
        problems = differences(base, head) + exit_mismatches(head) + worker_mismatches(head)
        summary = f"{len(head)} runs identical"
    print("\n".join(problems) if problems else summary)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
