"""errorlab benchmark: time study workloads end to end and check their outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A run writes the workload's scenarios, then

1. starts one child process that repeats whole rounds of the workload's CLI
   commands until S seconds have passed (``wall_s`` sums each command's
   median time over the rounds, ``peak_rss_mb`` is the largest resident
   set of the child or its workers); with ``--trace 0`` the child also
   launches a fresh interpreter after each round that imports errorlab and
   parses the scenarios (``setup_s`` is the median launch); with
   ``--trace 1`` the child wraps errorlab's public functions and the run
   reports per-layer metrics instead;
2. checks every output against computations made here, outside the program.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one command of
one round, one command rerun at two workers, or one check.  The line
before it records the environment and the raw figures, which are also kept
under ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, here and in every child.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import COMMANDS, PARALLEL_WORKERS, WORKLOADS, write_scenarios  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = Path(".perfbench")
CHILD_TIMEOUT_S = 150


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinned": PINNED,
        "platform": platform.platform(),
    }


def run_session(plan: dict, work: Path) -> dict:
    plan_path, report_path = work / "plan.json", work / "report.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with (work / "session.log").open("w", encoding="utf-8") as log:
        child = subprocess.Popen(
            [sys.executable, str(HERE / "session.py"), str(plan_path), str(report_path)],
            cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
    if code != 0:
        raise RuntimeError(f"session exited with {code}; see {work / 'session.log'}")
    return json.loads(report_path.read_text(encoding="utf-8"))


class Tally:
    """Operations attempted and failed; a failed check also makes the
    outputs incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def op(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {why}")

    def check(self, name: str, fn) -> None:
        try:
            fn()
        except Exception as exc:  # a check that cannot even run has found bad output
            self.op(name, False, f"{type(exc).__name__}: {exc}")
            self.correct = False
        else:
            self.op(name, True)


def run_checks(tally: Tally, workload, report: dict, scenarios: dict, seed: int) -> None:
    last = report["rounds"][-1]["commands"]
    for step, result in zip(workload.steps, last):
        _, scen = scenarios[step.scenario]
        for name, check in checks.command_checks(step.command, Path(result["out"]), scen, seed):
            tally.check(f"{step.scenario}/{name}", check)
    timed = {(step.scenario, step.command): result["files"]
             for step, result in zip(workload.steps, last)}
    for step, rerun in zip(workload.parallel_steps, report["rerun"]):
        tally.check(f"{step.scenario}/{step.command}.workers_checksums",
                    lambda: checks.same_checksums(rerun["files"],
                                                  timed[step.scenario, step.command]))


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Counts from the first round (every round must repeat them); times as
    the median over rounds."""
    layers = [r["layers"] for r in rounds]
    out = {}
    for name, first in layers[0].items():
        values = [layer[name] for layer in layers]
        if unit_of(name) == "s":
            out[name] = statistics.median(values)
        else:
            if any(v != first for v in values):
                print(f"warning: {name} differs between rounds: {values}", file=sys.stderr)
            out[name] = first
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenarios = write_scenarios(workload, work)
    master_seed = str(seed % 2**64)

    def argv(step, workers: int, phase: str) -> list[str]:
        path, _ = scenarios[step.scenario]
        out = work / phase / f"{step.scenario}-{step.command}"
        return [step.command, "--config", str(path), "--out", str(out),
                "--seed", master_seed, "--workers", str(workers)]

    plan = {
        "commands": [argv(s, 1, "timed") for s in workload.steps],
        "rerun": [argv(s, PARALLEL_WORKERS, "rerun") for s in workload.parallel_steps],
        "seconds": seconds,
        "trace": trace,
        "setup": None if trace else
        [str(HERE / "setup_probe.py"), *(str(p) for p, _ in scenarios.values())],
        "layer_commands": COMMANDS,
        "spans_path": str(work / "spans.tsv"),
    }
    details: dict = {"workload": workload.name, "seed": seed, "trace": trace}
    report = run_session(plan, work)
    tally = Tally()
    first_files = [c["files"] for c in report["rounds"][0]["commands"]]
    for r, entry in enumerate(report["rounds"]):
        for c, files in zip(entry["commands"], first_files):
            ok = c["exit"] == 0 and bool(c["files"]) and c["files"] == files
            why = c["error"] or (f"exit {c['exit']}" if c["exit"] else "checksums differ")
            tally.op(f"round{r}/{c['command']}", ok, why)
    for rerun in report["rerun"]:
        tally.op(f"rerun/{rerun['command']}", rerun["exit"] == 0, rerun["error"])
    run_checks(tally, workload, report, scenarios, seed)

    round_s = [entry["wall_s"] for entry in report["rounds"]]
    command_s = [[c["seconds"] for c in entry["commands"]] for entry in report["rounds"]]
    details.update(rounds_s=round_s, commands_s=command_s, setup_launches_s=report["setup_s"],
                   peak_rss_kb=report["peak_rss_kb"], failures=tally.failures)
    if trace:
        metrics = layer_metrics(report["rounds"])
        details["spans"] = report["spans"]
    else:
        # The host's speed drifts in spells of seconds, so each command is
        # timed many times over the run and its median is taken.
        metrics = {
            "wall_s": sum(statistics.median(times) for times in zip(*command_s)),
            "setup_s": statistics.median(report["setup_s"]),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return result, details


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/errorlab/cli.py", "scenarios/standard.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the knn and mlp checks call errorlab
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    env = environment()
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        result, details = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        details["env"] = env
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"result": result, "details": details}, indent=1),
                        encoding="utf-8")
        print(json.dumps(details))
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
