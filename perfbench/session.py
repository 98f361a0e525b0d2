"""Timed child process: runs whole rounds of one workload's CLI commands.

Usage: python3 perfbench/session.py PLAN.json REPORT.json

The plan lists the commands of one round (each an ``errorlab`` argv), how
long to keep starting rounds, whether to trace, the set-up probe launched
once after each untraced round, and the commands rerun once after the
timed rounds (at another worker count).  Commands run in-process through
``errorlab.cli.main``, the CLI's entry point.  The report holds per-round
times and output checksums, the time of each set-up launch, the peak
resident set of this process and its pool workers, and, when traced,
per-round layer metrics.  Only the standard library is imported at module
level: pool workers re-import this file.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path


def _manifest_files(out_dir: str) -> dict:
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["files"]


class ParseClock:
    """Times the scenario parse and normalization that every CLI call
    repeats.  ``setup_s`` counts that work, so command times leave it out."""

    def __init__(self, cli) -> None:
        self.seconds = 0.0
        for name in ("parse_config", "scenario_to_yaml"):
            setattr(cli, name, self._timed(getattr(cli, name)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started

        return timed


def _run_command(main, argv: list[str], tracer, clock: ParseClock) -> tuple[float, int, str]:
    """Seconds from parsed config to every output written, exit code, error."""
    parsing = clock.seconds
    started = time.perf_counter()
    try:
        if tracer is None:
            code = main(argv)
        else:
            code = tracer.call(f"cli.{argv[0]}", main, (argv,), {})
        error = ""
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        code, error = -1, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started - (clock.seconds - parsing), code, error


def _time_setup(argv: list[str]) -> float:
    """Wall time of one fresh interpreter running the set-up probe."""
    started = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - started


def run(plan: dict) -> dict:
    from errorlab import cli

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = ParseClock(cli)

    rounds, setup_s = [], []
    deadline = time.perf_counter() + plan["seconds"]
    while True:
        first_span = tracer.start_round() if tracer is not None else 0
        commands = []
        for argv in plan["commands"]:
            seconds, code, error = _run_command(cli.main, argv, tracer, clock)
            out_dir = argv[argv.index("--out") + 1]
            commands.append(
                {"command": argv[0], "out": out_dir, "seconds": seconds, "exit": code,
                 "error": error, "files": _manifest_files(out_dir) if code == 0 else {}}
            )
        entry = {"wall_s": sum(c["seconds"] for c in commands), "commands": commands}
        if tracer is not None:
            entry["layers"] = tracer.round_metrics(first_span, plan["layer_commands"])
            entry["layers"]["trace.round_s"] = entry["wall_s"]
        rounds.append(entry)
        if plan["setup"]:
            # Between rounds, so that launches meet the host in the same
            # states as the commands do, not in one burst.
            setup_s.append(_time_setup(plan["setup"]))
        if time.perf_counter() >= deadline:
            break

    # The set-up probes count among the children, but each imports less
    # than this process has, so they never set the peak.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.uninstall()

    rerun = []
    for argv in plan["rerun"]:
        _, code, error = _run_command(cli.main, argv, None, clock)
        out_dir = argv[argv.index("--out") + 1]
        rerun.append(
            {"command": argv[0], "out": out_dir, "exit": code, "error": error,
             "files": _manifest_files(out_dir) if code == 0 else {}}
        )

    report = {"rounds": rounds, "setup_s": setup_s, "peak_rss_kb": peak_kb,
              "rerun": rerun}
    if tracer is not None:
        report["spans"] = len(tracer.spans)
        spans_path = Path(plan["spans_path"])
        with spans_path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, work in tracer.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{work}\n")
    return report


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    report = run(plan)
    Path(argv[1]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
