"""Outside-in span tracer for errorlab's public functions.

``install`` replaces every binding of each listed function in every loaded
``errorlab`` module, including names imported with ``from .x import f``, so
nested calls are seen wherever they are made.  Each call becomes a span with
a parent; spans stay in memory until the session writes them out.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Optional

_ACTIVE: Optional["Tracer"] = None


def _rows_arg(index: int) -> Callable:
    def rows(args, kwargs, result) -> int:
        value = args[index]
        return int(value) if isinstance(value, int) else int(len(value))

    return rows


def _rendered_bytes(args, kwargs, result) -> int:
    # The manifest carries wall-clock timings, so its length varies from
    # run to run; only the checksummed outputs are counted.
    if isinstance(args[0], dict) and "timings" in args[0]:
        return 0
    return len(result.encode("utf-8"))


def _written_bytes(args, kwargs, result) -> int:
    return sum(len(text.encode("utf-8")) for text in args[1].values())


# (home module, function, span name, work count or None).  Span names are
# the layer buckets reported by ``round_metrics``.
TRACED = (
    ("errorlab.config", "parse_config", "config.parse", None),
    ("errorlab.config", "scenario_to_yaml", "config.parse", None),
    ("errorlab.seeding", "rng_for", "seeding.rng_for", None),
    ("errorlab.worldgen", "sample", "worldgen.sample", _rows_arg(1)),
    ("errorlab.worldgen", "draw_inputs", "worldgen.testpack", _rows_arg(1)),
    ("errorlab.worldgen", "observe_features", "worldgen.testpack", _rows_arg(1)),
    ("errorlab.worldgen", "draw_aleatoric", "worldgen.testpack", _rows_arg(1)),
    ("errorlab.worldgen", "bundle_columns", "worldgen.bundle_columns", None),
    ("errorlab.models", "fit", "models.fit", _rows_arg(1)),
    ("errorlab.models", "fit_regimes", "models.fit_regimes", None),
    ("errorlab.models", "predict", "models.predict", _rows_arg(1)),
    ("errorlab.decomp", "decompose_rows", "decomp.decompose_rows", _rows_arg(2)),
    ("errorlab.decomp", "decompose_bundle", "decomp.decompose_bundle", None),
    ("errorlab.decomp", "check_telescoping", "decomp.check_telescoping", None),
    ("errorlab.decomp", "bias_variance_monte_carlo", "decomp.aggregate", None),
    ("errorlab.decomp", "component_covariances", "decomp.aggregate", None),
    ("errorlab.decomp", "estimate_ceiling", "decomp.aggregate", None),
    ("errorlab.decomp", "representativeness_probe", "decomp.aggregate", None),
    ("errorlab.experiments", "run_learning_curve", "experiments", None),
    ("errorlab.experiments", "run_panel_scenarios", "experiments", None),
    ("errorlab.experiments", "regime_gallery", "experiments", None),
    ("errorlab.experiments", "monotone_under_ci", "experiments", None),
    ("errorlab.experiments", "level_world", "experiments", None),
    ("errorlab.runio", "render_csv", "runio.render", _rendered_bytes),
    ("errorlab.runio", "render_json", "runio.render", _rendered_bytes),
    ("errorlab.runio", "write_outputs", "runio.write", _written_bytes),
)

# Cell functions handed to ``parallel.ordered_map``; they are private, so
# they are traced where they cross the map boundary, not rebound.
CELLS = (
    ("errorlab.experiments", "_curve_cell", "experiments"),
    ("errorlab.decomp", "_biasvar_cell", "decomp.aggregate"),
    ("errorlab.decomp", "_component_cell", "decomp.aggregate"),
)

_TESTPACK_DRAWS = ("draw_inputs", "observe_features", "draw_aleatoric")


class Cell:
    """Picklable cell wrapper: a span in a traced process, a plain call in
    a pool worker (where no tracer is active)."""

    def __init__(self, fn: Callable, span: str):
        self.fn = fn
        self.span = span

    def __call__(self, item):
        if _ACTIVE is None:
            return self.fn(item)
        return _ACTIVE.call(self.span, self.fn, (item,), {})


class _CountingContext:
    def __init__(self, ctx, tracer: "Tracer"):
        self._ctx = ctx
        self._tracer = tracer

    def Pool(self, processes=None, *args, **kwargs):
        self._tracer.counters["parallel.pools_started"] += 1
        self._tracer.counters["parallel.workers_started"] += int(processes or 0)
        return self._ctx.Pool(processes, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ctx, name)


class _CountingMultiprocessing:
    """Stands in for the ``multiprocessing`` module inside errorlab.parallel
    and counts the pools it starts."""

    def __init__(self, mp, tracer: "Tracer"):
        self._mp = mp
        self._tracer = tracer

    def get_context(self, method=None):
        return _CountingContext(self._mp.get_context(method), self._tracer)

    def __getattr__(self, name):
        return getattr(self._mp, name)


class Tracer:
    """Spans as ``[name, start, end, parent, work]`` lists plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.testpack_keys: set = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, args, kwargs, work: Optional[Callable] = None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span[4] = work(args, kwargs, result)
        return result

    # -- installation -----------------------------------------------------

    def _wrapper(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        tracer = self
        testpack = fn.__name__ in _TESTPACK_DRAWS

        def traced(*args, **kwargs):
            if testpack:
                world, data, label = args[:3]
                size = data if isinstance(data, int) else len(data)
                tracer.testpack_keys.add((fn.__name__, world, label, size))
            return tracer.call(name, fn, args, kwargs, work)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _rebind(self, original: object, replacement: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "errorlab" or module_name.startswith("errorlab.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        global _ACTIVE
        import errorlab  # noqa: F401  (loads every errorlab module)
        from errorlab import parallel

        for module_name, fn_name, span, work in TRACED:
            fn = getattr(sys.modules[module_name], fn_name)
            self._rebind(fn, self._wrapper(span, fn, work))

        cells = {
            getattr(sys.modules[module_name], fn_name): span
            for module_name, fn_name, span in CELLS
        }
        ordered_map = parallel.ordered_map
        tracer = self

        def traced_map(fn, items, workers=1):
            tracer.counters["parallel.maps"] += 1
            tracer.counters["parallel.tasks"] += len(items)
            span = cells.get(fn)
            if span == "experiments":
                tracer.counters["experiments.cells"] += len(items)
            cell = fn if span is None else Cell(fn, span)
            return tracer.call("parallel.map", ordered_map, (cell, items, workers), {})

        self._rebind(ordered_map, traced_map)
        self._restore.append((parallel, "mp", parallel.mp))
        parallel.mp = _CountingMultiprocessing(parallel.mp, self)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        _ACTIVE = None

    # -- per-round aggregation ---------------------------------------------

    def start_round(self) -> int:
        self.counters = Counter()
        self.testpack_keys = set()
        return len(self.spans)

    def round_metrics(self, first_span: int, commands: tuple[str, ...]) -> dict[str, float]:
        """Layer metrics for the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[3] - first_span
            if parent >= 0:
                child[parent] += span[2] - span[1]
        calls: Counter = Counter()
        work: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i, (name, start, end, _, units) in enumerate(spans):
            calls[name] += 1
            work[name] += units
            self_s[name] += end - start - child[i]
            total_s[name] += end - start

        m: dict[str, float] = {"config.parse_s": self_s["config.parse"]}
        for command in commands:
            m[f"cli.{command}_s"] = total_s[f"cli.{command}"]
        m["cli.self_s"] = sum(self_s[f"cli.{c}"] for c in commands)
        m["seeding.substreams"] = calls["seeding.rng_for"]
        m["seeding.self_s"] = self_s["seeding.rng_for"]
        for layer in ("worldgen.sample", "worldgen.testpack", "models.predict"):
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.rows"] = work[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        draws = calls["worldgen.testpack"]
        m["worldgen.testpack.distinct_ratio"] = len(self.testpack_keys) / draws if draws else 0.0
        m["worldgen.bundle_columns_s"] = self_s["worldgen.bundle_columns"]
        m["models.fit.calls"] = calls["models.fit"]
        m["models.fit.rows"] = work["models.fit"]
        m["models.fit.self_s"] = self_s["models.fit"] + self_s["models.fit_regimes"]
        m["decomp.decompose_rows.calls"] = calls["decomp.decompose_rows"]
        m["decomp.decompose_rows.rows"] = work["decomp.decompose_rows"]
        m["decomp.decompose_rows.self_s"] = (
            self_s["decomp.decompose_rows"] + self_s["decomp.decompose_bundle"]
        )
        m["decomp.check_telescoping_s"] = self_s["decomp.check_telescoping"]
        m["decomp.aggregate_s"] = self_s["decomp.aggregate"]
        m["experiments.cells"] = self.counters["experiments.cells"]
        m["experiments.self_s"] = self_s["experiments"]
        for name in ("parallel.maps", "parallel.tasks", "parallel.pools_started",
                     "parallel.workers_started"):
            m[name] = self.counters[name]
        m["parallel.map_s"] = total_s["parallel.map"]
        m["runio.render.bytes"] = work["runio.render"]
        m["runio.render_s"] = self_s["runio.render"]
        m["runio.write.bytes"] = work["runio.write"]
        m["runio.write_s"] = self_s["runio.write"]
        return {k: float(v) if k.endswith("_s") else v for k, v in m.items()}
