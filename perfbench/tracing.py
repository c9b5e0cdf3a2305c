"""Outside-in tracing of pervml's layers, for the benchmark's traced run.

The tracer wraps every public function and method of each pervml module
(the layers) by replacing module and class attributes, so nothing under
``src/`` changes. Module-level names that other pervml modules imported
with ``from ... import`` are rebound too. Generator functions are left
unwrapped, because a wrapper would time only the generator's creation.
Each call inside a pass records a span: id, name, start and end (ns),
parent span, pass id and, for some names, exact work counts. A layer's self
time is its spans' durations minus the part their child spans cover.

The traced run is its own process, so the wrappers cannot leak into the
untraced runs:

    python3 perfbench/tracing.py <workload> <seed> <budget_s> <work_dir>

It runs traced passes for about ``budget_s`` seconds, writes the spans of
each pass to ``<work_dir>/spans.jsonl`` once the pass has ended, and prints
the per-layer metrics as JSON on its last line.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import workloads

LAYERS = (
    "data", "tuning", "gbrt", "_kernels", "svr", "metrics",
    "analysis", "pipeline", "modelio", "cli",
)
ROOT_NAME = "bench.pass"


class Span(NamedTuple):
    id: int
    name: str  # "<layer>.<function>" or "<layer>.<Class>.<method>"
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    pass_id: int
    info: object  # work counts from INFO, or None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> int:
        return self.end - self.start


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# Exact work counts taken from a call's arguments or result.
INFO = {
    # (cells scanned = columns x rows, 1 if the split is kept)
    "_kernels.best_split_kernel": lambda a, r: (
        a[0].shape[0] * a[0].shape[1], int(r[1] >= 0 and r[0] > 0.0)
    ),
    # (iterations, converged)
    "_kernels.smo_solve": lambda a, r: (int(r[3]), bool(r[4])),
    "gbrt.predict_tree": lambda a, r: len(r),
    "svr.gram_matrix": lambda a, r: r.size,
    "modelio.write_model": _file_bytes,
}
WRITE_PREFIX = "pipeline.write_"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self.pass_id: int | None = None
        self.passes = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name: str, fn):
        info = INFO.get(name) or (_file_bytes if name.startswith(WRITE_PREFIX) else None)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.pass_id is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.pass_id, None))
                raise
            end = clock()
            stack.pop()
            spans.append(
                Span(sid, name, start, end, parent, self.pass_id, _count(info, args, result))
            )
            return result

        self.wrapped.add(name)
        return wrapper

    def install(self):
        """Wrap each layer's public functions and methods."""
        wrappers = {}  # original function -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"pervml.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if _plain(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "pervml" and not modname.startswith("pervml."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def _wrap_methods(self, prefix: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)) and _plain(raw.__func__):
                setattr(cls, attr, type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif _plain(raw):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", raw))

    @contextlib.contextmanager
    def root_span(self):
        """The pass itself: the span every traced call descends from."""
        sid = self._next_id
        self._next_id += 1
        self.pass_id = self.passes
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(sid, ROOT_NAME, start, end, None, self.pass_id, None))
            self.pass_id = None
            self.passes += 1

    def take_spans(self) -> list[Span]:
        spans, self.spans[:] = list(self.spans), []
        return spans


def _count(info, args, result):
    """Work counts of one call; None when the call's shape no longer fits."""
    if info is None:
        return None
    try:
        return info(args, result)
    except (TypeError, ValueError, IndexError, AttributeError, OSError):
        return None


def _plain(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class PassSpans:
    """One pass's spans, indexed for the per-layer metrics."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        covered = defaultdict(int)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.dur
        self.self_ns = {s.id: s.dur - covered[s.id] for s in spans}
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
        self.root = self.by_name[ROOT_NAME][0]
        self._under_grid: dict[int, bool] = {}

    def named(self, *names):
        return [s for name in names for s in self.by_name.get(name, ())]

    def total_s(self, *names) -> float:
        return sum(s.dur for s in self.named(*names)) / 1e9

    def outermost_s(self, *names) -> float:
        """Time in calls to ``names`` not made from another call to ``names``."""
        return sum(
            s.dur for s in self.named(*names) if self.by_id[s.parent].name not in names
        ) / 1e9

    def self_s(self, spans) -> float:
        return sum(self.self_ns[s.id] for s in spans) / 1e9

    def minus_children_s(self, names, child_names) -> float:
        """Duration of calls to ``names`` minus their direct ``child_names`` calls."""
        spans = self.named(*names)
        ids = {s.id for s in spans}
        children = [s for s in self.named(*child_names) if s.parent in ids]
        return (sum(s.dur for s in spans) - sum(s.dur for s in children)) / 1e9

    def under_grid(self, span: Span) -> bool:
        """Whether ``span`` is tuning.grid_search or runs inside it."""
        if span.id not in self._under_grid:
            parent = self.by_id.get(span.parent)
            self._under_grid[span.id] = span.name == "tuning.grid_search" or (
                parent is not None and self.under_grid(parent)
            )
        return self._under_grid[span.id]

    def layer_self_ns(self) -> dict[str, int]:
        out = defaultdict(int)
        for s in self.spans:
            out[s.layer] += self.self_ns[s.id]
        return dict(out)


def _per_call_us(seconds: float, count: int) -> float:
    return seconds / count * 1e6 if count else 0.0


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# Per-layer metrics: name -> (unit, names that must be wrapped, kind).
# "count" values must repeat exactly in every pass; "time" values are the
# median over passes; "pctl" values pool every call of every pass.
METRICS = {
    "data.load_s": ("s", ["data.load_csv"], "time"),
    "data.scale_s": ("s", ["data.fit_scaler", "data.Scaler.transform"], "time"),
    "kernels.split.calls": ("count", ["_kernels.best_split_kernel"], "count"),
    "kernels.split.cells": ("count", ["_kernels.best_split_kernel"], "count"),
    "kernels.split.s": ("s", ["_kernels.best_split_kernel"], "time"),
    "kernels.split.us_per_call": ("us", ["_kernels.best_split_kernel"], "time"),
    "kernels.split.kept_ratio": ("ratio", ["_kernels.best_split_kernel"], "count"),
    "gbrt.fit_calls": ("count", ["gbrt.fit"], "count"),
    "gbrt.trees_grown": ("count", ["gbrt.build_tree"], "count"),
    "gbrt.fit_self_s": ("s", ["gbrt.fit", "gbrt.build_tree", "gbrt.predict_tree"], "time"),
    "gbrt.grow_self_s": ("s", ["gbrt.build_tree", "_kernels.best_split_kernel"], "time"),
    "gbrt.predict_s": ("s", ["gbrt.TreeEnsemble.predict", "gbrt.predict_tree"], "time"),
    "gbrt.predict_rows": ("count", ["gbrt.predict_tree"], "count"),
    "gbrt.fit_ms.p50": ("ms", ["gbrt.fit"], "pctl"),
    "gbrt.fit_ms.p99": ("ms", ["gbrt.fit"], "pctl"),
    "kernels.smo.calls": ("count", ["_kernels.smo_solve"], "count"),
    "kernels.smo.iters": ("count", ["_kernels.smo_solve"], "count"),
    "kernels.smo.cap_hits": ("count", ["_kernels.smo_solve"], "count"),
    "kernels.smo.converged_ratio": ("ratio", ["_kernels.smo_solve"], "count"),
    "kernels.smo.s": ("s", ["_kernels.smo_solve"], "time"),
    "kernels.smo.us_per_iter": ("us", ["_kernels.smo_solve"], "time"),
    "svr.gram_calls": ("count", ["svr.gram_matrix"], "count"),
    "svr.gram_entries": ("count", ["svr.gram_matrix"], "count"),
    "svr.gram_s": ("s", ["svr.gram_matrix"], "time"),
    "svr.fit_self_s": ("s", ["svr.fit", "svr.gram_matrix", "_kernels.smo_solve"], "time"),
    "svr.predict_s": ("s", ["svr.SvrModel.predict"], "time"),
    "svr.fit_ms.p50": ("ms", ["svr.fit"], "pctl"),
    "svr.fit_ms.p99": ("ms", ["svr.fit"], "pctl"),
    "tuning.cv_self_s": ("s", ["tuning.grid_search"], "time"),
    "tuning.cv_fits": ("count", ["tuning.grid_search", "gbrt.fit", "svr.fit"], "count"),
    "metrics.calls": ("count", ["metrics.mse"], "count"),
    "metrics.s": ("s", ["metrics.mse"], "time"),
    "analysis.importance_s": ("s", ["analysis.importance"], "time"),
    "analysis.sensitivity_s": ("s", ["analysis.sensitivity_table"], "time"),
    "pipeline.write_s": ("s", ["pipeline.write_predictions_csv"], "time"),
    "pipeline.write_bytes": ("bytes", ["pipeline.write_predictions_csv"], "count"),
    "pipeline.run_model_self_s": ("s", ["pipeline.run_model"], "time"),
    "modelio.save_s": ("s", ["gbrt.save_model", "svr.save_model"], "time"),
    "modelio.load_s": ("s", ["gbrt.load_model", "svr.load_model"], "time"),
    "modelio.bytes": ("bytes", ["modelio.write_model"], "count"),
    "cli.self_s": ("s", ["cli.run"], "time"),
}
FIT_NAMES = ("gbrt.fit", "svr.fit")
SCALE_NAMES = (
    "data.fit_scaler", "data.Scaler.fit", "data.Scaler.transform",
    "data.Scaler.inverse_transform", "data.Scaler.transform_features",
)


def pass_metrics(p: PassSpans) -> dict:
    """Per-layer values of one pass (before reduction over passes)."""
    split = p.named("_kernels.best_split_kernel")
    smo = p.named("_kernels.smo_solve")
    gram = p.named("svr.gram_matrix")
    writes = [s for s in p.spans if s.name.startswith(WRITE_PREFIX)]
    metric_calls = [
        s for s in p.spans if s.layer == "metrics" and p.by_id[s.parent].layer != "metrics"
    ]
    split_s = p.total_s("_kernels.best_split_kernel")
    smo_s = p.total_s("_kernels.smo_solve")
    smo_iters = sum(s.info[0] for s in smo if s.info)
    return {
        "data.load_s": p.outermost_s("data.load_csv", "data.load_bundled"),
        "data.scale_s": p.outermost_s(*SCALE_NAMES),
        "kernels.split.calls": len(split),
        "kernels.split.cells": sum(s.info[0] for s in split if s.info),
        "kernels.split.s": split_s,
        "kernels.split.us_per_call": _per_call_us(split_s, len(split)),
        "kernels.split.kept_ratio": _ratio(sum(s.info[1] for s in split if s.info), len(split)),
        "gbrt.fit_calls": len(p.named("gbrt.fit")),
        "gbrt.trees_grown": len(p.named("gbrt.build_tree")),
        "gbrt.fit_self_s": p.minus_children_s(
            ["gbrt.fit"], ["gbrt.build_tree", "gbrt.predict_tree"]
        ),
        "gbrt.grow_self_s": p.minus_children_s(
            ["gbrt.build_tree"], ["_kernels.best_split_kernel"]
        ),
        "gbrt.predict_s": p.outermost_s(
            "gbrt.predict", "gbrt.TreeEnsemble.predict", "gbrt.predict_tree"
        ),
        "gbrt.predict_rows": sum(s.info or 0 for s in p.named("gbrt.predict_tree")),
        "gbrt.fit_ms": [s.dur / 1e6 for s in p.named("gbrt.fit")],
        "kernels.smo.calls": len(smo),
        "kernels.smo.iters": smo_iters,
        "kernels.smo.cap_hits": sum(1 for s in smo if s.info and not s.info[1]),
        "kernels.smo.converged_ratio": _ratio(sum(1 for s in smo if s.info and s.info[1]), len(smo)),
        "kernels.smo.s": smo_s,
        "kernels.smo.us_per_iter": _per_call_us(smo_s, smo_iters),
        "svr.gram_calls": len(gram),
        "svr.gram_entries": sum(s.info or 0 for s in gram),
        "svr.gram_s": p.total_s("svr.gram_matrix"),
        "svr.fit_self_s": p.minus_children_s(
            ["svr.fit"], ["svr.gram_matrix", "_kernels.smo_solve"]
        ),
        "svr.predict_s": p.outermost_s("svr.predict", "svr.SvrModel.predict"),
        "svr.fit_ms": [s.dur / 1e6 for s in p.named("svr.fit")],
        "tuning.cv_self_s": p.self_s(
            s for s in p.spans if s.layer == "tuning" and p.under_grid(s)
        ),
        "tuning.cv_fits": sum(1 for s in p.named(*FIT_NAMES) if p.under_grid(s)),
        "metrics.calls": len(metric_calls),
        "metrics.s": sum(s.dur for s in metric_calls) / 1e9,
        "analysis.importance_s": p.total_s("analysis.importance"),
        "analysis.sensitivity_s": p.total_s("analysis.sensitivity_table"),
        "pipeline.write_s": sum(s.dur for s in writes) / 1e9,
        "pipeline.write_bytes": sum(s.info or 0 for s in writes),
        "pipeline.run_model_self_s": p.self_s(p.named("pipeline.run_model")),
        "modelio.save_s": p.total_s("gbrt.save_model", "svr.save_model"),
        "modelio.load_s": p.total_s("gbrt.load_model", "svr.load_model"),
        "modelio.bytes": sum(s.info or 0 for s in p.named("modelio.write_model")),
        "cli.self_s": p.self_s(s for s in p.spans if s.layer == "cli"),
    }


def _percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reduce_passes(per_pass: list[dict], wrapped: set) -> tuple[dict, list, list]:
    """Combine per-pass values into one value per metric.

    Returns (metrics, absent metric names, problems).
    """
    metrics, absent, problems = {}, [], []
    for name, (unit, needs, kind) in METRICS.items():
        if not set(needs) <= wrapped:
            absent.append(name)
            value = 0
        elif kind == "count":
            values = [p[name] for p in per_pass]
            if len(set(values)) != 1:
                problems.append(f"{name} differs between passes: {values}")
            value = values[0]
        elif kind == "pctl":
            base, _, pct = name.rpartition(".p")
            value = _percentile([v for p in per_pass for v in p[base]], int(pct))
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent, problems


def check_pass(p: PassSpans, cap_warnings: int) -> list:
    """Tracer consistency checks for one pass."""
    problems = []
    if any(v < 0 for v in p.self_ns.values()):
        problems.append("a span has negative self time (children outside their parent)")
    layers = p.layer_self_ns()
    if sum(layers.values()) != p.root.dur:
        problems.append(
            f"layer self times sum to {sum(layers.values())} ns, root span is {p.root.dur} ns"
        )
    cap_hits = sum(1 for s in p.named("_kernels.smo_solve") if s.info and not s.info[1])
    if cap_warnings != cap_hits:
        problems.append(
            f"{cap_warnings} SvrConvergenceWarning(s) captured, but {cap_hits} SMO cap hits"
        )
    return problems


def write_spans(path: Path, spans: list[Span], mode: str):
    with open(path, mode, encoding="utf-8") as fh:
        if mode == "w":
            fh.write(json.dumps({"fields": list(Span._fields)}) + "\n")
        for s in spans:
            fh.write(json.dumps(list(s), separators=(",", ":")) + "\n")


def traced_run(workload: str, seed: int, budget_s: float, work: Path) -> dict:
    ctx = workloads.setup(workload)
    problems = []
    if workload == "study":
        problems += workloads.prepare_study(ctx, seed, work / "direct")
    tracer = Tracer()
    tracer.install()
    spans_path = work / "spans.jsonl"
    per_pass, layer_self = [], []

    def after_pass(result):
        p = PassSpans(tracer.take_spans())
        problems.extend(check_pass(p, result.cap_warnings))
        per_pass.append(pass_metrics(p))
        layer_self.append(p.layer_self_ns())
        write_spans(spans_path, p.spans, "w" if len(per_pass) == 1 else "a")

    results = workloads.run_passes(
        ctx, seed, work / "pass", budget_s, timed=tracer.root_span, after=after_pass
    )
    metrics, absent, reduce_problems = reduce_passes(per_pass, tracer.wrapped)
    layers = {
        layer: statistics.median(d.get(layer, 0) for d in layer_self) / 1e9
        for layer in sorted({k for d in layer_self for k in d})
    }
    return {
        "metrics": metrics,
        "absent": absent,
        "layer_self_s": layers,
        "passes": [
            {"wall_s": r.wall_s, "attempted": r.attempted, "failed": r.failed}
            for r in results
        ],
        "digests": results[-1].digests,
        "problems": problems + reduce_problems + [q for r in results for q in r.problems],
        "spans_file": str(spans_path),
    }


def main(argv) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 1
    workload, seed, budget_s, work = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    print(json.dumps(traced_run(workload, seed, budget_s, work)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except workloads.BenchError as exc:
        print(f"tracing.py: {exc}", file=sys.stderr)
        sys.exit(2)
