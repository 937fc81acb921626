"""In-memory spans around calls into the hpcmobo layers.

The program is traced from outside: `Tracer.install` replaces the module
attributes and class methods that callers look up with timing wrappers, and
`Tracer.restore` puts every original back. Spans nest by call order, so a
span's self time is its duration minus the durations of its direct children,
and the self times of all spans under a root span add up to the root's
duration.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

OPTIMIZER_METHODS = ("mobo", "sobo_runtime", "sobo_power", "random")
LAYERS = ("ingest", "sampler", "embedding", "surrogate", "gp", "optimizer", "pareto",
          "pipeline")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Owns the spans of one traced run and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def wrap(self, owner, attr: str, name, layer: str,
             count: Callable | None = None) -> None:
        """Replace owner.attr with a wrapper that records one span per call.

        `name` is a span name or a function of the call's arguments;
        `count(args, kwargs, result)` returns counts stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name(args, kwargs) if callable(name) else name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module, attr, name, layer, count in _targets(self):
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name, layer, count)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._patched)


class _RefitTracker:
    """Flags GP fits whose data equal one of the two previous fits made by
    the same optimizer call: MOBO alternates runtime and power fits, so two
    back is the previous fit of the same objective."""

    def __init__(self, tracer: Tracer, fit_gp) -> None:
        self.tracer = tracer
        self.owner: Span | None = None
        self.recent: deque[bytes] = deque(maxlen=2)
        self.default_jitter = inspect.signature(fit_gp).parameters["jitter"].default

    def __call__(self, args, kwargs, gp) -> dict:
        owner = self.tracer.current()
        if owner is not self.owner:
            self.owner = owner
            self.recent.clear()
        X = np.ascontiguousarray(args[0], dtype=float)
        y = np.ascontiguousarray(args[1], dtype=float)
        key = hashlib.blake2b(X.tobytes() + b"|" + y.tobytes(), digest_size=16).digest()
        unchanged = key in self.recent
        self.recent.append(key)
        requested = kwargs.get("jitter", args[2] if len(args) > 2 else self.default_jitter)
        return {"points": len(X), "unchanged": int(unchanged),
                "escalated": int(gp.jitter > requested)}


def _rows(args, kwargs, result) -> dict:
    X = np.asarray(args[1] if len(args) > 1 else kwargs["X"])
    return {"rows": 1 if X.ndim == 1 else len(X)}


def _tree_nodes(args, kwargs, ensemble) -> dict:
    return {"tree_nodes": sum(len(t.feature) for t in ensemble.trees)}


def _hvi_points(args, kwargs, result) -> dict:
    return {"points": len(result)}


def _read_counts(args, kwargs, table) -> dict:
    return {"bytes_in": os.path.getsize(args[0]), "rows": table.n_rows}


def _write_counts(args, kwargs, paths) -> dict:
    return {"bytes_out": sum(os.path.getsize(p) for p in paths)}


def _sample_counts(args, kwargs, result) -> dict:
    subset, plan = result
    return {"kept": subset.n_rows, "total": args[0].n_rows,
            "converged": int(plan.rate_converged)}


def _sobo_name(args, kwargs) -> str:
    objective = args[3] if len(args) > 3 else kwargs["objective"]
    return f"optimizer.sobo_{objective}"


def _stage_name(args, kwargs) -> str:
    return f"pipeline.stage.{args[1] if len(args) > 1 else kwargs['name']}"


def _targets(tracer: Tracer):
    """(module, attribute, span name, layer, counter) for every wrapped name.

    Each attribute is the one the calling module looks up, so wrapping it
    catches every call the pipeline makes through it.
    """
    from hpcmobo.gp import fit_gp

    refits = _RefitTracker(tracer, fit_gp)
    targets = [
        ("hpcmobo.pipeline", "read_table", "ingest.read_table", "ingest", _read_counts),
        ("hpcmobo.pipeline", "preprocess_fit", "ingest.preprocess_fit", "ingest", None),
        ("hpcmobo.pipeline", "write_table", "ingest.write_table", "ingest", _write_counts),
        ("hpcmobo.pipeline", "sample_table", "sampler.sample_table", "sampler",
         _sample_counts),
        ("hpcmobo.sampler", "score_difficulty", "sampler.score_difficulty", "sampler",
         None),
        ("hpcmobo.sampler", "build_plan", "sampler.build_plan", "sampler", None),
        ("hpcmobo.sampler", "fit_tree_ensemble", "surrogate.fit", "surrogate", _tree_nodes),
        ("hpcmobo.pipeline", "train_objective_surrogate", "surrogate.train", "surrogate",
         None),
        ("hpcmobo.surrogate", "train_mask", "embedding.train_mask", "embedding", None),
        ("hpcmobo.surrogate", "fit_tree_ensemble", "surrogate.fit", "surrogate",
         _tree_nodes),
        ("hpcmobo.surrogate", "SurrogateModel.predict", "surrogate.predict", "surrogate",
         _rows),
        ("hpcmobo.pipeline", "mobo_run", "optimizer.mobo", "optimizer", None),
        ("hpcmobo.pipeline", "sobo_run", _sobo_name, "optimizer", None),
        ("hpcmobo.pipeline", "random_run", "optimizer.random", "optimizer", None),
        ("hpcmobo.optimizer", "evaluate_objectives", "optimizer.evaluate_objectives",
         "optimizer", None),
        ("hpcmobo.optimizer", "fit_gp", "gp.fit", "gp", refits),
        ("hpcmobo.optimizer", "gp_posterior", "gp.posterior", "gp", None),
        ("hpcmobo.optimizer", "hypervolume_improvement", "pareto.hvi", "pareto",
         _hvi_points),
        ("hpcmobo.pipeline", "PipelineRun.stage", _stage_name, "pipeline", None),
    ]
    for module in ("hpcmobo.optimizer", "hpcmobo.pipeline"):
        for attr in ("hypervolume", "nondominated", "spread", "infer_reference"):
            targets.append((module, attr, "pareto.bookkeeping", "pareto", None))
    return targets


def summarize(spans: list[Span]) -> dict:
    """Per-layer metrics from the spans of one traced run.

    The first span is the root around `run_pipeline`; it and the stage spans
    form the pipeline layer's self time.
    """
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        total[span.name] += span.duration
        self_s[span.name] += span.self_s
        calls[span.name] += 1
        layer_self[span.layer] += span.self_s
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "ingest.read_table_s": total["ingest.read_table"],
        "ingest.preprocess_fit_s": total["ingest.preprocess_fit"],
        "ingest.write_table_s": total["ingest.write_table"],
        "ingest.rows": counts["ingest.read_table.rows"],
        "ingest.bytes_in": counts["ingest.read_table.bytes_in"],
        "ingest.bytes_out": counts["ingest.write_table.bytes_out"],
        "sampler.score_difficulty_s": total["sampler.score_difficulty"],
        "sampler.build_plan_s": total["sampler.build_plan"],
        "sampler.kept_frac": ratio(counts["sampler.sample_table.kept"],
                                   counts["sampler.sample_table.total"]),
        "sampler.rate_converged": ratio(counts["sampler.sample_table.converged"],
                                        calls["sampler.sample_table"]),
        "embedding.train_mask_s": total["embedding.train_mask"],
        "embedding.train_mask_calls": calls["embedding.train_mask"],
        "surrogate.fit_s": total["surrogate.fit"],
        "surrogate.fit_calls": calls["surrogate.fit"],
        "surrogate.tree_nodes": counts["surrogate.fit.tree_nodes"],
        "surrogate.predict_s": total["surrogate.predict"],
        "surrogate.predict_calls": calls["surrogate.predict"],
        "surrogate.predict_rows": counts["surrogate.predict.rows"],
        "surrogate.rows_per_call": ratio(counts["surrogate.predict.rows"],
                                         calls["surrogate.predict"]),
        "gp.fit_s": total["gp.fit"],
        "gp.fit_calls": calls["gp.fit"],
        "gp.fit_points_mean": ratio(counts["gp.fit.points"], calls["gp.fit"]),
        "gp.refit_unchanged_frac": ratio(counts["gp.fit.unchanged"], calls["gp.fit"]),
        "gp.jitter_escalations": counts["gp.fit.escalated"],
        "gp.posterior_s": total["gp.posterior"],
        "gp.posterior_calls": calls["gp.posterior"],
        "pareto.hvi_s": total["pareto.hvi"],
        "pareto.hvi_calls": calls["pareto.hvi"],
        "pareto.hvi_points": counts["pareto.hvi.points"],
        "pareto.bookkeeping_s": total["pareto.bookkeeping"],
        "pareto.bookkeeping_calls": calls["pareto.bookkeeping"],
    }
    for method in OPTIMIZER_METHODS:
        out[f"optimizer.{method}_s"] = total[f"optimizer.{method}"]
        out[f"optimizer.{method}_self_s"] = self_s[f"optimizer.{method}"]
    for name, seconds in total.items():
        if name.startswith("pipeline.stage."):
            out[f"{name}_s"] = seconds
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds
    return out
