"""Spans around explainkit's public callables, recorded from the benchmark's
own files, and the per-layer metrics computed from them.

``Tracer.install`` rebinds each boundary function wherever explainkit's
modules hold it, and ``score_columns`` on every Predictor class, to a
wrapper that records a span in memory: name, request, parent span, start
and end. A span's self time is its duration minus the durations of its
direct children (calls nest strictly in one thread, so the children never
overlap). A boundary that is not found in the program is listed in
``missing``; the metrics that need it are left out.
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter_ns

import explainkit

SCORE = "predict.score_columns"
SPAWN = "predict.external_score_columns"
REQUEST = "bench.request"

# span name -> the explainkit function it wraps. The part of the span name
# before the dot is the layer: the module under src/explainkit/ that defines
# the function at this commit.
BOUNDARIES = {
    "tabular.load_csv": "load_csv",
    "predict.fit_ols": "fit_ols",
    "predict.fit_kernel_ridge": "fit_kernel_ridge",
    "breakdown.ag_break": "ag_break",
    "breakdown.lm_break": "lm_break",
    "shapley.shapley_exact": "shapley_exact",
    "shapley.shapley_sampled": "shapley_sampled",
    "relax.relaxation_trace": "relaxation_trace",
    "live.sample_locally": "sample_locally",
    "live.add_predictions": "add_predictions",
    "live.fit_explanation": "fit_explanation",
    "live.lasso_coordinate_descent": "lasso_coordinate_descent",
    "render.render_waterfall": "render_waterfall",
    "render.render_trace": "render_trace",
    "render.render_forest": "render_forest",
    "cli.export_json": "export_json",
}


def _attrs(name: str, args, kwargs, result) -> dict | None:
    """Counts recorded at the boundary, taken after the span has ended."""
    if name in (SCORE, SPAWN):
        columns = args[1] if len(args) > 1 else kwargs["columns"]
        return {"rows": len(columns[0]) if len(columns) else 0}
    if name == "live.lasso_coordinate_descent":
        return {"sweeps": int(result.n_sweeps)}
    if name.startswith("render."):
        return {"bytes": len(result.svg_text.encode("utf-8"))}
    if name == "cli.export_json":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"bytes": os.stat(path).st_size}
    if name == "shapley.shapley_sampled":
        return {"values_read": int(result.n_permutations) * len(result.std_errors) + 1}
    return None


class Span:
    __slots__ = ("id", "name", "request", "parent", "start", "end", "child_ns",
                 "score_calls", "attrs")

    def __init__(self, id_, name, request, parent, start):
        self.id = id_
        self.name = name
        self.request = request
        self.parent = parent
        self.start = start
        self.end = start
        self.child_ns = 0
        self.score_calls = 0
        self.attrs = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def self_ms(self) -> float:
        return (self.end - self.start - self.child_ns) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = None  # spans are recorded only while this is set
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def begin_request(self, label: str) -> Span:
        """Start recording the spans of one request, under a root span."""
        self.request = label
        return self.open(REQUEST)

    def end_request(self, root: Span) -> None:
        self.close(root)
        self.request = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.request, parent, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()
        parent = span.parent
        if parent is not None:
            parent.child_ns += span.end - span.start
            parent.score_calls += span.score_calls + (span.name in (SCORE, SPAWN))

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs = _attrs(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "explainkit" or n.startswith("explainkit."))]
        for span_name, attr in BOUNDARIES.items():
            original = getattr(explainkit, attr, None) or next(
                (getattr(m, attr) for m in modules if hasattr(m, attr)), None)
            if not callable(original):
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        predictor = getattr(explainkit, "Predictor", None)
        external = getattr(explainkit, "ExternalPredictor", None)
        classes = _subclasses(predictor) if predictor is not None else []
        wrapped = 0
        for cls in classes:
            method = cls.__dict__.get("score_columns")
            if method is None:
                continue
            is_external = external is not None and issubclass(cls, external)
            self._restore.append((cls, "score_columns", method))
            setattr(cls, "score_columns", self._wrap(SPAWN if is_external else SCORE, method))
            wrapped += 1
        if not wrapped:
            self.missing.append(SCORE)
        if external is None or "score_columns" not in external.__dict__:
            self.missing.append(SPAWN)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _sum_ms(names):
    return lambda by: sum(s.ms for n in names for s in by.get(n, ()))


def _sum_self_ms(names):
    return lambda by: sum(s.self_ms for n in names for s in by.get(n, ()))


def _count(names):
    return lambda by: sum(len(by.get(n, ())) for n in names)


def _sum_attr(names, key):
    return lambda by: sum(s.attrs[key] for n in names for s in by.get(n, ()))


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


SCORERS = (SCORE, SPAWN)
SHAPLEY = ("shapley.shapley_exact", "shapley.shapley_sampled")
RENDERS = ("render.render_waterfall", "render.render_trace", "render.render_forest")
AG = ("breakdown.ag_break",)


def _sampled_eval_ratio(by) -> float:
    spans = by.get(SHAPLEY[1], ())
    read = sum(s.attrs["values_read"] for s in spans)
    return sum(s.score_calls for s in spans) / read if read else 0.0


# metric -> (unit, span names it needs, its value from one request's spans by name)
PER_REQUEST = {
    "predict.score_calls": ("count", SCORERS, _count(SCORERS)),
    "predict.rows_scored": ("count", SCORERS, _sum_attr(SCORERS, "rows")),
    "predict.score_ms": ("ms", SCORERS, _sum_ms(SCORERS)),
    "predict.spawn_p50_ms": ("ms", (SPAWN,),
                             lambda by: _median_or_zero(s.ms for s in by.get(SPAWN, ()))),
    "breakdown.ag_break_ms": ("ms", AG, _sum_ms(AG)),
    "breakdown.ag_break_self_ms": ("ms", AG + SCORERS, _sum_self_ms(AG)),
    "breakdown.ag_break_score_calls": (
        "count", AG + SCORERS,
        lambda by: _median_or_zero(s.score_calls for s in by.get(AG[0], ()))),
    "shapley.exact_ms": ("ms", SHAPLEY[:1], _sum_ms(SHAPLEY[:1])),
    "shapley.sampled_ms": ("ms", SHAPLEY[1:], _sum_ms(SHAPLEY[1:])),
    "shapley.self_ms": ("ms", SHAPLEY + SCORERS, _sum_self_ms(SHAPLEY)),
    "shapley.score_calls": ("count", SHAPLEY + SCORERS,
                            lambda by: sum(s.score_calls for n in SHAPLEY for s in by.get(n, ()))),
    "shapley.sampled_eval_ratio": ("ratio", SHAPLEY[1:] + SCORERS, _sampled_eval_ratio),
    "relax.trace_ms": ("ms", ("relax.relaxation_trace",), _sum_ms(("relax.relaxation_trace",))),
    "relax.trace_self_ms": ("ms", ("relax.relaxation_trace",) + SCORERS,
                            _sum_self_ms(("relax.relaxation_trace",))),
    "live.sample_ms": ("ms", ("live.sample_locally",), _sum_ms(("live.sample_locally",))),
    "live.add_predictions_ms": ("ms", ("live.add_predictions",),
                                _sum_ms(("live.add_predictions",))),
    "live.fit_ms": ("ms", ("live.fit_explanation",), _sum_ms(("live.fit_explanation",))),
    "live.fit_self_ms": ("ms", ("live.fit_explanation", "live.lasso_coordinate_descent",
                                "predict.fit_ols") + SCORERS,
                         _sum_self_ms(("live.fit_explanation",))),
    "live.lasso_calls": ("count", ("live.lasso_coordinate_descent",),
                         _count(("live.lasso_coordinate_descent",))),
    "live.lasso_sweeps": ("count", ("live.lasso_coordinate_descent",),
                          _sum_attr(("live.lasso_coordinate_descent",), "sweeps")),
    "live.lasso_ms": ("ms", ("live.lasso_coordinate_descent",),
                      _sum_ms(("live.lasso_coordinate_descent",))),
    "render.waterfall_ms": ("ms", RENDERS[:1], _sum_ms(RENDERS[:1])),
    "render.trace_ms": ("ms", RENDERS[1:2], _sum_ms(RENDERS[1:2])),
    "render.forest_ms": ("ms", RENDERS[2:], _sum_ms(RENDERS[2:])),
    "render.svg_bytes": ("bytes", RENDERS, _sum_attr(RENDERS, "bytes")),
    "cli.export_json_ms": ("ms", ("cli.export_json",), _sum_ms(("cli.export_json",))),
    "cli.json_bytes": ("bytes", ("cli.export_json",), _sum_attr(("cli.export_json",), "bytes")),
}

SETUP = {
    "tabular.load_ms": ("ms", ("tabular.load_csv",), _sum_ms(("tabular.load_csv",))),
    "predict.fit_ms": ("ms", ("predict.fit_ols", "predict.fit_kernel_ridge"),
                       _sum_ms(("predict.fit_ols", "predict.fit_kernel_ridge"))),
}

# Layers whose self time makes up a request, for the shares in the report.
LAYERS = ("tabular", "predict", "relax", "breakdown", "shapley", "live", "render", "cli",
          "bench")


def _by_request(spans) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.request, {}).setdefault(s.name, []).append(s)
    return out


def layer_metrics(tracer: Tracer, setup_requests, timed_requests) -> tuple[dict, list[str]]:
    """Median over requests of every per-layer metric whose spans all exist.

    Returns ({name: (value, unit)}, [names left out because a boundary is missing]).
    """
    by_request = _by_request(tracer.spans)
    missing = set(tracer.missing)
    metrics, left_out = {}, []
    for table, requests in ((SETUP, setup_requests), (PER_REQUEST, timed_requests)):
        for name, (unit, needs, per_request) in table.items():
            if missing.intersection(needs):
                left_out.append(name)
                continue
            values = [per_request(by_request.get(r, {})) for r in requests]
            metrics[name] = (statistics.median(values), unit)
    return metrics, left_out


def exact_counts(tracer: Tracer, requests) -> dict:
    """Distinct values seen of the counts that repeat exactly at this commit:
    scorer calls per ``ag_break`` call, and per request the Shapley scorer
    calls, all scorer calls and the lasso calls."""
    by_request = _by_request(tracer.spans)
    out = {}
    if not set(tracer.missing).intersection(AG + SCORERS):
        out["breakdown.ag_break_score_calls"] = sorted(
            {s.score_calls for r in requests for s in by_request.get(r, {}).get(AG[0], ())})
    for name in ("shapley.score_calls", "predict.score_calls", "live.lasso_calls"):
        unit, needs, per_request = PER_REQUEST[name]
        if not set(tracer.missing).intersection(needs):
            out[name] = sorted({per_request(by_request.get(r, {})) for r in requests})
    return out


def layer_shares(tracer: Tracer, requests) -> dict:
    """Share of request wall time spent in each layer's own (self) time."""
    wanted = set(requests)
    totals = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    for s in tracer.spans:
        if s.request not in wanted:
            continue
        if s.name == REQUEST:
            wall += s.ms
        layer = s.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + s.self_ms
    return {k: v / wall for k, v in totals.items()} if wall else {}
