"""Spans and per-call aggregates around renalrisk's public functions.

`installed(tracer)` replaces module and class attributes of the renalrisk
package with timing wrappers for the duration of one in-process job and puts
the originals back afterwards. Nothing under src/ knows about it, and the child
processes of the untraced runs never import this file.

A call made once per stage or per task is a span (name, start, end, parent
span, run id). A call made once per item (per timeline, per trigger, per
gradient step) is folded into an aggregate of count and busy time under its
enclosing span, so tracing stays cheap. For generators only the time inside
next() is charged, never the consumer's time between items. A frame's self
time is its duration minus the time its wrapped children took.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

STAGES = ("synth", "triggers", "featurize", "train", "predict", "evaluate")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    self_s: float
    run: str


@dataclass
class Aggregate:
    name: str
    parent: int | None
    count: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name: str, span_id: int | None):
        self.name = name
        self.span_id = span_id  # own id for a span, the enclosing span's for an aggregate
        self.child_s = 0.0


class Tracer:
    """In-memory spans, aggregates and counters for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[str, int | None], Aggregate] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [_Frame("root", None)]
        self._last_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span."""
        with self.span(name):
            return fn(*args, **kwargs)

    def call_item(self, name: str, fn, *args, **kwargs):
        """Run fn and fold it into the aggregate `name` under the enclosing span."""
        stack = self._stack
        parent = stack[-1]
        frame = _Frame(name, parent.span_id)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            parent.child_s += duration
            self._fold(name, parent.span_id, duration, frame.child_s)

    def _fold(self, name: str, parent: int | None, duration: float, child_s: float) -> None:
        agg = self.aggregates.get((name, parent))
        if agg is None:
            agg = self.aggregates[(name, parent)] = Aggregate(name, parent)
        agg.count += 1
        agg.busy_s += duration
        agg.self_s += duration - child_s

    @contextmanager
    def span(self, name: str):
        """Time the body of a with-block as one span."""
        parent = self._stack[-1]
        self._last_id += 1
        frame = _Frame(name, self._last_id)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            parent.child_s += end - start
            self.spans.append(
                Span(
                    frame.span_id,
                    name,
                    parent.span_id,
                    start,
                    end,
                    end - start - frame.child_s,
                    self.run_id,
                )
            )

    def iterate(self, name: str, iterator):
        """Yield from iterator, charging only the time spent inside next()."""
        stack = self._stack
        items = 0
        try:
            while True:
                parent = stack[-1]
                frame = _Frame(name, parent.span_id)
                stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    duration = time.perf_counter() - start
                    stack.pop()
                    parent.child_s += duration
                    self._fold(name, parent.span_id, duration, frame.child_s)
                items += 1
                yield item
        finally:
            self.counters[name + ".items"] += items

    # -- queries -----------------------------------------------------------

    def span_names(self) -> dict[int, str]:
        return {s.id: s.name for s in self.spans}

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def span_total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def span_self(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def agg(self, name: str, under: str | None = None) -> Aggregate:
        """All aggregates of name, optionally only those whose enclosing span is `under*`."""
        names = self.span_names()
        total = Aggregate(name, None)
        for agg in self.aggregates.values():
            if agg.name != name:
                continue
            if under is not None and not names.get(agg.parent, "").startswith(under):
                continue
            total.count += agg.count
            total.busy_s += agg.busy_s
            total.self_s += agg.self_s
        return total

    def dump(self, path: Path) -> None:
        record = {
            "run": self.run_id,
            "spans": [asdict(s) for s in self.spans],
            "aggregates": [asdict(a) for a in self.aggregates.values()],
            "counters": dict(self.counters),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Instrumentation table


def _wrap_call(tracer: Tracer, name: str, fn, per_item=False, on_result=None):
    timed = tracer.call_item if per_item else tracer.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = timed(name, fn, *args, **kwargs)
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn, on_pass=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[name + ".passes"] += 1
        if on_pass is not None:
            on_pass(*args, **kwargs)
        return tracer.iterate(name, fn(*args, **kwargs))

    return wrapper


def _instruments(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced public function."""
    from renalrisk import claims, evaluation, features, model, pipeline, synth, triggers

    count = tracer.counters

    def call(name, per_item=False, on_result=None):
        return lambda fn: _wrap_call(tracer, name, fn, per_item, on_result)

    def gen(name, on_pass=None):
        return lambda fn: _wrap_generator(tracer, name, fn, on_pass)

    def on_generate(summary, *args, **kwargs):
        count["synth.claims_written"] += summary.n_claims

    def on_parse_pass(source, *args, **kwargs):
        if isinstance(source, (str, Path)):
            count["claims.parse_bytes"] += Path(source).stat().st_size

    def on_enumerate(trigs, *args, **kwargs):
        count["triggers.candidates"] += len(trigs)
        count["triggers.eligible"] += sum(1 for t in trigs if t.eligible)

    def on_train(result, *args, **kwargs):
        count["model.tasks_trained"] += 1
        count["model.epochs_run"] += len(result.log)
        count["model.best_epoch_sum"] += result.best_epoch

    def on_grad(result, weights, bias, matrix, y, rows):
        count["model.grad_rows"] += len(rows)

    def on_lineage(lineage, cfg, stage, cache):
        paths = pipeline.artifact_paths(cfg)
        for input_name in pipeline.STAGES[stage].inputs(cfg):
            count["pipeline.lineage_input_bytes"] += paths[input_name].stat().st_size

    return [
        (synth, "generate", call("synth.generate", on_result=on_generate)),
        (synth, "calibrate_hazard_multiplier", call("synth.calibrate_hazard_multiplier")),
        (claims, "iter_timelines", gen("claims.iter_timelines", on_parse_pass)),
        (triggers, "enumerate_triggers", call("triggers.enumerate_triggers", True, on_enumerate)),
        (triggers, "iter_trigger_rows", gen("triggers.iter_trigger_rows")),
        (features.CompiledTimeline, "__init__", call("features.CompiledTimeline", True)),
        (
            features.CompiledTimeline,
            "active_pair_buckets",
            call("features.active_pair_buckets", True),
        ),
        (features.CompiledTimeline, "active_indices", call("features.active_indices", True)),
        (features, "read_feature_matrix", call("features.read_feature_matrix")),
        (features, "iter_feature_rows", gen("features.iter_feature_rows")),
        (model, "train", call("model.train", on_result=on_train)),
        (model, "loss_and_grad", call("model.loss_and_grad", True, on_grad)),
        (model, "validation_loss", call("model.validation_loss", True)),
        (model, "predict_matrix", call("model.predict_matrix")),
        (model, "save_model", call("model.save_model")),
        (model, "load_model", call("model.load_model")),
        (evaluation, "horizon_metrics", call("evaluation.horizon_metrics")),
        (evaluation, "access_before_onset", call("evaluation.access_before_onset", True)),
        (evaluation, "impact_analysis", call("evaluation.impact_analysis")),
        (evaluation, "prevalence_table", call("evaluation.prevalence_table")),
        (pipeline, "expected_lineage", call("pipeline.expected_lineage", on_result=on_lineage)),
        (pipeline, "stage_is_fresh", call("pipeline.stage_is_fresh")),
        (pipeline, "write_text_artifact", call("pipeline.write_text_artifact")),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, factory in _instruments(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_attributes() -> list[str]:
    """Names of traced functions that are currently replaced by a wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in _instruments(Tracer("probe"))
        if hasattr(owner.__dict__[attr], "__wrapped__")
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER_UNITS: dict[str, str] = {
    "cli.startup_s": "s",
    "synth.generate_s": "s",
    "synth.calibrate_s": "s",
    "synth.claims_written": "count",
    "claims.parse_calls": "count",
    "claims.parse_s": "s",
    "claims.timelines": "count",
    "claims.parse_mb_per_s": "MB/s",
    "triggers.enumerate_s": "s",
    "triggers.enumerate_calls": "count",
    "triggers.candidates": "count",
    "triggers.eligible": "count",
    "triggers.eligible_ratio": "ratio",
    "triggers.read_passes": "count",
    "triggers.read_s": "s",
    "features.compile_s": "s",
    "features.compile_calls": "count",
    "features.pair_buckets_s": "s",
    "features.pair_buckets_calls": "count",
    "features.indices_s": "s",
    "features.indices_calls": "count",
    "features.vocab_size": "count",
    "features.nnz_per_row": "count",
    "features.read_matrix_s": "s",
    "features.read_rows_s": "s",
    "model.train_s": "s",
    "model.epochs_run": "count",
    "model.best_epoch": "count",
    "model.useful_epoch_ratio": "ratio",
    "model.grad_calls": "count",
    "model.grad_s": "s",
    "model.rows_per_s": "1/s",
    "model.valid_loss_s": "s",
    "model.step_other_s": "s",
    "model.predict_s": "s",
    "model.save_s": "s",
    "model.load_s": "s",
    "evaluation.horizon_metrics_s": "s",
    "evaluation.access_s": "s",
    "evaluation.access_calls": "count",
    "evaluation.impact_s": "s",
    "evaluation.prevalence_s": "s",
    "pipeline.lineage_calls": "count",
    "pipeline.lineage_s": "s",
    "pipeline.fresh_checks": "count",
    "pipeline.fresh_s": "s",
    "pipeline.lineage_input_mb": "MB",
    "pipeline.write_s": "s",
    "pipeline.stages_run": "count",
    "pipeline.stages_skipped": "count",
    **{f"stage.{stage}_s": "s" for stage in STAGES},
    **{f"stage.{stage}_unaccounted_frac": "ratio" for stage in STAGES},
    "trace.plain_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(
    tracer: Tracer,
    startup_s: float,
    rows: dict[str, float],
    stages_run: int,
    plain_s: float,
) -> dict[str, float]:
    """Every metric in PER_LAYER_UNITS from one traced job."""
    c = tracer.counters
    parse = tracer.agg("claims.iter_timelines")
    enum = tracer.agg("triggers.enumerate_triggers")
    compile_ = tracer.agg("features.CompiledTimeline")
    buckets = tracer.agg("features.active_pair_buckets")
    indices = tracer.agg("features.active_indices")
    grad = tracer.agg("model.loss_and_grad")
    valid = tracer.agg("model.validation_loss")
    access = tracer.agg("evaluation.access_before_onset")
    tasks = c["model.tasks_trained"]
    stage_total = {s: tracer.span_total(f"stage.{s}") for s in STAGES}
    traced_s = sum(stage_total.values())
    m = {
        "cli.startup_s": startup_s,
        "synth.generate_s": tracer.span_total("synth.generate"),
        "synth.calibrate_s": tracer.span_total("synth.calibrate_hazard_multiplier"),
        "synth.claims_written": c["synth.claims_written"],
        "claims.parse_calls": c["claims.iter_timelines.passes"],
        "claims.parse_s": parse.self_s,
        "claims.timelines": c["claims.iter_timelines.items"],
        "claims.parse_mb_per_s": _ratio(c["claims.parse_bytes"] / 1e6, parse.self_s),
        "triggers.enumerate_s": enum.busy_s,
        "triggers.enumerate_calls": enum.count,
        "triggers.candidates": c["triggers.candidates"],
        "triggers.eligible": c["triggers.eligible"],
        "triggers.eligible_ratio": _ratio(c["triggers.eligible"], c["triggers.candidates"]),
        "triggers.read_passes": c["triggers.iter_trigger_rows.passes"],
        "triggers.read_s": tracer.agg("triggers.iter_trigger_rows").self_s,
        "features.compile_s": compile_.busy_s,
        "features.compile_calls": compile_.count,
        "features.pair_buckets_s": buckets.busy_s,
        "features.pair_buckets_calls": buckets.count,
        "features.indices_s": indices.self_s,
        "features.indices_calls": indices.count,
        "features.vocab_size": rows.get("vocab_size", 0.0),
        "features.nnz_per_row": rows.get("feature_nnz_per_row", 0.0),
        "features.read_matrix_s": tracer.span_total("features.read_feature_matrix"),
        "features.read_rows_s": tracer.agg("features.iter_feature_rows", under="stage.").self_s,
        "model.train_s": tracer.span_total("model.train"),
        "model.epochs_run": c["model.epochs_run"],
        "model.best_epoch": _ratio(c["model.best_epoch_sum"], tasks),
        "model.useful_epoch_ratio": _ratio(
            c["model.best_epoch_sum"] + tasks, c["model.epochs_run"]
        ),
        "model.grad_calls": grad.count,
        "model.grad_s": grad.busy_s,
        "model.rows_per_s": _ratio(c["model.grad_rows"], grad.busy_s),
        "model.valid_loss_s": valid.busy_s,
        "model.step_other_s": tracer.span_self("model.train"),
        "model.predict_s": tracer.span_total("model.predict_matrix"),
        "model.save_s": tracer.span_total("model.save_model"),
        "model.load_s": tracer.span_total("model.load_model"),
        "evaluation.horizon_metrics_s": tracer.span_total("evaluation.horizon_metrics"),
        "evaluation.access_s": access.busy_s,
        "evaluation.access_calls": access.count,
        "evaluation.impact_s": tracer.span_total("evaluation.impact_analysis"),
        "evaluation.prevalence_s": tracer.span_total("evaluation.prevalence_table"),
        "pipeline.lineage_calls": tracer.span_count("pipeline.expected_lineage"),
        "pipeline.lineage_s": tracer.span_total("pipeline.expected_lineage"),
        "pipeline.fresh_checks": tracer.span_count("pipeline.stage_is_fresh"),
        "pipeline.fresh_s": tracer.span_total("pipeline.stage_is_fresh"),
        "pipeline.lineage_input_mb": c["pipeline.lineage_input_bytes"] / 1e6,
        "pipeline.write_s": tracer.span_self("pipeline.write_text_artifact"),
        "pipeline.stages_run": stages_run,
        "pipeline.stages_skipped": len(STAGES) - stages_run,
        "trace.plain_s": plain_s,
        "trace.traced_s": traced_s,
        "trace.overhead_frac": _ratio(traced_s - plain_s, plain_s),
    }
    for stage in STAGES:
        m[f"stage.{stage}_s"] = stage_total[stage]
        m[f"stage.{stage}_unaccounted_frac"] = _ratio(
            tracer.span_self(f"stage.{stage}"), stage_total[stage]
        )
    return m
