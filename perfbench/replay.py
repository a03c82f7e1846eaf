"""Single-process replay of the scorer stage, without Ray.

The replay feeds the workload's rows, in batches of the pipeline's batch
size, through ``add_partition`` and a ``CascadeScorer`` with scrub fused
in, as the one scorer actor of a run does.  The traced replay
wraps a timer around every public function the stage calls, and around
the model it builds through the ``model_factory`` seam, and attributes
each timer to a layer:

  partition  add_partition
  cheap      oracle.cheap_features
  pass1      model pass 1 + oracle.first_pass_decision
  pass2      textproc.filtered_text + model pass 2 + oracle.second_pass_decision
  fallback   model.forced_choice + oracle.residual_decision
  scrub      scrub_stage.scrub_batch (RE2 rules, sha256, snippet)
  assemble   CascadeScorer._append_columns (label column assembly)

The wrappers are installed on the stage's module namespace for the
duration of one replay and removed afterwards; the package is unchanged.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from langfilter_ray.config import DEFAULT_CONFIG
from langfilter_ray.functions.classifier import TrigramLidModel
from langfilter_ray.pipelines.quality_filter import DEFAULT_BATCH_SIZE, add_partition
from langfilter_ray.stages import cascade, scrub_stage

LAYERS = ("partition", "cheap", "pass1", "pass2", "fallback", "scrub", "assemble")


def batches(tables: list[pa.Table]) -> list[pa.Table]:
    """The rows of ``tables`` in pipeline-sized batches, in order."""
    out = []
    for t in tables:
        for start in range(0, len(t), DEFAULT_BATCH_SIZE):
            out.append(t.slice(start, DEFAULT_BATCH_SIZE))
    return out


class LayerClock:
    """Busy seconds and row counts per layer for one traced replay."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.model_calls_in_batch = 0

    def timed(self, layer: str, fn: Callable, on_result: Callable | None = None):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.busy[layer] += time.perf_counter() - t0
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper


class TimedModel:
    """The stage's model behind timers: the first ``classify_full`` of a
    batch is pass 1, the second is pass 2 (the stage calls it in that
    order, and only while rows remain undecided)."""

    def __init__(self, model, clock: LayerClock) -> None:
        self._model = model
        self._clock = clock

    def classify_full(self, texts):
        clock = self._clock
        layer = "pass1" if clock.model_calls_in_batch == 0 else "pass2"
        clock.model_calls_in_batch += 1
        clock.count[f"{layer}.rows"] += len(texts)
        t0 = time.perf_counter()
        result = self._model.classify_full(texts)
        clock.busy[layer] += time.perf_counter() - t0
        return result

    def forced_choice(self, texts, *args, **kwargs):
        t0 = time.perf_counter()
        result = self._model.forced_choice(texts, *args, **kwargs)
        self._clock.busy["fallback"] += time.perf_counter() - t0
        return result


@contextlib.contextmanager
def _patched(obj, name: str, value):
    original = inspect.getattr_static(obj, name)   # keeps a staticmethod whole
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, original)


def _instrument(stack: contextlib.ExitStack, clock: LayerClock) -> None:
    def count_decided(layer: str, decided: Callable[[object], bool]):
        def on_result(args, result):
            if decided(result):
                clock.count[f"{layer}.decided"] += 1
        return on_result

    def count_cheap(args, result):
        clock.count["cheap.rows"] += 1
        if result[1] is not None:
            clock.count["cheap.decided"] += 1

    def count_fallback(args, result):
        clock.count["fallback.rows"] += 1

    def count_scrub(args, result):
        clock.count["scrub.rows"] += pc.sum(args[0]["keep"]).as_py() or 0
        clock.count["scrub.flagged"] += pc.sum(result["scrubbed"]).as_py() or 0

    not_none = lambda result: result is not None  # noqa: E731
    wrap = clock.timed
    for name, layer, on_result in (
        ("cheap_features", "cheap", count_cheap),
        ("first_pass_decision", "pass1", count_decided("pass1", not_none)),
        ("filtered_text", "pass2", None),
        ("second_pass_decision", "pass2", count_decided("pass2", not_none)),
        ("residual_decision", "fallback", count_fallback),
    ):
        fn = getattr(cascade, name)
        stack.enter_context(_patched(cascade, name, wrap(layer, fn, on_result)))
    stack.enter_context(_patched(
        scrub_stage, "scrub_batch",
        wrap("scrub", scrub_stage.scrub_batch, count_scrub),
    ))
    stack.enter_context(_patched(
        cascade.CascadeScorer, "_append_columns",
        staticmethod(wrap("assemble", cascade.CascadeScorer._append_columns)),
    ))


def untraced(feed: list[pa.Table], num_parts: int) -> float:
    """Seconds the stage spends on ``feed`` with no timers installed."""
    scorer = cascade.CascadeScorer(DEFAULT_CONFIG, scrub=True)
    t0 = time.perf_counter()
    for batch in feed:
        scorer(add_partition(batch, num_parts=num_parts))
    return time.perf_counter() - t0


def traced(feed: list[pa.Table], num_parts: int) -> tuple[float, LayerClock, np.ndarray]:
    """Stage seconds, per-layer clock and rows per partition for ``feed``."""
    clock = LayerClock()
    part_rows = np.zeros(num_parts, dtype=np.int64)
    with contextlib.ExitStack() as stack:
        _instrument(stack, clock)
        scorer = cascade.CascadeScorer(
            DEFAULT_CONFIG, scrub=True,
            model_factory=lambda: TimedModel(TrigramLidModel(), clock),
        )
        t0 = time.perf_counter()
        for batch in feed:
            clock.model_calls_in_batch = 0
            t = time.perf_counter()
            batch = add_partition(batch, num_parts=num_parts)
            clock.busy["partition"] += time.perf_counter() - t
            scorer(batch)
        stage_s = time.perf_counter() - t0
    # outside the timed loop: partition sizes for the skew ratio
    for batch in feed:
        parts = add_partition(batch, num_parts=num_parts)["part"].to_numpy()
        part_rows += np.bincount(parts, minlength=num_parts)
    return stage_s, clock, part_rows
