"""Guards for the seams the benchmark (``perfbench/``) reaches into.

The traced benchmark run wraps ``state/checkpoint`` functions by module
attribute and replays the scorer stage with timers on the stage's own
functions.  If a refactor moves one of those names, the benchmark's traced
run fails while every other test still passes; these tests fail first.
Nothing under ``perfbench/`` is edited here.
"""

from __future__ import annotations

import statistics

import pyarrow as pa
import pyarrow.parquet as pq

from langfilter_ray.config import PipelineConfig
from langfilter_ray.corpus import SCHEMA, gen_table
from langfilter_ray.pipelines.quality_filter import CORPUS_COLUMNS, DEFAULT_NUM_PARTS
from langfilter_ray.state import checkpoint
from perfbench import probes, replay, run, workloads


def test_replay_times_every_layer():
    """Every layer of the single-process replay gets busy time and the
    cheap layer sees every row."""
    feed = replay.batches([gen_table(600).select(CORPUS_COLUMNS)])
    stage_s, clock, part_rows = replay.traced(feed, 64)
    assert stage_s > 0
    for layer in replay.LAYERS:
        assert clock.busy[layer] > 0, layer
    assert clock.count["cheap.rows"] == 600
    assert int(part_rows.sum()) == 600


def test_replay_covers_the_stage():
    """The layer spans of the traced replay cover the stage within the
    traced benchmark run's bound, on the benchmark's row mix: stage work
    outside every span fails the traced run."""
    table = pa.Table.from_pylist(workloads.mixed_rows(3000, 3), schema=SCHEMA)
    feed = replay.batches([table.select(CORPUS_COLUMNS)])
    shares = []
    for _ in range(3):
        stage_s, clock, _ = replay.traced(feed, DEFAULT_NUM_PARTS)
        attributed = sum(clock.busy[layer] for layer in replay.LAYERS)
        shares.append(abs(attributed - stage_s) / stage_s)
    assert statistics.median(shares) <= run.MAX_UNATTRIBUTED, shares


def test_checkpoint_trace_sees_waves_runs_and_summaries(ray_session, tmp_path):
    """The checkpoint trace records each wave's read, each runner call, the
    manifest summary and the incremental runner."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(gen_table(200), corpus / "a.parquet")
    with probes.trace_checkpoint() as trace:
        checkpoint.run_with_checkpoints(
            str(corpus), tmp_path / "full", PipelineConfig(),
            num_parts=4, wave_size=2, concurrency=(1, 2),
        )
        checkpoint.run_incremental(
            corpus, tmp_path / "incremental", PipelineConfig(),
            concurrency=(1, 2), dedup_across_ingests=True,
        )
    assert len(trace.runs) == 2
    assert trace.waves == 3
    assert len(trace.wave_seconds()) == 3
    assert all(s > 0 for s in trace.wave_seconds())
    assert trace.summary_s > 0
    assert trace.incremental_s > 0
