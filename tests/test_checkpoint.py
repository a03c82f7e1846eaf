"""Checkpoint / resume semantics (FIXTURES.md §4 resume fixture): inject a
failure after the first committed wave, re-run, and assert the final table
equals a single-run table with no duplicate partitions in the manifest."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pandas as pd
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from langfilter_ray.config import PipelineConfig
from langfilter_ray.state import checkpoint
from langfilter_ray.state.checkpoint import (
    completed_parts,
    manifest_path,
    run_incremental,
    run_with_checkpoints,
    summarize_manifest,
)

KEY = ["repo", "path", "commit"]
NUM_PARTS = 8
CFG = PipelineConfig()


def _read_output(out_dir) -> pd.DataFrame:
    t = pads.dataset(str(out_dir), format="parquet", partitioning="hive").to_table(
        columns=["repo", "path", "commit", "keep", "gate_decision", "content_sha256"]
    )
    return t.to_pandas().sort_values(KEY).reset_index(drop=True)


@pytest.fixture(scope="module")
def single_run(ray_session, unit_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "single"
    summary = run_with_checkpoints(
        unit_corpus_dir, out, CFG, num_parts=NUM_PARTS, concurrency=(1, 2)
    )
    return out, summary


def test_single_run_summary(single_run):
    out, summary = single_run
    assert summary["partitions"] == NUM_PARTS
    assert summary["rows_in"] == 2000
    assert summary["kept"] + summary["dropped"] == 2000
    assert summary["errors"] == 0
    assert summary["by_decision"]["kept_high_conf"] > 0


def test_manifest_lines_carry_lineage(single_run):
    out, _ = single_run
    lines = [json.loads(l) for l in open(manifest_path(out)) if l.strip()]
    assert len(lines) == NUM_PARTS
    assert len({l["partition"] for l in lines}) == NUM_PARTS   # no duplicates
    assert all(l["config_hash"] == CFG.config_hash() for l in lines)
    assert all(l["input_fingerprint"] == lines[0]["input_fingerprint"] for l in lines)


def test_manifest_counts_parquet_files(single_run):
    out, summary = single_run
    lines = [json.loads(l) for l in open(manifest_path(out)) if l.strip()]
    files = list(out.glob("part=*/*.parquet"))
    assert files and sum(l["files"] for l in lines) == len(files)
    assert "files" not in summary      # a layout record, not a row total


def test_resume_after_injected_failure(ray_session, unit_corpus_dir, tmp_path, single_run):
    out = tmp_path / "resumed"
    # crash after 2 committed waves of 2 partitions each
    with pytest.raises(RuntimeError, match="injected failure"):
        run_with_checkpoints(
            unit_corpus_dir, out, CFG, num_parts=NUM_PARTS,
            wave_size=2, fail_after_waves=2, concurrency=(1, 2),
        )
    assert len(completed_parts(out)) == 4

    # resume: only the remaining 4 partitions run
    summary = run_with_checkpoints(
        unit_corpus_dir, out, CFG, num_parts=NUM_PARTS,
        wave_size=2, concurrency=(1, 2),
    )
    assert summary["partitions"] == NUM_PARTS
    assert summary["rows_in"] == 2000

    single_dir, _ = single_run
    pd.testing.assert_frame_equal(_read_output(out), _read_output(single_dir))


def test_resume_noop_when_complete(ray_session, unit_corpus_dir, single_run):
    out, _ = single_run
    before = manifest_path(out).read_text()
    summary = run_with_checkpoints(
        unit_corpus_dir, out, CFG, num_parts=NUM_PARTS, concurrency=(1, 2)
    )
    assert manifest_path(out).read_text() == before    # nothing re-ran
    assert summary["rows_in"] == 2000


def test_resume_refuses_config_change(ray_session, unit_corpus_dir, single_run):
    import dataclasses

    out, _ = single_run
    changed = dataclasses.replace(CFG, mid_upper=0.85)
    with pytest.raises(RuntimeError, match="refusing to resume"):
        run_with_checkpoints(
            unit_corpus_dir, out, changed, num_parts=NUM_PARTS, concurrency=(1, 2)
        )


@pytest.mark.parametrize(
    "change", [{"num_parts": 4}, {"salt": 2}], ids=["num_parts", "salt"]
)
def test_resume_refuses_layout_change(ray_session, unit_corpus_dir, tmp_path,
                                      change):
    """num_parts and salt decide every row's part id: resuming under another
    layout would commit rows that a finished part already holds."""
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="injected failure"):
        run_with_checkpoints(unit_corpus_dir, out, CFG, num_parts=NUM_PARTS,
                             wave_size=1, fail_after_waves=2, concurrency=(1, 2))
    before = manifest_path(out).read_text()
    with pytest.raises(RuntimeError, match="refusing to resume"):
        run_with_checkpoints(unit_corpus_dir, out, CFG, wave_size=1,
                             concurrency=(1, 2),
                             **{"num_parts": NUM_PARTS, **change})
    assert manifest_path(out).read_text() == before


@pytest.mark.parametrize("name, value", [
    ("num_parts", 0), ("num_parts", -3), ("wave_size", 0), ("wave_size", -1),
    ("batch_size", 0),
])
def test_run_refuses_non_positive_arguments(unit_corpus_dir, tmp_path, name,
                                            value):
    """An argument that can select no part, wave or batch raises before
    anything is written, instead of committing nothing."""
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=name):
        run_with_checkpoints(unit_corpus_dir, out, CFG, **{name: value})
    assert not manifest_path(out).exists()


def test_run_refuses_input_without_parquet(tmp_path):
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "nested").mkdir()
    with pytest.raises(ValueError, match="input_path"):
        run_with_checkpoints(tmp_path / "in", tmp_path / "out", CFG)
    assert not manifest_path(tmp_path / "out").exists()


def test_cli_run_exits_on_bad_argument(ray_session, unit_corpus_dir, tmp_path,
                                       monkeypatch):
    import ray

    from langfilter_ray import cli

    monkeypatch.setattr(ray, "shutdown", lambda: None)   # the session's Ray
    with pytest.raises(SystemExit, match="num_parts"):
        cli.main(["run", "--input", unit_corpus_dir,
                  "--output", str(tmp_path / "out"), "--num-parts", "0"])


def test_waves_match_one_wave_with_lang_code_projection(
    ray_session, unit_corpus_dir, tmp_path
):
    """Partition filter and language-code projection run in the same task:
    one-partition waves commit exactly the rows of one wave, all columns."""
    cfg = PipelineConfig(lang_code_format="iso639-2b")

    def committed(out):
        t = pads.dataset(str(out), format="parquet", partitioning="hive").to_table()
        return t.sort_by([(k, "ascending") for k in KEY])

    one, waves = tmp_path / "one", tmp_path / "waves"
    run_with_checkpoints(unit_corpus_dir, one, cfg, num_parts=NUM_PARTS,
                         concurrency=(1, 2))
    run_with_checkpoints(unit_corpus_dir, waves, cfg, num_parts=NUM_PARTS,
                         wave_size=1, concurrency=(1, 2))
    want, got = committed(one), committed(waves)
    assert want.num_rows == 2000
    assert "eng" in want["language"].to_pylist()
    assert got.equals(want)


# ---- manifest counters come from the write: parity with a read-back -------

COUNTER_KEYS = ["rows_in", "kept", "dropped", "scrubbed", "errors", "by_decision"]
ZERO = {"rows_in": 0, "kept": 0, "dropped": 0, "scrubbed": 0, "errors": 0,
        "by_decision": {}}


def _partition_counters(part_dir: Path) -> dict[str, Any]:
    """Per-rule counters read back from the committed partition with column
    pruning (tiny label columns only, never content)."""
    dset = pads.dataset(part_dir, format="parquet")
    t = dset.to_table(columns=["gate_decision", "keep", "scrubbed", "error"])
    n = len(t)
    kept = int(pc.sum(pc.cast(t["keep"], "int64")).as_py() or 0)
    scrubbed = int(pc.sum(pc.cast(t["scrubbed"], "int64")).as_py() or 0)
    errors = int(pc.sum(pc.cast(pc.is_valid(t["error"]), "int64")).as_py() or 0)
    vc = t["gate_decision"].to_pandas().value_counts()
    return {
        "rows_in": n,
        "kept": kept,
        "dropped": n - kept,
        "scrubbed": scrubbed,
        "errors": errors,
        "by_decision": {str(k): int(v) for k, v in vc.items()},
    }


def _assert_counters_match_read_back(out_dir: Path) -> list[dict]:
    """Every manifest line's counters equal a read-back of its committed
    part; an empty part has its marker directory and all-zero counters."""
    lines = [json.loads(l) for l in open(manifest_path(out_dir)) if l.strip()]
    assert lines
    for line in lines:
        part_dir = Path(out_dir) / f"part={line['partition']}"
        assert part_dir.is_dir(), part_dir
        got = {k: line[k] for k in COUNTER_KEYS}
        if any(part_dir.iterdir()):
            assert got == _partition_counters(part_dir), line["partition"]
        else:
            assert got == ZERO and line["files"] == 0, line
    return lines


def test_counters_match_read_back_one_wave(single_run):
    out, summary = single_run
    lines = _assert_counters_match_read_back(out)
    assert sum(l["rows_in"] for l in lines) == summary["rows_in"] == 2000


def test_wave_below_write_min_rows_writes_one_file_per_part(single_run):
    """2000 rows < WRITE_MIN_ROWS: one write task, so one file per part."""
    out, _ = single_run
    lines = [json.loads(l) for l in open(manifest_path(out)) if l.strip()]
    assert len(lines) == NUM_PARTS
    assert [l["files"] for l in lines] == [1] * NUM_PARTS
    assert len(list(out.glob("part=*/*.parquet"))) == NUM_PARTS


def test_counters_match_read_back_across_crash_and_resume(
    ray_session, unit_corpus_dir, tmp_path
):
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="injected failure"):
        run_with_checkpoints(unit_corpus_dir, out, CFG, num_parts=NUM_PARTS,
                             wave_size=1, fail_after_waves=3, concurrency=(1, 2))
    assert len(_assert_counters_match_read_back(out)) == 3
    summary = run_with_checkpoints(unit_corpus_dir, out, CFG, num_parts=NUM_PARTS,
                                   wave_size=1, concurrency=(1, 2))
    assert len(_assert_counters_match_read_back(out)) == NUM_PARTS
    assert summary["rows_in"] == 2000


def test_counters_match_read_back_under_ledger_filter(ray_session, tmp_path):
    """The ledger anti-filter drops rows inside the scorer task; the
    counters see only the rows that reach the write."""
    import pyarrow.parquet as pq

    from langfilter_ray.corpus import gen_table

    corpus, out = tmp_path / "corpus", tmp_path / "out"
    corpus.mkdir()
    pq.write_table(gen_table(240, 42, 0), corpus / "a.parquet")
    run_incremental(corpus, out, CFG, num_parts=NUM_PARTS,
                    dedup_across_ingests=True)
    pq.write_table(gen_table(80, 42, 200), corpus / "b.parquet")  # 40 repeat a
    s = run_incremental(corpus, out, CFG, num_parts=NUM_PARTS,
                        dedup_across_ingests=True)
    assert s["ingests"] == 2 and s["rows_in"] < 240 + 80
    for ingest in sorted(out.glob("ingest=*")):
        _assert_counters_match_read_back(ingest)


def test_counters_merge_over_write_tasks(
    ray_session, unit_corpus_dir, tmp_path, monkeypatch
):
    """With a small WRITE_MIN_ROWS several write tasks return counters for
    the same part; the merged counters equal the read-back, and parts that
    got no row are committed as empty markers."""
    monkeypatch.setattr(checkpoint, "WRITE_MIN_ROWS", 64)
    out = tmp_path / "out"
    run_with_checkpoints(unit_corpus_dir, out, CFG, num_parts=64,
                         batch_size=128, concurrency=(1, 2))
    lines = _assert_counters_match_read_back(out)
    assert len(lines) == 64
    assert max(l["files"] for l in lines) > 1          # merged over tasks
    assert any(l["rows_in"] == 0 for l in lines)       # empty markers
    assert sum(l["rows_in"] for l in lines) == 2000


def test_sink_retry_overwrites_its_own_files(tmp_path):
    """A retried write task (same task index, same rows) overwrites the
    files of its first attempt: the rows land once, the counters repeat."""
    from types import SimpleNamespace

    import pyarrow as pa

    t = pa.table({
        "part": pa.array([0, 1, 0, 1, 3], pa.int32()),
        "keep": [True, False, True, None, False],
        "gate_decision": ["kept_high_conf", "dropped_too_short", "kept_high_conf",
                          None, "error"],
        "scrubbed": [True, False, False, False, False],
        "error": pa.array([None, None, None, None, "ValueError: x"], pa.string()),
    })
    sink = checkpoint._CountingSink(tmp_path / "w")
    ctx = SimpleNamespace(task_idx=7)
    first = sink.write([t.slice(0, 2), t.slice(0, 0), t.slice(2)], ctx)
    again = sink.write([t], ctx)
    assert again == first
    assert sorted(first) == [0, 1, 3]
    assert first[1] == {"rows_in": 2, "kept": 0, "dropped": 2, "scrubbed": 0,
                        "errors": 0, "by_decision": {"dropped_too_short": 1}}
    for part in (0, 1, 3):
        part_dir = tmp_path / "w" / f"part={part}"
        assert len(list(part_dir.glob("*.parquet"))) == 1
        assert first[part] == _partition_counters(part_dir)
    assert sink.write([t.slice(0, 0)], ctx) == {}


# ---- read blocks sized from the parquet footers ----------------------------

def _rows_file(path: Path, n: int) -> str:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"x": np.zeros(n, dtype=np.int8)}), path)
    return str(path)


def test_scorer_cap_reads_every_concurrency_form(monkeypatch):
    import ray

    from langfilter_ray.pipelines.quality_filter import scorer_cap

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 32.0})
    assert scorer_cap(None) == 24          # _default_pool_size at 32 CPUs
    assert scorer_cap((1, 3)) == 3
    assert scorer_cap(5) == 5


def test_wave_read_blocks_one_per_batch_of_footer_rows(tmp_path):
    from langfilter_ray.pipelines.quality_filter import wave_read_blocks

    twelve = [_rows_file(tmp_path / f"f{i}.parquet", 1000) for i in range(12)]
    assert wave_read_blocks(twelve, 1024) == 12       # ceil(12000 / 1024)
    assert wave_read_blocks(twelve[:3], 1000) == 3    # exact multiple
    extra = _rows_file(tmp_path / "one.parquet", 1)
    assert wave_read_blocks([*twelve[:3], extra], 1000) == 4
    drop = [_rows_file(tmp_path / "drop.parquet", 800)]
    assert wave_read_blocks(drop, 1024) == 1          # a short drop: one block


def test_wave_read_blocks_zero_rows(tmp_path):
    from langfilter_ray.pipelines.quality_filter import wave_read_blocks

    empty = _rows_file(tmp_path / "empty.parquet", 0)
    assert wave_read_blocks([], 1024) == 1
    assert wave_read_blocks([empty], 1024) == 1
    assert wave_read_blocks([empty, empty], 1024) == 1


def test_wave_read_blocks_at_bench_scale(tmp_path):
    """1M rows: one block per scorer batch, whatever the scorer cap."""
    from langfilter_ray.pipelines.quality_filter import wave_read_blocks

    big = [_rows_file(tmp_path / "big.parquet", 1_000_000)]
    assert wave_read_blocks(big, 1024) == 977
