"""Incremental ingest (the reference's continuous job queue, batch-native):
re-running over a corpus directory processes ONLY files that arrived since
the last run, the union output is byte-equal to one full run, reruns with
nothing new are no-ops, and a crash mid-ingest resumes without duplicates."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pandas as pd
import pyarrow.dataset as pads
import pytest

from langfilter_ray.config import PipelineConfig
from langfilter_ray.corpus import gen_table
from langfilter_ray.state.checkpoint import (
    ingest_log_path,
    run_incremental,
    run_with_checkpoints,
)

N_PARTS = 8
CFG = PipelineConfig()


def _write_file(dir_: Path, name: str, n: int, start: int) -> None:
    import pyarrow.parquet as pq

    dir_.mkdir(parents=True, exist_ok=True)
    pq.write_table(gen_table(n, 42, start), dir_ / name)


def _labels(out_dir: Path) -> pd.DataFrame:
    dset = pads.dataset(out_dir, format="parquet", partitioning="hive")
    df = dset.to_table(
        columns=["repo", "path", "commit", "keep", "gate_decision", "language"]
    ).to_pandas()
    return df.sort_values(["repo", "path", "commit"]).reset_index(drop=True)


@pytest.fixture()
def corpus(tmp_path: Path) -> Path:
    d = tmp_path / "corpus"
    _write_file(d, "a.parquet", 120, 0)
    _write_file(d, "b.parquet", 120, 120)
    return d


def test_incremental_processes_only_new_files(ray_session, tmp_path, corpus):
    out = tmp_path / "out"
    s1 = run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    assert s1["new_files"] == 2 and s1["ingests"] == 1
    assert s1["rows_in"] == 240

    first_ingest = sorted(out.glob("ingest=*"))
    assert len(first_ingest) == 1
    stamp_before = {
        p: p.stat().st_mtime_ns for p in first_ingest[0].rglob("*.parquet")
    }

    # a new file arrives; only it is processed, the first ingest untouched
    _write_file(corpus, "c.parquet", 60, 240)
    s2 = run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    assert s2["new_files"] == 1 and s2["ingests"] == 2
    assert s2["rows_in"] == 300
    stamp_after = {
        p: p.stat().st_mtime_ns for p in first_ingest[0].rglob("*.parquet")
    }
    assert stamp_before == stamp_after, "existing ingest output was rewritten"

    # union output == one full run over all three files (order-free)
    full_out = tmp_path / "full"
    run_with_checkpoints(corpus, full_out, CFG, num_parts=N_PARTS)
    got, want = _labels(out), _labels(full_out)
    pd.testing.assert_frame_equal(got, want)


def test_incremental_rerun_is_noop(ray_session, tmp_path, corpus):
    out = tmp_path / "out"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    log_lines = ingest_log_path(out).read_text().count("\n")
    s = run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    assert s["new_files"] == 0 and s["resumed_ingests"] == 0
    assert ingest_log_path(out).read_text().count("\n") == log_lines


def test_incremental_resumes_crashed_ingest_without_duplicates(
    ray_session, tmp_path, corpus
):
    out = tmp_path / "out"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)

    _write_file(corpus, "c.parquet", 60, 240)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_incremental(
            corpus, out, CFG, num_parts=N_PARTS, wave_size=2, fail_after_waves=1
        )
    # the crashed ingest is claimed but not done; ANOTHER file arrives
    _write_file(corpus, "d.parquet", 60, 300)
    s = run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    assert s["resumed_ingests"] == 1      # c.parquet's claim finished first
    assert s["new_files"] == 1            # d.parquet became its own ingest
    assert s["rows_in"] == 360

    full_out = tmp_path / "full"
    run_with_checkpoints(corpus, full_out, CFG, num_parts=N_PARTS)
    pd.testing.assert_frame_equal(_labels(out), _labels(full_out))


def test_incremental_refuses_config_mix_on_pending(ray_session, tmp_path, corpus):
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="injected failure"):
        run_incremental(
            corpus, out, CFG, num_parts=N_PARTS, wave_size=2, fail_after_waves=1
        )
    import dataclasses

    other = dataclasses.replace(CFG, strict_reject=True)
    with pytest.raises(RuntimeError, match="config_hash"):
        run_incremental(corpus, out, other, num_parts=N_PARTS)


def test_incremental_refuses_layout_change_on_pending(ray_session, tmp_path,
                                                      corpus):
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="injected failure"):
        run_incremental(
            corpus, out, CFG, num_parts=N_PARTS, wave_size=2, fail_after_waves=1
        )
    before = ingest_log_path(out).read_bytes()
    with pytest.raises(RuntimeError, match="partition layout"):
        run_incremental(corpus, out, CFG, num_parts=N_PARTS * 2)
    assert ingest_log_path(out).read_bytes() == before


@pytest.mark.parametrize("name, value", [
    ("num_parts", 0), ("wave_size", -1), ("batch_size", 0),
])
def test_incremental_refuses_non_positive_arguments(tmp_path, corpus, name,
                                                    value):
    """A refused argument claims no file: the ledger is not written, so the
    inbox is still unclaimed for the next run."""
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=name):
        run_incremental(corpus, out, CFG, **{name: value})
    assert not ingest_log_path(out).exists()


def test_incremental_empty_inbox_is_noop(tmp_path):
    (tmp_path / "in").mkdir()
    s = run_incremental(tmp_path / "in", tmp_path / "out", CFG)
    assert s["new_files"] == 0 and s["rows_in"] == 0
    assert not ingest_log_path(tmp_path / "out").exists()


# ---- retention / purge (round-5 verdict item) -------------------------------

def test_purge_dry_run_apply_and_idempotence(ray_session, tmp_path, corpus):
    from langfilter_ray.state.checkpoint import purge_ingests

    out = tmp_path / "out"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)          # ingest 1
    _write_file(corpus, "c.parquet", 60, 240)
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)          # ingest 2
    _write_file(corpus, "d.parquet", 60, 300)
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)          # ingest 3
    trees = sorted(out.glob("ingest=*"))
    assert len(trees) == 3

    # dry run (the default): reports the victim, deletes nothing
    rep = purge_ingests(out, keep_ingests=2)
    assert rep["dry_run"] and len(rep["purged"]) == 1
    assert sorted(out.glob("ingest=*")) == trees
    victim = rep["purged"][0]
    assert len(rep["kept"]) == 2 and victim not in rep["kept"]

    # apply: oldest subtree gone, the two newest intact
    rep2 = purge_ingests(out, keep_ingests=2, apply=True)
    assert rep2["purged"] == [victim]
    assert not (out / f"ingest={victim}").exists()
    assert len(sorted(out.glob("ingest=*"))) == 2

    # idempotent: nothing left to purge at the same retention
    rep3 = purge_ingests(out, keep_ingests=2, apply=True)
    assert rep3["purged"] == [] and victim in rep3["already_purged"]


def test_purge_then_incremental_does_not_reingest(ray_session, tmp_path, corpus):
    """Retention, not reprocessing: purged files stay claimed in the
    ledger, so a later incremental run ingests only genuinely-new files;
    summaries count only the surviving subtrees."""
    from langfilter_ray.state.checkpoint import purge_ingests

    out = tmp_path / "out"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)          # a+b
    _write_file(corpus, "c.parquet", 60, 240)
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)          # c
    purge_ingests(out, keep_ingests=1, apply=True)                # drop a+b

    s = run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    assert s["new_files"] == 0 and s["resumed_ingests"] == 0
    assert s["ingests"] == 1 and s["rows_in"] == 60               # c only

    _write_file(corpus, "e.parquet", 40, 360)
    s2 = run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    assert s2["new_files"] == 1
    assert s2["ingests"] == 2 and s2["rows_in"] == 100            # c + e


def test_purge_never_touches_pending_ingests(ray_session, tmp_path, corpus):
    from langfilter_ray.state.checkpoint import purge_ingests

    out = tmp_path / "out"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    # crash mid-second-ingest: claimed but no ingest_done line
    _write_file(corpus, "c.parquet", 60, 240)
    with pytest.raises(RuntimeError, match="injected"):
        run_incremental(
            corpus, out, CFG, num_parts=N_PARTS, wave_size=2,
            fail_after_waves=1,
        )
    rep = purge_ingests(out, keep_ingests=0, apply=True)
    assert len(rep["pending_untouched"]) == 1
    pending = rep["pending_untouched"][0]
    assert (out / f"ingest={pending}").exists()      # resume queue intact
    # and the pending ingest still completes afterwards
    s = run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    assert s["resumed_ingests"] == 1 and s["ingests"] == 1
    assert s["rows_in"] == 60


# ---- cross-ingest exact dedup (round-5 addition) ----------------------------

def test_dedup_across_ingests_drops_prior_content(ray_session, tmp_path, corpus):
    """Rows whose exact content appeared in a prior completed ingest are
    dropped ENTIRELY from later ingests; fresh content flows through."""
    out = tmp_path / "out"
    s1 = run_incremental(
        corpus, out, CFG, num_parts=N_PARTS, dedup_across_ingests=True
    )
    assert s1["rows_in"] == 240
    # c.parquet: rows 200-239 repeat b.parquet's tail (same seed+index =>
    # identical rows), rows 240-279 are new
    _write_file(corpus, "c.parquet", 80, 200)
    s2 = run_incremental(
        corpus, out, CFG, num_parts=N_PARTS, dedup_across_ingests=True
    )
    assert s2["new_files"] == 1

    def digests(d):
        # kept rows only: a cascade-dropped row has a null digest
        dset = pads.dataset(d, format="parquet", partitioning="hive")
        return set(dset.to_table(columns=["content_sha256"])[
            "content_sha256"].to_pylist()) - {None}

    ingests = sorted(out.glob("ingest=*"), key=lambda p: p.stat().st_mtime)
    first, second = digests(ingests[0]), digests(ingests[1])
    # dedup is by CONTENT: nothing in the second ingest repeats the first
    assert not (first & second)
    # the 40 identical rows (200-239) lost every kept row; of the 40 new
    # rows only those with genuinely-new content survive (the generator
    # has content collisions across index ranges, which is the point)
    n_second = int(_labels(ingests[1])["keep"].sum())
    assert 0 < n_second <= 40
    # content coverage is preserved: union digests == digests of a
    # dedup-off run over the same files (every distinct content kept once)
    out_ref = tmp_path / "ref"
    run_incremental(corpus, out_ref, CFG, num_parts=N_PARTS)
    assert (first | second) == digests(out_ref)
    # and no kept row identity appears twice in the union (a repeated
    # cascade-dropped row has no digest, so every ingest commits it)
    df = _labels(out)
    assert not df[df["keep"]].duplicated(["repo", "path", "commit"]).any()


def test_dedup_across_ingests_keeps_null_digest_rows(
    ray_session, tmp_path, corpus
):
    """Regression: rows the cascade drops carry a null content_sha256.
    The ledger must not store it (it once became the string "None") and
    the filter must never drop such a row, so a later ingest keeps every
    cascade-dropped row a dedup-off run commits."""
    def dropped_rows(out_dir):
        dset = pads.dataset(out_dir, format="parquet", partitioning="hive")
        t = dset.to_table(columns=["path", "content_sha256"])
        return {p for p, d in zip(t["path"].to_pylist(),
                                  t["content_sha256"].to_pylist()) if d is None}

    out, ref = tmp_path / "out", tmp_path / "ref"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS, dedup_across_ingests=True)
    _write_file(corpus, "c.parquet", 80, 200)
    run_incremental(corpus, out, CFG, num_parts=N_PARTS, dedup_across_ingests=True)
    run_incremental(corpus, ref, CFG, num_parts=N_PARTS)

    ingests = sorted(out.glob("ingest=*"), key=lambda p: p.stat().st_mtime)
    assert dropped_rows(ingests[0]), "the first ingest drops no row"
    assert dropped_rows(ingests[1])
    assert dropped_rows(out) == dropped_rows(ref)


def test_dedup_across_ingests_resume_matches_uncrashed(
    ray_session, tmp_path, corpus
):
    """A crash mid-ingest with the dedup flag resumes to the same output
    as an uncrashed run (the ledger snapshot is stable at resume)."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        run_incremental(
            corpus, out, CFG, num_parts=N_PARTS, dedup_across_ingests=True
        )
    _write_file(corpus, "c.parquet", 80, 200)
    # uncrashed reference
    run_incremental(
        corpus, out_a, CFG, num_parts=N_PARTS, dedup_across_ingests=True
    )
    # crashed + resumed
    with pytest.raises(RuntimeError, match="injected"):
        run_incremental(
            corpus, out_b, CFG, num_parts=N_PARTS, wave_size=2,
            fail_after_waves=1, dedup_across_ingests=True,
        )
    run_incremental(
        corpus, out_b, CFG, num_parts=N_PARTS, dedup_across_ingests=True
    )
    pd.testing.assert_frame_equal(_labels(out_a), _labels(out_b))


def test_dedup_across_ingests_refuses_mixed_mode(ray_session, tmp_path, corpus):
    """Turning the flag on over an output claimed without it must refuse
    (the config tag folds into the ledger hash)."""
    out = tmp_path / "out"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS)
    _write_file(corpus, "c.parquet", 80, 200)
    with pytest.raises(RuntimeError, match="injected"):
        run_incremental(
            corpus, out, CFG, num_parts=N_PARTS, wave_size=2,
            fail_after_waves=1,
        )
    with pytest.raises(RuntimeError, match="config_hash"):
        run_incremental(
            corpus, out, CFG, num_parts=N_PARTS, dedup_across_ingests=True
        )


def _operators(summary) -> list:
    """The operator stats of a Dataset stats summary, in plan order."""
    ops = []
    for parent in summary.parents:
        ops += _operators(parent)
    return ops + list(summary.operators_stats)


def _operator_names(summary) -> list[str]:
    return [op.operator_name for op in _operators(summary)]


@pytest.fixture()
def wave_stats(monkeypatch) -> list:
    """The stats summary of every ``write_datasink`` call, one per wave."""
    import ray.data

    summaries = []
    original = ray.data.Dataset.write_datasink

    def write_datasink(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        summaries.append(self._write_ds._get_stats_summary())
        return result

    monkeypatch.setattr(ray.data.Dataset, "write_datasink", write_datasink)
    return summaries


def test_wave_plan_is_read_one_task_write(ray_session, tmp_path, corpus, wave_stats):
    """Every checkpoint wave executes as ReadParquet -> one
    MapBatches(_cascade_task) -> Write, also with the part filter
    (wave_size < num_parts) and the ledger anti-filter active: an extra
    uncapped map_batches would show up as its own operator."""
    out = tmp_path / "out"
    run_incremental(corpus, out, CFG, num_parts=N_PARTS, wave_size=4,
                    dedup_across_ingests=True)
    _write_file(corpus, "c.parquet", 80, 200)     # rows 200-239 repeat b
    s = run_incremental(corpus, out, CFG, num_parts=N_PARTS, wave_size=4,
                        dedup_across_ingests=True)
    assert s["rows_in"] < 240 + 80                # the ledger dropped rows
    plans = [_operator_names(summary) for summary in wave_stats]
    assert len(plans) == 4                        # 2 ingests x 2 waves
    for names in plans:
        assert len(names) == 3, names
        assert names[0].startswith("ReadParquet"), names
        assert "MapBatches" not in names[0], names
        assert names[1:] == ["MapBatches(_cascade_task)", "Write"], names


def test_wave_reads_one_block_per_scorer_batch(ray_session, tmp_path, wave_stats):
    """A 12 x 1,000-row wave reads 12 blocks (the footer count over
    ``batch_size``), not Ray's default split of each file, and the scorer
    runs at most one task per batch of rows."""
    import re

    corpus = tmp_path / "corpus"
    for i in range(12):
        _write_file(corpus, f"f{i:02d}.parquet", 1000, 1000 * i)
    s = run_with_checkpoints(corpus, tmp_path / "out", CFG, concurrency=1)
    assert s["rows_in"] == 12_000
    assert len(wave_stats) == 1
    read, scorer, _ = _operators(wave_stats[0])
    assert read.operator_name.startswith("ReadParquet"), read.operator_name
    blocks = re.search(r"(\d+) blocks produced", read.block_execution_summary_str)
    assert int(blocks.group(1)) == 12, read.block_execution_summary_str
    assert scorer.operator_name == "MapBatches(_cascade_task)"
    assert scorer.task_rows["count"] <= -(-12_000 // 1024)
