"""Checkpoint / resume semantics (FIXTURES.md §4 resume fixture): inject a
failure after the first committed wave, re-run, and assert the final table
equals a single-run table with no duplicate partitions in the manifest."""

from __future__ import annotations

import json

import pandas as pd
import pyarrow.dataset as pads
import pytest

from langfilter_ray.config import PipelineConfig
from langfilter_ray.state.checkpoint import (
    completed_parts,
    manifest_path,
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
