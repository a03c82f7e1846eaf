"""The run-state ledgers keep their format: ``_manifest.jsonl`` and
``_ingested.jsonl`` lines written by hand in the established format read
the same, and every record kind this build writes has the established keys
in the established order.

The hand-written ledgers hold what a long-lived output directory can: a
duplicated partition line (a re-run after a crash between the manifest
line and the end of its wave), blank lines, and an ingest log with done,
purged and pending ingests.  None of the reader tests needs Ray: the
incremental runner is driven with its inner runner replaced by a
recorder.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from langfilter_ray.config import PipelineConfig
from langfilter_ray.state import checkpoint
from langfilter_ray.state.checkpoint import (
    completed_parts,
    ingest_log_path,
    manifest_path,
    purge_ingests,
    run_incremental,
    summarize_incremental,
    summarize_manifest,
)

MANIFEST_KEYS = ["partition", "committed_at", "config_hash", "input_fingerprint",
                 "files", "rows_in", "kept", "dropped", "scrubbed", "errors",
                 "by_decision"]
INGEST_KEYS = {
    "ingest_start": ["kind", "ingest", "files", "config_hash", "claimed_at"],
    "ingest_done": ["kind", "ingest", "committed_at"],
    "ingest_purged": ["kind", "ingest", "purged_at"],
}
SUMMARY_KEYS = ["partitions", "rows_in", "kept", "dropped", "scrubbed", "errors",
                "by_decision"]


def _manifest_line(partition: int, rows_in: int, kept: int, by_decision: dict,
                   *, scrubbed: int = 0, errors: int = 0, cfg: str = "cfg-a") -> str:
    return json.dumps({
        "partition": partition, "committed_at": 1700000000.25 + partition,
        "config_hash": cfg, "input_fingerprint": "0123456789abcdef", "files": 1,
        "rows_in": rows_in, "kept": kept, "dropped": rows_in - kept,
        "scrubbed": scrubbed, "errors": errors, "by_decision": by_decision,
    })


def _write_manifest(out_dir: Path, lines: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path(out_dir).write_text("".join(line + "\n" for line in lines))


# ---- _manifest.jsonl --------------------------------------------------------

@pytest.fixture()
def manifest_dir(tmp_path: Path) -> Path:
    out = tmp_path / "out"
    _write_manifest(out, [
        _manifest_line(0, 10, 7, {"kept_high_conf": 7, "dropped_no_content": 3},
                       scrubbed=2),
        "",
        _manifest_line(2, 5, 4, {"kept_high_conf": 4, "error": 1}, errors=1)
        + "   ",
        # the same partition committed again: the first line wins the sums
        _manifest_line(0, 99, 99, {"kept_high_conf": 99}),
        "  ",
    ])
    return out


def test_completed_parts_reads_established_manifest(manifest_dir):
    assert completed_parts(manifest_dir) == {0, 2}
    assert completed_parts(manifest_dir, expect_config_hash="cfg-a") == {0, 2}
    with pytest.raises(RuntimeError, match="config_hash=cfg-a"):
        completed_parts(manifest_dir, expect_config_hash="cfg-b")
    assert completed_parts(manifest_dir.parent / "absent") == set()


def test_summarize_manifest_reads_established_manifest(manifest_dir):
    s = summarize_manifest(manifest_dir)
    assert s == {
        "partitions": 2, "rows_in": 15, "kept": 11, "dropped": 4,
        "scrubbed": 2, "errors": 1,
        "by_decision": {"dropped_no_content": 3, "error": 1, "kept_high_conf": 11},
    }
    assert list(s) == SUMMARY_KEYS
    assert list(s["by_decision"]) == sorted(s["by_decision"])
    assert summarize_manifest(manifest_dir.parent / "absent") == {
        "partitions": 0, "rows_in": 0, "kept": 0, "dropped": 0, "scrubbed": 0,
        "errors": 0, "by_decision": {},
    }


# ---- _ingested.jsonl --------------------------------------------------------

CFG = PipelineConfig()


@pytest.fixture()
def ingest_out(tmp_path: Path) -> tuple[Path, Path, str]:
    """An incremental output whose ledger has a purged ingest ``A``, two
    completed ingests ``D`` (done first) and ``B``, and a pending ingest
    ``C``; the input directory holds a.parquet grown since its claim and
    an unclaimed e.parquet."""
    inbox, out = tmp_path / "in", tmp_path / "out"
    inbox.mkdir()
    sizes = {"a": 11, "b": 20, "c": 30, "d": 40, "e": 50}
    for name, size in sizes.items():
        (inbox / f"{name}.parquet").write_bytes(b"x" * size)
    f = {name: str(inbox / f"{name}.parquet") for name in sizes}
    cfg_hash = CFG.config_hash()
    log = [
        {"kind": "ingest_start", "ingest": "A", "files": [[f["a"], 10]],
         "config_hash": cfg_hash, "claimed_at": 10.0},
        {"kind": "ingest_done", "ingest": "A", "committed_at": 11.0},
        {"kind": "ingest_start", "ingest": "B", "files": [[f["b"], 20]],
         "config_hash": cfg_hash, "claimed_at": 20.0},
        {"kind": "ingest_start", "ingest": "D", "files": [[f["d"], 40]],
         "config_hash": cfg_hash, "claimed_at": 21.0},
        {"kind": "ingest_done", "ingest": "D", "committed_at": 22.0},
        {"kind": "ingest_done", "ingest": "B", "committed_at": 23.0},
        {"kind": "ingest_purged", "ingest": "A", "purged_at": 30.0},
        {"kind": "ingest_start", "ingest": "C", "files": [[f["c"], 30]],
         "config_hash": cfg_hash, "claimed_at": 40.0},
    ]
    out.mkdir()
    lines = [json.dumps(r) for r in log]
    lines.insert(3, "")
    ingest_log_path(out).write_text("".join(line + "\n" for line in lines))
    _write_manifest(out / "ingest=B", [
        _manifest_line(0, 6, 5, {"kept_high_conf": 5, "dropped_fallback": 1}),
        _manifest_line(1, 0, 0, {}),
    ])
    _write_manifest(out / "ingest=D", [
        _manifest_line(1, 4, 3, {"kept_second_pass": 3, "error": 1}, errors=1),
    ])
    _write_manifest(out / "ingest=C", [       # crashed after one wave
        _manifest_line(0, 2, 2, {"kept_high_conf": 2}, scrubbed=1),
    ])
    return inbox, out, cfg_hash


def test_summarize_incremental_reads_established_ledger(ingest_out):
    _, out, _ = ingest_out
    s = summarize_incremental(out)
    assert s == {
        "ingests": 3, "partitions": 4, "rows_in": 12, "kept": 10,
        "dropped": 2, "scrubbed": 1, "errors": 1,
        "by_decision": {"dropped_fallback": 1, "error": 1,
                        "kept_high_conf": 7, "kept_second_pass": 3},
    }
    assert list(s) == ["ingests", *SUMMARY_KEYS]


def test_purge_dry_run_reads_established_ledger(ingest_out):
    _, out, _ = ingest_out
    before = ingest_log_path(out).read_bytes()
    trees = sorted(out.glob("ingest=*"))
    assert purge_ingests(out, keep_ingests=1) == {
        "dry_run": True, "purged": ["D"], "kept": ["B"],
        "pending_untouched": ["C"], "already_purged": ["A"],
    }
    assert purge_ingests(out, keep_ingests=0)["purged"] == ["D", "B"]
    assert purge_ingests(out, keep_ingests=5)["purged"] == []
    assert ingest_log_path(out).read_bytes() == before
    assert sorted(out.glob("ingest=*")) == trees


def test_incremental_finishes_pending_then_claims_unclaimed(ingest_out, monkeypatch):
    """The pending ingest runs first on its frozen file list; a file is
    claimed by (path, size), so the grown a.parquet and the new e.parquet
    form the next ingest, and b/c/d are never re-read."""
    inbox, out, cfg_hash = ingest_out
    calls = []

    def record(files, out_dir, cfg, **kwargs):
        calls.append((list(files), Path(out_dir).name))

    monkeypatch.setattr(checkpoint, "run_with_checkpoints", record)
    s = run_incremental(inbox, out, CFG, num_parts=4)
    new = [str(inbox / "a.parquet"), str(inbox / "e.parquet")]
    new_id = checkpoint._input_fingerprint(new)
    assert calls == [([str(inbox / "c.parquet")], "ingest=C"),
                     (new, f"ingest={new_id}")]
    assert s["new_files"] == 2 and s["resumed_ingests"] == 1
    assert s["ingests"] == 3       # the recorder committed nothing

    tail = [json.loads(line) for line in
            ingest_log_path(out).read_text().splitlines()[-3:]]
    assert [(r["kind"], r["ingest"]) for r in tail] == [
        ("ingest_done", "C"), ("ingest_start", new_id), ("ingest_done", new_id)]
    assert tail[1]["files"] == [[new[0], 11], [new[1], 50]]
    assert tail[1]["config_hash"] == cfg_hash

    # everything is claimed and nothing is pending now: a no-op
    calls.clear()
    s = run_incremental(inbox, out, CFG, num_parts=4)
    assert calls == [] and s["new_files"] == 0 and s["resumed_ingests"] == 0


def test_incremental_refuses_pending_claimed_under_other_config(ingest_out):
    inbox, out, cfg_hash = ingest_out
    before = ingest_log_path(out).read_bytes()
    with pytest.raises(RuntimeError, match=f"pending ingest C .*{cfg_hash}"):
        run_incremental(inbox, out, PipelineConfig(strict_reject=True))
    assert ingest_log_path(out).read_bytes() == before


# ---- what this build writes -------------------------------------------------

def test_written_records_keep_established_keys(ray_session, tmp_path):
    """Every manifest line and every ingest record has the established keys
    in the established order, serialized as ``json.dumps`` does by
    default, one record per line."""
    import pyarrow.parquet as pq

    from langfilter_ray.corpus import gen_table

    inbox, out = tmp_path / "in", tmp_path / "out"
    inbox.mkdir()
    pq.write_table(gen_table(120, 42, 0), inbox / "a.parquet")
    run_incremental(inbox, out, CFG, num_parts=4, concurrency=(1, 2))
    pq.write_table(gen_table(60, 42, 120), inbox / "b.parquet")
    run_incremental(inbox, out, CFG, num_parts=4, concurrency=(1, 2))
    purge_ingests(out, keep_ingests=1, apply=True)

    def records(path: Path) -> list[dict]:
        lines = path.read_text().split("\n")
        assert lines[-1] == "" and all(lines[:-1])
        recs = [json.loads(line) for line in lines[:-1]]
        assert [json.dumps(r) for r in recs] == lines[:-1]
        return recs

    ledger = records(ingest_log_path(out))
    assert [r["kind"] for r in ledger] == [
        "ingest_start", "ingest_done", "ingest_start", "ingest_done",
        "ingest_purged"]
    for r in ledger:
        assert list(r) == INGEST_KEYS[r["kind"]], r
    assert ledger[0]["files"] == [[str(inbox / "a.parquet"),
                                   (inbox / "a.parquet").stat().st_size]]
    assert ledger[4]["ingest"] == ledger[0]["ingest"]

    survivor = ledger[2]["ingest"]
    lines = records(manifest_path(out / f"ingest={survivor}"))
    assert [r["partition"] for r in lines] == [0, 1, 2, 3]
    for r in lines:
        assert list(r) == MANIFEST_KEYS, r
        assert r["config_hash"] == CFG.config_hash()
        assert r["input_fingerprint"] == survivor
    assert sum(r["rows_in"] for r in lines) == 60
