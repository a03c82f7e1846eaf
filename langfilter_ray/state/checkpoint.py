"""Per-partition atomic commit, lineage manifest, idempotent resume.

Replaces the reference's SQLite job-state machine (queued rows survive a
restart; models/models.py:12-16) with the batch-native equivalent
(SURVEY.md §4.1 "Checkpoint / resume"): the output directory holds one
subdirectory per repo-hash partition, each written to a temp path and
RENAMED into place, then recorded as one JSON line in ``_manifest.jsonl``
with row counters, its parquet file count and the config hash.  On
resume, partitions present in the manifest are skipped; because a
partition is a pure function of its input rows + config (the whole
pipeline is deterministic, including the classifier), re-running a
half-written partition simply overwrites it with identical bytes —
crash-between-rename-and-manifest is safe.

Wave execution: the remaining partitions are processed in waves of
``wave_size`` partitions per Dataset run (default: all remaining in ONE
streaming run — a wave is a resume granularity knob, not a parallelism
knob; resume tests use wave_size=1 to inject failures between commits).

Read: every wave reads all the input files as ``wave_read_blocks``
blocks, counted once per call from the parquet footers.

Write: a wave goes through ``_CountingSink`` (``Dataset.write_datasink``).
Ray bundles the scorer's blocks into write tasks of at least
``WRITE_MIN_ROWS`` rows, and each write task writes one file per part it
holds, so a part has about (the wave's rows) / ``WRITE_MIN_ROWS`` files
(one for any wave below that).  The manifest counters come from the
tables the write tasks wrote, merged on the driver; a committed part is
never read back to count it.  A committed part holds the labels and the
scrubbed text, never the input ``content``; a resume over parts that
hold it refuses (``_check_columns``).

Ledgers: ``_manifest.jsonl``, the partition-layout record
``_layout.jsonl`` and the ingest queue ``_ingested.jsonl`` are read only
through ``_jsonl`` and appended only through ``_append_jsonl``, which
fsyncs each record before it returns.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
from ray.data import Datasink
from ray.data.block import BlockAccessor

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..pipelines.quality_filter import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_NUM_PARTS,
    build_pipeline,
    read_corpus,
    wave_read_blocks,
)

MANIFEST_NAME = "_manifest.jsonl"
LAYOUT_NAME = "_layout.jsonl"


def manifest_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / MANIFEST_NAME


# ---- the JSON-lines ledgers: one reader, one durable appender --------------

def _jsonl(path: Path) -> Iterator[dict[str, Any]]:
    """The records of a JSON-lines ledger in file order; blank lines are
    skipped and a missing ledger has none."""
    if not path.exists():
        return
    with open(path) as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def _append_jsonl(path: Path, rec: dict[str, Any]) -> None:
    """Append one record and fsync it before returning: a record that is
    in the ledger survives a crash, and every ledger write goes here."""
    with open(path, "a") as fh:
        fh.write(json.dumps(rec) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def completed_parts(
    out_dir: str | Path, expect_config_hash: str | None = None
) -> set[int]:
    """Partitions already committed.  When ``expect_config_hash`` is given,
    a manifest written under a DIFFERENT config raises — mixing outputs of
    two rule sets in one directory would corrupt lineage (the config hash
    exists precisely to refuse this; SURVEY.md §1.4 'frozen PipelineConfig
    hashed into the run manifest')."""
    path = manifest_path(out_dir)
    done: set[int] = set()
    for rec in _jsonl(path):
        if (
            expect_config_hash is not None
            and rec.get("config_hash") != expect_config_hash
        ):
            raise RuntimeError(
                f"manifest at {path} was written with config_hash="
                f"{rec.get('config_hash')}, current config is "
                f"{expect_config_hash}; refusing to resume across "
                "config changes (use a fresh output directory)"
            )
        done.add(int(rec["partition"]))
    return done


def _model_tag(model_factory) -> str:
    """Deterministic identity string for a model factory, folded into the
    manifest config hash (empty for the default model so existing
    manifests stay valid)."""
    if model_factory is None:
        return ""
    mod = getattr(model_factory, "__module__", "?")
    name = getattr(model_factory, "__qualname__", None) or repr(model_factory)
    return f"+model:{mod}.{name}"


def _check_layout(
    out_dir: Path, resuming: bool, num_parts: int, salt: int
) -> None:
    """``num_parts`` and ``salt`` decide every row's part id, so a directory
    resumes only under the layout its parts were committed with: under
    another one, a part id not yet in the manifest holds rows that a
    committed part already holds.  A run that starts with nothing
    committed records its layout in ``_layout.jsonl`` before its first
    commit; a resume checks the last record against its own.  A directory
    without the ledger (written before it existed) is not checked."""
    path = out_dir / LAYOUT_NAME
    layout = {"num_parts": num_parts, "salt": max(salt, 1)}  # salt <= 1: unsalted
    if not resuming:
        _append_jsonl(path, layout)
        return
    recorded = list(_jsonl(path))
    if recorded and recorded[-1] != layout:
        raise RuntimeError(
            f"{out_dir} was committed with partition layout {recorded[-1]}, "
            f"this run asks for {layout}; refusing to resume across a "
            "layout change, which re-commits rows under new part ids "
            "(use a fresh output directory)"
        )


def _check_columns(out_dir: Path, done: set[int]) -> None:
    """A wave commits no ``content`` column.  Parts committed before the
    wave dropped it hold the raw text, and a resume would mix the two
    schemas in one directory, so the schema of one committed part file
    decides.  Empty marker parts have no file; a directory with none to
    read is not checked."""
    for part in sorted(done):
        first = next((out_dir / f"part={part}").glob("*.parquet"), None)
        if first is None:
            continue
        if "content" in pq.read_schema(first).names:
            raise RuntimeError(
                f"{first} holds a raw content column, which this run does "
                "not commit; refusing to resume across the column change "
                "(use a fresh output directory)"
            )
        return


def _check_run_args(
    num_parts: int, batch_size: int, wave_size: int | None,
    files: list[str] | None = None,
) -> None:
    """Refuse arguments that would commit nothing before any ledger is
    written: no part id below 1 exists, a wave or batch below 1 row or
    part never finishes, and ``files`` (when given) must name an input."""
    for name, value in (
        ("num_parts", num_parts),
        ("batch_size", batch_size),
        ("wave_size", 1 if wave_size is None else wave_size),
    ):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if files is not None and not files:
        raise ValueError("input_path has no top-level *.parquet file")


def _input_files(input_path: str | Path | Iterable[str | Path]) -> list[str]:
    """The parquet files of a directory (sorted), one file, or a list."""
    if not isinstance(input_path, (str, Path)):
        return [str(p) for p in input_path]
    if Path(input_path).is_dir():
        return sorted(str(p) for p in Path(input_path).glob("*.parquet"))
    return [str(input_path)]


def _input_fingerprint(paths: Iterable[str | Path]) -> str:
    h = hashlib.sha256()
    for p in sorted(str(p) for p in paths):
        st = os.stat(p)
        h.update(f"{p}:{st.st_size}".encode())
    return h.hexdigest()[:16]


# Rows one write task holds: Ray bundles the scorer's blocks up to this
# count before it starts a write task, so a part gets one file per write
# task instead of one per scorer block (pyarrow spends ~4 ms of CPU per
# parquet file on this schema).
WRITE_MIN_ROWS = 16_384

# The per-rule row counters of a manifest line, in its key order; the
# line's ``by_decision`` map follows them.
COUNTERS = ("rows_in", "kept", "dropped", "scrubbed", "errors")


def _zero_counters() -> dict[str, Any]:
    return {**dict.fromkeys(COUNTERS, 0), "by_decision": {}}


def _add_counters(into: dict[str, Any], rec: dict[str, Any]) -> None:
    """Add the counters of ``rec`` (a manifest line or a summary) into
    ``into``; a counter ``rec`` lacks counts as zero."""
    for k in COUNTERS:
        into[k] += rec.get(k, 0)
    for k, v in rec.get("by_decision", {}).items():
        into["by_decision"][k] = into["by_decision"].get(k, 0) + v


def _part_counters(t: pa.Table) -> dict[int, dict[str, Any]]:
    """Per-rule counters of every part in ``t`` (the manifest fields)."""
    out: dict[int, dict[str, Any]] = {}
    totals = t.group_by("part").aggregate([
        ([], "count_all"), ("keep", "sum"), ("scrubbed", "sum"), ("error", "count"),
    ])
    for r in totals.to_pylist():
        n, kept = r["count_all"], r["keep_sum"] or 0
        out[r["part"]] = {
            "rows_in": n, "kept": kept, "dropped": n - kept,
            "scrubbed": r["scrubbed_sum"] or 0, "errors": r["error_count"],
            "by_decision": {},
        }
    decisions = t.group_by(["part", "gate_decision"]).aggregate([([], "count_all")])
    for r in decisions.to_pylist():
        if r["gate_decision"] is not None:
            out[r["part"]]["by_decision"][r["gate_decision"]] = r["count_all"]
    return out


class _CountingSink(Datasink):
    """Writes a wave under ``path`` hive-partitioned on ``part`` and counts
    each part's rows from the table it writes.  After the write,
    ``counters`` maps every non-empty part id to its manifest counters, so
    the commit never reads a part back."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self.prefix = uuid.uuid4().hex
        self.counters: dict[int, dict[str, Any]] = {}

    @property
    def min_rows_per_write(self) -> int:
        return WRITE_MIN_ROWS

    def write(self, blocks, ctx) -> dict[int, dict[str, Any]]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return {}
        t = pa.concat_tables(tables, promote_options="default")
        # The name is fixed per task, one file per part directory: a
        # retried task overwrites its own files instead of adding rows.
        # min_rows_per_group: one row group per file, not one per chunk of
        # the incoming blocks (a row group costs about as much as a file).
        pads.write_dataset(
            t, self.path, format="parquet",
            partitioning=["part"], partitioning_flavor="hive",
            basename_template=f"{self.prefix}-{ctx.task_idx}-{{i}}.parquet",
            existing_data_behavior="overwrite_or_ignore",
            min_rows_per_group=WRITE_MIN_ROWS,
        )
        return _part_counters(t)

    def on_write_complete(self, write_result) -> None:
        for counters in write_result.write_returns:
            for part, c in counters.items():
                _add_counters(self.counters.setdefault(part, _zero_counters()), c)


def run_with_checkpoints(
    input_path: str | list[str],
    out_dir: str | Path,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    *,
    num_parts: int = DEFAULT_NUM_PARTS,
    batch_size: int = DEFAULT_BATCH_SIZE,
    concurrency: int | tuple[int, int] | None = None,
    wave_size: int | None = None,
    fail_after_waves: int | None = None,
    salt: int = 1,
    model_factory=None,
    post_filter=None,
    config_tag: str = "",
) -> dict[str, Any]:
    """Run the flagship pipeline with per-partition commit + resume.

    ``fail_after_waves`` injects a crash after N committed waves (the
    resume-fixture hook, FIXTURES.md §4).  ``model_factory`` is the
    pluggable-LID seam forwarded to ``build_pipeline`` (the CLI's
    ``run --model`` surface).  ``post_filter`` is an optional pyarrow
    ``Table -> Table`` callable that ``build_pipeline`` applies last inside
    the scorer task (the cross-ingest dedup hook); ``config_tag`` folds the
    caller's extra identity into the manifest config hash so resumes across
    a semantic change are refused.  Returns a summary dict.
    """
    files = _input_files(input_path)
    _check_run_args(num_parts, batch_size, wave_size, files)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the manifest's config hash also carries the model identity: resuming
    # a half-done directory under a DIFFERENT model would mix decision
    # sources exactly like a config change would
    cfg_hash = cfg.config_hash() + _model_tag(model_factory) + config_tag
    done = completed_parts(out_dir, expect_config_hash=cfg_hash)
    _check_columns(out_dir, done)
    _check_layout(out_dir, bool(done), num_parts, salt)
    remaining = [p for p in range(num_parts) if p not in done]
    fingerprint = _input_fingerprint(files)

    waves: list[list[int]] = []
    if wave_size is None or wave_size >= len(remaining):
        waves = [remaining] if remaining else []
    else:
        waves = [
            remaining[i : i + wave_size] for i in range(0, len(remaining), wave_size)
        ]

    # every wave reads all the input, so one footer count sizes them all
    blocks = wave_read_blocks(files, batch_size) if waves else None
    for wi, wave in enumerate(waves):
        tmp_dir = out_dir / f"_tmp-wave-{wi}"
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        ds = read_corpus(files, parallelism=blocks)
        ds = build_pipeline(
            ds, cfg, num_parts=num_parts, batch_size=batch_size,
            concurrency=concurrency, salt=salt,
            parts_filter=set(wave) if len(wave) < num_parts else None,
            model_factory=model_factory, post_filter=post_filter,
        )
        sink = _CountingSink(tmp_dir)
        ds.write_datasink(sink)

        # atomic per-partition commit: rename, then manifest line
        for part in sorted(wave):
            src = tmp_dir / f"part={part}"
            dst = out_dir / f"part={part}"
            if not src.exists():
                # partition had zero rows — commit an empty marker dir
                src.mkdir(parents=True, exist_ok=True)
            if dst.exists():
                shutil.rmtree(dst)   # idempotent overwrite (same bytes)
            os.replace(src, dst)
            _append_jsonl(manifest_path(out_dir), {
                "partition": part,
                "committed_at": time.time(),
                "config_hash": cfg_hash,
                "input_fingerprint": fingerprint,
                "files": sum(1 for _ in dst.glob("*.parquet")),
                **sink.counters.get(part, _zero_counters()),
            })
        shutil.rmtree(tmp_dir, ignore_errors=True)
        if fail_after_waves is not None and wi + 1 >= fail_after_waves:
            raise RuntimeError(f"injected failure after wave {wi}")

    return summarize_manifest(out_dir)


def summarize_manifest(out_dir: str | Path) -> dict[str, Any]:
    """Cluster-total counters = sum over partition manifest lines (the A5/A6
    analog: per-node Prometheus sums become a fold over the manifest)."""
    totals = _zero_counters()
    parts = set()
    for rec in _jsonl(manifest_path(out_dir)):
        if rec["partition"] in parts:
            continue   # defensive: first commit line per partition wins
        parts.add(rec["partition"])
        _add_counters(totals, rec)
    totals["by_decision"] = dict(sorted(totals["by_decision"].items()))
    return {"partitions": len(parts), **totals}


# ---- incremental ingest (the reference's continuous queue, batch-native) --

INGEST_LOG_NAME = "_ingested.jsonl"


def ingest_log_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / INGEST_LOG_NAME


def _ingest_ledger(
    out_dir: str | Path,
) -> tuple[dict[str, dict], dict[str, float], set[str]]:
    """Fold ``_ingested.jsonl`` into (ingest id -> its ``ingest_start``
    record, ingest id -> its ``ingest_done`` time, purged ingest ids).

    A file is CLAIMED the moment an ingest_start line names it, and an
    ingest is PENDING while it is started but not done — pending ingests
    are finished before new files are considered, so a crash between
    start and done never double-processes a file (the reference's
    claim-then-process queue contract, app/main.py:90-111)."""
    started: dict[str, dict] = {}
    done_at: dict[str, float] = {}
    purged: set[str] = set()
    for rec in _jsonl(ingest_log_path(out_dir)):
        kind = rec.get("kind")
        if kind == "ingest_start":
            started[rec["ingest"]] = rec
        elif kind == "ingest_done":
            done_at[rec["ingest"]] = float(rec.get("committed_at", 0))
        elif kind == "ingest_purged":
            purged.add(rec["ingest"])
    return started, done_at, purged


def run_incremental(
    input_path: str | Path,
    out_dir: str | Path,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    *,
    num_parts: int = DEFAULT_NUM_PARTS,
    batch_size: int = DEFAULT_BATCH_SIZE,
    concurrency: int | tuple[int, int] | None = None,
    wave_size: int | None = None,
    salt: int = 1,
    fail_after_waves: int | None = None,
    model_factory=None,
    dedup_across_ingests: bool = False,
) -> dict[str, Any]:
    """Process only parquet files NOT yet ingested from ``input_path`` —
    the batch-native analog of the reference's continuous job queue
    (jobs arrive over time and workers poll, app/main.py:90-111;
    SURVEY.md 'What's missing' item 3).

    Layout: each ingest batch writes a self-contained
    ``ingest=<fingerprint>/`` subtree (its own per-partition manifest, so
    a crashed ingest resumes partition-wise), and the root
    ``_ingested.jsonl`` is the queue ledger: ``ingest_start`` claims a
    frozen file list, ``ingest_done`` marks it complete.  On every call:

      1. unfinished claimed ingests are completed FIRST (their file list
         is frozen at claim time — files that appeared since go to the
         next ingest, never into a half-done one),
      2. unclaimed files (keyed by path+size; inputs are immutable by
         contract, like the reference's uploaded jobs) become one new
         ingest,
      3. the union of all committed ``ingest=*/part=*`` directories is
         the output — byte-identical to a single full run over the same
         files, because every row is processed under the same config
         exactly once.

    Returns a summary with per-call ``new_files`` and fold-of-manifests
    totals.  ``fail_after_waves`` is the crash-injection hook passed to
    the inner runner (resume tests)."""
    _check_run_args(num_parts, batch_size, wave_size)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sized = [(f, os.stat(f).st_size) for f in _input_files(input_path)]

    started, done_at, _ = _ingest_ledger(out_dir)
    claimed = {(f, int(size)) for rec in started.values() for f, size in rec["files"]}
    pending = [rec for iid, rec in started.items() if iid not in done_at]
    xdedup_tag = "+xdedup" if dedup_across_ingests else ""
    cfg_hash = cfg.config_hash() + _model_tag(model_factory) + xdedup_tag
    for rec in pending:
        if rec.get("config_hash") != cfg_hash:
            raise RuntimeError(
                f"pending ingest {rec['ingest']} was claimed under "
                f"config_hash={rec.get('config_hash')}, current is {cfg_hash}; "
                "refusing to mix rule sets in one output directory"
            )

    def _run_ingest(ingest_id: str, ingest_files: list[str]) -> None:
        post = None
        if dedup_across_ingests:
            # EXACT content seen in any prior COMPLETED ingest is dropped
            # entirely (don't re-store known content — the streaming-dedup
            # loop of a growing corpus).  Within-ingest duplicates are NOT
            # dropped here; that is the downstream corpus_clean /
            # dedup_exact pass.  The ledger snapshot is deterministic at
            # resume (ingests complete strictly sequentially).
            seen = _prior_content_digests(out_dir, ingest_id)
            post = _digest_anti_filter(ray.put(seen))
        run_with_checkpoints(
            ingest_files,
            out_dir / f"ingest={ingest_id}",
            cfg,
            num_parts=num_parts,
            batch_size=batch_size,
            concurrency=concurrency,
            wave_size=wave_size,
            salt=salt,
            fail_after_waves=fail_after_waves,
            model_factory=model_factory,
            post_filter=post,
            config_tag=xdedup_tag,
        )
        _append_jsonl(ingest_log_path(out_dir), {
            "kind": "ingest_done",
            "ingest": ingest_id,
            "committed_at": time.time(),
        })

    # 1. finish anything claimed but not done
    for rec in pending:
        _run_ingest(rec["ingest"], [f for f, _ in rec["files"]])

    # 2. claim + process files never ingested
    new = [(f, size) for f, size in sized if (f, size) not in claimed]
    if new:
        ingest_id = _input_fingerprint([f for f, _ in new])
        _append_jsonl(ingest_log_path(out_dir), {
            "kind": "ingest_start",
            "ingest": ingest_id,
            "files": new,
            "config_hash": cfg_hash,
            "claimed_at": time.time(),
        })
        _run_ingest(ingest_id, [f for f, _ in new])

    return {
        "new_files": len(new),
        "resumed_ingests": len(pending),
        **summarize_incremental(out_dir),
    }


def summarize_incremental(out_dir: str | Path) -> dict[str, Any]:
    """Fold every ingest's per-partition manifest into cluster totals."""
    out_dir = Path(out_dir)
    totals: dict[str, Any] = {"ingests": 0, "partitions": 0, **_zero_counters()}
    for ingest_dir in sorted(out_dir.glob("ingest=*")):
        s = summarize_manifest(ingest_dir)
        totals["ingests"] += 1
        totals["partitions"] += s["partitions"]
        _add_counters(totals, s)
    totals["by_decision"] = dict(sorted(totals["by_decision"].items()))
    return totals


# ---- retention / purge (the reference's maintenance/purge_db.py analog) ----

def purge_ingests(
    out_dir: str | Path, *, keep_ingests: int, apply: bool = False
) -> dict[str, Any]:
    """Retention for incremental outputs: delete all but the newest
    ``keep_ingests`` COMPLETED ``ingest=<fp>/`` subtrees (the reference's
    purge_db.py:40-69 deletes old jobs + their storage artifacts the same
    way).  Dry-run by default — ``apply=True`` actually removes.

    Semantics:
    - only completed ingests (an ``ingest_done`` ledger line) are
      candidates, newest-first by their done timestamp; pending ingests
      are never touched (they are still the resume queue).
    - a purge appends an ``ingest_purged`` ledger line AFTER the subtree
      is removed; the claim lines stay, so purged files are NOT
      re-ingested by later ``run --incremental`` calls (aged-out data
      stays out — retention, not reprocessing).
    - idempotent: already-purged ingests are no longer candidates, and a
      crash between rmtree and the ledger line just re-purges the (now
      empty) subtree on the next call.
    """
    out_dir = Path(out_dir)
    started, done_at, purged = _ingest_ledger(out_dir)
    pending_ids = [iid for iid in started if iid not in done_at]
    completed = sorted(
        ((t, iid) for iid, t in done_at.items() if iid not in purged)
    )
    n_victims = max(0, len(completed) - max(keep_ingests, 0))
    victims = [iid for _, iid in completed[:n_victims]]
    kept = [iid for _, iid in completed[n_victims:]]

    if apply:
        for iid in victims:
            shutil.rmtree(out_dir / f"ingest={iid}", ignore_errors=True)
            _append_jsonl(ingest_log_path(out_dir), {
                "kind": "ingest_purged",
                "ingest": iid,
                "purged_at": time.time(),
            })

    return {
        "dry_run": not apply,
        "purged": victims,
        "kept": kept,
        "pending_untouched": pending_ids,
        "already_purged": sorted(purged),
    }


# ---- cross-ingest exact dedup (streaming dedup for the continuous queue) ---

# Broadcast bound for the prior-content digest ledger: 2M digests x 64
# bytes = 128 MB in the object store, read once per worker.  Above it the
# flag refuses with the scale design spelled out (digest-prefix-partitioned
# ledger files merge-joined per partition), the same explicit-refusal
# contract the exact similarity baselines use.
DEDUP_LEDGER_BROADCAST_MAX_DIGESTS = 2_000_000


def _prior_content_digests(out_dir: Path, exclude_ingest: str) -> np.ndarray:
    """Sorted unique content_sha256 of every COMPLETED ingest except
    ``exclude_ingest`` — the dedup ledger a new ingest filters against.
    Column-pruned read of the committed partitions (64 hex chars per row,
    never content).  Deterministic at resume: ingests complete strictly
    sequentially, so the completed set seen by a resumed ingest equals
    the set at its claim."""
    started, done_at, _ = _ingest_ledger(out_dir)
    pending_ids = started.keys() - done_at.keys()
    digests = []
    for d in sorted(Path(out_dir).glob("ingest=*")):
        iid = d.name.split("=", 1)[1]
        if iid == exclude_ingest or iid in pending_ids:
            continue
        files = [str(f) for p in d.glob("part=*") for f in p.glob("*.parquet")]
        if not files:
            continue
        dset = pads.dataset(files, format="parquet")
        if dset.count_rows() == 0:
            continue
        # dropped rows carry a null digest: it is no content, never a key
        col = pc.drop_null(dset.to_table(columns=["content_sha256"])["content_sha256"])
        digests.append(col.to_numpy(zero_copy_only=False).astype("S64"))
    if not digests:
        return np.array([], dtype="S64")
    seen = np.unique(np.concatenate(digests))
    if len(seen) > DEDUP_LEDGER_BROADCAST_MAX_DIGESTS:
        raise RuntimeError(
            f"cross-ingest dedup ledger has {len(seen)} digests, above the "
            f"{DEDUP_LEDGER_BROADCAST_MAX_DIGESTS} broadcast bound for this "
            "single-node build; at that scale partition the ledger by "
            "digest prefix (one sorted file per prefix, merge-joined per "
            "partition) or run the downstream corpus_clean / dedup_exact "
            "pass instead"
        )
    return seen


def _digest_anti_filter(seen_ref):
    """Post-cascade ``post_filter``: drop rows whose content_sha256 is
    in the broadcast ledger (ray.put'd sorted S64 array).  A row with a
    null digest (dropped by the cascade) is never dropped here."""

    def f(t):
        seen = ray.get(seen_ref)
        if len(seen) == 0 or len(t) == 0:
            return t
        col = t["content_sha256"]
        ids = col.to_numpy(zero_copy_only=False).astype("S64")
        pos = np.searchsorted(seen, ids)
        dup = (pos < len(seen)) & (seen[np.minimum(pos, len(seen) - 1)] == ids)
        dup &= pc.is_valid(col).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(~dup))

    return f
