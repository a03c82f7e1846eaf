"""Seeded inputs, timed runs and output checks for the benchmark workloads.

Every workload builds its input from the seed with the ``corpus.py``
generators and writes it to parquet before anything is timed.  A timed
run drives the public entry points of ``state/checkpoint`` against a
fresh output directory; the check then reads the committed parquet back
and compares every row with ``oracle.label_row`` of its content.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from langfilter_ray import corpus
from langfilter_ray.oracle import label_row
from langfilter_ray.pipelines.quality_filter import CORPUS_COLUMNS, DEFAULT_NUM_PARTS
from langfilter_ray.state import checkpoint

from .probes import CONCURRENCY

OUT_COLUMNS = ["repo", "path", "commit", "keep", "gate_decision", "language",
               "content_sha256"]

# ledger verdict for one input row of a drop
KEEP, DROP, EITHER = "keep", "drop", "either"


@dataclass
class Tally:
    """Row accounting of one or more runs."""

    attempted: int = 0   # input rows offered
    failed: int = 0      # error rows + missing/extra rows + rows of a run that raised
    checked: int = 0     # committed rows compared with the oracle
    mismatched: int = 0  # ... whose keep/decision/language/sha256 differ

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.checked += other.checked
        self.mismatched += other.mismatched


@dataclass
class Rep:
    """One timed run of a workload."""

    out_dir: Path
    wall_s: float
    first_commit_s: float
    rows: int
    ledger: dict = field(default_factory=dict)


def _key(row: dict) -> tuple:
    return (row["repo"], row["path"], row["commit"])


def _expected(table: pa.Table, sample: int | None = None,
              seed: int = 0) -> dict[tuple, tuple | None]:
    """(repo, path, commit) -> (keep, gate_decision, language, sha256) for
    every row, or for a seeded sample of ``sample`` rows and None for the
    rest (their labels are not checked, only that they are committed)."""
    rows = table.to_pylist()
    out: dict[tuple, tuple | None] = {_key(row): None for row in rows}
    if sample is not None and sample < len(rows):
        rows = random.Random(f"{seed}:check").sample(rows, sample)
    labels: dict[str, tuple] = {}
    for row in rows:
        content = row["content"]
        if content not in labels:
            rec = label_row(content)
            labels[content] = (rec["keep"], rec["gate_decision"], rec["language"],
                               rec["content_sha256"])
        out[_key(row)] = labels[content]
    return out


def _write_files(table: pa.Table, out_dir: Path, rows_per_file: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, start in enumerate(range(0, len(table), rows_per_file)):
        pq.write_table(table.slice(start, rows_per_file),
                       out_dir / f"rows-{i:04d}.parquet")


def read_committed(out_dir: Path) -> pa.Table:
    files = sorted(str(f) for f in out_dir.glob("part=*/*.parquet"))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in OUT_COLUMNS})
    return pads.dataset(files, format="parquet").to_table(columns=OUT_COLUMNS)


def check_rows(expected: dict[tuple, tuple], committed: pa.Table,
               verdict=lambda key: KEEP) -> Tally:
    """Account every input row of ``expected`` against the committed rows.
    ``verdict(key)`` says whether the dedup ledger must drop the row,
    must keep it, or may do either.  Rows without an expected label are
    accounted but their labels are not compared."""
    tally = Tally(attempted=len(expected))
    seen = set()
    for row in committed.to_pylist():
        key = _key(row)
        if key not in expected or key in seen or verdict(key) == DROP:
            tally.failed += 1          # unknown, duplicated, or not deduped
            continue
        seen.add(key)
        if row["gate_decision"] == "error":
            tally.failed += 1
            continue
        if expected[key] is None:
            continue
        tally.checked += 1
        got = (row["keep"], row["gate_decision"], row["language"],
               row["content_sha256"])
        tally.mismatched += got != expected[key]
    tally.failed += sum(
        1 for key in expected if key not in seen and verdict(key) == KEEP
    )
    return tally


def _first_commit(manifests: list[Path], starts: list[float]) -> float:
    """Median over runner calls of call start -> the first manifest line
    committed after it."""
    commits = sorted(
        json.loads(line)["committed_at"]
        for m in manifests
        for line in m.read_text().splitlines() if line.strip()
    )
    return statistics.median(
        min(c for c in commits if c >= t0) - t0 for t0 in starts
    )


def manifest_lines(out_dir: Path) -> int:
    return sum(
        1 for m in out_dir.rglob(checkpoint.MANIFEST_NAME)
        for line in m.read_text().splitlines() if line.strip()
    )


class Workload:
    """Input rows written once as parquet, committed in one
    ``run_with_checkpoints`` call: the CLI ``run`` path, one wave over
    ``DEFAULT_NUM_PARTS`` partitions."""

    name = ""
    num_parts = DEFAULT_NUM_PARTS
    ROWS_PER_FILE = 1000
    CHECK_SAMPLE: int | None = None   # rows whose labels are checked; None: all

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.seed = seed
        self.input_dir = work_dir / "inputs" / f"{self.name}-{seed}"

    def make_table(self) -> pa.Table:
        raise NotImplementedError

    def prepare(self) -> None:
        marker = self.input_dir / ".complete"
        if not marker.exists():
            shutil.rmtree(self.input_dir, ignore_errors=True)
            _write_files(self.make_table(), self.input_dir, self.ROWS_PER_FILE)
            marker.touch()
        self.files = sorted(str(f) for f in self.input_dir.glob("*.parquet"))
        self.tables = [pq.read_table(f, columns=CORPUS_COLUMNS) for f in self.files]
        self.rows = sum(len(t) for t in self.tables)
        self.expected = _expected(pa.concat_tables(self.tables),
                                  self.CHECK_SAMPLE, self.seed)

    def run(self, rep_dir: Path) -> Rep:
        out = rep_dir / "out"
        t0 = time.time()
        p0 = time.perf_counter()
        checkpoint.run_with_checkpoints(str(self.input_dir), out,
                                        concurrency=CONCURRENCY)
        wall = time.perf_counter() - p0
        return Rep(out, wall, _first_commit([checkpoint.manifest_path(out)], [t0]),
                   self.rows)

    def check(self, rep: Rep) -> Tally:
        return check_rows(self.expected, read_committed(rep.out_dir))


# corpus._content_for makes one bad_shape row in ten a ~1 MB file
TOO_LARGE_SHARE_OF_BAD_SHAPE = 0.1
TOO_LARGE_CHARS = 1_000_000


def _stratum(row: dict) -> str:
    family = row["path"].split("/")[1]
    if len(row["content"]) > TOO_LARGE_CHARS:
        return family + "/too_large"
    return family


def _mix_quotas(n_rows: int) -> dict[str, int]:
    """Rows per stratum of ``n_rows`` in the default mix: each family's
    share as ``corpus.gen_row`` draws it (the weights are cumulated and
    capped at 1), the ~1 MB bad_shape rows a stratum of their own, and the
    counts rounded by largest remainder so they sum to ``n_rows``."""
    shares, acc = {}, 0.0
    for family, weight in corpus.FAMILIES:
        shares[family] = min(acc + weight, 1.0) - min(acc, 1.0)
        acc += weight
    big = shares["bad_shape"] * TOO_LARGE_SHARE_OF_BAD_SHAPE
    shares["bad_shape"] -= big
    shares["bad_shape/too_large"] = big
    exact = {s: n_rows * share for s, share in shares.items()}
    quotas = {s: int(x) for s, x in exact.items()}
    short = n_rows - sum(quotas.values())
    for s in sorted(exact, key=lambda s: quotas[s] - exact[s])[:short]:
        quotas[s] += 1
    return quotas


def mixed_rows(n_rows: int, seed: int) -> list[dict]:
    """``n_rows`` rows of the default mix with exactly ``_mix_quotas`` rows
    per stratum, taken in order from the seeded ``corpus.gen_row`` stream
    and shuffled by the seed.  Every seed gives the same composition, so
    seeds differ only in content, not in how much work the cascade has."""
    want = _mix_quotas(n_rows)
    rows = []
    i = 0
    while any(want.values()):
        row = corpus.gen_row(i, seed)
        stratum = _stratum(row)
        if want.get(stratum):
            want[stratum] -= 1
            rows.append(row)
        i += 1
    random.Random(f"{seed}:mix").shuffle(rows)
    return rows


class MixedCorpus(Workload):
    """The default ``corpus.FAMILIES`` mix: Zipf repos, a 20% mega-repo,
    ~1 MB too-large rows."""

    name = "mixed_corpus"
    ROWS = 12000
    CHECK_SAMPLE = 3000   # labelling all rows would cost 6 s per benchmark run

    def make_table(self) -> pa.Table:
        return pa.Table.from_pylist(mixed_rows(self.ROWS, self.seed),
                                    schema=corpus.SCHEMA)


class WarmUp(MixedCorpus):
    """A small slice of the mixed corpus for the untimed warm-up pass, in
    several files so that the warm-up starts read workers as a timed run
    does."""

    name = "warmup"
    ROWS = 256
    ROWS_PER_FILE = 64


class IngestStream(Workload):
    """Seeded file drops committed one after another by
    ``run_incremental(dedup_across_ingests=True)`` with ``wave_size`` below
    ``num_parts``.  Drops after the first repeat a seeded share of earlier
    rows, so the digest ledger has work; drop ``CRASH_DROP`` is crashed
    after one wave and finished by the next call."""

    name = "ingest_stream"
    DROPS = 3
    DROP_ROWS = 800
    REPEAT_SHARE = 0.25
    num_parts = 8
    WAVE_SIZE = 4
    CRASH_DROP = 1

    def prepare(self) -> None:
        marker = self.input_dir / ".complete"
        if not marker.exists():
            shutil.rmtree(self.input_dir, ignore_errors=True)
            self.input_dir.mkdir(parents=True)
            fresh = self.DROP_ROWS - round(self.DROP_ROWS * self.REPEAT_SHARE)
            pool = mixed_rows(self.DROP_ROWS + (self.DROPS - 1) * fresh, self.seed)
            earlier: list[dict] = []
            next_row = 0
            for k in range(self.DROPS):
                rng = random.Random(f"{self.seed}:drop:{k}")
                n_new = self.DROP_ROWS if k == 0 else fresh
                new = pool[next_row:next_row + n_new]
                next_row += n_new
                rows = new + rng.sample(earlier, self.DROP_ROWS - n_new)
                rng.shuffle(rows)
                earlier += new
                pq.write_table(pa.Table.from_pylist(rows, schema=corpus.SCHEMA),
                               self.input_dir / f"drop-{k:04d}.parquet")
            marker.touch()
        self.files = sorted(str(f) for f in self.input_dir.glob("*.parquet"))
        self.tables = [pq.read_table(f, columns=CORPUS_COLUMNS) for f in self.files]
        self.rows = sum(len(t) for t in self.tables)
        self.expected_drops = [_expected(t) for t in self.tables]

    def run(self, rep_dir: Path) -> Rep:
        inbox, out = rep_dir / "in", rep_dir / "out"
        inbox.mkdir(parents=True)
        starts = []
        p0 = time.perf_counter()
        for k, src in enumerate(self.files):
            starts.append(time.time())
            landing = inbox / (Path(src).name + ".landing")
            shutil.copyfile(src, landing)
            os.replace(landing, inbox / Path(src).name)
            crash = k == self.CRASH_DROP
            try:
                checkpoint.run_incremental(
                    inbox, out, num_parts=self.num_parts, wave_size=self.WAVE_SIZE,
                    concurrency=CONCURRENCY, dedup_across_ingests=True,
                    fail_after_waves=1 if crash else None,
                )
            except RuntimeError as exc:
                if not (crash and "injected failure" in str(exc)):
                    raise
            else:
                if crash:
                    raise RuntimeError("the injected crash did not fire")
        wall = time.perf_counter() - p0
        manifests = list(out.glob(f"ingest=*/{checkpoint.MANIFEST_NAME}"))
        return Rep(out, wall, _first_commit(manifests, starts), self.rows)

    def check(self, rep: Rep) -> Tally:
        """Each drop's rows are committed exactly once in that drop's
        ingest, unless an earlier drop committed the same content_sha256.

        Dropped rows carry a null digest, and the ledger stores it as the
        string ``None``; once any drop has committed a dropped row, later
        drops lose every dropped row too.  The check accepts either outcome
        for null digests and counts those drops in ``ledger.null_drops``."""
        ingest_of = {}
        done = set()
        for line in checkpoint.ingest_log_path(rep.out_dir).read_text().splitlines():
            rec = json.loads(line)
            if rec["kind"] == "ingest_start":
                for f, _ in rec["files"]:
                    ingest_of[Path(f).name] = rec["ingest"]
            elif rec["kind"] == "ingest_done":
                done.add(rec["ingest"])

        tally = Tally()
        ledger: set = set()
        null_drops = rows_dropped = 0
        for src, expected in zip(self.files, self.expected_drops):
            iid = ingest_of.get(Path(src).name)
            if iid not in done:
                tally.add(Tally(attempted=len(expected), failed=len(expected)))
                continue
            committed = read_committed(rep.out_dir / f"ingest={iid}")

            def verdict(key, prior=frozenset(ledger)):
                sha = expected[key][3]
                if sha not in prior:
                    return KEEP
                return DROP if sha is not None else EITHER

            tally.add(check_rows(expected, committed, verdict))
            got = committed["content_sha256"].to_pylist()
            rows_dropped += len(expected) - len(got)
            null_drops += sum(1 for v in expected.values() if v[3] is None) - got.count(None)
            ledger.update(got)
        rep.ledger = {
            "ingest.count": len(done),
            "ledger.digests": len(ledger),
            "ledger.rows_dropped": rows_dropped,
            "ledger.null_drops": null_drops,
        }
        return tally


WORKLOADS = {w.name: w for w in (MixedCorpus, IngestStream)}
