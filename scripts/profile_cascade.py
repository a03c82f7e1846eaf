"""Single-process profile of the cascade stage, without Ray.

Feeds a corpus directory in 1,024-row batches through ``add_partition`` and
``CascadeScorer(scrub=True)`` (the stage the pipeline runs per batch) in
this process, prints the stage's rows/s, then profiles one more pass with
cProfile and prints its top entries.

Usage:
    python -m langfilter_ray gen-corpus --rows 20000 --out CORPUS_DIR
    python scripts/profile_cascade.py CORPUS_DIR

``CORPUS_DIR`` is a directory of corpus parquet files (the ``gen-corpus``
output).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from langfilter_ray.pipelines.quality_filter import (  # noqa: E402
    CORPUS_COLUMNS,
    DEFAULT_BATCH_SIZE,
    add_partition,
)
from langfilter_ray.stages.cascade import CascadeScorer  # noqa: E402

TOP_ENTRIES = 25                             # cProfile entries printed, by internal time


def load_batches(corpus_dir: Path) -> list:
    out = []
    for f in sorted(corpus_dir.glob("*.parquet")):
        table = pq.read_table(f, columns=CORPUS_COLUMNS)
        out.extend(table.to_batches(max_chunksize=DEFAULT_BATCH_SIZE))
    return [pa.Table.from_batches([b]) for b in out]


def run(scorer: CascadeScorer, batches: list) -> int:
    rows = 0
    for batch in batches:
        rows += scorer(add_partition(batch)).num_rows
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("corpus_dir", type=Path)
    args = ap.parse_args()

    batches = load_batches(args.corpus_dir)
    scorer = CascadeScorer(scrub=True)
    run(scorer, batches[:1])                 # warm caches and lazy imports

    t0 = time.perf_counter()
    rows = run(scorer, batches)
    secs = time.perf_counter() - t0
    print(f"rows {rows}  batches {len(batches)}  secs {secs:.3f}  "
          f"rows_per_s {rows / secs:.0f}")

    prof = cProfile.Profile()
    prof.enable()
    run(scorer, batches)
    prof.disable()
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(TOP_ENTRIES)


if __name__ == "__main__":
    main()
