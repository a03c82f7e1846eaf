"""One 10x-scale datapoint (round-5 verdict item 9): the flagship at sf1
(10M corpus rows) and the dedup chain at 100x the sf0.1 documents table,
all in /tmp — direct evidence that the fixed-cost analyses (per-query
aggregator spawn, broadcast bounds, bucket fan-out sizing) amortize at
scale the way the docstrings claim.

    python scripts/sf1_datapoint.py [--corpus-rows 10000000] [--doc-shards 100]

Prints one JSON line per measurement and a summary line; record the
numbers in BASELINE.md.

The scaled documents table is the sf0.1 table tiled ``doc_shards`` times
with a deterministic per-shard word marker inserted every 2 words, so
every minhash word-3-gram contains the marker: in-shard duplicate /
near-duplicate structure is preserved exactly (same transformation for
identical texts) while cross-shard texts share no shingles — candidate
volume scales LINEARLY with shards, like a real corpus, instead of
quadratically like naive tiling would.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def build_scaled_documents(out_dir: Path, shards: int) -> Path:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = pq.read_table(
        "/root/testdata/sf0.1/documents.parquet",
        columns=["doc_id", "text", "lang", "source", "n_chars"],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    marker_path = out_dir / f".complete-{shards}"
    if marker_path.exists():
        return out_dir
    ids = src["doc_id"].to_numpy()
    texts = src["text"].to_pylist()
    base = 10_000_000
    for k in range(shards):
        marker = f"s{k}x"
        tiled = [
            marker.join(
                " ".join(w)
                for w in zip(*[iter(t.split(" "))] * 2)
            ) if t else t
            for t in texts
        ]
        # zip(*[iter]*2) drops a trailing odd word; append it so content
        # stays distinct per doc
        tiled = [
            (tt + " " + t.split(" ")[-1]) if t and len(t.split(" ")) % 2 else tt
            for tt, t in zip(tiled, texts)
        ]
        tbl = pa.table(
            {
                "doc_id": pa.array(ids + k * base, pa.int64()),
                "text": pa.array(tiled, pa.string()),
                "lang": src["lang"],
                "source": src["source"],
                "n_chars": pa.array(
                    np.array([len(t) for t in tiled], dtype=np.int64)
                ),
            }
        )
        pq.write_table(tbl, out_dir / f"shard{k:03d}.parquet")
    # the dedup queries read <dir>/documents.parquet — concat to one file
    # (row-group per shard keeps the read parallel)
    parts = [pq.read_table(p) for p in sorted(out_dir.glob("shard*.parquet"))]
    pq.write_table(
        pa.concat_tables(parts), out_dir / "documents.parquet",
        row_group_size=500_000,
    )
    for p in out_dir.glob("shard*.parquet"):
        p.unlink()
    marker_path.touch()
    return out_dir


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus-rows", type=int, default=10_000_000)
    ap.add_argument("--doc-shards", type=int, default=100)
    ap.add_argument("--num-cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    ray.init(
        address="local", num_cpus=args.num_cpus, include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from langfilter_ray.config import DEFAULT_CONFIG
    from langfilter_ray.corpus import write_corpus
    from langfilter_ray.pipelines import dedup
    from langfilter_ray.pipelines.quality_filter import (
        build_pipeline,
        read_corpus,
    )

    results: dict[str, float] = {}

    # ---- flagship at sf1 ---------------------------------------------------
    t0 = time.time()
    corpus = write_corpus(
        f"/tmp/langfilter_corpus/{args.corpus_rows}", args.corpus_rows
    )
    results["corpus_gen_sec"] = round(time.time() - t0, 1)

    out = "/tmp/langfilter_sf1_out"
    shutil.rmtree(out, ignore_errors=True)
    # untimed warm-up pass (worker spawn + imports), as bench.py does
    build_pipeline(read_corpus(str(corpus)).limit(20_000), DEFAULT_CONFIG).count()
    t0 = time.time()
    build_pipeline(read_corpus(str(corpus)), DEFAULT_CONFIG).write_parquet(out)
    dt = time.time() - t0
    results["flagship_sec"] = round(dt, 1)
    results["flagship_rows"] = args.corpus_rows
    results["flagship_files_per_sec"] = round(args.corpus_rows / dt, 1)
    print(json.dumps({"stage": "flagship_sf1", **results}), flush=True)

    # ---- dedup chain at doc_shards x sf0.1 ----------------------------------
    docs_dir = build_scaled_documents(
        Path("/tmp/langfilter_sf1_docs"), args.doc_shards
    )
    t0 = time.time()
    n_cand = dedup.minhash_candidates(str(docs_dir)).count()
    t_minhash = time.time() - t0
    t0 = time.time()
    n_comp = dedup.dedup_components(str(docs_dir)).count()
    t_comp = time.time() - t0
    results.update(
        {
            "docs_rows": args.doc_shards * 5_000,
            "minhash_candidates_sec": round(t_minhash, 1),
            "minhash_candidate_pairs": int(n_cand),
            "dedup_components_sec": round(t_comp, 1),
            "dedup_component_rows": int(n_comp),
        }
    )
    print(json.dumps(results), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
