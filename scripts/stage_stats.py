"""Per-stage observability: run a pipeline once and print ``ds.stats()``
— Ray Data's per-operator wall/cpu/rows/memory report — so a perf
regression can be localized to a stage instead of guessed at.

Usage:
    python scripts/stage_stats.py [sf_dir] [num_cpus]            # flagship
    python scripts/stage_stats.py [sf_dir] [num_cpus] --query NAME
                                  # any queries() entry (e.g. dedup_minhash)
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    query = None
    if "--query" in sys.argv:
        query = sys.argv[sys.argv.index("--query") + 1]
        args = [a for a in args if a != query]
    sf_dir = args[0] if len(args) > 0 else "/root/testdata/sf0.01"
    num_cpus = int(args[1]) if len(args) > 1 else 8

    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if query:
        import ray.data

        import __ray_entry__ as e

        res = e.queries()[query](sf_dir)
        if isinstance(res, ray.data.Dataset):
            res = res.materialize()
            print(res.stats())
        else:
            print(f"{query} returned {type(res).__name__} "
                  "(driver-side result — no per-stage stats)")
    else:
        from langfilter_ray.config import DEFAULT_CONFIG
        from langfilter_ray.pipelines.quality_filter import (
            build_pipeline,
            read_corpus,
        )
        from langfilter_ray.pipelines.reports import corpus_for

        ds = build_pipeline(read_corpus(corpus_for(sf_dir)), DEFAULT_CONFIG)
        out = "/tmp/langfilter_stats_out"
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        ds.write_parquet(out)
        print(ds.stats())
    ray.shutdown()


if __name__ == "__main__":
    main()
