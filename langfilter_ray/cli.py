"""CLI entry point — the ``ray job submit`` surface.

    python -m langfilter_ray run --input DIR --output DIR [options]
    python -m langfilter_ray report --output DIR
    python -m langfilter_ray gen-corpus --rows N --out DIR
    python -m langfilter_ray pack --input DIR --output DIR
    python -m langfilter_ray purge --output DIR --keep-ingests N [--apply]

Mirrors the reference's env-var configuration surface (SURVEY.md §2.11):
every PipelineConfig field can come from LANGFILTER_* env vars or be
overridden with --set name=value.  This module OWNS a Ray session (the
only places allowed to: bench.py, tests/conftest.py, and here); on a real
cluster, submit with

    ray job submit --working-dir . -- python -m langfilter_ray run \
        --input s3://corpus/ --output s3://filtered/ --num-parts 4096
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys


def _apply_overrides(cfg, pairs: list[str]):
    from .config import PipelineConfig

    kwargs = {}
    for pair in pairs:
        name, _, raw = pair.partition("=")
        try:
            kwargs[name] = PipelineConfig.parse_field(name, raw)
        except KeyError:
            raise SystemExit(f"unknown config field: {name}") from None
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return dataclasses.replace(cfg, **kwargs)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="langfilter_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run the quality-filter pipeline")
    runp.add_argument("--input", required=True, help="corpus parquet dir/file")
    runp.add_argument("--output", required=True, help="output directory")
    runp.add_argument("--num-parts", type=int, default=64)
    runp.add_argument("--batch-size", type=int, default=1024)
    runp.add_argument("--concurrency", type=int, default=None)
    runp.add_argument("--wave-size", type=int, default=None)
    runp.add_argument("--salt", type=int, default=1,
                      help="spread each repo over up to SALT partitions "
                           "(mega-repo checkpoint-skew mitigation)")
    runp.add_argument("--num-cpus", type=int, default=None,
                      help="ray.init num_cpus (default: all)")
    runp.add_argument("--set", action="append", default=[], metavar="FIELD=VAL",
                      help="override a PipelineConfig field")
    runp.add_argument("--strict", action="store_true",
                      help="strict-reject mode (drop at ingest)")
    runp.add_argument("--incremental", action="store_true",
                      help="process only parquet files not yet in the "
                           "output's ingest ledger (_ingested.jsonl) — "
                           "the continuous-queue analog; re-run after new "
                           "files arrive and only they are processed")
    runp.add_argument("--dedup-across-ingests", action="store_true",
                      help="with --incremental: drop rows whose exact "
                           "post-scrub content appeared in any prior "
                           "completed ingest (streaming dedup for a "
                           "growing corpus; within-ingest duplicates are "
                           "left to the downstream dedup pass)")
    runp.add_argument("--model", default=None, metavar="SPEC",
                      help="LID model: 'trigram' (default), "
                           "'fasttext:<path-to-lid.176.bin>', or "
                           "'import:<module>:<factory>' for any custom "
                           "adapter (functions/lid_adapters.py contract); "
                           "built at most once per worker process")

    repp = sub.add_parser("report", help="summarize a run's manifest")
    repp.add_argument("--output", required=True)
    repp.add_argument("--prom", help="also write a Prometheus textfile here")

    genp = sub.add_parser("gen-corpus", help="write a synthetic corpus")
    genp.add_argument("--rows", type=int, required=True)
    genp.add_argument("--out", required=True)
    genp.add_argument("--seed", type=int, default=42)

    packp = sub.add_parser(
        "pack",
        help="quality-filter -> dedup -> sequence-pack a corpus into a "
             "training manifest",
    )
    packp.add_argument("--input", required=True, help="corpus parquet dir")
    packp.add_argument("--output", required=True, help="manifest output dir")
    packp.add_argument("--num-cpus", type=int, default=None)

    purgep = sub.add_parser(
        "purge",
        help="retention: delete all but the newest N completed "
             "ingest=<fp>/ subtrees of an incremental output (dry-run "
             "unless --apply; purged files stay claimed, so they are not "
             "re-ingested)",
    )
    purgep.add_argument("--output", required=True,
                        help="incremental output directory")
    purgep.add_argument("--keep-ingests", type=int, required=True,
                        help="number of newest completed ingests to keep")
    purgep.add_argument("--apply", action="store_true",
                        help="actually delete (default: dry-run report)")

    sub.add_parser("queries", help="list every pipeline query and its check")

    args = p.parse_args(argv)

    if args.cmd == "purge":
        # pure filesystem maintenance — no Ray session needed
        from .state.checkpoint import purge_ingests

        print(json.dumps(
            purge_ingests(
                args.output, keep_ingests=args.keep_ingests,
                apply=args.apply,
            ),
            indent=2,
        ))
        return 0

    if args.cmd == "queries":
        # pure introspection — no Ray session needed
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "__ray_entry__", Path(__file__).resolve().parent.parent / "__ray_entry__.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        qs = mod.queries()
        oracles = set(mod.oracle_sql())
        for name in sorted(qs):
            kind = "oracle-checked" if name in oracles else "rows-only"
            print(f"{name:28s} {kind}")
        print(f"-- {len(qs)} queries, {len(oracles)} oracle-checked")
        return 0

    if args.cmd == "report":
        from pathlib import Path

        from .state.checkpoint import summarize_incremental, summarize_manifest
        from .state.metrics import rollup, write_prometheus_textfile

        # incremental outputs keep per-ingest manifests in ingest=<fp>/
        # subtrees; fold across them instead of the (absent) top-level one
        if any(Path(args.output).glob("ingest=*")):
            summary = summarize_incremental(args.output)
        else:
            summary = summarize_manifest(args.output)
        summary["rollup"] = rollup(summary)
        if args.prom:
            write_prometheus_textfile(summary, args.prom)
        print(json.dumps(summary, indent=2))
        return 0

    import ray

    if not ray.is_initialized():
        kw = {"num_cpus": args.num_cpus} if getattr(args, "num_cpus", None) else {}
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR", **kw)
    try:
        if args.cmd == "gen-corpus":
            from .corpus import write_corpus

            out = write_corpus(args.out, args.rows, seed=args.seed)
            print(out)
            return 0

        if args.cmd == "pack":
            from .pipelines.reports import pack_corpus

            print(json.dumps(pack_corpus(args.input, args.output), indent=2))
            return 0

        from .config import PipelineConfig
        from .state.checkpoint import run_incremental, run_with_checkpoints

        cfg = PipelineConfig.from_env()
        cfg = _apply_overrides(cfg, args.set)
        if args.strict:
            cfg = dataclasses.replace(cfg, strict_reject=True)
        from .functions.lid_adapters import resolve_model_spec

        model_factory = resolve_model_spec(args.model)
        extra = {}
        if args.dedup_across_ingests:
            if not args.incremental:
                raise SystemExit(
                    "--dedup-across-ingests requires --incremental"
                )
            extra["dedup_across_ingests"] = True
        runner = run_incremental if args.incremental else run_with_checkpoints
        try:
            summary = runner(
                args.input, args.output, cfg,
                num_parts=args.num_parts, batch_size=args.batch_size,
                concurrency=args.concurrency, wave_size=args.wave_size,
                salt=args.salt, model_factory=model_factory, **extra,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        print(json.dumps(summary, indent=2))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
