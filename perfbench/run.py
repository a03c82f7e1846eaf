"""Benchmark of the flagship quality-filter cascade on one core.

    python3 perfbench/run.py --workload mixed_corpus --seed 1 --seconds 30 --trace 0

Builds the workload's input from ``--seed``, sets up a local Ray session
(several times, reporting the median set-up time), then commits the input
through ``state/checkpoint`` over and over for ``--seconds`` seconds,
accounting for every input row and checking the labels of every row, or of
a seeded sample, against ``oracle.label_row``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics instead, from the same runs with spans
around the checkpoint calls, Ray Data's per-operator stats, a
read -> identity -> write floor, and a single-process replay of the
scorer stage.  One line per metric goes to stdout, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any row is missing, wrong or failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

# imports the package under test: fails outside a checkout of the repo
from perfbench import probes, replay  # noqa: E402
from perfbench.workloads import WORKLOADS, Tally, WarmUp, manifest_lines  # noqa: E402

WORK_DIR = ROOT / ".bench_work"
N_SETUPS = 2
FLOOR_PASSES = 3
REPLAY_PAIRS = 3
MAX_UNATTRIBUTED = 0.10

END_TO_END = {
    "rows_per_s": "rows/s",
    "first_commit_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "read.rows": "count",
    "read.wall_s": "s",
    "read.cpu_s": "s",
    "read.out_mb": "MB",
    "partition.busy_s": "s",
    "partition.skew": "ratio",
    "cheap.rows": "count",
    "cheap.decided": "count",
    "cheap.busy_s": "s",
    "pass1.rows": "count",
    "pass1.decided": "count",
    "pass1.busy_s": "s",
    "pass2.rows": "count",
    "pass2.decided": "count",
    "pass2.busy_s": "s",
    "fallback.rows": "count",
    "fallback.busy_s": "s",
    "scrub.rows": "count",
    "scrub.flagged": "count",
    "scrub.busy_s": "s",
    "assemble.busy_s": "s",
    "stage.busy_s": "s",
    "stage.rows_per_s": "rows/s",
    "ray.scorer.wall_s": "s",
    "ray.scorer.cpu_s": "s",
    "ray.write.wall_s": "s",
    "ray.write.out_mb": "MB",
    "ray.overhead_s": "s",
    "ray.floor_s": "s",
    "checkpoint.waves": "count",
    "checkpoint.wave_s": "s",
    "checkpoint.partitions": "count",
    "checkpoint.rows_rescored": "count",
    "checkpoint.summary_s": "s",
    "ingest.count": "count",
    "ingest.overhead_s": "s",
    "ledger.digests": "count",
    "ledger.rows_dropped": "count",
    "ledger.null_drops": "count",
    "trace.overhead_frac": "ratio",
    "check.failed_frac": "ratio",
    "check.label_mismatch_frac": "ratio",
}


class Phases:
    """Seconds of each phase of the benchmark process, logged to stderr."""

    def __init__(self) -> None:
        self._t = time.perf_counter()

    def done(self, name: str) -> None:
        now = time.perf_counter()
        print(f"phase {name}: {now - self._t:.1f}s", file=sys.stderr)
        self._t = now


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def set_up(warm: WarmUp, n: int) -> list[float]:
    """Start Ray and run the untimed warm-up pass ``n`` times (the session
    of the last one stays up); seconds of each set-up."""
    times = []
    for i in range(n):
        if i:
            probes.stop_ray()
        t0 = time.perf_counter()
        probes.start_ray(WORK_DIR, ROOT)
        rep_dir = WORK_DIR / "runs" / "warmup"
        shutil.rmtree(rep_dir, ignore_errors=True)
        warm.run(rep_dir)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(rep_dir, ignore_errors=True)
    return times


def layer_sample(rep, summaries: list, ckpt: probes.CheckpointTrace) -> dict:
    """Per-layer numbers of one traced run."""
    ops = probes.operator_totals(summaries)
    out_bytes = sum(f.stat().st_size for f in rep.out_dir.rglob("*.parquet"))
    sample = {
        "read.rows": ops["read"]["rows"],
        "read.wall_s": ops["read"]["wall_s"],
        "read.cpu_s": ops["read"]["cpu_s"],
        "read.out_mb": ops["read"]["bytes"] / 2**20,
        "ray.scorer.wall_s": ops["scorer"]["wall_s"],
        "ray.scorer.cpu_s": ops["scorer"]["cpu_s"],
        "ray.write.wall_s": ops["write"]["wall_s"],
        "ray.write.out_mb": out_bytes / 2**20,
        "checkpoint.waves": ckpt.waves,
        "checkpoint.wave_s": statistics.median(ckpt.wave_seconds()),
        "checkpoint.partitions": manifest_lines(rep.out_dir),
        "checkpoint.rows_rescored": ops["scorer"]["rows"] - rep.rows,
        "checkpoint.summary_s": ckpt.summary_s,
        "ingest.overhead_s": (
            ckpt.incremental_s - ckpt.checkpoint_s if ckpt.incremental_s else 0.0
        ),
        "ingest.count": 0,
        "ledger.digests": 0,
        "ledger.rows_dropped": 0,
        "ledger.null_drops": 0,
    }
    sample.update(rep.ledger)
    return sample


def measure(workload, seconds: float, traced: bool) -> tuple[list[dict], Tally]:
    """Closed loop: commit the workload's input again and again, one run at
    a time, until ``seconds`` have passed; every run is checked.  Runs come
    in pairs: consecutive runs alternate between slower and faster Ray
    executions, so an odd count would tilt the median."""
    samples: list[dict] = []
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while i % 2 or time.perf_counter() - start < seconds:
        rep_dir = WORK_DIR / "runs" / f"rep-{i}"
        i += 1
        shutil.rmtree(rep_dir, ignore_errors=True)
        try:
            with contextlib.ExitStack() as stack:
                rss = stack.enter_context(probes.RssSampler())
                if traced:
                    summaries = stack.enter_context(probes.capture_write_stats())
                    ckpt = stack.enter_context(probes.trace_checkpoint())
                rep = workload.run(rep_dir)
            rep_tally = workload.check(rep)
        except Exception:
            traceback.print_exc()
            tally.add(Tally(attempted=workload.rows, failed=workload.rows))
            continue
        tally.add(rep_tally)
        sample = {
            "wall_s": rep.wall_s,
            "rows_per_s": rep.rows / rep.wall_s,
            "first_commit_s": rep.first_commit_s,
            "peak_rss_mb": rss.peak_mb,
        }
        if traced:
            sample.update(layer_sample(rep, summaries, ckpt))
        samples.append(sample)
        print(f"run {i}: {rep.wall_s:.3f}s {rep_tally}", file=sys.stderr)
        shutil.rmtree(rep_dir, ignore_errors=True)
    return samples, tally


def replay_metrics(workload) -> dict:
    """Layer self-times from the single-process replay, interleaved with
    untraced replays for the tracing overhead."""
    feed = replay.batches(workload.tables)
    replay.untraced(feed, workload.num_parts)      # warm caches, untimed
    untraced, traced = [], []
    for _ in range(REPLAY_PAIRS):
        untraced.append(replay.untraced(feed, workload.num_parts))
        traced.append(replay.traced(feed, workload.num_parts))
    for stage_s, clock, _ in traced:
        attributed = sum(clock.busy[layer] for layer in replay.LAYERS)
        if abs(attributed - stage_s) > MAX_UNATTRIBUTED * stage_s:
            raise RuntimeError(
                f"layer self-times sum to {attributed:.3f}s, stage took "
                f"{stage_s:.3f}s: the replay's spans miss part of the stage"
            )
    _, clock, part_rows = traced[0]
    stage_s = statistics.median(t[0] for t in traced)
    out = {
        f"{layer}.busy_s": statistics.median(t[1].busy[layer] for t in traced)
        for layer in replay.LAYERS
    }
    out.update({name: clock.count[name] for name in (
        "cheap.rows", "cheap.decided", "pass1.rows", "pass1.decided",
        "pass2.rows", "pass2.decided", "fallback.rows", "scrub.rows",
        "scrub.flagged",
    )})
    out["partition.skew"] = float(part_rows.max() / part_rows.mean())
    out["stage.busy_s"] = stage_s
    out["stage.rows_per_s"] = workload.rows / stage_s
    # per-pair ratios, so host drift between pairs cancels
    out["trace.overhead_frac"] = statistics.median(
        t[0] / u for t, u in zip(traced, untraced)) - 1
    return out


def floor_seconds(workload) -> float:
    times = []
    for i in range(FLOOR_PASSES):
        out = WORK_DIR / "runs" / f"floor-{i}"
        shutil.rmtree(out, ignore_errors=True)
        times.append(probes.floor_pass(workload.files, out))
        shutil.rmtree(out, ignore_errors=True)
    return statistics.median(times)


def main() -> int:
    args = parse_args()
    shutil.rmtree(WORK_DIR / "runs", ignore_errors=True)
    shutil.rmtree(WORK_DIR / "ray", ignore_errors=True)

    phase = Phases()
    workload = WORKLOADS[args.workload](WORK_DIR, args.seed)
    warm = WarmUp(WORK_DIR, args.seed)
    workload.prepare()
    warm.prepare()
    phase.done("inputs")

    traced = bool(args.trace)
    try:
        setup_times = set_up(warm, 1 if traced else N_SETUPS)
        phase.done("set-up")
        samples, tally = measure(workload, args.seconds, traced)
        phase.done("closed loop")
        if traced:
            floor_s = floor_seconds(workload)
            phase.done("floor")
    finally:
        probes.stop_ray()
        shutil.rmtree(WORK_DIR / "runs", ignore_errors=True)
        phase.done("ray shutdown")

    failed_frac = tally.failed / tally.attempted
    mismatch_frac = tally.mismatched / max(tally.checked, 1)
    correct = tally.failed == 0 and tally.mismatched == 0 and bool(samples)

    def med(name: str) -> float:
        # a count stays a count: take a sample, not the mean of two
        pick = statistics.median_low if PER_LAYER.get(name) == "count" else statistics.median
        return pick(s[name] for s in samples)

    if not samples:
        values = {}
    elif traced:
        values = {name: med(name) for name in samples[0] if name in PER_LAYER}
        values.update(replay_metrics(workload))
        phase.done("replay")
        values["ray.overhead_s"] = med("wall_s") - values["stage.busy_s"]
        values["ray.floor_s"] = floor_s
        values["check.failed_frac"] = failed_frac
        values["check.label_mismatch_frac"] = mismatch_frac
    else:
        values = {name: med(name) for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setup_times)
    units = PER_LAYER if traced else END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }

    print(f"workload {args.workload} seed {args.seed} runs {len(samples)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {failed_frac} ratio")
    print(f"label_mismatch_frac {mismatch_frac} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
