"""Hardware-ceiling microbenchmark — NO Ray involved.

Measures per-core throughput of the exact fused cascade+scrub stage
function under plain ``multiprocessing`` at 8 pinned processes vs 32, to
isolate what the HOST itself allows (turbo / steal-time on the shared VM)
from anything Ray adds.  This is the evidence BASELINE.md §"Why measured
efficiency varies" cites: if 8 busy cores run ~1.4x faster per core than
32 busy cores, an 8-vs-32 scaling measurement of perfect code caps at
~0.70 — the pipeline's measured efficiency must be read against THIS
ceiling, not against 1.0.

Usage: python scripts/host_ceiling_bench.py [trials]
Prints one JSON line: {"rps8": ..., "rps32": ..., "hw_efficiency": ...}
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

ROWS_PER_TASK = 4000
TASKS_PER_PROC = 3


def _work(task_id: int) -> int:
    """One task = generate + score ROWS_PER_TASK corpus rows with the real
    fused stage function (model cached per process, as in the pipeline)."""
    from langfilter_ray.config import DEFAULT_CONFIG
    from langfilter_ray.corpus import gen_table
    from langfilter_ray.pipelines.quality_filter import _cascade_task

    batch = gen_table(ROWS_PER_TASK, start=task_id * ROWS_PER_TASK)
    out = _cascade_task(batch, cfg=DEFAULT_CONFIG)
    return out.num_rows


def _init_worker(barrier) -> None:
    """Runs in EVERY spawned worker before it takes tasks: pay the heavy
    import + model build + one tiny scoring pass here, then rendezvous at
    the barrier — so the timed window below contains steady-state work
    only (a single warm-up task would prime just one of N workers,
    leaving N-1 cold starts INSIDE the measurement, differentially worse
    at 32 procs than at 8)."""
    from langfilter_ray.config import DEFAULT_CONFIG
    from langfilter_ray.corpus import gen_table
    from langfilter_ray.pipelines.quality_filter import _cascade_task

    _cascade_task(gen_table(64, start=0), cfg=DEFAULT_CONFIG)
    barrier.wait()


def _run_level(n_procs: int, pin: bool) -> float:
    if pin:
        os.sched_setaffinity(0, set(range(n_procs)))
    else:
        os.sched_setaffinity(0, set(range(os.cpu_count() or 32)))
    n_tasks = n_procs * TASKS_PER_PROC
    ctx = mp.get_context("spawn")
    barrier = ctx.Barrier(n_procs + 1)
    with ctx.Pool(n_procs, initializer=_init_worker,
                  initargs=(barrier,)) as pool:
        barrier.wait(timeout=300)     # all workers warm before the clock
        t0 = time.time()
        done = pool.map(_work, range(1, n_tasks + 1))
        dt = time.time() - t0
    return sum(done) / dt


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    best8 = max(_run_level(8, pin=True) for _ in range(trials))
    best32 = max(_run_level(32, pin=False) for _ in range(trials))
    print(
        json.dumps(
            {
                "rps8": round(best8, 1),
                "rps32": round(best32, 1),
                "hw_efficiency": round((best32 / best8) / 4.0, 3),
                "rows_per_task": ROWS_PER_TASK,
                "trials": trials,
            }
        )
    )


if __name__ == "__main__":
    main()
