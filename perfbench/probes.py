"""Process-level probes: the Ray session, summed RSS of the process tree,
Ray Data's own per-operator stats, and the read -> identity -> write floor."""

from __future__ import annotations

import contextlib
import logging
import os
import signal
import sys
import threading
import time
from pathlib import Path

import ray
import ray.data

from langfilter_ray.pipelines.quality_filter import DEFAULT_BATCH_SIZE, read_corpus

# Logical CPUs given to Ray.  The scorer pool holds one actor, so the
# cascade runs on one core; the other logical CPUs let read and write tasks
# run beside it, and let a new wave's actor start while the last one's
# teardown still holds its CPU (with 2, a run stalled for 20 s).
NUM_CPUS = 4
CONCURRENCY = 1
OBJECT_STORE_BYTES = 512 * 1024 * 1024

# AF_UNIX socket paths are capped at 107 bytes on Linux; Ray places its
# sockets at <temp_dir>/session_<date>_<pid>/sockets/plasma_store.
_SOCKET_SUFFIX_LEN = 64
_SOCKET_PATH_MAX = 107


def start_ray(work_dir: Path, root: Path) -> None:
    """Start a fresh local Ray session whose files stay under ``work_dir``."""
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if str(root) not in paths:    # Ray workers import the package from here
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [str(root), *paths] if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    kwargs = {}
    temp_dir = work_dir / "ray"
    if len(str(temp_dir)) + _SOCKET_SUFFIX_LEN <= _SOCKET_PATH_MAX:
        kwargs["_temp_dir"] = str(temp_dir)
    else:
        print(
            f"note: {temp_dir} is too long for Ray's socket paths; "
            "using Ray's default temp dir",
            file=sys.stderr,
        )
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        **kwargs,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has ended.
    Workers can be re-parented when the raylet exits, so the pids are
    taken before the shutdown and followed by pid."""
    started = set(live_descendants())
    if ray.is_initialized():
        ray.shutdown()
    started |= set(live_descendants())

    def alive() -> list[int]:
        table = _process_table()
        return [p for p in started if p in table and table[p][1] != "Z"]

    deadline = time.monotonic() + timeout_s
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in alive():
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    while alive() and time.monotonic() < deadline + 5:
        time.sleep(0.1)
    left = alive()
    if left:
        raise RuntimeError(f"processes still running after Ray shutdown: {left}")


def _process_table() -> dict[int, tuple[int, str]]:
    """pid -> (parent pid, state) for every process visible in /proc."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        table[int(name)] = (int(fields[1]), fields[0])
    return table


def _descendants(table: dict[int, tuple[int, str]], root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], list(children.get(root, []))
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, []))
    return out


def live_descendants() -> list[int]:
    """Descendants of this process that have not exited (zombies excluded)."""
    table = _process_table()
    return [p for p in _descendants(table, os.getpid()) if table[p][1] != "Z"]


class RssSampler:
    """Peak of the summed RSS of this process and all its descendants,
    sampled on a background thread while the ``with`` block runs.  The
    process tree is re-listed every ``TREE_EVERY`` samples."""

    INTERVAL_S = 0.05
    TREE_EVERY = 10

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 2**20

    def _run(self) -> None:
        pids: list[int] = []
        n = 0
        while True:
            if n % self.TREE_EVERY == 0:
                pids = [os.getpid(), *_descendants(_process_table(), os.getpid())]
            n += 1
            total = 0
            for pid in pids:
                try:
                    with open(f"/proc/{pid}/statm") as fh:
                        total += int(fh.read().split()[1]) * self._page
                except OSError:
                    continue
            self.peak_bytes = max(self.peak_bytes, total)
            if self._stop.wait(self.INTERVAL_S):
                return


# ---- Ray Data's own per-operator stats -------------------------------------

@contextlib.contextmanager
def capture_write_stats():
    """Collect the stats summary of every ``Dataset.write_parquet`` the
    benchmark process runs inside the block (one per checkpoint wave)."""
    summaries: list = []
    original = ray.data.Dataset.write_parquet

    def write_parquet(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        summaries.append(self._write_ds._get_stats_summary())
        return result

    ray.data.Dataset.write_parquet = write_parquet
    try:
        yield summaries
    finally:
        ray.data.Dataset.write_parquet = original


def operator_totals(summaries: list) -> dict[str, dict[str, float]]:
    """Per-layer sums over the operators of every captured execution:
    ``read`` (ReadParquet), ``scorer`` (the CascadeScorer actor pool) and
    ``write`` (the parquet sink), each with wall_s, cpu_s, rows, bytes."""
    totals = {
        layer: {"wall_s": 0.0, "cpu_s": 0.0, "rows": 0, "bytes": 0}
        for layer in ("read", "scorer", "write")
    }
    seen = set()
    stack = list(summaries)
    while stack:
        summary = stack.pop()
        stack.extend(summary.parents)
        for op in summary.operators_stats:
            # parent summaries carry no dataset uuid; the list keeps every
            # op object alive, so its id is a stable key
            if id(op) in seen:
                continue
            seen.add(id(op))
            name = op.operator_name
            layer = (
                "read" if "ReadParquet" in name
                else "scorer" if "CascadeScorer" in name
                else "write" if "Write" in name
                else None
            )
            if layer is None:
                continue
            t = totals[layer]
            t["wall_s"] += (op.wall_time or {}).get("sum", 0.0)
            t["cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
            t["rows"] += (op.output_num_rows or {}).get("sum", 0)
            t["bytes"] += (op.output_size_bytes or {}).get("sum", 0)
    return totals


# ---- checkpoint layer ------------------------------------------------------

class CheckpointTrace:
    """Spans around the checkpoint module's calls during one run: every
    ``run_with_checkpoints`` call with its wave starts (one
    ``read_corpus`` per wave), time in ``summarize_manifest``, and time in
    ``run_incremental``."""

    def __init__(self) -> None:
        self.runs: list[dict] = []
        self.summary_s = 0.0
        self.incremental_s = 0.0

    @property
    def waves(self) -> int:
        return sum(len(r["wave_starts"]) for r in self.runs)

    def wave_seconds(self) -> list[float]:
        """Each wave's span, from its read to the next wave's read or the
        end of its run (commit included)."""
        out = []
        for r in self.runs:
            edges = [*r["wave_starts"], r["end"]]
            out += [b - a for a, b in zip(edges, edges[1:])]
        return out

    @property
    def checkpoint_s(self) -> float:
        return sum(r["end"] - r["start"] for r in self.runs)


@contextlib.contextmanager
def trace_checkpoint():
    from langfilter_ray.state import checkpoint

    trace = CheckpointTrace()
    originals = {
        name: getattr(checkpoint, name)
        for name in ("read_corpus", "run_with_checkpoints", "summarize_manifest",
                     "run_incremental")
    }

    def read_corpus(*args, **kwargs):
        trace.runs[-1]["wave_starts"].append(time.perf_counter())
        return originals["read_corpus"](*args, **kwargs)

    def run_with_checkpoints(*args, **kwargs):
        run = {"start": time.perf_counter(), "wave_starts": []}
        trace.runs.append(run)
        try:
            return originals["run_with_checkpoints"](*args, **kwargs)
        finally:
            run["end"] = time.perf_counter()

    def summarize_manifest(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return originals["summarize_manifest"](*args, **kwargs)
        finally:
            trace.summary_s += time.perf_counter() - t0

    def run_incremental(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return originals["run_incremental"](*args, **kwargs)
        finally:
            trace.incremental_s += time.perf_counter() - t0

    wrappers = {
        "read_corpus": read_corpus,
        "run_with_checkpoints": run_with_checkpoints,
        "summarize_manifest": summarize_manifest,
        "run_incremental": run_incremental,
    }
    for name, fn in wrappers.items():
        setattr(checkpoint, name, fn)
    try:
        yield trace
    finally:
        for name, fn in originals.items():
            setattr(checkpoint, name, fn)


# ---- Ray overhead floor ------------------------------------------------------

class Identity:
    """Actor-pool stand-in for the scorer that returns its batch unchanged."""

    def __call__(self, batch):
        return batch


def floor_pass(files: list[str], out_dir: Path) -> float:
    """Seconds to push ``files`` through read -> identity actor pool ->
    parquet write: the plan shape of one checkpoint wave without the
    cascade."""
    t0 = time.perf_counter()
    read_corpus(files).map_batches(
        Identity,
        batch_format="pyarrow",
        batch_size=DEFAULT_BATCH_SIZE,
        concurrency=CONCURRENCY,
        num_cpus=1,
    ).write_parquet(str(out_dir))
    return time.perf_counter() - t0
