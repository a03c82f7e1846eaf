"""Live (in-flight) runtime counters — the runtime analog of the
reference's Prometheus counter exposition (the reference increments gate
counters as results are produced and serves them for scraping,
/root/reference/langid_service/app/metrics.py:6-78 and
gate_metrics.py:132-165).  Here the same live surface is a zero-CPU NAMED
counter actor: cascade workers increment it fire-and-forget once per
batch (one tiny dict per ~1000 rows — no hot-path cost, no added shuffle),
so a monitoring thread/process can ``snapshot()`` progress DURING a run
and export it in Prometheus text format for a node-exporter textfile
scrape.

Off by default (``build_pipeline(live_metrics=True)`` opts in) so the
flagship pipeline stays a pure dataflow; the post-hoc manifest rollup in
``state/metrics.py`` remains the source of truth for committed counts.
"""

from __future__ import annotations

from pathlib import Path

import ray

ACTOR_NAME = "langfilter_live_metrics"


@ray.remote(num_cpus=0)
class LiveMetrics:
    """Counter registry keyed by (counter, label) — e.g. a gate decision."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def inc(self, counts: dict[str, int]) -> None:
        for k, v in counts.items():
            self._counts[k] = self._counts.get(k, 0) + int(v)

    def snapshot(self) -> dict[str, int]:
        return dict(self._counts)

    def reset(self) -> None:
        self._counts.clear()


# keepalive: a named non-detached actor is ref-counted — if the creating
# process dropped its handle the actor would be GC'd immediately.  The
# creator (normally the driver, via build_pipeline) parks the handle here
# for the life of its Ray session.
_KEEPALIVE = None


def get_or_create() -> "ray.actor.ActorHandle":
    """Named zero-CPU actor, shared by every stage worker in the session
    (get_if_exists makes creation race-free across concurrent workers).

    Only the DRIVER may be the first caller: the actor is non-detached and
    ref-counted, so it lives only as long as the creating process holds
    the keepalive handle.  ``build_pipeline(live_metrics=True)`` satisfies
    this by creating it driver-side before any worker starts; workers that
    call this afterwards just fetch the existing handle.  The read-side
    helpers (``snapshot``/``reset``) deliberately never create — a
    short-lived auxiliary caller would otherwise own the keepalive and
    take the counters down with it mid-run."""
    global _KEEPALIVE
    try:
        return ray.get_actor(ACTOR_NAME)
    except ValueError:
        _KEEPALIVE = LiveMetrics.options(name=ACTOR_NAME, get_if_exists=True).remote()
        return _KEEPALIVE


def _get_existing() -> "ray.actor.ActorHandle | None":
    try:
        return ray.get_actor(ACTOR_NAME)
    except ValueError:
        return None


def snapshot() -> dict[str, int]:
    """Current in-flight counters.  Read-only: raises if no pipeline has
    created the counter actor yet (creating here would park the keepalive
    handle in the calling process — see get_or_create)."""
    actor = _get_existing()
    if actor is None:
        raise RuntimeError(
            "live-metrics actor does not exist; run "
            "build_pipeline(live_metrics=True) (driver-side) first"
        )
    return ray.get(actor.snapshot.remote())


def reset() -> None:
    """Zero the counters if the actor exists; no-op otherwise (nothing to
    reset, and creating an actor from a possibly-transient caller would
    tie its lifetime to that caller — see get_or_create)."""
    actor = _get_existing()
    if actor is not None:
        ray.get(actor.reset.remote())


def write_live_textfile(path: str | Path) -> Path:
    """Prometheus text exposition of the CURRENT in-flight counters (the
    scrape surface; complement of metrics.write_prometheus_textfile which
    exports committed manifest totals)."""
    from .metrics import decision_lines

    lines = [
        "# HELP langfilter_live_gate_decisions_total rows per gate decision (in-flight)",
        "# TYPE langfilter_live_gate_decisions_total counter",
        *decision_lines("langfilter_live_gate_decisions_total", snapshot()),
    ]
    out = Path(path)
    out.write_text("\n".join(lines) + "\n")
    return out
