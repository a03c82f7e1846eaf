"""Metrics rollup & export (A4/A5 analogs).

The reference classifies every result into a gate PATH and a pipeline MODE
and exports Prometheus counters (/root/reference/langid_service/app/
gate_metrics.py:52-129 classifiers, :132-165 counter; metrics exposition
tested at tests/test_metrics.py:23-57).  Here the same rollup is a fold
over the partition manifest (no metrics process needed — counters were
already reduced per partition at commit time), plus an optional Prometheus
*textfile* export for scrape-based collection on a real cluster.
"""

from __future__ import annotations

from pathlib import Path

# decision -> gate path (gate_metrics.py:52-90 analog, retargeted to the
# code-domain decision vocabulary)
_PATHS: dict[str, str] = {
    "kept_high_conf": "fast_path",
    "kept_mid_zone_en": "heuristic",
    "kept_mid_zone_fr": "heuristic",
    "kept_second_pass": "second_pass",
    "dropped_no_content": "no_content",
    "dropped_fallback": "fallback",
    "rejected_strict": "strict_reject",
    "error": "error",
}


def gate_path(decision: str) -> str:
    """Classify a gate decision into its cost-ladder path; any
    dropped_rule_* decision is the 'rules' (pre-model) path."""
    if decision.startswith("dropped_rule_"):
        return "rules"
    return _PATHS.get(decision, "other")


def pipeline_mode(decision: str) -> str:
    """accept / reject / error — the mode classifier analog
    (gate_metrics.py:93-129)."""
    if decision == "error":
        return "error"
    return "accept" if decision.startswith("kept_") else "reject"


def rollup(summary: dict) -> dict:
    """Aggregate a manifest summary's by_decision counters into path and
    mode rollups with percentages (main.py:335-367 analog)."""
    by_decision = summary.get("by_decision", {})
    total = sum(by_decision.values()) or 1
    paths: dict[str, int] = {}
    modes: dict[str, int] = {}
    for decision, n in by_decision.items():
        paths[gate_path(decision)] = paths.get(gate_path(decision), 0) + n
        modes[pipeline_mode(decision)] = modes.get(pipeline_mode(decision), 0) + n
    return {
        "total": sum(by_decision.values()),
        "by_path": dict(sorted(paths.items())),
        "by_mode": dict(sorted(modes.items())),
        "pct_by_path": {
            k: round(100.0 * v / total, 2) for k, v in sorted(paths.items())
        },
    }


def decision_lines(metric: str, by_decision: dict[str, int]) -> list[str]:
    """One Prometheus sample of ``metric`` per gate decision, labelled with
    its decision, path and mode, in decision order."""
    return [
        f'{metric}{{decision="{d}",path="{gate_path(d)}",'
        f'mode="{pipeline_mode(d)}"}} {n}'
        for d, n in sorted(by_decision.items())
    ]


def write_prometheus_textfile(summary: dict, path: str | Path) -> Path:
    """Export manifest counters in Prometheus text exposition format (the
    scrape surface of app/metrics.py:6-78, as a node-exporter textfile)."""
    lines = [
        "# HELP langfilter_rows_total rows processed by final disposition",
        "# TYPE langfilter_rows_total counter",
    ]
    for key in ("kept", "dropped", "scrubbed", "errors"):
        lines.append(f'langfilter_rows_total{{disposition="{key}"}} {summary.get(key, 0)}')
    lines += [
        "# HELP langfilter_gate_decisions_total rows per gate decision",
        "# TYPE langfilter_gate_decisions_total counter",
    ]
    lines += decision_lines("langfilter_gate_decisions_total",
                            summary.get("by_decision", {}))
    lines.append(
        f"langfilter_partitions_committed {summary.get('partitions', 0)}"
    )
    out = Path(path)
    out.write_text("\n".join(lines) + "\n")
    return out
