"""Metrics rollup & exposition tests (reference tests/test_metrics.py:23-57
analog: counters classified by path/mode and exported in Prometheus text
format)."""

from __future__ import annotations

from langfilter_ray.state.metrics import (
    gate_path,
    pipeline_mode,
    rollup,
    write_prometheus_textfile,
)

SUMMARY = {
    "partitions": 8,
    "rows_in": 100,
    "kept": 60,
    "dropped": 40,
    "scrubbed": 5,
    "errors": 1,
    "by_decision": {
        "kept_high_conf": 40,
        "kept_mid_zone_en": 10,
        "kept_second_pass": 10,
        "dropped_no_content": 10,
        "dropped_fallback": 15,
        "dropped_rule_repetition": 8,
        "dropped_rule_line_len": 6,
        "error": 1,
    },
}


def test_gate_path_classifier():
    assert gate_path("kept_high_conf") == "fast_path"
    assert gate_path("kept_mid_zone_fr") == "heuristic"
    assert gate_path("kept_second_pass") == "second_pass"
    assert gate_path("dropped_rule_alnum_ratio") == "rules"
    assert gate_path("dropped_no_content") == "no_content"
    assert gate_path("rejected_strict") == "strict_reject"


def test_pipeline_mode_classifier():
    assert pipeline_mode("kept_high_conf") == "accept"
    assert pipeline_mode("dropped_fallback") == "reject"
    assert pipeline_mode("error") == "error"


def test_rollup_percentages_sum():
    r = rollup(SUMMARY)
    assert r["total"] == 100
    assert r["by_mode"] == {"accept": 60, "error": 1, "reject": 39}
    assert r["by_path"]["rules"] == 14
    assert abs(sum(r["pct_by_path"].values()) - 100.0) < 0.1


# The decision samples of SUMMARY, as both textfiles spell them.
DECISION_SAMPLES = """\
{m}{{decision="dropped_fallback",path="fallback",mode="reject"}} 15
{m}{{decision="dropped_no_content",path="no_content",mode="reject"}} 10
{m}{{decision="dropped_rule_line_len",path="rules",mode="reject"}} 6
{m}{{decision="dropped_rule_repetition",path="rules",mode="reject"}} 8
{m}{{decision="error",path="error",mode="error"}} 1
{m}{{decision="kept_high_conf",path="fast_path",mode="accept"}} 40
{m}{{decision="kept_mid_zone_en",path="heuristic",mode="accept"}} 10
{m}{{decision="kept_second_pass",path="second_pass",mode="accept"}} 10
"""


def test_prometheus_textfile(tmp_path):
    text = write_prometheus_textfile(SUMMARY, tmp_path / "langfilter.prom").read_text()
    assert text == (
        "# HELP langfilter_rows_total rows processed by final disposition\n"
        "# TYPE langfilter_rows_total counter\n"
        'langfilter_rows_total{disposition="kept"} 60\n'
        'langfilter_rows_total{disposition="dropped"} 40\n'
        'langfilter_rows_total{disposition="scrubbed"} 5\n'
        'langfilter_rows_total{disposition="errors"} 1\n'
        "# HELP langfilter_gate_decisions_total rows per gate decision\n"
        "# TYPE langfilter_gate_decisions_total counter\n"
        + DECISION_SAMPLES.format(m="langfilter_gate_decisions_total")
        + "langfilter_partitions_committed 8\n"
    )


def test_live_textfile_exact_text(tmp_path, monkeypatch):
    """The live textfile spells its decision samples as the committed one
    does; the snapshot is stubbed, so no counter actor is needed."""
    from langfilter_ray.state import live_metrics

    monkeypatch.setattr(live_metrics, "snapshot",
                        lambda: dict(SUMMARY["by_decision"]))
    text = live_metrics.write_live_textfile(tmp_path / "live.prom").read_text()
    assert text == (
        "# HELP langfilter_live_gate_decisions_total rows per gate decision "
        "(in-flight)\n"
        "# TYPE langfilter_live_gate_decisions_total counter\n"
        + DECISION_SAMPLES.format(m="langfilter_live_gate_decisions_total")
    )


def test_live_metrics_counts_match_output(ray_session, unit_corpus_dir, tmp_path):
    """Runtime counter exposition (reference app/metrics.py analog): the
    named counter actor's snapshot after a live_metrics=True run must equal
    the pipeline output's own decision distribution exactly."""
    from langfilter_ray.config import PipelineConfig
    from langfilter_ray.pipelines.quality_filter import build_pipeline, read_corpus
    from langfilter_ray.state import live_metrics

    live_metrics.reset()
    ds = build_pipeline(
        read_corpus(unit_corpus_dir), PipelineConfig(),
        concurrency=(1, 2), live_metrics=True,
    )
    df = ds.to_pandas()
    want = df["gate_decision"].value_counts().to_dict()
    # incs are fire-and-forget: a live counter is eventually consistent,
    # so poll briefly until the last in-flight increments drain
    import time

    snap: dict = {}
    for _ in range(50):
        snap = live_metrics.snapshot()
        if sum(snap.values()) >= len(df):
            break
        time.sleep(0.1)
    assert snap == want
    assert sum(snap.values()) == len(df)

    out = live_metrics.write_live_textfile(tmp_path / "live.prom")
    text = out.read_text()
    assert "langfilter_live_gate_decisions_total" in text
    some_decision = next(iter(want))
    assert f'decision="{some_decision}"' in text


def test_live_metrics_tasks_mode(ray_session, unit_corpus_dir):
    """Scorer tasks count into the counter actor of the CURRENT run: a
    process that scored an earlier run must not keep a handle to that
    run's actor.  Kill the actor after a run; the next live_metrics run
    recreates it, and its snapshot must equal the output's counts."""
    import time

    import ray

    from langfilter_ray.config import PipelineConfig
    from langfilter_ray.pipelines.quality_filter import build_pipeline, read_corpus
    from langfilter_ray.state import live_metrics

    def run_and_snapshot():
        df = build_pipeline(
            read_corpus(unit_corpus_dir), PipelineConfig(), live_metrics=True,
        ).to_pandas()
        snap: dict = {}
        for _ in range(50):
            snap = live_metrics.snapshot()
            if sum(snap.values()) >= len(df):
                break
            time.sleep(0.1)
        return snap, df["gate_decision"].value_counts().to_dict()

    live_metrics.reset()
    snap, want = run_and_snapshot()
    assert snap == want
    ray.kill(ray.get_actor(live_metrics.ACTOR_NAME))
    for _ in range(50):          # the kill is asynchronous
        try:
            ray.get_actor(live_metrics.ACTOR_NAME)
        except ValueError:
            break
        time.sleep(0.1)
    snap, want = run_and_snapshot()
    assert snap == want
