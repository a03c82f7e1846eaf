"""Per-row error containment (SURVEY.md §7.5.6): a poison row must become a
labeled error row, never fail or re-run its batch — the batch-granularity
answer to the reference's whole-job retry loop (runner.py:192-199)."""

from __future__ import annotations

import pyarrow as pa
import pytest

import langfilter_ray.stages.cascade as cascade_mod
from langfilter_ray.config import PipelineConfig
from langfilter_ray.corpus import SCHEMA
from langfilter_ray.stages.cascade import CascadeScorer


def _batch(contents: list[str | None]) -> pa.Table:
    n = len(contents)
    return pa.table(
        {
            "repo": [f"r{i}" for i in range(n)],
            "path": [f"p{i}" for i in range(n)],
            "commit": ["c" * 40] * n,
            "lang": ["python"] * n,
            "content": pa.array(contents, pa.large_string()),
        },
        schema=SCHEMA,
    )


def test_null_content_is_handled_as_empty():
    sc = CascadeScorer(PipelineConfig())
    out = sc(_batch([None, "the weather is good today and we walk out"]))
    decisions = out["gate_decision"].to_pylist()
    assert decisions[0] == "dropped_no_content"     # null -> empty -> no content
    assert decisions[1].startswith("kept_")
    assert out["error"].to_pylist()[0] is None


def test_poison_row_contained_not_batch_failing(monkeypatch):
    real = cascade_mod.cheap_features

    def exploding(content, cfg, nbytes=None):
        if content == "<<BOOM>>":
            raise RuntimeError("decoder exploded")
        return real(content, cfg, nbytes=nbytes)

    monkeypatch.setattr(cascade_mod, "cheap_features", exploding)
    sc = CascadeScorer(PipelineConfig())
    out = sc(
        _batch(
            [
                "the weather is good today and we walk out",
                "<<BOOM>>",
                "le garçon marche dans la rue avec sa mère et les enfants",
            ]
        )
    )
    decisions = out["gate_decision"].to_pylist()
    errors = out["error"].to_pylist()
    assert decisions[1] == "error"
    assert "decoder exploded" in errors[1]
    assert decisions[0].startswith("kept_")          # neighbors unaffected
    assert decisions[2].startswith("kept_")
    assert errors[0] is None and errors[2] is None
    assert out["keep"].to_pylist()[1] is False


def test_weird_unicode_rows_survive():
    sc = CascadeScorer(PipelineConfig(), scrub=True)
    weird = [
        "\x00\x01\x02 the and of to in is on it that with",
        "🚀" * 50 + " the rocket goes up to the sky with us today",
        "á" * 100 + " words here",
        "‮reversed‭ direction the and of to in is",
    ]
    out = sc(_batch(weird))
    assert out["error"].to_pylist() == [None] * 4
    assert len(out) == 4


@pytest.mark.parametrize("salt", [1, 4])
def test_null_repo_and_path_get_a_part_and_a_label(salt):
    """A null ``repo`` or ``path`` hashes like ``""``: the row gets a
    deterministic part id and its own label, and the task does not fail."""
    from langfilter_ray.pipelines.quality_filter import _cascade_task

    text = "the weather is good today and we walk out"
    batch = _batch([text, text, text])
    batch = batch.set_column(
        0, "repo", pa.array([None, "", "r2"], pa.string())
    ).set_column(1, "path", pa.array([None, "", "p2"], pa.string()))
    out = _cascade_task(batch, PipelineConfig(), num_parts=64, salt=salt)
    assert out.num_rows == 3
    parts = out["part"].to_pylist()
    assert parts[0] == parts[1] and None not in parts
    assert out["repo"].to_pylist()[0] is None
    assert out["error"].to_pylist() == [None] * 3
    assert all(d.startswith("kept_") for d in out["gate_decision"].to_pylist())


def test_over_cap_rows_reach_cheap_features_as_probes(monkeypatch):
    """Rows over ``max_content_bytes`` by UTF-8 bytes (one of them within
    the cap by characters) get the oracle's labels, and none of them
    reaches ``cheap_features`` as more than its probe."""
    from langfilter_ray.oracle import label_row

    cfg = PipelineConfig(max_content_bytes=96, probe_chars=48)
    prose = "the weather is good today and we walk out"
    contents = [
        None,
        prose + " and " + "x" * 200,         # over the cap, ASCII
        "é" * 60,                            # 60 characters, 120 bytes
        prose,                               # within the cap
        "é" * 48,                            # exactly at the cap: 96 bytes
    ]
    seen: list[str] = []
    real = cascade_mod.cheap_features

    def spy(content, cfg, nbytes=None):
        seen.append(content)
        return real(content, cfg, nbytes=nbytes)

    monkeypatch.setattr(cascade_mod, "cheap_features", spy)
    out = CascadeScorer(cfg, scrub=True)(_batch(contents))

    assert seen[0] == ""
    assert seen[1] == contents[1][: cfg.probe_chars]
    assert seen[2] == contents[2][: cfg.probe_chars]
    assert seen[3:] == contents[3:]
    rows = {r["path"]: r for r in out.to_pylist()}
    for i, content in enumerate(contents):
        want = label_row(content or "", cfg)
        got = rows[f"p{i}"]
        assert got["error"] is None
        assert {k: got[k] for k in want} == want, i
    assert [rows[f"p{i}"]["gate_decision"] for i in (1, 2)] == [
        "dropped_rule_too_large"] * 2
    assert rows["p3"]["keep"] and rows["p4"]["gate_decision"] != "dropped_rule_too_large"
