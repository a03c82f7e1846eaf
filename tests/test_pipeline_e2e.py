"""End-to-end pipeline tests against the committed golden labels — the
analog of the reference's deterministic worker-integration tests
(tests/test_api.py:10-76) plus the stability harness
(test_langid_stability.sh consistency phase): run the Ray pipeline on the
unit corpus, join to the golden parquet on (repo, path, commit), and
assert keep/drop F1 >= 0.99 (exact here, by construction) and per-row
scrubbed-sha256 equality; then re-run and assert bit-identical output."""

from __future__ import annotations

import pandas as pd
import pytest

from langfilter_ray.config import PipelineConfig
from langfilter_ray.pipelines.quality_filter import build_pipeline, read_corpus

KEY = ["repo", "path", "commit"]
DECISION_COLS = ["keep", "gate_decision", "language", "method"]


def _run_pipeline(unit_corpus_dir: str) -> pd.DataFrame:
    ds = build_pipeline(
        read_corpus(unit_corpus_dir), PipelineConfig(), concurrency=(1, 2)
    )
    df = ds.to_pandas()
    meta = pd.DataFrame(list(df["meta"]))
    pii = pd.DataFrame(list(df["pii_flags"]))
    df = pd.concat(
        [df.drop(columns=["meta", "rule_flags", "pii_flags"]), meta, pii], axis=1
    )
    return df.sort_values(KEY).reset_index(drop=True)


@pytest.fixture(scope="module")
def pipeline_output(ray_session, unit_corpus_dir) -> pd.DataFrame:
    return _run_pipeline(unit_corpus_dir)


def _joined(pipeline_output, golden_labels) -> pd.DataFrame:
    golden = golden_labels.to_pandas()
    merged = golden.merge(
        pipeline_output, on=KEY, suffixes=("_gold", "_ray"), how="inner"
    )
    assert len(merged) == len(golden), "key join lost rows"
    return merged


def test_keep_drop_f1(pipeline_output, golden_labels):
    m = _joined(pipeline_output, golden_labels)
    tp = int(((m.keep_gold) & (m.keep_ray)).sum())
    fp = int((~m.keep_gold & m.keep_ray).sum())
    fn = int((m.keep_gold & ~m.keep_ray).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall)
    assert f1 >= 0.99, (tp, fp, fn)
    assert f1 == 1.0          # structural parity: the stages share the oracle


def test_full_decision_tuple_matches_golden(pipeline_output, golden_labels):
    m = _joined(pipeline_output, golden_labels)
    for col in ["gate_decision", "language", "method"]:
        mismatch = m[m[f"{col}_gold"] != m[f"{col}_ray"]]
        assert mismatch.empty, mismatch.head()
    pd.testing.assert_series_equal(
        m["probability_gold"], m["probability_ray"],
        check_names=False, check_exact=True,
    )
    for col in ["token_count", "second_pass", "no_content", "mid_zone"]:
        mismatch = m[m[f"{col}_gold"] != m[f"{col}_ray"]]
        assert mismatch.empty, (col, mismatch.head())


def test_scrubbed_sha256_matches_golden(pipeline_output, golden_labels):
    m = _joined(pipeline_output, golden_labels)
    gold = m["scrubbed_sha256"].fillna("∅")
    ray_sha = m["content_sha256"].fillna("∅")
    assert (gold == ray_sha).all()


def test_scrub_flags_match_oracle_on_golden_corpus(
    pipeline_output, golden_labels, unit_corpus_dir
):
    """Each kept row's per-rule flags are the spec's (``scrub_text``: the
    rule changed the text), ``scrubbed`` is their OR and equals the golden
    label; dropped rows carry all-False flags.  The pipeline does not
    output the input text, so it is joined from the corpus by key."""
    import pyarrow.dataset as pads

    from langfilter_ray.functions.scrub import RULE_NAMES, scrub_text

    assert "content" not in pipeline_output.columns
    corpus = pads.dataset(unit_corpus_dir, format="parquet").to_table(
        columns=KEY + ["content"]
    ).to_pandas()
    m = _joined(pipeline_output, golden_labels).merge(corpus, on=KEY, how="inner")
    assert len(m) == len(golden_labels)
    assert (m["scrubbed_gold"] == m["scrubbed_ray"]).all()
    assert m["scrubbed_ray"].any()
    for row in m.itertuples():
        want = (scrub_text(row.content)[1] if row.keep_ray
                else dict.fromkeys(RULE_NAMES, False))
        got = {name: getattr(row, name) for name in RULE_NAMES}
        assert got == want, (row.path, got, want)
        assert row.scrubbed_ray == any(want.values())


def test_stability_rerun_identical(ray_session, unit_corpus_dir, pipeline_output):
    again = _run_pipeline(unit_corpus_dir)
    cols = DECISION_COLS + ["content_sha256", "probability", "part"]
    pd.testing.assert_frame_equal(
        pipeline_output[cols], again[cols], check_exact=True
    )


def test_error_column_contains_no_surprises(pipeline_output):
    # the unit corpus has poison rows; they must land as labeled rows, not
    # task failures — and none of the current fixtures should actually error
    assert (pipeline_output["gate_decision"] == "error").sum() == 0
    assert pipeline_output["error"].isna().all()


def test_partition_ids_deterministic_and_bounded(pipeline_output):
    assert pipeline_output["part"].between(0, 63).all()
    one_repo = pipeline_output[pipeline_output.repo == "megacorp/monorepo"]
    assert one_repo["part"].nunique() == 1      # part is a pure repo function
