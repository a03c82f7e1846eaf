"""Mode/projection tests: strict-reject pipeline, language-code output
formats, snippet enrichment, CLI smoke."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from langfilter_ray.config import PipelineConfig
from langfilter_ray.pipelines.quality_filter import build_pipeline, read_corpus

REPO = Path(__file__).resolve().parent.parent


def test_strict_mode_rejects_instead_of_fallback(ray_session, unit_corpus_dir):
    cfg = PipelineConfig(strict_reject=True)
    ds = build_pipeline(read_corpus(unit_corpus_dir), cfg, concurrency=2)
    df = ds.select_columns(["gate_decision"]).to_pandas()
    counts = df["gate_decision"].value_counts()
    assert counts.get("rejected_strict", 0) > 0
    assert counts.get("dropped_fallback", 0) == 0    # strict replaces fallback


def test_lang_code_format_projection(ray_session, unit_corpus_dir):
    cfg = PipelineConfig(lang_code_format="iso639-2b")
    ds = build_pipeline(read_corpus(unit_corpus_dir), cfg, concurrency=2)
    langs = set(ds.select_columns(["language"]).to_pandas()["language"])
    assert "eng" in langs
    assert "fre" in langs
    assert "en" not in langs and "fr" not in langs
    assert "none" in langs            # unknown passes through


def test_snippet_on_kept_rows_only(ray_session, unit_corpus_dir):
    ds = build_pipeline(read_corpus(unit_corpus_dir), PipelineConfig(), concurrency=2)
    df = ds.select_columns(["keep", "snippet", "scrubbed_content"]).to_pandas()
    kept = df[df.keep]
    dropped = df[~df.keep]
    assert kept["snippet"].notna().all()
    assert dropped["snippet"].isna().all()
    # snippet is the first <=10 words (+ ellipsis when truncated)
    row = kept.iloc[0]
    words = row["scrubbed_content"].split()
    if len(words) > 10:
        assert row["snippet"] == " ".join(words[:10]) + " ..."
    else:
        assert row["snippet"] == row["scrubbed_content"]


def test_cli_run_and_report(tmp_path):
    corpus = tmp_path / "corpus"
    out = tmp_path / "out"
    env = {"PYTHONPATH": str(REPO), "PATH": "/usr/bin:/bin",
           "HOME": "/root", "RAY_ADDRESS": "local"}
    subprocess.run(
        [sys.executable, "-m", "langfilter_ray", "gen-corpus",
         "--rows", "300", "--out", str(corpus), "--seed", "7"],
        check=True, cwd=REPO, env=env, capture_output=True, timeout=300,
    )
    r = subprocess.run(
        [sys.executable, "-m", "langfilter_ray", "run",
         "--input", str(corpus), "--output", str(out),
         "--num-parts", "4", "--num-cpus", "4",
         "--set", "mid_upper=0.79"],
        check=True, cwd=REPO, env=env, capture_output=True, text=True,
        timeout=300,
    )
    summary = json.loads(r.stdout[r.stdout.index("{"):])
    assert summary["rows_in"] == 300
    assert summary["partitions"] == 4
    r2 = subprocess.run(
        [sys.executable, "-m", "langfilter_ray", "report", "--output", str(out)],
        check=True, cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
    )
    assert json.loads(r2.stdout)["rows_in"] == 300


# One raw string per field type, spelled the way a shell user might.
RAW_BY_TYPE = {"float": " 0.5", "int": "7", "bool": "Yes", "str": "iso639-2b",
               "tuple[str, ...]": "en, fr,"}


@pytest.mark.parametrize("field", dataclasses.fields(PipelineConfig),
                         ids=lambda f: f.name)
def test_set_and_env_parse_every_field_alike(field):
    """`run --set NAME=RAW` and `LANGFILTER_NAME=RAW` give the same value."""
    from langfilter_ray.cli import _apply_overrides

    raw = RAW_BY_TYPE[field.type]
    via_set = _apply_overrides(PipelineConfig(), [f"{field.name}={raw}"])
    via_env = PipelineConfig.from_env({"LANGFILTER_" + field.name.upper(): raw})
    assert getattr(via_set, field.name) == getattr(via_env, field.name)
    assert via_set == via_env


def test_set_allowed_langs_strips_spaces():
    from langfilter_ray.cli import _apply_overrides

    cfg = _apply_overrides(PipelineConfig(), ["allowed_langs=en, fr"])
    assert cfg.allowed_langs == ("en", "fr")
    with pytest.raises(SystemExit, match="unknown config field: no_such"):
        _apply_overrides(PipelineConfig(), ["no_such=1"])


BAD_VALUES = [("strict_reject", "ture"), ("strict_reject", "on"),
              ("strict_reject", ""), ("lang_code_format", "iso639")]


@pytest.mark.parametrize("name,raw", BAD_VALUES)
def test_env_rejects_a_value_the_field_cannot_take(name, raw):
    with pytest.raises(ValueError, match=f"config field {name}: {raw!r}"):
        PipelineConfig.from_env({"LANGFILTER_" + name.upper(): raw})


@pytest.mark.parametrize("name,raw", BAD_VALUES)
def test_set_rejects_a_value_the_field_cannot_take(name, raw):
    from langfilter_ray.cli import _apply_overrides

    with pytest.raises(SystemExit, match=f"config field {name}: {raw!r}"):
        _apply_overrides(PipelineConfig(), [f"{name}={raw}"])


@pytest.mark.parametrize("raw,want", [("1", True), ("TRUE", True), ("yes", True),
                                      ("0", False), ("False", False), ("NO", False)])
def test_bool_fields_take_each_spelling_in_any_case(raw, want):
    from langfilter_ray.cli import _apply_overrides

    assert PipelineConfig.from_env({"LANGFILTER_STRICT_REJECT": raw}).strict_reject is want
    assert _apply_overrides(PipelineConfig(), [f"strict_reject={raw}"]).strict_reject is want


def test_salted_partitioning_spreads_mega_repo(ray_session, unit_corpus_dir):
    ds = build_pipeline(
        read_corpus(unit_corpus_dir), PipelineConfig(), concurrency=2, salt=4
    )
    df = ds.select_columns(["repo", "part"]).to_pandas()
    mono = df[df.repo == "megacorp/monorepo"]
    assert 2 <= mono["part"].nunique() <= 4      # split across <= salt parts
    # still a pure row function: identical on a re-run
    df2 = build_pipeline(
        read_corpus(unit_corpus_dir), PipelineConfig(), concurrency=2, salt=4
    ).select_columns(["repo", "part"]).to_pandas()
    assert df.sort_values(["repo", "part"]).reset_index(drop=True).equals(
        df2.sort_values(["repo", "part"]).reset_index(drop=True)
    )


def test_cli_report_folds_incremental_output(tmp_path):
    """`report` on an --incremental output (no top-level manifest, only
    ingest=<fp>/ subtrees) must fold the per-ingest manifests instead of
    reporting zeros."""
    corpus = tmp_path / "corpus"
    out = tmp_path / "out"
    env = {"PYTHONPATH": str(REPO), "PATH": "/usr/bin:/bin",
           "HOME": "/root", "RAY_ADDRESS": "local"}
    subprocess.run(
        [sys.executable, "-m", "langfilter_ray", "gen-corpus",
         "--rows", "200", "--out", str(corpus), "--seed", "3"],
        check=True, cwd=REPO, env=env, capture_output=True, timeout=300,
    )
    subprocess.run(
        [sys.executable, "-m", "langfilter_ray", "run",
         "--input", str(corpus), "--output", str(out),
         "--incremental", "--num-parts", "2", "--num-cpus", "4"],
        check=True, cwd=REPO, env=env, capture_output=True, timeout=300,
    )
    prom = tmp_path / "node.prom"
    r = subprocess.run(
        [sys.executable, "-m", "langfilter_ray", "report",
         "--output", str(out), "--prom", str(prom)],
        check=True, cwd=REPO, env=env, capture_output=True, text=True, timeout=60,
    )
    summary = json.loads(r.stdout)
    assert summary["ingests"] == 1
    assert summary["rows_in"] == 200
    assert summary["partitions"] == 2
    assert summary["kept"] + summary["dropped"] == 200
    assert summary["rollup"]["total"] == 200
    # the Prometheus surface must see the folded partition count too
    prom_text = prom.read_text()
    assert "langfilter_partitions_committed 2" in prom_text


@pytest.mark.parametrize("fmt", ["iso639-1", "iso639-2b"])
def test_cascade_task_part_filter_keeping_no_row_is_typed(fmt):
    """No Ray needed: a wave whose part filter matches no row of a batch
    returns a zero-row table with the full output schema."""
    import numpy as np

    from langfilter_ray.corpus import gen_table
    from langfilter_ray.pipelines.quality_filter import _cascade_task

    cfg = PipelineConfig(lang_code_format=fmt)
    batch = gen_table(64, start=0)
    full = _cascade_task(batch, cfg, num_parts=8)
    present = set(full["part"].to_pylist())
    assert full.num_rows == 64 and present != set(range(8))
    none = np.array(sorted(set(range(8)) - present), dtype=np.int32)
    empty = _cascade_task(batch, cfg, num_parts=8, parts=none)
    assert empty.num_rows == 0
    assert empty.schema.equals(full.schema), (empty.schema, full.schema)
