"""Reporting over flagship-pipeline output — the A1/A4/A5 analogs
(SURVEY.md §2.6): per-rule counters and gate-path distribution as tiny
groupby results over the labeled dataset."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..config import DEFAULT_CONFIG, PipelineConfig
from ._common import _read
from .quality_filter import _default_pool_size, build_pipeline, read_corpus


def corpus_rows_for_sf(sf_dir: str) -> int:
    """Deterministic corpus size per driver scale factor (the corpus is
    synthesized — BASELINE.json input_hint shape — since the shared
    testdata has no (repo, path, commit, lang, content) table)."""
    if "0.001" in sf_dir:
        return 1000
    if "0.01" in sf_dir:
        return 2000          # == the committed golden corpus
    return 1_000_000         # bench scale: ~460 MB of content


def corpus_for(sf_dir: str) -> str:
    from ..corpus import write_corpus

    n = corpus_rows_for_sf(sf_dir)
    return str(write_corpus(f"/tmp/langfilter_corpus/{n}", n))


def quality_filter_labels(sf_dir: str) -> ray.data.Dataset:
    """The flagship pipeline's label output (the scrubbed text and snippet
    are left out so the result is compact; run_with_checkpoints commits
    them with the labels)."""
    cfg = PipelineConfig()
    ds = build_pipeline(read_corpus(corpus_for(sf_dir)), cfg)
    return ds.select_columns(
        ["repo", "path", "commit", "keep", "gate_decision", "language",
         "method", "content_sha256", "part"]
    )


def gate_decision_report(sf_dir: str) -> ray.data.Dataset:
    """Per-rule counter rollup (gate_metrics.py:132-165 analog)."""
    cfg = DEFAULT_CONFIG
    ds = build_pipeline(read_corpus(corpus_for(sf_dir)), cfg)
    from ray.data.aggregate import Sum

    from ._common import _partial_group_agg

    return (
        ds.select_columns(["gate_decision", "language"])
        # combiner: <= decisions x languages rows per batch cross the
        # shuffle instead of one row per corpus file
        .map_batches(
            _partial_group_agg(["gate_decision", "language"]),
            batch_format="pyarrow",
        )
        .groupby(["gate_decision", "language"])
        .aggregate(Sum("n_partial", alias_name="n_rows"))
    )


class WordMapTranslator:
    """Shared T6 actor: ONE translator model per actor, built in __init__
    (the per-worker model singleton, reference app/translate.py:12-39).
    ``translator_factory`` is the pluggable-model seam — the translation
    twin of the cascade's ``model_factory``: a zero-arg picklable callable
    returning an object with ``translate_batch(texts, src, tgt)`` (see
    functions/translate.py for the contract and the documented Marian
    adapter).  The default is the deterministic ``WordMapModel``, whose
    fully-vectorized Arrow kernel the stage uses zero-copy when the model
    exposes ``translate_column``."""

    def __init__(self, translator_factory=None) -> None:
        from ..functions.translate import WordMapModel

        self.model = (translator_factory or WordMapModel)()

    def translate_column(self, text, src_lang: str) -> pa.Array:
        if hasattr(self.model, "translate_column"):
            return self.model.translate_column(text, src_lang)
        tgt = "fr" if src_lang == "en" else "en"
        out = self.model.translate_batch(
            pc.fill_null(text, "").to_pylist(), src_lang, tgt
        )
        return pa.array(out, pa.string())


def translate_documents(
    sf_dir: str, translator_factory=None
) -> ray.data.Dataset | pa.Table:
    """T6 translation plumbing made HASH-CHECKABLE: the same word-map
    'model' (functions/translate.py, per-actor cache in ``__init__``) over
    the shared ``documents`` table, en->fr / fr->en by row language, other
    languages filtered out (the reference's direction guard,
    app/translate.py:27-35).  It does not depend on the stateful
    cascade, so a DuckDB ``list_transform`` oracle can replay the exact
    word map and the driver hash-checks it.
    ``translator_factory`` plugs in a real model (see WordMapTranslator)."""

    class DocTranslator(WordMapTranslator):
        def __call__(self, t: pa.Table) -> pa.Table:
            out = []
            for src_lang in ("en", "fr"):
                part = t.filter(pc.equal(t["lang"], src_lang))
                out.append(
                    pa.table(
                        {
                            "doc_id": part["doc_id"],
                            "lang": part["lang"],
                            "translated": self.translate_column(
                                part["text"], src_lang
                            ),
                        }
                    )
                )
            return pa.concat_tables(out)

    from ._common import _typed

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    return _typed(
        ds.map_batches(
            DocTranslator,
            batch_format="pyarrow",
            concurrency=(1, _default_pool_size()),
            num_cpus=1,
            fn_constructor_kwargs={"translator_factory": translator_factory},
        ),
        pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.string()),
             ("translated", pa.string())]
        ),
    )


def repo_quality_report(sf_dir: str) -> ray.data.Dataset:
    """Per-repo quality rollup over the flagship's own output — the
    dashboard surface (cluster/dashboard.py:7-69 analog): keep counts and
    keep-rate per repo, sorted worst-first so a curator sees the repos the
    filter is rejecting.  Rows-only (derives from the stateful cascade).
    keep_rate is one int/int division per row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from ._common import _partial_group_agg

    labels = quality_filter_labels(sf_dir)
    agg = (
        labels.map_batches(
            lambda t: pa.table(
                {
                    "repo": t["repo"],
                    "kept": pc.cast(t["keep"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .map_batches(
            _partial_group_agg(["repo"], ["kept"]), batch_format="pyarrow"
        )
        .groupby("repo")
        .aggregate(
            Sum("n_partial", alias_name="n_files"),
            Sum("kept_partial", alias_name="n_kept"),
        )
    )

    def add_rate(t: pa.Table) -> pa.Table:
        rate = pc.divide(
            pc.cast(t["n_kept"], pa.float64()), pc.cast(t["n_files"], pa.float64())
        )
        return t.append_column("keep_rate", rate)

    return agg.map_batches(add_rate, batch_format="pyarrow").sort(
        ["keep_rate", "repo"], descending=[False, False]
    )


def corpus_clean(sf_dir: str) -> ray.data.Dataset:
    """The INTEGRATED training-data flow — quality-filter cascade, then
    exact dedup over the scrubbed content, one representative per
    distinct post-scrub payload: the end-to-end composition a user runs
    to turn a raw corpus into clean training data.

    Scale shape: the flagship stage streams (map-only); the dedup
    consumes only (content_sha256, repo, path, commit) — the ONE shuffle
    carries 64-hex digests + composite keys, never content.  The
    representative is the lexicographically-first (repo, path, commit)
    per digest, computed WITHOUT a per-group Python callback (ruinous on
    a mostly-unique corpus — CLAUDE.md): the three key fields are joined
    with a NUL separator (sorts below every other byte, so joined-string
    order == tuple order), reduced to an in-batch min per digest
    (combiner), merged by ONE string-Min aggregate, and split back."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Min

    cfg = DEFAULT_CONFIG
    ds = build_pipeline(read_corpus(corpus_for(sf_dir)), cfg)
    SEP = "\x00"

    def kept_min(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["keep"], True))
        key = pc.binary_join_element_wise(
            t["repo"], t["path"], t["commit"], SEP
        )
        df = pd.DataFrame(
            {
                "content_sha256": t["content_sha256"].to_pylist(),
                "sortkey": key.to_pylist(),
            }
        )
        part = (
            df.groupby("content_sha256", sort=False)["sortkey"]
            .min()
            .reset_index()
        )
        return pa.Table.from_pandas(part, preserve_index=False).replace_schema_metadata(None)

    agg = (
        ds.map_batches(kept_min, batch_format="pyarrow")
        .groupby("content_sha256")
        .aggregate(Min("sortkey", alias_name="sortkey"))
    )

    def split_key(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["sortkey"], SEP)
        return pa.table(
            {
                "content_sha256": t["content_sha256"],
                "repo": pc.list_element(parts, 0),
                "path": pc.list_element(parts, 1),
                "commit": pc.list_element(parts, 2),
            }
        )

    return agg.map_batches(split_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# DuckDB oracles.  Only translate_documents is SQL-expressible here: every
# other query in this module derives from the stateful cascade (rows-only by
# design).  The SQL replays the exact word map from functions/translate.py
# via a list_transform lambda, so the Ray stage and the oracle share one
# source of truth for the mapping.


def _translate_case(mapping: dict[str, str]) -> str:
    def q(s: str) -> str:
        return s.replace("'", "''")

    whens = " ".join(
        f"WHEN '{q(k)}' THEN '{q(v)}'" for k, v in mapping.items()
    )
    return f"CASE lower(w) {whens} ELSE w END"


def _translate_documents_sql() -> str:
    from ..functions.translate import _EN_FR, _FR_EN

    return (
        "SELECT doc_id, lang, array_to_string(list_transform("
        "regexp_split_to_array(trim(text, ' ' || chr(9) || chr(10) || chr(13)), '\\s+'), "
        f"w -> CASE WHEN lang = 'en' THEN {_translate_case(_EN_FR)} "
        f"ELSE {_translate_case(_FR_EN)} END), ' ') AS translated "
        "FROM documents WHERE lang IN ('en', 'fr')"
    )


ORACLES: dict[str, str] = {
    "translate_documents": _translate_documents_sql(),
}


# ---- the full training-data flow: cascade -> scrub -> dedup -> pack --------

_MANIFEST_SEQ_TOKENS = 512
_MANIFEST_PARTS = 64           # digest-prefix partitions (value-range)


def _digest_part(col, parts: int) -> "np.ndarray":
    """Value-range partition from the first 4 hex chars of a digest
    column — vectorized (fixed-width ascii view, no Python per row), and
    ORDER-PRESERVING so partition order equals digest order."""
    import numpy as np
    import pyarrow.compute as _pc

    s4 = _pc.utf8_slice_codeunits(col, 0, 4)
    b = s4.to_numpy(zero_copy_only=False).astype("S4").view(np.uint8)
    b = b.reshape(-1, 4).astype(np.int64)
    digit = np.where(b >= 97, b - 87, b - 48)      # 'a'-'f' | '0'-'9'
    hexval = (
        (digit[:, 0] << 12) | (digit[:, 1] << 8)
        | (digit[:, 2] << 4) | digit[:, 3]
    )
    return np.minimum(hexval * parts // 65536, parts - 1)


def _manifest_intermediate(corpus: str) -> str:
    """Stage 1 of corpus_training_manifest, CHECKPOINTED: run the flagship
    cascade+scrub once and persist the compact per-kept-doc label table
    (content_sha256, n_tokens) to /tmp keyed by (corpus CONTENT
    fingerprint, config) — the stage boundary a real pipeline would
    checkpoint, so the dedup+pack passes scan 72 bytes/doc instead of
    re-running the cascade.  The cache key is the path+size fingerprint
    of the corpus files (state/checkpoint._input_fingerprint), NOT the
    directory basename: two corpora sharing a basename, or a re-run
    after the directory's contents changed, must invalidate the cache
    rather than silently reuse a stale intermediate."""
    import numpy as np
    from pathlib import Path

    from ..state.checkpoint import _input_fingerprint
    from .text_analysis import TOKEN_RE

    cfg = DEFAULT_CONFIG
    cpath = Path(corpus)
    files = (
        [cpath] if cpath.is_file()
        else sorted(str(p) for p in cpath.rglob("*.parquet"))
    )
    fp = _input_fingerprint(files) if files else "empty"
    out = Path(
        f"/tmp/langfilter_manifest_int/{fp}-{cfg.config_hash()}"
    )
    marker = out / "_SUCCESS"
    if marker.exists():
        return str(out)

    # keeps ``content``: kept_tokens counts raw tokens, not scrubbed ones
    ds = build_pipeline(read_corpus(corpus), cfg, drop_content=False)

    def kept_tokens(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["keep"], True))
        n = pc.cast(pc.count_substring_regex(t["content"], TOKEN_RE), pa.int64())
        return pa.table(
            {"content_sha256": t["content_sha256"], "n_tokens": n}
        )

    import shutil

    shutil.rmtree(out, ignore_errors=True)
    ds.map_batches(kept_tokens, batch_format="pyarrow").write_parquet(str(out))
    marker.touch()
    return str(out)


def corpus_training_manifest(sf_dir: str) -> ray.data.Dataset:
    """Driver-query wrapper over the synthetic corpus for this SF — see
    ``pack_corpus`` for the arbitrary-directory CLI surface and
    ``_corpus_manifest_dataset`` for the plan itself."""
    return _corpus_manifest_dataset(corpus_for(sf_dir))


def _corpus_manifest_dataset(corpus: str) -> ray.data.Dataset:
    """THE end-to-end training-data flow as one query: quality cascade ->
    PII scrub -> exact dedup (one row per distinct post-scrub content) ->
    deterministic digest order -> fixed-capacity sequence packing.  The
    output is the manifest a training loader streams: one row per
    surviving document with its global position, sequence id and offset.

    Scale shape: the cascade runs ONCE and checkpoints a compact
    (digest, n_tokens) table (stage boundary, resumable); dedup needs no
    groupby — the digest-prefix VALUE-RANGE partition co-locates all
    copies of a digest, so a per-partition np.unique is exact; and the
    pack offsets come from the module's two-pass prefix-sum skeleton
    (per-partition (distinct rows, token sum) fold, <= parts rows of
    driver state).  Rows-only: derives from the stateful cascade."""
    import numpy as np
    import pandas as pd
    from ray.data.aggregate import Sum

    inter = _manifest_intermediate(corpus)
    parts = _MANIFEST_PARTS
    cap = _MANIFEST_SEQ_TOKENS

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part",
            pa.array(_digest_part(t["content_sha256"], parts), pa.int64()),
        )

    src = lambda: ray.data.read_parquet(inter).map_batches(  # noqa: E731
        tag, batch_format="pyarrow"
    )

    # pass 1 counts distinct digests per part INSIDE the partition
    # exchange (a per-batch combiner cannot: cross-batch duplicates of a
    # digest would double-count — only the partition-local view is exact)
    def part_counts(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "part": pd.array([], dtype="int64"),
                    "n": pd.array([], dtype="int64"),
                    "toks": pd.array([], dtype="int64"),
                }
            )
        d = g.drop_duplicates("content_sha256")
        return pd.DataFrame(
            {
                "part": [int(g["part"].iloc[0])],
                "n": [len(d)],
                "toks": [int(d["n_tokens"].sum())],
            }
        )

    counts_df = (
        src()
        .groupby("part")
        .map_groups(part_counts, batch_format="pandas")
        .to_pandas()          # bounded: <= parts rows
    )
    rows = np.zeros(parts, dtype=np.int64)
    toks = np.zeros(parts, dtype=np.int64)
    rows[counts_df["part"].to_numpy()] = counts_df["n"].to_numpy()
    toks[counts_df["part"].to_numpy()] = counts_df["toks"].to_numpy()
    pos_off = np.concatenate(([0], np.cumsum(rows)[:-1]))
    tok_off = np.concatenate(([0], np.cumsum(toks)[:-1]))

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "content_sha256": pd.array([], dtype="object"),
                    "n_tokens": pd.array([], dtype="int64"),
                    "train_pos": pd.array([], dtype="int64"),
                    "seq_id": pd.array([], dtype="int64"),
                    "offset_in_seq": pd.array([], dtype="int64"),
                }
            )
        p = int(g["part"].iloc[0])
        d = (
            g.drop_duplicates("content_sha256")
            .sort_values("content_sha256")
            .reset_index(drop=True)
        )
        nt = d["n_tokens"].to_numpy()
        cum_before = tok_off[p] + np.concatenate(([0], np.cumsum(nt)[:-1]))
        return pd.DataFrame(
            {
                "content_sha256": d["content_sha256"].to_numpy(),
                "n_tokens": nt,
                "train_pos": pos_off[p] + np.arange(len(d), dtype=np.int64),
                "seq_id": cum_before // cap,
                "offset_in_seq": cum_before % cap,
            }
        )

    return (
        src()
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .select_columns(
            ["content_sha256", "n_tokens", "train_pos", "seq_id", "offset_in_seq"]
        )
    )


def pack_corpus(corpus_dir: str, out_dir: str) -> dict:
    """CLI surface for the full flow over an ARBITRARY corpus directory:
    quality cascade -> scrub -> dedup -> sequence-pack, manifest written
    as parquet to ``out_dir``; returns summary counters (read back from
    the tiny manifest with column pruning)."""
    import shutil

    import pyarrow.dataset as pads

    shutil.rmtree(out_dir, ignore_errors=True)
    _corpus_manifest_dataset(corpus_dir).write_parquet(out_dir)
    t = pads.dataset(out_dir, format="parquet").to_table(
        columns=["n_tokens", "seq_id"]
    )
    n = len(t)
    total = int(pc.sum(t["n_tokens"]).as_py() or 0)
    n_seq = int(pc.max(t["seq_id"]).as_py() or -1) + 1 if n else 0
    return {
        "documents": n,
        "total_tokens": total,
        "n_sequences": n_seq,
        "seq_tokens": _MANIFEST_SEQ_TOKENS,
        "output": str(out_dir),
    }
