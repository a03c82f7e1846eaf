"""Text-analysis operators over the ``documents`` table.

Each query function takes ``sf_dir`` and returns a Dataset/Table; the
matching entry in ``ORACLES`` is the ANSI-SQL DuckDB equivalent the driver
runs side-by-side (CORRECTNESS gate).  Column names are identical on both
sides by construction.  Every Ray implementation is a vectorized
``map_batches`` over Arrow batches (``pyarrow.compute`` regex kernels; the
only per-row Python is set-membership over already-tokenized lists, which
is C-backed).

Operators (SURVEY.md §2.2/§2.6 analogs + training-data additions):
  token_counts        — M2 tokenizer analog, counting only
  stopword_stats      — M3 stopword-ratio analog (integer counts, exact)
  langid_heuristic    — cheap per-doc language ID by stopword-hit argmax
  quality_score       — Gopher-ish per-doc quality stats
  fingerprint         — document fingerprint (md5; sha256 also available)
  lang_distribution   — A1 status-counts analog (groupby + count)
  scrub_documents     — the PII scrub chain, oracle-checked via DuckDB's
                        RE2 regexp_replace (same regex engine family as
                        the Arrow kernels)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.scrub import SCRUB_RULES
from ._common import _read, _schema, _typed
from .quality_filter import _default_pool_size

TOKEN_RE = "[A-Za-z0-9_]+"          # ASCII \w — identical in RE2 and DuckDB
LOWER_TOKEN_RE = "[a-z0-9_]+"

# Small per-language stopword probe sets (module constants shared with the
# SQL below — J3 "broadcast tiny dimension table" pattern).
STOP = {
    "en": ("the", "and", "of", "to", "in", "is", "for", "on", "with", "as"),
    "fr": ("le", "la", "les", "de", "et", "un", "une", "que", "pour", "dans"),
    "de": ("der", "die", "das", "und", "mit", "von", "zu", "auf", "ist", "den"),
    "es": ("el", "la", "los", "de", "y", "un", "una", "que", "por", "con"),
}
_LANG_PRIORITY = ("en", "fr", "de", "es")


# ---- token_counts --------------------------------------------------------

def token_counts(sf_dir: str) -> ray.data.Dataset:
    def f(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(t["text"], TOKEN_RE)
        return pa.table(
            {"doc_id": t["doc_id"], "n_tokens": pc.cast(n, pa.int64())}
        )

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            f, batch_format="pyarrow"
        ),
        pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64())]),
    )


# BPE-ish pre-tokenizer (GPT-2-family shape: contractions, letter runs,
# digit runs, symbol runs, each with an optional leading space) — pure RE2,
# so the Arrow kernel and the DuckDB oracle count identically
BPE_TOKEN_RE = r"'[a-z]+| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9']+"


def token_counts_bpe(sf_dir: str) -> ray.data.Dataset:
    """Per-doc token counts under the BPE-ish pre-tokenizer — the
    training-cost estimator complement to the whitespace-ish
    ``token_counts`` (a doc's BPE token count tracks its real tokenizer
    cost far better than word count on code/symbol-heavy text)."""

    def f(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(
            pc.fill_null(t["text"], ""), BPE_TOKEN_RE
        )
        return pa.table(
            {"doc_id": t["doc_id"], "n_bpe_tokens": pc.cast(n, pa.int64())}
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# ---- stopword_stats ------------------------------------------------------

def _stop_pattern(words: tuple[str, ...]) -> str:
    """One RE2 alternation counting tokens equal to any listed stopword.
    ``\\b`` (RE2 ASCII word boundary, charset [0-9A-Za-z_]) delimits
    exactly the LOWER_TOKEN_RE token charset on lowered text, so the
    non-overlapping match count equals the token-membership count the
    per-row Python loop used to compute — but in one vectorized kernel
    pass per batch."""
    return r"\b(" + "|".join(words) + r")\b"


def stopword_stats(sf_dir: str) -> ray.data.Dataset:
    pat = _stop_pattern(STOP["en"])

    def f(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pc.cast(
                    pc.count_substring_regex(lowered, LOWER_TOKEN_RE), pa.int64()
                ),
                "n_stop_en": pc.cast(
                    pc.count_substring_regex(lowered, pat), pa.int64()
                ),
            }
        )

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            f, batch_format="pyarrow"
        ),
        pa.schema(
            [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
             ("n_stop_en", pa.int64())]
        ),
    )


# ---- langid_heuristic ----------------------------------------------------

def langid_heuristic(sf_dir: str) -> ray.data.Dataset:
    pats = {k: _stop_pattern(STOP[k]) for k in _LANG_PRIORITY}
    langs = np.array(_LANG_PRIORITY)

    def f(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        # one vectorized alternation-count kernel pass per language;
        # np.argmax returns the FIRST max, which reproduces the
        # fixed-priority tie rule (earlier language wins ties)
        hits = np.stack(
            [
                pc.count_substring_regex(lowered, pats[k])
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
                for k in _LANG_PRIORITY
            ],
            axis=1,
        )
        preds = langs[np.argmax(hits, axis=1)]
        return pa.table({"doc_id": t["doc_id"], "pred_lang": pa.array(preds)})

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            f, batch_format="pyarrow"
        ),
        pa.schema([("doc_id", pa.int64()), ("pred_lang", pa.string())]),
    )


# ---- quality_score -------------------------------------------------------

def quality_score(sf_dir: str) -> ray.data.Dataset:
    def f(t: pa.Table) -> pa.Table:
        text = t["text"]
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        n_words = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
        n_wordchars = pc.cast(pc.count_substring_regex(text, r"\S"), pa.int64())
        n_alnum = pc.cast(pc.count_substring_regex(text, "[A-Za-z0-9]"), pa.int64())
        mean_word_len = pc.divide(
            pc.cast(n_wordchars, pa.float64()),
            pc.cast(pc.max_element_wise(n_words, 1), pa.float64()),
        )
        alnum_ratio = pc.divide(
            pc.cast(n_alnum, pa.float64()),
            pc.cast(pc.max_element_wise(n_chars, 1), pa.float64()),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars_text": n_chars,
                "n_words": n_words,
                "mean_word_len": mean_word_len,
                "alnum_ratio": alnum_ratio,
            }
        )

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            f, batch_format="pyarrow"
        ),
        pa.schema(
            [("doc_id", pa.int64()), ("n_chars_text", pa.int64()),
             ("n_words", pa.int64()), ("mean_word_len", pa.float64()),
             ("alnum_ratio", pa.float64())]
        ),
    )


# ---- fingerprint ---------------------------------------------------------

def fingerprint(sf_dir: str) -> ray.data.Dataset:
    def f(t: pa.Table) -> pa.Table:
        import hashlib

        hashes = [
            hashlib.md5((s or "").encode("utf-8")).hexdigest()
            for s in t["text"].to_pylist()
        ]
        return pa.table({"doc_id": t["doc_id"], "fp_md5": pa.array(hashes)})

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow"
    )


# ---- lang_distribution ---------------------------------------------------

def lang_distribution(sf_dir: str) -> ray.data.Dataset:
    from ray.data.aggregate import Sum

    from ._common import _partial_group_agg

    return _typed(
        _read(sf_dir, "documents", ["lang"])
        # map-side combiner: <= n_langs rows per batch cross the shuffle
        # (Ray's aggregate map stage does not pre-aggregate)
        .map_batches(_partial_group_agg(["lang"]), batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_partial", alias_name="n_docs")),
        pa.schema([("lang", pa.string()), ("n_docs", pa.int64())]),
    )


# ---- scrub_documents -----------------------------------------------------

def scrub_documents(sf_dir: str) -> ray.data.Dataset:
    def f(t: pa.Table) -> pa.Table:
        import hashlib

        cur = t["text"]
        for _name, pat, repl in SCRUB_RULES:
            cur = pc.replace_substring_regex(cur, pat, repl)
        hashes = [
            hashlib.md5((s or "").encode("utf-8")).hexdigest()
            for s in cur.to_pylist()
        ]
        return pa.table({"doc_id": t["doc_id"], "scrub_md5": pa.array(hashes)})

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            f, batch_format="pyarrow"
        ),
        pa.schema([("doc_id", pa.int64()), ("scrub_md5", pa.string())]),
    )


# ---- SQL oracles ---------------------------------------------------------

def _sql_in_list(words: tuple[str, ...]) -> str:
    return ", ".join(f"'{w}'" for w in words)


def _sql_hits(lang: str) -> str:
    return (
        f"len(list_filter(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}'),"
        f" x -> x IN ({_sql_in_list(STOP[lang])})))"
    )


def _sql_scrub_expr() -> str:
    expr = "text"
    for _name, pat, repl in SCRUB_RULES:
        p = pat.replace("'", "''")
        r = repl.replace("'", "''")
        expr = f"regexp_replace({expr}, '{p}', '{r}', 'g')"
    return expr


ORACLES: dict[str, str] = {
    "token_counts": (
        f"SELECT doc_id, len(regexp_extract_all(text, '{TOKEN_RE}'))::BIGINT AS n_tokens "
        "FROM documents"
    ),
    "stopword_stats": (
        "SELECT doc_id, "
        f"len(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}'))::BIGINT AS n_tokens, "
        f"{_sql_hits('en')}::BIGINT AS n_stop_en FROM documents"
    ),
    "langid_heuristic": (
        "WITH h AS (SELECT doc_id, "
        + ", ".join(f"{_sql_hits(k)} AS h_{k}" for k in _LANG_PRIORITY)
        + " FROM documents) SELECT doc_id, CASE "
        "WHEN h_fr > h_en AND h_fr >= h_de AND h_fr >= h_es THEN 'fr' "
        "WHEN h_de > h_en AND h_de > h_fr AND h_de >= h_es THEN 'de' "
        "WHEN h_es > h_en AND h_es > h_fr AND h_es > h_de THEN 'es' "
        "ELSE 'en' END AS pred_lang FROM h"
    ),
    "quality_score": (
        "SELECT doc_id, length(text)::BIGINT AS n_chars_text, "
        r"len(regexp_extract_all(text, '\S+'))::BIGINT AS n_words, "
        r"len(regexp_extract_all(text, '\S'))::DOUBLE"
        r" / greatest(len(regexp_extract_all(text, '\S+')), 1) AS mean_word_len, "
        "len(regexp_extract_all(text, '[A-Za-z0-9]'))::DOUBLE"
        " / greatest(length(text), 1) AS alnum_ratio "
        "FROM documents"
    ),
    "fingerprint": "SELECT doc_id, md5(text) AS fp_md5 FROM documents",
    "lang_distribution": (
        "SELECT lang, count(*)::BIGINT AS n_docs FROM documents GROUP BY lang"
    ),
    "scrub_documents": (
        f"SELECT doc_id, md5({_sql_scrub_expr()}) AS scrub_md5 FROM documents"
    ),
}


# ---- top_tokens (flat-map explode + pre-aggregated wordcount) ------------

def _token_partial_counts(t: pa.Table) -> pa.Table:
    """Per-batch token-count combiner shared by the wordcount-shaped ops:
    pure Arrow kernels — split on the token-class complement, flatten,
    drop the empty boundary strings, count; no Python per-row loop.
    "[^a-z0-9_]+" splitting == findall("[a-z0-9_]+") semantics."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(t["text"]), pattern="[^a-z0-9_]+"
    )
    flat = pc.list_flatten(toks)
    flat = flat.filter(pc.not_equal(flat, ""))
    vc = flat.combine_chunks().value_counts() if isinstance(
        flat, pa.ChunkedArray
    ) else flat.value_counts()
    return pa.table(
        {
            "token": vc.field("values"),
            "partial": pc.cast(vc.field("counts"), pa.int64()),
        }
    )


def top_tokens(sf_dir: str) -> ray.data.Dataset:
    """Corpus-wide token frequency top-20 — the canonical wordcount shaped
    for scale: tokens are counted WITHIN each batch first (combiner), so
    the groupby shuffle carries (token, partial_count) rows instead of one
    row per token occurrence; the final sort+limit runs on the tiny
    aggregate.  Ties broken by token text for determinism."""
    partial_counts = _token_partial_counts

    from ray.data.aggregate import Sum

    agg = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("partial", alias_name="n"))
    )
    return agg.sort(["n", "token"], descending=[True, False]).limit(20)


# ---- bigram counts (n-gram LM prep) --------------------------------------

TOP_BIGRAMS_K = 50


def top_bigrams(sf_dir: str) -> ray.data.Dataset:
    """Corpus-wide top-50 token bigrams — the n-gram-LM count-collection
    shape: tokens split with one Arrow kernel, bigram pairs formed
    VECTORIZED from the flat token buffer + list offsets (a pair is
    (flat[i], flat[i+1]) unless i+1 starts a new document), counted
    within the batch (combiner), then a (w1, w2) groupby merges partials
    and a tiny sort+limit finishes.  The shuffle carries per-batch
    distinct bigrams, never one row per occurrence."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        toks = pc.split_pattern_regex(lowered, pattern="[^a-z0-9_]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "partial": pa.array([], pa.int64()),
            }
        )
        if len(flat) < 2:
            return empty
        offsets = toks.offsets.to_numpy()
        w1, w2 = flat[:-1], flat[1:]
        mask = np.ones(len(flat) - 1, dtype=bool)
        starts = offsets[1:-1]                      # later documents' starts
        starts = starts[(starts > 0) & (starts < len(flat))]
        mask[starts - 1] = False                    # pairs crossing a doc
        # split() leaves "" only at list edges; those pairs are invalid
        mask &= (w1 != "") & (w2 != "")
        if not mask.any():
            return empty
        df = pd.DataFrame({"w1": w1[mask], "w2": w2[mask]})
        g = df.groupby(["w1", "w2"], sort=False).size().reset_index(name="partial")
        return pa.table(
            {
                "w1": pa.array(g["w1"], pa.string()),
                "w2": pa.array(g["w2"], pa.string()),
                "partial": pa.array(g["partial"].to_numpy(), pa.int64()),
            }
        )

    agg = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("partial", alias_name="n"))
    )
    return agg.sort(["n", "w1", "w2"], descending=[True, False, False]).limit(
        TOP_BIGRAMS_K
    )


TOP_BIGRAMS_SQL = (
    "WITH toks AS ("
    "  SELECT doc_id, pos, token FROM ("
    "    SELECT doc_id, "
    f"    unnest(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}')) AS token, "
    f"    generate_subscripts(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}'), 1) AS pos "
    "    FROM documents)"
    "), pairs AS ("
    "  SELECT token AS w1, lead(token) OVER ("
    "    PARTITION BY doc_id ORDER BY pos) AS w2 FROM toks"
    ") SELECT w1, w2, count(*)::BIGINT AS n FROM pairs WHERE w2 IS NOT NULL "
    f"GROUP BY w1, w2 ORDER BY n DESC, w1, w2 LIMIT {TOP_BIGRAMS_K}"
)


# ---- heavy hitters (bounded-shuffle sketch, exactly verified) ------------

HH_K = 200      # report tokens with global count > N/K (φ = 1/K)


def heavy_hitter_tokens(sf_dir: str) -> ray.data.Dataset:
    """Tokens occurring more than N/K times corpus-wide (φ-heavy hitters,
    φ = 1/200) — the sketch-shaped wordcount whose shuffle stays BOUNDED:

    phase A emits per batch only the ≤K tokens that are heavy WITHIN the
    batch (count·K > batch_total — pigeonhole: any globally heavy token is
    batch-heavy somewhere, so no true heavy hitter is missed) plus one
    sentinel row carrying the batch's token total; the candidate union is
    ≤ K·num_batches rows regardless of vocabulary size (vs one row per
    distinct token for the exact wordcount).  phase B re-counts ONLY the
    broadcast candidate set exactly and filters count·K > N — so the
    output is EXACT (oracle-checked), while the shuffle never carries the
    full vocabulary.  Same two-phase candidates-then-verify shape as the
    dedup family.

    Scale caveat: the candidate union is ≤ K per batch but batches grow
    with the corpus; in practice batch-heavy tokens repeat across batches
    so the DISTINCT union stays near K, but an adversarial corpus could
    inflate it — the escape hatches are bigger batches (fewer, tighter
    candidate sets) or keeping the candidate set as a Dataset and
    replacing the phase-B broadcast with an is_in against a joined
    candidate table."""
    from ray.data.aggregate import Sum

    def _batch_counts(t: pa.Table):
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")), pattern="[^a-z0-9_]+"
        )
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        vc = flat.value_counts()
        return vc.field("values"), pc.cast(vc.field("counts"), pa.int64())

    def phase_a(t: pa.Table) -> pa.Table:
        values, counts = _batch_counts(t)
        total = int(pc.sum(counts).as_py() or 0)
        mask = pc.greater(pc.multiply(counts, HH_K), total)
        cand = values.filter(mask)
        return pa.table(
            {
                "token": pa.concat_arrays(
                    [cand.combine_chunks() if isinstance(cand, pa.ChunkedArray) else cand,
                     pa.array([""], pa.string())]
                ),
                "partial": pa.array(
                    [0] * len(cand) + [total], pa.int64()
                ),
            }
        )

    # candidate union + corpus token total: ≤ K rows per batch + sentinel
    agg = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(phase_a, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("partial", alias_name="partial"))
        .to_pandas()
    )
    schema = pa.schema([("token", pa.string()), ("n_occurrences", pa.int64())])
    if agg.empty:
        return schema.empty_table()     # no documents at all
    n_total = int(agg.loc[agg["token"] == "", "partial"].sum())
    candidates = sorted(agg.loc[agg["token"] != "", "token"])
    if not candidates:
        # flat vocabulary: no token was heavy in ANY batch, so none can be
        # corpus-heavy (pigeonhole).  Short-circuit with a TYPED empty
        # table — phase B's groupby over an all-empty stream would lose
        # its schema (see CLAUDE.md).
        return schema.empty_table()
    cand_ref = ray.put(pa.array(candidates, pa.string()))

    def phase_b(t: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        values, counts = _batch_counts(t)
        mask = pc.is_in(values, value_set=cand)
        return pa.table(
            {"token": values.filter(mask), "partial": counts.filter(mask)}
        )

    exact = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(phase_b, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("partial", alias_name="n_occurrences"))
    )
    return _typed(
        exact.map_batches(
            lambda t: t.filter(
                pc.greater(pc.multiply(t["n_occurrences"], HH_K), n_total)
            ),
            batch_format="pyarrow",
        ),
        schema,
    )


HEAVY_HITTER_SQL = (
    "WITH toks AS (SELECT unnest(regexp_extract_all(lower(text), "
    f"'{LOWER_TOKEN_RE}')) AS token FROM documents) "
    "SELECT token, count(*)::BIGINT AS n_occurrences FROM toks "
    f"GROUP BY token HAVING count(*) * {HH_K} > (SELECT count(*) FROM toks)"
)


# ---- distinct values + deterministic sample ------------------------------

def distinct_sources(sf_dir: str) -> ray.data.Dataset:
    """Distinct `source` values (ds.unique analog via groupby keys);
    per-batch dedupe first so only unique values cross the shuffle."""
    from ._common import _partial_group_agg

    return (
        _read(sf_dir, "documents", ["source"])
        .map_batches(_partial_group_agg(["source"]), batch_format="pyarrow")
        .groupby("source")
        .count()
        .select_columns(["source"])
    )


def sample_docs(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """Deterministic 5% sample by key hash (doc_id % 20 == 3) — reproducible
    sampling expressible on both engines, unlike RNG-based samplers."""
    cols = ["doc_id", "lang", "n_chars"]
    return _typed(
        _read(sf_dir, "documents", cols).map_batches(
            lambda t: t.filter(
                pc.equal(pc.subtract(t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 20), 20)), 3)
            ),
            batch_format="pyarrow",
        ),
        _schema(sf_dir, "documents", cols),
    )


ORACLES.update(
    {
        "top_tokens": (
            "SELECT token, count(*)::BIGINT AS n FROM ("
            f"  SELECT unnest(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}')) AS token"
            "  FROM documents"
            ") GROUP BY token ORDER BY n DESC, token LIMIT 20"
        ),
        "distinct_sources": "SELECT DISTINCT source FROM documents",
        "sample_docs": (
            "SELECT doc_id, lang, n_chars FROM documents WHERE doc_id % 20 = 3"
        ),
    }
)


# ---- multi-aggregate doc stats per language ------------------------------

def doc_stats_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-language count/sum/min/max/avg over n_chars — the multi-aggregate
    groupby surface (Count+Sum+Min+Max in ONE shuffle pass; avg derived as a
    single int/int division afterwards so floats never enter a SUM)."""
    from ray.data.aggregate import Max, Min, Sum

    from ._common import _partial_group_stats

    agg = (
        _read(sf_dir, "documents", ["lang", "n_chars"])
        # combiner emits one (n/sum/min/max) row per (batch, lang); the
        # global pass reassembles the exact values (Sum/Sum/Min/Max)
        .map_batches(
            _partial_group_stats(["lang"], "n_chars"), batch_format="pyarrow"
        )
        .groupby("lang")
        .aggregate(
            Sum("n_partial", alias_name="n_docs"),
            Sum("sum_partial", alias_name="sum_chars"),
            Min("min_partial", alias_name="min_chars"),
            Max("max_partial", alias_name="max_chars"),
        )
    )

    def add_avg(t: pa.Table) -> pa.Table:
        avg = pc.divide(
            pc.cast(t["sum_chars"], pa.float64()), pc.cast(t["n_docs"], pa.float64())
        )
        return t.append_column("avg_chars", avg)

    return agg.map_batches(add_avg, batch_format="pyarrow")


ORACLES["heavy_hitter_tokens"] = HEAVY_HITTER_SQL

ORACLES["top_bigrams"] = TOP_BIGRAMS_SQL

ORACLES["token_counts_bpe"] = (
    "SELECT doc_id, len(regexp_extract_all(text, "
    "$$" + BPE_TOKEN_RE + "$$))::BIGINT AS n_bpe_tokens FROM documents"
)


ORACLES["doc_stats_by_lang"] = (
    "SELECT lang, count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS sum_chars, "
    "min(n_chars) AS min_chars, max(n_chars) AS max_chars, "
    "sum(n_chars)::DOUBLE / count(*)::DOUBLE AS avg_chars "
    "FROM documents GROUP BY lang"
)


# ---- model-based perplexity scoring (actor-pool stateful stage) ----------

class _PerplexityScorer:
    """Actor-pool scorer: the char-trigram LID model builds ONCE per actor
    (T1 singleton analog) and every batch is scored vectorized — the
    standalone model-scoring surface (language + probability + KenLM-style
    perplexity per doc) outside the flagship cascade."""

    def __init__(self) -> None:
        from ..functions.classifier import TrigramLidModel

        self.model = TrigramLidModel()

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = [s or "" for s in t["text"].to_pylist()]
        langs, probs, ppl = self.model.classify_full(texts)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "pred_lang": pa.array(langs, pa.string()),
                "probability": pa.array(probs, pa.float64()),
                "perplexity": pa.array(
                    np.where(np.isinf(ppl), -1.0, ppl), pa.float64()
                ),
            }
        )


def doc_perplexity(sf_dir: str) -> ray.data.Dataset:
    """Per-doc (pred_lang, probability, perplexity) under the trigram LID
    model — deterministic model scoring as an actor-pool map_batches
    stage (model built once per actor; -1 sentinel for the no-trigram
    infinite-perplexity case so the column stays a clean float64).
    Rows-only (model-based); determinism and flagship-consistency pinned
    in tests."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _PerplexityScorer,
        batch_format="pyarrow",
        concurrency=(1, _default_pool_size()),
        num_cpus=1,
    )


# ---- benchmark decontamination (n-gram overlap vs an eval set) -----------

DECON_N = 8                 # word 8-grams, the usual decontamination gram
DECON_EVAL_MOD, DECON_EVAL_REM = 50, 7      # eval set: doc_id % 50 == 7
# odd 64-bit positional constants (golden-ratio multiples, forced odd)
_DECON_C = (np.arange(1, DECON_N + 1, dtype=np.uint64)
            * np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)


def _word_ngram_hashes(text: str, cache: dict) -> np.ndarray:
    """Distinct hashes of word 8-grams — the shared windowed-word-hash
    scheme (dedup._windowed_word_hashes) at the decontamination gram
    size; short texts yield no grams."""
    from .dedup import _windowed_word_hashes

    return _windowed_word_hashes(text, cache, DECON_N, _DECON_C)


def decontaminate_overlap(sf_dir: str) -> ray.data.Dataset:
    """Training docs sharing at least one word 8-gram with the held-out
    eval set (doc_id % 50 == 7 stands in for a benchmark suite) — the
    decontamination scan every training-data pipeline needs before a
    model sees the corpus.

    Shape: the EVAL side (small by construction — benchmark suites are
    fixed-size, independent of corpus scale) streams through map_batches
    into distinct 8-gram hashes, dedups in a bounded groupby, and
    broadcasts once as a sorted array; the TRAINING side then streams,
    each batch counting its docs' overlaps via np.isin against the sorted
    array.  No shuffle of corpus content; output is the (rare) flagged
    docs only.  Rows-only: pinned against a tuple-level (unhashed)
    ground truth in tests."""
    eval_bits = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(
            lambda t: t.filter(
                pc.equal(
                    pc.subtract(
                        t["doc_id"],
                        pc.multiply(
                            pc.divide(t["doc_id"], DECON_EVAL_MOD), DECON_EVAL_MOD
                        ),
                    ),
                    DECON_EVAL_REM,
                )
            ),
            batch_format="pyarrow",
        )
        .map_batches(
            lambda t: pa.table(
                {
                    "h": pa.array(
                        np.unique(
                            np.concatenate(
                                [_word_ngram_hashes(s, {}) for s in t["text"].to_pylist()]
                                or [np.empty(0, np.uint64)]
                            )
                        ).view(np.int64)
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("h")
        .count()
        .to_pandas()
    )
    if eval_bits.empty:
        # no eval document has 8 words: nothing can overlap it
        return pa.schema(
            [("doc_id", pa.int64()), ("n_overlap", pa.int64())]
        ).empty_table()
    eval_hashes = np.sort(eval_bits["h"].to_numpy().view(np.uint64))
    href = ray.put(eval_hashes)

    def scan(t: pa.Table) -> pa.Table:
        hs = ray.get(href)
        cache: dict = {}
        ids, counts = [], []
        for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if did % DECON_EVAL_MOD == DECON_EVAL_REM:
                continue                      # eval docs are not scanned
            n = int(np.isin(_word_ngram_hashes(s, cache), hs).sum())
            if n > 0:
                ids.append(did)
                counts.append(n)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_overlap": pa.array(counts, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        scan, batch_format="pyarrow"
    )


# ---- per-language top-k by quality (grouped window rank) -----------------

TOPK_PER_LANG = 5


def top_docs_per_lang(sf_dir: str) -> ray.data.Dataset:
    """Top-5 docs per language by a quality key (longest docs win; ties to
    the smaller doc_id) — ROW_NUMBER()-per-partition re-expressed for
    scale: each batch keeps only its LOCAL top-5 per language
    (combiner), then the exact rank runs in map_groups over the tiny
    survivor set.  The quality key here is n_chars (already a column —
    no text scan needed); swap in any
    scoring column and the plan is unchanged."""
    import pandas as pd

    def local_topk(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": t["lang"].to_pylist(),
                "doc_id": t["doc_id"].to_numpy(),
                "n_chars": t["n_chars"].to_numpy(),
            }
        )
        df = df.sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        out = df.groupby("lang", sort=False).head(TOPK_PER_LANG)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    def exact_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(
            TOPK_PER_LANG
        )
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["lang", "doc_id", "n_chars", "rank"]]

    return (
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
        .map_batches(local_topk, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(exact_rank, batch_format="pandas")
    )


ORACLES["top_docs_per_lang"] = (
    "SELECT lang, doc_id, n_chars, rank FROM ("
    "  SELECT lang, doc_id, n_chars, row_number() OVER ("
    "    PARTITION BY lang ORDER BY n_chars DESC, doc_id) AS rank"
    "  FROM documents"
    f") WHERE rank <= {TOPK_PER_LANG}"
)


# ---- deterministic train/val split ---------------------------------------

def train_val_split(sf_dir: str) -> ray.data.Dataset:
    """Hash-based 90/10 train/validation assignment — the reproducible
    split API a training-data pipeline needs: membership is a pure
    function of the key (doc_id % 10 == 7 -> val), so the split is stable
    across runs, cluster sizes and re-partitioning, and any engine can
    recompute it (unlike RNG splits)."""

    def assign(t: pa.Table) -> pa.Table:
        mod = pc.subtract(
            t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 10), 10)
        )
        split = pc.if_else(
            pc.equal(mod, 7), pa.scalar("val"), pa.scalar("train")
        )
        return pa.table({"doc_id": t["doc_id"], "split": split})

    return _typed(
        _read(sf_dir, "documents", ["doc_id"]).map_batches(
            assign, batch_format="pyarrow"
        ),
        pa.schema([("doc_id", pa.int64()), ("split", pa.string())]),
    )


ORACLES["train_val_split"] = (
    "SELECT doc_id, CASE WHEN doc_id % 10 = 7 THEN 'val' ELSE 'train' END AS split "
    "FROM documents"
)


# ---- stratified deterministic sampling -----------------------------------

# per-language keep rates (percent) — the quality-weighted sampling shape:
# oversample scarce/high-value strata, downsample the dominant one
STRATA_RATES = {"en": 20, "fr": 40, "de": 60, "es": 60}
STRATA_DEFAULT_RATE = 10


def stratified_sample(sf_dir: str) -> ray.data.Dataset:
    """Per-language stratified sample with DETERMINISTIC membership: a doc
    is kept iff md5(doc_id) mod 100 < its language's rate — a pure
    function of the key, so the sample is stable across runs, cluster
    sizes and re-partitioning, any engine can recompute it (the DuckDB
    oracle reproduces it bit-for-bit), and rates are exact in expectation
    per stratum.  Embarrassingly parallel map over a column-pruned read;
    no shuffle."""
    import hashlib

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        langs = t["lang"].to_pylist()
        mask = [
            int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
            < STRATA_RATES.get(lang, STRATA_DEFAULT_RATE)
            for i, lang in zip(ids, langs)
        ]
        return t.filter(pa.array(mask, pa.bool_()))

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
            keep, batch_format="pyarrow"
        ),
        _schema(sf_dir, "documents", ["doc_id", "lang"]),
    )


ORACLES["stratified_sample"] = (
    "SELECT doc_id, lang FROM documents "
    "WHERE ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::UBIGINT % 100 < "
    "CASE "
    + " ".join(
        f"WHEN lang = '{k}' THEN {v}" for k, v in STRATA_RATES.items()
    )
    + f" ELSE {STRATA_DEFAULT_RATE} END"
)


# ---- Gopher-style rule filter (public quality rules, Rae et al. 2021) ----

# rule thresholds — all INTEGER comparisons so the keep flag is exact on
# both engines (no float ratios): word-count bounds, alpha-chars-per-word
# band (the integer form of mean word length in [3, 10]), symbol and
# ellipsis caps at 10% of words
GOPHER_MIN_WORDS = 40
GOPHER_MAX_WORDS = 100_000


def gopher_quality(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style per-document rule filter — the rule-set complement of
    the score-style ``quality_score``: emits the raw integer signals plus
    a 0/1 keep flag so downstream can either filter or re-weight.  One
    vectorized Arrow kernel pass per signal (count_substring_regex /
    count_substring); no shuffle — a pure per-row map, embarrassingly
    parallel at any scale.  All rules are integer inequalities
    (alpha_chars >= 3*n_words encodes mean word length >= 3, etc.), so
    engine and SQL agree bit-for-bit."""

    def f(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t["text"], "")
        n_words = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
        alpha = pc.cast(pc.count_substring_regex(text, "[A-Za-z]"), pa.int64())
        n_hash = pc.cast(pc.count_substring(text, "#"), pa.int64())
        n_ellipsis = pc.cast(pc.count_substring(text, "..."), pa.int64())
        w = n_words.to_numpy()
        a = alpha.to_numpy()
        h = n_hash.to_numpy()
        e = n_ellipsis.to_numpy()
        keep = (
            (w >= GOPHER_MIN_WORDS)
            & (w <= GOPHER_MAX_WORDS)
            & (a >= 3 * w)
            & (a <= 10 * w)
            & (10 * h < w)
            & (10 * e < w)
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_words": n_words,
                "alpha_chars": alpha,
                "n_hash": n_hash,
                "n_ellipsis": n_ellipsis,
                "keep_flag": pa.array(keep.astype(np.int64), pa.int64()),
            }
        )

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            f, batch_format="pyarrow"
        ),
        pa.schema(
            [("doc_id", pa.int64()), ("n_words", pa.int64()),
             ("alpha_chars", pa.int64()), ("n_hash", pa.int64()),
             ("n_ellipsis", pa.int64()), ("keep_flag", pa.int64())]
        ),
    )


ORACLES["gopher_quality"] = (
    "SELECT doc_id, n_words, alpha_chars, n_hash, n_ellipsis, "
    f"CASE WHEN n_words >= {GOPHER_MIN_WORDS} AND n_words <= {GOPHER_MAX_WORDS} "
    "AND alpha_chars >= 3 * n_words AND alpha_chars <= 10 * n_words "
    "AND 10 * n_hash < n_words AND 10 * n_ellipsis < n_words "
    "THEN 1 ELSE 0 END::BIGINT AS keep_flag FROM ("
    "SELECT doc_id, "
    "len(regexp_extract_all(text, '\\S+'))::BIGINT AS n_words, "
    "length(regexp_replace(text, '[^A-Za-z]', '', 'g'))::BIGINT AS alpha_chars, "
    "(length(text) - length(replace(text, '#', '')))::BIGINT AS n_hash, "
    "((length(text) - length(replace(text, '...', ''))) // 3)::BIGINT AS n_ellipsis "
    "FROM documents)"
)


# ---- corpus mixing weights (per-source sampling for a target mixture) ----

def domain_mix_weights(sf_dir: str) -> ray.data.Dataset:
    """Per-source data-mixing weights — the corpus-mixture step of a
    training-data pipeline (give each source domain a sampling weight
    that re-balances the token budget to a UNIFORM target share):
    ``mix_weight = total_tokens / (n_sources * source_tokens)`` — one
    bigint/bigint double division, identical IEEE result on both engines.
    The per-source totals come from an in-batch Arrow group_by combiner
    (<= n_sources rows leave each batch) + a tiny global groupby; the
    final weight computation runs on the materialized aggregate (one row
    per source — driver-side by design, like every tiny-aggregate
    finisher in this repo)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(pc.fill_null(t["text"], ""), TOKEN_RE),
            pa.int64(),
        )
        g = (
            pa.table({"source": t["source"], "n_tokens": n})
            .group_by("source")
            .aggregate([("n_tokens", "sum"), ("n_tokens", "count")])
        )
        return pa.table(
            {
                "source": g["source"],
                "toks": g["n_tokens_sum"],
                "docs": pc.cast(g["n_tokens_count"], pa.int64()),
            }
        )

    agg = (
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("toks", alias_name="n_tokens"), Sum("docs", alias_name="n_docs"))
        .to_pandas()
    )
    empty = pd.DataFrame(
        {
            "source": pd.array([], dtype="str"),
            "n_docs": pd.array([], dtype="int64"),
            "n_tokens": pd.array([], dtype="int64"),
            "mix_weight": pd.array([], dtype="float64"),
        }
    )
    if len(agg) == 0:
        # all-empty stream loses its schema (agg has zero COLUMNS, not
        # just zero rows) — return the typed empty frame instead
        return ray.data.from_pandas(empty)
    total = int(agg["n_tokens"].sum())
    n_sources = len(agg)
    toks = agg["n_tokens"].to_numpy()
    out = pd.DataFrame(
        {
            "source": agg["source"],
            "n_docs": agg["n_docs"].astype("int64"),
            "n_tokens": agg["n_tokens"].astype("int64"),
            # a token-less source gets weight 0 (CASE-matched in the SQL)
            # rather than an engine-dependent division by zero
            "mix_weight": np.divide(
                np.float64(total), n_sources * toks,
                out=np.zeros(len(toks)), where=toks > 0,
            ),
        }
    )
    return ray.data.from_pandas(out)


ORACLES["domain_mix_weights"] = (
    "WITH per AS (SELECT source, count(*)::BIGINT AS n_docs, "
    f"sum(len(regexp_extract_all(text, '{TOKEN_RE}')))::BIGINT AS n_tokens "
    "FROM documents GROUP BY source) "
    "SELECT source, n_docs, n_tokens, "
    "CASE WHEN n_tokens = 0 THEN 0.0 ELSE "
    "CAST((SELECT sum(n_tokens) FROM per) AS DOUBLE) / "
    "((SELECT count(*) FROM per) * n_tokens) END AS mix_weight FROM per"
)


# ---- inverted index build (token -> postings summary) --------------------

INVERTED_MIN_DF = 5


def inverted_index_stats(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """Distributed inverted-index build: distinct (token, doc) postings
    per batch — each document lives wholly in one row, so in-batch
    dedup is exact — then ONE groupby(token) merges per-batch partials
    (df count + doc_id sum/min/max).  The shuffle carries one row per
    distinct (batch, token), never per occurrence; the postings lists
    themselves are summarized (count + checksum + bounds, all int64) so
    the driver-side result stays hash-comparable and bounded.  Tokens
    below INVERTED_MIN_DF are dropped AFTER the merge (the filter is on
    the tiny aggregate)."""

    def partial(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        toks = pc.split_pattern_regex(lowered, pattern="[^a-z0-9_]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy()
        doc = np.repeat(t["doc_id"].to_numpy(), lens)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        pairs = pa.table(
            {"token": flat.filter(keep), "doc_id": pa.array(doc, pa.int64()).filter(keep)}
        )
        # distinct within the batch, then per-token partials
        distinct = pairs.group_by(["token", "doc_id"]).aggregate([])
        g = distinct.group_by("token").aggregate(
            [
                ("doc_id", "count"),
                ("doc_id", "sum"),
                ("doc_id", "min"),
                ("doc_id", "max"),
            ]
        )
        return pa.table(
            {
                "token": g["token"],
                "df_partial": pc.cast(g["doc_id_count"], pa.int64()),
                "sum_partial": g["doc_id_sum"],
                "min_partial": g["doc_id_min"],
                "max_partial": g["doc_id_max"],
            }
        )

    from ray.data.aggregate import Max, Min, Sum

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(
            Sum("df_partial", alias_name="df"),
            Sum("sum_partial", alias_name="postings_sum"),
            Min("min_partial", alias_name="min_doc_id"),
            Max("max_partial", alias_name="max_doc_id"),
        )
        .filter(expr=f"df >= {INVERTED_MIN_DF}"),
        pa.schema(
            [("token", pa.string()), ("df", pa.int64()),
             ("postings_sum", pa.int64()), ("min_doc_id", pa.int64()),
             ("max_doc_id", pa.int64())]
        ),
    )


ORACLES["inverted_index_stats"] = (
    "WITH pairs AS (SELECT DISTINCT doc_id, token FROM ("
    "  SELECT doc_id, unnest(regexp_extract_all(lower(text), "
    f"'{LOWER_TOKEN_RE}')) AS token FROM documents)) "
    "SELECT token, count(*)::BIGINT AS df, sum(doc_id)::BIGINT AS postings_sum, "
    "min(doc_id)::BIGINT AS min_doc_id, max(doc_id)::BIGINT AS max_doc_id "
    f"FROM pairs GROUP BY token HAVING count(*) >= {INVERTED_MIN_DF} "
    "ORDER BY token"
)


# ---- TF-IDF top term per document ----------------------------------------

_TFIDF_PARTS = 64


def tfidf_top_terms(sf_dir: str) -> ray.data.Dataset:
    """Per-document most-distinctive term by tf×idf ranking (idf enters
    as 1/df — the corpus-size factor is constant per corpus, so the
    ARGMAX is identical to ln(N/df) ranking while staying an exact
    int/int double division both engines compute bit-identically).

    Shape: per-batch exact (doc, token, tf) counts (each doc is one row,
    so in-batch counts are complete) are MATERIALIZED once — both the df
    aggregation and the probe side consume them, the same justified
    double-consumption as dedup's band table — df merges in one
    groupby(token), rides back via a hash-partitioned token join (list
    payloads avoided by design), and the per-doc argmax
    hash-partitions by doc, then runs ONE vectorized sort +
    drop_duplicates per partition — callbacks scale with partition count, not document
    count.  Ties break on token text; the score
    doubles are computed identically on both sides so tie sets agree."""

    def tf_partial(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        toks = pc.split_pattern_regex(lowered, pattern="[^a-z0-9_]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy()
        doc = np.repeat(t["doc_id"].to_numpy(), lens)
        flat = pc.list_flatten(toks)
        keep = pc.not_equal(flat, "")
        pairs = pa.table(
            {"doc_id": pa.array(doc, pa.int64()).filter(keep), "token": flat.filter(keep)}
        )
        g = pairs.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "token": g["token"],
                "tf": pc.cast(g["count_all"], pa.int64()),
            }
        )

    tf = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(tf_partial, batch_format="pyarrow")
        .materialize()
    )

    def df_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("token").aggregate([([], "count_all")])
        return pa.table(
            {"token": g["token"], "df_partial": pc.cast(g["count_all"], pa.int64())}
        )

    from ray.data.aggregate import Sum

    df = (
        tf.map_batches(df_partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("df_partial", alias_name="df"))
    )

    from ._common import _volume_join_parts

    scored = tf.join(
        df,
        join_type="inner",
        num_partitions=_volume_join_parts(tf.count()),
        on=("token",),
    )

    def add_score_part(t: pa.Table) -> pa.Table:
        score = t["tf"].to_numpy() / t["df"].to_numpy()
        h = t["doc_id"].to_numpy().astype(np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        part = ((h >> np.uint64(33)) % np.uint64(_TFIDF_PARTS)).astype(np.int64)
        return (
            t.append_column("score", pa.array(score, pa.float64()))
            .append_column("part", pa.array(part, pa.int64()))
        )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        cols = ["doc_id", "top_token", "tf", "df", "score"]
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype="int64"),
                    "top_token": pd.array([], dtype=object),
                    "tf": pd.array([], dtype="int64"),
                    "df": pd.array([], dtype="int64"),
                    "score": pd.array([], dtype="float64"),
                }
            )
        best = (
            g.sort_values(
                ["doc_id", "score", "token"], ascending=[True, False, True]
            )
            .drop_duplicates("doc_id", keep="first")
            .rename(columns={"token": "top_token"})
        )
        return best[cols].reset_index(drop=True)

    return (
        scored.map_batches(add_score_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .select_columns(["doc_id", "top_token", "tf", "df", "score"])
    )


ORACLES["tfidf_top_terms"] = (
    "WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), "
    f"'{LOWER_TOKEN_RE}')) AS token FROM documents), "
    "tf AS (SELECT doc_id, token, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2), "
    "df AS (SELECT token, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY 1), "
    "scored AS (SELECT tf.doc_id, tf.token, tf.tf, df.df, "
    "tf.tf * 1.0 / df.df AS score, "
    "ROW_NUMBER() OVER (PARTITION BY tf.doc_id "
    "ORDER BY tf.tf * 1.0 / df.df DESC, tf.token) AS rn "
    "FROM tf JOIN df USING (token)) "
    "SELECT doc_id, token AS top_token, tf, df, score "
    "FROM scored WHERE rn = 1 ORDER BY doc_id"
)


# ---- cross-document shared n-gram scan (dup-span dedup signal) -----------

SHARED_NGRAM_N = 5


def _distinct_gram_pairs(t: pa.Table) -> pa.Table:
    """Per-batch distinct (doc_id, word-5-gram) pairs, fully vectorized
    (flatten words with per-doc repeats, one elementwise object-concat
    per gram slot, a doc-boundary mask — no Python loop over docs or
    grams); shared by shared_ngram_docs and ngram_novelty."""
    toks = pc.split_pattern(pc.fill_null(t["text"], ""), pattern=" ")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    lens = pc.list_value_length(toks).to_numpy()
    doc = np.repeat(t["doc_id"].to_numpy(), lens)
    words = np.array(pc.list_flatten(toks).to_pylist(), dtype=object)
    k = SHARED_NGRAM_N - 1
    if len(words) <= k:
        return pa.table(
            {"doc_id": pa.array([], pa.int64()), "gram": pa.array([], pa.string())}
        )
    grams = words[: len(words) - k]
    for i in range(1, SHARED_NGRAM_N):
        grams = grams + " "
        grams = grams + words[i : len(words) - k + i]
    valid = doc[: len(doc) - k] == doc[k:]
    pairs = pa.table(
        {
            "doc_id": pa.array(doc[: len(doc) - k][valid], pa.int64()),
            "gram": pa.array(grams[valid], pa.string()),
        }
    )
    return pairs.group_by(["doc_id", "gram"]).aggregate([])


def shared_ngram_docs(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """Per-document count of word 5-grams that also occur in at least one
    OTHER document — the duplicated-span signal behind suffix/substring
    dedup (a doc whose grams are mostly shared is boilerplate).  This is
    the oracle-backed sibling of ``decontaminate_overlap`` (rows-only):
    grams stay exact STRINGS so DuckDB reproduces them bit-for-bit; at
    100-TB scale the same plan runs with uint64 gram hashes (8 bytes per
    gram over the shuffle instead of the text, collision-safe in practice
    — see dedup._windowed_word_hashes).

    Shape: per-batch the gram build is fully vectorized (flatten words
    with per-doc repeats, one elementwise object-concat per gram slot, a
    doc-boundary mask — no Python loop over docs or grams), distinct
    (doc, gram) pairs come from one pyarrow group_by.  The pair table is
    MATERIALIZED once and consumed twice (tfidf_top_terms precedent): a
    combiner-backed groupby(gram) counts document frequency, grams with
    df ≥ 2 hash-join back onto the pairs (volume-sized fan-out — the
    shared-gram side can be corpus-sized, so no broadcast), and a
    combiner-backed groupby(doc_id) counts each doc's shared grams."""

    pairs_partial = _distinct_gram_pairs

    from ray.data.aggregate import Sum

    from ._common import _partial_group_agg, _volume_join_parts

    pairs = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(pairs_partial, batch_format="pyarrow")
        .materialize()
    )

    shared = (
        pairs.map_batches(_partial_group_agg(["gram"]), batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Sum("n_partial", alias_name="df"))
        .filter(expr="df >= 2")
        .materialize()
    )
    schema = pa.schema([("doc_id", pa.int64()), ("n_shared_grams", pa.int64())])
    if shared.count() == 0:     # an empty join side has no key column
        return schema.empty_table()

    return _typed(
        pairs.join(
            shared,
            join_type="inner",
            num_partitions=_volume_join_parts(pairs.count()),
            on=("gram",),
        )
        .map_batches(_partial_group_agg(["doc_id"]), batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("n_partial", alias_name="n_shared_grams")),
        schema,
    )


ORACLES["shared_ngram_docs"] = (
    "WITH words AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents), "
    "grams AS (SELECT DISTINCT doc_id, "
    "array_to_string(list_slice(w, i, i + 4), ' ') AS g "
    "FROM words, unnest(range(1, len(w) - 3)) AS t(i)), "
    "df AS (SELECT g, count(*) AS df FROM grams GROUP BY 1) "
    "SELECT grams.doc_id, count(*)::BIGINT AS n_shared_grams "
    "FROM grams JOIN df ON grams.g = df.g WHERE df.df >= 2 "
    "GROUP BY 1 ORDER BY 1"
)


def ngram_novelty(sf_dir: str) -> ray.data.Dataset:
    """Per-document novelty census: of a doc's DISTINCT word 5-grams,
    how many were already emitted by an earlier document (doc_id order —
    the ingest's arrival order)?  This is the streaming-novelty signal an
    incremental dedup keeps (a crawl snapshot whose grams are mostly
    old is a re-crawl; a fresh corpus has a high novel share), and the
    ordered complement of ``shared_ngram_docs``'s order-free df ≥ 2.

    Shape: distinct (doc, gram) pairs (shared ``_distinct_gram_pairs``
    partial, materialized once, consumed twice); first-seen doc per gram
    via a MIN-combined groupby (in-batch pyarrow min so the shuffle
    carries one row per gram per batch, never per occurrence); the
    first-seen table hash-joins back onto the pairs (volume-sized — the
    gram side is corpus-sized, no broadcast), and a combiner-backed
    groupby(doc_id) folds each doc's (n_grams, n_repeated) ints.  Docs
    with fewer than 5 words emit no row on either side."""
    from ray.data.aggregate import Min, Sum

    from ._common import _partial_group_agg, _volume_join_parts

    schema = pa.schema(
        [("doc_id", pa.int64()), ("n_grams", pa.int64()),
         ("n_repeated", pa.int64())]
    )
    pairs = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(_distinct_gram_pairs, batch_format="pyarrow")
        .materialize()
    )
    n_pairs = pairs.count()
    if n_pairs == 0:
        # no doc has 5 words: the hash join below crashes on an all-empty
        # side (see CLAUDE.md), and no row would come out of it anyway
        return schema.empty_table()

    def min_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"gram": pa.array([], pa.string()),
                 "d0_partial": pa.array([], pa.int64())}
            )
        g = t.select(["gram", "doc_id"]).group_by("gram").aggregate(
            [("doc_id", "min")]
        )
        return pa.table(
            {"gram": g["gram"],
             "d0_partial": pc.cast(g["doc_id_min"], pa.int64())}
        )

    first = (
        pairs.map_batches(min_partial, batch_format="pyarrow")
        .groupby("gram")
        .aggregate(Min("d0_partial", alias_name="d0"))
    )

    def per_doc_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_grams_partial": pa.array([], pa.int64()),
                 "n_repeated_partial": pa.array([], pa.int64())}
            )
        rep = pc.cast(pc.less(t["d0"], t["doc_id"]), pa.int64())
        g = pa.table(
            {"doc_id": t["doc_id"], "rep": rep}
        ).group_by("doc_id").aggregate([("rep", "sum"), ([], "count_all")])
        return pa.table(
            {"doc_id": g["doc_id"],
             "n_grams_partial": pc.cast(g["count_all"], pa.int64()),
             "n_repeated_partial": pc.cast(g["rep_sum"], pa.int64())}
        )

    return (
        pairs.join(
            first,
            join_type="inner",
            num_partitions=_volume_join_parts(n_pairs),
            on=("gram",),
        )
        .map_batches(per_doc_partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("n_grams_partial", alias_name="n_grams"),
            Sum("n_repeated_partial", alias_name="n_repeated"),
        )
    )


ORACLES["ngram_novelty"] = (
    "WITH words AS (SELECT doc_id, string_split(text, ' ') AS w FROM documents), "
    "grams AS (SELECT DISTINCT doc_id, "
    "array_to_string(list_slice(w, i, i + 4), ' ') AS g "
    "FROM words, unnest(range(1, len(w) - 3)) AS t(i)), "
    "f AS (SELECT g, min(doc_id) AS d0 FROM grams GROUP BY 1) "
    "SELECT grams.doc_id, count(*)::BIGINT AS n_grams, "
    "sum(CASE WHEN f.d0 < grams.doc_id THEN 1 ELSE 0 END)::BIGINT "
    "AS n_repeated "
    "FROM grams JOIN f ON grams.g = f.g GROUP BY 1"
)


# ---- char-class profile: vectorized quality signal per language -----------

def char_class_profile(sf_dir: str) -> ray.data.Dataset:
    """Per-language character-class census (total/alpha/vowel/space
    counts plus docs) — the reference's content_stats quality signal
    (langid_service/app/analysis.py:61-104) re-expressed as pure Arrow
    kernels: ``utf8_length`` + three ``count_substring_regex`` passes
    per batch (RE2 char classes, zero Python per row), an in-batch
    combiner, and a ≤|langs| groupby.  The oracle computes the same
    counts via DuckDB's regexp_replace-length trick."""
    from ray.data.aggregate import Sum

    def census(t: pa.Table) -> pa.Table:
        txt = t["text"]
        sub = pa.table(
            {
                "lang": t["lang"],
                "total_chars": pc.cast(pc.utf8_length(txt), pa.int64()),
                "alpha_chars": pc.cast(
                    pc.count_substring_regex(txt, "[a-z]"), pa.int64()
                ),
                "vowel_chars": pc.cast(
                    pc.count_substring_regex(txt, "[aeiou]"), pa.int64()
                ),
                "space_chars": pc.cast(
                    pc.count_substring_regex(txt, " "), pa.int64()
                ),
            }
        )
        g = sub.group_by("lang").aggregate(
            [
                ("total_chars", "sum"),
                ("alpha_chars", "sum"),
                ("vowel_chars", "sum"),
                ("space_chars", "sum"),
                ([], "count_all"),
            ]
        )
        return pa.table(
            {
                "lang": g["lang"],
                "tc_p": g["total_chars_sum"],
                "ac_p": g["alpha_chars_sum"],
                "vc_p": g["vowel_chars_sum"],
                "sc_p": g["space_chars_sum"],
                "n_p": pc.cast(g["count_all"], pa.int64()),
            }
        )

    return (
        _read(sf_dir, "documents", ["lang", "text"])
        .map_batches(census, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_p", alias_name="n_docs"),
            Sum("tc_p", alias_name="total_chars"),
            Sum("ac_p", alias_name="alpha_chars"),
            Sum("vc_p", alias_name="vowel_chars"),
            Sum("sc_p", alias_name="space_chars"),
        )
    )


ORACLES["char_class_profile"] = (
    "SELECT lang, count(*)::BIGINT AS n_docs, "
    "sum(length(text))::BIGINT AS total_chars, "
    "sum(length(text) - length(regexp_replace(text, '[a-z]', '', 'g')))::BIGINT "
    "AS alpha_chars, "
    "sum(length(text) - length(regexp_replace(text, '[aeiou]', '', 'g')))::BIGINT "
    "AS vowel_chars, "
    "sum(length(text) - length(regexp_replace(text, ' ', '', 'g')))::BIGINT "
    "AS space_chars "
    "FROM documents GROUP BY 1 ORDER BY 1"
)


# ---- dup_token_stats: Gopher-style within-document repetition ------------

DUP_TOKEN_NUM = 1  # high-dup iff DEN*distinct < NUM*total, i.e. <50% distinct
DUP_TOKEN_DEN = 2


def dup_token_stats(sf_dir: str) -> ray.data.Dataset:
    """Within-document token repetition per language — the Gopher
    repetition-rule family (duplicate-word fraction; reference's
    repeated-content gate, SURVEY.md §2.4) as corpus-level stats: per
    lang, document count, total tokens, DISTINCT tokens per doc summed,
    and how many docs are "high-dup" (less than half their tokens
    distinct — an exact integer inequality, 2*distinct < total, so the
    engine and SQL agree bit-for-bit).

    Fully vectorized per-doc dedup with NO Python loop over rows: the
    batch's texts split into one flat token array (pyarrow
    split_pattern), tokens factorize to int codes via np.unique, and
    per-doc distinct counts come from np.unique over a combined
    (doc_index << 32 | token_code) int64 key — one sort per batch.
    Per-batch partials group by lang (bounded cardinality), so the
    shuffle carries ≤ |langs| rows per batch."""
    from ray.data.aggregate import Sum

    def f(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t["text"], "")
        toks = pc.split_pattern(text, " ")
        flat = toks.combine_chunks().flatten() if isinstance(
            toks, pa.ChunkedArray
        ) else toks.flatten()
        lengths = pc.list_value_length(toks).to_numpy().astype(np.int64)
        doc_idx = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        _, codes = np.unique(
            flat.to_numpy(zero_copy_only=False), return_inverse=True
        )
        pair = (doc_idx << np.int64(32)) | codes.astype(np.int64)
        uniq_docs = np.unique(pair) >> np.int64(32)
        distinct = np.bincount(uniq_docs, minlength=len(lengths)).astype(
            np.int64
        )
        high = (DUP_TOKEN_DEN * distinct < DUP_TOKEN_NUM * lengths).astype(
            np.int64
        )
        part = pa.table(
            {
                "lang": t["lang"],
                "n_p": pa.array(np.ones(len(lengths), np.int64)),
                "tt_p": pa.array(lengths),
                "dt_p": pa.array(distinct),
                "hd_p": pa.array(high),
            }
        )
        g = part.group_by("lang").aggregate(
            [("n_p", "sum"), ("tt_p", "sum"), ("dt_p", "sum"), ("hd_p", "sum")]
        )
        return g.rename_columns(["lang", "n_p", "tt_p", "dt_p", "hd_p"])

    return (
        _read(sf_dir, "documents", ["text", "lang"])
        .map_batches(f, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_p", alias_name="n_docs"),
            Sum("tt_p", alias_name="total_tokens"),
            Sum("dt_p", alias_name="distinct_tokens"),
            Sum("hd_p", alias_name="high_dup_docs"),
        )
        .sort("lang")
    )


ORACLES["dup_token_stats"] = (
    "WITH per_doc AS (SELECT lang, "
    "len(string_split(text, ' '))::BIGINT AS total, "
    "len(list_distinct(string_split(text, ' ')))::BIGINT AS distinct_t "
    "FROM documents) "
    "SELECT lang, count(*)::BIGINT AS n_docs, "
    "sum(total)::BIGINT AS total_tokens, "
    "sum(distinct_t)::BIGINT AS distinct_tokens, "
    f"sum(CASE WHEN {DUP_TOKEN_DEN} * distinct_t < total THEN 1 ELSE 0 END)"
    "::BIGINT AS high_dup_docs "
    "FROM per_doc GROUP BY 1 ORDER BY 1"
)


# ---- chars_percentiles: exact per-group discrete percentiles -------------

CHAR_PCTS = (0.5, 0.9, 0.99)


def chars_percentiles(sf_dir: str) -> ray.data.Dataset:
    """Exact discrete percentiles (p50/p90/p99) of document length per
    language — the reference's per-class latency-percentile report
    (SURVEY.md §2.6) as a grouped ORDER-STATISTIC.

    ``groupby(lang).map_groups`` is the right tool here BECAUSE the
    group count is bounded (|langs|, not SF-proportional — CLAUDE.md's
    map_groups rule), and only (lang, n_chars) — 8 bytes a row — crosses
    the shuffle, never text.  Inside each group one sort + three gathers
    at index ceil(p*n)-1 reproduce DuckDB's quantile_disc convention
    exactly (verified: n=4/5 probes).  This operator's per-group
    gather grows with corpus size."""
    import pandas as pd

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "lang": pd.array([], dtype="object"),
                    "n_docs": pd.array([], dtype="int64"),
                    "p50_chars": pd.array([], dtype="int64"),
                    "p90_chars": pd.array([], dtype="int64"),
                    "p99_chars": pd.array([], dtype="int64"),
                }
            )
        v = np.sort(g["n_chars"].to_numpy().astype(np.int64))
        n = len(v)
        idx = [max(int(np.ceil(p * n)) - 1, 0) for p in CHAR_PCTS]
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "n_docs": np.array([n], np.int64),
                "p50_chars": np.array([v[idx[0]]], np.int64),
                "p90_chars": np.array([v[idx[1]]], np.int64),
                "p99_chars": np.array([v[idx[2]]], np.int64),
            }
        )

    return (
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .groupby("lang")
        .map_groups(pick, batch_format="pandas")
        .sort("lang")
    )


ORACLES["chars_percentiles"] = (
    "SELECT lang, count(*)::BIGINT AS n_docs, "
    "quantile_disc(n_chars, 0.5)::BIGINT AS p50_chars, "
    "quantile_disc(n_chars, 0.9)::BIGINT AS p90_chars, "
    "quantile_disc(n_chars, 0.99)::BIGINT AS p99_chars "
    "FROM documents GROUP BY 1 ORDER BY 1"
)


# ---- vocab_stats: distinct-token census per language ---------------------

def vocab_stats(sf_dir: str) -> ray.data.Dataset:
    """Vocabulary census per language: distinct token count and total
    token occurrences — the corpus-level Heaps-law signal a mixing/
    tokenizer-budget stage reads (SURVEY.md §2.9's frequency family,
    complementing per-token ``top_tokens``).

    Two-level exact distinct with BOTH shuffles vocabulary-bounded: each
    batch flattens its texts once (pyarrow split_pattern), np.unique
    collapses (lang, token) pairs in-batch to one row with an occurrence
    count, the first groupby sums occurrences per surviving pair (rows ≤
    |vocab| x |langs|, never corpus-proportional), and a second combiner
    reduces pairs to ≤ |langs| partials per batch before the final tiny
    groupby.  No token string crosses the wire more than once per batch
    per distinct value."""
    from ray.data.aggregate import Sum

    def pairs(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t["text"], "")
        toks = pc.split_pattern(text, " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        langs = t["lang"].to_numpy(zero_copy_only=False)
        doc_lang = np.repeat(langs, lengths)
        lang_vals, lang_codes = np.unique(doc_lang, return_inverse=True)
        tok_vals, tok_codes = np.unique(flat, return_inverse=True)
        key = lang_codes.astype(np.int64) * np.int64(len(tok_vals)) + tok_codes
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "lang": pa.array(
                    lang_vals[(uniq // len(tok_vals)).astype(np.int64)]
                ),
                "token": pa.array(tok_vals[uniq % len(tok_vals)]),
                "occ_p": pa.array(counts.astype(np.int64)),
            }
        )

    def per_lang(t: pa.Table) -> pa.Table:
        part = pa.table(
            {
                "lang": t["lang"],
                "d_p": pa.array(np.ones(t.num_rows, np.int64)),
                "o_p": t["n_occurrences"],
            }
        )
        g = part.group_by("lang").aggregate([("d_p", "sum"), ("o_p", "sum")])
        return g.rename_columns(["lang", "d_p", "o_p"])

    return (
        _read(sf_dir, "documents", ["text", "lang"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["lang", "token"])
        .aggregate(Sum("occ_p", alias_name="n_occurrences"))
        .map_batches(per_lang, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("d_p", alias_name="n_distinct_tokens"),
            Sum("o_p", alias_name="n_tokens"),
        )
        .sort("lang")
    )


ORACLES["vocab_stats"] = (
    "WITH toks AS (SELECT lang, unnest(string_split(text, ' ')) AS token "
    "FROM documents) "
    "SELECT lang, count(DISTINCT token)::BIGINT AS n_distinct_tokens, "
    "count(*)::BIGINT AS n_tokens "
    "FROM toks GROUP BY 1 ORDER BY 1"
)


# ---- vocab_overlap: cross-language shared-vocabulary matrix --------------

def vocab_overlap(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """Shared-vocabulary matrix: for every language pair, how many
    distinct tokens appear in BOTH languages — the cross-corpus
    contamination/mixing signal (SURVEY.md §2.8's set-op family) and the
    set-intersection-per-key shape.

    Distinct (lang, token) pairs reduce exactly as in ``vocab_stats``
    (in-batch np.unique combiner, vocabulary-bounded groupby), then the
    pair table SELF-JOINS on token — Arrow C++ expands each token's ≤
    |langs| rows into ≤ |langs|² pair rows, so the expansion is bounded
    by vocabulary x langs², never corpus size (the same
    map_groups-vs-self-join choice as ``simhash_candidates``).  The
    lang_a < lang_b filter and an in-batch combiner shrink the result
    to ≤ |langs|²/2 partials per batch before the final tiny groupby."""
    from ray.data.aggregate import Sum

    def pairs(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t["text"], "")
        toks = pc.split_pattern(text, " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        langs = np.repeat(t["lang"].to_numpy(zero_copy_only=False), lengths)
        lang_vals, lang_codes = np.unique(langs, return_inverse=True)
        tok_vals, tok_codes = np.unique(flat, return_inverse=True)
        key = lang_codes.astype(np.int64) * np.int64(len(tok_vals)) + tok_codes
        uniq = np.unique(key)
        return pa.table(
            {
                "lang": pa.array(lang_vals[(uniq // len(tok_vals)).astype(np.int64)]),
                "token": pa.array(tok_vals[uniq % len(tok_vals)]),
                "one": pa.array(np.ones(len(uniq), np.int64)),
            }
        )

    vocab = (
        _read(sf_dir, "documents", ["text", "lang"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["lang", "token"])
        .aggregate(Sum("one", alias_name="n"))
        .select_columns(["lang", "token"])
    )
    right = vocab.rename_columns({"lang": "lang_b", "token": "token_b"})
    joined = vocab.join(
        right,
        join_type="inner",
        num_partitions=4,
        on=("token",),
        right_on=("token_b",),
    )

    def combine(t: pa.Table) -> pa.Table:
        a = t["lang"].to_numpy(zero_copy_only=False)
        b = t["lang_b"].to_numpy(zero_copy_only=False)
        keep = a < b
        part = pa.table(
            {
                "lang_a": pa.array(a[keep]),
                "lang_b": pa.array(b[keep]),
                "s_p": pa.array(np.ones(int(keep.sum()), np.int64)),
            }
        )
        g = part.group_by(["lang_a", "lang_b"]).aggregate([("s_p", "sum")])
        return g.rename_columns(["lang_a", "lang_b", "s_p"])

    return _typed(
        joined.map_batches(combine, batch_format="pyarrow")
        .groupby(["lang_a", "lang_b"])
        .aggregate(Sum("s_p", alias_name="n_shared_tokens"))
        .sort(["lang_a", "lang_b"]),
        pa.schema(
            [("lang_a", pa.string()), ("lang_b", pa.string()),
             ("n_shared_tokens", pa.int64())]
        ),
    )


ORACLES["vocab_overlap"] = (
    "WITH v AS (SELECT DISTINCT lang, unnest(string_split(text, ' ')) AS token "
    "FROM documents) "
    "SELECT a.lang AS lang_a, b.lang AS lang_b, count(*)::BIGINT "
    "AS n_shared_tokens "
    "FROM v a JOIN v b ON a.token = b.token AND a.lang < b.lang "
    "GROUP BY 1, 2 ORDER BY 1, 2"
)


# ---- lang_source_agg: grouped collect (string_agg) -----------------------

def lang_source_agg(sf_dir: str) -> ray.data.Dataset:
    """Per language: the sorted, comma-joined set of DISTINCT sources
    plus doc count — the grouped COLLECT/string_agg primitive (the
    reference's per-class provenance roster, SURVEY.md §2.6), returned
    as a string so the driver's hash compare stays scalar-typed.

    Exact two-level distinct, both shuffles bounded: in-batch (lang,
    source) np.unique dedup with a doc-count partial, a pair groupby
    whose row count is ≤ |langs| x |sources|, then ONE bounded-group
    map_groups joins each language's sorted sources — the join itself
    touches ≤ |sources| strings per group, never documents."""
    import pandas as pd
    from ray.data.aggregate import Sum

    def pairs(t: pa.Table) -> pa.Table:
        lang = t["lang"].to_numpy(zero_copy_only=False)
        src = t["source"].to_numpy(zero_copy_only=False)
        lv, lc = np.unique(lang, return_inverse=True)
        sv, sc = np.unique(src, return_inverse=True)
        key = lc.astype(np.int64) * np.int64(len(sv)) + sc
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "lang": pa.array(lv[(uniq // len(sv)).astype(np.int64)]),
                "source": pa.array(sv[uniq % len(sv)]),
                "n_p": pa.array(counts.astype(np.int64)),
            }
        )

    def collect(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "lang": pd.array([], dtype="object"),
                    "n_docs": pd.array([], dtype="int64"),
                    "sources": pd.array([], dtype="object"),
                }
            )
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "n_docs": np.array([int(g["n_docs"].sum())], np.int64),
                "sources": [",".join(sorted(g["source"]))],
            }
        )

    return (
        _read(sf_dir, "documents", ["lang", "source"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n_p", alias_name="n_docs"))
        .groupby("lang")
        .map_groups(collect, batch_format="pandas")
        .sort("lang")
    )


ORACLES["lang_source_agg"] = (
    "SELECT lang, count(*)::BIGINT AS n_docs, "
    "string_agg(DISTINCT source, ',' ORDER BY source) AS sources "
    "FROM documents GROUP BY 1 ORDER BY 1"
)


# ---- sequence packing (LLM pre-training layout) ----------------------------

PACK_SEQ_TOKENS = 512            # training sequence capacity, in tokens
_PACK_ROWS_PER_PART = 2_000_000  # id-range partition sizing (metadata only)
_PREFIX_MIN_PARTS = 8            # floor for the prefix-sum ops' partition
                                 # count (results are partition-count
                                 # INVARIANT — pinned by tests that vary it)


def pack_sequences(sf_dir: str) -> ray.data.Dataset:
    """Concat-and-chunk sequence packing — assign every document its slot
    in the packed pre-training token stream: documents concatenated in
    doc_id order, chopped into PACK_SEQ_TOKENS-capacity sequences;
    ``seq_id`` is the sequence holding the doc's FIRST token and
    ``offset_in_seq`` its position there (docs may straddle a boundary,
    exactly like real packing with document concatenation).

    Distributed shape — a GLOBAL ORDERED PREFIX SUM, the op a naive port
    would do with one driver-side pass over sorted rows:

      pass 1  range-partition by doc_id (contiguous id ranges sized from
              parquet metadata), count tokens per doc vectorized, and
              reduce to ONE (part, token_sum) row per partition — only
              ``parts`` rows ever reach the driver;
      fold    driver cumsums the <= ``parts`` values into prefix offsets
              (bounded driver state, annotated to_pandas);
      pass 2  re-scan, exchange rows by part (16 bytes/row shuffle), and
              inside each partition one sort + cumsum + the broadcast
              offset yields the exact global running total before every
              doc; seq assignment is an int64 divmod.

    Token counting runs twice — two cheap streaming scans instead of
    materializing the counted table, the honest distributed trade."""
    import pandas as pd
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    path = f"{sf_dir}/documents.parquet"
    n_rows = pq.read_metadata(path).num_rows
    parts = max(_PREFIX_MIN_PARTS, n_rows // _PACK_ROWS_PER_PART)
    cap = PACK_SEQ_TOKENS

    def tokens_with_part(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        part = np.minimum(
            ids * parts // max(n_rows, 1), parts - 1
        ).astype(np.int64)
        nt = pc.cast(pc.count_substring_regex(t["text"], TOKEN_RE), pa.int64())
        return pa.table(
            {
                "part": pa.array(part, pa.int64()),
                "doc_id": t["doc_id"],
                "n_tokens": nt,
            }
        )

    def part_partials(t: pa.Table) -> pa.Table:
        # in-batch combiner: one row per (batch, part) crosses the shuffle
        g = t.group_by("part").aggregate([("n_tokens", "sum")])
        return g.rename_columns(["part", "n_partial"])

    counted = lambda: _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(  # noqa: E731
        tokens_with_part, batch_format="pyarrow"
    )

    # pass 1 + fold: <= parts rows — a bounded aggregate (driver state is
    # O(parts), never O(rows))
    sums_df = (
        counted()
        .map_batches(part_partials, batch_format="pyarrow")
        .groupby("part")
        .aggregate(Sum("n_partial", alias_name="part_tokens"))
        .to_pandas()
    )
    if sums_df.empty:
        return pa.schema(
            [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
             ("seq_id", pa.int64()), ("offset_in_seq", pa.int64())]
        ).empty_table()
    sums = np.zeros(parts, dtype=np.int64)
    sums[sums_df["part"].to_numpy()] = sums_df["part_tokens"].to_numpy()
    offsets = np.concatenate(([0], np.cumsum(sums)[:-1]))

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype="int64"),
                    "n_tokens": pd.array([], dtype="int64"),
                    "seq_id": pd.array([], dtype="int64"),
                    "offset_in_seq": pd.array([], dtype="int64"),
                }
            )
        g = g.sort_values("doc_id").reset_index(drop=True)
        nt = g["n_tokens"].to_numpy()
        cum_before = offsets[int(g["part"].iloc[0])] + np.concatenate(
            ([0], np.cumsum(nt)[:-1])
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_tokens": nt,
                "seq_id": cum_before // cap,
                "offset_in_seq": cum_before % cap,
            }
        )

    return (
        counted()
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .select_columns(["doc_id", "n_tokens", "seq_id", "offset_in_seq"])
    )


ORACLES["pack_sequences"] = (
    f"WITH c AS (SELECT doc_id, len(regexp_extract_all(text, '{TOKEN_RE}'))::BIGINT "
    "AS n_tokens FROM documents), "
    "w AS (SELECT doc_id, n_tokens, coalesce(sum(n_tokens) OVER ("
    "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT "
    "AS cum_before FROM c) "
    f"SELECT doc_id, n_tokens, (cum_before // {PACK_SEQ_TOKENS})::BIGINT AS seq_id, "
    f"(cum_before % {PACK_SEQ_TOKENS})::BIGINT AS offset_in_seq FROM w"
)


# ---- deterministic corpus mixing / ordering --------------------------------

# target keep-rates per language in basis points (the data-mixing knob of a
# training pipeline: rebalance a crawl toward a target language mix).
# Shared verbatim with the SQL oracle below — one source of truth.
MIX_RATES_BP = {"en": 9000, "fr": 7000, "de": 5000, "es": 3000}
MIX_DEFAULT_BP = 10000           # unlisted languages keep everything
_LCG_MOD = 2_147_483_648         # 2^31: products stay inside BIGINT/int64
_LCG_MUL = 1_103_515_245
_LCG_ADD = 12_345


def _lcg_hash(ids: np.ndarray) -> np.ndarray:
    """Deterministic per-doc hash reproducible bit-for-bit in DuckDB SQL
    (plain BIGINT arithmetic, no engine hash functions): a single LCG
    step over doc_id mod 2^31.  Multiplier x modulus < 2^62 so the
    intermediate product never overflows int64 on either engine."""
    return ((ids % _LCG_MOD) * _LCG_MUL + _LCG_ADD) % _LCG_MOD


_LCG_SQL = f"(((doc_id % {_LCG_MOD}) * {_LCG_MUL} + {_LCG_ADD}) % {_LCG_MOD})"


def mix_downsample(sf_dir: str) -> ray.data.Dataset:
    """Deterministic hash-Bernoulli downsampling to a target language mix
    (the Pile/fineweb-style mixing step): keep a doc iff
    ``lcg(doc_id) % 10000 < rate_bp[lang]``.  Pure per-row math — a
    map-only filter with NO shuffle and no RNG state, so the sample is
    identical across runs, partitionings and cluster sizes, and any
    subset of the input can be re-sampled independently (exactly what a
    resumable 100 TB mixing job needs)."""

    langs = list(MIX_RATES_BP)
    rate_arr = np.array(
        [MIX_RATES_BP[lang] for lang in langs] + [MIX_DEFAULT_BP],
        dtype=np.int64,
    )
    lang_keys = pa.array(langs, pa.string())

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        draw = _lcg_hash(ids) % 10000
        idx = pc.index_in(t["lang"], value_set=lang_keys)
        rates = rate_arr[pc.fill_null(idx, len(langs)).to_numpy()]
        return t.filter(pa.array(draw < rates))

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
            f, batch_format="pyarrow"
        ),
        _schema(sf_dir, "documents", ["doc_id", "lang"]),
    )


def _mix_rate_case() -> str:
    whens = " ".join(
        f"WHEN '{lang}' THEN {bp}" for lang, bp in MIX_RATES_BP.items()
    )
    return f"CASE lang {whens} ELSE {MIX_DEFAULT_BP} END"


ORACLES["mix_downsample"] = (
    "SELECT doc_id, lang FROM documents "
    f"WHERE {_LCG_SQL} % 10000 < {_mix_rate_case()}"
)


MIX_REBALANCE_LAMBDA_BP = 5000    # interpolation weight λ in basis points


def mix_rebalance(sf_dir: str) -> ray.data.Dataset:
    """Temperature-style language rebalancing computed FROM the corpus
    itself (``mix_downsample``'s rates are a fixed config; multilingual
    LLM pipelines usually derive them from the observed distribution):
    over-represented languages are downsampled toward the rarest
    language's share by λ-interpolation,

        keep_rate_bp(l) = (10000 - λbp) + (λbp * n_min) // n_l

    — λ=0 keeps the natural mix, λ=10000 caps every language at the
    rarest one's expected volume (the flattening limit temperature
    sampling approaches as alpha -> 0).  All-INTEGER arithmetic so the
    DuckDB oracle replays it bit-for-bit (a pow(p, alpha) float chain
    would not hash-compare across engines; swapping λ for a float alpha
    schedule is a constants change, not a shape change).

    Scale shape: pass 1 is the exact per-lang count (in-batch combiner,
    vocabulary-bounded shuffle: <= n_langs rows per batch cross); the
    driver holds one tiny dict; pass 2 is the same map-only LCG
    hash-Bernoulli filter as ``mix_downsample`` — no shuffle, no RNG
    state, identical across runs/partitionings, any input subset
    re-samples independently (resumable 100 TB mixing)."""
    from ray.data.aggregate import Sum

    def lang_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("lang").aggregate([("doc_id", "count")])
        return g.rename_columns(["lang", "n_partial"])

    counts = (
        _read(sf_dir, "documents", ["doc_id", "lang"])
        .map_batches(lang_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_partial", alias_name="n"))
        .to_pandas()          # bounded: one row per language
    )
    schema = _schema(sf_dir, "documents", ["doc_id", "lang"])
    if counts.empty:
        return schema.empty_table()
    lam = MIX_REBALANCE_LAMBDA_BP
    n_min = int(counts["n"].min())
    rates = {
        lang: (10000 - lam) + (lam * n_min) // int(n)
        for lang, n in zip(counts["lang"], counts["n"])
    }
    langs = list(rates)
    rate_arr = np.array([rates[lang] for lang in langs], dtype=np.int64)
    lang_keys = pa.array(langs, pa.string())

    def f(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        draw = _lcg_hash(ids) % 10000
        idx = pc.index_in(t["lang"], value_set=lang_keys)
        r = rate_arr[pc.fill_null(idx, 0).to_numpy()]
        return t.filter(pa.array(draw < r))

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "lang"]).map_batches(
            f, batch_format="pyarrow"
        ),
        schema,
    )


ORACLES["mix_rebalance"] = (
    "WITH c AS (SELECT lang, count(*)::BIGINT AS n "
    "FROM documents GROUP BY lang), "
    "m AS (SELECT min(n) AS n_min FROM c) "
    "SELECT d.doc_id, d.lang FROM documents d "
    "JOIN c ON d.lang = c.lang CROSS JOIN m "
    f"WHERE {_LCG_SQL} % 10000 < "
    f"(10000 - {MIX_REBALANCE_LAMBDA_BP}) "
    f"+ ({MIX_REBALANCE_LAMBDA_BP} * m.n_min) // c.n"
)


SOURCE_QUOTA_CAP = 20     # max docs kept per source


def source_quota_sample(sf_dir: str) -> ray.data.Dataset:
    """Per-domain quota sampling (the RefinedWeb/C4-style cap on any one
    domain's contribution): keep at most SOURCE_QUOTA_CAP docs per
    ``source``, chosen by the deterministic ``(lcg(doc_id), doc_id)``
    order so the sample is stable across runs and partitionings, with the
    doc's 1-based quota rank in the output.

    Scale shape: a per-batch COMBINER keeps only each batch's top-cap
    rows per source (pandas C sort + groupby-head), so the shuffle
    carries <= sources x cap rows per batch instead of the corpus; the
    final exact top-cap runs per source group.  Source cardinality is
    bounded (a domain registry), so groupby(source).map_groups pays a
    bounded number of Python callbacks — the CLAUDE.md rule's cheap
    case."""
    import pandas as pd

    cap = SOURCE_QUOTA_CAP

    def top_cap(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["lcg", "doc_id"], kind="mergesort")
        return df.groupby("source", sort=False).head(cap)

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "doc_id": t["doc_id"].to_numpy(),
                "source": t["source"].to_pylist(),
                "lcg": _lcg_hash(t["doc_id"].to_numpy()),
            }
        )
        return pa.Table.from_pandas(top_cap(df), preserve_index=False).replace_schema_metadata(None)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype="int64"),
                    "source": pd.array([], dtype="object"),
                    "quota_rank": pd.array([], dtype="int64"),
                }
            )
        out = top_cap(df).reset_index(drop=True)
        out["quota_rank"] = out.groupby("source", sort=False).cumcount() + 1
        return out[["doc_id", "source", "quota_rank"]]

    return _typed(
        _read(sf_dir, "documents", ["doc_id", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(finish, batch_format="pandas")
        .select_columns(["doc_id", "source", "quota_rank"]),
        pa.schema(
            [("doc_id", pa.int64()), ("source", pa.string()),
             ("quota_rank", pa.int64())]
        ),
    )


ORACLES["source_quota_sample"] = (
    "SELECT doc_id, source, rn::BIGINT AS quota_rank FROM ("
    "SELECT doc_id, source, row_number() OVER (PARTITION BY source "
    f"ORDER BY {_LCG_SQL}, doc_id) AS rn FROM documents) "
    f"WHERE rn <= {SOURCE_QUOTA_CAP}"
)


WEIGHTED_SAMPLE_K = 200   # global sample size
_WS_SCALE = 1_000_000     # rational-key scale: lcg < 2^31, x1e6 < 2^51 << int64


def weighted_sample(sf_dir: str) -> "pa.Table":
    """Importance-WEIGHTED corpus sampling: pick WEIGHTED_SAMPLE_K docs
    with probability increasing in a per-doc weight (here ``n_chars`` —
    swap in any integer quality score).  Every doc gets the exact-integer
    rational key ``lcg(doc_id) * _WS_SCALE // max(n_chars, 1)`` and the
    global K smallest keys win, with 1-based rank — doubling a doc's
    weight stochastically halves its key, the integer analog of the
    Efraimidis-Spirakis ``u^(1/w)`` reservoir trick.  All-integer so the
    DuckDB oracle replays the key bit-for-bit (float ``ln(u)/w`` ordering
    could flip ranks cross-engine; integer floor-division cannot).

    Scale shape: a per-batch COMBINER keeps only each batch's K smallest
    keys, so the driver-side finish sees <= K x blocks rows (bounded;
    chain one more round of the same combiner if block count ever makes
    that large).  Partitioning-independent by construction: the key is a
    pure function of (doc_id, n_chars) and top-K is order-insensitive."""
    k = WEIGHTED_SAMPLE_K

    def partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        w = np.maximum(t["n_chars"].to_numpy(), 1)
        key = _lcg_hash(ids) * _WS_SCALE // w
        order = np.lexsort((ids, key))[:k]
        return pa.table(
            {
                "doc_id": ids[order],
                "weight": w[order].astype(np.int64),
                "sample_key": key[order],
            }
        )

    top = (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()          # bounded: <= K rows per input block
    )
    top = (
        top.sort_values(["sample_key", "doc_id"], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    top["sample_rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return pa.Table.from_pandas(top, preserve_index=False)


ORACLES["weighted_sample"] = (
    "SELECT doc_id, weight, sample_key, "
    "row_number() OVER (ORDER BY sample_key, doc_id)::BIGINT AS sample_rank "
    "FROM (SELECT doc_id, greatest(n_chars, 1)::BIGINT AS weight, "
    f"({_LCG_SQL} * {_WS_SCALE}) // greatest(n_chars, 1) AS sample_key "
    "FROM documents) "
    f"ORDER BY sample_key, doc_id LIMIT {WEIGHTED_SAMPLE_K}"
)


_SHUFFLE_PARTS_MIN = 64
_SHUFFLE_ROWS_PER_PART = 2_000_000


def shuffle_order(sf_dir: str) -> ray.data.Dataset:
    """Deterministic pseudo-random TRAINING ORDER without a global sort:
    every doc gets its rank in the permutation induced by ordering on
    ``(lcg(doc_id), doc_id)`` — what a naive engine computes with one
    giant ORDER BY + row_number().

    Distributed shape (second use of the global-prefix-sum pattern from
    ``pack_sequences``): hash values range-partition into ``parts``
    contiguous hash intervals, pass 1 reduces per-partition COUNTS
    (<= parts rows to the driver), the fold turns them into rank
    offsets, and pass 2 sorts only WITHIN each partition (each ~2M rows)
    — total work O(n log(n/parts)) with no all-to-all sort exchange.

    The tie-break on doc_id makes the order total, so ranks match the
    SQL row_number oracle exactly even under LCG collisions."""
    import pandas as pd
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    path = f"{sf_dir}/documents.parquet"
    n_rows = pq.read_metadata(path).num_rows
    parts = max(_SHUFFLE_PARTS_MIN, n_rows // _SHUFFLE_ROWS_PER_PART)

    def hashed(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        h = _lcg_hash(ids)
        part = np.minimum(h * parts // _LCG_MOD, parts - 1).astype(np.int64)
        return pa.table(
            {
                "part": pa.array(part, pa.int64()),
                "h": pa.array(h, pa.int64()),
                "doc_id": t["doc_id"],
            }
        )

    def part_counts(t: pa.Table) -> pa.Table:
        g = t.group_by("part").aggregate([("h", "count")])
        return g.rename_columns(["part", "n_partial"])

    src = lambda: _read(sf_dir, "documents", ["doc_id"]).map_batches(  # noqa: E731
        hashed, batch_format="pyarrow"
    )

    # pass 1 + fold: bounded driver state (<= parts rows)
    counts_df = (
        src()
        .map_batches(part_counts, batch_format="pyarrow")
        .groupby("part")
        .aggregate(Sum("n_partial", alias_name="n"))
        .to_pandas()
    )
    if counts_df.empty:
        return pa.schema(
            [("doc_id", pa.int64()), ("train_pos", pa.int64())]
        ).empty_table()
    counts = np.zeros(parts, dtype=np.int64)
    counts[counts_df["part"].to_numpy()] = counts_df["n"].to_numpy()
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype="int64"),
                    "train_pos": pd.array([], dtype="int64"),
                }
            )
        g = g.sort_values(["h", "doc_id"]).reset_index(drop=True)
        base = offsets[int(g["part"].iloc[0])]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "train_pos": base + np.arange(len(g), dtype=np.int64),
            }
        )

    return (
        src()
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .select_columns(["doc_id", "train_pos"])
    )


ORACLES["shuffle_order"] = (
    f"SELECT doc_id, (row_number() OVER (ORDER BY {_LCG_SQL}, doc_id) - 1)"
    "::BIGINT AS train_pos FROM documents"
)


# ---- curriculum binning by document length ---------------------------------

LENGTH_TIERS = 4


_LENGTH_SAMPLE_PER_PART = 256     # boundary-sample size per target partition


def _sampled_length_bounds(sf_dir: str, parts: int, n_rows: int) -> np.ndarray:
    """Quantile partition boundaries for ``length_rank_tiers`` from a
    DETERMINISTIC hash-sample (pure function of doc_id, the
    ``stratified_sample`` trick): each doc keeps with probability
    ~(parts * 256 / n_rows) by a threshold compare on the multiplied
    uint64 mix, the sampled n_chars gather to the driver (bounded:
    ~256 rows per partition), and positional quantiles of the sorted
    sample become the ``parts - 1`` interval boundaries.  Duplicate
    boundaries (a value holding >1/parts of the mass) collapse intervals
    to empty — correct, and unavoidable: equal values must co-locate for
    exact ranking, so a single value's mass can never be split."""
    target = parts * _LENGTH_SAMPLE_PER_PART
    if n_rows <= 0:
        return np.array([], dtype=np.int64)
    rate = min(1.0, target / n_rows)
    thresh = np.uint64(min(int(rate * 2 ** 64), 2 ** 64 - 1))
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def sample(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy().astype(np.uint64)
        keep = (ids * _MIX) < thresh
        return pa.table(
            {"n_chars": pa.array(t["n_chars"].to_numpy()[keep], pa.int64())}
        )

    samp = (
        _read(sf_dir, "documents", ["doc_id", "n_chars"])
        .map_batches(sample, batch_format="pyarrow")
        .to_pandas()["n_chars"]          # bounded: ~parts * 256 rows
        .to_numpy()
    )
    if len(samp) == 0:
        return np.array([], dtype=np.int64)    # one partition, still exact
    s = np.sort(samp)
    idx = (np.arange(1, parts) * len(s)) // parts
    return s[idx]


def length_rank_tiers(sf_dir: str) -> ray.data.Dataset:
    """Curriculum binning: every doc's global rank by (n_chars, doc_id)
    plus its quartile tier ``(rank * 4) // n`` — the ordering step of a
    short-to-long training curriculum, i.e. a global ORDER BY +
    row_number() computed WITHOUT a global sort exchange.

    Third use of the two-pass prefix pattern (``pack_sequences`` /
    ``shuffle_order``), this time partitioned by VALUE RANGE so partition
    order equals rank order: boundaries come from a deterministic
    hash-sample's quantiles (``_sampled_length_bounds`` — skew-resistant,
    unlike the equal-width grid this replaced: a concentrated n_chars
    distribution now splits across partitions instead of serializing
    pass 2 through one straggler), each row maps to exactly one interval
    by binary search, pass 1 folds per-interval COUNTS (<= parts rows to
    the driver) into rank offsets, and pass 2 sorts only inside each
    interval.  Exactness is boundary-independent: ANY boundary set gives
    the same ranks because equal values co-locate and intervals are
    value-ordered; the sample quality affects only balance."""
    import pandas as pd
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    path = f"{sf_dir}/documents.parquet"
    n_rows = pq.read_metadata(path).num_rows
    parts = max(_PREFIX_MIN_PARTS, n_rows // _PACK_ROWS_PER_PART)
    bounds = _sampled_length_bounds(sf_dir, parts, n_rows)

    def with_part(t: pa.Table) -> pa.Table:
        nc = t["n_chars"].to_numpy()
        part = np.searchsorted(bounds, nc, side="right").astype(np.int64)
        return pa.table(
            {
                "part": pa.array(part, pa.int64()),
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
            }
        )

    def part_counts(t: pa.Table) -> pa.Table:
        g = t.group_by("part").aggregate([("doc_id", "count")])
        return g.rename_columns(["part", "n_partial"])

    src = lambda: _read(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(  # noqa: E731
        with_part, batch_format="pyarrow"
    )

    # pass 1 + fold: bounded driver state (<= parts rows)
    counts_df = (
        src()
        .map_batches(part_counts, batch_format="pyarrow")
        .groupby("part")
        .aggregate(Sum("n_partial", alias_name="n"))
        .to_pandas()
    )
    if counts_df.empty:
        return pa.schema(
            [("doc_id", pa.int64()), ("n_chars", pa.int64()),
             ("length_rank", pa.int64()), ("size_tier", pa.int64())]
        ).empty_table()
    counts = np.zeros(parts, dtype=np.int64)
    counts[counts_df["part"].to_numpy()] = counts_df["n"].to_numpy()
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    total = int(counts.sum())

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype="int64"),
                    "n_chars": pd.array([], dtype="int64"),
                    "length_rank": pd.array([], dtype="int64"),
                    "size_tier": pd.array([], dtype="int64"),
                }
            )
        g = g.sort_values(["n_chars", "doc_id"]).reset_index(drop=True)
        rank = offsets[int(g["part"].iloc[0])] + np.arange(
            len(g), dtype=np.int64
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_chars": g["n_chars"].to_numpy(),
                "length_rank": rank,
                "size_tier": rank * LENGTH_TIERS // max(total, 1),
            }
        )

    return (
        src()
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .select_columns(["doc_id", "n_chars", "length_rank", "size_tier"])
    )


ORACLES["length_rank_tiers"] = (
    "WITH r AS (SELECT doc_id, n_chars, "
    "(row_number() OVER (ORDER BY n_chars, doc_id) - 1)::BIGINT AS length_rank, "
    "count(*) OVER ()::BIGINT AS n FROM documents) "
    "SELECT doc_id, n_chars, length_rank, "
    f"(length_rank * {LENGTH_TIERS} // n)::BIGINT AS size_tier FROM r"
)


# ---- the end-to-end training-prep composition ------------------------------

def training_manifest(sf_dir: str) -> ray.data.Dataset:
    """The whole training-data prep in ONE two-pass pipeline: rebalance to
    the target language mix (``mix_downsample`` filter), order the
    survivors by the deterministic shuffle permutation
    (``shuffle_order``), and pack them into fixed-capacity training
    sequences in that order (``pack_sequences``) — emitting, per kept
    doc: its global training position, its sequence id and its offset.
    This is the manifest a loader needs to stream the packed corpus.

    All three stages fuse into the ONE prefix-sum skeleton: the mix
    filter is a map; hash-range partitions make partition order equal
    shuffle order; pass 1 folds per-partition (row count, token sum)
    pairs — still <= ``parts`` rows to the driver — into position AND
    token offsets; pass 2 sorts each partition by (h, doc_id) and reads
    both assignments off one cumsum.  Two streaming scans total,
    16-24 bytes/row on the one exchange, no global sort."""
    import pandas as pd
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    path = f"{sf_dir}/documents.parquet"
    n_rows = pq.read_metadata(path).num_rows
    parts = max(_PREFIX_MIN_PARTS, n_rows // _PACK_ROWS_PER_PART)
    cap = PACK_SEQ_TOKENS

    langs = list(MIX_RATES_BP)
    rate_arr = np.array(
        [MIX_RATES_BP[lang] for lang in langs] + [MIX_DEFAULT_BP],
        dtype=np.int64,
    )
    lang_keys = pa.array(langs, pa.string())

    def sample_and_tag(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        h = _lcg_hash(ids)
        idx = pc.index_in(t["lang"], value_set=lang_keys)
        rates = rate_arr[pc.fill_null(idx, len(langs)).to_numpy()]
        t = t.append_column("h", pa.array(h, pa.int64()))
        t = t.filter(pa.array(h % 10000 < rates))
        h = t["h"].to_numpy()
        part = np.minimum(h * parts // _LCG_MOD, parts - 1).astype(np.int64)
        nt = pc.cast(pc.count_substring_regex(t["text"], TOKEN_RE), pa.int64())
        return pa.table(
            {
                "part": pa.array(part, pa.int64()),
                "h": t["h"],
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_tokens": nt,
            }
        )

    def part_partials(t: pa.Table) -> pa.Table:
        g = t.group_by("part").aggregate([("doc_id", "count"), ("n_tokens", "sum")])
        return g.rename_columns(["part", "rows_partial", "tokens_partial"])

    src = lambda: _read(sf_dir, "documents", ["doc_id", "lang", "text"]).map_batches(  # noqa: E731
        sample_and_tag, batch_format="pyarrow"
    )

    # pass 1 + fold: <= parts rows of driver state
    sums_df = (
        src()
        .map_batches(part_partials, batch_format="pyarrow")
        .groupby("part")
        .aggregate(
            Sum("rows_partial", alias_name="n"),
            Sum("tokens_partial", alias_name="toks"),
        )
        .to_pandas()
    )
    if sums_df.empty:
        # no document, or the mix filter dropped every one
        return pa.schema(
            [("doc_id", pa.int64()), ("lang", pa.string()),
             ("n_tokens", pa.int64()), ("train_pos", pa.int64()),
             ("seq_id", pa.int64()), ("offset_in_seq", pa.int64())]
        ).empty_table()
    rows = np.zeros(parts, dtype=np.int64)
    toks = np.zeros(parts, dtype=np.int64)
    rows[sums_df["part"].to_numpy()] = sums_df["n"].to_numpy()
    toks[sums_df["part"].to_numpy()] = sums_df["toks"].to_numpy()
    pos_off = np.concatenate(([0], np.cumsum(rows)[:-1]))
    tok_off = np.concatenate(([0], np.cumsum(toks)[:-1]))

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_id": pd.array([], dtype="int64"),
                    "lang": pd.array([], dtype="object"),
                    "n_tokens": pd.array([], dtype="int64"),
                    "train_pos": pd.array([], dtype="int64"),
                    "seq_id": pd.array([], dtype="int64"),
                    "offset_in_seq": pd.array([], dtype="int64"),
                }
            )
        g = g.sort_values(["h", "doc_id"]).reset_index(drop=True)
        p = int(g["part"].iloc[0])
        nt = g["n_tokens"].to_numpy()
        cum_before = tok_off[p] + np.concatenate(([0], np.cumsum(nt)[:-1]))
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "lang": g["lang"].to_numpy(),
                "n_tokens": nt,
                "train_pos": pos_off[p] + np.arange(len(g), dtype=np.int64),
                "seq_id": cum_before // cap,
                "offset_in_seq": cum_before % cap,
            }
        )

    return (
        src()
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .select_columns(
            ["doc_id", "lang", "n_tokens", "train_pos", "seq_id", "offset_in_seq"]
        )
    )


ORACLES["training_manifest"] = (
    f"WITH k AS (SELECT doc_id, lang, "
    f"len(regexp_extract_all(text, '{TOKEN_RE}'))::BIGINT AS n_tokens, "
    f"{_LCG_SQL} AS h FROM documents "
    f"WHERE {_LCG_SQL} % 10000 < {_mix_rate_case()}), "
    "o AS (SELECT doc_id, lang, n_tokens, "
    "(row_number() OVER (ORDER BY h, doc_id) - 1)::BIGINT AS train_pos, "
    "coalesce(sum(n_tokens) OVER (ORDER BY h, doc_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS cum_before "
    "FROM k) "
    f"SELECT doc_id, lang, n_tokens, train_pos, "
    f"(cum_before // {PACK_SEQ_TOKENS})::BIGINT AS seq_id, "
    f"(cum_before % {PACK_SEQ_TOKENS})::BIGINT AS offset_in_seq FROM o"
)


# ---- bpe_train: distributed tokenizer training ----------------------------

BPE_N_MERGES = 24
# driver-state bound: train on the top-V word FORMS by (count desc, word) —
# the same contract real trainers expose (HF tokenizers' limit_alphabet /
# max word entries); the cut is deterministic and part of the op's spec,
# not a silent truncation
BPE_MAX_VOCAB_WORDS = 200_000
_BPE_EOW = "</w>"


def _bpe_merges_from_freqs(
    freqs: list[tuple[str, int]], n_merges: int
) -> list[tuple[int, str, str, int]]:
    """Classic Sennrich-2016 BPE merge loop over a WORD-FREQUENCY table:
    each distinct word is a symbol sequence (chars + end-of-word marker);
    per round, count adjacent symbol pairs weighted by word frequency,
    merge the most frequent pair everywhere (ties broken by the
    lexicographically smallest (left, right) so the result is a pure
    function of the frequency table), and record (rank, left, right,
    freq).  Stops early when no pair repeats.  O(n_merges x total
    symbols over distinct words) — bounded by the vocabulary, never the
    corpus."""
    words = [
        (tuple(w) + (_BPE_EOW,), c) for w, c in freqs if w
    ]
    merges: list[tuple[int, str, str, int]] = []
    for rank in range(n_merges):
        pair_counts: dict[tuple[str, str], int] = {}
        for syms, c in words:
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + c
        if not pair_counts:
            break
        top = max(pair_counts.values())
        left, right = min(p for p, c in pair_counts.items() if c == top)
        merges.append((rank, left, right, top))
        joined = left + right
        new_words = []
        for syms, c in words:
            if len(syms) < 2:
                new_words.append((syms, c))
                continue
            out = []
            i = 0
            while i < len(syms):
                if (
                    i + 1 < len(syms)
                    and syms[i] == left
                    and syms[i + 1] == right
                ):
                    out.append(joined)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_words.append((tuple(out), c))
        words = new_words
    return merges


def bpe_train(sf_dir: str) -> pa.Table:
    """Distributed BPE tokenizer training (Sennrich et al. 2016) — the
    missing stage of the LLM-data flow (dedup -> mix -> pack -> SHUFFLE
    all exist; the tokenizer itself trains here).  Architecture matches
    production trainers (HF tokenizers, sentencepiece): the corpus-scale
    work is ONE word-frequency pass (the top_tokens combiner: in-batch
    value_counts so the groupby shuffle carries (word, partial) rows,
    bounded by vocabulary x batches, never corpus size), and the merge
    loop itself runs driver-side over the BOUNDED distinct-word table —
    at most BPE_MAX_VOCAB_WORDS forms kept by (count desc, word), the
    documented trainer contract.  Output: one row per merge,
    (merge_rank, left, right, pair_freq), a pure function of the corpus.

    No SQL oracle (iterative state like kmeans_fit) — pinned bit-for-bit
    against an independent single-machine reference in tests."""
    from ray.data.aggregate import Sum

    def partial_counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9_]+"
        )
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        vc = flat.value_counts()
        return pa.table(
            {
                "word": vc.field("values"),
                "partial": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    agg = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(partial_counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("partial", alias_name="n"))
    )
    # gather is bounded by |vocab| (groupby output), then capped to the
    # top word forms deterministically
    tbls = [t for t in ray.get(agg.to_arrow_refs()) if t.num_rows]
    empty = pa.table(
        {
            "merge_rank": pa.array([], pa.int64()),
            "left": pa.array([], pa.string()),
            "right": pa.array([], pa.string()),
            "pair_freq": pa.array([], pa.int64()),
        }
    )
    if not tbls:
        return empty
    df = pa.concat_tables(tbls).to_pandas()
    df = df.sort_values(["n", "word"], ascending=[False, True], kind="mergesort")
    df = df.head(BPE_MAX_VOCAB_WORDS)
    merges = _bpe_merges_from_freqs(
        list(zip(df["word"].tolist(), df["n"].tolist())), BPE_N_MERGES
    )
    if not merges:
        return empty
    return pa.table(
        {
            "merge_rank": pa.array([m[0] for m in merges], pa.int64()),
            "left": pa.array([m[1] for m in merges], pa.string()),
            "right": pa.array([m[2] for m in merges], pa.string()),
            "pair_freq": pa.array([m[3] for m in merges], pa.int64()),
        }
    )


def _bpe_encode_word(word: str, ranks: dict[tuple[str, str], int]) -> int:
    """Token count for one word under a trained merge table: start from
    chars + end-of-word marker, repeatedly apply the LOWEST-RANK adjacent
    merge present (the standard greedy BPE encode), return the surviving
    symbol count."""
    syms = list(word) + [_BPE_EOW]
    while len(syms) > 1:
        best_rank, best_i = None, -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return len(syms)


def bpe_encode(sf_dir: str) -> ray.data.Dataset:
    """Apply the bpe_train merge table to the corpus: per-document BPE
    token count — the tokenize-for-budgeting stage that follows tokenizer
    training (pack_sequences-style planning runs on THESE counts in a real
    flow).  Output: (doc_id, n_bpe_tokens).

    Scale shape — the broadcast-model archetype with a DERIVED artifact:
    the merge table (BPE_N_MERGES rows) ships once via ray.put; each batch
    tokenizes with the same Arrow regex split as training, collapses to
    its DISTINCT words (np.unique with counts — the encode loop runs once
    per distinct word per batch, not once per occurrence), encodes them
    under the rank dict, and scatters counts back per doc with one
    vectorized segment sum.  Rows-only like bpe_train (iterative merge
    semantics have no SQL analog); pinned against an independent encode
    in tests."""
    merges = bpe_train(sf_dir)
    ranks = {
        (l, r): i
        for i, (l, r) in enumerate(
            zip(merges["left"].to_pylist(), merges["right"].to_pylist())
        )
    }
    ranks_ref = ray.put(ranks)

    def encode(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_bpe_tokens": pa.array([], pa.int64())}
            )
        rk = ray.get(ranks_ref)
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t["text"]), pattern="[^a-z0-9_]+"
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lengths = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        words = flat.to_numpy(zero_copy_only=False)
        doc_row = np.repeat(np.arange(len(t), dtype=np.int64), lengths)
        nonempty = words != ""
        words, doc_row = words[nonempty], doc_row[nonempty]
        uniq, inv = np.unique(words, return_inverse=True)
        per_word = np.fromiter(
            (_bpe_encode_word(w, rk) for w in uniq),
            dtype=np.int64, count=len(uniq),
        )
        counts = np.zeros(len(t), dtype=np.int64)
        np.add.at(counts, doc_row, per_word[inv])
        return pa.table(
            {"doc_id": t["doc_id"],
             "n_bpe_tokens": pa.array(counts)}
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow"
    )


# ---- zscore_by_lang: per-group feature standardization ---------------------

def zscore_by_lang(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """Per-language z-score of document length — grouped feature
    STANDARDIZATION, the ML feature-prep archetype (normalize a quality
    signal within each language before a global threshold, so verbose
    languages are not over-selected).  Emits one row per document:
    ``z_chars = (n*x - Sx) / sqrt(n*Sxx - Sx^2)`` — algebraically the
    population z-score, but written so both engines do the SAME ops:
    exact int64 group moments, one int->double cast of each side, one
    IEEE divide/sqrt — bit-identical to the oracle with no float
    accumulation anywhere.  Zero-variance languages are excluded on both
    sides.  int64 moment bound: n * sum(x^2) per language must stay
    under 2^63 — holds through ~3*10^11 docs/lang at 5k chars.

    Scale shape: pass 1 is the in-batch pyarrow group_by combiner into a
    LANGUAGE-bounded groupby (the standard two-pass normalize); the tiny
    (lang, n, Sx, Sxx) table broadcasts as SORTED arrays via ray.put
    (never a dict closure — CLAUDE.md) and pass 2 is a pure map over the
    stream, output rows == input rows, no shuffle."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"lang": pa.array([], pa.string()),
             "n_partial": pa.array([], pa.int64()),
             "sx": pa.array([], pa.int64()),
             "sxx": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        x = t["n_chars"].to_numpy()
        src = pa.table(
            {"lang": t["lang"],
             "x": pa.array(x, pa.int64()),
             "xx": pa.array(x * x, pa.int64())}
        )
        g = src.group_by("lang").aggregate(
            [("x", "sum"), ("xx", "sum"), ([], "count_all")]
        )
        return pa.table(
            {"lang": g["lang"],
             "n_partial": pc.cast(g["count_all"], pa.int64()),
             "sx": g["x_sum"], "sxx": g["xx_sum"]}
        )

    m = (
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_partial", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sxx", alias_name="sxx"),
        )
        .to_pandas()    # bounded: one row per language
    )
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "lang": pa.array([], pa.string()),
         "z_chars": pa.array([], pa.float64())}
    )
    if m.empty:
        return empty
    n = m["n"].to_numpy().astype(np.int64)
    sx = m["sx"].to_numpy().astype(np.int64)
    sxx = m["sxx"].to_numpy().astype(np.int64)
    den2 = n * sxx - sx * sx
    keep = den2 > 0
    if not keep.any():      # every language has zero variance
        return empty
    order = np.argsort(m["lang"].to_numpy()[keep])
    langs = m["lang"].to_numpy()[keep][order].astype(str)
    stats_ref = ray.put(
        (langs,
         n[keep][order],
         sx[keep][order],
         np.sqrt(den2[keep][order].astype(np.float64)))
    )

    def zmap(t: pa.Table, _ref=stats_ref) -> pa.Table:
        if len(t) == 0:
            return empty
        lg, nn, sxs, dens = ray.get(_ref)
        lang = t["lang"].to_numpy(zero_copy_only=False).astype(str)
        pos = np.searchsorted(lg, lang)
        pos_c = np.minimum(pos, len(lg) - 1)
        ok = lg[pos_c] == lang      # drop zero-variance/unseen languages
        x = t["n_chars"].to_numpy()
        p = pos_c[ok]
        z = (nn[p] * x[ok] - sxs[p]).astype(np.float64) / dens[p]
        return pa.table(
            {"doc_id": pa.array(t["doc_id"].to_numpy()[ok], pa.int64()),
             "lang": pa.array(lang[ok], pa.string()),
             "z_chars": pa.array(z, pa.float64())}
        )

    return _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        zmap, batch_format="pyarrow"
    )


ORACLES["zscore_by_lang"] = (
    "WITH m AS (SELECT lang, count(*)::BIGINT AS n, "
    "sum(n_chars)::BIGINT AS sx, "
    "sum(n_chars*n_chars)::BIGINT AS sxx FROM documents GROUP BY lang) "
    "SELECT d.doc_id, d.lang, "
    "CAST(m.n*d.n_chars - m.sx AS DOUBLE) / "
    "sqrt(CAST(m.n*m.sxx - m.sx*m.sx AS DOUBLE)) AS z_chars "
    "FROM documents d JOIN m USING(lang) "
    "WHERE m.n*m.sxx - m.sx*m.sx > 0"
)


# ---- weighted_median_chars: grouped WEIGHTED order statistic ---------------

def weighted_median_chars(sf_dir: str) -> "pa.Table":
    """Per-language weighted median of document length, weight = the
    length itself: the doc size below which half of each language's
    total CHARACTER MASS lives.  The weighted order statistic is the
    right size cut for token budgeting (a plain median over-weights the
    long tail's row count and ignores that one 100k-char doc carries the
    mass of a thousand tweets); 2*cum >= tot picks the lower weighted
    median deterministically on both sides.

    Scale shape: the exact value-HISTOGRAM pattern (length_rank_tiers
    pass 1): each batch folds to (lang, value, mass) rows via the
    in-batch combiner — the exchange is bounded by value cardinality x
    languages, never rows — and the driver folds the bounded histogram
    and picks each language's crossing value with one cumsum.  No
    full-column sort anywhere (the textbook median plan), and no
    quantile approximation: the answer is exact.

    Reference anchor: SURVEY.md §2.6 percentile family
    (chars_percentiles documents this histogram as its own scale path);
    the weighting is the new axis."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"lang": pa.array([], pa.string()),
             "v": pa.array([], pa.int64()),
             "mass": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        src = pa.table({"lang": t["lang"], "v": t["n_chars"]})
        g = src.group_by(["lang", "v"]).aggregate([("v", "sum")])
        return pa.table(
            {"lang": g["lang"], "v": g["v"],
             "mass": pc.cast(g["v_sum"], pa.int64())}
        )

    hist = (
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: value cardinality x languages x blocks
    )
    empty = pa.table(
        {"lang": pa.array([], pa.string()),
         "wmedian_chars": pa.array([], pa.int64())}
    )
    if hist.empty:
        return empty
    hist = (
        hist.groupby(["lang", "v"], sort=True)["mass"].sum().reset_index()
    )
    langs, meds = [], []
    for lang, g in hist.groupby("lang", sort=True):
        v = g["v"].to_numpy()
        cm = np.cumsum(g["mass"].to_numpy())
        idx = int(np.searchsorted(2 * cm, cm[-1], side="left"))
        langs.append(lang)
        meds.append(int(v[idx]))
    return pa.table(
        {"lang": pa.array(langs, pa.string()),
         "wmedian_chars": pa.array(meds, pa.int64())}
    )


ORACLES["weighted_median_chars"] = (
    "WITH h AS (SELECT lang, n_chars AS v, sum(n_chars)::BIGINT AS mass "
    "FROM documents GROUP BY 1, 2), "
    "c AS (SELECT lang, v, "
    "sum(mass) OVER (PARTITION BY lang ORDER BY v)::BIGINT AS cm, "
    "sum(mass) OVER (PARTITION BY lang)::BIGINT AS tot FROM h) "
    "SELECT lang, min(v)::BIGINT AS wmedian_chars FROM c "
    "WHERE 2*cm >= tot GROUP BY lang"
)


# ---- sentence_stats: vectorized regex census (RE2 parity) ------------------

_SENT_TERM_RE = "[.!?]+"


def sentence_stats(sf_dir: str) -> "pa.Table":
    """Per-language sentence-terminator census: a sentence boundary is a
    maximal run of ``[.!?]`` (the cheap segmentation a 100 TB quality
    pass can afford before any model sees the text; counts feed the
    avg-sentence-length style Gopher rules).  The regex runs as ONE
    vectorized Arrow kernel per batch (``pc.count_substring_regex`` is
    RE2, same engine as the DuckDB oracle — the scrub-rule parity
    contract from CLAUDE.md), each batch folds to per-language partials
    in-batch, and only languages x blocks rows reach the driver fold —
    the exchange never scales with corpus rows.

    Reference anchor: SURVEY.md §2.3 text heuristics family (stopword /
    bracket counting); the terminator census is the same shape over a
    different character class."""

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"lang": pa.array([], pa.string()),
             "n_docs": pa.array([], pa.int64()),
             "sum_sents": pa.array([], pa.int64()),
             "max_sents": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        sents = pc.cast(
            pc.count_substring_regex(t["text"], _SENT_TERM_RE), pa.int64()
        )
        src = pa.table({"lang": t["lang"], "s": sents})
        g = src.group_by(["lang"]).aggregate(
            [("s", "count"), ("s", "sum"), ("s", "max")]
        )
        return pa.table(
            {"lang": g["lang"],
             "n_docs": pc.cast(g["s_count"], pa.int64()),
             "sum_sents": pc.cast(g["s_sum"], pa.int64()),
             "max_sents": pc.cast(g["s_max"], pa.int64())}
        )

    parts = (
        _read(sf_dir, "documents", ["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: languages x blocks
    )
    if parts.empty:
        return pa.table(
            {"lang": pa.array([], pa.string()),
             "n_docs": pa.array([], pa.int64()),
             "sum_sents": pa.array([], pa.int64()),
             "max_sents": pa.array([], pa.int64())}
        )
    g = parts.groupby("lang", sort=True).agg(
        n_docs=("n_docs", "sum"),
        sum_sents=("sum_sents", "sum"),
        max_sents=("max_sents", "max"),
    ).reset_index()
    return pa.table(
        {"lang": pa.array(g["lang"], pa.string()),
         "n_docs": pa.array(g["n_docs"].astype("int64")),
         "sum_sents": pa.array(g["sum_sents"].astype("int64")),
         "max_sents": pa.array(g["max_sents"].astype("int64"))}
    )


ORACLES["sentence_stats"] = (
    "SELECT lang, count(*)::BIGINT AS n_docs, "
    "sum(length(regexp_extract_all(text, '[.!?]+')))::BIGINT AS sum_sents, "
    "max(length(regexp_extract_all(text, '[.!?]+')))::BIGINT AS max_sents "
    "FROM documents GROUP BY lang"
)


# ---- percentile_rank_chars: RANK WITHOUT A SORT ---------------------------

def percentile_rank_chars(sf_dir: str) -> ray.data.Dataset:
    """Per-document rank of its length within its language (SQL
    ``rank() OVER (PARTITION BY lang ORDER BY n_chars)``) — computed
    with NO distributed sort: rank(x) = 1 + #(values < x), so pass 1
    folds the corpus to the per-language value histogram (the
    weighted_median_chars exchange, bounded by value cardinality x
    languages), the driver turns it into sorted distinct values +
    EXCLUSIVE prefix counts, ray.put's the arrays once, and pass 2 is a
    pure map that binary-searches each row (sorted-numpy broadcast
    probe, the _common._probe_lookup pattern — never a dict in the
    closure).  The classic window-function plan would range-partition
    and sort every row; this plan ships each row once and the
    histogram once, which is the right trade whenever value cardinality
    << corpus rows (lengths, scores, star ratings...)."""

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"lang": pa.array([], pa.string()),
                 "v": pa.array([], pa.int64()),
                 "c": pa.array([], pa.int64())}
            )
        g = pa.table({"lang": t["lang"], "v": t["n_chars"]}).group_by(
            ["lang", "v"]
        ).aggregate([("v", "count")])
        return pa.table(
            {"lang": g["lang"], "v": g["v"],
             "c": pc.cast(g["v_count"], pa.int64())}
        )

    hist = (
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: value cardinality x languages x blocks
    )
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "lang": pa.array([], pa.string()),
         "n_chars": pa.array([], pa.int64()),
         "rank_in_lang": pa.array([], pa.int64())}
    )
    if hist.empty:
        return ray.data.from_arrow(empty)
    hist = hist.groupby(["lang", "v"], sort=True)["c"].sum().reset_index()
    lut: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for lang, g in hist.groupby("lang", sort=True):
        v = g["v"].to_numpy(dtype=np.int64)          # sorted distinct values
        c = g["c"].to_numpy(dtype=np.int64)
        prefix = np.concatenate(([0], np.cumsum(c)[:-1]))   # exclusive
        lut[lang] = (v, prefix)
    ref = ray.put(lut)

    def rank_batch(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        table = ray.get(ref)
        langs = np.asarray(t["lang"].to_pylist())
        x = t["n_chars"].to_numpy()
        rank = np.empty(len(x), dtype=np.int64)
        for lang in np.unique(langs):        # bounded language count
            m = langs == lang
            v, prefix = table[str(lang)]
            rank[m] = prefix[np.searchsorted(v, x[m], side="left")] + 1
        return pa.table(
            {"doc_id": t["doc_id"], "lang": t["lang"],
             "n_chars": t["n_chars"],
             "rank_in_lang": pa.array(rank, pa.int64())}
        )

    return _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        rank_batch, batch_format="pyarrow"
    )


ORACLES["percentile_rank_chars"] = (
    "SELECT doc_id, lang, n_chars, "
    "rank() OVER (PARTITION BY lang ORDER BY n_chars)::BIGINT "
    "AS rank_in_lang FROM documents"
)


# ---- length_token_contingency: quartile cross-tab -------------------------

def _quartile_bounds(v: np.ndarray, c: np.ndarray) -> tuple[int, int, int]:
    """Lower-quartile boundary values from a sorted value histogram:
    b_q = min v with 4*cum >= q*tot (the weighted_median crossing rule,
    exact — no interpolation, so both engines agree on integers)."""
    cm = np.cumsum(c)
    tot = cm[-1]
    return tuple(
        int(v[np.searchsorted(4 * cm, q * tot, side="left")])
        for q in (1, 2, 3)
    )


def length_token_contingency(sf_dir: str) -> "pa.Table":
    """4x4 contingency table of length-quartile x token-count-quartile —
    the independence check ("is token count just a proxy for length
    here?") a curation pass runs before treating two quality features as
    separate signals.  All-integer output; the chi-square scalar is one
    driver-side formula away but floats would make the hash compare
    order-sensitive, so the table IS the contract.

    Scale shape: pass 1 folds the corpus to TWO value histograms in one
    stream (dim-tagged (dim, v, c) partials; token counts from the same
    RE2 kernel as token_counts), the driver derives exact quartile
    boundaries from each histogram (weighted-median crossing rule —
    never an ntile() whose tie behavior differs cross-engine), and
    pass 2 buckets each row with six integer comparisons and folds to
    4x4 partials in-batch.  Two streaming passes, an exchange bounded
    by value cardinality, 16-row output."""

    def hist2(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"dim": pa.array([], pa.int64()),
             "v": pa.array([], pa.int64()),
             "c": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        x = t["n_chars"].to_numpy()
        y = pc.count_substring_regex(
            pc.fill_null(t["text"], ""), TOKEN_RE
        ).to_numpy().astype(np.int64)
        xv, xc = np.unique(x, return_counts=True)
        yv, yc = np.unique(y, return_counts=True)
        return pa.table(
            {"dim": pa.array(
                np.concatenate([np.zeros(len(xv), np.int64),
                                np.ones(len(yv), np.int64)])),
             "v": pa.array(np.concatenate([xv, yv])),
             "c": pa.array(np.concatenate([xc, yc]).astype(np.int64))}
        )

    hist = (
        _read(sf_dir, "documents", ["n_chars", "text"])
        .map_batches(hist2, batch_format="pyarrow")
        .to_pandas()    # bounded: value cardinality x 2 dims x blocks
    )
    empty = pa.table(
        {"len_q": pa.array([], pa.int64()),
         "tok_q": pa.array([], pa.int64()),
         "n_docs": pa.array([], pa.int64())}
    )
    if hist.empty:
        return empty
    hist = hist.groupby(["dim", "v"], sort=True)["c"].sum().reset_index()
    hx = hist[hist["dim"] == 0]
    hy = hist[hist["dim"] == 1]
    bx = _quartile_bounds(hx["v"].to_numpy(np.int64), hx["c"].to_numpy(np.int64))
    by = _quartile_bounds(hy["v"].to_numpy(np.int64), hy["c"].to_numpy(np.int64))

    def bucket(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return empty
        x = t["n_chars"].to_numpy()
        y = pc.count_substring_regex(
            pc.fill_null(t["text"], ""), TOKEN_RE
        ).to_numpy().astype(np.int64)
        lq = (x > bx[0]).astype(np.int64) + (x > bx[1]) + (x > bx[2])
        tq = (y > by[0]).astype(np.int64) + (y > by[1]) + (y > by[2])
        fused = lq * 4 + tq
        cnt = np.bincount(fused, minlength=16)
        return pa.table(
            {"len_q": pa.array(np.arange(16, dtype=np.int64) // 4),
             "tok_q": pa.array(np.arange(16, dtype=np.int64) % 4),
             "n_docs": pa.array(cnt.astype(np.int64))}
        )

    parts = (
        _read(sf_dir, "documents", ["n_chars", "text"])
        .map_batches(bucket, batch_format="pyarrow")
        .to_pandas()    # bounded: 16 rows x blocks
    )
    g = parts.groupby(["len_q", "tok_q"], sort=True)["n_docs"].sum().reset_index()
    g = g[g["n_docs"] > 0]
    return pa.table(
        {"len_q": pa.array(g["len_q"].astype("int64")),
         "tok_q": pa.array(g["tok_q"].astype("int64")),
         "n_docs": pa.array(g["n_docs"].astype("int64"))}
    )


ORACLES["length_token_contingency"] = (
    f"WITH f AS (SELECT n_chars AS x, "
    f"len(regexp_extract_all(text, '{TOKEN_RE}'))::BIGINT AS y "
    "FROM documents), "
    "hx AS (SELECT x AS v, count(*)::BIGINT AS c FROM f GROUP BY 1), "
    "cx AS (SELECT v, sum(c) OVER (ORDER BY v)::BIGINT AS cm, "
    "sum(c) OVER ()::BIGINT AS tot FROM hx), "
    "bx AS (SELECT min(CASE WHEN 4*cm >= 1*tot THEN v END) AS b1, "
    "min(CASE WHEN 4*cm >= 2*tot THEN v END) AS b2, "
    "min(CASE WHEN 4*cm >= 3*tot THEN v END) AS b3 FROM cx), "
    "hy AS (SELECT y AS v, count(*)::BIGINT AS c FROM f GROUP BY 1), "
    "cy AS (SELECT v, sum(c) OVER (ORDER BY v)::BIGINT AS cm, "
    "sum(c) OVER ()::BIGINT AS tot FROM hy), "
    "bq AS (SELECT min(CASE WHEN 4*cm >= 1*tot THEN v END) AS b1, "
    "min(CASE WHEN 4*cm >= 2*tot THEN v END) AS b2, "
    "min(CASE WHEN 4*cm >= 3*tot THEN v END) AS b3 FROM cy) "
    "SELECT ((f.x > bx.b1)::INT + (f.x > bx.b2)::INT "
    "+ (f.x > bx.b3)::INT)::BIGINT AS len_q, "
    "((f.y > bq.b1)::INT + (f.y > bq.b2)::INT "
    "+ (f.y > bq.b3)::INT)::BIGINT AS tok_q, "
    "count(*)::BIGINT AS n_docs "
    "FROM f, bx, bq GROUP BY 1, 2"
)


# ---- sources_per_lang: deterministic list aggregation ----------------------

def sources_per_lang(sf_dir: str) -> "pa.Table":
    """Per-language roster of distinct sources as ONE deterministic
    sorted CSV string (the collect-list aggregate; a string, not a list
    column, so the cross-engine comparison is order-proof by
    construction — DuckDB's ``string_agg(... ORDER BY ...)`` pins the
    same order).  Scale shape: per-batch pyarrow distinct on
    (lang, source) — the only exchange is the distinct PAIR set, bounded
    by languages x sources regardless of corpus rows — then a driver
    fold builds the strings."""

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"lang": pa.array([], pa.string()),
                 "source": pa.array([], pa.string())}
            )
        return pa.table({"lang": t["lang"], "source": t["source"]}).group_by(
            ["lang", "source"]
        ).aggregate([])

    pairs = (
        _read(sf_dir, "documents", ["lang", "source"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: languages x sources x blocks
    )
    empty = pa.table(
        {"lang": pa.array([], pa.string()),
         "n_sources": pa.array([], pa.int64()),
         "sources_csv": pa.array([], pa.string())}
    )
    if pairs.empty:
        return empty
    pairs = pairs.drop_duplicates().sort_values(["lang", "source"])
    langs, counts, csvs = [], [], []
    for lang, g in pairs.groupby("lang", sort=True):
        langs.append(lang)
        counts.append(len(g))
        csvs.append(",".join(g["source"].tolist()))
    return pa.table(
        {"lang": pa.array(langs, pa.string()),
         "n_sources": pa.array(counts, pa.int64()),
         "sources_csv": pa.array(csvs, pa.string())}
    )


ORACLES["sources_per_lang"] = (
    "WITH d AS (SELECT DISTINCT lang, source FROM documents) "
    "SELECT lang, count(*)::BIGINT AS n_sources, "
    "string_agg(source, ',' ORDER BY source) AS sources_csv "
    "FROM d GROUP BY lang"
)


# ---- length_gini_by_source: rank-weighted functional from a histogram -----

def length_gini_by_source(sf_dir: str) -> "pa.Table":
    """Per-source Gini coefficient of document length — the inequality
    screen ("is this source one mega-doc and noise?") curation applies
    before trusting per-source quotas.  Gini needs the RANK-weighted sum
    Σ i·x over ascending lengths, which looks like it demands a
    per-group sort — but over the (source, value, count) histogram each
    distinct value occupies a CONTIGUOUS rank run, so
    Σ i·x = Σ_v v · c_v·(2·p_v + c_v + 1)/2  (p_v = items before v),
    all exact integers.  The exchange is therefore the bounded value
    histogram (the weighted_median pattern), never sorted rows, and the
    single float division at the end is the only non-integer step —
    bit-identical to the SQL's HUGEINT→DOUBLE cast."""

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"source": pa.array([], pa.string()),
                 "v": pa.array([], pa.int64()),
                 "c": pa.array([], pa.int64())}
            )
        g = pa.table(
            {"source": t["source"], "v": t["n_chars"]}
        ).group_by(["source", "v"]).aggregate([("v", "count")])
        return pa.table(
            {"source": g["source"], "v": g["v"],
             "c": pc.cast(g["v_count"], pa.int64())}
        )

    hist = (
        _read(sf_dir, "documents", ["source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: value cardinality x sources x blocks
    )
    empty = pa.table(
        {"source": pa.array([], pa.string()),
         "n_docs": pa.array([], pa.int64()),
         "gini": pa.array([], pa.float64())}
    )
    if hist.empty:
        return empty
    hist = hist.groupby(["source", "v"], sort=True)["c"].sum().reset_index()
    srcs, ns, ginis = [], [], []
    for src, g in hist.groupby("source", sort=True):
        v = [int(x) for x in g["v"]]
        c = [int(x) for x in g["c"]]
        n = sum(c)
        sx = sum(vi * ci for vi, ci in zip(v, c))
        six, p = 0, 0
        for vi, ci in zip(v, c):        # bounded: distinct values
            six += vi * (ci * (2 * p + ci + 1) // 2)
            p += ci
        srcs.append(src)
        ns.append(n)
        ginis.append(
            0.0 if sx == 0 else float(2 * six - (n + 1) * sx) / float(n * sx)
        )
    return pa.table(
        {"source": pa.array(srcs, pa.string()),
         "n_docs": pa.array(ns, pa.int64()),
         "gini": pa.array(ginis, pa.float64())}
    )


ORACLES["length_gini_by_source"] = (
    "WITH r AS (SELECT source, n_chars AS x, "
    "row_number() OVER (PARTITION BY source ORDER BY n_chars) AS i "
    "FROM documents), "
    "m AS (SELECT source, count(*)::BIGINT AS n, sum(x)::BIGINT AS sx, "
    "sum(i*x)::BIGINT AS six FROM r GROUP BY 1) "
    "SELECT source, n AS n_docs, "
    "CASE WHEN sx = 0 THEN 0.0 ELSE "
    "CAST(2*six - (n+1)*sx AS DOUBLE) / CAST(n*sx AS DOUBLE) END AS gini "
    "FROM m"
)


# ---- spearman_length_tokens: rank correlation WITHOUT a sort ---------------

def spearman_length_tokens(sf_dir: str) -> "pa.Table":
    """Spearman rank correlation between document length and token
    count — the monotone-association screen (Pearson sees only linear;
    curation wants "does token count track length AT ALL").  Ranks are
    tie-AVERAGED, and the whole statistic is computed with NO sort of
    rows: pass 1 folds both value histograms (dim-tagged, the
    length_token_contingency stream), the driver converts each to a
    DOUBLED-average-rank lookup (2·r̄ = 2·#less + #equal + 1 — an exact
    integer, and Spearman is scale-invariant so doubling cancels),
    pass 2 maps every row to its (2rx, 2ry) pair via two broadcast
    searchsorteds and emits int64 moment partials, folded in Python
    ints (DuckDB HUGEINT parity) with one float conversion at the end."""
    import math

    def hist2(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"dim": pa.array([], pa.int64()),
             "v": pa.array([], pa.int64()),
             "c": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        x = t["n_chars"].to_numpy()
        y = pc.count_substring_regex(
            pc.fill_null(t["text"], ""), TOKEN_RE
        ).to_numpy().astype(np.int64)
        xv, xc = np.unique(x, return_counts=True)
        yv, yc = np.unique(y, return_counts=True)
        return pa.table(
            {"dim": pa.array(
                np.concatenate([np.zeros(len(xv), np.int64),
                                np.ones(len(yv), np.int64)])),
             "v": pa.array(np.concatenate([xv, yv])),
             "c": pa.array(np.concatenate([xc, yc]).astype(np.int64))}
        )

    hist = (
        _read(sf_dir, "documents", ["n_chars", "text"])
        .map_batches(hist2, batch_format="pyarrow")
        .to_pandas()    # bounded: value cardinality x 2 dims x blocks
    )
    empty = pa.table(
        {"n_docs": pa.array([], pa.int64()),
         "spearman": pa.array([], pa.float64())}
    )
    if hist.empty:
        return empty
    hist = hist.groupby(["dim", "v"], sort=True)["c"].sum().reset_index()

    def rank_lut(d: int):
        h = hist[hist["dim"] == d]
        v = h["v"].to_numpy(np.int64)
        c = h["c"].to_numpy(np.int64)
        less = np.concatenate(([0], np.cumsum(c)[:-1]))
        return v, 2 * less + c + 1          # doubled average rank

    xv, xr = rank_lut(0)
    yv, yr = rank_lut(1)
    ref = ray.put((xv, xr, yv, yr))

    def moments(t: pa.Table) -> pa.Table:
        empty_m = pa.table(
            {k: pa.array([], pa.int64())
             for k in ("n", "sx", "sy", "sxx", "syy", "sxy")}
        )
        if len(t) == 0:
            return empty_m
        xv_, xr_, yv_, yr_ = ray.get(ref)
        x = t["n_chars"].to_numpy()
        y = pc.count_substring_regex(
            pc.fill_null(t["text"], ""), TOKEN_RE
        ).to_numpy().astype(np.int64)
        rx = xr_[np.searchsorted(xv_, x)]
        ry = yr_[np.searchsorted(yv_, y)]
        return pa.table(
            {"n": pa.array([len(x)], pa.int64()),
             "sx": pa.array([int(rx.sum())], pa.int64()),
             "sy": pa.array([int(ry.sum())], pa.int64()),
             "sxx": pa.array([int((rx * rx).sum())], pa.int64()),
             "syy": pa.array([int((ry * ry).sum())], pa.int64()),
             "sxy": pa.array([int((rx * ry).sum())], pa.int64())}
        )

    parts = (
        _read(sf_dir, "documents", ["n_chars", "text"])
        .map_batches(moments, batch_format="pyarrow")
        .to_pandas()    # bounded: 6 ints x blocks
    )
    n = int(parts["n"].sum())
    if n == 0:
        return empty
    sx = sum(int(v) for v in parts["sx"])
    sy = sum(int(v) for v in parts["sy"])
    sxx = sum(int(v) for v in parts["sxx"])
    syy = sum(int(v) for v in parts["syy"])
    sxy = sum(int(v) for v in parts["sxy"])
    den_x = n * sxx - sx * sx
    den_y = n * syy - sy * sy
    if den_x == 0 or den_y == 0:
        rho = 0.0
    else:
        rho = float(n * sxy - sx * sy) / (
            math.sqrt(float(den_x)) * math.sqrt(float(den_y))
        )
    return pa.table(
        {"n_docs": pa.array([n], pa.int64()),
         "spearman": pa.array([rho], pa.float64())}
    )


ORACLES["spearman_length_tokens"] = (
    f"WITH f AS (SELECT n_chars AS x, "
    f"len(regexp_extract_all(text, '{TOKEN_RE}'))::BIGINT AS y "
    "FROM documents), "
    "r AS (SELECT "
    "(2*(rank() OVER (ORDER BY x) - 1) "
    "+ count(*) OVER (PARTITION BY x) + 1)::BIGINT AS rx, "
    "(2*(rank() OVER (ORDER BY y) - 1) "
    "+ count(*) OVER (PARTITION BY y) + 1)::BIGINT AS ry FROM f), "
    "m AS (SELECT count(*)::BIGINT AS n, sum(rx)::BIGINT AS sx, "
    "sum(ry)::BIGINT AS sy, sum(rx*rx)::BIGINT AS sxx, "
    "sum(ry*ry)::BIGINT AS syy, sum(rx*ry)::BIGINT AS sxy FROM r) "
    "SELECT n AS n_docs, "
    "CASE WHEN n*sxx - sx*sx = 0 OR n*syy - sy*sy = 0 THEN 0.0 "
    "ELSE CAST(n*sxy - sx*sy AS DOUBLE) / "
    "(sqrt(CAST(n*sxx - sx*sx AS DOUBLE)) * "
    "sqrt(CAST(n*syy - sy*sy AS DOUBLE))) END AS spearman FROM m"
)


# ---- source_token_quota: largest-remainder budget apportionment ------------

QUOTA_TOKEN_BUDGET = 1_000_000


def source_token_quota(sf_dir: str) -> "pa.Table":
    """Proportional token-budget apportionment across sources with
    LARGEST-REMAINDER rounding — the exact integer arithmetic of corpus
    mixing: every source gets floor(B·t/T) tokens of the budget, and the
    B − Σfloor leftover goes one token at a time to the largest
    remainders (B·t mod T, ties to the lexicographically first source),
    so the quotas always sum EXACTLY to B and are a pure function of the
    token census.  One bounded per-source token-sum exchange (the
    token_counts RE2 kernel + in-batch combiner); the apportionment is
    driver arithmetic in Python ints (DuckDB HUGEINT parity for B·t)."""

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"source": pa.array([], pa.string()),
                 "tok": pa.array([], pa.int64())}
            )
        n = pc.cast(
            pc.count_substring_regex(pc.fill_null(t["text"], ""), TOKEN_RE),
            pa.int64(),
        )
        g = pa.table({"source": t["source"], "tok": n}).group_by(
            ["source"]
        ).aggregate([("tok", "sum")])
        return pa.table(
            {"source": g["source"],
             "tok": pc.cast(g["tok_sum"], pa.int64())}
        )

    sums = (
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: sources x blocks
    )
    empty = pa.table(
        {"source": pa.array([], pa.string()),
         "n_tokens": pa.array([], pa.int64()),
         "quota": pa.array([], pa.int64())}
    )
    if sums.empty:
        return empty
    g = sums.groupby("source", sort=True)["tok"].sum()
    srcs = list(g.index)
    toks = [int(x) for x in g]
    T = sum(toks)
    if T == 0:
        return empty
    B = QUOTA_TOKEN_BUDGET
    floors = [B * t // T for t in toks]
    rems = [B * t % T for t in toks]
    leftover = B - sum(floors)
    # rank remainders: largest first, ties to lexicographically first src
    order = sorted(range(len(srcs)), key=lambda i: (-rems[i], srcs[i]))
    quota = list(floors)
    for i in order[:leftover]:
        quota[i] += 1
    return pa.table(
        {"source": pa.array(srcs, pa.string()),
         "n_tokens": pa.array(toks, pa.int64()),
         "quota": pa.array(quota, pa.int64())}
    )


ORACLES["source_token_quota"] = (
    f"WITH s AS (SELECT source, "
    f"sum(len(regexp_extract_all(text, '{TOKEN_RE}')))::BIGINT AS t "
    "FROM documents GROUP BY 1), "
    "tot AS (SELECT sum(t)::BIGINT AS tt FROM s), "
    f"q AS (SELECT source, t, ({QUOTA_TOKEN_BUDGET}::HUGEINT * t // tt)::BIGINT AS fl, "
    f"({QUOTA_TOKEN_BUDGET}::HUGEINT * t % tt)::BIGINT AS rem, "
    "row_number() OVER (ORDER BY "
    f"{QUOTA_TOKEN_BUDGET}::HUGEINT * t % tt DESC, source) AS rk "
    "FROM s, tot), "
    f"lo AS (SELECT ({QUOTA_TOKEN_BUDGET} - sum(fl))::BIGINT AS leftover FROM q) "
    "SELECT source, t AS n_tokens, "
    "(fl + CASE WHEN rk <= lo.leftover THEN 1 ELSE 0 END)::BIGINT AS quota "
    "FROM q, lo"
)


# ---- vocab_growth: Heaps-law curve via min-first-occurrence ----------------

def vocab_growth(sf_dir: str) -> "pa.Table":
    """Vocabulary size at the 25/50/75/100% corpus prefixes (doc_id
    order) — the Heaps'-law growth curve that decides whether a corpus
    is still yielding new types or has saturated.  The naive plan
    rescans each prefix; this one needs a SINGLE pass: a token counts
    toward prefix k iff its FIRST occurrence (min doc_id) lands below k,
    so the per-token min-doc_id fold (in-batch pyarrow min combiner +
    prefix-bucket exact min, the dedup_exact reduce) followed by four
    threshold counts per bucket answers every prefix at once.  Exchange:
    one row per distinct (batch, token), then 4 ints per bucket."""
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    ks = [(n_docs * i) // 4 for i in (1, 2, 3, 4)]
    n_buckets = 32

    def tok_min(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"tkn": pa.array([], pa.string()),
             "fd": pa.array([], pa.int64()),
             "bk": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        import pandas as pd

        # vectorized tokenize (the top_tokens idiom): split on the token
        # complement, flatten, repeat doc_ids by list length
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")),
            pattern="[^a-z0-9_]+",
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy()
        flat = pc.list_flatten(toks)
        docrep = np.repeat(t["doc_id"].to_numpy(), lens)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        if not keep.any():
            return empty
        df = pd.DataFrame(
            {"tkn": flat.to_pandas().to_numpy()[keep], "fd": docrep[keep]}
        )
        part = df.groupby("tkn", sort=False)["fd"].min().reset_index()
        # deterministic cross-process token hash (NEVER Python hash():
        # PYTHONHASHSEED differs per worker and would split a token
        # across buckets, inflating the distinct count)
        h = pd.util.hash_array(part["tkn"].to_numpy(object))
        bk = (h >> np.uint64(33)) % np.uint64(n_buckets)
        return pa.table(
            {"tkn": pa.array(part["tkn"], pa.string()),
             "fd": pa.array(part["fd"].astype("int64")),
             "bk": pa.array(bk.astype(np.int64), pa.int64())}
        )

    def bucket_counts(g) -> "pd.DataFrame":
        import pandas as pd

        if g.empty:
            return pd.DataFrame(
                {"prefix_docs": pd.array([], dtype="int64"),
                 "vocab": pd.array([], dtype="int64")}
            )
        fd = g.groupby("tkn", sort=False)["fd"].min().to_numpy(np.int64)
        return pd.DataFrame(
            {"prefix_docs": np.asarray(ks, dtype=np.int64),
             "vocab": np.asarray(
                 [int((fd < k).sum()) for k in ks], dtype=np.int64)}
        )

    folded = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(tok_min, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(bucket_counts, batch_format="pandas")
        .to_pandas()    # bounded: 4 x buckets
    )
    empty = pa.table(
        {"prefix_docs": pa.array([], pa.int64()),
         "vocab": pa.array([], pa.int64())}
    )
    if folded.empty:
        return empty
    g = folded.groupby("prefix_docs", sort=True)["vocab"].sum().reset_index()
    return pa.table(
        {"prefix_docs": pa.array(g["prefix_docs"].astype("int64")),
         "vocab": pa.array(g["vocab"].astype("int64"))}
    )


ORACLES["vocab_growth"] = (
    "WITH m AS (SELECT count(*)::BIGINT AS n FROM documents), "
    "tok AS (SELECT doc_id, "
    f"unnest(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}')) AS tkn "
    "FROM documents), "
    "f AS (SELECT tkn, min(doc_id) AS first_doc FROM tok GROUP BY 1), "
    "q AS (SELECT unnest([1, 2, 3, 4]) AS i) "
    "SELECT (m.n * q.i) // 4 AS prefix_docs, "
    "sum(CASE WHEN f.first_doc < (m.n * q.i) // 4 THEN 1 ELSE 0 END)"
    "::BIGINT AS vocab FROM f, q, m GROUP BY 1"
)


# ---- hapax_by_source: type-frequency spectrum head -------------------------

def hapax_by_source(sf_dir: str) -> "pa.Table":
    """Per-source hapax legomena census (how many vocabulary types occur
    exactly once, vs the vocabulary size) — the head of the type-
    frequency spectrum; a high hapax share flags OCR noise / random
    strings, a low one flags boilerplate (vocab_growth's saturation
    complement).  Per-batch (source, token, count) partials via the
    vectorized split idiom, a deterministic token-hash bucket exchange
    bounded by vocabulary x sources (never token occurrences), and each
    bucket folds its exact per-(source, token) totals to two ints per
    source."""
    n_buckets = 32

    def tok_counts(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"source": pa.array([], pa.string()),
             "tkn": pa.array([], pa.string()),
             "c": pa.array([], pa.int64()),
             "bk": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        import pandas as pd

        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")),
            pattern="[^a-z0-9_]+",
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy()
        flat = pc.list_flatten(toks)
        srcrep = np.repeat(
            np.asarray(t["source"].to_pylist(), dtype=object), lens
        )
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        if not keep.any():
            return empty
        df = pd.DataFrame(
            {"source": srcrep[keep], "tkn": flat.to_pandas().to_numpy()[keep]}
        )
        part = (
            df.groupby(["source", "tkn"], sort=False)
            .size()
            .reset_index(name="c")
        )
        h = pd.util.hash_array(part["tkn"].to_numpy(object))
        bk = (h >> np.uint64(33)) % np.uint64(n_buckets)
        return pa.table(
            {"source": pa.array(part["source"], pa.string()),
             "tkn": pa.array(part["tkn"], pa.string()),
             "c": pa.array(part["c"].astype("int64")),
             "bk": pa.array(bk.astype(np.int64), pa.int64())}
        )

    def bucket_fold(g) -> "pd.DataFrame":
        import pandas as pd

        if g.empty:
            return pd.DataFrame(
                {"source": pd.array([], dtype="object"),
                 "vocab": pd.array([], dtype="int64"),
                 "hapax": pd.array([], dtype="int64")}
            )
        tot = g.groupby(["source", "tkn"], sort=False)["c"].sum().reset_index()
        out = tot.groupby("source", sort=False).agg(
            vocab=("c", "size"),
            hapax=("c", lambda s: int((s == 1).sum())),
        ).reset_index()
        out["vocab"] = out["vocab"].astype("int64")
        out["hapax"] = out["hapax"].astype("int64")
        return out

    folded = (
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(tok_counts, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(bucket_fold, batch_format="pandas")
        .to_pandas()    # bounded: sources x buckets
    )
    empty = pa.table(
        {"source": pa.array([], pa.string()),
         "vocab": pa.array([], pa.int64()),
         "hapax": pa.array([], pa.int64())}
    )
    if folded.empty:
        return empty
    g = folded.groupby("source", sort=True).agg(
        vocab=("vocab", "sum"), hapax=("hapax", "sum")
    ).reset_index()
    return pa.table(
        {"source": pa.array(g["source"], pa.string()),
         "vocab": pa.array(g["vocab"].astype("int64")),
         "hapax": pa.array(g["hapax"].astype("int64"))}
    )


ORACLES["hapax_by_source"] = (
    "WITH tok AS (SELECT source, "
    f"unnest(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}')) AS tkn "
    "FROM documents), "
    "f AS (SELECT source, tkn, count(*)::BIGINT AS c FROM tok "
    "GROUP BY 1, 2) "
    "SELECT source, count(*)::BIGINT AS vocab, "
    "sum(CASE WHEN c = 1 THEN 1 ELSE 0 END)::BIGINT AS hapax "
    "FROM f GROUP BY source"
)


# ---- small_group_census: k-anonymity screen --------------------------------

K_ANON_THRESHOLD = 5


def small_group_census(sf_dir: str) -> "pa.Table":
    """k-anonymity audit over the (lang, length-bucket) quasi-identifier:
    how many equivalence groups have fewer than k=5 members, and how
    many rows sit in them — the re-identification screen a corpus
    release runs before publishing per-group statistics.  Per-batch
    (lang, bucket, count) partials (exchange bounded by languages x
    bucket domain), exact driver fold, three integers out."""

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"lang": pa.array([], pa.string()),
                 "b": pa.array([], pa.int64()),
                 "c": pa.array([], pa.int64())}
            )
        src = pa.table(
            {"lang": t["lang"],
             "b": pa.array(t["n_chars"].to_numpy() // 100, pa.int64())}
        )
        g = src.group_by(["lang", "b"]).aggregate([("b", "count")])
        return pa.table(
            {"lang": g["lang"], "b": g["b"],
             "c": pc.cast(g["b_count"], pa.int64())}
        )

    hist = (
        _read(sf_dir, "documents", ["lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: languages x bucket domain x blocks
    )
    if hist.empty:
        return pa.table(
            {"n_groups": pa.array([0], pa.int64()),
             "n_small_groups": pa.array([0], pa.int64()),
             "rows_at_risk": pa.array([0], pa.int64())}
        )
    g = hist.groupby(["lang", "b"], sort=False)["c"].sum()
    sz = g.to_numpy(np.int64)
    small = sz < K_ANON_THRESHOLD
    return pa.table(
        {"n_groups": pa.array([int(len(sz))], pa.int64()),
         "n_small_groups": pa.array([int(small.sum())], pa.int64()),
         "rows_at_risk": pa.array([int(sz[small].sum())], pa.int64())}
    )


ORACLES["small_group_census"] = (
    "WITH g AS (SELECT lang, n_chars // 100 AS b, count(*)::BIGINT AS sz "
    "FROM documents GROUP BY 1, 2) "
    "SELECT count(*)::BIGINT AS n_groups, "
    f"sum(CASE WHEN sz < {K_ANON_THRESHOLD} THEN 1 ELSE 0 END)::BIGINT "
    "AS n_small_groups, "
    f"sum(CASE WHEN sz < {K_ANON_THRESHOLD} THEN sz ELSE 0 END)::BIGINT "
    "AS rows_at_risk FROM g"
)


# ---- source_token_divergence (domain-shift screen) -----------------------

def source_token_divergence(sf_dir: str) -> "pa.Table":
    """Per-source total-variation distance between the source's token
    distribution and the whole-corpus mixture — the domain-shift screen
    curation runs before setting per-source mixing weights (a source far
    from the mixture gets re-weighted or routed to its own bucket; the
    DSIR/DoReMi-family signal with an exact, oracle-checkable statistic).
    TV(s) = ½·Σ_t |p_s(t) − p(t)| is computed EXACTLY: over integer
    counts, Σ_t |N·c_st − N_s·C_t| is an exact integer (a token absent
    from the source contributes N_s·C_t), folded in Python ints (DuckDB
    HUGEINT parity), and the statistic is ONE float division of two
    exact integers — bit-identical to the SQL's HUGEINT→DOUBLE casts.
    The exchange is the (source, token, count) histogram — bounded by
    vocabulary × sources, never token occurrences; an unbounded live
    vocabulary would move the fold into the token-hash bucket exchange
    (the hapax_by_source pattern: C_t is bucket-local because buckets
    key on the token) with hi/lo-split int partials."""

    def tok_counts(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"source": pa.array([], pa.string()),
             "tkn": pa.array([], pa.string()),
             "c": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        import pandas as pd

        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")),
            pattern="[^a-z0-9_]+",
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy()
        flat = pc.list_flatten(toks)
        srcrep = np.repeat(
            np.asarray(t["source"].to_pylist(), dtype=object), lens
        )
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        if not keep.any():
            return empty
        df = pd.DataFrame(
            {"source": srcrep[keep], "tkn": flat.to_pandas().to_numpy()[keep]}
        )
        part = (
            df.groupby(["source", "tkn"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {"source": pa.array(part["source"], pa.string()),
             "tkn": pa.array(part["tkn"], pa.string()),
             "c": pa.array(part["c"].astype("int64"))}
        )

    hist = (
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(tok_counts, batch_format="pyarrow")
        .to_pandas()    # bounded: vocabulary x sources x blocks
    )
    empty = pa.table(
        {"source": pa.array([], pa.string()),
         "n_tokens": pa.array([], pa.int64()),
         "tv_divergence": pa.array([], pa.float64())}
    )
    if hist.empty:
        return empty
    hist = hist.groupby(["source", "tkn"], sort=True)["c"].sum().reset_index()
    ct = {t: int(c) for t, c in hist.groupby("tkn")["c"].sum().items()}
    big_n = sum(ct.values())
    srcs, ns_out, tvs = [], [], []
    for src, g in hist.groupby("source", sort=True):
        cs = dict(zip(g["tkn"], g["c"]))
        ns = int(g["c"].sum())
        d = 0
        for t, c_t in ct.items():       # bounded: vocabulary
            d += abs(big_n * int(cs.get(t, 0)) - ns * c_t)
        srcs.append(src)
        ns_out.append(ns)
        tvs.append(float(d) / float(2 * ns * big_n))
    return pa.table(
        {"source": pa.array(srcs, pa.string()),
         "n_tokens": pa.array(ns_out, pa.int64()),
         "tv_divergence": pa.array(tvs, pa.float64())}
    )


ORACLES["source_token_divergence"] = (
    f"WITH toks AS (SELECT source, "
    f"unnest(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}')) AS token "
    "FROM documents), "
    "c AS (SELECT source, token, count(*)::BIGINT AS c "
    "FROM toks GROUP BY 1, 2), "
    "s AS (SELECT source, sum(c)::BIGINT AS ns FROM c GROUP BY 1), "
    "g AS (SELECT token, sum(c)::BIGINT AS ct FROM c GROUP BY 1), "
    "n AS (SELECT sum(c)::BIGINT AS n FROM c) "
    "SELECT s.source, s.ns AS n_tokens, "
    "CAST(sum(abs(n.n::HUGEINT * coalesce(c.c, 0) - s.ns::HUGEINT * g.ct)) "
    "AS DOUBLE) / CAST(2 * s.ns::HUGEINT * n.n AS DOUBLE) AS tv_divergence "
    "FROM s CROSS JOIN g CROSS JOIN n "
    "LEFT JOIN c ON c.source = s.source AND c.token = g.token "
    "GROUP BY s.source, s.ns, n.n"
)


# ---- source_simpson_diversity: token-concentration screen -----------------


def source_simpson_diversity(sf_dir: str) -> "pa.Table":
    """Per-source Simpson concentration of the token distribution — the
    probability two tokens drawn from the source are the SAME type
    (boilerplate / template spam reads high; diverse prose reads low) —
    the complement view to hapax_by_source's type-spectrum head.  Kept
    oracle-exact as integers: numerator Σ_t c_t(c_t−1) and the token
    total N travel as int64 (never the 100 TB-overflowing N(N−1)
    product), with ONE final float division (sentinel −1.0 when N < 2).
    Exchange shape: per-batch (source, token, count) partials, then the
    token-hash bucket fold (each token lands in exactly one bucket, so
    Σ c(c−1) over exact global per-token counts is bucket-additive) —
    bounded by vocabulary × sources, never token occurrences."""
    n_buckets = 32

    def tok_counts(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"source": pa.array([], pa.string()),
             "tkn": pa.array([], pa.string()),
             "c": pa.array([], pa.int64()),
             "bk": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        import pandas as pd

        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")),
            pattern="[^a-z0-9_]+",
        )
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy()
        flat = pc.list_flatten(toks)
        srcrep = np.repeat(
            np.asarray(t["source"].to_pylist(), dtype=object), lens
        )
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        if not keep.any():
            return empty
        df = pd.DataFrame(
            {"source": srcrep[keep], "tkn": flat.to_pandas().to_numpy()[keep]}
        )
        part = (
            df.groupby(["source", "tkn"], sort=False)
            .size()
            .reset_index(name="c")
        )
        h = pd.util.hash_array(part["tkn"].to_numpy(object))
        bk = (h >> np.uint64(33)) % np.uint64(n_buckets)
        return pa.table(
            {"source": pa.array(part["source"], pa.string()),
             "tkn": pa.array(part["tkn"], pa.string()),
             "c": pa.array(part["c"].astype("int64")),
             "bk": pa.array(bk.astype(np.int64), pa.int64())}
        )

    def bucket_fold(g) -> "pd.DataFrame":
        import pandas as pd

        if g.empty:
            return pd.DataFrame(
                {"source": pd.array([], dtype="object"),
                 "n_part": pd.array([], dtype="int64"),
                 "pairs_part": pd.array([], dtype="int64")}
            )
        tot = g.groupby(["source", "tkn"], sort=False)["c"].sum().reset_index()
        c = tot["c"].to_numpy().astype(np.int64)
        tot["pairs"] = c * (c - 1)
        out = tot.groupby("source", sort=False).agg(
            n_part=("c", "sum"), pairs_part=("pairs", "sum")
        ).reset_index()
        out["n_part"] = out["n_part"].astype("int64")
        out["pairs_part"] = out["pairs_part"].astype("int64")
        return out

    folded = (
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(tok_counts, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(bucket_fold, batch_format="pandas")
        .to_pandas()    # bounded: sources x buckets
    )
    empty = pa.table(
        {"source": pa.array([], pa.string()),
         "n_tokens": pa.array([], pa.int64()),
         "pairs_same": pa.array([], pa.int64()),
         "simpson": pa.array([], pa.float64())}
    )
    if folded.empty:
        return empty
    g = folded.groupby("source", sort=True).agg(
        n_tokens=("n_part", "sum"), pairs_same=("pairs_part", "sum")
    ).reset_index()
    n = g["n_tokens"].to_numpy().astype(np.int64)
    pairs = g["pairs_same"].to_numpy().astype(np.int64)
    den = n.astype(np.float64) * (n - 1).astype(np.float64)
    simpson = np.full(len(n), -1.0)
    ok = n >= 2
    simpson[ok] = pairs[ok].astype(np.float64) / den[ok]
    return pa.table(
        {"source": pa.array(g["source"], pa.string()),
         "n_tokens": pa.array(n, pa.int64()),
         "pairs_same": pa.array(pairs, pa.int64()),
         "simpson": pa.array(simpson, pa.float64())}
    )


ORACLES["source_simpson_diversity"] = (
    "WITH tok AS (SELECT source, "
    f"unnest(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}')) AS tkn "
    "FROM documents), "
    "f AS (SELECT source, tkn, count(*)::BIGINT AS c FROM tok GROUP BY 1, 2), "
    "g AS (SELECT source, sum(c)::BIGINT AS n_tokens, "
    "sum(c * (c - 1))::BIGINT AS pairs_same FROM f GROUP BY 1) "
    "SELECT source, n_tokens, pairs_same, "
    "CASE WHEN n_tokens >= 2 THEN CAST(pairs_same AS DOUBLE) / "
    "(CAST(n_tokens AS DOUBLE) * CAST(n_tokens - 1 AS DOUBLE)) "
    "ELSE -1.0 END AS simpson "
    "FROM g"
)


# ---- cm_sketch_tokens: count-min point-query estimates vs exact -------------

CM_ROWS = 4
CM_WIDTH = 256
CM_AUDIT_TOP = 10


def _cm_bucket(r: int, token: str) -> int:
    """Count-min bucket: the first two hex digits of md5("r:token") —
    DuckDB's md5() mirrors hashlib bit-for-bit, so the sketch is
    replayable in SQL."""
    import hashlib

    h = hashlib.md5(f"{r}:{token}".encode()).hexdigest()
    return int(h[:2], 16)


def cm_sketch_tokens(sf_dir: str) -> "pa.Table":
    """COUNT-MIN SKETCH point-query audit: build a 4×256 count-min
    sketch over the corpus token counts and report, for the top-10
    tokens, the exact count next to the sketch estimate (min over the 4
    hashed cells) and the over-estimation ratio — the frequency
    point-query sketch next to heavy hitters (F∞), reported as a
    sketch-vs-exact audit.  CM never underestimates (every cell is ≥ the
    token's true count), so ``over_ratio ≥ 1.0`` is an engine-checkable
    invariant, and with deterministic md5 bucketing the whole sketch is
    exact-replayable: every output value hash-matches the SQL mirror.

    Scale shape: token counts ride the shared wordcount combiner
    (vocabulary-bounded groupby, materialized once — the same bound the
    groupby itself pays); sketch cells are per-batch (row, bucket, n)
    partials over the AGGREGATED vocab stream (md5 per vocab row ×4,
    never per corpus row), gathered at 4×256 cells; the audit set is a
    10-row sort+limit.

    Reference anchor: A5's counters (SURVEY.md §2.6) — the bounded-
    memory approximate counter a 100 TB ingest dashboard actually
    keeps, shipped with its own error audit."""
    from ray.data.aggregate import Sum

    cnt = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(_token_partial_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("partial", alias_name="n"))
        .materialize()  # vocabulary-bounded; read twice below
    )
    empty = pa.table(
        {"token": pa.array([], pa.string()),
         "n_exact": pa.array([], pa.int64()),
         "cm_est": pa.array([], pa.int64()),
         "over_ratio": pa.array([], pa.float64())}
    )

    def cell_partial(t: pa.Table) -> pa.Table:
        out_r, out_b, out_n = [], [], []
        if len(t) and "token" in t.column_names:
            toks = t["token"].to_numpy(zero_copy_only=False)
            ns = t["n"].to_numpy()
            for r in range(CM_ROWS):        # vocab-bounded, not rows
                agg: dict[int, int] = {}
                for tok, nn in zip(toks, ns):
                    b = _cm_bucket(r, str(tok))
                    agg[b] = agg.get(b, 0) + int(nn)
                out_r += [r] * len(agg)
                out_b += list(agg)
                out_n += list(agg.values())
        return pa.table(
            {"r": pa.array(out_r, pa.int64()),
             "b": pa.array(out_b, pa.int64()),
             "cell": pa.array(out_n, pa.int64())}
        )

    cells_df = cnt.map_batches(
        cell_partial, batch_format="pyarrow"
    ).to_pandas()   # bounded: 4 x 256 cells x blocks
    if cells_df.empty:
        return empty
    cells = cells_df.groupby(["r", "b"])["cell"].sum().to_dict()
    top = (
        cnt.sort(["n", "token"], descending=[True, False])
        .limit(CM_AUDIT_TOP)
        .to_pandas()
    )
    toks = [str(x) for x in top["token"]]
    ns = [int(x) for x in top["n"]]
    ests = [
        min(cells[(r, _cm_bucket(r, tok))] for r in range(CM_ROWS))
        for tok in toks
    ]
    return pa.table(
        {"token": pa.array(toks, pa.string()),
         "n_exact": pa.array(ns, pa.int64()),
         "cm_est": pa.array(ests, pa.int64()),
         "over_ratio": pa.array(
             [float(e) / float(n) for e, n in zip(ests, ns)],
             pa.float64())}
    )


ORACLES["cm_sketch_tokens"] = (
    "WITH cnt AS (SELECT w, count(*)::BIGINT AS n FROM (SELECT "
    f"unnest(regexp_extract_all(lower(text), '{LOWER_TOKEN_RE}')) AS w "
    "FROM documents) GROUP BY 1), "
    f"rs AS (SELECT unnest(range(0, {CM_ROWS})) AS r), "
    "bk AS (SELECT r, w, n, "
    "(strpos('0123456789abcdef', substr(md5(concat(CAST(r AS VARCHAR), "
    "':', w)), 1, 1)) - 1) * 16 + "
    "(strpos('0123456789abcdef', substr(md5(concat(CAST(r AS VARCHAR), "
    "':', w)), 2, 1)) - 1) AS b FROM cnt, rs), "
    "cells AS (SELECT r, b, sum(n)::BIGINT AS cell FROM bk "
    "GROUP BY 1, 2), "
    f"top AS (SELECT w, n FROM cnt ORDER BY n DESC, w "
    f"LIMIT {CM_AUDIT_TOP}) "
    "SELECT t.w AS token, t.n AS n_exact, min(c.cell)::BIGINT AS cm_est, "
    "CAST(min(c.cell) AS DOUBLE) / CAST(t.n AS DOUBLE) AS over_ratio "
    "FROM top t JOIN bk ON bk.w = t.w "
    "JOIN cells c ON c.r = bk.r AND c.b = bk.b "
    "GROUP BY 1, 2 ORDER BY n_exact DESC, token"
)


# ---- dict_match_census: multi-pattern dictionary matching ------------------

# Fixed match dictionary.  Every pattern is BORDERLESS (no proper prefix
# equals a suffix), so occurrences cannot overlap themselves and the three
# countable semantics coincide: overlapping == non-overlapping ==
# the replace-length trick the SQL mirror uses.
DICT_PATTERNS = (
    "batch", "fast", "merge", "part", "scan", "spark", "table", "value",
)


def dict_match_census(sf_dir: str) -> ray.data.Dataset:
    """Per-(source, pattern) census of a fixed DICTIONARY of literal
    patterns: total occurrences and number of documents hit — the
    multi-pattern string-matching family (dictionary matching).  With a
    BOUNDED dictionary the vectorized form is one Arrow C++
    ``count_substring`` scan per pattern (8 zero-copy passes); at large
    dictionary sizes the same operator would switch to an Aho-Corasick
    automaton built once per actor (one pass, O(text + matches)) — the
    per-pattern kernel is the measured-faster shape here because the
    automaton's per-char transition is a Python-level loop.

    Scale shape: map-only; each batch emits at most |sources| × |dict|
    partial rows (both bounded alphabets), then a bounded groupby —
    nothing row-proportional crosses the exchange.

    Reference anchor: M3's stopword counting (SURVEY.md §2.3) widened
    from one vocabulary to an arbitrary pattern dictionary."""

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"source": pa.array([], pa.string()),
             "pat": pa.array([], pa.string()),
             "m": pa.array([], pa.int64()),
             "h": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        chunks = []
        for p in DICT_PATTERNS:
            n = pc.cast(pc.count_substring(t["text"], p), pa.int64())
            g = (
                pa.table({"source": t["source"], "m": n,
                          "h": pc.cast(pc.greater(n, 0), pa.int64())})
                .group_by("source")
                .aggregate([("m", "sum"), ("h", "sum")])
            )
            chunks.append(pa.table(
                {"source": g["source"],
                 "pat": pa.array([p] * len(g), pa.string()),
                 "m": g["m_sum"], "h": g["h_sum"]}
            ))
        return pa.concat_tables(chunks)

    from ray.data.aggregate import Sum

    return (
        _read(sf_dir, "documents", ["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "pat"])
        .aggregate(Sum("m", alias_name="n_matches"),
                   Sum("h", alias_name="n_docs_hit"))
    )


ORACLES["dict_match_census"] = (
    "WITH per AS ("
    + " UNION ALL ".join(
        f"SELECT source, '{p}' AS pat, "
        f"(length(text) - length(replace(text, '{p}', ''))) // {len(p)} "
        "AS m FROM documents"
        for p in DICT_PATTERNS
    )
    + ") SELECT source, pat, sum(m)::BIGINT AS n_matches, "
    "sum(CASE WHEN m > 0 THEN 1 ELSE 0 END)::BIGINT AS n_docs_hit "
    "FROM per GROUP BY 1, 2 ORDER BY 1, 2"
)
