"""Operator-suite tests: every queries() entry runs at sf0.001, the
SQL-expressible ones are verified against their DuckDB oracle in-process
(the comparison scripts/check_oracles.py makes) at sf0.001, at sf0.01 and on
four edge copies of sf0.001 (one row per table, shuffled rows, non-ASCII
text, every document duplicated), and the approximate/stateful ones get
shape + determinism checks."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
SF01 = SF.replace("sf0.001", "sf0.01")    # the next scale factor
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


from langfilter_ray.testing import canon as _canon  # noqa: E402
from langfilter_ray.testing import compare_frames, first_diff  # noqa: E402


def _to_pandas(obj):
    import pyarrow as pa
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def _connect(sf_dir: str) -> duckdb.DuckDBPyConnection:
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return c


@pytest.fixture(scope="module")
def con():
    return _connect(SF)


@pytest.fixture(scope="module")
def con01():
    return _connect(SF01)


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as e

    return e


ORACLE_CHECKED = [
    "status_counts", "event_type_by_bucket", "recent_window_count",
    "top50_recent", "events_filtered_sorted", "revenue_by_nation",
    "translate_documents", "token_counts", "stopword_stats",
    "langid_heuristic", "quality_score", "gopher_quality", "scrub_documents",
    "lang_distribution", "dedup_exact", "span_dedup", "dup_rate_by_source",
    "dedup_embedding", "ann_topk", "label_centroids", "heavy_hitter_tokens",
    "ngram_novelty", "mix_rebalance", "source_quota_sample",
    "mix_downsample", "stratified_sample", "train_val_split",
    "pack_sequences", "shuffle_order", "length_rank_tiers",
    "training_manifest", "payload_stats",
]

# oracle-backed all_queries() entries outside the driver surface
LIBRARY_ORACLE_CHECKED = [
    "fingerprint", "top_tokens", "distinct_sources", "sample_docs",
    "doc_stats_by_lang", "token_counts_bpe",
    "top_bigrams", "top_docs_per_lang", "domain_mix_weights",
    "inverted_index_stats", "tfidf_top_terms", "shared_ngram_docs",
    "char_class_profile", "dup_token_stats", "chars_percentiles",
    "embedding_quant_stats", "vocab_stats", "vocab_overlap",
    "lang_source_agg", "weighted_sample",
    "zscore_by_lang", "weighted_median_chars", "sentence_stats",
    "percentile_rank_chars", "length_token_contingency", "sources_per_lang",
    "length_gini_by_source", "spearman_length_tokens", "dup_cluster_hist",
    "source_token_quota", "label_quant_gram", "vocab_growth",
    "hapax_by_source", "small_group_census", "source_token_divergence",
    "source_simpson_diversity", "embedding_top_eigval", "cm_sketch_tokens",
    "dict_match_census", "embedding_closest_pair",
]
ALL_ORACLE_CHECKED = ORACLE_CHECKED + LIBRARY_ORACLE_CHECKED


def test_oracle_checked_is_complete(entry_mod):
    """Every oracle-backed queries() entry must be parametrized in
    test_query_matches_oracle — the eighth-sitting audit found eight
    operators whose ORACLE_CHECKED rows were never added, so the in-suite
    parity net silently narrowed.  Pin set equality so it can't recur."""
    backed = set(entry_mod.queries()) & set(entry_mod.oracle_sql())
    listed = set(ORACLE_CHECKED)
    assert listed == backed, (
        f"missing from ORACLE_CHECKED: {sorted(backed - listed)}; "
        f"stale entries: {sorted(listed - backed)}"
    )
    library = set(entry_mod.all_oracle_sql()) - set(entry_mod.oracle_sql())
    assert library == set(LIBRARY_ORACLE_CHECKED)
    assert library <= set(entry_mod.all_queries())


def test_bench_secondary_picks_are_queries(entry_mod):
    """bench.secondary() looks every pick up in queries(); a stale name
    would only show up as an "error: KeyError" entry in the bench JSON."""
    import bench

    stale = [p for p in bench.SECONDARY_PICKS if p not in entry_mod.queries()]
    assert not stale, f"bench picks missing from queries(): {stale}"


def test_queries_dict_has_no_duplicate_keys():
    """A duplicate key in the queries() dict literal silently keeps the
    first position and drops the later one, so an edit can lose a query
    without any visible error.  Parse the AST and require every literal
    key to be unique."""
    import ast
    import pathlib

    src = pathlib.Path(__file__).resolve().parent.parent / "__ray_entry__.py"
    tree = ast.parse(src.read_text())
    fn = next(
        n for n in tree.body
        if isinstance(n, ast.FunctionDef) and n.name == "queries"
    )
    ret = next(n for n in ast.walk(fn) if isinstance(n, ast.Return))
    assert isinstance(ret.value, ast.Dict)
    keys = [k.value for k in ret.value.keys if isinstance(k, ast.Constant)]
    assert len(keys) == len(ret.value.keys), "non-literal key in queries()"
    dupes = {k for k in keys if keys.count(k) > 1}
    assert not dupes, f"duplicate queries() keys: {sorted(dupes)}"
    # all_queries() spreads queries() first; a literal key repeating one
    # of its names would silently replace the driver's callable
    fn = next(
        n for n in tree.body
        if isinstance(n, ast.FunctionDef) and n.name == "all_queries"
    )
    ret = next(n for n in ast.walk(fn) if isinstance(n, ast.Return))
    lib = [k.value for k in ret.value.keys if isinstance(k, ast.Constant)]
    assert len(lib) == len(set(lib)) and not set(lib) & set(keys)


def test_queries_fit_correctness_window(entry_mod):
    """The driver hash-checks the first 50 queries() entries, so at most
    50 entries means every query is checked every round."""
    assert len(entry_mod.queries()) <= 50


def _assert_matches_oracle(entry_mod, con, sf_dir: str, name: str) -> None:
    got = _canon(_to_pandas(entry_mod.all_queries()[name](sf_dir)))
    want = _canon(con.execute(entry_mod.all_oracle_sql()[name]).df())
    problems = compare_frames(got, want)
    assert not problems, (problems, first_diff(got, want))


def _variant_sf(tmp_path_factory, label: str, transform) -> str:
    """A copy of the sf0.001 tables with ``transform(table_name, table)``
    applied to each one."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp(label)
    for t in TABLES:
        tab = pq.read_table(f"{SF}/{t}.parquet")
        pq.write_table(transform(t, tab), d / f"{t}.parquet")
    return str(d)


@pytest.fixture(scope="module")
def one_row_sf(tmp_path_factory):
    """Every table cut to its first row: most joins find no partner, most
    groups have one member, and a filter can drop the only row."""
    d = _variant_sf(tmp_path_factory, "one_row_sf", lambda _, tab: tab.slice(0, 1))
    return d, _connect(d)


@pytest.fixture(scope="module")
def zero_row_sf(tmp_path_factory):
    """Every table emptied, its schema kept: every scan, join, group and
    sort sees no rows at all."""
    d = _variant_sf(tmp_path_factory, "zero_row_sf", lambda _, tab: tab.slice(0, 0))
    return d, _connect(d)


@pytest.fixture(scope="module")
def shuffled_sf(tmp_path_factory):
    """The sf0.001 rows of every table in a seeded random order."""
    import numpy as np

    def shuffle(_, tab):
        return tab.take(np.random.RandomState(7).permutation(tab.num_rows))

    d = _variant_sf(tmp_path_factory, "shuffled_sf", shuffle)
    return d, _connect(d)


@pytest.fixture(scope="module")
def non_ascii_sf(tmp_path_factory):
    """sf0.001 with non-ASCII documents: accented vowels in every text, a
    CJK suffix on every third, ``n_chars`` recounted in characters."""
    import pyarrow as pa

    def accent(name, tab):
        if name != "documents":
            return tab
        texts = [
            x.replace("a", "ä").replace("e", "é") + (" 数据 表" if i % 3 == 0 else "")
            for i, x in enumerate(tab["text"].to_pylist())
        ]
        tab = tab.set_column(
            tab.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
        )
        return tab.set_column(
            tab.schema.get_field_index("n_chars"),
            "n_chars",
            pa.array([len(x) for x in texts], pa.int64()),
        )

    d = _variant_sf(tmp_path_factory, "non_ascii_sf", accent)
    return d, _connect(d)


@pytest.fixture(scope="module")
def duplicated_docs_sf(tmp_path_factory):
    """sf0.001 with every document repeated under a fresh ``doc_id``
    (shifted by ``max(doc_id) + 1``); the other tables are unchanged."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def duplicate(name, tab):
        if name != "documents":
            return tab
        ids = tab["doc_id"]
        copy = tab.set_column(
            tab.schema.get_field_index("doc_id"),
            "doc_id",
            pc.add(ids, pa.scalar(pc.max(ids).as_py() + 1, ids.type)),
        )
        return pa.concat_tables([tab, copy])

    d = _variant_sf(tmp_path_factory, "duplicated_docs_sf", duplicate)
    return d, _connect(d)


@pytest.mark.parametrize("name", ALL_ORACLE_CHECKED)
def test_query_matches_oracle(entry_mod, con, name):
    _assert_matches_oracle(entry_mod, con, SF, name)


@pytest.mark.parametrize("name", ALL_ORACLE_CHECKED)
def test_query_matches_oracle_sf001(entry_mod, con01, name):
    """The same check at sf0.01: ten times the rows, so more blocks per
    read and more partials per combiner than sf0.001."""
    _assert_matches_oracle(entry_mod, con01, SF01, name)


@pytest.mark.parametrize("name", ALL_ORACLE_CHECKED)
def test_query_matches_oracle_one_row(entry_mod, one_row_sf, name):
    """One row per table: an empty result must still carry the oracle's
    typed columns, and no operator may crash on a single group."""
    sf_dir, c = one_row_sf
    _assert_matches_oracle(entry_mod, c, sf_dir, name)


@pytest.mark.parametrize("name", ORACLE_CHECKED)
def test_query_matches_oracle_zero_rows(entry_mod, zero_row_sf, name):
    """Zero rows in every table: the result is empty and still carries
    the oracle's typed columns; no operator crashes on an empty input."""
    sf_dir, c = zero_row_sf
    _assert_matches_oracle(entry_mod, c, sf_dir, name)


# The rows-only queries that read the sf tables; the five cascade queries
# (quality_filter_labels, gate_decision_report, repo_quality_report,
# corpus_clean, corpus_training_manifest) read a synthesized corpus, so
# emptied tables never reach them.
ROWS_ONLY_SF_QUERIES = [
    "doc_perplexity", "dedup_minhash", "dedup_jaccard", "dedup_components",
    "dedup_survivors", "simhash_candidates", "embed_documents", "ann_ivf",
    "kmeans_fit", "decontaminate_overlap", "bpe_train", "bpe_encode",
    "decode_wav",
]


@pytest.mark.parametrize("name", ROWS_ONLY_SF_QUERIES)
def test_rows_only_query_zero_rows(entry_mod, zero_row_sf, name):
    """Zero rows in every table: a rows-only query returns no row instead
    of crashing on an empty matrix or an empty driver-side gather."""
    sf_dir, _ = zero_row_sf
    assert len(_to_pandas(entry_mod.queries()[name](sf_dir))) == 0


@pytest.mark.parametrize("name", ALL_ORACLE_CHECKED)
def test_query_matches_oracle_shuffled_rows(entry_mod, shuffled_sf, name):
    """Results do not depend on input row order (tie-breaks, first-seen
    picks, partial merges)."""
    sf_dir, c = shuffled_sf
    _assert_matches_oracle(entry_mod, c, sf_dir, name)


@pytest.mark.parametrize("name", ALL_ORACLE_CHECKED)
def test_query_matches_oracle_non_ascii(entry_mod, non_ascii_sf, name):
    """Non-ASCII text: lengths count characters and tokenizers agree with
    the oracle's on multi-byte input."""
    sf_dir, c = non_ascii_sf
    _assert_matches_oracle(entry_mod, c, sf_dir, name)


@pytest.mark.parametrize("name", ALL_ORACLE_CHECKED)
def test_query_matches_oracle_duplicated_docs(entry_mod, duplicated_docs_sf, name):
    """Every document twice under distinct ids: exact duplicate content,
    and a tie on every rank, quota and tie-break key."""
    sf_dir, c = duplicated_docs_sf
    _assert_matches_oracle(entry_mod, c, sf_dir, name)


@pytest.mark.parametrize("name", ["revenue_by_nation"])
def test_dim_join_fallback_matches_oracle(entry_mod, con, name, monkeypatch):
    """Above BROADCAST_DIM_MAX_ROWS the customer-dim broadcast must switch
    to the hash-partitioned native join and produce identical results —
    forced here by zeroing the threshold."""
    from langfilter_ray.pipelines import relational

    monkeypatch.setattr(relational, "BROADCAST_DIM_MAX_ROWS", 0)
    got = _canon(_to_pandas(entry_mod.queries()[name](SF)))
    want = _canon(con.execute(entry_mod.oracle_sql()[name]).df())
    problems = compare_frames(got, want)
    assert not problems, (problems, first_diff(got, want))


@pytest.mark.parametrize("min_parts", [3, 17])
@pytest.mark.parametrize(
    "name",
    ["pack_sequences", "length_rank_tiers", "training_manifest"],
)
def test_prefix_sum_ops_partition_count_invariant(
    entry_mod, con, name, min_parts, monkeypatch
):
    """The two-pass prefix-sum operators must produce IDENTICAL results at
    any partition count (the fold carries exact integer offsets) — vary
    the partition floor well below and above the default 8."""
    from langfilter_ray.pipelines import text_analysis

    monkeypatch.setattr(text_analysis, "_PREFIX_MIN_PARTS", min_parts)
    got = _canon(_to_pandas(entry_mod.queries()[name](SF)))
    want = _canon(con.execute(entry_mod.oracle_sql()[name]).df())
    problems = compare_frames(got, want)
    assert not problems, (problems, first_diff(got, want))


def test_length_rank_tiers_skewed_distribution(entry_mod, tmp_path):
    """Sampled-quantile boundaries (round-4 verdict item): a concentrated
    n_chars distribution — 90% of rows in a 21-value band under a long
    sparse tail — must (a) still rank exactly against the SQL oracle and
    (b) keep per-partition row counts within 4x of the mean, where the
    old equal-width grid put ~90% of rows into one straggler interval."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from langfilter_ray.pipelines import text_analysis as ta

    rng = np.random.RandomState(3)
    n = 12_000
    narrow = rng.randint(100, 121, int(n * 0.9))
    tail = rng.randint(1_000, 100_000, n - len(narrow))
    n_chars = np.concatenate([narrow, tail])
    rng.shuffle(n_chars)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(n, dtype=np.int64)),
                "n_chars": pa.array(n_chars.astype(np.int64)),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = _canon(_to_pandas(ta.length_rank_tiers(str(tmp_path))))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * "
        f"FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = _canon(c.execute(ta.ORACLES["length_rank_tiers"]).df())
    problems = compare_frames(got, want)
    assert not problems, (problems, first_diff(got, want))
    # balance under skew
    parts = max(ta._PREFIX_MIN_PARTS, n // ta._PACK_ROWS_PER_PART)
    bounds = ta._sampled_length_bounds(str(tmp_path), parts, n)
    per_part = np.bincount(
        np.searchsorted(bounds, n_chars, side="right"), minlength=parts
    )
    assert per_part.max() <= 4 * n / parts, per_part.tolist()


def test_comparator_catches_decimal_vs_int64():
    """Regression for round 1: DuckDB sum(BIGINT) -> decimal128 stringifies
    like int64 and slipped past the old astype(str) gate; the dtype-aware
    comparator must flag it."""
    import duckdb as _dd

    want = _canon(_dd.sql("SELECT sum(CAST(1 AS BIGINT)) AS s").df())
    got = _canon(pd.DataFrame({"s": pd.array([1], dtype="int64")}))
    problems = compare_frames(got, want)
    assert problems and "dtype" in problems[0], problems
    fixed = _canon(_dd.sql("SELECT sum(CAST(1 AS BIGINT))::BIGINT AS s").df())
    assert not compare_frames(got, fixed)


def test_every_query_has_oracle_or_is_known_rows_only(entry_mod):
    rows_only = set(entry_mod.queries()) - set(entry_mod.oracle_sql())
    assert rows_only == {
        "quality_filter_labels", "gate_decision_report", "repo_quality_report",
        "corpus_clean", "corpus_training_manifest", "doc_perplexity",
        "dedup_minhash", "dedup_jaccard", "dedup_components",
        "dedup_survivors", "simhash_candidates", "embed_documents", "ann_ivf",
        "kmeans_fit", "decontaminate_overlap", "bpe_train", "bpe_encode",
        "decode_wav",
    }
    library = set(entry_mod.all_queries()) - set(entry_mod.queries())
    assert library - set(entry_mod.all_oracle_sql()) == {"dedup_embedding_ivf"}


def test_simhash_candidates_hamming_guarantee(entry_mod):
    """All returned pairs have Hamming <= 3; every exact-dup pair (same
    text -> same fingerprint -> Hamming 0) must be present."""
    from langfilter_ray.pipelines import dedup

    cand = _to_pandas(entry_mod.queries()["simhash_candidates"](SF))
    assert (cand["hamming"] <= 3).all()
    fps = _to_pandas(dedup.dedup_simhash(SF))
    dup = fps[fps.duplicated("simhash", keep=False)]
    import itertools
    pairs = set(zip(cand["doc_a"], cand["doc_b"]))
    for _, grp in dup.groupby("simhash"):
        ids = sorted(grp["doc_id"])
        for a, b in itertools.combinations(ids, 2):
            assert (a, b) in pairs, (a, b)


def test_ann_ivf_recall_vs_exact(entry_mod, con):
    """IVF probes 4/16 clusters — assert it still recovers most of the true
    top-5 (the embeddings cluster by label, so recall should be high)."""
    approx = _to_pandas(entry_mod.queries()["ann_ivf"](SF))
    exact = con.execute(entry_mod.oracle_sql()["ann_topk"]).df()
    hits = tot = 0
    for qid, grp in exact.groupby("query_id"):
        truth = set(grp["neighbor_id"])
        got = set(approx[approx["query_id"] == qid]["neighbor_id"])
        hits += len(truth & got)
        tot += len(truth)
    assert tot > 0 and hits / tot >= 0.6, f"recall@5 = {hits}/{tot}"


def test_entry_smoke(entry_mod):
    ds = entry_mod.entry()
    df = _to_pandas(ds)
    assert len(df) == 1000
    assert {"repo", "path", "commit", "keep", "gate_decision",
            "content_sha256"} <= set(df.columns)


def test_minhash_finds_exact_dup_pairs(entry_mod, ray_session):
    # determinism + sanity: candidates are symmetric-unique ordered pairs
    df = _to_pandas(entry_mod.queries()["dedup_minhash"](SF))
    assert set(df.columns) == {"doc_a", "doc_b"}
    assert (df["doc_a"] < df["doc_b"]).all()
    df2 = _to_pandas(entry_mod.queries()["dedup_minhash"](SF))
    pd.testing.assert_frame_equal(
        _canon(df), _canon(df2)
    )


def test_simhash_deterministic_and_hex(entry_mod):
    from langfilter_ray.pipelines import dedup

    df = _to_pandas(dedup.dedup_simhash(SF))
    assert len(df) == 500
    assert df["simhash"].str.fullmatch(r"[0-9a-f]{16}").all()


def test_dedup_components_match_union_find(entry_mod):
    """Distributed min-label propagation must equal a driver union-find
    over the same verified pair set (min doc_id per component as rep)."""
    pairs = _to_pandas(entry_mod.queries()["dedup_jaccard"](SF))
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {x: find(x) for x in parent}

    got_df = _to_pandas(entry_mod.queries()["dedup_components"](SF))
    got = dict(zip(got_df["doc_id"].astype(int), got_df["rep_doc_id"].astype(int)))
    assert got == want

    surv = set(_to_pandas(entry_mod.queries()["dedup_survivors"](SF))["doc_id"])
    all_ids = set(
        pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])["doc_id"]
    )
    drops = {x for x, r in want.items() if x != r}
    assert surv == all_ids - drops


def test_dedup_components_distributed_path_matches_fast_path(
    entry_mod, monkeypatch
):
    """Forcing the edge-count threshold to 0 exercises the distributed
    min-label propagation loop; it must produce exactly the driver
    union-find fast path's (doc_id, rep_doc_id) mapping."""
    from langfilter_ray.pipelines import dedup

    fast = _to_pandas(entry_mod.queries()["dedup_components"](SF))
    monkeypatch.setattr(dedup, "_CC_DRIVER_MAX_EDGES", 0)
    dist = _to_pandas(entry_mod.queries()["dedup_components"](SF))
    f = dict(zip(fast["doc_id"].astype(int), fast["rep_doc_id"].astype(int)))
    d = dict(zip(dist["doc_id"].astype(int), dist["rep_doc_id"].astype(int)))
    assert f == d and len(f) > 0


def test_dedup_jaccard_matches_exhaustive_ground_truth(entry_mod):
    """The LSH-candidates -> exact-verify chain must equal the exhaustive
    all-pairs shingle-Jaccard >= threshold set (0 missed, 0 extra) at
    test scale — LSH banding with 64 hashes / 16 bands has near-1
    collision probability at the 0.5 threshold, and verification removes
    every false positive, so exactness is the expected outcome, not
    luck."""
    from langfilter_ray.pipelines import dedup

    pairs = _to_pandas(entry_mod.queries()["dedup_jaccard"](SF))
    got = set(zip(pairs["doc_a"].astype(int), pairs["doc_b"].astype(int)))

    t = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sh = [set(dedup._shingle_hashes(x or "").tolist()) for x in t["text"]]
    ids = t["doc_id"].to_numpy()
    truth = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = sh[i], sh[j]
            if not a or not b:
                continue
            inter = len(a & b)
            if inter / (len(a) + len(b) - inter) >= dedup.JACCARD_THRESHOLD:
                truth.add((int(min(ids[i], ids[j])), int(max(ids[i], ids[j]))))
    assert got == truth and len(truth) > 0


def test_dedup_exact_bucket_fallback_matches_broadcast(
    entry_mod, con, monkeypatch
):
    """Above DEDUP_EXACT_BROADCAST_MAX_ROWS the driver gather must switch
    to the distributed bucket reduce with identical results — forced by
    zeroing the threshold, both sides checked against the SQL oracle."""
    from langfilter_ray.pipelines import dedup

    want = _canon(con.execute(entry_mod.oracle_sql()["dedup_exact"]).df())
    fast = _canon(_to_pandas(dedup.dedup_exact(SF)))
    assert not compare_frames(fast, want), first_diff(fast, want)
    monkeypatch.setattr(dedup, "DEDUP_EXACT_BROADCAST_MAX_ROWS", 0)
    slow = _canon(_to_pandas(dedup.dedup_exact(SF)))
    assert not compare_frames(slow, want), first_diff(slow, want)


def test_minhash_broadcast_matches_join_path(entry_mod, monkeypatch):
    """The small-band-table broadcast pass must produce the IDENTICAL
    candidate pair set as the distributed hash self-join — zero-threshold
    forcing, the same contract every other broadcast-below-bound path in
    the module carries.  Also checks the pathological-pair-count guard
    falls through to the join path rather than erroring."""
    from langfilter_ray.pipelines import dedup

    def pairs(**_):
        df = _to_pandas(dedup.minhash_candidates(SF))
        return sorted(zip(df["doc_a"], df["doc_b"]))

    fast = pairs()
    assert len(fast) > 0
    monkeypatch.setattr(dedup, "MINHASH_BROADCAST_MAX_BAND_ROWS", 0)
    joined = pairs()
    assert fast == joined
    monkeypatch.undo()
    # projected-pair-count guard: force the fall-through inside the
    # broadcast branch
    monkeypatch.setattr(dedup, "_BROADCAST_MAX_PAIRS", 0)
    guarded = pairs()
    assert fast == guarded


def test_dedup_jaccard_join_fallback_matches_broadcast(entry_mod, monkeypatch):
    """Above JACCARD_BROADCAST_MAX_DOCS the candidate-text gather must
    switch to the two-sided hash join and produce the identical verified
    pair set — forced here by zeroing the threshold."""
    from langfilter_ray.pipelines import dedup

    fast = _to_pandas(dedup.dedup_jaccard(SF))
    monkeypatch.setattr(dedup, "JACCARD_BROADCAST_MAX_DOCS", 0)
    slow = _to_pandas(dedup.dedup_jaccard(SF))
    key = lambda df: sorted(  # noqa: E731
        zip(df["doc_a"].astype(int), df["doc_b"].astype(int),
            df["jaccard"].round(12))
    )
    assert key(fast) == key(slow) and len(fast) > 0


def test_dedup_embedding_ivf_subset_and_recall(entry_mod):
    """IVF-bucketed near-dup pairs: every emitted pair must be exact (a
    subset of the brute-force pair set — same dot product) and recall must
    stay high (pairs missed only when endpoints share no top-2 cluster)."""
    bf = _to_pandas(entry_mod.queries()["dedup_embedding"](SF))
    ivf = _to_pandas(entry_mod.all_queries()["dedup_embedding_ivf"](SF))
    bset = set(zip(bf["id_a"], bf["id_b"]))
    iset = set(zip(ivf["id_a"], ivf["id_b"]))
    assert iset <= bset
    assert len(iset & bset) / max(1, len(bset)) >= 0.7
    ivf2 = _to_pandas(entry_mod.all_queries()["dedup_embedding_ivf"](SF))
    assert _canon(ivf).equals(_canon(ivf2))


def test_decontaminate_overlap_matches_tuple_ground_truth(entry_mod):
    """Hash-based 8-gram overlap must equal a tuple-level (unhashed)
    ground truth computed driver-side — catches both hash-flow bugs and
    (at this scale nonexistent) collisions."""
    got = _to_pandas(entry_mod.queries()["decontaminate_overlap"](SF))
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    def grams(s):
        w = (s or "").lower().split()
        return {tuple(w[i:i + 8]) for i in range(len(w) - 7)}

    eval_grams = set()
    for _, r in docs.iterrows():
        if r["doc_id"] % 50 == 7:
            eval_grams |= grams(r["text"])
    want = {}
    for _, r in docs.iterrows():
        if r["doc_id"] % 50 == 7:
            continue
        n = len(grams(r["text"]) & eval_grams)
        if n:
            want[int(r["doc_id"])] = n
    assert dict(zip(got["doc_id"].astype(int), got["n_overlap"].astype(int))) == want
    assert want, "fixture should contain at least one contaminated doc"


def test_doc_perplexity_deterministic_and_sane(entry_mod):
    """Actor-pool model scoring: deterministic across runs, finite-or-
    sentinel perplexity, and language predictions consistent with the
    shared classifier (the flagship builds on the same model)."""
    a = _to_pandas(entry_mod.queries()["doc_perplexity"](SF))
    b = _to_pandas(entry_mod.queries()["doc_perplexity"](SF))
    assert _canon(a).equals(_canon(b))
    assert len(a) == 500
    assert ((a["perplexity"] > 0) | (a["perplexity"] == -1)).all()
    assert ((a["probability"] >= 0) & (a["probability"] <= 1)).all()
    from langfilter_ray.functions.classifier import TrigramLidModel

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    m = TrigramLidModel()
    langs, probs, _ = m.classify_full([s or "" for s in docs["text"]])
    want = dict(zip(docs["doc_id"], langs))
    got = dict(zip(a["doc_id"], a["pred_lang"]))
    assert got == want


def test_decode_wav_real_parse_and_poison(entry_mod):
    """REAL audio decode (stdlib wave + numpy): parsed sample counts /
    duration / peak / RMS must equal a direct decode of the generator's
    payload; deliberately truncated payloads land as decode_error rows,
    never failed batches."""
    from langfilter_ray.pipelines.multimodal import WavDecoder, _encode_wav

    got = _to_pandas(entry_mod.queries()["decode_wav"](SF))
    assert len(got) == 500
    ok = got[got["decode_error"].isna()].set_index("doc_id")
    bad = got[got["decode_error"].notna()]
    assert set(bad["doc_id"]) == {i for i in range(500) if i % 89 == 7}
    assert (bad[["n_samples", "sample_rate", "duration_ms", "peak", "rms_milli"]]
            == 0).all().all()
    dec = WavDecoder()
    for i in list(ok.index[:40]):
        n, sr, dur, peak, rms = dec._decode(_encode_wav(int(i)))
        assert n == 400 + (int(i) % 37) * 40 and sr == 8000
        row = ok.loc[i]
        assert (row["n_samples"], row["sample_rate"], row["duration_ms"],
                row["peak"], row["rms_milli"]) == (n, sr, dur, peak, rms)


def test_corpus_training_manifest_invariants(entry_mod):
    """The full cascade->scrub->dedup->pack flow: exactly one manifest
    row per distinct kept digest, token counts consistent with
    corpus_clean's survivor set, positions a 0..n-1 permutation in
    digest order, offsets consistent with a sequential 512-token pack."""
    import numpy as np

    got = _to_pandas(entry_mod.queries()["corpus_training_manifest"](SF))
    clean = _to_pandas(entry_mod.queries()["corpus_clean"](SF))
    assert sorted(got["content_sha256"]) == sorted(clean["content_sha256"])
    assert got["content_sha256"].is_unique
    n = len(got)
    assert sorted(got["train_pos"]) == list(range(n))
    g = got.sort_values("train_pos").reset_index(drop=True)
    # digest order and exact running-pack arithmetic
    assert list(g["content_sha256"]) == sorted(g["content_sha256"])
    cum = np.concatenate(([0], np.cumsum(g["n_tokens"].to_numpy())[:-1]))
    assert (g["seq_id"].to_numpy() == cum // 512).all()
    assert (g["offset_in_seq"].to_numpy() == cum % 512).all()
    # determinism across runs (fresh execution, cached intermediate)
    again = _to_pandas(entry_mod.queries()["corpus_training_manifest"](SF))
    assert again.sort_values("train_pos").reset_index(drop=True).equals(g)


def test_manifest_intermediate_keyed_by_content(entry_mod, tmp_path):
    """The checkpointed cascade intermediate must be keyed by the corpus
    CONTENT fingerprint, not the directory basename (round-4 advice):
    two corpora sharing a basename, or an in-place content change, must
    get fresh cache directories instead of silently reusing a stale one."""
    import shutil

    from langfilter_ray.corpus import write_corpus
    from langfilter_ray.pipelines.reports import _manifest_intermediate

    a = write_corpus(tmp_path / "x" / "corpus", 60)
    b = write_corpus(tmp_path / "y" / "corpus", 90)
    d1 = _manifest_intermediate(str(a))
    assert _manifest_intermediate(str(a)) == d1        # cache hit
    d2 = _manifest_intermediate(str(b))
    assert d2 != d1                                    # same basename, new key
    # in-place content change invalidates the cache
    src = next(iter((tmp_path / "x" / "corpus").glob("*.parquet")))
    shutil.copy(src, src.with_name("extra-chunk.parquet"))
    d3 = _manifest_intermediate(str(a))
    assert d3 != d1


def test_kmeans_fit_equals_single_machine_reference(entry_mod):
    """The distributed Lloyd iterations accumulate int64 quantized sums,
    so the result must be BIT-FOR-BIT equal to the single-machine numpy
    reference with the same init/assign/update rules — partitioning and
    summation order cannot change it."""
    from langfilter_ray.pipelines.similarity import kmeans_reference

    got = _to_pandas(entry_mod.queries()["kmeans_fit"](SF))
    want = kmeans_reference(SF).to_pandas()
    assert got["cluster_id"].tolist() == want["cluster_id"].tolist()
    assert got["n_points"].tolist() == want["n_points"].tolist()
    assert int(got["n_points"].sum()) == 500      # every vector assigned
    for a, b in zip(got["centroid_micros"], want["centroid_micros"]):
        assert list(a) == list(b)


def test_corpus_clean_integrated(entry_mod):
    """End-to-end composition: output is exactly one representative per
    distinct scrubbed-content digest among KEPT rows, with the
    lexicographically-first (repo, path, commit) as the rep."""
    labels = _to_pandas(entry_mod.queries()["quality_filter_labels"](SF))
    clean = _to_pandas(entry_mod.queries()["corpus_clean"](SF))
    kept = labels[labels["keep"]]
    assert set(clean["content_sha256"]) == set(kept["content_sha256"])
    assert len(clean) == kept["content_sha256"].nunique()
    want_rep = (
        kept.sort_values(["repo", "path", "commit"])
        .groupby("content_sha256")
        .head(1)
        .set_index("content_sha256")[["repo", "path", "commit"]]
    )
    got_rep = clean.set_index("content_sha256")[["repo", "path", "commit"]]
    pd.testing.assert_frame_equal(
        got_rep.sort_index(), want_rep.sort_index(), check_like=True
    )
    clean2 = _to_pandas(entry_mod.queries()["corpus_clean"](SF))
    assert _canon(clean).equals(_canon(clean2))


def test_embed_documents_unit_norm_and_dup_consistent(entry_mod):
    """Batched-inference stage: deterministic across runs, unit-norm
    vectors, and identical text -> identical vector (the property the
    downstream embedding dedup relies on)."""
    import numpy as np

    a = _to_pandas(entry_mod.queries()["embed_documents"](SF))
    b = _to_pandas(entry_mod.queries()["embed_documents"](SF))
    assert len(a) == 500
    av = {i: tuple(v) for i, v in zip(a["doc_id"], a["embedding"])}
    bv = {i: tuple(v) for i, v in zip(b["doc_id"], b["embedding"])}
    assert av == bv
    norms = np.array([np.linalg.norm(np.array(v)) for v in a["embedding"]])
    assert ((np.abs(norms - 1.0) < 1e-9) | (norms == 0)).all()
    fp = _to_pandas(entry_mod.all_queries()["fingerprint"](SF))
    merged = fp.merge(a, on="doc_id")
    merged["vec"] = merged["embedding"].map(tuple)
    assert (merged.groupby("fp_md5")["vec"].nunique() == 1).all()


def test_embed_not_anagram_invariant():
    """Regression: the old trigram powers were all ≡ 1 mod 256, so
    anagram windows collided and anagram texts embedded identically."""
    from langfilter_ray.pipelines.similarity import _HashEmbedder

    e = _HashEmbedder()
    a = e._embed("abc def ghi " * 10)
    b = e._embed("cba fed ihg " * 10)
    import numpy as np

    assert not np.allclose(a, b)


def _span_docs_table(tmp_path):
    """Documents with engineered span structure (SPAN_WORDS=10):
      doc 0: 20 words, spans A B
      doc 1: 25 words, spans A C D' (D' is a 5-word tail)
      doc 2: A A B      -> every span seen before (in doc 0 / its own first
                           span) except... A(second, in-doc dup) B -> doc 2
                           keeps NOTHING (all three spans are repeats)
      doc 3: 7 words    -> single short span, unique, fully kept
      doc 4: exact copy of doc 0 -> vanishes entirely
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    A = " ".join(f"a{i}" for i in range(10))
    B = " ".join(f"b{i}" for i in range(10))
    C = " ".join(f"c{i}" for i in range(10))
    D = " ".join(f"d{i}" for i in range(5))
    E = " ".join(f"e{i}" for i in range(7))
    texts = [f"{A} {B}", f"{A} {C} {D}", f"{A} {A} {B}", E, f"{A} {B}"]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["t"] * len(texts)),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    return A, B, C, D, E


def test_span_dedup_ground_truth(entry_mod, tmp_path):
    from langfilter_ray.pipelines import dedup

    A, B, C, D, E = _span_docs_table(tmp_path)
    got = dedup.span_dedup(str(tmp_path)).to_pandas()
    got = got.sort_values("doc_id").reset_index(drop=True)
    # doc 2 (all spans are repeats) and doc 4 (exact copy) vanish
    assert got["doc_id"].tolist() == [0, 1, 3]
    by = got.set_index("doc_id")
    assert by.loc[0, "clean_text"] == f"{A} {B}"
    assert (by.loc[0, "kept_spans"], by.loc[0, "total_spans"]) == (2, 2)
    # doc 1 loses its leading A (doc 0 owns it), keeps C and the short tail
    assert by.loc[1, "clean_text"] == f"{C} {D}"
    assert (by.loc[1, "kept_spans"], by.loc[1, "total_spans"]) == (2, 3)
    assert by.loc[3, "clean_text"] == E
    assert (by.loc[3, "kept_spans"], by.loc[3, "total_spans"]) == (1, 1)
    # oracle agrees on the same synthetic table
    import duckdb as _dd

    c = _dd.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * "
        f"FROM read_parquet('{tmp_path}/documents.parquet')"
    )
    want = _canon(c.execute(dedup.ORACLES["span_dedup"]).df())
    problems = compare_frames(_canon(got), want)
    assert not problems, (problems, first_diff(_canon(got), want))


def test_span_dedup_bucket_path_matches_oracle(entry_mod, con, monkeypatch):
    """Force the distributed bucket-reduce path (zero the driver-finish
    bound) and require identical output — the module's standard
    broadcast-vs-scale-path contract."""
    from langfilter_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "SPAN_DEDUP_DRIVER_MAX_ROWS", 0)
    got = _canon(_to_pandas(dedup.span_dedup(SF)))
    want = _canon(con.execute(dedup.ORACLES["span_dedup"]).df())
    problems = compare_frames(got, want)
    assert not problems, (problems, first_diff(got, want))


def test_span_dedup_drop_bound_refusal(entry_mod, monkeypatch):
    from langfilter_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "SPAN_DEDUP_MAX_DROPS", 0)
    with pytest.raises(ValueError, match="drop list"):
        dedup.span_dedup(SF)


def test_span_dedup_split_semantics_match_duckdb(entry_mod):
    """The explode helper's split must equal DuckDB string_split(' ') on
    the edge cases the docstring pins: consecutive delimiters yield empty
    words, '' yields one empty word."""
    import duckdb as _dd
    import pyarrow as pa

    from langfilter_ray.pipelines.dedup import SPAN_WORDS, _explode_spans

    texts = ["", " ", "x  y", "a b  ", " lead", "w " * 25]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    span_doc, span_idx, n_spans, spans = _explode_spans(t)
    got = {}
    for d, i, s in zip(span_doc.tolist(), span_idx.tolist(), spans.to_pylist()):
        got[(d, i)] = s
    c = _dd.connect()
    rows = c.execute(
        "WITH w AS (SELECT unnest(range(len($1))) AS d, "
        "                  string_split($1[CAST(unnest(range(len($1))) AS BIGINT)+1], ' ') AS words) "
        "SELECT d, i, array_to_string("
        f"words[i*{SPAN_WORDS}+1 : i*{SPAN_WORDS}+{SPAN_WORDS}], ' ') "
        f"FROM w, UNNEST(range(CAST(ceil(len(words)/{SPAN_WORDS}.0) AS BIGINT))) AS t(i)",
        [texts],
    ).fetchall()
    want = {(int(d), int(i)): s for d, i, s in rows}
    assert got == want


def test_bpe_train_equals_independent_reference(entry_mod):
    """The distributed word-count pass + driver merge loop must equal an
    independent single-machine BPE over the same corpus (different code:
    Counter + regex + its own merge loop), bit for bit."""
    import collections
    import re

    import pyarrow.parquet as pq

    from langfilter_ray.pipelines.text_analysis import (
        BPE_N_MERGES, _BPE_EOW,
    )

    got = _to_pandas(entry_mod.queries()["bpe_train"](SF))
    # independent reference
    texts = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    freqs = collections.Counter()
    for s in texts["text"].to_pylist():
        freqs.update(re.findall(r"[a-z0-9_]+", (s or "").lower()))
    words = {tuple(w) + (_BPE_EOW,): c for w, c in freqs.items()}
    merges = []
    for rank in range(BPE_N_MERGES):
        pc_ = collections.Counter()
        for syms, c in words.items():
            for a, b in zip(syms, syms[1:]):
                pc_[(a, b)] += c
        if not pc_:
            break
        top = max(pc_.values())
        left, right = min(p for p, c in pc_.items() if c == top)
        merges.append((rank, left, right, top))
        new = {}
        for syms, c in words.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new[tuple(out)] = new.get(tuple(out), 0) + c
        words = new
    assert list(zip(got["merge_rank"], got["left"], got["right"],
                    got["pair_freq"])) == merges
    # determinism probe
    again = _to_pandas(entry_mod.queries()["bpe_train"](SF))
    assert _canon(got).equals(_canon(again))


def test_bpe_train_hand_verified_merges(entry_mod, tmp_path):
    """Classic BPE textbook example with hand-computed first three merges,
    including a frequency tie resolved by the lexicographically smallest
    pair."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from langfilter_ray.pipelines import text_analysis as ta

    words = (["hug"] * 10 + ["pug"] * 5 + ["pun"] * 12 + ["bun"] * 4
             + ["hugs"] * 5)
    text = " ".join(words)
    t = pa.table(
        {
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array([text]),
            "lang": pa.array(["en"]),
            "source": pa.array(["t"]),
            "n_chars": pa.array([len(text)], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    got = _to_pandas(ta.bpe_train(str(tmp_path)))
    rows = list(zip(got["merge_rank"], got["left"], got["right"],
                    got["pair_freq"]))
    # hand computation: (u,g)=20 wins round 0; round 1 ties (n,</w>) and
    # (u,n) at 16 -> smallest pair (n,</w>); round 2 (u,n</w>)=16
    assert rows[0] == (0, "u", "g", 20)
    assert rows[1] == (1, "n", "</w>", 16)
    assert rows[2] == (2, "u", "n</w>", 16)


def test_bpe_encode_equals_independent_encode(entry_mod):
    """bpe_encode's per-doc token counts must equal an independently
    written greedy encode (recursive splitter, per-occurrence — no
    distinct-word caching) applied under the same trained merge table."""
    import re

    import pyarrow.parquet as pq

    from langfilter_ray.pipelines.text_analysis import _BPE_EOW

    merges = _to_pandas(entry_mod.queries()["bpe_train"](SF))
    ranks = {
        (l, r): i for i, (l, r) in enumerate(zip(merges["left"], merges["right"]))
    }

    def encode(word):
        syms = list(word) + [_BPE_EOW]
        while True:
            pairs = [
                (ranks[(a, b)], i)
                for i, (a, b) in enumerate(zip(syms, syms[1:]))
                if (a, b) in ranks
            ]
            if not pairs:
                return len(syms)
            _, i = min(pairs)
            syms = syms[:i] + [syms[i] + syms[i + 1]] + syms[i + 2:]

    got = _to_pandas(entry_mod.queries()["bpe_encode"](SF))
    got = got.sort_values("doc_id").reset_index(drop=True)
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    want = {}
    for d, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        want[d] = sum(encode(w) for w in re.findall(r"[a-z0-9_]+", (s or "").lower()))
    assert dict(zip(got["doc_id"], got["n_bpe_tokens"])) == want
    # each word survives as >= 1 symbol, so counts dominate word counts
    tc = _to_pandas(entry_mod.queries()["token_counts"](SF))
    merged = got.merge(tc, on="doc_id")
    assert (merged["n_bpe_tokens"] >= merged["n_tokens"]).all()
    again = _to_pandas(entry_mod.queries()["bpe_encode"](SF))
    assert _canon(got).equals(_canon(again.sort_values("doc_id").reset_index(drop=True)))
