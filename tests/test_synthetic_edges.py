"""Synthetic edge-case ground truth for the training-data operators:
each test writes a tiny hand-designed table, runs the Ray operator AND its
registered DuckDB oracle on the SAME table, asserts they agree, and pins
the hand-computed expectations the sf testdata cannot exercise (exact
boundary hits, tie-breaks, distance-2 rejections)."""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from langfilter_ray.testing import canon as _canon
from langfilter_ray.testing import compare_frames, first_diff


def _to_pandas(obj):
    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def _check_vs_oracle(fn, sql, tmp_path, table_name, tbl):
    pq.write_table(tbl, tmp_path / f"{table_name}.parquet")
    got = _canon(_to_pandas(fn(str(tmp_path))))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW {table_name} AS SELECT * "
        f"FROM read_parquet('{tmp_path}/{table_name}.parquet')"
    )
    want = _canon(c.execute(sql).df())
    problems = compare_frames(got, want)
    assert not problems, (problems, first_diff(got, want))
    return got


def _docs_table(rows):
    """rows: (doc_id, lang, n_chars, text)."""
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array(["syn"] * len(rows), pa.string()),
            "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def test_percentile_rank_chars_ties(ray_session, tmp_path):
    """rank() gap semantics on ties: en lengths [5,5,7] -> ranks 1,1,3
    (not dense 1,1,2), and a singleton language ranks 1."""
    from langfilter_ray.pipelines import text_analysis

    rows = [
        (1, "en", 5, "a"), (2, "en", 5, "b"), (3, "en", 7, "c"),
        (4, "de", 2, "d"),
    ]
    got = _check_vs_oracle(
        text_analysis.percentile_rank_chars,
        text_analysis.ORACLES["percentile_rank_chars"],
        tmp_path, "documents", _docs_table(rows),
    )
    assert dict(zip(got["doc_id"], got["rank_in_lang"])) == {
        1: 1, 2: 1, 3: 3, 4: 1,
    }


def test_length_token_contingency_boundaries(ray_session, tmp_path):
    """Uniform 1..8 on both features (token count = number of words in
    text): boundaries land at 2/4/6 via the 4*cum >= q*tot crossing and
    boundary VALUES fall in the LOWER bucket; perfectly correlated
    features give the pure diagonal."""
    from langfilter_ray.pipelines import text_analysis

    rows = [
        (i, "en", i, " ".join(["w"] * i)) for i in range(1, 9)
    ]
    got = _check_vs_oracle(
        text_analysis.length_token_contingency,
        text_analysis.ORACLES["length_token_contingency"],
        tmp_path, "documents", _docs_table(rows),
    )
    cells = {(r["len_q"], r["tok_q"]): r["n_docs"] for _, r in got.iterrows()}
    assert cells == {(0, 0): 2, (1, 1): 2, (2, 2): 2, (3, 3): 2}


def test_length_gini_known_values(ray_session, tmp_path):
    """Known Ginis: equal lengths -> 0; all mass on one doc of four ->
    0.75; tie runs exercise the contiguous-rank-run identity."""
    from langfilter_ray.pipelines import text_analysis

    rows = (
        [(i, "en", 7, "t") for i in range(4)]                 # equal: 0
        + [(10, "en", 0, "t"), (11, "en", 0, "t"),
           (12, "en", 0, "t"), (13, "en", 4, "t")]            # 0.75
        + [(20, "en", 3, "t"), (21, "en", 3, "t"), (22, "en", 6, "t")]
    )
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array(
                ["equal"] * 4 + ["skew"] * 4 + ["ties"] * 3, pa.string()
            ),
            "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    got = _check_vs_oracle(
        text_analysis.length_gini_by_source,
        text_analysis.ORACLES["length_gini_by_source"],
        tmp_path, "documents", tbl,
    )
    by_src = dict(zip(got["source"], got["gini"]))
    assert by_src["equal"] == 0.0
    assert by_src["skew"] == 0.75
    # ties: x=[3,3,6], six=3*1+3*2+6*3=27, sx=12, n=3 -> (54-48)/36
    assert abs(by_src["ties"] - 6 / 36) < 1e-15


def test_dup_cluster_hist_known_clusters(ray_session, tmp_path):
    """Hand-built duplicate clusters: 3 copies of A, 2 of B, singletons
    C and D -> histogram {1: 2, 2: 1, 3: 1} (the sf testdata is
    all-unique, so this is the only real exercise of cluster counting
    across batches/buckets)."""
    from langfilter_ray.pipelines import dedup

    texts = ["AAA", "AAA", "AAA", "BB", "BB", "C", "D"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["syn"] * len(texts), pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    got = _check_vs_oracle(
        dedup.dup_cluster_hist,
        dedup.ORACLES["dup_cluster_hist"],
        tmp_path, "documents", tbl,
    )
    assert dict(zip(got["cluster_size"], got["n_clusters"])) == {
        1: 2, 2: 1, 3: 1,
    }


def test_source_token_quota_apportionment(ray_session, tmp_path):
    """Largest-remainder rounding: quotas sum exactly to the budget and
    leftovers go to the largest remainders (lexicographic tie-break)."""
    from langfilter_ray.pipelines import text_analysis

    # token counts 1, 1, 1 over budget 1,000,000: floor = 333,333 each,
    # leftover 1 goes to the lexicographically first source (all
    # remainders tie)
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["one", "two", "three"], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
            "source": pa.array(["a", "b", "c"], pa.string()),
            "n_chars": pa.array([3, 3, 5], pa.int64()),
        }
    )
    got = _check_vs_oracle(
        text_analysis.source_token_quota,
        text_analysis.ORACLES["source_token_quota"],
        tmp_path, "documents", tbl,
    )
    q = dict(zip(got["source"], got["quota"]))
    assert sum(q.values()) == text_analysis.QUOTA_TOKEN_BUDGET
    assert q == {"a": 333_334, "b": 333_333, "c": 333_333}


def test_source_token_divergence_exact(ray_session, tmp_path):
    """Hand-computed TV on two tiny sources; absent tokens contribute
    their mixture mass; case-folding and non-token separators apply."""
    from langfilter_ray.pipelines import text_analysis

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["A a, b!", "b c"], pa.string()),
            "lang": pa.array(["en", "en"], pa.string()),
            "source": pa.array(["alpha", "beta"], pa.string()),
            "n_chars": pa.array([7, 3], pa.int64()),
        }
    )
    got = _check_vs_oracle(
        text_analysis.source_token_divergence,
        text_analysis.ORACLES["source_token_divergence"],
        tmp_path, "documents", tbl,
    )
    by = got.set_index("source")
    # N=5, Ns(alpha)=3 {a:2,b:1}, Ns(beta)=2 {b:1,c:1}; C={a:2,b:2,c:1}
    # alpha: |5*2-3*2|+|5*1-3*2|+|0-3*1| = 4+1+3 = 8 -> 8/(2*3*5)
    # beta:  |0-2*2|+|5*1-2*2|+|5*1-2*1| = 4+1+3 = 8 -> 8/(2*2*5)
    assert by.loc["alpha", "n_tokens"] == 3
    assert by.loc["beta", "n_tokens"] == 2
    assert by.loc["alpha", "tv_divergence"] == 8.0 / 30.0
    assert by.loc["beta", "tv_divergence"] == 8.0 / 20.0

def test_ngram_novelty_first_seen(ray_session, tmp_path):
    """A gram repeated from an EARLIER doc_id counts as repeated; the
    first holder does not; within-doc repeats are distinct-once; docs
    under 5 words emit no row."""
    from langfilter_ray.pipelines import text_analysis

    texts = {
        1: "a b c d e f",        # grams {abcde, bcdef}, both first here
        2: "a b c d e x",        # {abcde (seen in 1), bcdex (new)}
        3: "a b c d",            # too short -> no row
        4: "z z z z z z",        # one distinct gram, first here
    }
    tbl = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array([texts[k] for k in texts], pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["syn"] * 4, pa.string()),
            "n_chars": pa.array([len(texts[k]) for k in texts], pa.int64()),
        }
    )
    got = _check_vs_oracle(
        text_analysis.ngram_novelty,
        text_analysis.ORACLES["ngram_novelty"],
        tmp_path, "documents", tbl,
    )
    by = {
        int(r["doc_id"]): (int(r["n_grams"]), int(r["n_repeated"]))
        for _, r in got.iterrows()
    }
    assert by == {1: (2, 0), 2: (2, 1), 4: (1, 0)}

def test_dup_rate_by_source_cross_source(ray_session, tmp_path, monkeypatch):
    """A digest shared ACROSS sources marks the doc dup in each source;
    singletons don't; the zero-threshold-forced bucket reduce matches
    the broadcast fold exactly (the module's standard parity contract)."""
    from langfilter_ray.pipelines import dedup

    texts = ["x", "y", "x", "x", "z"]
    srcs = ["alpha", "alpha", "alpha", "beta", "beta"]
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(1, 6)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 5, pa.string()),
            "source": pa.array(srcs, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    got = _check_vs_oracle(
        dedup.dup_rate_by_source,
        dedup.ORACLES["dup_rate_by_source"],
        tmp_path, "documents", tbl,
    )
    by = {
        r["source"]: (int(r["n_docs"]), int(r["n_dup_docs"]))
        for _, r in got.iterrows()
    }
    assert by == {"alpha": (3, 2), "beta": (2, 1)}
    monkeypatch.setattr(dedup, "DEDUP_EXACT_BROADCAST_MAX_ROWS", 0)
    again = _check_vs_oracle(
        dedup.dup_rate_by_source,
        dedup.ORACLES["dup_rate_by_source"],
        tmp_path, "documents", tbl,
    )
    assert again.equals(got)

def test_source_simpson_diversity_edges(ray_session, tmp_path):
    """A single-token source takes the -1.0 sentinel (undefined Simpson);
    a repeated-token source computes pairs exactly; tokens aggregate
    across DOCS of the same source before c(c-1)."""
    from langfilter_ray.pipelines import text_analysis

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["hello", "aa aa bb", "aa cc"], pa.string()),
            "lang": pa.array(["en"] * 3, pa.string()),
            "source": pa.array(["solo", "rep", "rep"], pa.string()),
            "n_chars": pa.array([5, 8, 5], pa.int64()),
        }
    )
    got = _check_vs_oracle(
        text_analysis.source_simpson_diversity,
        text_analysis.ORACLES["source_simpson_diversity"],
        tmp_path,
        "documents",
        docs,
    )
    rows = {
        r["source"]: (int(r["n_tokens"]), int(r["pairs_same"]), r["simpson"])
        for _, r in got.iterrows()
    }
    # rep: tokens aa,aa,bb,aa,cc -> c = {aa:3, bb:1, cc:1};
    #   pairs = 3*2 = 6 over N(N-1) = 20
    assert rows["solo"] == (1, 0, -1.0)
    assert rows["rep"] == (5, 6, 6.0 / 20.0)

def _write_embeddings(tmp_path, vecs):
    """vecs: list of 64-float lists."""
    emb = pa.table(
        {
            "vec_id": pa.array(list(range(1, len(vecs) + 1)), pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
            "label": pa.array([0] * len(vecs), pa.int32()),
        }
    )
    pq.write_table(emb, tmp_path / "embeddings.parquet")


def test_embedding_top_eigval_axis_and_zero(ray_session, tmp_path):
    """Pin the spectral arithmetic on a hand-computable spectrum: all
    vectors along coordinate 7 (C is a single diagonal cell, so the
    Rayleigh quotient is EXACTLY n·(0.5·1000)² and the eigenvector is
    e7 regardless of the mixed signs), and the all-zero corpus (zero
    iterate -> -1.0 sentinel, argmax tie resolves to coordinate 0)."""
    from langfilter_ray.pipelines import similarity

    d = tmp_path / "axis"
    d.mkdir()
    vecs = []
    for s in (0.5, 0.5, -0.5):
        v = [0.0] * 64
        v[7] = s
        vecs.append(v)
    _write_embeddings(d, vecs)
    got = _to_pandas(similarity.embedding_top_eigval(str(d)))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW embeddings AS SELECT * "
        f"FROM read_parquet('{d}/embeddings.parquet')"
    )
    want = c.execute(similarity.ORACLES["embedding_top_eigval"]).df()
    problems = compare_frames(_canon(got), _canon(want))
    assert not problems, (problems, first_diff(_canon(got), _canon(want)))
    r = got.iloc[0]
    assert r["rayleigh"] == 3 * 500.0 ** 2       # n * (0.5*1000)^2 exactly
    assert (int(r["top_coord"]), int(r["top_sign"])) == (7, 1)

    z = tmp_path / "zero"
    z.mkdir()
    _write_embeddings(z, [[0.0] * 64, [0.0] * 64])
    got_z = _to_pandas(similarity.embedding_top_eigval(str(z)))
    c2 = duckdb.connect()
    c2.execute(
        f"CREATE VIEW embeddings AS SELECT * "
        f"FROM read_parquet('{z}/embeddings.parquet')"
    )
    want_z = c2.execute(similarity.ORACLES["embedding_top_eigval"]).df()
    problems = compare_frames(_canon(got_z), _canon(want_z))
    assert not problems, (problems, first_diff(_canon(got_z), _canon(want_z)))
    r = got_z.iloc[0]
    assert r["rayleigh"] == -1.0
    assert (int(r["top_coord"]), int(r["top_sign"])) == (0, 0)


def test_cm_sketch_tokens_no_collision_exact(ray_session, tmp_path):
    """With far fewer tokens than buckets and no md5 collisions the
    count-min estimate equals the exact count (over_ratio exactly 1.0);
    CM never underestimates, so over_ratio >= 1.0 is asserted as the
    engine invariant too."""
    from langfilter_ray.pipelines import text_analysis

    d = tmp_path / "main"
    d.mkdir()
    docs = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "text": pa.array(["alpha alpha beta", "alpha beta gamma"],
                          pa.string()),
         "lang": pa.array(["en", "en"], pa.string()),
         "source": pa.array(["s1", "s1"], pa.string()),
         "n_chars": pa.array([16, 16], pa.int64())}
    )
    pq.write_table(docs, d / "documents.parquet")
    got = _to_pandas(text_analysis.cm_sketch_tokens(str(d)))
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * "
        f"FROM read_parquet('{d}/documents.parquet')"
    )
    want = c.execute(text_analysis.ORACLES["cm_sketch_tokens"]).df()
    problems = compare_frames(_canon(got), _canon(want))
    assert not problems, (problems, first_diff(_canon(got), _canon(want)))
    assert list(got["token"]) == ["alpha", "beta", "gamma"]
    assert list(got["n_exact"]) == [3, 2, 1]
    # 3 tokens in 256 buckets: verify collision-freeness per row, then
    # the estimates must be exactly the true counts
    buckets = {
        r: [text_analysis._cm_bucket(r, t) for t in ("alpha", "beta", "gamma")]
        for r in range(text_analysis.CM_ROWS)
    }
    assert any(len(set(v)) == 3 for v in buckets.values())
    assert (got["over_ratio"] >= 1.0).all()
    assert list(got["cm_est"]) == [3, 2, 1]


def test_dict_match_census_adjacent_and_zero_rows(ray_session, tmp_path):
    """Adjacent occurrences both count ('valuevalue' -> 2); a source with
    zero matches still emits its (source, pattern) rows with 0/0; doc-hit
    counts documents, not occurrences."""
    from langfilter_ray.pipelines import text_analysis

    tbl = pa.table(
        {"doc_id": pa.array([1, 2, 3], pa.int64()),
         "text": pa.array(
             ["valuevalue table", "value", "zzz qqq"], pa.string()),
         "lang": pa.array(["en"] * 3, pa.string()),
         "source": pa.array(["a", "a", "b"], pa.string()),
         "n_chars": pa.array([16, 5, 7], pa.int64())}
    )
    got = _check_vs_oracle(
        text_analysis.dict_match_census,
        text_analysis.ORACLES["dict_match_census"],
        tmp_path, "documents", tbl,
    )
    assert len(got) == 16     # 2 sources x 8 patterns
    by = {(r["source"], r["pat"]): (r["n_matches"], r["n_docs_hit"])
          for _, r in got.iterrows()}
    assert by[("a", "value")] == (3, 2)   # 2 adjacent + 1
    assert by[("a", "table")] == (1, 1)
    assert by[("b", "value")] == (0, 0)


def test_embedding_closest_pair_grid_dups_and_ties(ray_session, tmp_path):
    """Three regimes: (1) duplicate coordinates short-circuit to dist2=0
    with the smallest id pair among ALL duplicate coords; (2) distinct
    coords where the closest pair straddles two grid cells; (3) a random
    cloud where the grid answer must equal the brute-force SQL oracle."""
    from langfilter_ray.pipelines import similarity

    def vec(x, y):
        return [x / 1000.0 + 0.0001, y / 1000.0 + 0.0001] + [0.0] * 62

    # (1) dups: ids 3&4 share (50,50); ids 1&5 share (90,90) -> lexmin (1,5)
    d1 = tmp_path / "dups"
    d1.mkdir()
    vs = {1: (90, 90), 2: (0, 0), 3: (50, 50), 4: (50, 50), 5: (90, 90)}
    _write_embeddings(d1, [vec(*vs[i]) for i in sorted(vs)])
    got = _to_pandas(similarity.embedding_closest_pair(str(d1)))
    assert (int(got["vec_a"][0]), int(got["vec_b"][0]),
            int(got["dist2"][0])) == (1, 5, 0)

    # (2) far-flung cloud: closest pair (1000,1000)-(1003,1004) d2=25
    # in different cells for any s<=4; d0 comes from a distant pair
    d2 = tmp_path / "cells"
    d2.mkdir()
    pts = [(0, 0), (1000, 1000), (1003, 1004), (2000, 0), (2000, 30)]
    _write_embeddings(d2, [vec(*p) for p in pts])
    got = _check_vs_oracle(
        similarity.embedding_closest_pair,
        similarity.ORACLES["embedding_closest_pair"],
        d2, "embeddings",
        pq.read_table(d2 / "embeddings.parquet"),
    )
    assert (int(got["vec_a"][0]), int(got["vec_b"][0]),
            int(got["dist2"][0])) == (2, 3, 25)

    # (3) 200-point deterministic random cloud vs the O(n^2) oracle
    d3 = tmp_path / "rand"
    d3.mkdir()
    rng = np.random.RandomState(11)
    cloud = rng.randint(-400, 400, size=(200, 2))
    _write_embeddings(d3, [vec(int(a), int(b)) for a, b in cloud])
    _check_vs_oracle(
        similarity.embedding_closest_pair,
        similarity.ORACLES["embedding_closest_pair"],
        d3, "embeddings",
        pq.read_table(d3 / "embeddings.parquet"),
    )
