"""Empty-input edge cases for the join-backed operators (code-review
round-2 findings): a corpus with ZERO near-dup candidates and a build
side with ZERO matching rows used to crash the hash joins (an empty
Dataset loses its schema); they must return typed empty / pass-through
results instead."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def clean_sf(tmp_path_factory, ray_session) -> str:
    """An sf-dir whose documents are all unique (no LSH candidates) and
    whose events contain no 'purchase' rows."""
    d = tmp_path_factory.mktemp("clean_sf")
    rng = np.random.RandomState(11)
    words = [f"w{int(i)}x{int(rng.randint(1e6))}" for i in range(600)]
    docs = pa.table(
        {
            "doc_id": pa.array(range(20), pa.int64()),
            "text": pa.array(
                [" ".join(words[i * 30:(i + 1) * 30]) for i in range(20)]
            ),
        }
    )
    pq.write_table(docs, d / "documents.parquet")
    # pairwise-orthogonal embeddings: no pair can clear COSINE_THRESHOLD
    emb = pa.table(
        {
            "vec_id": pa.array(range(64), pa.int64()),
            "embedding": pa.array(
                np.eye(64, dtype=np.float64).tolist(), pa.list_(pa.float64())
            ),
        }
    )
    pq.write_table(emb, d / "embeddings.parquet")
    events = pa.table(
        {
            "event_id": pa.array(range(50), pa.int64()),
            "user_id": pa.array([i % 7 for i in range(50)], pa.int64()),
            "event_type": pa.array(["view"] * 50),
        }
    )
    pq.write_table(events, d / "events.parquet")
    return str(d)


def test_no_candidates_returns_typed_empty(clean_sf):
    # NOTE: Dataset.to_pandas() drops columns for any 0-row dataset, so
    # the schema (what the downstream joins need) is asserted on the
    # Dataset itself.
    from langfilter_ray.pipelines import dedup

    cand = dedup.minhash_candidates(clean_sf)
    assert cand.count() == 0 and cand.schema().names == ["doc_a", "doc_b"]

    jac = dedup.dedup_jaccard(clean_sf)
    assert jac.count() == 0
    assert jac.schema().names == ["doc_a", "doc_b", "jaccard"]

    comp = dedup.dedup_components(clean_sf)
    assert comp.count() == 0
    assert comp.schema().names == ["doc_id", "rep_doc_id"]

    surv = dedup.dedup_survivors(clean_sf).to_pandas()
    assert sorted(surv["doc_id"]) == list(range(20))   # everyone survives


def test_ivf_no_pairs_returns_typed_empty(clean_sf):
    """Orthogonal embeddings -> zero pairs above COSINE_THRESHOLD: the
    final groupby must not lose its schema (advice r2: reproduced
    AttributeError on the schemaless empty stream)."""
    from langfilter_ray.pipelines import dedup

    out = dedup.dedup_embedding_ivf(clean_sf)
    assert out.count() == 0
    assert out.schema().names == ["id_a", "id_b"]


def test_heavy_hitters_flat_vocab_returns_typed_empty(clean_sf):
    """All-unique vocabulary -> no per-batch candidate -> phase B must
    short-circuit with a typed empty table, not a schema-None dataset."""
    from langfilter_ray.pipelines import text_analysis

    out = text_analysis.heavy_hitter_tokens(clean_sf)
    assert out.num_rows == 0
    assert out.schema.names == ["token", "n_occurrences"]


def test_live_metrics_readers_do_not_create_actor(ray_session):
    """snapshot() must raise (not create) when no pipeline has built the
    counter actor; reset() must be a no-op (advice r2: a transient first
    caller would own the keepalive and kill the counters mid-run)."""
    import ray as _ray

    from langfilter_ray.state import live_metrics

    # ensure no actor exists from an earlier test in this session
    try:
        _ray.kill(_ray.get_actor(live_metrics.ACTOR_NAME))
    except ValueError:
        pass
    live_metrics.reset()   # no-op, must not create
    with pytest.raises(RuntimeError, match="live-metrics actor"):
        live_metrics.snapshot()
    with pytest.raises(ValueError):
        _ray.get_actor(live_metrics.ACTOR_NAME)


def test_dedup_embedding_refuses_oversized_input(clean_sf, monkeypatch):
    """The exact full-matrix baseline must refuse inputs above its row
    cap (it broadcasts the whole normalized matrix) and point at the IVF
    scale path, instead of OOMing at scale."""
    from langfilter_ray.pipelines import dedup

    monkeypatch.setattr(dedup, "DEDUP_EMBEDDING_MAX_ROWS", 10)
    with pytest.raises(ValueError, match="dedup_embedding_ivf"):
        dedup.dedup_embedding(clean_sf)


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory, ray_session) -> str:
    """An sf-dir with ZERO-row events (typed ts/value schema) and a
    documents table whose only source has no tokens."""
    d = tmp_path_factory.mktemp("empty_sf")
    events = pa.table(
        {
            "ts": pa.array([], pa.timestamp("us")),
            "value": pa.array([], pa.float64()),
            "user_id": pa.array([], pa.int64()),
            "event_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
        }
    )
    pq.write_table(events, d / "events.parquet")
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["!!! ???", "%%% ..."]),
            "source": pa.array(["punct", "punct"]),
        }
    )
    pq.write_table(docs, d / "documents.parquet")
    return str(d)


@pytest.mark.parametrize(
    "name",
    [
        "status_counts", "event_type_by_bucket", "recent_window_count",
        "top50_recent", "events_filtered_sorted",
    ],
)
def test_events_queries_typed_on_empty_events(empty_sf, name):
    """Zero events must give the oracle's column names and dtypes, not a
    schemaless empty result."""
    import duckdb

    from langfilter_ray.pipelines import relational
    from langfilter_ray.testing import canon, compare_frames

    got = getattr(relational, name)(empty_sf).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{empty_sf}/events.parquet'"
    )
    want = con.execute(relational.ORACLES[name]).df()
    assert compare_frames(canon(got), canon(want)) == []


def test_common_reader_drops_schema_metadata(tmp_path, ray_session):
    """Blocks from the shared reader carry no pandas schema metadata (an
    unhashable schema spams 'Failed to hash the schemas' in shuffles)."""
    from langfilter_ray.pipelines._common import _read

    df = pd.DataFrame({"doc_id": [0, 1], "source": ["a", "b"]})
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "documents.parquet")
    assert b"pandas" in pq.read_schema(tmp_path / "documents.parquet").metadata
    ds = _read(str(tmp_path), "documents", ["doc_id", "source"])
    blocks = [ray_session.get(r) for r in ds.to_arrow_refs()]
    assert blocks and all(b.schema.metadata is None for b in blocks)


def test_pandas_combiner_queries_log_no_schema_hash_failure():
    """The three queries whose per-batch combiner builds its block with
    ``pa.Table.from_pandas`` run at sf0.001 without Ray Data logging
    'Failed to hash the schemas' (pandas metadata on those blocks is an
    unhashable schema).  A fresh process, so the log lines of the process
    that runs the queries and of its Ray workers are all captured."""
    import subprocess
    import sys
    from pathlib import Path

    from test_operators import SF

    script = (
        "import sys, ray\n"
        "ray.init(address='local', num_cpus=2, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "from langfilter_ray.pipelines import reports, text_analysis\n"
        "for q in (text_analysis.top_docs_per_lang,"
        " text_analysis.source_quota_sample, reports.corpus_clean):\n"
        "    print(q.__name__, len(q(sys.argv[1]).to_pandas()))\n"
        "ray.shutdown()\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", script, SF],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True, text=True, timeout=600,
    )
    out = r.stdout + r.stderr
    assert r.returncode == 0, out[-3000:]
    assert "corpus_clean" in r.stdout
    assert "Failed to hash the schemas" not in out


def test_pipelines_read_tables_only_through_common_reader():
    """Every sf-table read goes through ``_common._read``.  The only
    other ``read_parquet`` calls read a corpus directory
    (``quality_filter.read_corpus``) or re-read an intermediate
    (``reports._corpus_manifest_dataset``)."""
    import ast
    from pathlib import Path

    import langfilter_ray.pipelines as pipelines

    allowed = {
        ("_common", "_read"),
        ("quality_filter", "read_corpus"),
        ("reports", "_corpus_manifest_dataset"),
    }
    found = set()
    for path in sorted(Path(pipelines.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "read_parquet":
                    found.add((path.stem, getattr(top, "name", "<module>")))
    assert found - allowed == set(), sorted(found - allowed)


def test_domain_mix_weights_zero_token_source(empty_sf):
    """A token-less source gets mix_weight 0 on BOTH engines (no division
    by zero); matches the CASE branch in the oracle SQL."""
    import duckdb

    import __ray_entry__ as e
    from langfilter_ray.pipelines import text_analysis

    got = text_analysis.domain_mix_weights(empty_sf).to_pandas()
    assert list(got["mix_weight"]) == [0.0]
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{empty_sf}/documents.parquet'"
    )
    want = con.execute(e.all_oracle_sql()["domain_mix_weights"]).df()
    assert list(want["mix_weight"]) == [0.0]


def test_domain_mix_weights_token_less_input_warns_nothing(empty_sf):
    """An input whose every source has no token divides nothing by zero:
    the weights are 0 and numpy raises no RuntimeWarning."""
    import warnings

    from langfilter_ray.pipelines import text_analysis

    # RuntimeWarning only: "error" for every class would turn Ray's own
    # ResourceWarning at dataset shutdown into an unraisable exception
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = text_analysis.domain_mix_weights(empty_sf).to_pandas()
    assert list(got["n_tokens"]) == [0]
    assert list(got["mix_weight"]) == [0.0]


def test_probe_lookup_empty_dim_all_null(ray_session):
    """An empty dimension table must probe to all-None, not IndexError
    (review r3 finding)."""
    import ray as _ray

    from langfilter_ray.pipelines._common import _probe_lookup

    ref = _ray.put((np.array([], dtype=np.int64), np.array([], dtype=np.int64)))
    lut = np.asarray(["x", None], dtype=object)
    got = _probe_lookup(ref, lut, np.array([1, 2, 3]))
    assert list(got) == [None, None, None]


def test_http_read_rejects_reader_kwargs(ray_session):
    from langfilter_ray.sources import io as src_io

    with pytest.raises(TypeError, match="columns"):
        src_io.read_table("http://127.0.0.1:9/x.parquet", filter="a > 1")


def test_dedup_survivors_dense_drop_list(tmp_path_factory, ray_session):
    """Heavily duplicated corpus -> drop list over the dense threshold ->
    the streaming left_outer anti-join path must produce exactly one
    survivor (the min doc_id) per duplicate group."""
    d = tmp_path_factory.mktemp("dup_sf")
    n_groups, per_group = 30, 10
    texts, ids = [], []
    for g in range(n_groups):
        body = " ".join(f"tok{g}w{j} common{j % 5}" for j in range(40))
        for k in range(per_group):
            ids.append(g * per_group + k)
            texts.append(body)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        d / "documents.parquet",
    )
    from langfilter_ray.pipelines import dedup

    surv = sorted(dedup.dedup_survivors(str(d)).to_pandas()["doc_id"])
    assert surv == [g * per_group for g in range(n_groups)]


def test_minhash_hot_bucket_star_expansion(tmp_path_factory, ray_session):
    """Buckets above the cap expand as stars: connectivity (what
    components/survivors need) is preserved while the pair count drops
    from ~|bucket|^2/2 to |bucket|-1."""
    d = tmp_path_factory.mktemp("hot_sf")
    body = " ".join(f"w{j} filler{j % 7}" for j in range(60))
    texts = [body] * 10 + [
        " ".join(f"u{g}x{j} zz{j}" for j in range(40)) for g in range(5)
    ]
    ids = list(range(len(texts)))
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        d / "documents.parquet",
    )
    from langfilter_ray.pipelines import dedup

    capped = dedup.minhash_candidates(str(d), hot_bucket_cap=4).to_pandas()
    full = dedup.minhash_candidates(str(d)).to_pandas()
    # quadratic: 45 pairs for the 10-clique; star: 9 edges rooted at min
    dup_full = full[(full["doc_a"] < 10) & (full["doc_b"] < 10)]
    dup_capped = capped[(capped["doc_a"] < 10) & (capped["doc_b"] < 10)]
    assert len(dup_full) == 45
    assert sorted(zip(dup_capped["doc_a"], dup_capped["doc_b"])) == [
        (0, b) for b in range(1, 10)
    ]

    # connectivity: union-find over capped pairs gives the same component
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(capped["doc_a"], capped["doc_b"]):
        parent[find(int(b))] = find(int(a))
    comp = {find(i) for i in range(10)}
    assert comp == {0}
    assert all(find(i) == i for i in range(10, 15))   # uniques untouched
