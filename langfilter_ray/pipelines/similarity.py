"""Similarity search over the ``embeddings`` table (list<float> column).

  ann_topk — brute-force cosine top-k: the query matrix (a handful of
             vectors) is broadcast via ``ray.put``; every batch computes a
             (queries x batch) float64 matmul and emits its LOCAL top-k per
             query; a final tiny ``groupby(query_id).map_groups`` reduces
             local candidates to the global top-k.  The shuffle carries
             only ~k rows per (query, block) — never embeddings.
  ann_ivf  — IVF-bucketed variant (the scale path): K driver-trained
             centroids are broadcast, each batch scores only the vectors
             in a query's ``nprobe`` nearest cells.  Rows-only check
             (approximate by design; recall vs ann_topk pinned in tests).

Ranking ties are broken by vec_id ascending on both the Ray and SQL sides
so the (query_id, neighbor_id, rank) output is deterministic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ._common import _read, _typed

TOP_K = 5
N_QUERIES = 8          # vec_id < N_QUERIES are the query vectors


TRAIN_SAMPLE_ROWS = 100_000     # driver-side centroid-training sample cap


def _load(sf_dir: str, max_rows: int | None = None):
    """Driver-side (vec_id, normalized matrix) — used ONLY for tiny
    driver-side artifacts (centroid training, the brute-force baseline).
    ``max_rows`` caps the read at the FIRST n rows (row-group streaming,
    deterministic) so centroid training stays bounded however large the
    table grows; at test scale the cap exceeds the table and reads all."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    if max_rows is None:
        t = pf.read(columns=["vec_id", "embedding"])
    else:
        batches = []
        seen = 0
        for b in pf.iter_batches(columns=["vec_id", "embedding"]):
            batches.append(b)
            seen += len(b)
            if seen >= max_rows:
                break
        t = pa.Table.from_batches(batches) if batches else pf.read(
            columns=["vec_id", "embedding"]
        )
        t = t.slice(0, max_rows)
    ids = t["vec_id"].to_numpy()
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, mat / norms


def _normalize(bmat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(bmat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return bmat / norms


def _train_centroids(
    m: np.ndarray, K: int, iters: int = 5, block: int = 8192
) -> np.ndarray:
    """Deterministic coarse quantizer shared by ann_ivf and
    dedup.dedup_embedding_ivf: linspace-seeded centroids over the
    id-sorted sample, ``iters`` Lloyd rounds with cosine (argmax dot)
    assignment computed in ``block``-row chunks so driver memory stays
    bounded at any K, zero-norm means left unreplaced."""
    cent = m[np.linspace(0, len(m) - 1, K).astype(int)].copy()
    for _ in range(iters):
        assign = np.empty(len(m), dtype=np.int64)
        for s in range(0, len(m), block):
            assign[s:s + block] = np.argmax(m[s:s + block] @ cent.T, axis=1)
        for k in range(K):
            sel = m[assign == k]
            if len(sel):
                c = sel.mean(axis=0)
                n = np.linalg.norm(c)
                if n > 0:
                    cent[k] = c / n
    return cent


def _load_queries(sf_dir: str):
    """Driver-side read of ONLY the query vectors (row-filtered at the
    parquet read — a handful of rows regardless of corpus size)."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", N_QUERIES)],
    )
    if t.num_rows == 0:
        return np.empty(0, np.int64), np.empty((0, 0))
    ids = t["vec_id"].to_numpy()
    order = np.argsort(ids)
    ids = ids[order]
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)[order]
    return ids, _normalize(mat)


def ann_topk(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """Brute-force cosine top-k: ONLY the tiny query matrix is broadcast;
    candidate embeddings stream through map_batches (read from the batch's
    own ``embedding`` column, normalized in-batch — bit-identical to
    normalizing the whole matrix up front since the norm is per-row)."""
    schema = pa.schema(
        [("query_id", pa.int64()), ("neighbor_id", pa.int64()),
         ("rank", pa.int64())]
    )
    qids, qmat = _load_queries(sf_dir)
    if len(qids) == 0:
        return schema.empty_table()     # no query vector, no neighbours
    qref = ray.put((qids, qmat))

    def local_topk(t: pa.Table) -> pa.Table:
        q_ids, q_mat = ray.get(qref)
        batch_ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
        bmat = _normalize(np.asarray(t["embedding"].to_pylist(), dtype=np.float64))
        sims = q_mat @ bmat.T                   # (Q, B)
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(q_ids):
            s = sims[qi]
            mask = batch_ids != qid             # exclude self
            cand_idx = np.nonzero(mask)[0]
            if len(cand_idx) == 0:
                continue
            # local top-k with (sim desc, vec_id asc) tie-break
            order = np.lexsort((batch_ids[cand_idx], -s[cand_idx]))[:TOP_K]
            for o in cand_idx[order]:
                out_q.append(int(qid))
                out_n.append(int(batch_ids[o]))
                out_s.append(float(s[o]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    def reduce_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"], ascending=[False, True]).head(TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    local = ds.map_batches(local_topk, batch_format="pyarrow", batch_size=512)
    return _typed(
        local.groupby("query_id").map_groups(reduce_topk, batch_format="pandas"),
        schema,
    )


ANN_TOPK_SQL = (
    "SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id, "
    "row_number() OVER (PARTITION BY q.vec_id ORDER BY "
    "list_cosine_similarity(q.embedding, n.embedding) DESC, n.vec_id) AS rank "
    f"FROM embeddings q JOIN embeddings n ON q.vec_id < {N_QUERIES} "
    "AND n.vec_id != q.vec_id "
    f"QUALIFY rank <= {TOP_K}"
)


def ann_ivf(sf_dir: str) -> ray.data.Dataset:
    """IVF-bucketed ANN — the coarse-quantizer scale path: K centroids are
    trained driver-side on a deterministic sample (here the whole table; at
    100 TB a `ds.limit(n)` sample) with fixed init + 5 Lloyd iterations,
    then broadcast.  Each batch assigns its OWN vectors to centroids and
    scores only those falling in a query's `nprobe` nearest clusters, so
    no full matrix is ever broadcast — candidate
    embeddings stream through `map_batches` and the shuffle carries only
    local top-k survivor rows.  Approximate by design → rows-only check
    (recall vs exact ann_topk asserted in tests)."""
    # query vectors come from the row-FILTERED parquet read, never the
    # training sample — a query row past the 100k sample cap would
    # otherwise be silently dropped
    qids, qmat = _load_queries(sf_dir)
    if len(qids) == 0:
        return pa.schema(
            [("query_id", pa.int64()), ("neighbor_id", pa.int64()),
             ("rank", pa.int64())]
        ).empty_table()     # no query vector, no neighbours
    ids, mat = _load(sf_dir, max_rows=TRAIN_SAMPLE_ROWS)
    K, NPROBE = 8, 4      # recall/speed knob: probe half the coarse cells
    m = mat[np.argsort(ids)]
    cent = _train_centroids(m, K)
    qprobe = np.argsort(-(qmat @ cent.T), axis=1)[:, :NPROBE]
    ref = ray.put((qids, qmat, cent, qprobe))

    def local_search(t: pa.Table) -> pa.Table:
        q_ids, q_mat, c, probes = ray.get(ref)
        bids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
        bmat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(bmat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        bmat = bmat / norms
        bassign = np.argmax(bmat @ c.T, axis=1)
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(q_ids):
            mask = np.isin(bassign, probes[qi]) & (bids != qid)
            cand = np.nonzero(mask)[0]
            if len(cand) == 0:
                continue
            sims = bmat[cand] @ q_mat[qi]
            keep = np.lexsort((bids[cand], -sims))[:TOP_K]
            for o in keep:
                out_q.append(int(qid))
                out_n.append(int(bids[cand[o]]))
                out_s.append(float(sims[o]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    def reduce_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"], ascending=[False, True]).head(TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "neighbor_id", "rank"]]

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    local = ds.map_batches(local_search, batch_format="pyarrow", batch_size=512)
    return local.groupby("query_id").map_groups(reduce_topk, batch_format="pandas")


# ---- per-label centroid (vector aggregate, quantized int sums) -----------

def label_centroids(sf_dir: str) -> ray.data.Dataset:
    """Per-(label, dim) embedding mean — a vector aggregate with exact
    cross-engine comparison: each float32 element is cast to float64 and
    quantized with floor(x*1e6+0.5) so the sums are INTEGER (order-free);
    each batch pre-sums per label (combiner: ≤ labels x 64 rows leave a
    batch), the groupby reduces partials, and the mean is one int/int
    division at the end."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        labels = t["label"].to_numpy()
        emb = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        q = np.floor(emb * 1_000_000 + 0.5).astype(np.int64)   # (B, D)
        dim = q.shape[1]
        out_l, out_d, out_s, out_n = [], [], [], []
        for lab in np.unique(labels):
            sel = q[labels == lab]
            sums = sel.sum(axis=0)
            out_l.extend([int(lab)] * dim)
            out_d.extend(range(1, dim + 1))
            out_s.extend(int(x) for x in sums)
            out_n.extend([len(sel)] * dim)
        return pa.table(
            {
                "label": pa.array(out_l, pa.int32()),
                "dim": pa.array(out_d, pa.int64()),
                "psum": pa.array(out_s, pa.int64()),
                "pn": pa.array(out_n, pa.int64()),
            }
        )

    agg = (
        _read(sf_dir, "embeddings", ["label", "embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("psum", alias_name="sum_q6"), Sum("pn", alias_name="n_vals"))
    )

    def add_mean(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mean = pc.divide(
            pc.cast(t["sum_q6"], pa.float64()), pc.cast(t["n_vals"], pa.float64())
        )
        return t.append_column("mean_q6", mean)

    return _typed(
        agg.map_batches(add_mean, batch_format="pyarrow"),
        pa.schema(
            [("label", pa.int64()), ("dim", pa.int64()), ("sum_q6", pa.int64()),
             ("n_vals", pa.int64()), ("mean_q6", pa.float64())]
        ),
    )


# ---- text -> embedding (batched-inference archetype) ---------------------

EMBED_DIM = 64


class _HashEmbedder:
    """Actor-pool embedding stage — the batched-model-inference archetype:
    the 'model' (here a deterministic char-trigram hasher, the sandbox
    stand-in for a sentence-transformer) loads ONCE per actor, every
    batch is embedded vectorized, and the output is a typed
    list<float64> vector column ready for the ann_* / dedup_embedding*
    operators.  Swap ``_embed`` for a real encoder call and the Ray-side
    plumbing is unchanged."""

    def __init__(self) -> None:
        # real impl: self.model = SentenceTransformer(...)
        # position-DISTINCT large odd multipliers (golden-ratio family):
        # small powers like (1, 257, 65537) are all ≡ 1 mod 256, which
        # makes the low bits depend only on the byte SUM — anagram
        # windows would collide.  Index and sign come from HIGH bits
        # after a final odd-multiply mix for the same reason.
        self.powers = np.array(
            [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
            dtype=np.uint64,
        )
        self.final_mix = np.uint64(0x2545F4914F6CDD1D)

    def _embed(self, text: str) -> np.ndarray:
        b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        v = np.zeros(EMBED_DIM, dtype=np.float64)
        if len(b) >= 3:
            from numpy.lib.stride_tricks import sliding_window_view

            h = (sliding_window_view(b, 3).astype(np.uint64)
                 * self.powers).sum(axis=1) * self.final_mix
            shift = np.uint64(64 - EMBED_DIM.bit_length() + 1)  # top log2(DIM) bits
            idx = (h >> shift).astype(np.int64)
            sign = np.where((h >> (shift - np.uint64(1))) & np.uint64(1), 1.0, -1.0)
            np.add.at(v, idx, sign)
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    def __call__(self, t: pa.Table) -> pa.Table:
        vecs = [self._embed(s or "") for s in t["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float64())
                ),
            }
        )


def embed_documents(sf_dir: str) -> ray.data.Dataset:
    """Per-doc unit-norm embedding via the actor-pool inference stage.
    Rows-only (model-based); determinism, unit norms and
    near-dup-consistency (identical text -> identical vector) pinned in
    tests."""
    from .quality_filter import _default_pool_size

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _HashEmbedder,
        batch_format="pyarrow",
        batch_size=256,
        # autoscaling up to the 3/4-of-CPUs rule (pool == CPUs starves
        # the read/write tasks — CLAUDE.md)
        concurrency=(1, _default_pool_size()),
        num_cpus=1,
    )


ORACLES: dict[str, str] = {
    "ann_topk": ANN_TOPK_SQL,
    "label_centroids": (
        "SELECT label::BIGINT AS label, dim, sum(qv)::BIGINT AS sum_q6, "
        "count(*)::BIGINT AS n_vals, "
        "sum(qv)::DOUBLE / count(*)::DOUBLE AS mean_q6 FROM ("
        "  SELECT label, generate_subscripts(embedding, 1) AS dim, "
        "         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000000 + 0.5) "
        "              AS BIGINT) AS qv"
        "  FROM embeddings"
        ") GROUP BY label, dim"
    ),
}


# ---- embedding_quant_stats: oracle-checkable list-column aggregate -------

EMB_QUANT_SCALE = 1000


def embedding_quant_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-label statistics over the list<float> embedding column with a
    HARD value oracle — the one embeddings operator whose output DuckDB
    can reproduce bit-for-bit (the ann_*/dedup_embedding family is
    rows-only by nature).  Components quantize FIRST
    (floor(x*1000+0.5) in float64, exact-identical IEEE on both sides)
    and only int64 sums/extrema aggregate after, so no float summation
    order can flip a value (CLAUDE.md integer-cents rule applied to
    vectors).

    Per batch: one zero-copy flatten of the list column, one vectorized
    quantize, np.add.reduceat per-row segment sums, then a pyarrow
    combiner per label — the shuffle carries ≤ |labels| rows per batch,
    never a vector."""
    from ray.data.aggregate import Max, Min, Sum

    def f(t: pa.Table) -> pa.Table:
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat * EMB_QUANT_SCALE + 0.5).astype(np.int64)
        offs = emb.offsets.to_numpy()
        starts = offs[:-1]
        sums = np.add.reduceat(q, starts) if len(q) else np.array([], np.int64)
        mins = np.minimum.reduceat(q, starts) if len(q) else np.array([], np.int64)
        maxs = np.maximum.reduceat(q, starts) if len(q) else np.array([], np.int64)
        part = pa.table(
            {
                "label": pc.cast(t["label"], pa.int64()),
                "n_p": pa.array(np.ones(t.num_rows, np.int64)),
                "sum_p": pa.array(sums),
                "min_p": pa.array(mins),
                "max_p": pa.array(maxs),
            }
        )
        g = part.group_by("label").aggregate(
            [("n_p", "sum"), ("sum_p", "sum"), ("min_p", "min"), ("max_p", "max")]
        )
        return g.rename_columns(["label", "n_p", "sum_p", "min_p", "max_p"])

    return (
        _read(sf_dir, "embeddings", ["label", "embedding"])
        .map_batches(f, batch_format="pyarrow")
        .groupby("label")
        .aggregate(
            Sum("n_p", alias_name="n_vecs"),
            Sum("sum_p", alias_name="sum_q"),
            Min("min_p", alias_name="min_q"),
            Max("max_p", alias_name="max_q"),
        )
        .sort("label")
    )


ORACLES["embedding_quant_stats"] = (
    "WITH q AS (SELECT label::BIGINT AS label, "
    f"list_transform(embedding, x -> floor(CAST(x AS DOUBLE)*{EMB_QUANT_SCALE}+0.5)::BIGINT) "
    "AS ql FROM embeddings) "
    "SELECT label, count(*)::BIGINT AS n_vecs, "
    "sum(list_sum(ql))::BIGINT AS sum_q, "
    "min(list_min(ql))::BIGINT AS min_q, "
    "max(list_max(ql))::BIGINT AS max_q "
    "FROM q GROUP BY 1 ORDER BY 1"
)


# ---- fully-distributed iterative k-means (Lloyd) ---------------------------

KMEANS_K = 8
KMEANS_ITERS = 5
_KMEANS_Q = 1_000_000        # int64 micro-quantization of embedding space


def _kmeans_quantize(t: pa.Table) -> np.ndarray:
    """(rows, dim) int64 micros from the list<float> column — zero-copy
    flatten + reshape, then one deterministic round-to-int."""
    col = t["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    mat = flat.reshape(len(t), -1).astype(np.float64)
    return np.floor(mat * _KMEANS_Q + 0.5).astype(np.int64)


def _kmeans_init(sf_dir: str, k: int) -> np.ndarray:
    """Deterministic seeds: the quantized embeddings at K linspace row
    positions (bounded driver read: exactly K rows kept)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    n = pf.metadata.num_rows
    want = set(np.linspace(0, n - 1, k).astype(np.int64).tolist())
    rows, seen = [], 0
    for b in pf.iter_batches(columns=["embedding"]):
        for local in range(len(b)):
            if seen + local in want:
                rows.append(b.slice(local, 1))
        seen += len(b)
        if len(rows) == len(want):
            break
    return np.concatenate(
        [_kmeans_quantize(pa.Table.from_batches([r])) for r in rows]
    )


def _kmeans_assign(q: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """Argmin of EXACT integer squared L2 — |q|,|cent| <= ~1e6 micros and
    dim <= 64, so every distance fits int64 with 4 decades of headroom;
    integer distances make the argmin (lowest index on ties) identical
    for ANY batch shape, which is what lets the distributed run equal
    the single-machine reference bit-for-bit."""
    qq = (q * q).sum(axis=1, keepdims=True)
    cc = (cent * cent).sum(axis=1)[None, :]
    d2 = qq + cc - 2 * (q @ cent.T)
    return np.argmin(d2, axis=1)


def kmeans_fit(sf_dir: str) -> "pa.Table":
    """Fully-DISTRIBUTED Lloyd k-means over the whole embeddings table —
    the iterative-algorithm archetype (contrast: ``ann_ivf`` trains its
    coarse quantizer driver-side on a bounded sample).  Per iteration:

      broadcast  centroids via ray.put (K x dim ints, tiny),
      map        each batch quantizes, assigns by EXACT integer distance,
                 and emits K x (dim+1) partial rows (per-cluster int64
                 dim-sums + count) — the map-side combiner, so the
                 shuffle is K*(dim+1) rows per batch regardless of size,
      reduce     one bounded groupby Sums partials; the driver updates
                 K centroids (state O(K x dim)) — empty clusters keep
                 their previous centroid.

    All accumulation is int64 on quantized values, so the result is
    independent of partitioning and summation order: the test asserts
    BIT-FOR-BIT equality with a single-machine numpy reference.  Returns
    (cluster_id, n_points, centroid_micros list<int64>); rows-only (an
    iterative fixpoint has no SQL oracle)."""
    from ray.data.aggregate import Sum

    from ._common import _dim_num_rows

    if _dim_num_rows(sf_dir, "embeddings") == 0:
        return pa.schema(
            [("cluster_id", pa.int64()), ("n_points", pa.int64()),
             ("centroid_micros", pa.list_(pa.int64()))]
        ).empty_table()     # nothing to seed or cluster
    cent = _kmeans_init(sf_dir, KMEANS_K)
    dim = cent.shape[1]

    for _ in range(KMEANS_ITERS):
        cref = ray.put(cent)

        def partials(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            q = _kmeans_quantize(t)
            a = _kmeans_assign(q, c)
            ks, ds, ss = [], [], []
            for k in range(KMEANS_K):
                sel = q[a == k]
                ks.append(k); ds.append(-1); ss.append(len(sel))
                if len(sel):
                    sums = sel.sum(axis=0)
                    ks.extend([k] * dim)
                    ds.extend(range(dim))
                    ss.extend(sums.tolist())
            return pa.table(
                {
                    "k": pa.array(ks, pa.int64()),
                    "dim": pa.array(ds, pa.int64()),
                    "s": pa.array(ss, pa.int64()),
                }
            )

        agg = (
            _read(sf_dir, "embeddings", ["embedding"])
            .map_batches(partials, batch_format="pyarrow")
            .groupby(["k", "dim"])
            .aggregate(Sum("s", alias_name="total"))
            .to_pandas()          # bounded: K x (dim+1) rows
        )
        counts = np.zeros(KMEANS_K, dtype=np.int64)
        sums = np.zeros((KMEANS_K, dim), dtype=np.int64)
        for row in agg.itertuples():
            if row.dim < 0:
                counts[row.k] = row.total
            else:
                sums[row.k, row.dim] = row.total
        new = cent.copy()
        nz = counts > 0
        new[nz] = np.floor(
            sums[nz] / counts[nz, None] + 0.5
        ).astype(np.int64)
        cent = new

    return pa.table(
        {
            "cluster_id": pa.array(range(KMEANS_K), pa.int64()),
            "n_points": pa.array(counts, pa.int64()),
            "centroid_micros": pa.array(
                [c.tolist() for c in cent], pa.list_(pa.int64())
            ),
        }
    )


def kmeans_reference(sf_dir: str) -> "pa.Table":
    """Single-machine numpy Lloyd with the SAME quantization, init,
    assignment and update rules — the ground truth the distributed run
    must equal exactly.  Test-support (not a registered query)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    q = _kmeans_quantize(t)
    cent = _kmeans_init(sf_dir, KMEANS_K)
    counts = np.zeros(KMEANS_K, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        a = _kmeans_assign(q, cent)
        counts = np.bincount(a, minlength=KMEANS_K).astype(np.int64)
        new = cent.copy()
        for k in range(KMEANS_K):
            if counts[k]:
                new[k] = np.floor(
                    q[a == k].sum(axis=0) / counts[k] + 0.5
                ).astype(np.int64)
        cent = new
    return pa.table(
        {
            "cluster_id": pa.array(range(KMEANS_K), pa.int64()),
            "n_points": pa.array(counts, pa.int64()),
            "centroid_micros": pa.array(
                [c.tolist() for c in cent], pa.list_(pa.int64())
            ),
        }
    )


def label_quant_gram(sf_dir: str) -> pa.Table:
    """Gram matrix of per-label QUANTIZED embedding sum-vectors (dot of
    every label pair's summed vector, label_a <= label_b) — the integer
    core of centroid-affinity analysis ("which classes point the same
    way"), made hash-comparable by the embedding_quant_stats discipline:
    components quantize FIRST (floor(x*1000 + 0.5) in float64, IEEE-
    identical both engines), all aggregation after is exact int64/HUGEINT.

    Scale shape: per batch one zero-copy flatten + quantize, per-label
    column sums via a row-mask matmul-free reduction (labels are a
    BOUNDED alphabet), so the exchange is labels x dims int64 rows per
    batch; the driver folds and forms the K x K gram in Python ints
    (K = labels, dims = 64 — driver state K·(K+1)/2 scalars)."""

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"label": pa.array([], pa.int64()),
             "dim": pa.array([], pa.int64()),
             "sq": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat * EMB_QUANT_SCALE + 0.5).astype(np.int64)
        offs = emb.offsets.to_numpy()
        d = int(offs[1] - offs[0]) if len(offs) > 1 else 0
        if d == 0:
            return empty
        q2d = q.reshape(-1, d)
        labels = pc.cast(t["label"], pa.int64()).to_numpy()
        out_l, out_d, out_s = [], [], []
        for lab in np.unique(labels):       # bounded label alphabet
            s = q2d[labels == lab].sum(axis=0)
            out_l.append(np.full(d, lab, dtype=np.int64))
            out_d.append(np.arange(1, d + 1, dtype=np.int64))
            out_s.append(s)
        return pa.table(
            {"label": pa.array(np.concatenate(out_l)),
             "dim": pa.array(np.concatenate(out_d)),
             "sq": pa.array(np.concatenate(out_s))}
        )

    parts = (
        _read(sf_dir, "embeddings", ["embedding", "label"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: labels x dims x blocks
    )
    empty = pa.table(
        {"label_a": pa.array([], pa.int64()),
         "label_b": pa.array([], pa.int64()),
         "dot": pa.array([], pa.int64())}
    )
    if parts.empty:
        return empty
    g = parts.groupby(["label", "dim"], sort=True)["sq"].sum().reset_index()
    labs = sorted(g["label"].unique())
    vecs = {
        lab: [int(x) for x in g[g["label"] == lab].sort_values("dim")["sq"]]
        for lab in labs
    }
    la, lb, dots = [], [], []
    for i, a in enumerate(labs):
        for b in labs[i:]:
            la.append(int(a))
            lb.append(int(b))
            dots.append(sum(x * y for x, y in zip(vecs[a], vecs[b])))
    return pa.table(
        {"label_a": pa.array(la, pa.int64()),
         "label_b": pa.array(lb, pa.int64()),
         "dot": pa.array(dots, pa.int64())}
    )


ORACLES["label_quant_gram"] = (
    "WITH e AS (SELECT label::BIGINT AS label, i AS dim, "
    "CAST(floor(embedding[i]::DOUBLE * 1000 + 0.5) AS BIGINT) AS q "
    "FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)), "
    "s AS (SELECT label, dim, sum(q)::BIGINT AS sq FROM e GROUP BY 1, 2) "
    "SELECT a.label AS label_a, b.label AS label_b, "
    "sum(a.sq::HUGEINT * b.sq)::BIGINT AS dot "
    "FROM s a JOIN s b ON a.dim = b.dim AND a.label <= b.label "
    "GROUP BY 1, 2"
)


# ---- embedding_top_eigval: spectral power iteration, bit-exact -------------

_EIG_DIM = 64          # the corpus embedding width (SQL mirror constant)
_EIG_ITERS = 4
_EIG_VCAP = 32768      # rescale bound between iterations


def embedding_top_eigval(sf_dir: str) -> pa.Table:
    """Top eigenvalue (Rayleigh quotient) of the QUANTIZED embedding
    second-moment matrix ``C = Σ x_q·x_qᵀ`` via 4 deterministic power-
    iteration steps — the SPECTRAL family (dominant direction / variance
    concentration of an embedding corpus), which no census or centroid
    op covers: the iterate couples all d² cells of a matrix fixpoint.

    Exactness (the kmeans/label_quant_gram discipline, one level up):
    components quantize first (floor(x·1000 + 0.5) in float64), C folds
    as exact int64; every iteration is integer — matvec, then rescale by
    ``s = max(1, max|w| // VCAP)`` with TRUNCATING division spelled
    ``sign(w)·(|w| // s)`` on BOTH sides (DuckDB ``//`` truncates toward
    zero, numpy floors — the explicit form is engine-independent); the
    driver does matvecs in Python big ints and the SQL mirror in
    HUGEINT, because v·C·v overflows int64 BY DESIGN; the single float
    division at the end (−1.0 sentinel on a zero vector) hash-matches.

    Scale shape: one streaming pass, per batch a d×d int64 gram partial
    (q2dᵀ·q2d, one matmul) — d² cells per block, never rows; driver
    state d² ints + a d-vector, like kmeans' centroids.

    Reference anchor: T1's embedding probe (SURVEY.md §2.3) aggregated
    to the corpus-geometry question ("is the space collapsing to one
    direction?") that embedding-quality audits ask."""

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"cell": pa.array([], pa.int64()),
             "v": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        emb = t["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat * EMB_QUANT_SCALE + 0.5).astype(np.int64)
        offs = emb.offsets.to_numpy()
        d = int(offs[1] - offs[0]) if len(offs) > 1 else 0
        if d == 0:
            return empty
        q2d = q.reshape(-1, d)
        g = q2d.T @ q2d                      # d x d int64 gram partial
        return pa.table(
            {"cell": pa.array(np.arange(d * d, dtype=np.int64)),
             "v": pa.array(g.reshape(-1))}
        )

    ds = _read(sf_dir, "embeddings", ["embedding"])
    parts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded: d^2 x blocks, never rows
    )
    empty = pa.table(
        {"n_vecs": pa.array([], pa.int64()),
         "rayleigh": pa.array([], pa.float64()),
         "top_coord": pa.array([], pa.int64()),
         "top_sign": pa.array([], pa.int64())}
    )
    if parts.empty:
        return empty
    folded = parts.groupby("cell")["v"].sum()
    d = int(round(len(folded) ** 0.5))
    if d != _EIG_DIM:
        raise ValueError(
            f"embedding width {d} != _EIG_DIM {_EIG_DIM}: the SQL mirror "
            "hardcodes the width — update the constant with the corpus"
        )
    C = [[int(x) for x in row] for row in
         folded.to_numpy().reshape(d, d)]    # Python big ints from here on
    n_vecs = int(ds.count())

    def matvec(m, vec):
        return [sum(m[i][j] * vec[j] for j in range(d)) for i in range(d)]

    v = [1] * d
    for _ in range(_EIG_ITERS):
        w = matvec(C, v)
        s = max(max(abs(x) for x in w) // _EIG_VCAP, 1)
        v = [(1 if x > 0 else -1 if x < 0 else 0) * (abs(x) // s) for x in w]
    wf = matvec(C, v)
    num = sum(a * b for a, b in zip(v, wf))
    den = sum(a * a for a in v)
    rayleigh = -1.0 if den == 0 else float(num) / float(den)
    top = min(range(d), key=lambda i: (-abs(v[i]), i))
    sign = 1 if v[top] > 0 else -1 if v[top] < 0 else 0
    return pa.table(
        {"n_vecs": pa.array([n_vecs], pa.int64()),
         "rayleigh": pa.array([rayleigh], pa.float64()),
         "top_coord": pa.array([top], pa.int64()),
         "top_sign": pa.array([sign], pa.int64())}
    )


def _eig_iter_sql(k: int) -> str:
    prev = f"v{k - 1}"
    return (
        f"w{k} AS (SELECT c.i, sum(c.v::HUGEINT * {prev}.v) AS w "
        f"FROM c JOIN {prev} ON c.j = {prev}.i GROUP BY 1), "
        f"s{k} AS (SELECT greatest(max(abs(w)) // {_EIG_VCAP}, "
        "1::HUGEINT) AS s "
        f"FROM w{k}), "
        f"v{k} AS (SELECT i, sign(w)::HUGEINT * (abs(w) // s) AS v "
        f"FROM w{k}, s{k}), "
    )


ORACLES["embedding_top_eigval"] = (
    f"WITH r AS (SELECT e.vec_id, t.i::BIGINT AS i, "
    "CAST(floor(CAST(e.embedding[t.i + 1] AS DOUBLE) * "
    f"{EMB_QUANT_SCALE}.0 + 0.5) AS BIGINT) AS x "
    f"FROM embeddings e, range({_EIG_DIM}) t(i)), "
    "c AS (SELECT a.i, b.i AS j, sum(a.x * b.x)::BIGINT AS v "
    "FROM r a JOIN r b USING (vec_id) GROUP BY 1, 2), "
    f"v0 AS (SELECT i::BIGINT AS i, 1::HUGEINT AS v "
    f"FROM range({_EIG_DIM}) t(i)), "
    + "".join(_eig_iter_sql(k) for k in range(1, _EIG_ITERS + 1))
    + f"wf AS (SELECT c.i, sum(c.v::HUGEINT * v{_EIG_ITERS}.v) AS w "
    f"FROM c JOIN v{_EIG_ITERS} ON c.j = v{_EIG_ITERS}.i GROUP BY 1), "
    f"ray AS (SELECT sum(v{_EIG_ITERS}.v * wf.w) AS num, "
    f"sum(v{_EIG_ITERS}.v * v{_EIG_ITERS}.v) AS den "
    f"FROM v{_EIG_ITERS} JOIN wf ON v{_EIG_ITERS}.i = wf.i), "
    f"top AS (SELECT i, v FROM v{_EIG_ITERS} "
    "ORDER BY abs(v) DESC, i LIMIT 1), "
    "n AS (SELECT count(*)::BIGINT AS n_vecs FROM embeddings) "
    "SELECT n.n_vecs, CASE WHEN ray.den = 0 THEN -1.0 ELSE "
    "CAST(ray.num AS DOUBLE) / CAST(ray.den AS DOUBLE) END AS rayleigh, "
    "top.i AS top_coord, sign(top.v)::BIGINT AS top_sign "
    "FROM n, ray, top"
)


# ---- embedding_closest_pair: grid-hashed exact closest pair ----------------

CLOSEST_PAIR_MAX_ROWS = 2_000_000     # exact-anchor row bound (see guard)


def embedding_closest_pair(sf_dir: str) -> "pa.Table":
    """CLOSEST pair of the 2-D integer projection of the embedding cloud
    (``x = floor(emb[0]·1000), y = floor(emb[1]·1000)``) — the dual of
    the farthest pair, and a different algorithm family: the hull
    theorem is useless for minima, so this is the Rabin GRID-HASHING
    method — (1) one lexicographic sweep yields an upper bound d0 (min
    distance over coordinate-sorted neighbours); (2) bucket points into
    cells of side s > d0; every pair at distance ≤ d0 then differs by ≤
    1 in each cell coordinate, so candidates are exactly the same-cell +
    4-neighbour-offset cell joins — expected O(n) candidates instead of
    O(n²).

    Scale shape: the per-batch partial projects each vector to two
    int64s (24 B/row crosses the exchange, never the embeddings); the
    gather is an EXACT ANCHOR with an explicit row bound
    (``CLOSEST_PAIR_MAX_ROWS``, the dedup_embedding precedent) —
    above it the same cell keys become the partition keys of a
    distributed self-join (the dedup_simhash band shape).  Tie-breaks
    are pinned: coordinates collapse to their two smallest vec_ids
    (duplicate coordinates short-circuit to dist2 = 0), equal dist2
    resolves to the smallest sorted (vec_a, vec_b) — the lexicographic
    minimum over a coord pair is always sorted((min_a, min_b)).

    Reference anchor: O3's top-k (SURVEY.md §2.7) pushed to a pairwise
    MINIMUM objective — "which two corpus items are nearest?" is the
    1-NN dual of ann_topk."""
    import pyarrow.parquet as pq

    n_rows = pq.ParquetFile(
        f"{sf_dir}/embeddings.parquet"
    ).metadata.num_rows
    if n_rows > CLOSEST_PAIR_MAX_ROWS:
        raise ValueError(
            f"embedding_closest_pair is the exact anchor (≤"
            f"{CLOSEST_PAIR_MAX_ROWS} rows; got {n_rows}); at this scale "
            "run the grid cell keys through a distributed self-join "
            "(dedup_simhash band shape) instead of the driver gather"
        )

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"v": pa.array([], pa.int64()),
             "x": pa.array([], pa.int64()),
             "y": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        emb = t["embedding"]
        flat = emb.combine_chunks()
        vals = flat.values.to_numpy(zero_copy_only=False).astype(np.float64)
        offs = flat.offsets.to_numpy()
        x = np.floor(vals[offs[:-1]] * 1000.0).astype(np.int64)
        y = np.floor(vals[offs[:-1] + 1] * 1000.0).astype(np.int64)
        return pa.table(
            {"v": t["vec_id"], "x": pa.array(x), "y": pa.array(y)}
        )

    pts = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas()    # bounded by the guard above (24 B/row)
    )
    empty = pa.table(
        {"vec_a": pa.array([], pa.int64()),
         "vec_b": pa.array([], pa.int64()),
         "dist2": pa.array([], pa.int64())}
    )
    if len(pts) < 2:
        return empty
    v = pts["v"].to_numpy(np.int64)
    x = pts["x"].to_numpy(np.int64)
    y = pts["y"].to_numpy(np.int64)
    order = np.lexsort((v, y, x))
    v, x, y = v[order], x[order], y[order]

    def result(a: int, b: int, d2: int) -> pa.Table:
        a, b = (a, b) if a < b else (b, a)
        return pa.table(
            {"vec_a": pa.array([a], pa.int64()),
             "vec_b": pa.array([b], pa.int64()),
             "dist2": pa.array([d2], pa.int64())}
        )

    same = (x[1:] == x[:-1]) & (y[1:] == y[:-1])
    if same.any():
        # duplicate coordinates: dist2 = 0; ids are (x, y, v)-sorted so the
        # first duplicate run already holds each coord's two smallest ids;
        # pick the lexicographically smallest (v_i, v_i+1) pair
        idx = np.flatnonzero(same)
        best = min((int(v[i]), int(v[i + 1])) for i in idx)
        return result(best[0], best[1], 0)

    # coords now unique; v[i] is the smallest vec_id of its coordinate
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    d0sq = int(np.min(dx * dx + dy * dy))
    import math

    s = math.isqrt(d0sq) + 1             # cell side s > d0 >= d_min
    cx, cy = x // s, y // s
    assert np.abs(cx).max() < 2**30 and np.abs(cy).max() < 2**30
    key = cx * (1 << 32) + (cy + (1 << 31))
    korder = np.argsort(key, kind="stable")
    ks, vs, xs, ys = key[korder], v[korder], x[korder], y[korder]

    cand_a: list[np.ndarray] = []
    cand_b: list[np.ndarray] = []
    for off in (0,                      # same cell
                1,                      # (0, +1)
                (1 << 32) - 1,          # (+1, -1)
                (1 << 32),              # (+1, 0)
                (1 << 32) + 1):         # (+1, +1)
        lo = np.searchsorted(ks, ks + off, side="left")
        hi = np.searchsorted(ks, ks + off, side="right")
        if off == 0:
            lo = np.arange(len(ks)) + 1          # i<j within the cell
        cnt = hi - lo
        m = cnt > 0
        if not m.any():
            continue
        a = np.repeat(np.flatnonzero(m), cnt[m])
        b = (np.arange(int(cnt[m].sum()))
             - np.repeat(np.cumsum(cnt[m]) - cnt[m], cnt[m])
             + np.repeat(lo[m], cnt[m]))
        cand_a.append(a)
        cand_b.append(b)
    ia = np.concatenate(cand_a)
    ib = np.concatenate(cand_b)
    d2 = (xs[ia] - xs[ib]) ** 2 + (ys[ia] - ys[ib]) ** 2
    dmin = int(d2.min())
    sel = np.flatnonzero(d2 == dmin)
    best = min(
        (min(int(vs[ia[i]]), int(vs[ib[i]])),
         max(int(vs[ia[i]]), int(vs[ib[i]])))
        for i in sel
    )
    return result(best[0], best[1], dmin)


ORACLES["embedding_closest_pair"] = (
    "WITH pts AS (SELECT vec_id AS p, "
    "CAST(floor(CAST(embedding[1] AS DOUBLE) * 1000.0) AS BIGINT) AS x, "
    "CAST(floor(CAST(embedding[2] AS DOUBLE) * 1000.0) AS BIGINT) AS y "
    "FROM embeddings) "
    "SELECT a.p AS vec_a, b.p AS vec_b, "
    "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))::BIGINT "
    "AS dist2 "
    "FROM pts a JOIN pts b ON a.p < b.p "
    "ORDER BY dist2, vec_a, vec_b LIMIT 1"
)
