"""Deduplication operators over the ``documents`` table.

The reference has no dedup (job ids are UUIDs; SURVEY.md §2.8) — these are
the training-data-pipeline additions the north star calls for, each built
shuffle-consciously:

  dedup_exact      — hash-partition groupby on a content digest, keep the
                     min doc_id per group (the ONE shuffle is over 16-byte
                     digests + ids, never content)
  dedup_minhash    — MinHash+LSH: shingle -> 64 minhashes -> 16 bands ->
                     explode to (band_hash, doc_id) -> hash-partitioned
                     SELF-JOIN expands bucket pairs in Arrow C++
                     (shuffle carries only band keys)
  dedup_jaccard    — exact 3-gram Jaccard verification of the LSH
                     candidates, hash-partition-joined back to text —
                     fully distributed, no driver text dict
  dedup_simhash    — 64-bit SimHash fingerprint per doc;
                     `simhash_candidates` buckets by 16-bit bands
  dedup_embedding  — embedding-cosine near-dup pairs over ``embeddings``
                     (broadcast-matrix brute force = exact baseline;
                     `dedup_embedding_ivf` is the streaming scale path)
  dedup_components — candidate pairs -> connected components (distributed
                     min-label propagation); `dedup_survivors` = keep-list

All hashing is crc32 + odd-constant uint64 mixing (xxhash is not in this
sandbox; md5 only for the exact-dedup digest); constants are module-level
so results are deterministic across runs and pool sizes.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Min

from ._common import _read, _typed

N_HASHES = 64
N_BANDS = 16           # 16 bands x 4 rows
_ROWS_PER_BAND = N_HASHES // N_BANDS
_MERSENNE = (1 << 61) - 1
_RNG = np.random.RandomState(42)
_A = _RNG.randint(1, _MERSENNE, size=N_HASHES, dtype=np.int64)
_B = _RNG.randint(0, _MERSENNE, size=N_HASHES, dtype=np.int64)

SHINGLE_N = 3
# near-dup threshold; the synthetic embeddings are near-orthogonal (max
# off-diagonal cosine ~0.51 at sf0.01), so the demo threshold is 0.40 to
# produce a non-empty pair set — a real corpus would use ~0.95
COSINE_THRESHOLD = 0.40
JACCARD_THRESHOLD = 0.5
# dedup_jaccard gathers candidate texts via broadcast below this many
# DISTINCT candidate docs; above it, the two-sided hash join takes over
JACCARD_BROADCAST_MAX_DOCS = 200_000


# odd 64-bit mixing constants (splitmix64/xxhash golden-ratio family)
_SHINGLE_C = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], dtype=np.uint64
)
_BAND_C = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)


def _windowed_word_hashes(
    text: str,
    cache: dict,
    n: int,
    constants: np.ndarray,
    *,
    mod: int | None = None,
    combine_short: bool = False,
) -> np.ndarray:
    """Distinct hashes of word n-grams — the ONE vectorized scheme every
    text-gram operator shares (minhash shingles here; decontamination
    8-grams in text_analysis): crc32 per word (cached across a batch —
    code corpora repeat tokens heavily) combined positionally with odd
    64-bit constants via a sliding window.  ``mod`` reduces into a hash
    family's range; ``combine_short`` hashes a shorter-than-n text as one
    truncated gram instead of returning empty (minhash needs a signal for
    tiny docs; decontamination wants none)."""
    words = (text or "").lower().split()
    if not words or (len(words) < n and not combine_short):
        return np.empty(0, dtype=np.uint64)
    wh = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        v = cache.get(w)
        if v is None:
            v = zlib.crc32(w.encode("utf-8"))
            cache[w] = v
        wh[i] = v
    if len(words) < n:
        combined = np.array([(wh * constants[: len(wh)]).sum()], dtype=np.uint64)
    else:
        from numpy.lib.stride_tricks import sliding_window_view

        combined = (sliding_window_view(wh, n) * constants).sum(axis=1)
    if mod is not None:
        combined = combined % np.uint64(mod)
    return np.unique(combined)


def _shingle_hashes(text: str, _cache: dict | None = None) -> np.ndarray:
    """Minhash shingle hashes: word 3-grams reduced mod the Mersenne
    prime so the universal hash stays in range."""
    return _windowed_word_hashes(
        text,
        {} if _cache is None else _cache,
        SHINGLE_N,
        _SHINGLE_C,
        mod=_MERSENNE,
        combine_short=True,
    ).astype(np.int64)


def _minhash_sig(text: str, _cache: dict | None = None) -> np.ndarray:
    """64 minhashes via universal hashing over shingle codes — vectorized:
    (A * h + B) mod p over the whole shingle vector at once."""
    h = _shingle_hashes(text, _cache)
    if len(h) == 0:
        return np.full(N_HASHES, _MERSENNE, dtype=np.int64)
    vals = (h[:, None] * _A[None, :] + _B[None, :]) % _MERSENNE
    return vals.min(axis=0)


# ---- exact dedup ---------------------------------------------------------

def _md5_hex_column(col) -> tuple[list[str], np.ndarray]:
    """Per-row md5 of a utf8 column read STRAIGHT from the Arrow buffers:
    each row hashes a memoryview slice of the shared data buffer, so no
    Python str is materialized and nothing is re-encoded (the old
    to_pylist + .encode() path allocated two objects per row — measured
    1.3x slower on the digest stage).  md5 itself is per-row C and is
    contractual (the DuckDB oracle computes md5(text)).

    Returns (hex digests, first-8-bytes-as-uint64) — the prefix feeds the
    bucket tag without re-parsing hex."""
    import hashlib

    import pyarrow.compute as pc

    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    hexes: list[str] = []
    prefixes = np.empty(sum(len(c) for c in chunks), dtype=np.uint64)
    md5 = hashlib.md5
    i = 0
    for chunk in chunks:
        if chunk.null_count:
            chunk = pc.fill_null(chunk, "")
        bufs = chunk.buffers()
        width, dt = (8, np.int64) if pa.types.is_large_string(chunk.type) else (4, np.int32)
        off = np.frombuffer(
            bufs[1], dtype=dt, count=len(chunk) + 1, offset=chunk.offset * width
        )
        data = memoryview(bufs[2])
        for j in range(len(chunk)):
            d = md5(data[off[j]:off[j + 1]]).digest()
            hexes.append(d.hex())
            prefixes[i] = int.from_bytes(d[:8], "big")
            i += 1
    return hexes, prefixes


def dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """Representative (min doc_id) per distinct text, keyed by md5 digest.

    Digests are MOSTLY-UNIQUE keys, so the final reduction uses the
    CLAUDE.md bucket shape instead of a sort-based groupby: each batch
    combines (min doc_id per digest) in pandas C, survivors carry a
    bucket tag derived from the digest prefix, and one
    groupby(bucket).map_groups finishes the min per digest — same
    shuffle volume, no Arrow string sort (measured 1.5-2.0 s → 1.0 s at
    sf0.1).

    Below DEDUP_EXACT_BROADCAST_MAX_ROWS input rows even that bucket
    exchange is dominated by its fixed all-to-all cost (the interleaved
    round-5 control put it at 2-5 s on a 5k-row table), so the combined
    per-batch partials — already <= one row per (batch, digest) — are
    gathered and finished with ONE pandas groupby-min; the bucket reduce
    stays the scale path above the bound, pinned identical by a
    zero-threshold parity test (the module's standard broadcast
    contract)."""
    import pyarrow.parquet as pq

    def digest_and_combine(t: pa.Table) -> pa.Table:
        # partial aggregation (combiner): min doc_id per digest WITHIN the
        # batch, so the shuffle carries one row per (batch, digest)
        # instead of one per document (ray_guide 'Aggregation at scale')
        import pandas as pd

        digests, prefixes = _md5_hex_column(t["text"])
        df = pd.DataFrame(
            {
                "text_md5": digests,
                "doc_id": t["doc_id"].to_numpy(),
                "pref": prefixes,
            }
        )
        part = (
            df.groupby("text_md5", sort=False)
            .agg(doc_id=("doc_id", "min"), pref=("pref", "first"))
            .reset_index()
        )
        h = part["pref"].to_numpy() * np.uint64(0x9E3779B97F4A7C15)
        part["bk"] = ((h >> np.uint64(33)) % np.uint64(_DEDUP_EXACT_BUCKETS)).astype(
            "int64"
        )
        return pa.Table.from_pandas(
            part[["text_md5", "doc_id", "bk"]], preserve_index=False
        )

    def reduce_bucket(g):
        import pandas as pd

        if g.empty:
            return pd.DataFrame(
                {
                    "text_md5": pd.array([], dtype="object"),
                    "rep_doc_id": pd.array([], dtype="int64"),
                }
            )
        out = g.groupby("text_md5", sort=False)["doc_id"].min().reset_index()
        out.columns = ["text_md5", "rep_doc_id"]
        return out

    schema = pa.schema([("text_md5", pa.string()), ("rep_doc_id", pa.int64())])
    path = f"{sf_dir}/documents.parquet"
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    combined = ds.map_batches(digest_and_combine, batch_format="pyarrow")
    if pq.read_metadata(path).num_rows <= DEDUP_EXACT_BROADCAST_MAX_ROWS:
        tbls = [t for t in ray.get(combined.to_arrow_refs()) if t.num_rows]
        if not tbls:
            return schema.empty_table()
        df = pa.concat_tables(tbls).select(["text_md5", "doc_id"]).to_pandas()
        out = df.groupby("text_md5", sort=False)["doc_id"].min().reset_index()
        out.columns = ["text_md5", "rep_doc_id"]
        return ray.data.from_pandas(out)
    return _typed(
        combined
        .groupby("bk")
        .map_groups(reduce_bucket, batch_format="pandas")
        .select_columns(["text_md5", "rep_doc_id"]),
        schema,
    )


_DEDUP_EXACT_BUCKETS = 32
# below this many INPUT rows (parquet metadata, free) the bucket
# exchange's fixed cost dominates: finish the per-batch partials with one
# driver pandas groupby instead.  1M combined rows ~ 40 MB gathered —
# the same bounded-gather budget as the band-table and union-find paths.
DEDUP_EXACT_BROADCAST_MAX_ROWS = 1_000_000


DEDUP_EXACT_SQL = (
    "SELECT md5(text) AS text_md5, min(doc_id) AS rep_doc_id "
    "FROM documents GROUP BY md5(text)"
)


# ---- MinHash + LSH candidates -------------------------------------------

def _band_rows(t: pa.Table) -> pa.Table:
    """Explode each doc into (band_hash, doc_id) rows.  The band
    hash is an INTEGER mix of the band's 4 signature values (uint64
    wrap-around with odd constants, band index folded in) computed for the
    whole batch in one tensor op — no per-doc hashlib, and the shuffle
    carries 8-byte ints instead of hex strings.  A shared word-hash cache
    amortizes crc32 across the batch."""
    ids = t["doc_id"].to_numpy()
    cache: dict = {}
    sigs = np.stack(
        [_minhash_sig(s or "", cache) for s in t["text"].to_pylist()]
    )                                              # (D, 64)
    bands = sigs.astype(np.uint64).reshape(len(ids), N_BANDS, _ROWS_PER_BAND)
    bh = (bands * _BAND_C[: _ROWS_PER_BAND]).sum(axis=2)        # (D, 16)
    bh ^= np.arange(N_BANDS, dtype=np.uint64) * np.uint64(0x2545F4914F6CDD1D)
    return pa.table(
        {
            "band_hash": pa.array(bh.reshape(-1).view(np.int64)),
            "doc_id": pa.array(np.repeat(ids, N_BANDS), pa.int64()),
        }
    )


_EMPTY_PAIRS = pa.table(
    {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
)


HOT_BUCKET_CAP = 1024      # band buckets above this expand as STARS

# band self-join fan-out also scales with VOLUME: each join partition
# costs an aggregator actor + fixed per-partition shuffle work, so a
# small band table should not pay the full CPU-sized fan-out (measured
# at sf0.1/32cpus: 16 partitions for an 80k-row band table ran ~30%
# slower than 4).  The band table is materialized anyway, so its row
# count is free driver-side.
_BAND_ROWS_PER_JOIN_PART = 20_000


def _band_join_parts(n_band_rows: int, cpu_parts: int) -> int:
    return max(2, min(cpu_parts, n_band_rows // _BAND_ROWS_PER_JOIN_PART))


# Below this many band rows the hash self-join's fixed cost dominates the
# data (a fresh-process aggregator-pool spawn is ~3s at 32 CPUs — CLAUDE.md
# round-4 note; the sf0.1 band table is ~80k rows x 16 bytes = 1.3 MB), so
# collision detection runs as ONE vectorized numpy pass over the gathered
# table instead — same contract as the module's other broadcasts: explicit
# row bound, distributed join fallback above it, both paths pinned equal by
# a zero-threshold test.  1M rows = 16 MB gathered, well inside the
# driver-side budget the <1M-edge union-find in dedup_components already
# established.
MINHASH_BROADCAST_MAX_BAND_ROWS = 1_000_000
# pathological escape hatch: if the exact pair expansion of the gathered
# table would exceed this (a forest of just-below-cap buckets), take the
# distributed join path regardless — the check is an O(rows) cumsum, so
# the guard costs nothing.
_BROADCAST_MAX_PAIRS = 5_000_000


def _broadcast_band_pairs(
    bands: ray.data.Dataset, hot_bucket_cap: int | None
) -> ray.data.Dataset | None:
    """Small-band-table fast path: gather the (band_hash, doc_id) rows
    (bounded by MINHASH_BROADCAST_MAX_BAND_ROWS), lexsort once, and emit
    each bucket's pair expansion with vectorized repeat/arange arithmetic —
    no hash shuffle, no aggregator-actor spawn, no Python loop over rows.
    Hot buckets (> cap members) expand as stars around the bucket-min
    doc_id, the same connectivity-exact trade as the join path (and the
    same root the join path's exact census picks, so the paths agree
    whenever the census is exact).  Returns None when the exact pair count
    would exceed _BROADCAST_MAX_PAIRS — the caller falls through to the
    distributed self-join."""
    tbl = pa.concat_tables(ray.get(bands.to_arrow_refs()))
    h = tbl["band_hash"].to_numpy()
    d = tbl["doc_id"].to_numpy()
    order = np.lexsort((d, h))
    h, d = h[order], d[order]
    n = len(h)
    starts = np.flatnonzero(np.concatenate(([True], h[1:] != h[:-1])))
    ends = np.append(starts[1:], n)
    sizes = ends - starts

    hot = (
        sizes > hot_bucket_cap
        if hot_bucket_cap is not None
        else np.zeros(len(sizes), dtype=bool)
    )
    cold_pairs = ((sizes * (sizes - 1)) // 2)[~hot].sum()
    if cold_pairs + (sizes[hot] - 1).sum() > _BROADCAST_MAX_PAIRS:
        return None
    if hot.any():
        import logging

        logging.getLogger(__name__).warning(
            "minhash_candidates: %d hot band bucket(s) above %d members "
            "(largest %d) expanded as stars — candidate connectivity "
            "preserved; pair lists within these buckets are star-shaped, "
            "not all-pairs",
            int(hot.sum()), hot_bucket_cap, int(sizes.max()),
        )

    row_hot = np.repeat(hot, sizes)
    out_a = []
    out_b = []
    # cold buckets: full expansion — partner count per row is the number
    # of later rows in its bucket.  Dropping hot rows keeps each cold
    # bucket contiguous (hotness is a per-bucket property), so the
    # expansion works on the compacted subsequence directly.
    dc = d[~row_hot]
    cold_sizes = sizes[~hot]
    cends = np.cumsum(cold_sizes)
    cnt = np.repeat(cends, cold_sizes) - np.arange(len(dc)) - 1
    a_idx = np.repeat(np.arange(len(dc)), cnt)
    csum = np.concatenate(([0], np.cumsum(cnt)))
    b_idx = a_idx + 1 + (np.arange(csum[-1]) - np.repeat(csum[:-1], cnt))
    out_a.append(dc[a_idx])
    out_b.append(dc[b_idx])
    # hot buckets: star around the bucket min (first row — sorted by
    # doc_id within bucket)
    for s, e in zip(starts[hot], ends[hot]):
        root = d[s]
        members = d[s + 1 : e]
        out_a.append(np.full(len(members), root, dtype=np.int64))
        out_b.append(members)
    doc_a = np.concatenate(out_a)
    doc_b = np.concatenate(out_b)
    lo = np.minimum(doc_a, doc_b)
    hi = np.maximum(doc_a, doc_b)
    keep = lo < hi                      # drop self-collisions
    uniq = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(uniq[:, 0], pa.int64()),
                "doc_b": pa.array(uniq[:, 1], pa.int64()),
            }
        )
        if len(uniq)
        else _EMPTY_PAIRS
    )


def minhash_candidates(
    sf_dir: str, total_joins: int = 1, hot_bucket_cap: int = HOT_BUCKET_CAP
) -> ray.data.Dataset:
    """(doc_a, doc_b) candidate near-dup pairs from LSH banding.

    ``total_joins``: number of hash-shuffle joins CONCURRENT with this
    self-join in the caller's streaming plan (this one included) — sizes
    the aggregator fan-out so concurrent joins cannot overcommit the CPU
    budget.  (dedup_jaccard materializes this result before its own two
    joins start, so the default 1 is correct there.)

    ``hot_bucket_cap``: buckets larger than this (a cluster of >= cap
    near-identical docs — the boilerplate/mirror pathology of a dirty
    corpus) would cross-product quadratically inside one join partition.
    They are instead expanded as a STAR around the bucket's min sampled
    doc_id (deterministic): |bucket|-1 edges instead of |bucket|^2/2,
    preserving CANDIDATE-GRAPH connectivity exactly.  Honesty note: a
    downstream Jaccard VERIFICATION can still split a starred component
    in the corner case where two members are mutually similar but
    neither is similar to the root — the accepted trade at pathological
    buckets, where members are near-identical by construction and the
    corner case is vanishing.  Detection is a SAMPLED census (see inline
    comment) whose cost is a small fraction of the main pass; a census
    MISS is purely perf (the bucket takes the correct join path), a
    false positive applies the star trade above.  The hot list is
    bounded by N/cap entries, so the driver-side root map stays tiny by
    construction.

    Shuffle-conscious shape: a hash-partitioned SELF-JOIN of the compact
    band table on band_hash.  Arrow's C++ hash join expands each bucket's
    cross product vectorized — no per-group Python callback (the original
    groupby(band).map_groups paid one per mostly-singleton bucket and ran
    ~10x slower) and no driver-side hot-key set (the round-1 version
    pulled the count()>1 keys to the driver via to_pandas + ray.put, which
    grows with dup volume on a dirty corpus).  Singleton buckets emit only
    their self-pair, dropped by the doc_a < doc_b filter.  Pathologically
    hot buckets (everything identical) still cross-product inside one join
    partition — the escape hatch at that point is salting the band key.

    The band table is materialized because both self-join sides consume
    it; without this the signature computation — the expensive part —
    runs twice.  It is 16 rows x 16 bytes per doc, far smaller than the
    content it derives from, and spills if needed."""
    from ._common import _join_parts

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # band index is XOR-folded into band_hash (see _band_rows), so the
    # hash alone is the bucket key — half the shuffle key width
    bands = ds.map_batches(_band_rows, batch_format="pyarrow").materialize()
    n_band_rows = bands.count()
    if n_band_rows == 0:
        # an empty dataset has no schema and would crash the hash join
        return ray.data.from_arrow(_EMPTY_PAIRS)

    if n_band_rows <= MINHASH_BROADCAST_MAX_BAND_ROWS:
        # small band table: the hash self-join's fixed aggregator-pool
        # spawn dominates (round-4 verdict) — one vectorized pass over the
        # gathered table gives the identical pair set (zero-threshold
        # parity test); falls through to the join when the exact pair
        # expansion would be pathologically large
        out = _broadcast_band_pairs(bands, hot_bucket_cap)
        if out is not None:
            return out

    # hot-bucket census — SAMPLED so its cost stays a small fraction of
    # the main pass: band rows are kept with deterministic probability
    # 1/p_inv (p_inv = cap//64, so a cap-sized bucket shows ~64 sampled
    # members), pre-aggregated per batch, and a tiny groupby estimates
    # bucket sizes.  Census errors are PERF-only: a missed hot bucket
    # just takes the (correct, slower) join path, a false positive gets
    # a (still connectivity-exact) star — so sampling is sound.  With
    # p_inv == 1 (small caps, tests) the census is exact and uses the
    # strict count > cap rule.
    import pandas as pd

    p_inv = 1 if hot_bucket_cap is None else max(1, hot_bucket_cap // 64)
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def census_partial(t: pa.Table) -> pa.Table:
        h = t["band_hash"].to_numpy().astype(np.uint64)
        d = t["doc_id"].to_numpy().astype(np.uint64)
        if p_inv > 1:
            # threshold compare on the multiplied mix uses HIGH bits, so
            # structured doc_ids (strided shard schemes) cannot bias the
            # sample the way a power-of-two modulus on low bits would
            mixed = (h ^ (d * _MIX)) * _MIX
            keep = mixed < np.uint64((1 << 64) // p_inv)
            h, d = h[keep], d[keep]
        if not len(h):
            return pa.table(
                {
                    "band_hash": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "root": pa.array([], pa.int64()),
                }
            )
        df = pd.DataFrame({"band_hash": h.view(np.int64), "doc_id": d.view(np.int64)})
        g = df.groupby("band_hash", sort=False)["doc_id"].agg(["size", "min"])
        g = g.reset_index()
        return pa.table(
            {
                "band_hash": pa.array(g["band_hash"], pa.int64()),
                "n": pa.array(g["size"], pa.int64()),
                "root": pa.array(g["min"], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    if hot_bucket_cap is None:
        hot_tbl = pd.DataFrame()
    else:
        threshold = (
            hot_bucket_cap if p_inv == 1
            else max(1, hot_bucket_cap // p_inv)   # unbiased ~cap estimate
        )
        hot_tbl = (
            bands.map_batches(census_partial, batch_format="pyarrow")
            .groupby("band_hash")
            .aggregate(Sum("n", alias_name="n"), Min("root", alias_name="root"))
            .map_batches(
                lambda t: t.filter(pc.greater(t["n"], threshold)),
                batch_format="pyarrow",
            )
            .to_pandas()
        )
    hot_roots = (
        dict(zip(hot_tbl["band_hash"], hot_tbl["root"]))
        if len(hot_tbl) and "band_hash" in hot_tbl.columns
        else {}
    )
    if hot_roots:
        # surface the star decision: a starred bucket at scale means a
        # boilerplate/mirror pathology worth knowing about, and the
        # connectivity-exact-but-not-pair-exact trade should be visible
        # in the run log rather than silent
        import logging

        logging.getLogger(__name__).warning(
            "minhash_candidates: %d hot band bucket(s) above ~%d members "
            "(largest ~%d sampled-est.) expanded as stars — candidate "
            "connectivity preserved; pair lists within these buckets are "
            "star-shaped, not all-pairs",
            len(hot_roots), hot_bucket_cap, int(hot_tbl["n"].max()) * p_inv,
        )

    join_src = bands
    star = None
    if hot_roots:
        rref = ray.put(hot_roots)

        def split_cold(t: pa.Table) -> pa.Table:
            roots = ray.get(rref)
            mask = np.fromiter(
                (h not in roots for h in t["band_hash"].to_pylist()),
                dtype=bool, count=len(t),
            )
            return t.filter(pa.array(mask))

        def star_pairs(t: pa.Table) -> pa.Table:
            roots = ray.get(rref)
            hs = t["band_hash"].to_pylist()
            ids = t["doc_id"].to_numpy()
            out_a, out_b = [], []
            for h, d in zip(hs, ids):
                r = roots.get(h)
                if r is not None and d != r:
                    # the sampled root need not be the bucket min — order
                    # the pair so the (doc_a < doc_b) invariant holds and
                    # a mirrored join-path emission collapses in distinct
                    out_a.append(int(min(r, d)))
                    out_b.append(int(max(r, d)))
            return pa.table(
                {
                    "doc_a": pa.array(out_a, pa.int64()),
                    "doc_b": pa.array(out_b, pa.int64()),
                }
            )

        join_src = bands.map_batches(split_cold, batch_format="pyarrow")
        star = bands.map_batches(star_pairs, batch_format="pyarrow")

    pairs = join_src.join(
        join_src,
        join_type="inner",
        num_partitions=_band_join_parts(n_band_rows, _join_parts(total_joins)),
        on=("band_hash",),
        left_suffix="_a",
        right_suffix="_b",
    )

    def keep_ordered(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["doc_id_a"], t["doc_id_b"]))
        return pa.table({"doc_a": t["doc_id_a"], "doc_b": t["doc_id_b"]})

    cand = pairs.map_batches(keep_ordered, batch_format="pyarrow")
    if star is not None:
        cand = cand.union(star)
    # distinct pairs (pairs found in several bands collapse to one);
    # materialized (tiny) so a zero-pair outcome keeps its typed schema
    # (groupby on an all-empty stream loses it)
    out = (
        cand.groupby(["doc_a", "doc_b"])
        .count()
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )
    if out.count() == 0:
        return ray.data.from_arrow(_EMPTY_PAIRS)
    return out


def dedup_jaccard(sf_dir: str) -> ray.data.Dataset:
    """LSH candidates verified by exact shingle-Jaccard >= threshold —
    fully distributed: no driver-side materialization of documents.

    Shape: the (tiny) candidate pair set is hash-partition-JOINED back to
    document text, once per side (Arrow's hash join carries string
    payloads; list payloads are unsupported, so shingling happens AFTER
    the join — which is also cheaper: shingles are computed only for the
    candidate-matching rows that survive the inner join).  The candidate
    set is MATERIALIZED first: it is tiny, the barrier keeps the upstream
    band self-join from streaming concurrently with the two text joins
    (so at most TWO joins share the CPU budget at once — sized via
    _common._join_parts(2), see CLAUDE.md perf notes), and it lets the
    zero-candidate case return a typed empty result instead of crashing
    the schemaless hash join."""

    from ._common import _join_parts

    cand = minhash_candidates(sf_dir).materialize()
    if cand.count() == 0:
        return ray.data.from_arrow(
            _EMPTY_PAIRS.append_column(
                "jaccard", pa.array([], pa.float64())
            )
        )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    # Candidate sets are tiny relative to the corpus (the LSH's whole
    # point), so below a bound the texts of candidate docs are gathered
    # with ONE broadcast-filtered scan and shipped to the verify stage as
    # an object-store table — the two chained hash joins below pay ~4-5s
    # of per-query aggregator-pool spawn for the same result (CLAUDE.md;
    # measured 9.3s -> ~5s for the minhash+verify chain at sf0.1).  The
    # join path remains the scale fallback, same contract as the dim
    # broadcasts (bounded by an explicit row constant, both paths tested).
    cand_df = cand.to_pandas()          # bounded: the materialized pair set
    doc_ids = np.unique(
        np.concatenate([cand_df["doc_a"].to_numpy(), cand_df["doc_b"].to_numpy()])
    )
    if len(doc_ids) <= JACCARD_BROADCAST_MAX_DOCS:
        wref = ray.put(doc_ids)         # sorted by construction (np.unique)

        def keep_wanted(t: pa.Table) -> pa.Table:
            wanted = ray.get(wref)
            if len(wanted) == 0:
                # legal on other inputs (zero LSH candidates); without this
                # the -1 clamp below indexes into an empty array
                return t.slice(0, 0)
            ids = t["doc_id"].to_numpy()
            pos = np.searchsorted(wanted, ids)
            hit = (pos < len(wanted)) & (
                wanted[np.minimum(pos, len(wanted) - 1)] == ids
            )
            return t.filter(pa.array(hit))

        # bounded: <= len(doc_ids) rows of candidate text, held in the
        # OBJECT STORE (ray.put), never in a driver dict
        texts_tbl = pa.concat_tables(
            ray.get(
                docs.map_batches(
                    keep_wanted, batch_format="pyarrow"
                ).to_arrow_refs()
            )
        )
        tref = ray.put(texts_tbl)

        def attach(t: pa.Table) -> pa.Table:
            lut = ray.get(tref)
            order = np.argsort(lut["doc_id"].to_numpy())
            ids_sorted = lut["doc_id"].to_numpy()[order]
            def gather(col):
                pos = np.searchsorted(ids_sorted, col.to_numpy())
                return lut["text"].take(pa.array(order[pos]))
            return pa.table(
                {
                    "doc_a": t["doc_a"],
                    "doc_b": t["doc_b"],
                    "text_a": gather(t["doc_a"]),
                    "text_b": gather(t["doc_b"]),
                }
            )

        j = cand.map_batches(attach, batch_format="pyarrow")
    else:
        parts = _join_parts(2)
        j = cand.join(
            docs,
            join_type="inner",
            num_partitions=parts,
            on=("doc_a",),
            right_on=("doc_id",),
            right_suffix="_a",
        ).join(
            docs,
            join_type="inner",
            num_partitions=parts,
            on=("doc_b",),
            right_on=("doc_id",),
            right_suffix="_b",
        )

    def verify(t: pa.Table) -> pa.Table:
        names = t.column_names
        col_a = "text_a" if "text_a" in names else "text"
        col_b = "text_b" if "text_b" in names else [
            c for c in names if c.startswith("text") and c != col_a
        ][0]
        cache: dict = {}
        keep_a, keep_b, jac = [], [], []
        for a, b, sa, sb in zip(
            t["doc_a"].to_pylist(),
            t["doc_b"].to_pylist(),
            t[col_a].to_pylist(),
            t[col_b].to_pylist(),
        ):
            ha = set(_shingle_hashes(sa or "", cache).tolist())
            hb = set(_shingle_hashes(sb or "", cache).tolist())
            if not ha or not hb:
                continue
            jv = len(ha & hb) / len(ha | hb)
            if jv >= JACCARD_THRESHOLD:
                keep_a.append(a)
                keep_b.append(b)
                jac.append(jv)
        return pa.table(
            {
                "doc_a": pa.array(keep_a, pa.int64()),
                "doc_b": pa.array(keep_b, pa.int64()),
                "jaccard": pa.array(jac, pa.float64()),
            }
        )

    return j.map_batches(verify, batch_format="pyarrow")


# ---- SimHash -------------------------------------------------------------

def dedup_simhash(sf_dir: str) -> ray.data.Dataset:
    """64-bit SimHash per document (hex string column)."""

    def f(t: pa.Table) -> pa.Table:
        # vectorized: each UNIQUE word in the batch is hashed once into a
        # ±1 bit-row; doc accumulators come from one cumsum over the
        # concatenated word rows, sliced at doc boundaries.  Bit-identical
        # to the per-word loop it replaced (same hash, same sign rule).
        shifts = np.arange(64, dtype=np.uint64)
        vocab: dict[str, int] = {}
        bit_rows: list[np.ndarray] = []
        word_idx: list[int] = []
        doc_ptr = [0]
        for s in t["text"].to_pylist():
            for w in (s or "").lower().split():
                i = vocab.get(w)
                if i is None:
                    i = len(vocab)
                    vocab[w] = i
                    h = np.uint64(
                        zlib.crc32(w.encode()) | (zlib.crc32(w[::-1].encode()) << 32)
                    )
                    bit_rows.append(
                        (((h >> shifts) & np.uint64(1)).astype(np.int8) * 2 - 1)
                    )
                word_idx.append(i)
            doc_ptr.append(len(word_idx))
        n_docs = len(doc_ptr) - 1
        if vocab:
            contrib = np.stack(bit_rows)[np.array(word_idx)]      # (W, 64) int8
            csum = np.vstack(
                [
                    np.zeros((1, 64), dtype=np.int64),
                    np.cumsum(contrib, axis=0, dtype=np.int64),
                ]
            )
            ptr = np.array(doc_ptr)
            acc = csum[ptr[1:]] - csum[ptr[:-1]]                   # (D, 64)
        else:
            acc = np.zeros((n_docs, 64), dtype=np.int64)
        vals = ((acc > 0).astype(np.uint64) << shifts).sum(axis=1)
        out = [f"{v:016x}" for v in vals]
        return pa.table({"doc_id": t["doc_id"], "simhash": pa.array(out)})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(f, batch_format="pyarrow")


# ---- embedding-cosine near-dup ------------------------------------------

# the exact embedding baseline refuses inputs above this: a 500k x
# 128-float64 matrix is a ~512 MB broadcast and a 2.5e11-dot-product scan —
# the IVF path exists precisely so nothing larger ever takes this route
DEDUP_EMBEDDING_MAX_ROWS = 500_000


def _normalized_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy()
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return ids, mat / norms


def dedup_embedding(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """(id_a, id_b) pairs with cosine similarity > threshold, id_a < id_b.

    The normalized matrix is broadcast once with ``ray.put`` and each batch
    computes a block-row of the similarity matrix (numpy matmul) — the
    brute-force baseline; the scale path is ``dedup_embedding_ivf``.
    The exact baseline REFUSES inputs above
    ``DEDUP_EMBEDDING_MAX_ROWS``: the full matrix broadcast and O(N²)
    similarity scan are its design, not an accident, and they stop being
    affordable long before the driver read does.
    """
    import pyarrow.parquet as pq

    n_rows = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    if n_rows > DEDUP_EMBEDDING_MAX_ROWS:
        raise ValueError(
            f"dedup_embedding is an exact full-matrix baseline capped at "
            f"{DEDUP_EMBEDDING_MAX_ROWS} vectors (got {n_rows}); use the "
            "IVF scale path instead: dedup_embedding_ivf"
        )
    schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    if n_rows == 0:
        return schema.empty_table()     # np.linalg.norm needs a 2-D matrix
    ids_all, mat = _normalized_matrix(sf_dir)
    ref = ray.put((ids_all, mat))
    order = {int(v): i for i, v in enumerate(ids_all)}

    def block(t: pa.Table) -> pa.Table:
        ids_a, mat_all = ray.get(ref)
        rows = [order[int(v)] for v in t["vec_id"].to_pylist()]
        sims = mat_all[rows] @ mat_all.T
        out_a, out_b = [], []
        for r, i in enumerate(rows):
            hits = np.nonzero(sims[r] > COSINE_THRESHOLD)[0]
            for j in hits:
                if ids_a[i] < ids_a[j]:
                    out_a.append(int(ids_a[i]))
                    out_b.append(int(ids_a[j]))
        return pa.table(
            {"id_a": pa.array(out_a, pa.int64()), "id_b": pa.array(out_b, pa.int64())}
        )

    ds = _read(sf_dir, "embeddings", ["vec_id"])
    return _typed(
        ds.map_batches(block, batch_format="pyarrow", batch_size=512), schema
    )


def dedup_embedding_ivf(sf_dir: str) -> ray.data.Dataset:
    """Embedding-cosine near-dup pairs — the IVF-bucketed SCALE path for
    ``dedup_embedding`` (which broadcasts the full matrix): vectors are
    assigned to their top-2 coarse clusters (same deterministic Lloyd
    training as ``similarity.ann_ivf``: tiny centroid matrix broadcast,
    embeddings stream), pairwise cosine runs only WITHIN a cluster via
    ``groupby(cluster).map_groups``, and cross-assignment duplicates
    collapse to distinct pairs.  Every emitted pair is exact (same dot
    product as the brute force); pairs whose endpoints share no top-2
    cluster are missed — recall vs the brute-force oracle is pinned in
    tests.  The shuffle carries (cluster, vec_id, embedding) rows — 2x the
    embedding table, never an all-pairs blowup: K grows with N so a
    cluster holds ~2N/K ≈ 4096 vectors and the per-group matmul stays
    ~4096² (~130 MB float64) regardless of corpus size."""
    import pandas as pd

    from .similarity import TRAIN_SAMPLE_ROWS, _load, _normalize

    # deterministic coarse quantizer trained driver-side on a BOUNDED
    # row-group-streamed sample (first 100k rows), as in ann_ivf
    ids, mat = _load(sf_dir, max_rows=TRAIN_SAMPLE_ROWS)
    _TARGET_CLUSTER = 4096
    # K scales with the FULL table size (parquet metadata, no read) so
    # per-cluster pairwise work stays bounded — but is CAPPED at
    # sample/32 so every centroid has >= 32 training points (a K beyond
    # that would produce duplicate linspace seeds Lloyd can never
    # separate).  With the 100k sample the cap is 3125 clusters ->
    # per-cluster size grows past the 4096 target only beyond ~6M rows,
    # degrading gradually (bigger in-cluster matmuls), never wrongly.
    import pyarrow.parquet as _pq

    n_total = _pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    K = max(8, min(-((-2 * n_total) // _TARGET_CLUSTER), len(ids) // 32 or 8))
    from .similarity import _train_centroids

    cent = _train_centroids(mat[np.argsort(ids)], K)
    cref = ray.put(cent)

    def assign_top2(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        bids = t["vec_id"].to_numpy()
        bmat = _normalize(np.asarray(t["embedding"].to_pylist(), dtype=np.float64))
        top2 = np.argsort(-(bmat @ c.T), axis=1)[:, :2]          # (B, 2)
        emb = pa.array(bmat.tolist(), pa.list_(pa.float64()))
        return pa.table(
            {
                "cluster": pa.array(
                    np.concatenate([top2[:, 0], top2[:, 1]]), pa.int64()
                ),
                "vec_id": pa.array(np.concatenate([bids, bids]), pa.int64()),
                "embedding": pa.concat_arrays([emb, emb]),
            }
        )

    def in_cluster_pairs(g: pd.DataFrame) -> pd.DataFrame:
        bids = g["vec_id"].to_numpy()
        bmat = np.asarray(list(g["embedding"]), dtype=np.float64)
        sims = bmat @ bmat.T
        ia, ib = np.nonzero(sims > COSINE_THRESHOLD)
        keep = bids[ia] < bids[ib]
        return pd.DataFrame(
            {"id_a": bids[ia][keep], "id_b": bids[ib][keep]}
        ).astype("int64")

    pairs = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(assign_top2, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(in_cluster_pairs, batch_format="pandas")
    )
    # a pair found in both shared clusters collapses to one row; the
    # (tiny) result is materialized so a zero-pair corpus keeps a typed
    # schema — groupby over an all-empty stream loses it (same guard as
    # minhash_candidates / simhash_candidates, see CLAUDE.md)
    out = (
        pairs.groupby(["id_a", "id_b"])
        .count()
        .select_columns(["id_a", "id_b"])
        .materialize()
    )
    if out.count() == 0:
        return ray.data.from_arrow(
            pa.table({"id_a": pa.array([], pa.int64()),
                      "id_b": pa.array([], pa.int64())})
        )
    return out


DEDUP_EMBEDDING_SQL = (
    "SELECT a.vec_id AS id_a, b.vec_id AS id_b "
    "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
    f"WHERE list_cosine_similarity(a.embedding, b.embedding) > {COSINE_THRESHOLD}"
)

ORACLES: dict[str, str] = {
    "dedup_exact": DEDUP_EXACT_SQL,
    "dedup_embedding": DEDUP_EMBEDDING_SQL,
}


# ---- SimHash near-dup candidates (Hamming-band bucketing) ----------------

def simhash_candidates(sf_dir: str) -> ray.data.Dataset:
    """Near-dup candidate pairs from SimHash: split each 64-bit fingerprint
    into 4 x 16-bit bands — two fingerprints within Hamming distance 3
    must agree exactly on at least one band (pigeonhole), so a per-band
    self-join finds all such pairs without any pairwise comparison.  Same
    shuffle-conscious shape as `minhash_candidates`: bands explode
    in-batch, a hash-partitioned SELF-JOIN on (band_id, band_val) expands
    bucket cross-products in Arrow C++ (fp travels as an int64 payload),
    the Hamming distance is computed vectorized post-join, and candidates
    collapse to distinct (doc_a, doc_b) with the min Hamming attached
    (<= 3 kept).  No driver-side hot-key set, no per-group Python
    callback."""
    from ._common import _join_parts

    HAM_MAX = 3

    def band_rows(t: pa.Table) -> pa.Table:
        fps = np.array(
            [int(h, 16) for h in t["simhash"].to_pylist()], dtype=np.uint64
        )
        ids = t["doc_id"].to_numpy()
        n = len(ids)
        bands = np.empty((n, 4), dtype=np.int64)
        for b in range(4):
            bands[:, b] = ((fps >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(
                np.int64
            )
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(4, dtype=np.int32), n)),
                "band_val": pa.array(bands.reshape(-1)),
                "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
                "fp": pa.array(np.repeat(fps.view(np.int64), 4)),
            }
        )

    fps_ds = dedup_simhash(sf_dir)
    # materialized: both self-join sides consume it (4 rows x 20 bytes per
    # doc — far smaller than the text the fingerprints derive from)
    bands = fps_ds.map_batches(band_rows, batch_format="pyarrow").materialize()
    n_band_rows = bands.count()
    if n_band_rows == 0:
        return ray.data.from_arrow(
            _EMPTY_PAIRS.append_column("hamming", pa.array([], pa.int64()))
        )

    pairs = bands.join(
        bands,
        join_type="inner",
        num_partitions=_band_join_parts(n_band_rows, _join_parts()),
        on=("band_id", "band_val"),
        left_suffix="_a",
        right_suffix="_b",
    )

    def hamming_filter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["doc_id_a"], t["doc_id_b"]))
        x = t["fp_a"].to_numpy().astype(np.uint64) ^ t["fp_b"].to_numpy().astype(
            np.uint64
        )
        ham = np.zeros(len(x), dtype=np.int64)
        while True:
            nz = x != 0
            if not nz.any():
                break
            ham[nz] += 1
            x = x & (x - np.uint64(1))
        t = pa.table(
            {
                "doc_a": t["doc_id_a"],
                "doc_b": t["doc_id_b"],
                "hamming": pa.array(ham, pa.int64()),
            }
        )
        return t.filter(pc.less_equal(t["hamming"], HAM_MAX))

    cand = pairs.map_batches(hamming_filter, batch_format="pyarrow")
    from ray.data.aggregate import Min

    out = (
        cand.groupby(["doc_a", "doc_b"])
        .aggregate(Min("hamming", alias_name="hamming"))
        .materialize()
    )
    if out.count() == 0:
        return ray.data.from_arrow(
            _EMPTY_PAIRS.append_column("hamming", pa.array([], pa.int64()))
        )
    return out


# ---- candidate pairs -> clusters -> survivors ----------------------------

_CC_MAX_ITERS = 16      # label propagation rounds; dup clusters are
                        # near-cliques (diameter ~1-2), so this is generous
_CC_DRIVER_MAX_EDGES = 1_000_000    # below this, driver union-find beats
                                    # per-round shuffle fixed costs (~16 MB)

# verified-pair cache, keyed by (Ray job, sf_dir): dedup_components and
# dedup_survivors both consume dedup_jaccard's output — within one driver
# session the pair set is deterministic and immutable, so the expensive
# minhash -> jaccard chain runs once, not once per downstream query.  The
# job id in the key keeps stale object refs from leaking across
# ray.shutdown()/init cycles in one process.
_PAIR_CACHE: dict = {}


def _verified_pairs(sf_dir: str) -> ray.data.Dataset:
    import os

    try:
        job = ray.get_runtime_context().get_job_id()
    except Exception:
        job = None
    try:
        st = os.stat(f"{sf_dir}/documents.parquet")
        fp = (st.st_mtime_ns, st.st_size)   # input fingerprint: a rewritten
    except OSError:                          # corpus must invalidate the entry
        fp = None
    key = (job, sf_dir, fp)
    ds = _PAIR_CACHE.get(key)
    if ds is None:
        # drop entries from other jobs/inputs: dead jobs' materialized
        # handles would otherwise accumulate for process lifetime
        for k in [k for k in _PAIR_CACHE if k[0] != job]:
            _PAIR_CACHE.pop(k, None)
        ds = dedup_jaccard(sf_dir).materialize()
        _PAIR_CACHE[key] = ds
    return ds


def dedup_components(sf_dir: str) -> ray.data.Dataset:
    """Resolve verified near-dup pairs (``dedup_jaccard``) into connected
    components: (doc_id, rep_doc_id) where rep is the component's min id —
    the step that turns pairwise candidates into an actionable keep/drop
    decision.

    Distributed min-label propagation over the EDGE list (tiny relative to
    the corpus: only docs with at least one verified near-dup appear).
    Each round is one hash-partitioned join (labels onto directed edges) +
    one groupby-min — all-to-all only over edge rows — and the driver
    checks a scalar changed-count for convergence.  Rounds needed =
    component diameter; dup clusters are near-cliques so 2-3 rounds
    typically converge, with a documented cap.  No driver-side graph:
    the only driver value per round is the changed-row COUNT.

    Hybrid (the dedup_survivors pattern): an edge list at or below
    ``_CC_DRIVER_MAX_EDGES`` instead runs a driver-side union-find — each
    propagation round costs aggregator-actor spawns plus a sort shuffle
    (~1-1.5 s of fixed overhead even for a few hundred edges), so below
    the cap the exact in-memory algorithm is strictly better; the output
    is identical (one row per edge endpoint, rep = component min).  The
    distributed loop remains the scale path for edge volumes where the
    list should never be collected."""
    from ray.data.aggregate import Min

    from ._common import _join_parts

    pairs = _verified_pairs(sf_dir).select_columns(["doc_a", "doc_b"])

    def to_directed(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy()
        b = t["doc_b"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    # both directions so labels flow both ways; materialized: re-joined
    # every round
    edges = pairs.map_batches(to_directed, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "rep_doc_id": pa.array([], pa.int64()),
                }
            )
        )

    if n_edges <= _CC_DRIVER_MAX_EDGES:
        # small-graph fast path: exact union-find on the collected edge
        # list (2 x int64 x n_edges <= ~16 MB at the cap — bounded by
        # construction, unlike the corpus)
        df = edges.to_pandas()
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(df["src"].to_numpy(), df["dst"].to_numpy()):
            a, b = int(a), int(b)
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                # union by min keeps roots = component minimum as we go
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
        nodes = np.fromiter(parent.keys(), dtype=np.int64, count=len(parent))
        reps = np.fromiter((find(int(x)) for x in nodes), dtype=np.int64,
                           count=len(nodes))
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(nodes, pa.int64()),
                    "rep_doc_id": pa.array(reps, pa.int64()),
                }
            )
        )

    # label(x) := x initially, over the distinct endpoint set
    labels = (
        edges.groupby("src")
        .count()
        .map_batches(
            lambda t: pa.table(
                {"node": t["src"], "label": t["src"]}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    # size the per-round join by the EDGE volume, not the CPU budget: the
    # edge table is tiny at any realistic dup rate, and every propagation
    # round pays the spawn cost of num_partitions aggregator actors — 16
    # actors/round for a few hundred edges was the dominant (and highly
    # host-variable) cost of this operator at bench scale
    parts = min(_join_parts(), max(2, n_edges // 100_000 + 1))
    from ray.data.aggregate import Max

    for _ in range(_CC_MAX_ITERS):
        # ONE join per round: neighbor labels flow to src; the node's own
        # row rides along in the union carrying the previous label, so the
        # same groupby that takes the min candidate also recovers the old
        # label (Max over {old, -1...}) — change detection costs a cheap
        # filter+count over the materialized result instead of a second
        # hash join.
        neigh = edges.join(
            labels,
            join_type="inner",
            num_partitions=parts,
            on=("dst",),
            right_on=("node",),
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t["src"],
                    "cand": t["label"],
                    "old": pa.array(np.full(len(t), -1, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
        own = labels.map_batches(
            lambda t: pa.table(
                {"node": t["node"], "cand": t["label"], "old": t["label"]}
            ),
            batch_format="pyarrow",
        )
        new_labels = (
            neigh.union(own)
            .groupby("node")
            .aggregate(Min("cand", alias_name="label"), Max("old", alias_name="old"))
            .materialize()
        )
        changed = new_labels.map_batches(
            lambda t: t.filter(pc.not_equal(t["label"], t["old"])),
            batch_format="pyarrow",
        ).count()
        labels = new_labels
        if changed == 0:
            break
    else:
        # cap hit without convergence: labels are NOT yet the component
        # min (possible only for a component of diameter > _CC_MAX_ITERS,
        # i.e. a long near-dup chain, not the near-clique typical case) —
        # surface it rather than silently violating the rep contract
        import logging

        logging.getLogger(__name__).warning(
            "dedup_components: label propagation did not converge within "
            "%d rounds (%d labels still changing); component reps may be "
            "inconsistent — raise _CC_MAX_ITERS for chain-shaped dup sets",
            _CC_MAX_ITERS,
            changed,
        )

    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "rep_doc_id": t["label"]}),
        batch_format="pyarrow",
    )


def dedup_survivors(sf_dir: str) -> ray.data.Dataset:
    """The deduplicated corpus id list: every doc except non-representative
    members of a near-dup component (component rep = min doc_id survives).

    Hybrid anti-filter, picked by the (already-materialized) drop-list
    size:

    - SPARSE drop list (< 32 x join partitions): broadcast — collect,
      sort, ray.put, vectorized ``np.isin`` per corpus batch.  This is
      the typical case, and the mandatory one: Ray 2.49's hash join
      crashes when a right-side partition receives zero rows (schemaless
      empty partition table — observed at sf0.001 with 8 partitions over
      19 drop rows), which is exactly the sparse regime.
    - DENSE drop list: streaming left_outer anti-join — with n >= 32 keys
      per partition the P(empty partition) <= parts * e^-32 is
      negligible, and neither side is ever collected to the driver, so an
      adversarially duplicated corpus (drop list ~ O(N)) cannot blow the
      driver heap.

    The corpus side streams in both shapes."""
    from ._common import _join_parts

    drops_ds = dedup_components(sf_dir).map_batches(
        lambda t: pa.table(
            {
                "drop_id": t["doc_id"].filter(
                    pc.not_equal(t["doc_id"], t["rep_doc_id"])
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    docs = _read(sf_dir, "documents", ["doc_id"])
    n_drops = drops_ds.count()
    parts = _join_parts()

    if n_drops < parts * 32:
        drop_ids = np.sort(
            np.concatenate(
                [b["drop_id"].to_numpy() for b in
                 drops_ds.iter_batches(batch_format="pyarrow")]
                or [np.empty(0, dtype=np.int64)]
            )
        )
        dref = ray.put(drop_ids)

        def keep(t: pa.Table) -> pa.Table:
            d = ray.get(dref)
            ids = t["doc_id"].to_numpy()
            return pa.table(
                {"doc_id": pa.array(ids[~np.isin(ids, d)], pa.int64())}
            )

        return docs.map_batches(keep, batch_format="pyarrow")

    # dense path: the join consumes the key column, so a payload marker
    # survives into the left_outer output (null = keep)
    marked = drops_ds.map_batches(
        lambda t: t.append_column(
            "dropped", pa.array(np.ones(len(t), dtype=np.int8))
        ),
        batch_format="pyarrow",
    )
    joined = docs.join(
        marked,
        join_type="left_outer",
        num_partitions=parts,
        on=("doc_id",),
        right_on=("drop_id",),
    )
    return joined.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"].filter(pc.is_null(t["dropped"]))}
        ),
        batch_format="pyarrow",
    )


# ---- span_dedup: C4-style duplicate-span removal --------------------------

SPAN_WORDS = 10
_SPAN_IDX_BITS = 20            # fused key = doc_id << 20 | span_idx
_SPAN_BUCKETS = 32
# below this many input docs (parquet metadata, free) the per-batch span
# partials are gathered and finished driver-side (the dedup_exact lesson:
# the bucket exchange's fixed all-to-all cost dominates small inputs)
SPAN_DEDUP_DRIVER_MAX_ROWS = 1_000_000
# the drop list (non-first span occurrences) is broadcast via ray.put +
# searchsorted; refuse above this bound — the scale path is a partitioned
# drop ledger probed with a fused-key hash anti-join (shape documented in
# the error), which trades pass 2's map-only reconstruction for a doc_id
# re-shuffle and is only worth it when duplication itself is corpus-scale
SPAN_DEDUP_MAX_DROPS = 2_000_000


def _explode_spans(t: pa.Table):
    """Vectorized split of a batch into non-overlapping SPAN_WORDS-word
    spans.  Returns (span_doc_row, span_idx, n_spans_per_doc, span_text):
    one Arrow string per span, built from the flattened word buffer with
    a single ListArray re-offset + binary_join — no per-row Python.

    Split semantics are pinned to DuckDB's string_split(text, ' ')
    (consecutive delimiters yield empty words; '' yields one empty word),
    verified identical to pc.split_pattern in tests."""
    text = t["text"]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    nw = pc.list_value_length(words).to_numpy().astype(np.int64)
    n_spans = -(-nw // SPAN_WORDS)                    # ceil; nw >= 1 always
    total = int(n_spans.sum())
    doc_start = np.concatenate(([0], np.cumsum(nw)))
    span_doc = np.repeat(np.arange(len(nw), dtype=np.int64), n_spans)
    span_base = np.concatenate(([0], np.cumsum(n_spans)))
    span_idx = np.arange(total, dtype=np.int64) - span_base[span_doc]
    starts = doc_start[span_doc] + SPAN_WORDS * span_idx
    # spans are contiguous within and across docs, so the start positions
    # plus one terminal offset ARE the list offsets
    offsets = np.concatenate((starts, doc_start[-1:])).astype(np.int32)
    spans = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets), flat), " "
    )
    return span_doc, span_idx, n_spans, spans


_SPAN_PARTIAL_SCHEMA = pa.schema(
    [("digest", pa.string()), ("key", pa.int64()), ("bk", pa.int64()),
     ("local_drop", pa.int8())]
)


def _span_fused_keys(doc_ids: np.ndarray, span_doc: np.ndarray,
                     span_idx: np.ndarray) -> np.ndarray:
    assert span_idx.max(initial=0) < (1 << _SPAN_IDX_BITS)
    assert doc_ids.max(initial=0) < (1 << (63 - _SPAN_IDX_BITS))
    return (doc_ids[span_doc] << _SPAN_IDX_BITS) | span_idx


def _span_partials(t: pa.Table) -> pa.Table:
    """Per-batch combiner for the drop-detection pass: one row per
    DISTINCT span digest in the batch (carrying its batch-min fused key,
    which competes globally) plus one pre-resolved ``local_drop`` row per
    additional in-batch occurrence (already a certain drop — it never
    needs cross-batch resolution, it just rides the same exchange).  The
    shuffle carries 32-hex digests + int64 keys, never span content."""
    import pandas as pd

    if len(t) == 0:
        return _SPAN_PARTIAL_SCHEMA.empty_table()
    span_doc, span_idx, _, spans = _explode_spans(t)
    keys = _span_fused_keys(t["doc_id"].to_numpy(), span_doc, span_idx)
    digests, prefixes = _md5_hex_column(spans)
    df = pd.DataFrame({"digest": digests, "key": keys, "pref": prefixes})
    g = df.groupby("digest", sort=False)
    firsts = g.agg(key=("key", "min"), pref=("pref", "first")).reset_index()
    firsts["local_drop"] = np.int8(0)
    extra = df.loc[df["key"].to_numpy() != g["key"].transform("min").to_numpy(),
                   ["digest", "key", "pref"]].copy()
    extra["local_drop"] = np.int8(1)
    out = pd.concat([firsts, extra], ignore_index=True)
    h = out["pref"].to_numpy().astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    out["bk"] = ((h >> np.uint64(33)) % np.uint64(_SPAN_BUCKETS)).astype("int64")
    # pin the schema explicitly: pd.concat with an empty `extra` frame can
    # drift local_drop to object dtype on tiny batches
    return pa.Table.from_pandas(
        out[["digest", "key", "bk", "local_drop"]],
        schema=_SPAN_PARTIAL_SCHEMA,
        preserve_index=False,
    )


def _span_drops(df) -> np.ndarray:
    """Finish drop resolution over gathered/bucketed partials: every
    local_drop key drops outright; among the batch-first rows of each
    digest, every key but the global min drops."""
    local = df.loc[df["local_drop"] == 1, "key"].to_numpy()
    cand = df[df["local_drop"] == 0]
    mins = cand.groupby("digest", sort=False)["key"].transform("min")
    lost = cand.loc[cand["key"].to_numpy() != mins.to_numpy(), "key"].to_numpy()
    return np.concatenate((local, lost)).astype(np.int64)


def span_dedup(sf_dir: str) -> ray.data.Dataset:
    """C4-style duplicate-SPAN removal (Raffel et al. 2020 §2.2 dedup the
    corpus at span granularity, not doc granularity): split every doc
    into non-overlapping SPAN_WORDS-word spans, keep only the globally
    FIRST occurrence (min (doc_id, span_idx)) of each distinct span, drop
    every other occurrence — including repeats inside a single doc — and
    reassemble each doc from its kept spans.  Docs that lose every span
    vanish from the output (boilerplate-only docs).

    Output: (doc_id, clean_text, kept_spans, total_spans).

    Scale shape (the reference has no dedup; SURVEY.md §2.8 addition):
      pass 1  vectorized explode -> per-batch combiner -> ONE exchange of
              (digest, fused int64 key) rows — one row per distinct span
              per batch plus the rare in-batch repeats; span content
              never shuffles.  Small inputs finish driver-side (the
              dedup_exact pattern), large ones via the bucket groupby.
      pass 2  the drop list (duplicate occurrences only — the sparse side,
              unlike a keep list) broadcasts once via ray.put as a sorted
              int64 array; reconstruction is MAP-ONLY: re-explode, mask
              dropped spans with one searchsorted probe, rebuild each
              doc's text with a ListArray re-offset + binary_join.  No
              doc-level shuffle, because docs are whole within batches.
    """
    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    combined = docs.map_batches(_span_partials, batch_format="pyarrow")

    # Ray 2.49 manufactures SCHEMALESS empty blocks that bypass the UDF
    # (CLAUDE.md round-4 note), so drop zero-row tables before concat
    def _gather(ds) -> pa.Table | None:
        tbls = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tbls) if tbls else None

    if pq.read_metadata(path).num_rows <= SPAN_DEDUP_DRIVER_MAX_ROWS:
        tbl = _gather(combined)
        drops = (
            _span_drops(tbl.select(["digest", "key", "local_drop"]).to_pandas())
            if tbl is not None else np.empty(0, np.int64)
        )
    else:
        def reduce_bucket(g):
            import pandas as pd

            if g.empty:
                return pd.DataFrame({"key": pd.array([], dtype="int64")})
            return pd.DataFrame({"key": _span_drops(g)})

        drop_ds = combined.groupby("bk").map_groups(
            reduce_bucket, batch_format="pandas"
        )
        tbl = _gather(drop_ds)
        drops = (
            tbl["key"].to_numpy().astype(np.int64)
            if tbl is not None else np.empty(0, np.int64)
        )

    if len(drops) > SPAN_DEDUP_MAX_DROPS:
        raise ValueError(
            f"span_dedup drop list has {len(drops)} entries "
            f"(> SPAN_DEDUP_MAX_DROPS={SPAN_DEDUP_MAX_DROPS}); duplication "
            "is corpus-scale here — partition the drop ledger by "
            "key >> _SPAN_IDX_BITS ranges and probe it with a fused-key "
            "hash anti-join instead of the broadcast"
        )
    drops_ref = ray.put(np.sort(drops))
    schema = pa.schema(
        [("doc_id", pa.int64()), ("clean_text", pa.string()),
         ("kept_spans", pa.int64()), ("total_spans", pa.int64())]
    )

    def rebuild(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return schema.empty_table()
        dr = ray.get(drops_ref)
        span_doc, span_idx, n_spans, spans = _explode_spans(t)
        doc_ids = t["doc_id"].to_numpy()
        keys = _span_fused_keys(doc_ids, span_doc, span_idx)
        kept = np.ones(len(keys), dtype=bool)
        if len(dr):
            pos = np.searchsorted(dr, keys)
            inb = pos < len(dr)
            kept[inb] = dr[pos[inb]] != keys[inb]
        kept_counts = np.bincount(
            span_doc[kept], minlength=len(doc_ids)
        ).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(kept_counts))).astype(np.int32)
        clean = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(offsets), spans.filter(pa.array(kept))
            ),
            " ",
        )
        out = pa.table(
            {"doc_id": pa.array(doc_ids, pa.int64()),
             "clean_text": clean,
             "kept_spans": pa.array(kept_counts),
             "total_spans": pa.array(n_spans.astype(np.int64))}
        )
        return out.filter(pc.greater(out["kept_spans"], 0))

    return _typed(docs.map_batches(rebuild, batch_format="pyarrow"), schema)


ORACLES["span_dedup"] = f"""
WITH w AS (
  SELECT doc_id, string_split(text, ' ') AS words FROM documents
),
spans AS (
  SELECT doc_id, i AS span_idx,
         array_to_string(words[i*{SPAN_WORDS}+1 : i*{SPAN_WORDS}+{SPAN_WORDS}], ' ')
           AS span_text
  FROM w, UNNEST(range(CAST(ceil(len(words)/{SPAN_WORDS}.0) AS BIGINT))) AS t(i)
),
ranked AS (
  SELECT doc_id, span_idx, span_text,
         row_number() OVER (PARTITION BY md5(span_text)
                            ORDER BY doc_id, span_idx) AS rn
  FROM spans
),
totals AS (
  SELECT doc_id, count(*)::BIGINT AS total_spans FROM spans GROUP BY doc_id
)
SELECT k.doc_id,
       string_agg(k.span_text, ' ' ORDER BY k.span_idx) AS clean_text,
       count(*)::BIGINT AS kept_spans,
       t.total_spans
FROM ranked k JOIN totals t USING (doc_id)
WHERE k.rn = 1
GROUP BY k.doc_id, t.total_spans
"""


# ---- exact-duplicate cluster-size histogram ------------------------------

def dup_cluster_hist(sf_dir: str) -> pa.Table:
    """Histogram of EXACT-duplicate cluster sizes — the dedup planning
    statistic ("is the corpus 2% dups in pairs or one 10k-copy boiler-
    plate?") that decides whether survivors need the broadcast or the
    join path.  Same stream as ``dedup_exact`` but the combiner carries
    per-batch COUNTS per digest; the bucket reduce sums them exactly
    (each digest lives in one prefix bucket) and emits that bucket's
    (cluster_size, n_clusters) partial, so the driver folds
    max-cluster-size x buckets rows — corpus rows never leave the
    cluster."""

    def digest_counts(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"text_md5": pa.array([], pa.string()),
             "c": pa.array([], pa.int64()),
             "bk": pa.array([], pa.int64())}
        )
        if len(t) == 0:
            return empty
        import pandas as pd

        digests, prefixes = _md5_hex_column(t["text"])
        df = pd.DataFrame({"text_md5": digests, "pref": prefixes})
        part = (
            df.groupby("text_md5", sort=False)
            .agg(c=("text_md5", "size"), pref=("pref", "first"))
            .reset_index()
        )
        h = part["pref"].to_numpy() * np.uint64(0x9E3779B97F4A7C15)
        bk = ((h >> np.uint64(33)) % np.uint64(_DEDUP_EXACT_BUCKETS)).astype(
            "int64"
        )
        return pa.table(
            {"text_md5": pa.array(part["text_md5"], pa.string()),
             "c": pa.array(part["c"].astype("int64")),
             "bk": pa.array(bk, pa.int64())}
        )

    def bucket_hist(g) -> "pd.DataFrame":
        import pandas as pd

        if g.empty:
            return pd.DataFrame(
                {"cluster_size": pd.array([], dtype="int64"),
                 "n_clusters": pd.array([], dtype="int64")}
            )
        sizes = g.groupby("text_md5", sort=False)["c"].sum()
        u, n = np.unique(sizes.to_numpy(np.int64), return_counts=True)
        return pd.DataFrame(
            {"cluster_size": u.astype("int64"),
             "n_clusters": n.astype("int64")}
        )

    folded = (
        _read(sf_dir, "documents", ["text"])
        .map_batches(digest_counts, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(bucket_hist, batch_format="pandas")
        .to_pandas()    # bounded: max cluster size x buckets
    )
    empty = pa.table(
        {"cluster_size": pa.array([], pa.int64()),
         "n_clusters": pa.array([], pa.int64())}
    )
    if folded.empty:
        return empty
    g = folded.groupby("cluster_size", sort=True)["n_clusters"].sum().reset_index()
    return pa.table(
        {"cluster_size": pa.array(g["cluster_size"].astype("int64")),
         "n_clusters": pa.array(g["n_clusters"].astype("int64"))}
    )


ORACLES["dup_cluster_hist"] = (
    "WITH g AS (SELECT md5(text) AS d, count(*)::BIGINT AS sz "
    "FROM documents GROUP BY 1) "
    "SELECT sz AS cluster_size, count(*)::BIGINT AS n_clusters "
    "FROM g GROUP BY 1"
)


# ---- per-source exact-duplicate census (curation cut of dedup_exact) -----

def dup_rate_by_source(sf_dir: str) -> "pa.Table":
    """Per-source exact-duplicate census: how many of each source's docs
    share their md5(text) with ANY other doc (its own source or another)
    — the curation cut of ``dedup_exact`` ("which feeds are re-crawls?")
    that sets per-source dedup priorities before mixing weights.

    A digest's rows must MEET to decide dup-ness, so the exchange is the
    same digest-bucket shape as dedup_exact: per-batch (digest, source,
    c) partials — one row per (batch, digest, source) — bucket-tagged by
    the digest prefix; each bucket folds exact per-digest totals and
    emits (source, n_docs, n_dup_docs) int partials, so the driver fold
    is bounded by sources × buckets, never rows.  Below
    ``DEDUP_EXACT_BROADCAST_MAX_ROWS`` input rows the combined partials
    are gathered and folded driver-side instead (the bucket exchange's
    fixed cost dominates small inputs — dedup_exact's measured contract),
    with the bucket reduce as the scale path, pinned identical by the
    module's standard zero-threshold parity test."""
    import pyarrow.parquet as pq

    def digest_and_combine(t: pa.Table) -> pa.Table:
        import pandas as pd

        digests, prefixes = _md5_hex_column(t["text"])
        df = pd.DataFrame(
            {
                "text_md5": digests,
                "source": np.asarray(t["source"].to_pylist(), dtype=object),
                "pref": prefixes,
            }
        )
        part = (
            df.groupby(["text_md5", "source"], sort=False)
            .agg(c=("pref", "size"), pref=("pref", "first"))
            .reset_index()
        )
        h = part["pref"].to_numpy() * np.uint64(0x9E3779B97F4A7C15)
        part["bk"] = (
            (h >> np.uint64(33)) % np.uint64(_DEDUP_EXACT_BUCKETS)
        ).astype("int64")
        part["c"] = part["c"].astype("int64")
        return pa.Table.from_pandas(
            part[["text_md5", "source", "c", "bk"]], preserve_index=False
        )

    def fold(df) -> "pa.Table":
        # exact within any frame that holds ALL rows of its digests
        # (a whole bucket, or the gathered partials)
        import pandas as pd

        tot = df.groupby("text_md5", sort=False)["c"].sum()
        isdup = df["text_md5"].map(tot).to_numpy() >= 2
        n_docs = df.groupby("source", sort=False)["c"].sum()
        n_dup = (
            df[isdup].groupby("source", sort=False)["c"].sum()
            .reindex(n_docs.index, fill_value=0)
        )
        return pa.table(
            {"source": pa.array(n_docs.index.to_numpy(object), pa.string()),
             "n_docs": pa.array(n_docs.to_numpy(np.int64)),
             "n_dup_docs": pa.array(n_dup.to_numpy(np.int64))}
        )

    def reduce_bucket(g):
        import pandas as pd

        if g.empty:
            return pd.DataFrame(
                {"source": pd.array([], dtype="object"),
                 "n_docs": pd.array([], dtype="int64"),
                 "n_dup_docs": pd.array([], dtype="int64")}
            )
        return fold(g).to_pandas()

    empty = pa.table(
        {"source": pa.array([], pa.string()),
         "n_docs": pa.array([], pa.int64()),
         "n_dup_docs": pa.array([], pa.int64())}
    )
    path = f"{sf_dir}/documents.parquet"
    combined = _read(sf_dir, "documents", ["source", "text"]).map_batches(
        digest_and_combine, batch_format="pyarrow"
    )
    if pq.read_metadata(path).num_rows <= DEDUP_EXACT_BROADCAST_MAX_ROWS:
        tbls = [t for t in ray.get(combined.to_arrow_refs()) if t.num_rows]
        tbl = pa.concat_tables(tbls) if tbls else pa.table({})
        if len(tbl) == 0:
            return empty
        out = fold(tbl.select(["text_md5", "source", "c"]).to_pandas())
    else:
        parts = (
            combined.groupby("bk")
            .map_groups(reduce_bucket, batch_format="pandas")
            .to_pandas()    # bounded: sources x buckets
        )
        if parts.empty:
            return empty
        g = parts.groupby("source", sort=True).sum().reset_index()
        out = pa.table(
            {"source": pa.array(g["source"], pa.string()),
             "n_docs": pa.array(g["n_docs"].astype("int64")),
             "n_dup_docs": pa.array(g["n_dup_docs"].astype("int64"))}
        )
    return out


ORACLES["dup_rate_by_source"] = (
    "WITH d AS (SELECT source, md5(text) AS h FROM documents), "
    "c AS (SELECT h, count(*) AS n FROM d GROUP BY 1) "
    "SELECT d.source, count(*)::BIGINT AS n_docs, "
    "sum(CASE WHEN c.n >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup_docs "
    "FROM d JOIN c USING (h) GROUP BY 1"
)
