"""Helpers shared by the operator modules: the metadata-free table reader,
the typed result, the map-side combiners, the join fan-out sizing
and the broadcast-dimension probe."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _schema(sf_dir: str, table: str, columns: list[str] | None = None) -> pa.Schema:
    """Column-pruned file schema with the pandas metadata REMOVED (footer
    read only).  The embedded pandas dict makes pyarrow.Schema
    UNHASHABLE, which breaks Ray's schema-dedup fast path in every
    downstream shuffle and spams 'Failed to hash the schemas (for
    deduplication)' from the reduce tasks."""
    import pyarrow.parquet as pq

    sch = pq.read_schema(f"{sf_dir}/{table}.parquet").remove_metadata()
    if columns is None:
        return sch
    return pa.schema([sch.field(c) for c in columns])


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """``read_parquet`` with the metadata-free schema passed in, so every
    block is metadata-free from the source: no extra map stage, and it
    covers the read operator's own bundles, which a downstream strip
    stage cannot."""
    return ray.data.read_parquet(
        f"{sf_dir}/{table}.parquet",
        columns=columns,
        schema=_schema(sf_dir, table, columns),
    )


def _typed(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset | pa.Table:
    """``ds`` executed, or a zero-row table of ``schema`` when no row came
    out (an empty input, a filter that dropped every row, a join with no
    match).  Ray Data loses the schema of an all-empty stream through a
    groupby or sort, and ``Dataset.to_pandas()`` drops the columns of any
    zero-row Dataset, so an empty result must be an Arrow table to keep
    the typed columns DuckDB returns."""
    ds = ds.materialize()
    return ds if ds.count() else schema.empty_table()


def _join_parts(n_joins: int = 1) -> int:
    """Hash-shuffle join fan-out sized to the session: each join stage
    spawns ~num_partitions aggregator actors, and a pipeline with J
    concurrent joins deadlocks if J x num_partitions exceeds the CPU
    budget (observed: two 16-partition joins wedge a 4-CPU session).
    Scale partitions with cluster CPUs, split across concurrent joins."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    return max(2, min(16, cpus // max(1, n_joins)))


def _volume_join_parts(n_rows: int, n_joins: int = 1) -> int:
    """Join fan-out sized by BOTH cluster CPUs and data volume: each
    partition costs an aggregator-actor spawn plus fixed shuffle work, so
    a 16-way join on a small table runs measurably slower than a 4-way
    (same finding as dedup._band_join_parts).  ~20k rows per partition,
    floor 2, capped by the CPU budget split across concurrent joins."""
    return max(2, min(_join_parts(n_joins), n_rows // 20_000))


def _partial_group_agg(keys: list[str], sum_cols: list[str] | None = None):
    """Map-side combiner for groupby aggregates: Ray 2.49's sort-based
    ``groupby().aggregate()`` does NOT pre-aggregate in its map stage
    (verified via ds.stats — AggregateMap emits exactly its input row
    count), so without this every raw row crosses the shuffle.  One
    pyarrow ``group_by`` per batch bounds the shuffled rows by
    groups-per-batch instead; the downstream aggregate Sums the partials
    (``n_partial`` count plus ``<col>_partial`` per requested sum)."""
    sum_cols = sum_cols or []

    def fn(t: pa.Table) -> pa.Table:
        aggs = [(c, "sum") for c in sum_cols] + [([], "count_all")]
        g = t.select(keys + sum_cols).group_by(keys).aggregate(aggs)
        cols = {k: g[k] for k in keys}
        for c in sum_cols:
            cols[f"{c}_partial"] = g[f"{c}_sum"]
        cols["n_partial"] = pc.cast(g["count_all"], pa.int64())
        return pa.table(cols)

    return fn


def _partial_group_stats(keys: list[str], col: str):
    """Map-side combiner for the Count+Sum+Min+Max multi-aggregate shape
    (see _partial_group_agg for why the combiner is explicit): emits
    ``n_partial`` / ``sum_partial`` / ``min_partial`` / ``max_partial``
    per (batch, group); Sum/Sum/Min/Max downstream reassemble the exact
    global values."""

    def fn(t: pa.Table) -> pa.Table:
        g = (
            t.select(keys + [col])
            .group_by(keys)
            .aggregate(
                [(col, "sum"), (col, "min"), (col, "max"), ([], "count_all")]
            )
        )
        cols = {k: g[k] for k in keys}
        cols["sum_partial"] = g[f"{col}_sum"]
        cols["min_partial"] = g[f"{col}_min"]
        cols["max_partial"] = g[f"{col}_max"]
        cols["n_partial"] = pc.cast(g["count_all"], pa.int64())
        return pa.table(cols)

    return fn


# A "small" dimension for the broadcast-join path is bounded here: above
# this the sorted key/code arrays (~16 B/row) stop being a tiny broadcast
# (~80 MB at the cap) and the plan falls back to the hash-partitioned
# native Dataset.join.  TPC-H customer is 150k rows x SF, so the
# broadcast path covers up to roughly SF 33.
BROADCAST_DIM_MAX_ROWS = 5_000_000


def _dim_num_rows(sf_dir: str, table: str) -> int:
    """Row count from parquet metadata — no data read."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/{table}.parquet").metadata.num_rows


def _probe_lookup(ref, lut, probe_keys: np.ndarray) -> np.ndarray:
    """Vectorized dim lookup: binary-search the broadcast sorted keys and
    take from the value LUT; unmatched keys yield None (the LUT's last
    slot), including every key when the dimension is empty."""
    keys, codes = ray.get(ref)
    if len(keys) == 0:
        return lut[np.full(len(probe_keys), -1, dtype=np.int64)]
    pos = np.minimum(np.searchsorted(keys, probe_keys), len(keys) - 1)
    return lut[np.where(keys[pos] == probe_keys, codes[pos], -1)]
