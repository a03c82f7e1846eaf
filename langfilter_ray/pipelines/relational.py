"""Relational/reporting operators — the reference's aggregation & ordering
surface (SURVEY.md §2.6-§2.7) re-expressed over the testdata tables:

  status_counts        — A1 job-status counts  -> events groupby event_type
  event_type_by_bucket — A4 gate-path distribution -> groupby computed key
  recent_window_count  — A2 recent-window count (max(ts) - 1h)
  top50_recent         — A3/O3 "50 most recent" sort+limit
  events_filtered_sorted — O1/O4 filter + global sort + limit
  revenue_by_nation    — orders ⋈ customer ⋈ nation via the broadcast-
                         small-side pattern (J3): the dimension maps ride
                         in the task closure once, the fact table streams
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from ._common import (
    BROADCAST_DIM_MAX_ROWS,
    _dim_num_rows,
    _join_parts,
    _partial_group_agg,
    _probe_lookup,
    _read,
    _schema,
    _typed,
)


# ---- A1: status counts ---------------------------------------------------

def status_counts(sf_dir: str) -> ray.data.Dataset | pa.Table:
    return _typed(
        _read(sf_dir, "events", ["event_type"])
        .map_batches(_partial_group_agg(["event_type"]), batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_partial", alias_name="n_events")),
        _schema(sf_dir, "events", ["event_type"]).append(
            pa.field("n_events", pa.int64())
        ),
    )


# ---- A4 analog: distribution over a computed key -------------------------

def event_type_by_bucket(sf_dir: str) -> ray.data.Dataset | pa.Table:
    def add_bucket(t: pa.Table) -> pa.Table:
        bucket = np.mod(t["user_id"].to_numpy(), 10).astype(np.int64)
        return pa.table(
            {"event_type": t["event_type"], "user_bucket": pa.array(bucket)}
        )

    return _typed(
        _read(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .map_batches(
            _partial_group_agg(["event_type", "user_bucket"]),
            batch_format="pyarrow",
        )
        .groupby(["event_type", "user_bucket"])
        .aggregate(Sum("n_partial", alias_name="n_events")),
        _schema(sf_dir, "events", ["event_type"])
        .append(pa.field("user_bucket", pa.int64()))
        .append(pa.field("n_events", pa.int64())),
    )


# ---- A2: recent-window count --------------------------------------------

def recent_window_count(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "events", ["ts"])
    max_ts = ds.max("ts")            # first (tiny) pass: the watermark
    cutoff = (pd.Timestamp(max_ts) - pd.Timedelta(hours=1)).to_pydatetime()
    n = ds.map_batches(
        lambda t: t.filter(pc.greater_equal(t["ts"], pa.scalar(cutoff))),
        batch_format="pyarrow",
    ).count()
    return pa.table({"n_recent": pa.array([n], pa.int64())})


# ---- O3: top-50 most recent ---------------------------------------------

def top50_recent(sf_dir: str) -> ray.data.Dataset | pa.Table:
    cols = ["event_id", "ts", "value"]
    return _typed(
        _read(sf_dir, "events", cols)
        .sort(["ts", "event_id"], descending=[True, False])
        .limit(50),
        _schema(sf_dir, "events", cols),
    )


# ---- O1/O4: filter + global sort + limit --------------------------------

def events_filtered_sorted(sf_dir: str) -> ray.data.Dataset | pa.Table:
    cols = ["event_id", "ts", "event_type", "user_id"]
    ds = _read(sf_dir, "events", cols)
    ds = ds.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")),
        batch_format="pyarrow",
    )
    return _typed(
        ds.sort(["ts", "event_id"], descending=[True, False]).limit(100),
        _schema(sf_dir, "events", cols),
    )


# ---- J3: broadcast join, revenue by nation -------------------------------

def revenue_by_nation(sf_dir: str) -> ray.data.Dataset | pa.Table:
    """orders ⋈ customer ⋈ nation, dimensions broadcast (J3 pattern).

    nation (25 rows, bounded by spec) rides in the closure; customer
    (O(SF*150k) rows) is broadcast ONCE as sorted numpy arrays via
    ray.put and probed per batch with a binary search — the orders fact
    table streams through map_batches with no shuffle of fact rows at
    all, and the final groupby shuffles only (nation, partial-sum) rows.
    Above BROADCAST_DIM_MAX_ROWS the customer dim is no longer "small"
    and the plan switches to the hash-partitioned native Dataset.join.
    """
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    # direct-indexed LUT (nationkey is dense 0..24); -1 -> None sentinel
    nk = nation["n_nationkey"].to_numpy()
    nation_lut = np.full(int(nk.max(initial=-1)) + 2, None, dtype=object)
    nation_lut[nk] = nation["n_name"].to_pylist()

    def _to_cents(t: pa.Table) -> np.ndarray:
        return np.floor(t["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)

    if _dim_num_rows(sf_dir, "customer") <= BROADCAST_DIM_MAX_ROWS:
        cust = pq.read_table(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
        )
        keys = cust["c_custkey"].to_numpy()
        order = np.argsort(keys)
        ref = ray.put(
            (keys[order], cust["c_nationkey"].to_numpy()[order].astype(np.int64))
        )

        def join_batch(t: pa.Table) -> pa.Table:
            # shared probe: c_nationkey codes index the nation LUT directly
            names = _probe_lookup(ref, nation_lut, t["o_custkey"].to_numpy())
            # inner-join semantics, matching the fallback path and the
            # oracle: orders with no customer row are dropped, not
            # grouped under a null nation
            valid = np.not_equal(names, None)
            return pa.table(
                {
                    "n_name": pa.array(names[valid], pa.string()),
                    "price_cents": pa.array(_to_cents(t)[valid], pa.int64()),
                }
            )

        labeled = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            join_batch, batch_format="pyarrow"
        )
    else:
        # dim too big to broadcast: hash-partitioned native join on the
        # custkey, then the (bounded) nation LUT applied post-join
        orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            lambda t: pa.table(
                {
                    "o_custkey": t["o_custkey"],
                    "price_cents": pa.array(_to_cents(t), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        labeled = orders.join(
            customer,
            join_type="inner",
            num_partitions=_join_parts(),
            on=("o_custkey",),
            right_on=("c_custkey",),
        ).map_batches(
            lambda t: pa.table(
                {
                    "n_name": pa.array(
                        nation_lut[t["c_nationkey"].to_numpy()], pa.string()
                    ),
                    "price_cents": t["price_cents"],
                }
            ),
            batch_format="pyarrow",
        )

    return _typed(
        labeled.map_batches(
            _partial_group_agg(["n_name"], ["price_cents"]),
            batch_format="pyarrow",
        )
        .groupby("n_name")
        .aggregate(
            Sum("n_partial", alias_name="n_orders"),
            Sum("price_cents_partial", alias_name="total_cents"),
        ),
        pa.schema(
            [("n_name", pa.string()), ("n_orders", pa.int64()),
             ("total_cents", pa.int64())]
        ),
    )


ORACLES: dict[str, str] = {
    "status_counts": (
        "SELECT event_type, count(*)::BIGINT AS n_events FROM events "
        "GROUP BY event_type"
    ),
    "event_type_by_bucket": (
        "SELECT event_type, (user_id - (user_id // 10) * 10)::BIGINT AS user_bucket, "
        "count(*)::BIGINT AS n_events FROM events GROUP BY 1, 2"
    ),
    "recent_window_count": (
        "SELECT count(*)::BIGINT AS n_recent FROM events "
        "WHERE ts >= (SELECT max(ts) - INTERVAL 1 HOUR FROM events)"
    ),
    "top50_recent": (
        "SELECT event_id, ts, value FROM events "
        "ORDER BY ts DESC, event_id LIMIT 50"
    ),
    "events_filtered_sorted": (
        "SELECT event_id, ts, event_type, user_id FROM events "
        "WHERE event_type = 'click' ORDER BY ts DESC, event_id LIMIT 100"
    ),
    "revenue_by_nation": (
        "SELECT n.n_name, count(*)::BIGINT AS n_orders, "
        "sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT AS total_cents "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
        "JOIN nation n ON c.c_nationkey = n.n_nationkey "
        "GROUP BY n.n_name"
    ),
}
