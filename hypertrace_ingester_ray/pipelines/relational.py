"""General relational operator coverage over the TPC-H-ish testdata tables.

These exercise the engine's generic building blocks outside the transcript
topology: partial-aggregate + global combine, broadcast hash join (the J1
pattern — small side via ``ray.put``, probe inside ``map_batches``),
sort-limit, and temporal windowed aggregation.

Money amounts are aggregated as integer cents via ``floor(x*100)`` so sums
are exact and order-independent — float accumulation order differs between
engines and would break value-hash comparison against the DuckDB oracle.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data import Dataset

from ..stages.grouping import combine_by_key, top_k


def _read(sf_dir: str, table: str, columns: Sequence[str]) -> Dataset:
    from ..sources.parquet import read_parquet_clean

    return read_parquet_clean(
        os.path.join(sf_dir, f"{table}.parquet"), columns=list(columns)
    )


def _cents(col) -> pa.Array:
    """floor(x*100) as int64 — bit-identical to DuckDB FLOOR(x*100)."""
    return pc.cast(pc.floor(pc.multiply(col, pa.scalar(100.0))), pa.int64())


def lineitem_pricing_summary(sf_dir: str) -> Dataset:
    """TPC-H Q1-shaped: partial per-batch aggregation, then a tiny global
    combine over (returnflag, linestatus)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )
    names = [
        "l_returnflag",
        "l_linestatus",
        "sum_qty",
        "sum_base_price_cents",
        "sum_disc_price_cents",
        "count_order",
    ]

    def partial(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            pc.multiply(
                batch["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), batch["l_discount"]),
            ),
            pa.scalar(100.0),
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": pc.cast(batch["l_quantity"], pa.int64()),
                "sum_base_price_cents": _cents(batch["l_extendedprice"]),
                "sum_disc_price_cents": pc.cast(pc.floor(disc_price), pa.int64()),
            }
        )
        return (
            t.group_by(["l_returnflag", "l_linestatus"])
            .aggregate(
                [
                    ("sum_qty", "sum"),
                    ("sum_base_price_cents", "sum"),
                    ("sum_disc_price_cents", "sum"),
                    ([], "count_all"),
                ]
            )
            .rename_columns(names)
        )

    return combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow"),
        names[:2],
        [(c, "sum") for c in names[2:]],
    )


def revenue_by_nation(sf_dir: str) -> Dataset:
    """orders ⋈ customer ⋈ nation → revenue per nation.  Nation is
    broadcast onto customer (:func:`broadcast_table_join`), then orders are
    inner-joined with the named customers by :func:`auto_join`, which
    broadcasts them too while they are small; both joins are inner, as in
    the SQL."""
    import pyarrow.parquet as pq

    from ..stages.joins import auto_join, broadcast_table_join

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    cust = broadcast_table_join(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        nation,
        on=["c_nationkey"],
        right_on=["n_nationkey"],
    )
    joined = auto_join(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        cust,
        on=["o_custkey"],
        right_on=["c_custkey"],
    )
    names = ["n_name", "revenue_cents", "num_orders"]

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "n_name": batch["n_name"],
                "revenue_cents": _cents(batch["o_totalprice"]),
            }
        )
        return (
            t.group_by(["n_name"])
            .aggregate([("revenue_cents", "sum"), ([], "count_all")])
            .rename_columns(names)
        )

    return combine_by_key(
        joined.map_batches(_partial, batch_format="pyarrow"),
        "n_name",
        [("revenue_cents", "sum"), ("num_orders", "sum")],
    )


def top_orders(sf_dir: str, n: int = 10) -> Dataset:
    """Global top-n with a deterministic tiebreak."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return top_k(ds, [("o_totalprice", "descending"), ("o_orderkey", "ascending")], n)


def events_hourly(sf_dir: str) -> Dataset:
    """Temporal windowed aggregation over the events stream table."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    names = ["hour_ts", "event_type", "sum_value_cents", "num_events"]

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "hour_ts": pc.floor_temporal(batch["ts"], unit="hour"),
                "event_type": batch["event_type"],
                "sum_value_cents": _cents(batch["value"]),
            }
        )
        return (
            t.group_by(["hour_ts", "event_type"])
            .aggregate([("sum_value_cents", "sum"), ([], "count_all")])
            .rename_columns(names)
        )

    return combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow"),
        names[:2],
        [(c, "sum") for c in names[2:]],
    )


def shipping_priority_q3(
    sf_dir: str,
    *,
    segment: str = "BUILDING",
    cutoff: str = "1998-06-01",
    k: int = 10,
) -> Dataset:
    """TPC-H Q3 analog: top-k unshipped orders of one market segment by
    discounted revenue.

    Plan: the segment's custkeys broadcast (small side via ``ray.put``);
    orders date+semi filtered per batch; lineitem shipdate-filtered with
    per-batch per-orderkey partial revenue sums (integer cents); ONE
    co-shuffle hash join on orderkey; final small combine + top-k.
    At scale the date predicates belong in the parquet read's row-group
    filter — here they run in the first map_batches over the pruned
    column set."""
    import pyarrow.parquet as pq

    cutoff_us = np.datetime64(cutoff, "us")
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    seg_keys = pc.filter(
        cust["c_custkey"], pc.equal(cust["c_mktsegment"], segment)
    ).to_numpy(zero_copy_only=False)
    seg_ref = ray.put(np.sort(seg_keys))

    def _orders(batch: pa.Table) -> pa.Table:
        keys = ray.get(seg_ref)
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys, ck)
        pos[pos == len(keys)] = 0
        mask = (od < cutoff_us) & (keys[pos] == ck)
        return batch.select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"]
        ).filter(pa.array(mask))

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(_orders, batch_format="pyarrow")

    def _li(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(sd > cutoff_us))
        disc = pc.multiply(
            pc.multiply(
                batch["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), batch["l_discount"]),
            ),
            pa.scalar(100.0),
        )
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "revenue_cents": pc.cast(pc.floor(disc), pa.int64()),
            }
        )
        return (
            t.group_by("l_orderkey")
            .aggregate([("revenue_cents", "sum")])
            .rename_columns(["l_orderkey", "revenue_cents"])
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    ).map_batches(_li, batch_format="pyarrow")

    from ..stages.joins import cogroup_join

    joined = cogroup_join(
        li,
        orders,
        on=["l_orderkey"],
        right_on=["o_orderkey"],
        num_partitions=16,
    )
    agg = combine_by_key(
        joined,
        ["l_orderkey", "o_orderdate", "o_orderpriority"],
        [("revenue_cents", "sum")],
    )
    return top_k(
        agg, [("revenue_cents", "descending"), ("l_orderkey", "ascending")], k
    )


def customer_order_counts(
    sf_dir: str, *, before: str = "1995-07-01"
) -> Dataset:
    """LEFT OUTER join coverage: every customer with the count of orders
    placed before ``before`` — customers with none keep a zero row (the
    null-extended side of the left_outer join).  Count = non-null keys,
    partial-aggregated per batch after the join."""
    cutoff_us = np.datetime64(before, "us")

    def _early(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].to_numpy(zero_copy_only=False)
        return batch.select(["o_custkey", "o_orderkey"]).filter(
            pa.array(od < cutoff_us)
        )

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"]
    ).map_batches(_early, batch_format="pyarrow")
    cust = _read(sf_dir, "customer", ["c_custkey"])

    from ..stages.joins import cogroup_join

    joined = cogroup_join(
        cust,
        orders,
        on=["c_custkey"],
        right_on=["o_custkey"],
        how="left_outer",
        num_partitions=16,
    )

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "n_orders": pc.cast(
                    pc.is_valid(batch["o_orderkey"]), pa.int64()
                ),
            }
        )
        return t

    return combine_by_key(
        joined.map_batches(_partial, batch_format="pyarrow"),
        "c_custkey",
        [("n_orders", "sum")],
    )
