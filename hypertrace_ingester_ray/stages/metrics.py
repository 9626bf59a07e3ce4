"""Stage 5 — windowed metric aggregation (the metrics-generator analog).

Reference: MetricsProcessor groups RawServiceView rows by a metric identity
(timestamp truncated to the aggregation window + uuid of {tenant, service,
api, protocol, status}) and keeps a running sum(num_calls) in a KV store,
emitting OTLP gauges after a wait punctuator
(/root/reference/hypertrace-metrics-generator/.../MetricsProcessor.java:75-136,
MetricEmitPunctuator.java:57-115).

Batch translation: a two-level aggregation — a *partial* per-batch Arrow
group-by inside ``map_batches`` (the combiner, so the exchange moves one row
per (window, dims) per batch instead of one per turn), then the small global
``combine_by_key(partial, dims, [("num_calls", "sum")])``.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .grouping import combine_by_key

METRIC_DIMS: List[str] = ["window_ts", "tenant_id", "service_name", "api_status"]


def partial_counts(batch: pa.Table, window: str = "minute") -> pa.Table:
    """Per-batch combiner: truncate ts to the window, count turns per dims."""
    window_ts = pc.floor_temporal(batch["ts"], unit=window)
    t = pa.table(
        {
            "window_ts": window_ts,
            "tenant_id": batch["tenant_id"],
            "service_name": batch["service_name"],
            "api_status": batch["api_status"],
        }
    )
    out = t.group_by(METRIC_DIMS).aggregate([([], "count_all")])
    return out.rename_columns(METRIC_DIMS + ["num_calls"])


def finalize_partials(partials: "pa.Table") -> "pa.Table":
    """Final combine of per-partition partial counts (small by construction:
    ≤ distinct dims × partitions rows)."""
    out = partials.group_by(METRIC_DIMS).aggregate([("num_calls", "sum")])
    return out.rename_columns(METRIC_DIMS + ["num_calls"])


def to_otlp_gauges(
    batch: pa.Table, *, metric_name: str = "num_calls"
) -> pa.Table:
    """Metrics-sink rows → OTLP-gauge-shaped datapoints — the exporter-side
    format (S7, MetricsExporterService.java:29-46 converts the generator's
    windowed sums into OTLP gauges for the Prometheus collector): one row
    per datapoint ``(name, ts, value, attributes)`` where ``attributes`` is
    the key-sorted ``k=v;...`` label-set serialization of the metric dims
    (deterministic, so the artifact is oracle-hashable and diffable).
    Vectorized string concat; stateless ``map_batches`` kernel."""
    dims = sorted(d for d in METRIC_DIMS if d != "window_ts")
    parts = []
    for d in dims:
        parts.append(pa.array([f"{d}="] * batch.num_rows, pa.string()))
        parts.append(pc.fill_null(pc.cast(batch[d], pa.string()), ""))
        parts.append(pa.array([";"] * batch.num_rows, pa.string()))
    attrs = pc.binary_join_element_wise(*parts[:-1], "")
    return pa.table(
        {
            "name": pa.array([metric_name] * batch.num_rows, pa.string()),
            "ts": batch["window_ts"],
            "value": pc.cast(batch["num_calls"], pa.int64()),
            "attributes": attrs,
        }
    )


def export_metrics_otlp(out_dir: str, *, metric_name: str = "num_calls") -> str:
    """Write the OTLP-gauge export artifact next to the metrics sink:
    ``<out_dir>/metrics_otlp/`` Parquet with (name, ts, value, attributes)
    rows (atomic tmp+rename, idempotent on rerun).  The optional sidecar
    the reference runs as hypertrace-metrics-exporter."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from ..state.lineage import write_parquet

    src = os.path.join(out_dir, "metrics")
    dst = os.path.join(out_dir, "metrics_otlp")
    if os.path.exists(dst):
        return dst
    if not os.path.exists(src):
        raise FileNotFoundError(
            f"export_metrics_otlp: no metrics sink at {src}; run the "
            "pipeline (finalize_metrics) first"
        )
    tmp = dst + "_tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    # metrics sink is dims-sized (small by construction) — single-process
    # conversion, same reasoning as finalize_metrics' non-distributed path
    tbl = to_otlp_gauges(pq.read_table(src), metric_name=metric_name)
    write_parquet(tbl, os.path.join(tmp, "part-00000.parquet"))
    os.rename(tmp, dst)
    return dst


def windowed_metrics(per_turn: Dataset, window: str = "minute") -> Dataset:
    """turns → (window_ts, tenant, service, api_status, num_calls)."""
    partial = per_turn.map_batches(
        partial_counts, batch_format="pyarrow", fn_kwargs={"window": window}
    )
    return combine_by_key(partial, METRIC_DIMS, [("num_calls", "sum")])


def hopping_window_counts(
    ds: Dataset,
    *,
    window_us: int,
    hop_us: int,
    dims: List[str] = ["event_type"],
    ts_col: str = "ts",
) -> Dataset:
    """Sliding (hopping) window counts: every row lands in
    ``window_us / hop_us`` overlapping windows; counts per (window_start,
    dims).  window_us must be a multiple of hop_us.

    Same partial-aggregation shape as the tumbling-window metrics (A1): the
    window explosion AND the per-batch combine happen inside ``map_batches``
    — only (window_start, dims, partial_count) rows reach the tiny global
    combine, so the shuffle volume is bounded by distinct windows x dims, not
    by input rows x hops.
    """
    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    n_hops = window_us // hop_us
    keys = ["window_start"] + list(dims)

    def explode_partial(batch: pa.Table) -> pa.Table:
        if batch[ts_col].null_count:  # a row without a time has no window
            batch = batch.filter(pc.is_valid(batch[ts_col]))
        n = batch.num_rows
        ts = (
            batch[ts_col].combine_chunks().cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        smax = (ts // hop_us) * hop_us
        starts = (
            smax[:, None]
            - (np.arange(n_hops, dtype=np.int64) * hop_us)[None, :]
        ).reshape(-1)
        rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), n_hops))
        t = pa.table(
            {
                "window_start": pa.array(starts).cast(pa.timestamp("us")),
                **{d: batch[d].take(rep) for d in dims},
            }
        )
        out = t.group_by(keys).aggregate([([], "count_all")])
        return out.rename_columns(keys + ["num_events"])

    partial = ds.map_batches(explode_partial, batch_format="pyarrow")
    return combine_by_key(partial, keys, [("num_events", "sum")])


def hopping_window_distinct(
    ds: Dataset,
    *,
    window_us: int,
    hop_us: int,
    value_col: str,
    ts_col: str = "ts",
    num_partitions: int = 16,
) -> Dataset:
    """Exact ``COUNT(DISTINCT value_col)`` per sliding (hopping) window —
    the streaming-analytics staple ("distinct users in the last hour, every
    15 minutes") that a plain count can't answer because the same user may
    appear in many hops.

    Composition, not new machinery: the window explosion + in-batch
    (window, value) dedup happen inside ``map_batches`` (so only UNIQUE
    pairs per block leave the read task), then
    :func:`~.analytics.distinct_count` runs its single hash exchange with
    the two-``searchsorted`` run-count kernel.  Shuffle volume is bounded
    by unique (window, value) pairs per block — never rows × hops.

    Emits (window_start:timestamp[us], n_distinct:int64).
    """
    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    n_hops = window_us // hop_us

    def _explode_unique(batch: pa.Table) -> pa.Table:
        if batch[ts_col].null_count:  # a row without a time has no window
            batch = batch.filter(pc.is_valid(batch[ts_col]))
        n = batch.num_rows
        ts = (
            batch[ts_col].combine_chunks().cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        smax = (ts // hop_us) * hop_us
        starts = (
            smax[:, None]
            - (np.arange(n_hops, dtype=np.int64) * hop_us)[None, :]
        ).reshape(-1)
        rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), n_hops))
        t = pa.table(
            {
                "window_start": pa.array(starts),
                value_col: batch[value_col].take(rep),
            }
        )
        return t.group_by(["window_start", value_col]).aggregate([])

    from .analytics import distinct_count

    pairs = ds.map_batches(_explode_unique, batch_format="pyarrow")
    out = distinct_count(
        pairs,
        key="window_start",
        value_col=value_col,
        num_partitions=num_partitions,
    )

    def _final(b: pa.Table) -> pa.Table:
        return b.set_column(
            0, "window_start", pc.cast(b["window_start"], pa.timestamp("us"))
        )

    return out.map_batches(_final, batch_format="pyarrow")
