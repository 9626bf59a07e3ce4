"""Generic resumable partitioned parquet sink.

Generalizes the flagship's sink discipline (pipelines/ingest.py §sinks —
atomic rename, CRC32 checksums, per-partition manifests, resume guard on
partition count; reference analog: the keyed sink + offset-commit
semantics of the ingest topology, SURVEY.md §2 S2) into a one-call operator
any corpus pipeline can use:

    summary = write_partitioned(docs_clean, "/out/clean", key="doc_id")

- output is ONE parquet file per hash partition of complete key-groups —
  never one giant file, so a failed 100 TB run resumes by skipping every
  partition whose manifest validates (file present + CRC match);
- the input rides the direct exchange (``stages.grouping``): map tasks
  read a Dataset's blocks or Parquet file groups themselves, and reduce
  batches write and commit the files; the driver only collects their
  per-partition row counts;
- re-running with a different ``num_partitions`` into the same directory
  raises instead of silently interleaving two layouts.
"""

from __future__ import annotations

import json
import os
from functools import partial
from typing import Callable, Optional

import pyarrow as pa

import ray
from ray.data import Dataset

from ..state import lineage
from .grouping import (
    DEFAULT_NUM_PARTITIONS,
    _apply_per_partition,
    _arrow_schema,
    bucketed_reduce,
    combine_by_key,
    group_apply,
    group_apply_batches,
)


def _write_parts(out_dir: str, view: str, parts) -> list:
    """Reduce batch of :func:`write_partitioned`: each partition written to
    a file of its own, then committed.  Returns ``[(part_id, rows), ...]``."""
    out = []
    for part_id, part in parts:
        rows, crc = lineage.write_view_part(out_dir, view, part_id, part)
        lineage.commit_manifest(
            out_dir,
            part_id,
            rows_in=part.num_rows,
            rows_deduped=0,
            rows_capped=0,
            view_counts={view: rows},
            view_checksums={view: crc},
        )
        out.append((part_id, rows))
    return out


def write_partitioned(
    source,
    out_dir: str,
    *,
    key,
    view: str = "data",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    prep: Optional[Callable] = None,
    sort_by=None,
) -> dict:
    """Write ``source`` as ``num_partitions`` keyed parquet files with CRC
    manifests; skip partitions already committed by a previous run.  Each
    file's rows are sorted by ``[*key, *sort_by]`` (stable: rows tied on
    it keep their exchange order).

    ``source`` is what :func:`~.grouping.group_apply_batches` takes: a
    Dataset (its blocks are the map inputs) or a list of
    :class:`~..sources.parquet.ParquetFileGroup` (each map task reads its
    group), and ``prep(table) -> (table, rows dropped)`` runs on each map
    input in its map task.  The partitions a previous run committed are
    found from their manifests before the exchange
    (:func:`~..state.lineage.sweep_uncommitted`, which also deletes every
    file no valid manifest names) and ship no slice: a resume exchanges
    and writes only the uncommitted partitions.

    Returns ``{"rows", "num_partitions" (non-empty partitions, written or
    resumed), "resumed_partitions", "view_counts", "exchange_bytes",
    "rows_dropped"}``; the last two are the exchange's totals."""
    run_path = os.path.join(out_dir, "_run_manifest.json")
    if os.path.exists(run_path):
        with open(run_path) as f:
            prev = json.load(f)
        if prev.get("num_partitions") != num_partitions:
            raise ValueError(
                f"resume with num_partitions={num_partitions} but {out_dir} "
                f"was written with {prev.get('num_partitions')}"
            )
    os.makedirs(out_dir, exist_ok=True)
    with open(run_path + ".tmp", "w") as f:
        json.dump({"num_partitions": num_partitions, "view": view}, f)
    os.rename(run_path + ".tmp", run_path)

    committed = lineage.sweep_uncommitted(out_dir, [view])
    refs, totals = group_apply_batches(
        source,
        key,
        partial(_write_parts, out_dir, view),
        sort_by=sort_by,
        num_partitions=num_partitions,
        prep=prep,
        skip=sorted(committed),
    )
    rows = [n for batch in ray.get(refs) for _, n in batch]
    resumed = [int(m["view_counts"].get(view, 0)) for m in committed.values()]
    total = sum(rows) + sum(resumed)
    summary = {
        "rows": total,
        "num_partitions": len(rows) + len(resumed),
        "resumed_partitions": len(resumed),
        "view_counts": {view: total},
        **totals,
    }
    # the guard above reads the layout's partition count, not the count of
    # non-empty partitions the summary reports
    lineage.write_run_manifest(
        out_dir, {**summary, "view": view, "num_partitions": num_partitions}
    )
    return summary


# ---------------------------------------------------------------------------
# Range-partitioned writes + zone-map pruned reads (file-skipping clustering)
# ---------------------------------------------------------------------------

_RANGE_STATS_SCHEMA = pa.schema(
    [
        ("part_id", pa.int64()),
        ("rows", pa.int64()),
        ("resumed", pa.bool_()),
        ("zones", pa.string()),  # JSON {col: [min, max]} for this partition
    ]
)

_RPART = "__rpart"


def _as_int64_np(col):
    import numpy as np

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    v = arr.to_numpy(zero_copy_only=False)
    if v.dtype.kind == "M":
        v = v.view("int64")
    return v


def _resolve_schema(ds: Dataset, schema: "Optional[pa.Schema]"):
    """Explicit schema wins; else best-effort from the dataset (None when
    the dataset is certainly empty and Ray reports no schema)."""
    if schema is not None:
        return schema
    raw = ds.schema()
    if raw is None:
        return None
    return pa.schema([pa.field(n, t) for n, t in zip(raw.names, raw.types)])


def _write_empty_range_layout(
    out_dir: str, *, view: str, col: str, schema: pa.Schema
) -> dict:
    """A zero-row range layout: no part files, an empty zone map carrying
    the schema so ``read_zone_pruned`` can return a TYPED empty dataset."""
    import base64

    os.makedirs(out_dir, exist_ok=True)
    run_path = os.path.join(out_dir, "_run_manifest.json")
    with open(run_path + ".tmp", "w") as f:
        json.dump(
            {"num_partitions": 0, "view": view, "range_col": col,
             "boundaries": []},
            f,
        )
    os.rename(run_path + ".tmp", run_path)
    zm_path = os.path.join(out_dir, "_zone_map.json")
    with open(zm_path + ".tmp", "w") as f:
        json.dump(
            {
                "view": view,
                "range_col": col,
                "zones": {},
                "schema_ipc": base64.b64encode(
                    schema.serialize().to_pybytes()
                ).decode("ascii"),
            },
            f,
            sort_keys=True,
        )
    os.rename(zm_path + ".tmp", zm_path)
    return {
        "rows": 0,
        "num_partitions": 0,
        "resumed_partitions": 0,
        "view_counts": {view: 0},
    }


def write_range_partitioned(
    ds: Dataset,
    out_dir: str,
    *,
    col: str,
    num_partitions: int = 32,
    zone_cols=None,
    hist_bins: int = 4096,
    view: str = "data",
    persist_col: bool = True,
    schema: "Optional[pa.Schema]" = None,
) -> dict:
    """Write ``ds`` clustered into ``num_partitions`` RANGE partitions of
    ``col`` (Delta/Iceberg-style clustering), with a per-partition zone map
    (min/max of ``col`` and any ``zone_cols``) committed alongside the CRC
    manifests.  ``read_zone_pruned`` then skips every file whose range
    cannot match a predicate — the file-skipping read path a 100 TB corpus
    needs for time/range-scoped queries that hash partitioning cannot serve
    (hash scatters ranges, so every hash partition overlaps every range).

    Boundary selection costs two COLUMN-ONLY passes (global min/max, then a
    fixed ``hist_bins``-bin histogram → equal-count cuts) — driver state is
    O(hist_bins), never row- or distinct-sized.  The write pass reuses the
    direct exchange with identity partitioning (no hash) and the same
    atomic-rename + CRC + resume discipline as ``write_partitioned``."""
    import numpy as np
    import pyarrow.compute as pc

    import ray as _ray

    zone_cols = sorted(set([col] + list(zone_cols or [])))

    # pass A: global min/max (column-pruned)
    def _mm(batch: pa.Table) -> pa.Table:
        v = _as_int64_np(batch[col])
        if len(v) == 0:
            return pa.table({"lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64())})
        return pa.table({"lo": [int(v.min())], "hi": [int(v.max())]})

    mm = ds.select_columns([col]).map_batches(_mm, batch_format="pyarrow").to_pandas()
    if not len(mm):
        stored = _resolve_schema(ds, schema)
        if stored is None:
            raise ValueError(
                "write_range_partitioned: dataset is empty and has no "
                "schema; pass schema= so the layout contract can be written"
            )
        if not persist_col and col in stored.names:
            stored = stored.remove(stored.get_field_index(col))
        return _write_empty_range_layout(
            out_dir, view=view, col=col, schema=stored
        )
    lo, hi = int(mm["lo"].min()), int(mm["hi"].max())
    width = max((hi - lo + hist_bins) // hist_bins, 1)

    # pass B: fixed-bin histogram (column-pruned) → equal-count boundaries
    def _hist(batch: pa.Table) -> pa.Table:
        v = _as_int64_np(batch[col])
        b = np.clip((v - lo) // width, 0, hist_bins - 1)
        ub, cnt = np.unique(b, return_counts=True)
        return pa.table(
            {"bin": pa.array(ub.astype(np.int64)), "cnt": pa.array(cnt.astype(np.int64))}
        )

    hist = (
        combine_by_key(
            ds.select_columns([col]).map_batches(_hist, batch_format="pyarrow"),
            "bin",
            [("cnt", "sum")],
        )
        .to_pandas()
        .sort_values("bin")
    )
    cum = hist["cnt"].cumsum().to_numpy()
    total = int(cum[-1])
    targets = (np.arange(1, num_partitions) * total) // num_partitions
    cut_bins = hist["bin"].to_numpy()[np.searchsorted(cum, targets, side="left").clip(0, len(hist) - 1)]
    # boundary VALUES (right edge of the cut bin); dedupe (heavy skew can
    # collapse cuts — fewer, larger partitions, still correct)
    boundaries = np.unique((cut_bins + 1) * width + lo).astype(np.int64)
    bref = _ray.put(boundaries)

    def _assign(batch: pa.Table) -> pa.Table:
        bnd = _ray.get(bref)
        v = _as_int64_np(batch[col])
        part = np.searchsorted(bnd, v, side="right").astype(np.int32)
        return batch.append_column(_RPART, pa.array(part)).replace_schema_metadata(None)

    n_parts = len(boundaries) + 1
    run_path = os.path.join(out_dir, "_run_manifest.json")
    if os.path.exists(run_path):
        with open(run_path) as f:
            prev = json.load(f)
        if prev.get("boundaries") != [int(b) for b in boundaries]:
            raise ValueError(
                f"resume into {out_dir} with different range boundaries; "
                "delete the directory or keep the input identical"
            )
    os.makedirs(out_dir, exist_ok=True)
    with open(run_path + ".tmp", "w") as f:
        json.dump(
            {
                "num_partitions": n_parts,
                "view": view,
                "range_col": col,
                "boundaries": [int(b) for b in boundaries],
            },
            f,
        )
    os.rename(run_path + ".tmp", run_path)

    def _write(part: pa.Table, part_id: int) -> pa.Table:
        if part.num_rows == 0:
            return _RANGE_STATS_SCHEMA.empty_table()
        part = part.drop_columns([_RPART])
        zones = {}
        for zc in zone_cols:
            zarr = part[zc]
            if isinstance(zarr, pa.ChunkedArray):
                zarr = zarr.combine_chunks()
            v = _as_int64_np(zarr.drop_null())
            if len(v):
                zones[zc] = [int(v.min()), int(v.max())]
            else:
                # only null values here: no range predicate can match, so
                # an impossible zone keeps this file always-pruned
                i64 = np.iinfo(np.int64)
                zones[zc] = [int(i64.max), int(i64.min)]
        if not persist_col:
            # synthetic sort keys (e.g. a z-order code) cluster the layout
            # but don't belong in the stored schema
            part = part.drop_columns([col])
        m = lineage.load_manifest(out_dir, part_id)
        if m is not None:
            return pa.table(
                {
                    "part_id": [part_id],
                    "rows": [int(m["view_counts"].get(view, 0))],
                    "resumed": [True],
                    "zones": [json.dumps(zones, sort_keys=True)],
                },
                schema=_RANGE_STATS_SCHEMA,
            )
        rows, crc = lineage.write_view_part(out_dir, view, part_id, part)
        lineage.commit_manifest(
            out_dir,
            part_id,
            rows_in=part.num_rows,
            rows_deduped=0,
            rows_capped=0,
            view_counts={view: rows},
            view_checksums={view: crc},
        )
        return pa.table(
            {
                "part_id": [part_id],
                "rows": [rows],
                "resumed": [False],
                "zones": [json.dumps(zones, sort_keys=True)],
            },
            schema=_RANGE_STATS_SCHEMA,
        )

    stats = group_apply(
        ds.map_batches(_assign, batch_format="pyarrow"),
        _RPART,
        _write,
        pass_part_id=True,
        num_partitions=n_parts,
        identity_partition=True,
    ).to_pandas()

    zone_map = {
        int(r.part_id): json.loads(r.zones) for r in stats.itertuples()
    }
    zm_path = os.path.join(out_dir, "_zone_map.json")
    zm = {"view": view, "range_col": col, "zones": zone_map}
    stored = _resolve_schema(ds, schema)
    if stored is not None:
        # lets read_zone_pruned return a TYPED empty dataset when every
        # file is pruned (not only when the layout was written empty)
        import base64

        if not persist_col and col in stored.names:
            stored = stored.remove(stored.get_field_index(col))
        zm["schema_ipc"] = base64.b64encode(
            stored.serialize().to_pybytes()
        ).decode("ascii")
    with open(zm_path + ".tmp", "w") as f:
        json.dump(zm, f, sort_keys=True)
    os.rename(zm_path + ".tmp", zm_path)

    summary = {
        "rows": int(stats["rows"].sum()) if len(stats) else 0,
        "num_partitions": int(len(stats)),
        "resumed_partitions": int(stats["resumed"].sum()) if len(stats) else 0,
        "view_counts": {view: int(stats["rows"].sum()) if len(stats) else 0},
    }
    lineage.write_run_manifest(
        out_dir, {**summary, "view": view, "range_col": col,
                  "boundaries": [int(b) for b in boundaries]}
    )
    return summary


def read_zone_pruned(out_dir: str, *, col: str, lo=None, hi=None):
    """Read back a range-partitioned directory, SKIPPING every partition
    file whose zone ``[min, max]`` cannot intersect ``[lo, hi]`` (either
    bound may be None = unbounded).  Returns ``(dataset, files_read,
    files_skipped)``.  The returned dataset still needs the exact row-level
    filter — zone maps prune FILES, not rows."""
    import ray.data as _rd

    with open(os.path.join(out_dir, "_zone_map.json")) as f:
        zm = json.load(f)
    view = zm["view"]
    keep, skipped = [], 0
    for pid, zones in sorted(zm["zones"].items(), key=lambda kv: int(kv[0])):
        zlo, zhi = zones[col]
        if (lo is not None and zhi < lo) or (hi is not None and zlo > hi):
            skipped += 1
            continue
        keep.append(lineage.part_file(out_dir, view, int(pid)))
    if not keep:
        ipc = zm.get("schema_ipc")
        if ipc is not None:
            import base64

            sch = pa.ipc.read_schema(pa.BufferReader(base64.b64decode(ipc)))
            return _rd.from_arrow(sch.empty_table()), 0, skipped
        return _rd.from_arrow([]), 0, skipped
    return _rd.read_parquet(keep), len(keep), skipped


# ---------------------------------------------------------------------------
# Sorted-bucket tables + shuffle-free bucket joins (Hive/Spark SMB pattern)
# ---------------------------------------------------------------------------

_BUCKET_META = "_bucket_meta.json"
_BUCKET_HASH_VERSION = "fibmix-siphash-v1"  # grouping._hash_column contract


def _key_kind(t: pa.DataType) -> str:
    """The _hash_column code path family — both sides of a bucket join must
    agree or equal keys land in different buckets."""
    return "int" if pa.types.is_integer(t) else "object"


def _exchanged_schema(source, prep) -> Optional[pa.Schema]:
    """The schema of the rows ``source`` (a Dataset or a list of Parquet
    file groups) feeds the exchange, after ``prep``, without metadata;
    None when there is none to find (a certainly-empty Dataset reports no
    schema, and an empty file list has none).  ``prep`` runs on an empty
    table of the input's columns, here on the driver."""
    if isinstance(source, Dataset):
        raw = source.schema()
        if raw is None:
            return None
        empty = _arrow_schema(raw).empty_table()
    elif source:
        empty = source[0].empty()
    else:
        return None
    if prep is not None:
        empty = prep(empty)[0]
    return pa.schema([pa.field(n, t) for n, t in zip(empty.schema.names,
                                                      empty.schema.types)])


def write_bucketed(
    source,
    out_dir: str,
    *,
    key,
    num_buckets: int = DEFAULT_NUM_PARTITIONS,
    schema: Optional[pa.Schema] = None,
    prep: Optional[Callable] = None,
    sort_by=None,
) -> dict:
    """Write ``source`` as a BUCKETED table: ``num_buckets`` parquet files,
    file ``i`` holding exactly the rows whose key-hash lands in bucket
    ``i``, sorted within the file by ``[*key, *sort_by]``, plus a
    ``_bucket_meta.json`` recording the bucketing contract (key columns,
    bucket count, hash version, schema, and that order as ``sorted_by``).
    ``source``, ``prep`` and ``sort_by`` are :func:`write_partitioned`'s;
    the stored schema is the prepped one.  A reader asking for an order
    ``sorted_by`` starts with skips its sort
    (:func:`~.grouping.bucketed_reduce`).

    Two tables bucketed with the same contract can be joined by
    :func:`bucketed_join` with ZERO shuffle — the write pre-pays the
    exchange once, and every later join of the stored table (the
    fact-table-joined-every-run shape) reads matching bucket pairs
    directly.  This is the Hive/Spark sorted-bucket-merge (SMB) layout;
    the reference pre-shards spans to Kafka partitions by trace key for
    exactly this reason (JaegerSpanToAvroRawSpanTransformer.java:58-65 —
    "so raw_span_grouper can groupByKey without a repartition topic").

    Inherits :func:`write_partitioned`'s CRC manifests + resume discipline.
    """
    keys = [key] if isinstance(key, str) else list(key)
    arrow_schema = _exchanged_schema(source, prep)
    if arrow_schema is None:
        # the bucketing contract still needs a schema (its key kinds, and
        # the typed empty table of every missing bucket)
        if schema is None:
            raise ValueError(
                "write_bucketed: the input has no schema (it is certainly "
                "empty); pass schema= so the bucket contract can be written"
            )
        arrow_schema = schema
    summary = write_partitioned(
        source, out_dir, key=keys, num_partitions=num_buckets, prep=prep,
        sort_by=sort_by,
    )
    import base64

    meta = {
        "key": keys,
        "num_buckets": num_buckets,
        "hash_version": _BUCKET_HASH_VERSION,
        "key_kinds": [
            _key_kind(arrow_schema.field(k).type) for k in keys
        ],
        "schema_ipc": base64.b64encode(
            arrow_schema.serialize().to_pybytes()
        ).decode("ascii"),
        "sorted_by": keys + list(sort_by or []),
    }
    tmp = os.path.join(out_dir, _BUCKET_META + ".tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.rename(tmp, os.path.join(out_dir, _BUCKET_META))
    return summary


def _load_bucket_meta(out_dir: str) -> dict:
    import base64

    with open(os.path.join(out_dir, _BUCKET_META)) as f:
        meta = json.load(f)
    meta["schema"] = pa.ipc.read_schema(
        pa.BufferReader(base64.b64decode(meta["schema_ipc"]))
    )
    return meta


def _join_sides(keys_a, keys_b, join_type, ta: pa.Table, tb: pa.Table) -> pa.Table:
    """One bucket pair of :func:`bucketed_join` (B's keys renamed to A's)."""
    if keys_b != keys_a:
        ren = dict(zip(keys_b, keys_a))
        tb = tb.rename_columns([ren.get(c, c) for c in tb.column_names])
    return ta.join(tb, keys=keys_a, join_type=join_type)


def bucketed_join(
    dir_a: str,
    dir_b: str,
    *,
    how: str = "inner",
) -> Dataset:
    """Join two :func:`write_bucketed` tables with ZERO shuffle: bucket ``i``
    of A can only match bucket ``i`` of B (same key hash, same bucket
    count — validated loudly from the stored contracts), so the join is
    one local ``pyarrow.Table.join`` per bucket pair, run in the reduce
    batches of :func:`~.grouping.bucketed_reduce`.  Key columns may differ
    in NAME (B's are renamed to A's positionally) but must hash identically
    (same int-vs-object kind).

    Scale shape: no exchange at all.  The bucket count chosen at write
    time bounds per-task memory (buckets ≈ data / target task size);
    re-bucket with a larger count rather than letting buckets grow.  A
    missing bucket file (a hash range empty at write time) is its stored
    schema's typed empty table, which keeps outer joins correct; with no
    rows anywhere the result is the join of the two typed empty tables.
    """
    import ray.data as _rd

    from .joins import _COGROUP_JOIN_TYPES

    ma, mb = _load_bucket_meta(dir_a), _load_bucket_meta(dir_b)
    join = partial(
        _join_sides, list(ma["key"]), list(mb["key"]), _COGROUP_JOIN_TYPES[how]
    )
    refs = bucketed_reduce(
        [dir_a, dir_b],
        partial(_apply_per_partition, join, False),
        per_partition_returns=True,
    )
    if refs:
        return _rd.from_arrow_refs(refs)
    return _rd.from_arrow(
        join(ma["schema"].empty_table(), mb["schema"].empty_table())
    )


# ---------------------------------------------------------------------------
# Z-order (Morton) clustering: ONE layout where EVERY zone column prunes
# ---------------------------------------------------------------------------

_ZCODE = "__zcode"


def write_zordered(
    ds: Dataset,
    out_dir: str,
    *,
    cols,
    num_partitions: int = 32,
    bits: int = 16,
    view: str = "data",
    schema: "Optional[pa.Schema]" = None,
) -> dict:
    """Write ``ds`` clustered by the Z-ORDER (Morton) interleave of 2-3
    integer-like columns, with per-partition zone maps over ALL of them.

    Plain range clustering (:func:`write_range_partitioned`) makes exactly
    one column prunable — sorting by ``a`` scatters ``b`` across every
    file, so a ``b``-scoped query reads the whole table.  Interleaving the
    quantized bits of each column (the Delta/Iceberg ``ZORDER BY`` layout)
    keeps every file a small hyper-rectangle in (a, b) space, so
    :func:`read_zone_pruned` skips files for predicates on EITHER column.

    Scale shape: one column-pruned min/max pass per call (all ``cols`` in
    one scan), then a vectorized O(bits) shift-or Morton encode inside
    ``map_batches``, then the existing histogram-cut range writer on the
    code — driver state stays O(hist_bins); the synthetic code column is
    dropped from the stored files (``persist_col=False``).
    """
    import numpy as np
    import pyarrow.compute as pc

    cols = list(cols)
    if not 2 <= len(cols) <= 3:
        raise ValueError("write_zordered: 2-3 columns (uint64 code budget)")
    if bits * len(cols) > 62:
        raise ValueError(
            f"write_zordered: bits={bits} x {len(cols)} dims exceeds the "
            "signed-int64 code budget; lower bits"
        )
    ndims, mask = len(cols), (1 << bits) - 1

    def _mm(batch: pa.Table) -> pa.Table:
        out = {}
        for c in cols:
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            v = _as_int64_np(col.drop_null())  # zones span non-null values
            if len(v) == 0:
                return pa.table(
                    {f"{s}_{c}": pa.array([], pa.int64()) for c in cols for s in ("lo", "hi")}
                )
            out[f"lo_{c}"] = [int(v.min())]
            out[f"hi_{c}"] = [int(v.max())]
        return pa.table(out)

    mm = ds.select_columns(cols).map_batches(_mm, batch_format="pyarrow").to_pandas()
    if not len(mm):
        stored = _resolve_schema(ds, schema)
        if stored is None:
            raise ValueError(
                "write_zordered: dataset is empty and has no schema; pass "
                "schema= so the layout contract can be written"
            )
        return _write_empty_range_layout(
            out_dir, view=view, col=_ZCODE, schema=stored
        )
    ranges = {
        c: (int(mm[f"lo_{c}"].min()), int(mm[f"hi_{c}"].max())) for c in cols
    }

    def _encode(batch: pa.Table) -> pa.Table:
        code = np.zeros(batch.num_rows, dtype=np.uint64)
        for d, c in enumerate(cols):
            lo, hi = ranges[c]
            span = max(hi - lo, 1)
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if col.null_count:
                # null cluster values carry no position — park them at the
                # low edge (rows are preserved; exact row filters at read
                # time exclude them from any range predicate anyway)
                col = pc.fill_null(col, pa.scalar(lo, pa.int64()).cast(col.type))
            q = np.minimum(
                (_as_int64_np(col) - lo).astype(np.float64) * (mask / span),
                mask,
            ).astype(np.uint64)
            spread = np.zeros_like(q)
            for b in range(bits):  # O(bits) vectorized shift-or, not O(rows)
                spread |= ((q >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * ndims)
            code |= spread << np.uint64(d)
        return batch.append_column(_ZCODE, pa.array(code.astype(np.int64)))

    return write_range_partitioned(
        ds.map_batches(_encode, batch_format="pyarrow"),
        out_dir,
        col=_ZCODE,
        num_partitions=num_partitions,
        zone_cols=cols,
        view=view,
        persist_col=False,
    )


def bucketed_group_apply(
    out_dir: str,
    fn,
    *,
    sort_by=None,
    pass_part_id: bool = False,
) -> Dataset:
    """``group_apply`` with ZERO shuffle over a :func:`write_bucketed`
    table: bucket ``i`` holds every row of every key-group whose hash lands
    in ``i`` (the stored contract), so it is partition ``i`` of an exchange
    whose map side already ran, and it rides ``group_apply``'s reduce
    batches (:func:`~.grouping.bucketed_reduce`): sorted by ``[*key,
    *sort_by]``, ``fn`` runs once per non-empty bucket, one block each.

    This completes the SMB story: the exchange is pre-paid once at write
    time and amortized by EVERY later grouped computation AND join over the
    table — the reference pre-shards spans to Kafka partitions by trace key
    for exactly this reason (JaegerSpanToAvroRawSpanTransformer.java:58-65).
    When no bucket has rows the result is ``fn`` over the stored schema's
    typed empty table.
    """
    import ray.data as _rd

    run = partial(_apply_per_partition, fn, pass_part_id)
    refs = bucketed_reduce(
        [out_dir], run, sort_by=sort_by, per_partition_returns=True
    )
    if refs:
        return _rd.from_arrow_refs(refs)
    empty = _load_bucket_meta(out_dir)["schema"].empty_table()
    return _rd.from_arrow(run([(0, empty)]))
