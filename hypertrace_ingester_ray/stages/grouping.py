"""Hash-partitioned, vectorized group processing — the pipeline's one shuffle.

Reference semantics: raw-spans-grouper keys every span by
``TraceIdentity(tenant_id, trace_id)`` and accumulates spans per key in RocksDB
state stores until a 30 s session-inactivity window closes
(/root/reference/raw-spans-grouper/raw-spans-grouper/src/main/java/org/
hypertrace/core/rawspansgrouper/RawSpansProcessor.java:186-247).  For bounded
Parquet input the session window collapses to a plain hash-shuffle group-by;
the state stores disappear entirely.

Ray-Data-native design — ``group_apply``:

Instead of ``groupby(conv_id).map_groups(fn)`` (one Python call per
conversation — billions of tiny calls at 10^12-turn scale), we hash the group
key into ``num_partitions`` buckets and route them through one direct
two-stage exchange (:func:`_direct_exchange`: map tasks emit hash-routed
slices, reduce tasks consume whole partitions).  Each partition holds only
complete conversations, is sorted once, and every group in it is processed
with vectorized numpy segment operations (run-length boundaries).  Python
overhead is O(partitions), not O(groups), while the shuffle volume is
identical.  The same exchange, with the same reduce batches, carries
``group_apply_batches`` (the flagship, whose map tasks also read and
normalize its input and drop its committed partitions), the two-input
``cogroup`` that every co-shuffle join builds on, and ``combine_by_key``,
the keyed sum/min behind every aggregate; slices travel as Arrow IPC
stream buffers.  Stored
bucketed tables (exchanges whose map side ran at write time) ride the same
reduce batches through ``bucketed_reduce``: bucketed replay,
``bucketed_group_apply`` and ``bucketed_join``.  Global
``ORDER BY ... LIMIT k`` is ``top_k`` (per-block top k, driver merge), so
nothing in the engine runs Ray Data's sort-shuffle ``groupby`` or ``sort``.

Skew handling, two complementary mechanisms:
- order/graph-scoped computations (enricher DAG, episode graphs) cannot be
  split without breaking semantics, so group size is bounded by a per-group
  cap (mirroring the reference's INFLIGHT_TRACE_MAX_SPAN_COUNT,
  RawSpansProcessor.java:347-388) and partitions hold many groups so one hot
  key never exceeds a single partition's budget;
- ASSOCIATIVE aggregations use ``salted_group_apply``: hot keys found by a
  key-column-only pre-count are spread across salt_factor sub-groups for
  concurrent partial aggregation, merged in a tiny second pass.
"""

from __future__ import annotations

import os
import zlib
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
from ray.data import Dataset

from ..sources.parquet import ParquetFileGroup

PART_COL = "__part"

DEFAULT_NUM_PARTITIONS = int(os.environ.get("HTR_NUM_PARTITIONS", "64"))


# ---------------------------------------------------------------------------
# numpy segment helpers (vectorized per-group ops over a key-sorted table)
# ---------------------------------------------------------------------------


def run_boundaries(*key_arrays: np.ndarray) -> np.ndarray:
    """Start offsets of each key-run in key-sorted arrays: [0, s1, ..., n]."""
    n = len(key_arrays[0])
    if n == 0:
        return np.array([0], dtype=np.int64)
    change = np.zeros(n - 1, dtype=bool)
    for a in key_arrays:
        change |= a[1:] != a[:-1]
    starts = np.flatnonzero(change) + 1
    return np.concatenate(([0], starts, [n]))


def segment_ids_from_boundaries(bounds: np.ndarray) -> np.ndarray:
    """Row → 0-based segment index. bounds as returned by run_boundaries."""
    n = bounds[-1]
    seg = np.zeros(n, dtype=np.int64)
    if len(bounds) > 2:
        seg[bounds[1:-1]] = 1
        np.cumsum(seg, out=seg)
    return seg


def segmented_cumcount(seg_ids: np.ndarray) -> np.ndarray:
    """Per-segment 0-based running count (seg_ids must be sorted)."""
    n = len(seg_ids)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    starts = np.zeros(n, dtype=np.int64)
    first = np.concatenate(([0], np.flatnonzero(seg_ids[1:] != seg_ids[:-1]) + 1))
    starts[first] = idx[first]
    np.maximum.accumulate(starts, out=starts)
    return idx - starts


def segmented_broadcast_first(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Broadcast each segment's first value to all of its rows."""
    lengths = np.diff(bounds)
    return np.repeat(values[bounds[:-1]], lengths)


def segmented_sum(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-segment sum, one value per segment."""
    return np.add.reduceat(values, bounds[:-1]) if bounds[-1] > 0 else np.zeros(0)


# ---------------------------------------------------------------------------
# hash partitioning
# ---------------------------------------------------------------------------


def _hash_column(col: pa.ChunkedArray, num_partitions: int) -> pa.Array:
    """Deterministic vectorized hash of a key column into [0, num_partitions).

    Uses pandas' SipHash-based ``hash_array`` (stable across processes), the
    same role as the reference's key-hash Kafka partitioner
    (SpanNormalizer.java:72-80).
    """
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_integer(arr.type):
        # Exact-integer path even when nulls are present: a NaN round-trip
        # through float64 would round keys with |v| > 2^53 (e.g. 64-bit
        # fingerprints), splitting the same key across partitions depending
        # on per-batch null presence.  Fill nulls with 0 pre-conversion and
        # overwrite their hash with a fixed constant after, so the NULL
        # group lands on one deterministic partition on every architecture.
        null_mask = None
        if arr.null_count:
            null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
            arr = pc.fill_null(arr, pa.scalar(0, arr.type))
        np_vals = arr.to_numpy(zero_copy_only=False)
        if np_vals.dtype.kind == "i":  # signed: wrap mod 2^64 (two's compl.)
            np_vals = np_vals.astype(np.int64, copy=False).view(np.uint64)
        else:
            np_vals = np_vals.astype(np.uint64, copy=False)
        hashed = np_vals * np.uint64(0x9E3779B97F4A7C15)  # Fibonacci mix
        hashed ^= hashed >> np.uint64(29)
        if null_mask is not None:
            hashed = hashed.copy() if not hashed.flags.writeable else hashed
            hashed[null_mask] = np.uint64(0xD1B54A32D192ED03)
    else:
        hashed = pd.util.hash_array(
            np.asarray(arr.to_pandas(), dtype=object), categorize=False
        )
    return pa.array((hashed % np.uint64(num_partitions)).astype(np.int32))


def add_part_column(batch: pa.Table, key, num_partitions: int) -> pa.Table:
    """Append the shuffle-partition column; ``key`` may be one column name or
    a list (all participate in the hash — required for salted sub-groups)."""
    keys = [key] if isinstance(key, str) else list(key)
    acc = None
    for k in keys:
        h = _hash_column(batch[k], 1 << 31).to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        acc = h if acc is None else (acc * np.uint64(1_000_003)) ^ h
    part = (acc % np.uint64(num_partitions)).astype(np.int32)
    # strip schema metadata (parquet/pandas provenance): schemas WITH
    # metadata are unhashable, which makes Ray's shuffle log a
    # "Failed to hash the schemas" warning per block pair at the reduce
    return batch.append_column(PART_COL, pa.array(part)).replace_schema_metadata(
        None
    )


def hot_key_counts(
    ds: Dataset, key: str, *, threshold: int, sample_rate: int = 1
) -> Dict[str, int]:
    """Pre-count pass: keys whose row count exceeds ``threshold``.

    Only the key column leaves the scan, and :func:`combine_by_key` counts
    per batch before its exchange — cheap when keys REPEAT within batches
    (conversations: many turns per conv).  This is the 'pre-count
    group sizes' step of skew-aware salting (SURVEY.md §4).

    For near-unique keys (join keys), per-batch combining compresses
    nothing and the pre-count exchange would carry ~every row.  Pass
    ``sample_rate`` R > 1 to count a deterministic 1-in-R row sample
    instead: the exchange shrinks R×, and a key with ≥ ``threshold`` rows
    is detected from ~threshold/R sampled hits (the detection cutoff is
    ``threshold/(2R)``, so missing a truly-hot key needs its sample count
    to fall below HALF its expectation — vanishing for threshold/R ≥ ~32).
    Returned counts are then ESTIMATES (scaled back by R) and the hot set
    may include keys down to ~threshold/2 — callers that use the set for
    ROUTING (skew_join, salting) are insensitive to both; callers that
    need exact counts must keep R = 1.
    """

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key])
        if sample_rate > 1 and t.num_rows:
            # deterministic strided row sample: the phase varies per batch
            # (derived from batch content) so same-key runs that span
            # batches are sampled at independent offsets
            phase = zlib.crc32(
                f"{t.num_rows}:{t[key][0].as_py()}".encode()
            ) % sample_rate
            t = t.take(pa.array(np.arange(phase, t.num_rows, sample_rate)))
        return t.append_column("n", pa.array(np.ones(t.num_rows, np.int64)))

    # Filter DISTRIBUTED, after the combine: at 10^12 turns the per-key
    # histogram has billions of rows, but the hot set (keys above
    # threshold) is tiny by definition — only it may be materialized.
    cutoff = threshold if sample_rate == 1 else max(1, threshold // (2 * sample_rate))
    hot_only = combine_by_key(
        ds.map_batches(partial, batch_format="pyarrow"), key, [("n", "sum")]
    ).map_batches(
        lambda t: t.filter(pc.greater(t["n"], cutoff)), batch_format="pyarrow"
    )
    return {
        row[key]: int(row["n"]) * sample_rate for row in hot_only.take_all()
    }


def salted_group_apply(
    ds: Dataset,
    key: str,
    partial_fn: Callable[[pa.Table], pa.Table],
    merge_fn: Callable[[pa.Table], pa.Table],
    *,
    sort_by: Optional[Sequence[str]] = None,
    hot_threshold: int = 100_000,
    salt_factor: int = 16,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Skew-aware salted aggregation for ASSOCIATIVE per-group computations.

    A single hot key (one conversation with millions of turns) would pin an
    entire partition task.  Here keys above ``hot_threshold`` (found by a
    pre-count on the key column only) are salted across ``salt_factor``
    sub-groups: ``partial_fn`` runs per (key, salt) slice — concurrently for
    a hot key — and ``merge_fn`` combines each key's partials in a second,
    tiny ``group_apply`` pass.  Cold keys take salt 0 and skip nothing.

    Correctness contract: ``merge_fn(concat(partial_fn(slices))) ==
    partial_fn(whole)`` — i.e. the computation must be decomposable
    (sums/counts/min/max/distinct-sets).  Order-sensitive, graph-shaped
    computations cannot be salted; for those the engine caps group size
    instead (assemble_conversations), mirroring the reference's
    INFLIGHT_TRACE_MAX_SPAN_COUNT (RawSpansProcessor.java:347-388).
    """
    hot = hot_key_counts(ds, key, threshold=hot_threshold)
    # broadcast the hot set once; each stateless task fetches it zero-copy
    # in-task (knn_bruteforce pattern) — no actor pool, so no ObjectRef-ctor
    # restart hazard (ray#53727) and no fixed worker cap
    hot_ref = ray.put(pa.array(sorted(hot)) if hot else None)
    salt_col = "__salt"

    def _add_salt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        hot_arr = ray.get(hot_ref)
        if hot_arr is not None:
            is_hot = pc.is_in(batch[key], value_set=hot_arr).to_numpy(
                zero_copy_only=False
            )
            # round-robin within the batch spreads a hot key evenly; the
            # merge step makes the final result independent of assignment
            salts = np.where(
                is_hot, np.arange(n, dtype=np.int64) % salt_factor, 0
            ).astype(np.int32)
        else:
            salts = np.zeros(n, dtype=np.int32)
        return batch.append_column(salt_col, pa.array(salts))

    salted = ds.map_batches(_add_salt, batch_format="pyarrow")

    def _partial(part: pa.Table) -> pa.Table:
        return partial_fn(part.drop_columns([salt_col]))

    partials = group_apply(
        salted,
        [key, salt_col],
        _partial,
        sort_by=sort_by,
        num_partitions=num_partitions,
    )
    # second level: merge each key's ≤ salt_factor partial rows (tiny)
    return group_apply(
        partials, key, merge_fn, num_partitions=max(8, num_partitions // 4)
    )


# ---------------------------------------------------------------------------
# direct two-stage hash exchange
# ---------------------------------------------------------------------------

def _arrow_block(block) -> pa.Table:
    """A map input as a ``pa.Table``: a Ray Data block (pandas blocks are
    converted) or a group of Parquet files, read here."""
    if isinstance(block, pa.Table):
        return block
    if isinstance(block, ParquetFileGroup):
        return block.read()
    from ray.data.block import BlockAccessor

    return BlockAccessor.for_block(block).to_arrow()


def _shuffle_map_fn(block, keys, num_partitions, identity=False, combine=None,
                    skip=None):
    """Map side of the direct exchange: split one input block into
    ``num_partitions`` key-complete slices (+ a per-partition row-count
    vector the driver uses to skip empty partitions without fetching data).
    ``combine``, if given, first reduces the block to one row per key
    (:func:`combine_by_key`'s map-side aggregate).  The partitions listed
    in ``skip`` get no slice and a count of 0: their rows are dropped here.

    Slices are zero-copy views of one sorted copy of the block.  This
    function runs in-process (perfbench's traced pass, tests); the exchange
    launches :func:`_shuffle_map_ipc`, which ships each slice as one Arrow
    IPC buffer."""
    block = _arrow_block(block)
    if block.num_rows == 0:
        # joins/filters can emit zero-row blocks with an EMPTY schema —
        # hashing the key columns would KeyError; they contribute nothing
        return tuple([None] * num_partitions) + (
            np.zeros(num_partitions, dtype=np.int64),
        )
    if combine is not None:
        block = combine(block)
    if identity:
        # keys[0] already holds the partition id (range partitioning etc.)
        ids = pc.cast(block[keys[0]], pa.int32())
        mm = pc.min_max(ids)
        if block.num_rows and (
            mm["min"].as_py() < 0 or mm["max"].as_py() >= num_partitions
        ):
            raise ValueError(
                f"identity partition ids out of range [0, {num_partitions})"
            )
        t = block.append_column(PART_COL, ids).replace_schema_metadata(None)
    else:
        t = add_part_column(block, keys, num_partitions)
    part = t[PART_COL].to_numpy(zero_copy_only=False)
    order_idx = np.argsort(part, kind="stable")
    if skip:
        skipped = np.zeros(num_partitions, dtype=bool)
        skipped[skip] = True
        order_idx = order_idx[~skipped[part[order_idx]]]
    sorted_t = t.take(pa.array(order_idx))
    bounds = np.searchsorted(part[order_idx], np.arange(num_partitions + 1))
    counts = np.diff(bounds)
    out = [
        sorted_t.slice(lo, hi - lo).drop_columns([PART_COL]) if hi > lo else None
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    out.append(counts)
    return tuple(out)


def _ipc_buffer(table: pa.Table) -> pa.Buffer:
    """``table`` as one uncompressed Arrow IPC stream (only the slice's
    logical range is written)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as writer:
        writer.write_table(table)
    return sink.getvalue()


def _shuffle_map_ipc(src, keys, num_partitions, identity=False, combine=None,
                     prep=None, skip=None, side=None):
    """The exchange's map task: :func:`_shuffle_map_fn` over one map source
    (a Ray Data block, or a group of Parquet files read here), with each
    non-empty slice returned as one Arrow IPC stream buffer.  Ray stores a
    ``pa.Buffer`` as one out-of-band blob, while a ``pa.Table`` goes through
    its pure-Python Arrow reducer column by column, chunk by chunk (on one
    CPU, perfbench ``ingest_default``: 0.43 s of storing per call against
    0.05 s of hashing and slicing; 0.02 s as buffers).

    ``prep(table) -> (table, rows_dropped)``, if given, runs first, in this
    task (the flagship's normalize: no separate Ray Data stage between the
    read and the hash).  The last return is a ``(3, num_partitions)`` int64
    array: rows, then IPC bytes, per partition; then the rows ``prep``
    dropped, as one total in the first entry.  With ``side``, one more
    return follows: ``side(table)`` over the prepped input, before any
    partition is skipped (a pre-pass riding this task's read)."""
    block = _arrow_block(src)
    dropped = np.zeros(num_partitions, dtype=np.int64)
    if prep is not None and block.num_rows:
        block, dropped[0] = prep(block)
    *slices, counts = _shuffle_map_fn(block, keys, num_partitions, identity,
                                      combine, skip)
    bufs = [None if s is None else _ipc_buffer(s) for s in slices]
    nbytes = [0 if b is None else b.size for b in bufs]
    out = (*bufs, np.array([counts, nbytes, dropped], dtype=np.int64))
    return out if side is None else (*out, side(block))


#: The exchange's remote functions, made once per process: Ray pickles and
#: exports a remote function the first time each ``ray.remote`` wrapper is
#: called in a job, so a wrapper made per call exports it on every call.
#: Each call sets its own ``num_returns`` through ``.options``.
_map_task = ray.remote(_shuffle_map_ipc)


def _read_source(src) -> pa.Table:
    """One reduce input as a table: an exchange slice (an IPC buffer, read
    zero-copy over the object), a stored bucket file's path, or a table."""
    if isinstance(src, pa.Buffer):
        return pa.ipc.open_stream(src).read_all()
    if isinstance(src, str):
        return pq.read_table(src).replace_schema_metadata(None)
    return src


#: Rows one reduce task of the direct exchange aims to process.  Consecutive
#: small partitions are batched into one task up to this many rows; a larger
#: partition runs alone.  The partition stays the unit of output (and, for the
#: flagship, of commit and resume); only the task boundary moves.  Measured
#: with perfbench ``ingest_default`` on one CPU (58k turns, 64 partitions of
#: ~900 turns; two runs each): 4,096 rows → 14–15k turns/s at 228 MB peak
#: RSS, 8,192 → 14–18k at 233–237 MB, 16,384 → 17–18k at 255 MB, 32,768 →
#: 16k at 296 MB, against 9.8k at 234 MB with one task per partition.
#: 8,192 takes most of the gain without raising peak memory.
REDUCE_BATCH_ROWS = 8192


def plan_reduce_batches(counts, target_rows=REDUCE_BATCH_ROWS, min_batches=1):
    """Group the non-empty partitions into batches of consecutive partition
    ids, ascending: a batch closes before the partition that would take it
    past ``target_rows`` rows (so a partition larger than the target forms
    its own batch).  Never fewer than ``min(non-empty partitions,
    min_batches)`` batches: while short, the batch with the most rows among
    those holding more than one partition is split in two at its row
    midpoint.  Returns a list of partition-id lists."""
    counts = np.asarray(counts, dtype=np.int64)
    batches, cur, cur_rows = [], [], 0
    for p in np.flatnonzero(counts):
        c = int(counts[p])
        if cur and cur_rows + c > target_rows:
            batches.append(cur)
            cur, cur_rows = [], 0
        cur.append(int(p))
        cur_rows += c
    if cur:
        batches.append(cur)
    want = min(int(np.count_nonzero(counts)), int(min_batches))
    while len(batches) < want:
        i = max(
            (j for j, b in enumerate(batches) if len(b) > 1),
            key=lambda j: int(counts[batches[j]].sum()),
        )
        b = batches[i]
        cum = np.cumsum(counts[b])
        cut = min(max(int(np.searchsorted(cum, cum[-1] / 2)) + 1, 1), len(b) - 1)
        batches[i : i + 1] = [b[:cut], b[cut:]]
    return batches


def _concat_sort(order, tables, schema=None) -> pa.Table:
    """One side of one partition's reduce input: its sources (see
    :func:`_read_source`: map slices, a stored bucket file's path)
    concatenated and sorted once by the full group/order key.  A side with
    no rows in the partition comes back as ``schema``'s typed empty
    table."""
    tables = [_read_source(t) for t in tables if t is not None]
    tables = [t for t in tables if t.num_rows]
    if not tables and schema is not None:
        return schema.empty_table()
    t = pa.concat_tables(tables, promote_options="default")
    if order:
        # sort_by's take compacts the chunked result — no combine_chunks copy
        return t.sort_by([(c, "ascending") for c in order])
    return t.combine_chunks()


def _shuffle_reduce_fn(fn, order, pass_part_id, part_id, *tables):
    """Reduce side for one partition: concat + sort its slices, run the
    user fn."""
    t = _concat_sort(order, tables)
    return fn(t, part_id) if pass_part_id else fn(t)


def _shuffle_reduce_batch_fn(batch_fn, orders, schemas, n_maps, part_ids,
                             *tables):
    """Reduce side for a batch of partitions: ``tables`` holds, partition by
    partition, each input's map slices in turn (``n_maps[s]`` of them for
    input ``s``).  ``batch_fn`` receives ``[(part_id, side_0, side_1, ...),
    ...]`` in ascending partition order, side ``s`` sorted by
    ``orders[s]`` — ``[(part_id, table), ...]`` for a one-input exchange."""
    parts, i = [], 0
    for p in part_ids:
        sides = []
        for order, schema, n in zip(orders, schemas, n_maps):
            sides.append(_concat_sort(order, tables[i : i + n], schema))
            i += n
        parts.append((p, *sides))
    return batch_fn(parts)


_reduce_task = ray.remote(_shuffle_reduce_batch_fn)


def _apply_per_partition(fn, pass_part_id, parts):
    """``batch_fn`` of the generic direct exchange: the user fn once per
    partition over its sides, one output per partition (a one-partition
    batch returns its output bare, as a single-return task must)."""
    outs = tuple(
        fn(*sides, p) if pass_part_id else fn(*sides) for p, *sides in parts
    )
    return outs if len(outs) > 1 else outs[0]


def _map_sources(inp):
    """The map sources of one exchange input: a Dataset's block refs (in
    stream order), or ``inp`` itself, a list of
    :class:`~..sources.parquet.ParquetFileGroup`."""
    if isinstance(inp, Dataset):
        return (
            block_ref
            for bundle in inp.iter_internal_ref_bundles()
            for block_ref in bundle.block_refs
        )
    return inp


def _direct_exchange(inputs, keys, batch_fn, *, orders, num_partitions,
                     schemas=None, identity=False, combine=None,
                     per_partition_returns=False, prep=None, skip=None,
                     side=None):
    """Two-stage raw-task hash exchange, bypassing the sort-shuffle machinery.

    Why: Ray Data's sort-based ``groupby().map_groups`` costs ~1.8 s on the
    6 M-row bench corpus even for a no-op consumer and is NOT byte-bound
    (dropping 65 % of the bytes saves 7 %) — the overhead is the sort
    executor itself.  A direct exchange (map tasks emit ``num_partitions``
    pre-hashed slices, reduce tasks concat + sort + process) runs the same
    exchange in ~1.1 s.  Kafka's keyed-topic exchange
    (SpanNormalizer.java:72-80) is exactly this shape: producers write
    hash-routed slices, one consumer per partition.

    Inputs: ``inputs`` lists the exchange's inputs hashed by the same
    ``keys`` (one for :func:`group_apply`, two for :func:`cogroup`); each is
    a Dataset or a list of Parquet file groups (see :func:`_map_sources`).
    ``orders[s]`` is input ``s``'s sort key and ``schemas[s]`` (optional)
    the typed empty table it takes in a partition where it has no rows.
    Every input is mapped with the same hash, so a key lands on the same
    partition id on every side.  ``combine`` runs on each block in its map
    task, before the split (see :func:`_shuffle_map_fn`); ``prep`` before
    that (see :func:`_shuffle_map_ipc`).  The partitions in ``skip`` get
    no slices, so no reduce task plans them.  With ``side``, each map task
    also returns ``side(its prepped input)``; the driver fetches those
    with the counts and calls ``batch_fn(results)``, which returns the
    reduce stage's batch function (a small-side pre-pass, such as the
    flagship's peer index, rides the map tasks' read instead of reading
    the input again).

    Fan-out: the exchange makes map tasks × non-empty partitions objects
    and has no partition ceiling.  On one node (1 CPU) it beat Ray Data's
    sort shuffle at every size measured: 2,048 partitions over sf0.1 in
    22 s against 44 s, 1,024 over sf0.01 in 5 s against 12 s.  Multi-node
    behaviour at that fan-out has not been measured.

    One :func:`_shuffle_map_ipc` task per map source, the counts barrier,
    then :func:`_reduce_stage`.  Each map task returns one object per
    non-empty partition, an Arrow IPC stream buffer, so a reducer pulls only
    its own partitions' bytes; the reduce tasks decode them zero-copy in
    :func:`_concat_sort`.  Returns ``(refs, map_refs, totals)``: the reduce
    stage's refs, the map tasks' refs (one list per input), and
    ``{"exchange_bytes", "rows_dropped"}``, the IPC bytes of every slice and
    the rows ``prep`` dropped, summed from the counts the driver fetches
    anyway.

    Streaming: a Dataset input's map tasks launch as its blocks materialize
    (``iter_internal_ref_bundles`` is a streaming iterator); a file group's
    map task reads, preps, hashes and slices in one task, so nothing runs
    between the read and the slices.  The reduce barrier is inherent to
    any hash shuffle.  Fault tolerance: map/reduce are deterministic
    tasks, so Ray lineage reconstructs lost slices.
    """
    n_returns = num_partitions + 1 + (side is not None)
    map_remote = _map_task.options(num_returns=n_returns)
    map_refs = [
        [
            map_remote.remote(src, keys, num_partitions, identity, combine,
                              prep, skip, side)
            for src in _map_sources(inp)
        ]
        for inp in inputs
    ]
    all_maps = [r for refs in map_refs for r in refs]
    if side is not None:
        batch_fn = batch_fn(ray.get([r[-1] for r in all_maps]))
    if not all_maps:
        return [], map_refs, {"exchange_bytes": 0, "rows_dropped": 0}
    # counts are tiny (3 x P int64s per map task); fetching them blocks until
    # all maps finish — which is exactly when reduces become runnable anyway
    rows, nbytes, dropped = np.sum(
        ray.get([r[num_partitions] for r in all_maps]), axis=0
    )
    refs = _reduce_stage(map_refs, rows, batch_fn, orders, schemas,
                         per_partition_returns)
    return refs, map_refs, {"exchange_bytes": int(nbytes.sum()),
                            "rows_dropped": int(dropped.sum())}


def _reduce_stage(sides, counts, batch_fn, orders, schemas,
                  per_partition_returns):
    """Reduce stage of exchanged and stored partitions: ``sides[s]`` lists
    input ``s``'s sources, each indexable by partition id (map task refs,
    or a bucket dir's file paths); ``counts[p]`` is partition ``p``'s rows.
    The non-empty partitions are grouped into batches
    (:func:`plan_reduce_batches`, about ``REDUCE_BATCH_ROWS`` rows each,
    never fewer batches than cluster CPUs while partitions allow) and each
    batch runs as ONE reduce task.  Many small partitions otherwise pay a
    task launch, an argument fetch and the consumer's fixed per-call cost
    each — the reducer's unit of work is separated from the key partition
    (FP-Hadoop, VLDB'15).  Large partitions keep one task each.

    Returns one ref per batch holding ``batch_fn``'s output, or with
    ``per_partition_returns`` one per non-empty partition."""
    n_maps = [len(side) for side in sides]
    schemas = schemas or [None] * len(sides)
    cpus = int(ray.cluster_resources().get("CPU", 1))
    out = []
    for batch in plan_reduce_batches(counts, REDUCE_BATCH_ROWS, cpus):
        n_returns = len(batch) if per_partition_returns else 1
        refs = _reduce_task.options(num_returns=n_returns).remote(
            batch_fn, orders, schemas, n_maps, batch,
            *[src[p] for p in batch for side in sides for src in side],
        )
        out.extend(refs if n_returns > 1 else [refs])
    return out


def bucketed_reduce(dirs, batch_fn, *, sort_by=None,
                    per_partition_returns=False, skip=None) -> list:
    """:func:`_reduce_stage` over stored :func:`~.sinks.write_bucketed`
    tables, exchanges whose map side ran at write time: bucket ``i`` of
    every dir is partition ``i``, so the dirs' contracts must agree.  Row
    counts come from the bucket files' Parquet footers (0 for a missing
    file: that hash range was empty at write time, and for the buckets in
    ``skip``); each task reads its files, and a missing one is its dir's
    typed empty table.  Side ``s`` is sorted by ``[*its keys, *sort_by]``:
    when the order its files were written in (``sorted_by`` in the bucket
    meta) starts with that one, the reduce task does not sort at all, since
    a stable sort of rows already in that order leaves them unchanged."""
    from ..state import lineage
    from .sinks import _load_bucket_meta

    metas = [_load_bucket_meta(d) for d in dirs]
    for name in ("num_buckets", "hash_version", "key_kinds"):
        vals = [m[name] for m in metas]
        if any(v != vals[0] for v in vals):
            raise ValueError(
                f"bucketed tables differ in {name} ({' vs '.join(map(str, vals))}); "
                "re-bucket one side with write_bucketed to match"
            )
    num_buckets = int(metas[0]["num_buckets"])
    paths, rows = [], []
    for d in dirs:
        files = [lineage.part_file(d, "data", i) for i in range(num_buckets)]
        n = [pq.ParquetFile(f).metadata.num_rows if os.path.exists(f) else 0
             for f in files]
        paths.append([[f if k else None for f, k in zip(files, n)]])
        rows.append(n)
    counts = np.sum(rows, axis=0)
    if skip:
        counts[skip] = 0
    orders = []
    for m in metas:
        order = list(m["key"]) + list(sort_by or [])
        stored = m.get("sorted_by", [])
        orders.append(None if stored[: len(order)] == order else order)
    return _reduce_stage(paths, counts, batch_fn, orders,
                         [m["schema"] for m in metas], per_partition_returns)


def group_apply_batches(
    source,
    key: Union[str, Sequence[str]],
    batch_fn: Callable,
    *,
    sort_by: Optional[Sequence[str]] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    prep: Optional[Callable] = None,
    skip: Optional[Sequence[int]] = None,
    side: Optional[Callable] = None,
) -> tuple:
    """Direct hash exchange whose consumer takes whole batches of
    partitions: ``batch_fn([(part_id, table), ...])`` runs once per reduce
    task, each table sorted by ``[*keys, *sort_by]`` exactly as
    :func:`group_apply` hands it to ``fn``.  ``source`` is a Dataset or a
    list of Parquet file groups
    (:func:`~..sources.parquet.parquet_file_groups`); ``prep`` runs on each
    map input in its map task, ``skip`` lists partitions no reduce task
    gets, and with ``side`` the driver first calls ``batch_fn`` with the
    map tasks' ``side`` results to get the batch function (see
    :func:`_direct_exchange`).  Returns ``(refs, totals)``: the ObjectRefs
    of the batch outputs (fetch them with ``ray.get``), one per reduce
    task, and ``{"exchange_bytes", "rows_dropped"}``."""
    keys = [key] if isinstance(key, str) else list(key)
    refs, _, totals = _direct_exchange(
        [source],
        keys,
        batch_fn,
        orders=[keys + list(sort_by or [])],
        num_partitions=num_partitions,
        prep=prep,
        skip=skip,
        side=side,
    )
    return refs, totals


def group_apply(
    ds: Dataset,
    key: Union[str, Sequence[str]],
    fn: Callable[[pa.Table], pa.Table],
    *,
    pass_part_id: bool = False,
    sort_by: Optional[Sequence[str]] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    identity_partition: bool = False,
    schema: Optional[pa.Schema] = None,
) -> Dataset:
    """Apply a partition processor to hash partitions of complete ``key``-groups.

    The processor receives a ``pyarrow.Table`` sorted by ``[*keys, *sort_by]``
    that contains every row of every key-group assigned to the partition — the
    vectorized analog of the reference's per-trace processing loop
    (TraceEmitPunctuator.java:116-196), amortized over many groups per call.
    ``fn(table)``, or ``fn(table, part_id)`` with ``pass_part_id``, runs once
    per non-empty partition in a stateless task; state that is expensive to
    build belongs in a per-worker-process cache (the flagship's
    ``pipelines.ingest._cached_processor``).

    The exchange is :func:`_direct_exchange`.  Small partitions share a
    reduce task, but each partition's output is its own block (a
    multi-return task), so the result has one block per non-empty partition.
    With ``identity_partition`` the first key column already holds the
    partition id in ``[0, num_partitions)`` (range partitioning) and is not
    hashed.  ``schema`` is ``fn``'s output schema: when the exchange gets
    no rows, the result is that schema's empty table (without it, a
    Dataset with no columns).
    """
    import ray.data as _rd

    keys = [key] if isinstance(key, str) else list(key)
    refs, _, _ = _direct_exchange(
        [ds],
        keys,
        partial(_apply_per_partition, fn, pass_part_id),
        orders=[keys + list(sort_by or [])],
        num_partitions=num_partitions,
        identity=identity_partition,
        per_partition_returns=True,
    )
    if not refs:
        return _rd.from_arrow(schema.empty_table() if schema else [])
    return _rd.from_arrow_refs(refs)


# ---------------------------------------------------------------------------
# keyed aggregates and global top-k on the direct exchange
# ---------------------------------------------------------------------------

#: Hash partitions of :func:`combine_by_key`'s exchange, and so the most
#: merge tasks it can run: reduce batching only merges partitions into
#: fewer tasks.  Enough for dimension-sized outputs; an aggregate whose
#: output can be as large as its input (``analytics.distinct_rows``) stays
#: on :func:`group_apply`, whose partition count scales with the data.
COMBINE_PARTITIONS = 16


def _arrow_schema(sch) -> pa.Schema:
    """``Dataset.schema()`` as a ``pa.Schema``.  Pandas-block datasets
    report numpy dtypes; object dtype has no Arrow equivalent — pandas
    object columns are strings by convention, and an EMPTY typed table only
    needs a best-effort type anyway."""
    base = getattr(sch, "base_schema", sch)
    if isinstance(base, pa.Schema):
        return base

    def _to_pa(t):
        if isinstance(t, pa.DataType):
            return t
        t = np.dtype(t)
        return pa.string() if t == np.dtype(object) else pa.from_numpy_dtype(t)

    return pa.schema(
        [pa.field(n, _to_pa(t)) for n, t in zip(base.names, base.types)]
    )


def _combine(keys, aggs, t: pa.Table) -> pa.Table:
    """One pyarrow hash aggregate of ``t`` per key; every output column
    keeps its input name."""
    g = t.group_by(keys, use_threads=False).aggregate(aggs)
    cols = {k: g[k] for k in keys}
    cols.update({c: g[f"{c}_{op}"] for c, op in aggs})
    return pa.table(cols)


def _combine_parts(combine, parts) -> pa.Table:
    """Reduce side of :func:`combine_by_key`: one merge over every
    partition of the batch (the partitions hold disjoint keys)."""
    tables = [t for _, t in parts]
    return combine(pa.concat_tables(tables, promote_options="default"))


def combine_by_key(
    ds: Dataset, keys: Union[str, Sequence[str]], aggs: Sequence[tuple]
) -> Dataset:
    """Keyed sum/min aggregate: ``aggs`` is ``[(col, "sum" | "min"), ...]``
    and the result has one row per distinct key with each ``col`` under its
    own name.  A NULL key is a group of its own, as in SQL ``GROUP BY``.

    Each block is combined by one pyarrow hash aggregate in its exchange
    map task, so the exchange carries at most one row per key per block;
    the partials meet in :func:`_direct_exchange` reduce batches, where one
    more hash aggregate merges them (build the table once per block, merge
    small tables).  Both aggregates are associative, so the result does not
    depend on the block layout.  Row order is not defined: sort where order
    matters.  An input with a schema but no rows gives a typed empty
    result; without a schema, an untyped one."""
    import ray.data as _rd

    keys = [keys] if isinstance(keys, str) else list(keys)
    aggs = list(aggs)
    combine = partial(_combine, keys, aggs)
    refs, _, _ = _direct_exchange(
        [ds],
        keys,
        partial(_combine_parts, combine),
        orders=[[]],
        num_partitions=COMBINE_PARTITIONS,
        combine=combine,
    )
    if refs:
        return _rd.from_arrow_refs(refs)
    # only the zero-row path pays for the schema (it may execute ``ds`` again)
    sch = ds.schema()
    if sch is None or not set(keys) | {c for c, _ in aggs} <= set(sch.names):
        return _rd.from_arrow([])
    return _rd.from_arrow(combine(_arrow_schema(sch).empty_table()))


def _top_rows(sort_keys, k, block) -> pa.Table:
    """The first ``k`` rows of ``block`` under ``sort_keys``, unordered."""
    t = _arrow_block(block)
    if t.num_rows <= k:
        return t
    return t.take(pc.select_k_unstable(t, k, sort_keys))


_top_task = ray.remote(_top_rows)


def top_k(ds: Dataset, sort_keys: Sequence[tuple], k: int) -> Dataset:
    """The first ``k`` rows of ``ds`` under ``sort_keys`` (pyarrow form,
    ``[(col, "ascending" | "descending"), ...]``), in that order — the
    ``ORDER BY ... LIMIT k`` of SQL without a global sort.  Each block keeps
    its own top ``k`` in a task of its own (plain tasks, like the exchange's
    map side); the driver concatenates those (``k`` × blocks rows), sorts
    and slices.  Nulls sort last in either direction.  The keys should end
    in a unique column, so ties cannot make the cut depend on the block
    layout."""
    import ray.data as _rd

    blocks = ray.get(
        [
            _top_task.remote(sort_keys, k, block_ref)
            for bundle in ds.iter_internal_ref_bundles()
            for block_ref in bundle.block_refs
        ]
    )
    blocks = [t for t in blocks if t.num_rows]
    if not blocks:
        sch = ds.schema()
        return _rd.from_arrow(
            _arrow_schema(sch).empty_table() if sch is not None else []
        )
    t = pa.concat_tables(blocks, promote_options="default")
    return _rd.from_arrow(_top_rows(sort_keys, k, t).sort_by(sort_keys))


# ---------------------------------------------------------------------------
# conversation assembly (G1-G3 analog), fully vectorized
# ---------------------------------------------------------------------------


def assemble_conversations(
    part: pa.Table,
    *,
    max_turns_per_conv: int = 100_000,
    session_gap_us: Optional[int] = None,
) -> pa.Table:
    """Order, dedup, cap and sessionize one partition of conversations.

    Semantics mirrored from the reference:
      - stable ``(conv_id, turn_idx)`` ordering with ``ts`` tiebreak
        (TraceEmitPunctuator.java:156-158 builds the trace from ordered spans);
      - exact dedup keep-first per ``(conv_id, turn_idx)``
        (span-id HashSet dedup, TraceEmitPunctuator.java:123-150);
      - per-conversation turn cap — the skew guard
        (RawSpansProcessor.java:347-388);
      - optional ts-gap sessionization (the 30 s session-inactivity window,
        RawSpansProcessor.java:70-76, as a batch gap-split).

    Expects ``part`` sorted by (conv_id, turn_idx, ts).  Adds ``session_id``.
    Returns ``(table, n_deduped, n_capped)``.
    """
    if part.num_rows == 0:
        return part.append_column("session_id", pa.array([], pa.int32())), 0, 0
    n_deduped = 0
    n_capped = 0

    conv = part["conv_id"].combine_chunks().dictionary_encode()
    conv_codes = conv.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turn_idx = part["turn_idx"].combine_chunks().to_numpy(zero_copy_only=False)

    # keep-first dedup on (conv_id, turn_idx): first occurrence in sort order
    keep = np.ones(len(conv_codes), dtype=bool)
    keep[1:] = (conv_codes[1:] != conv_codes[:-1]) | (turn_idx[1:] != turn_idx[:-1])
    if not keep.all():
        idx = np.flatnonzero(keep)
        n_deduped = len(keep) - len(idx)
        part = part.take(pa.array(idx))
        conv_codes = conv_codes[idx]

    # per-conversation cap (keep the first max_turns in order)
    bounds = run_boundaries(conv_codes)
    seg = segment_ids_from_boundaries(bounds)
    pos = segmented_cumcount(seg)
    if int(np.diff(bounds).max(initial=0)) > max_turns_per_conv:
        idx = np.flatnonzero(pos < max_turns_per_conv)
        n_capped = len(pos) - len(idx)
        part = part.take(pa.array(idx))
        conv_codes = conv_codes[idx]
        bounds = run_boundaries(conv_codes)
        seg = segment_ids_from_boundaries(bounds)

    # sessionization: split a conversation when the ts gap exceeds the window
    ts = part["ts"].combine_chunks().cast(pa.int64()).to_numpy(zero_copy_only=False)
    if session_gap_us is not None and len(ts) > 0:
        new_session = np.zeros(len(ts), dtype=np.int64)
        gap = np.zeros(len(ts), dtype=bool)
        gap[1:] = (ts[1:] - ts[:-1]) > session_gap_us
        gap[bounds[:-1]] = False  # conversation start is session 0
        new_session[gap] = 1
        sess_cum = np.cumsum(new_session)
        session_id = sess_cum - segmented_broadcast_first(sess_cum, bounds)
    else:
        session_id = np.zeros(len(ts), dtype=np.int64)

    return (
        part.append_column("session_id", pa.array(session_id.astype(np.int32))),
        n_deduped,
        n_capped,
    )


# ---------------------------------------------------------------------------
# cogroup: two datasets co-partitioned by one key, processed pairwise
# ---------------------------------------------------------------------------


def cogroup(
    left,
    right,
    key: Union[str, Sequence[str]],
    fn: Callable[[pa.Table, pa.Table], pa.Table],
    *,
    left_sort: Optional[Sequence[str]] = None,
    right_sort: Optional[Sequence[str]] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    left_schema: Optional[pa.Schema] = None,
    right_schema: Optional[pa.Schema] = None,
):
    """Co-partition TWO datasets by the same key hash and hand each reduce
    task the pair of partition tables: ``fn(left_part, right_part)`` with
    both sides sorted by ``[*keys, *side_sort]`` and containing every row of
    every key-group assigned to the partition.

    This is the general two-input form of :func:`group_apply` (Ray Data has
    joins but no cogroup; Spark/Flink/Beam expose it as CoGroup/connect).
    Anything expressible as per-key logic over two keyed inputs — keyed set
    difference, per-key stream alignment, interval matching with custom
    semantics — composes from it with the vectorized run-length kernels.
    Both sides ride ONE :func:`_direct_exchange` (same hash → same
    partition ids, so matching keys are guaranteed co-located); nothing is
    broadcast, so BOTH sides may be corpus-sized.  Same ``key`` columns
    must exist in both inputs.  Small partitions share a reduce task, but
    each partition's output is its own block, so the result has one block
    per non-empty partition.

    Zero-row inputs: Ray loses the schema of an empty dataset after any
    transform (``ds.schema()`` → None), so a certainly-empty side cannot
    report its payload columns.  ``left_schema``/``right_schema`` are
    explicit fallbacks for that case; without one, the empty side is
    synthesized as a KEYS-ONLY empty table (key fields copied from the
    known side — valid for fns that only touch the other side's payload
    when keys match, e.g. local joins), and when BOTH sides are schema-less
    the result is an untyped empty dataset.
    """
    import ray.data as _rd

    keys = [key] if isinstance(key, str) else list(key)
    order_l = keys + list(left_sort or [])
    order_r = keys + list(right_sort or [])

    raw_l, raw_r = left.schema(), right.schema()
    schema_l = _arrow_schema(raw_l) if raw_l is not None else left_schema
    schema_r = _arrow_schema(raw_r) if raw_r is not None else right_schema
    if schema_l is None and schema_r is None:
        return _rd.from_arrow([])  # both certainly empty, nothing typed left
    if schema_l is None or schema_r is None:
        known = schema_l if schema_l is not None else schema_r
        missing = [k for k in keys if known.get_field_index(k) < 0]
        if missing:
            raise ValueError(
                f"cogroup: key column(s) {missing} absent from the known "
                "side's schema; pass left_schema/right_schema for the "
                "empty side"
            )
        synth = pa.schema([known.field(k) for k in keys])
        side = "left" if schema_l is None else "right"
        # LOUD: an outer-join fn over a keys-only side silently drops that
        # side's payload columns (the output schema becomes data-dependent
        # on which side happened to be empty) — callers that need schema
        # stability must pass left_schema/right_schema
        print(
            f"[cogroup] WARNING: {side} side is empty with unrecoverable "
            f"schema; synthesizing KEYS-ONLY {list(synth.names)} — pass "
            f"{side}_schema= if fn needs that side's payload columns "
            "(e.g. outer joins)"
        )
        if schema_l is None:
            schema_l = synth
        else:
            schema_r = synth

    refs, map_refs, _ = _direct_exchange(
        [left, right],
        keys,
        partial(_apply_per_partition, fn, False),
        orders=[order_l, order_r],
        num_partitions=num_partitions,
        schemas=[schema_l, schema_r],
        per_partition_returns=True,
    )
    if not refs:
        return _rd.from_arrow([])
    out = _rd.from_arrow_refs(refs)
    # pin the map-side slice refs to the result dataset's lifetime: dropping
    # them at function exit races Ray-core's submitted-task ref bookkeeping
    # under heavy long-session churn (observed reference_count.cc /
    # task_manager.cc check failures ~115 queries into one session)
    out._htr_cogroup_keepalive = map_refs
    return out
