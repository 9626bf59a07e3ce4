"""Per-group analytic (window) functions, pivot, and distinct counts.

Reference parity: the reference computes per-trace ordered facts (previous /
next span, running counters) inside its graph walks
(hypertrace-trace-enricher/.../util/ApiTraceGraph.java:139-273) and builds
per-key distinct sets in view generators
(hypertrace-view-generator/.../RawTraceViewGenerator.java — distinct services
per trace).  Here the same semantics are generic, reusable operators:

- :func:`window_functions` — lag / lead / cumulative-sum / row_number over
  key-groups ordered by a column, vectorized with the segmented kernels from
  ``stages/grouping.py`` (one hash exchange, zero Python loops over rows).
- :func:`pivot_counts` — long→wide conditional counting: 0/1 indicator
  columns summed by ``grouping.combine_by_key``.
- :func:`grouping_sets_counts` — GROUP BY GROUPING SETS; :func:`rollup_counts`
  (the prefix sets) and :func:`cube_counts` (all 2^k sets) are set lists
  for it.  One ``combine_by_key`` builds the finest-level combination
  table; the driver folds each set from it.
- :func:`distinct_count` — exact COUNT(DISTINCT value) per key with batch-side
  pre-dedup so only unique (key, value) pairs cross the shuffle.

Scale notes: every operator pre-aggregates per block before its hash
exchange — keyed sums and mins through ``combine_by_key``, which combines
inside the exchange's map task; the exchange payload is the projection of
the needed columns only.  Skewed keys in ``window_functions`` land a whole
key-group on one partition (same constraint as any per-group ordered walk)
— cap group size upstream (grouping.py max-turns guard) if a key can be
pathological.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .grouping import (
    DEFAULT_NUM_PARTITIONS,
    _combine,
    combine_by_key,
    group_apply,
    run_boundaries,
)

__all__ = [
    "window_functions",
    "pivot_counts",
    "distinct_count",
    "sessionize",
    "rollup_counts",
    "group_quantiles",
    "unpivot",
    "group_collect",
    "table_profile",
    "merge_intervals",
    "segmented_running",
    "funnel",
    "retention",
    "group_zscore_outliers",
    "resample_gapfill",
    "group_moments",
    "distinct_rows",
    "transition_counts",
    "grouping_sets_counts",
    "group_linear_fit",
]


def _np_cols(part: pa.Table, cols: Sequence[str]):
    """Key columns as numpy arrays for adjacent-equality run detection.

    Every caller feeds these to ``run_boundaries`` (equality only, never
    value arithmetic), so columns WITH nulls are returned as dictionary
    codes with nulls filled to -1: a nullable NUMERIC/temporal column would
    otherwise ``to_numpy`` to float64/``NaT`` where ``NaN != NaN``, turning
    each null-key row into its own run and silently fragmenting the SQL
    NULL group (string keys were safe: ``None == None`` object-wise)."""
    out = []
    for c in cols:
        col = part[c]
        if col.null_count:
            arr = (
                col.combine_chunks()
                if isinstance(col, pa.ChunkedArray)
                else col
            )
            idx = arr.dictionary_encode().indices
            out.append(
                pc.fill_null(idx, -1).to_numpy(zero_copy_only=False)
            )
        else:
            out.append(col.to_numpy(zero_copy_only=False))
    return out


def segmented_running(red, v: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Segment-aware prefix reduction (running max/min): guarded
    Hillis-Steele doubling — after k rounds position i covers
    ``[max(seg_start_i, i-2^k+1), i]``, converging to the full segment
    prefix in log2(n) rounds with no per-segment Python loop.  ``red`` is
    ``np.maximum`` or ``np.minimum``; ``seg_start`` is the per-row segment
    start index."""
    acc = v.copy()
    n = len(acc)
    shift = 1
    while shift < n:
        tgt = np.arange(shift, n)
        ok = (tgt - shift) >= seg_start[shift:]
        sel = tgt[ok]
        acc[sel] = red(acc[sel], acc[sel - shift])
        shift *= 2
    return acc


def window_functions(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    order_col: str,
    order_extra: Optional[Sequence[str]] = None,
    lag: Optional[Dict[str, str]] = None,
    lead: Optional[Dict[str, str]] = None,
    cumsum: Optional[Dict[str, str]] = None,
    cummax: Optional[Dict[str, str]] = None,
    cummin: Optional[Dict[str, str]] = None,
    row_number: Optional[str] = None,
    rolling: Optional[Dict[str, tuple]] = None,
    rank: Optional[str] = None,
    dense_rank: Optional[str] = None,
    ntile: Optional[tuple] = None,
    percent_rank: Optional[str] = None,
    cume_dist: Optional[str] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """SQL window functions over ``PARTITION BY key ORDER BY order_col
    [, *order_extra]``.

    ``lag`` / ``lead`` map output-column → source-column or ``(source,
    offset)`` (default offset 1; NULL where the offset crosses the group
    edge); ``cumsum`` maps output → source (inclusive running sum,
    NULLs treated as 0 like SQL ``SUM OVER``); ``row_number`` names a 1-based
    rank column; ``rolling`` maps output → ``(source, n_preceding, agg)``
    with agg in {sum, mean, min, max, count} over the SQL frame ``ROWS
    BETWEEN n_preceding PRECEDING AND CURRENT ROW`` (min/max via a
    vectorized sparse-table RMQ — O(n log w), no per-row loop); ``rank`` /
    ``dense_rank`` name 1-based tie-aware rank columns over the
    ``order_col`` value (tie-invariant, so deterministic under any stable
    tie order); ``ntile=(name, n)`` buckets rows SQL-NTILE-style (first
    ``count % n`` buckets get the extra row) — NTILE depends on the total
    order, so pass ``order_extra`` tiebreakers that make it unique.  All
    original columns are preserved.
    """
    keys = [key] if isinstance(key, str) else list(key)
    lag = dict(lag or {})
    lead = dict(lead or {})
    cumsum = dict(cumsum or {})
    cummax = dict(cummax or {})
    cummin = dict(cummin or {})
    rolling = dict(rolling or {})

    def _apply(part: pa.Table) -> pa.Table:
        n = part.num_rows
        if n == 0:
            return part
        bounds = run_boundaries(*_np_cols(part, keys))
        starts = np.zeros(n, dtype=bool)
        starts[bounds[:-1]] = True
        ends = np.zeros(n, dtype=bool)
        ends[bounds[1:] - 1] = True
        idx = np.arange(n, dtype=np.int64)
        out = part
        if lag or lead:
            seg_start_l = np.repeat(bounds[:-1], np.diff(bounds))
            seg_end_l = np.repeat(bounds[1:], np.diff(bounds))
            for spec, sign in ((lag, -1), (lead, +1)):
                for out_name, src in spec.items():
                    src, off = src if isinstance(src, tuple) else (src, 1)
                    shift = sign * off
                    tgt = idx + shift
                    oob = (tgt < seg_start_l) | (tgt >= seg_end_l)
                    take = pa.array(np.clip(tgt, 0, n - 1))
                    arr = part[src].combine_chunks()
                    out = out.append_column(
                        out_name,
                        pc.if_else(
                            pa.array(oob), pa.scalar(None, arr.type), arr.take(take)
                        ),
                    )
        for out_name, src in cumsum.items():
            v = part[src].to_numpy(zero_copy_only=False)
            v = np.where(np.asarray(pc.is_null(part[src])), 0, v).astype(np.int64)
            c = np.cumsum(v)
            base = np.repeat(
                np.concatenate(([0], c[bounds[1:-1] - 1])), np.diff(bounds)
            )
            out = out.append_column(out_name, pa.array(c - base))
        seg_start = np.repeat(bounds[:-1], np.diff(bounds))
        if cummax or cummin:
            for spec, red in ((cummax, np.maximum), (cummin, np.minimum)):
                for out_name, src in spec.items():
                    v = part[src].to_numpy(zero_copy_only=False)
                    out_type = part[src].type if v.dtype.kind == "M" else None
                    acc = segmented_running(
                        red, v.view(np.int64) if v.dtype.kind == "M" else v,
                        seg_start,
                    )
                    col = pa.array(acc)
                    if out_type is not None:
                        col = col.cast(out_type)
                    out = out.append_column(out_name, col)
        if row_number:
            out = out.append_column(row_number, pa.array(idx - seg_start + 1))
        if rank or dense_rank or percent_rank or cume_dist:
            vb = run_boundaries(*_np_cols(part, keys + [order_col]))
            vrun = np.searchsorted(vb[:-1], idx, side="right") - 1
            rank_arr = vb[:-1][vrun] - seg_start + 1
            if rank:
                out = out.append_column(rank, pa.array(rank_arr))
            if percent_rank or cume_dist:
                cnt = np.repeat(np.diff(bounds), np.diff(bounds))
                if percent_rank:
                    out = out.append_column(
                        percent_rank,
                        pa.array(
                            np.where(
                                cnt > 1, (rank_arr - 1) / np.maximum(cnt - 1, 1), 0.0
                            )
                        ),
                    )
                if cume_dist:
                    # rows with value <= current = end of this value-run
                    out = out.append_column(
                        cume_dist, pa.array((vb[1:][vrun] - seg_start) / cnt)
                    )
            if dense_rank:
                # value-run ordinal within the key segment: run index minus
                # the run index at the segment's first row
                first_run = np.searchsorted(vb[:-1], bounds[:-1], side="right") - 1
                out = out.append_column(
                    dense_rank,
                    pa.array(vrun - np.repeat(first_run, np.diff(bounds)) + 1),
                )
        if ntile:
            nt_name, nt_n = ntile
            cnt = np.repeat(np.diff(bounds), np.diff(bounds))
            rn0 = idx - seg_start
            q, r = cnt // nt_n, cnt % nt_n
            big = r * (q + 1)
            bucket = np.where(
                rn0 < big,
                rn0 // np.maximum(q + 1, 1),
                r + (rn0 - big) // np.maximum(q, 1),
            )
            out = out.append_column(nt_name, pa.array(bucket + 1))
        if rolling:
            for out_name, (src, n_prec, agg) in rolling.items():
                w = np.maximum(idx - n_prec, seg_start)
                if agg == "count":
                    out = out.append_column(out_name, pa.array(idx - w + 1))
                    continue
                v = part[src].to_numpy(zero_copy_only=False)
                is_float = pa.types.is_floating(part[src].type)
                v = np.where(
                    np.asarray(pc.is_null(part[src])), 0, v
                ).astype(np.float64 if is_float else np.int64)
                if agg in ("sum", "mean"):
                    c0 = np.concatenate(([0], np.cumsum(v)))
                    s = c0[idx + 1] - c0[w]
                    if agg == "mean":
                        out = out.append_column(
                            out_name, pa.array((s / (idx - w + 1)).astype(np.float64))
                        )
                    else:
                        out = out.append_column(out_name, pa.array(s))
                elif agg in ("min", "max"):
                    red = np.minimum if agg == "min" else np.maximum
                    # sparse-table RMQ: levels[k][i] covers [i, i + 2^k)
                    levels = [v]
                    span = 1
                    while span * 2 <= n_prec + 1 and span * 2 <= n:
                        prev = levels[-1]
                        levels.append(red(prev[:-span], prev[span:]))
                        span *= 2
                    length = idx - w + 1
                    k = np.zeros(n, dtype=np.int64)
                    step = 1
                    for lv in range(1, len(levels)):
                        k[length >= step * 2] = lv
                        step *= 2
                    half = np.int64(1) << k
                    left = np.empty(n, dtype=v.dtype)
                    for lv, tab in enumerate(levels):
                        m = k == lv
                        if m.any():
                            left[m] = red(tab[w[m]], tab[idx[m] - half[m] + 1])
                    out = out.append_column(out_name, pa.array(left))
                else:  # pragma: no cover - caller error
                    raise ValueError(f"unknown rolling agg {agg!r}")
        return out

    return group_apply(
        ds,
        keys,
        _apply,
        sort_by=[order_col] + list(order_extra or []),
        num_partitions=num_partitions,
    )


def pivot_counts(
    ds: Dataset,
    *,
    row_key: str,
    col_key: str,
    categories: Sequence[str],
) -> Dataset:
    """Long→wide conditional count: one output row per ``row_key`` with one
    ``<category>_cnt`` int64 column per category (rows whose ``col_key`` is
    NULL or outside ``categories`` count 0, like SQL's ``SUM(CASE WHEN …
    THEN 1 ELSE 0 END)``).

    One 0/1 column per category, summed per ``row_key`` by
    :func:`~.grouping.combine_by_key` (so the exchange moves one row per
    (row_key, block), not per input row).
    """
    categories = list(categories)
    cnt_cols = [f"{c}_cnt" for c in categories]

    def _indicators(batch: pa.Table) -> pa.Table:
        ck = batch[col_key]
        cols = {row_key: batch[row_key]}
        for cat, out_name in zip(categories, cnt_cols):
            cols[out_name] = pc.cast(
                pc.fill_null(pc.equal(ck, cat), False), pa.int64()
            )
        return pa.table(cols)

    return combine_by_key(
        ds.map_batches(_indicators, batch_format="pyarrow"),
        row_key,
        [(c, "sum") for c in cnt_cols],
    )


def distinct_rows(
    ds: Dataset,
    cols: Union[str, Sequence[str]],
    *,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Exact ``SELECT DISTINCT col1, col2, ...`` (the graph operators'
    edge dedup on ``[src, dst]``).

    Batch-local dedup first (pyarrow ``group_by`` with no aggregates) so only
    unique tuples per read block cross the ONE hash exchange; inside each
    key-sorted partition a single ``run_boundaries`` pass keeps the first row
    of every run.  Nulls form their own group (SQL DISTINCT semantics).
    Shuffle payload is bounded by the number of distinct tuples, not the row
    count — the right shape for low-cardinality projections of a 100-TB
    table.  It stays on :func:`~.grouping.group_apply`, not
    ``combine_by_key``: its output can be as large as its input, and
    ``num_partitions`` lets the reduce side grow with it.
    """
    keys = [cols] if isinstance(cols, str) else list(cols)

    def _local(batch: pa.Table) -> pa.Table:
        return batch.select(keys).group_by(keys).aggregate([])

    def _first(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        arrs = [part[c].to_numpy(zero_copy_only=False) for c in keys]
        firsts = run_boundaries(*arrs)[:-1]
        return part.take(pa.array(firsts))

    return group_apply(
        ds.map_batches(_local, batch_format="pyarrow"),
        keys,
        _first,
        num_partitions=num_partitions,
    )


def distinct_count(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    value_col: str,
    out_col: str = "n_distinct",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Exact ``COUNT(DISTINCT value_col)`` per key (NULL values ignored,
    matching SQL).

    Batch-side pre-dedup (pyarrow ``group_by`` with no aggregates) means only
    unique (key, value) pairs leave each read task; the single hash exchange
    then counts value-runs inside key-runs with two ``searchsorted`` calls —
    no per-group Python loop, no second shuffle.  For approximate counting at
    much lower shuffle cost see ``stages/sketches.hll_distinct``.
    """
    keys = [key] if isinstance(key, str) else list(key)

    def _local_unique(batch: pa.Table) -> pa.Table:
        batch = batch.select(keys + [value_col])
        if batch[value_col].null_count:
            batch = batch.filter(pc.is_valid(batch[value_col]))
        return batch.group_by(keys + [value_col]).aggregate([])

    def _count(part: pa.Table) -> pa.Table:
        key_arrays = _np_cols(part, keys)
        kb = run_boundaries(*key_arrays)
        kvb = run_boundaries(*key_arrays, part[value_col].to_numpy(zero_copy_only=False))
        kv_starts = kvb[:-1]
        counts = np.searchsorted(kv_starts, kb[1:], side="left") - np.searchsorted(
            kv_starts, kb[:-1], side="left"
        )
        firsts = pa.array(kb[:-1])
        out = {k: part[k].take(firsts) for k in keys}
        out[out_col] = pa.array(counts.astype(np.int64))
        return pa.table(out)

    uniques = ds.map_batches(_local_unique, batch_format="pyarrow")
    return group_apply(
        uniques, keys, _count, sort_by=[value_col], num_partitions=num_partitions
    )


def transition_counts(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    order_col: str,
    state_col: str,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Markov transition matrix: global counts of consecutive
    ``(state[i] → state[i+1])`` pairs within each key-group ordered by
    ``order_col`` — the sequence-model-prep twin of the reference's
    parent→child edge walks (hypertrace-trace-enricher/.../ApiTraceGraph.java
    builds exactly these ordered event adjacencies per trace).

    ONE hash exchange on ``key`` (each partition holds complete, key+order
    sorted groups); adjacent-pair extraction is a shifted-array mask (no row
    loop); each partition emits its LOCAL (from,to) count table, so the final
    combine is states²-sized — tiny at any corpus size.
    Output: ``from_state, to_state, cnt`` (rows where a next state exists).
    """
    keys = [key] if isinstance(key, str) else list(key)
    out_schema = pa.schema(
        [
            ("from_state", pa.string()),
            ("to_state", pa.string()),
            ("cnt", pa.int64()),
        ]
    )

    def _pairs(part: pa.Table) -> pa.Table:
        n = part.num_rows
        if n < 2:
            return out_schema.empty_table()
        arrs = [part[c].to_numpy(zero_copy_only=False) for c in keys]
        bounds = run_boundaries(*arrs)
        seg = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        same = seg[1:] == seg[:-1]
        st = part[state_col].combine_chunks()
        frm = st.slice(0, n - 1).filter(pa.array(same))
        nxt = st.slice(1, n - 1).filter(pa.array(same))
        local = (
            pa.table({"from_state": frm, "to_state": nxt})
            .group_by(["from_state", "to_state"])
            .aggregate([([], "count_all")])
        )
        return local.rename_columns(["from_state", "to_state", "cnt"])

    partials = group_apply(
        ds.select_columns(keys + [order_col, state_col]),
        keys,
        _pairs,
        sort_by=[order_col],
        num_partitions=num_partitions,
    )
    return combine_by_key(partials, ["from_state", "to_state"], [("cnt", "sum")])


def sessionize(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    ts_col: str,
    gap: int,
    order_extra: Optional[Sequence[str]] = None,
    session_col: str = "session_seq",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Gap-based session windows: rows of a key ordered by ``ts_col`` belong
    to the same session until the gap to the previous row exceeds ``gap``
    (in the timestamp's native unit, e.g. microseconds).  Adds a 1-based
    ``session_col`` per key.

    This is the generic form of the transcript sessionizer
    (stages/grouping.py assemble_conversations) and the batch translation of
    the reference's session-window grouping
    (RawSpansGroupingTransformer.java — grouping window with inactivity
    gap).  One hash exchange; the per-partition kernel is a boolean diff +
    segmented cumsum — no Python loop.  Pass ``order_extra`` tiebreakers
    (e.g. an event id) so equal timestamps order deterministically.
    """
    keys = [key] if isinstance(key, str) else list(key)

    def _apply(part: pa.Table) -> pa.Table:
        n = part.num_rows
        if n == 0:
            return part.append_column(session_col, pa.array([], pa.int64()))
        bounds = run_boundaries(*_np_cols(part, keys))
        ts = part[ts_col].to_numpy(zero_copy_only=False)
        if ts.dtype.kind == "M":
            ts = ts.view(np.int64)
        new_s = np.zeros(n, dtype=np.int64)
        new_s[1:] = (ts[1:] - ts[:-1]) > gap
        new_s[bounds[:-1]] = 1
        c = np.cumsum(new_s)
        base = np.repeat(
            np.concatenate(([0], c[bounds[1:-1] - 1])), np.diff(bounds)
        )
        return part.append_column(session_col, pa.array(c - base))

    return group_apply(
        ds,
        keys,
        _apply,
        sort_by=[ts_col] + list(order_extra or []),
        num_partitions=num_partitions,
    )


def rollup_counts(
    ds: Dataset,
    *,
    dims: Sequence[str],
    sum_col: Optional[str] = None,
) -> Dataset:
    """``GROUP BY ROLLUP(*dims)``: counts (and optionally an integer sum)
    at every prefix level, rolled-up dimensions emitted as NULL — the SQL
    rollup contract.  :func:`grouping_sets_counts` over the prefixes
    ``dims[:d]``, d = k…0."""
    dims = list(dims)
    return grouping_sets_counts(
        ds,
        dims=dims,
        sets=[dims[:d] for d in range(len(dims), -1, -1)],
        sum_col=sum_col,
    )


def cube_counts(
    ds: Dataset,
    *,
    dims: Sequence[str],
    sum_col: Optional[str] = None,
) -> Dataset:
    """``GROUP BY CUBE(*dims)``: counts (and optionally an integer sum) at
    EVERY subset of the dimensions (2^k grouping sets), excluded dimensions
    emitted as NULL — the SQL cube contract.  :func:`grouping_sets_counts`
    over all 2^k subsets; ``len(dims) > 4`` raises (16+ grouping sets over
    a high-cardinality cube wants an explicit composition instead).
    """
    dims = list(dims)
    if len(dims) > 4:
        raise ValueError(
            "cube_counts supports at most 4 dims (2^k grouping sets); "
            "compose grouping_sets_counts explicitly beyond that"
        )
    return grouping_sets_counts(
        ds,
        dims=dims,
        sets=[
            [d for i, d in enumerate(dims) if mask & (1 << i)]
            for mask in range(1 << len(dims))
        ],
        sum_col=sum_col,
    )


def grouping_sets_counts(
    ds: Dataset,
    *,
    dims: Sequence[str],
    sets: Sequence[Sequence[str]],
    sum_col: Optional[str] = None,
) -> Dataset:
    """``GROUP BY GROUPING SETS (...)``: counts (and optionally an integer
    sum) at exactly the REQUESTED subsets of ``dims`` — the general form of
    :func:`rollup_counts` (prefix sets) and :func:`cube_counts` (all 2^k
    sets).  Excluded dimensions are emitted as NULL per the SQL contract.

    Scale shape: ONE distributed pass — :func:`~.grouping.combine_by_key`
    on ``dims`` — builds the distinct finest-level combination table; each
    requested set is then folded from that table on the driver.  It is
    bounded by the product of dimension cardinalities, never by input rows.
    """
    import ray as _ray
    import ray.data as _rd

    dims = list(dims)
    sets = [list(s) for s in sets]
    for s in sets:
        unknown = set(s) - set(dims)
        if unknown:
            raise ValueError(f"grouping set {s} has columns not in dims: {unknown}")
    metric_names = ["n_rows"] + ([f"sum_{sum_col}"] if sum_col else [])
    metric_aggs = [(c, "sum") for c in metric_names]

    def _project(batch: pa.Table) -> pa.Table:
        cols = {d: batch[d] for d in dims}
        cols["n_rows"] = pa.array(np.ones(batch.num_rows, np.int64))
        if sum_col:
            cols[f"sum_{sum_col}"] = batch[sum_col]
        return pa.table(cols)

    combos = combine_by_key(
        ds.map_batches(_project, batch_format="pyarrow"), dims, metric_aggs
    )
    tables = [t for t in _ray.get(combos.to_arrow_refs()) if t.num_rows]
    if not tables:
        return combos
    allrows = pa.concat_tables(tables)  # distinct-combination-sized
    outs = []
    for keep in sets:
        agg = _combine(keep, metric_aggs, allrows)  # keep == []: one row
        for d in dims:
            if d not in keep:
                agg = agg.append_column(
                    d, pa.nulls(agg.num_rows, allrows.schema.field(d).type)
                )
        outs.append(agg.select(dims + metric_names))
    return _rd.from_arrow(pa.concat_tables(outs))


def group_quantiles(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    value_col: str,
    pcts: Sequence[int] = (25, 50, 75),
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Exact per-key discrete percentiles of an integer column, long format
    ``(key, pct, value)``.

    Same quantile definition as the global ``corpus.length_quantiles`` (the
    smallest value whose 1-based rank reaches ``ceil(p*N/100)``), so the SQL
    oracle is the identical row_number mirror, per group.  One hash
    exchange, value-sorted partitions, per-group ``searchsorted`` pick.
    """
    keys = [key] if isinstance(key, str) else list(key)
    pct_arr = np.asarray(sorted(pcts), dtype=np.int64)
    # SQL percentile semantics: null values don't participate
    ds = ds.map_batches(
        lambda t: t.filter(pc.is_valid(t[value_col]))
        if t[value_col].null_count
        else t,
        batch_format="pyarrow",
    )

    def _apply(part: pa.Table) -> pa.Table:
        bounds = run_boundaries(*_np_cols(part, keys))
        starts, lens = bounds[:-1], np.diff(bounds)
        g = len(starts)
        # target 1-based rank per (group, pct): ceil(p*n/100)
        ranks = (pct_arr[None, :] * lens[:, None] + 99) // 100
        pick = (starts[:, None] + np.maximum(ranks, 1) - 1).ravel()
        firsts = pa.array(np.repeat(starts, len(pct_arr)))
        out = {k: part[k].take(firsts) for k in keys}
        out["pct"] = pa.array(np.tile(pct_arr, g))
        out["value"] = pc.cast(part[value_col].take(pa.array(pick)), pa.int64())
        return pa.table(out)

    return group_apply(
        ds, keys, _apply, sort_by=[value_col], num_partitions=num_partitions
    )


def unpivot(
    ds: Dataset,
    *,
    id_cols: Sequence[str],
    value_cols: Sequence[str],
    name_col: str = "name",
    value_out: str = "value",
) -> Dataset:
    """Wide→long melt: one output row per (input row, value column), the
    inverse of :func:`pivot_counts`.  Pure ``map_batches`` — embarrassingly
    parallel, no shuffle; value columns are cast to a common type by Arrow
    ``concat_tables`` (pass same-typed columns)."""
    id_cols, value_cols = list(id_cols), list(value_cols)

    def _melt(batch: pa.Table) -> pa.Table:
        parts = []
        for vc_name in value_cols:
            cols = {c: batch[c] for c in id_cols}
            cols[name_col] = pa.array([vc_name] * batch.num_rows, pa.string())
            cols[value_out] = batch[vc_name]
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(_melt, batch_format="pyarrow")


def group_collect(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    value_col: str,
    order_by: Sequence[str],
    sep: str = ">",
    out_col: str = "collected",
    count_col: Optional[str] = "n_items",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Ordered per-key collect: the ``value_col`` strings of each key joined
    by ``sep`` in ``order_by`` order (SQL ``string_agg(x, sep ORDER BY ...)``)
    plus an optional item count.

    One hash exchange; the per-partition kernel slices key-runs into a
    ``ListArray`` by offsets and joins with ``pc.binary_join`` — no per-key
    Python.  Skew: a pathological key collects its whole group on one
    partition (inherent to ordered collect); cap group size upstream if the
    key can be unbounded.
    """
    keys = [key] if isinstance(key, str) else list(key)

    def _apply(part: pa.Table) -> pa.Table:
        bounds = run_boundaries(*_np_cols(part, keys))
        vals = part[value_col].combine_chunks()
        lists = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()), vals.cast(pa.string())
        )
        firsts = pa.array(bounds[:-1])
        out = {k: part[k].take(firsts) for k in keys}
        out[out_col] = pc.binary_join(lists, sep)
        if count_col:
            out[count_col] = pa.array(np.diff(bounds))
        return pa.table(out)

    return group_apply(
        ds, keys, _apply, sort_by=list(order_by), num_partitions=num_partitions
    )


def table_profile(ds: Dataset, columns: Optional[Sequence[str]] = None) -> pa.Table:
    """Data-quality profile: per column, exact row count, null count and
    typed min/max (stringified in the output so mixed-type columns share one
    schema).  One column-pruned pass per column — total bytes read equal one
    full-table scan; per-block partials are combined driver-side on TYPED
    values (string-ified only at the end, so integer min/max is numeric, not
    lexicographic).  Driver state = blocks × columns tiny partial rows.

    The approximate companion for distinct counts is
    ``sketches.hll_distinct``; this profile keeps only exactly-SQL-mirrorable
    statistics."""
    import ray as _ray

    if columns is None:
        raw = ds.schema()
        if raw is None:
            raise ValueError(
                "table_profile: dataset has no schema (certainly empty); "
                "pass columns= explicitly"
            )
        columns = raw.names
    cols = list(columns)
    out = {"col_name": [], "n_rows": [], "n_nulls": [], "min_value": [], "max_value": []}
    for c in cols:

        def _partial(t: pa.Table, col=c) -> pa.Table:
            arr = t[col]
            n = len(arr)
            nulls = arr.null_count
            valid = arr.drop_null() if nulls else arr
            if isinstance(valid, pa.ChunkedArray):
                valid = valid.combine_chunks()
            if len(valid):
                mm = pc.min_max(valid)
                mn, mx = mm["min"], mm["max"]
            else:
                mn = mx = pa.scalar(None, t.schema.field(col).type)
            return pa.table(
                {
                    "n": pa.array([n], pa.int64()),
                    "nulls": pa.array([nulls], pa.int64()),
                    "mn": pa.array([mn.as_py()], t.schema.field(col).type),
                    "mx": pa.array([mx.as_py()], t.schema.field(col).type),
                }
            )

        plist = [
            t
            for t in _ray.get(
                ds.select_columns([c])
                .map_batches(_partial, batch_format="pyarrow")
                .to_arrow_refs()
            )
            if t.num_rows
        ]
        if not plist:  # zero blocks: the column profile of nothing
            out["col_name"].append(c)
            out["n_rows"].append(0)
            out["n_nulls"].append(0)
            out["min_value"].append(None)
            out["max_value"].append(None)
            continue
        parts = pa.concat_tables(plist)
        mn = pc.min(parts["mn"])
        mx = pc.max(parts["mx"])
        out["col_name"].append(c)
        out["n_rows"].append(int(pc.sum(parts["n"]).as_py() or 0))
        out["n_nulls"].append(int(pc.sum(parts["nulls"]).as_py() or 0))
        out["min_value"].append(None if mn.as_py() is None else str(mn.as_py()))
        out["max_value"].append(None if mx.as_py() is None else str(mx.as_py()))
    return pa.table(
        {
            "col_name": pa.array(out["col_name"], pa.string()),
            "n_rows": pa.array(out["n_rows"], pa.int64()),
            "n_nulls": pa.array(out["n_nulls"], pa.int64()),
            "min_value": pa.array(out["min_value"], pa.string()),
            "max_value": pa.array(out["max_value"], pa.string()),
        }
    )


def merge_intervals(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    start_col: str,
    end_col: str,
    order_extra: Optional[Sequence[str]] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Merge overlapping/touching intervals per key (the gaps-and-islands
    problem): one output row per maximal run of intervals where each starts
    no later than the running max of the previous ends.  Output:
    ``key, island_seq, island_start, island_end, n_rows``.

    Vectorized per partition: :func:`segmented_running` computes the
    running end-max in log2(n) passes, a shifted compare marks island
    starts, and a segmented cumsum numbers them — no per-key loop.  One
    hash exchange; intervals of one key co-locate (the usual group_apply
    contract).  Timestamp columns work natively (int64 view)."""
    keys = [key] if isinstance(key, str) else list(key)

    def _apply(part: pa.Table) -> pa.Table:
        if part[start_col].null_count or part[end_col].null_count:
            # an interval without both endpoints spans nothing
            part = part.filter(
                pc.and_(
                    pc.is_valid(part[start_col]), pc.is_valid(part[end_col])
                )
            )
        n = part.num_rows
        empty = {
            **{k: part[k].slice(0, 0) for k in keys},
            "island_seq": pa.array([], pa.int64()),
            "island_start": part[start_col].slice(0, 0),
            "island_end": part[end_col].slice(0, 0),
            "n_rows": pa.array([], pa.int64()),
        }
        if n == 0:
            return pa.table(empty)
        bounds = run_boundaries(*_np_cols(part, keys))
        seg_start = np.repeat(bounds[:-1], np.diff(bounds))
        sv = part[start_col].to_numpy(zero_copy_only=False)
        ev = part[end_col].to_numpy(zero_copy_only=False)
        s_type, e_type = part[start_col].type, part[end_col].type
        if sv.dtype.kind == "M":
            sv, ev = sv.view(np.int64), ev.view(np.int64)
        run_end = segmented_running(np.maximum, ev, seg_start)
        new_island = np.ones(n, dtype=bool)
        inside = np.arange(n) > seg_start  # not the first row of its key
        new_island[inside] = sv[inside] > run_end[np.flatnonzero(inside) - 1]
        ib = np.flatnonzero(new_island)
        ib = np.concatenate((ib, [n]))
        firsts, lasts = ib[:-1], ib[1:] - 1
        # island_seq: ordinal of the island within its key
        key_first_island = np.searchsorted(ib[:-1], bounds[:-1], side="left")
        island_key_seg = np.searchsorted(bounds[:-1], firsts, side="right") - 1
        seq = np.arange(len(firsts)) - key_first_island[island_key_seg] + 1
        out = {k: part[k].take(pa.array(firsts)) for k in keys}
        out["island_seq"] = pa.array(seq.astype(np.int64))
        out["island_start"] = pa.array(sv[firsts]).cast(s_type)
        out["island_end"] = pa.array(run_end[lasts]).cast(e_type)
        out["n_rows"] = pa.array((ib[1:] - ib[:-1]).astype(np.int64))
        return pa.table(out)

    return group_apply(
        ds,
        keys,
        _apply,
        sort_by=[start_col] + list(order_extra or []),
        num_partitions=num_partitions,
    )


def funnel(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    ts_col: str,
    stage_col: str,
    stages: Sequence[str],
    order_extra: Optional[Sequence[str]] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Ordered funnel analysis: per key, the timestamp of the first
    ``stages[i]`` event strictly after the matched ``stages[i-1]`` event.

    One output row per key: the key columns, ``stages_completed`` (0..k),
    and one ``ts_<stage>`` timestamp column per stage (null when the funnel
    stalled before it).  Matches the classic nested ``MIN(ts) ...
    WHERE ts > prev`` SQL funnel exactly (strict inequality).

    Vectorized: one hash exchange co-locates each key's rows sorted by
    ``ts``; each stage is then a boolean mask + first-row-per-segment pick
    (``np.unique`` on segment ids — rows are ts-sorted, so the first
    candidate IS the min), k passes total, no per-key loop.  The funnel
    state (one int64 + one timestamp per key per stage) never leaves the
    partition.
    """
    keys = [key] if isinstance(key, str) else list(key)
    stages = list(stages)

    def _apply(part: pa.Table) -> pa.Table:
        ts_type = part[ts_col].type
        if part.num_rows == 0:
            out = {k: part[k].slice(0, 0) for k in keys}
            out["stages_completed"] = pa.array([], pa.int64())
            for s in stages:
                out[f"ts_{s}"] = part[ts_col].slice(0, 0)
            return pa.table(out)
        bounds = run_boundaries(*_np_cols(part, keys))
        n_keys = len(bounds) - 1
        seg = np.repeat(np.arange(n_keys, dtype=np.int64), np.diff(bounds))
        ts = part[ts_col].to_numpy(zero_copy_only=False)
        if ts.dtype.kind == "M":
            ts = ts.view(np.int64)
        stage_vals = part[stage_col].to_numpy(zero_copy_only=False)
        prev = np.full(n_keys, np.iinfo(np.int64).min, dtype=np.int64)
        reached = np.zeros(n_keys, dtype=np.int64)
        out = {k: part[k].take(pa.array(bounds[:-1])) for k in keys}
        stage_ts = []
        for i, s in enumerate(stages):
            alive = reached == i
            cand = np.flatnonzero(
                (stage_vals == s) & (ts > prev[seg]) & alive[seg]
            )
            hit_keys, first_pos = np.unique(seg[cand], return_index=True)
            matched = ts[cand[first_pos]]
            col = np.zeros(n_keys, dtype=np.int64)
            mask = np.ones(n_keys, dtype=bool)
            col[hit_keys] = matched
            mask[hit_keys] = False
            prev[hit_keys] = matched
            reached[hit_keys] += 1
            stage_ts.append(
                pa.array(col, mask=mask).cast(
                    ts_type if pa.types.is_timestamp(ts_type) else pa.int64()
                )
            )
        out["stages_completed"] = pa.array(reached)
        for s, col in zip(stages, stage_ts):
            out[f"ts_{s}"] = col
        return pa.table(out)

    return group_apply(
        ds,
        keys,
        _apply,
        sort_by=[ts_col] + list(order_extra or []),
        num_partitions=num_partitions,
    )


DAY_US = 86_400_000_000


def retention(
    ds: Dataset,
    *,
    key: str,
    ts_col: str,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Cohort retention matrix: cohort = UTC day of each key's first event;
    one output row per (cohort_day, day_offset) with the exact count of
    distinct keys active that many days after their cohort day.

    Two narrow exchanges: (1) hash-exchange on ``key`` — per key the first
    row (ts-sorted) fixes the cohort day and a shifted-compare dedups the
    (key, offset) pairs, so only distinct pairs leave the partition, each
    with a count of 1; (2) :func:`~.grouping.combine_by_key` sums them on
    (cohort_day, day_offset) — bounded by cohorts x window, not by events.
    ``num_partitions`` sizes the first exchange only.

    NULLs follow SQL (``MIN`` per key, then a join back on the key): a row
    with a NULL key counts nowhere, a NULL-``ts`` row gets a NULL
    ``day_offset``, and a key whose every ``ts`` is NULL gets a NULL cohort.
    """

    pair_schema = pa.schema(
        [
            ("cohort_day", pa.timestamp("us")),
            ("day_offset", pa.int64()),
            ("n_users", pa.int64()),
        ]
    )

    def _pairs(part: pa.Table) -> pa.Table:
        part = part.filter(pc.is_valid(part[key]))
        if part.num_rows == 0:
            return pair_schema.empty_table()
        bounds = run_boundaries(*_np_cols(part, [key]))
        seg = np.repeat(
            np.arange(len(bounds) - 1, dtype=np.int64), np.diff(bounds)
        )
        ts_arr = part[ts_col]
        if pa.types.is_timestamp(ts_arr.type):
            ts_arr = ts_arr.cast(pa.timestamp("us"))
        valid = pc.is_valid(ts_arr).to_numpy(zero_copy_only=False)
        ts = ts_arr.to_numpy(zero_copy_only=False)
        if ts.dtype.kind == "M":
            ts = ts.view(np.int64)
        day = np.where(valid, ts, 0).astype(np.int64) // DAY_US
        # NULL ts sorts last in its key: the first row is the min-ts row,
        # and is NULL only when every ts of the key is
        cohort = day[bounds[:-1]]
        has_cohort = valid[bounds[:-1]]
        offset = np.where(valid, day - cohort[seg], 0)
        # offsets are nondecreasing within each ts-sorted key, the NULL ones
        # last: dedup by change
        keep = np.ones(len(day), dtype=bool)
        keep[1:] = (
            (seg[1:] != seg[:-1])
            | (offset[1:] != offset[:-1])
            | (valid[1:] != valid[:-1])
        )
        idx = np.flatnonzero(keep)
        return pa.table(
            {
                "cohort_day": pa.array(
                    cohort[seg[idx]] * DAY_US, mask=~has_cohort[seg[idx]]
                ).cast(pa.timestamp("us")),
                "day_offset": pa.array(offset[idx], mask=~valid[idx]),
                "n_users": np.ones(len(idx), np.int64),
            },
            schema=pair_schema,
        )

    pairs = group_apply(
        ds, key, _pairs, sort_by=[ts_col], num_partitions=num_partitions
    )
    return combine_by_key(
        pairs, ["cohort_day", "day_offset"], [("n_users", "sum")]
    )


def group_zscore_outliers(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    keep_cols: Sequence[str],
    sigma: int = 2,
    cents_scale: int = 100,
) -> Dataset:
    """Exact distributed z-score outlier detection: rows whose value exceeds
    ``mean + sigma * stddev_pop`` of their key-group — bit-exact, no float
    drift between partitions.

    The float value is fixed-pointed (``floor(value * cents_scale)``); each
    batch pre-aggregates per-key ``(count, sum, sum-of-squares)`` int64
    partials (the only thing that crosses the wire — a few rows per batch);
    the driver combines them in arbitrary-precision Python ints and turns
    the criterion ``v*n - S > sigma*sqrt(n*Q - S^2)`` into one integer
    cutoff per key via ``math.isqrt``; a broadcast-filter pass then selects
    rows vectorized.  Two streaming passes over the input, zero shuffles.

    Exactness contract: outlier iff ``(v*n - S) > 0`` and
    ``(v*n - S)^2 > sigma^2 * (n*Q - S^2)`` in exact integer arithmetic —
    mirror it in SQL with HUGEINT.  Per-batch int64 partials bound
    ``|v| <= ~2e6`` fixed-point units (guarded loudly).
    """
    import math

    keys_col, vcol = key, value_col

    def _partial(batch: pa.Table) -> pa.Table:
        if batch[vcol].null_count:  # SQL semantics: nulls join no aggregate
            batch = batch.filter(pc.is_valid(batch[vcol]))
        v = np.floor(
            batch[vcol].to_numpy(zero_copy_only=False) * cents_scale
        ).astype(np.int64)
        if len(v) and np.abs(v).max() > 2_000_000:
            raise OverflowError(
                "group_zscore_outliers: |value| too large for int64 "
                "sum-of-squares partials; raise cents_scale precision "
                "or shard the partial aggregation"
            )
        t = pa.table(
            {
                keys_col: batch[keys_col],
                "n": pa.array(np.ones(len(v), dtype=np.int64)),
                "s": pa.array(v),
                "q": pa.array(v * v),
            }
        )
        return t.group_by(keys_col).aggregate(
            [("n", "sum"), ("s", "sum"), ("q", "sum")]
        )

    parts = ds.select_columns([keys_col, vcol]).map_batches(
        _partial, batch_format="pyarrow"
    )
    cutoffs: dict = {}
    for row in parts.take_all():  # rows = batches x keys: tiny by design
        st = cutoffs.setdefault(row[keys_col], [0, 0, 0])
        st[0] += int(row["n_sum"])
        st[1] += int(row["s_sum"])
        st[2] += int(row["q_sum"])
    cut = {
        k: (s + math.isqrt(sigma * sigma * (n * q - s * s))) // n + 1
        for k, (n, s, q) in cutoffs.items()
    }

    def _filter(batch: pa.Table) -> pa.Table:
        if batch[vcol].null_count:  # null values are never outliers
            batch = batch.filter(pc.is_valid(batch[vcol]))
        v = np.floor(
            batch[vcol].to_numpy(zero_copy_only=False) * cents_scale
        ).astype(np.int64)
        enc = batch[keys_col].combine_chunks().dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        idx_arr = enc.indices
        if idx_arr.null_count:  # null keys form their own (SQL NULL) group
            idx_arr = pc.fill_null(idx_arr, len(uniq))
            uniq = uniq + [None]
        inv = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        thresholds = np.array(
            [cut.get(u, np.iinfo(np.int64).max) for u in uniq],
            dtype=np.int64,
        )
        return batch.select(list(keep_cols)).filter(
            pa.array(v >= thresholds[inv])
        )

    return ds.map_batches(_filter, batch_format="pyarrow")


def _first_per_segment(ok: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Index of the first True per segment (segments with no True omitted)."""
    idxs = np.flatnonzero(ok)
    if len(idxs) == 0:
        return idxs
    return idxs[np.unique(seg[idxs], return_index=True)[1]]


def group_mode(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    num_partitions: int = 32,
) -> Dataset:
    """Exact per-key mode (most frequent value), ties broken by the smallest
    value — fully deterministic, so it hash-matches a SQL
    ``ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, value ASC)`` mirror.

    Each batch pre-counts ``(key, value)`` pairs with Arrow's C++ group-by
    (only unique pairs cross the shuffle); one hash exchange on ``key``
    co-locates each key's count table; the winner pick is a segmented
    max + first-hit scan (no per-key loop).  Output: ``key, mode_value, n``.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key, value_col]).group_by([key, value_col]).aggregate(
            [([], "count_all")]
        )
        return t.rename_columns([key, value_col, "cnt"])

    def _pick(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                key: pa.array([], part.schema.field(key).type),
                "mode_value": pa.array([], part.schema.field(value_col).type),
                "n": pa.array([], pa.int64()),
            }
        )
        if part.num_rows == 0:
            return empty
        k = part[key].to_numpy(zero_copy_only=False)
        v = part[value_col].to_numpy(zero_copy_only=False)
        c = part["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        b2 = run_boundaries(k, v)  # sorted by (key, value) by group_apply
        cnt_u = np.add.reduceat(c, b2[:-1])
        rows_u = b2[:-1]  # representative part-row per unique (key, value)
        bk = run_boundaries(k[rows_u])
        sizes = np.diff(bk)
        seg = np.repeat(np.arange(len(sizes)), sizes)
        maxc = np.repeat(np.maximum.reduceat(cnt_u, bk[:-1]), sizes)
        first = _first_per_segment(cnt_u == maxc, seg)
        take = pa.array(rows_u[first])
        return pa.table(
            {
                key: part[key].take(take),
                "mode_value": part[value_col].take(take),
                "n": pa.array(cnt_u[first]),
            }
        )

    parts = ds.map_batches(_partial, batch_format="pyarrow")
    return group_apply(
        parts, key, _pick, sort_by=[value_col], num_partitions=num_partitions
    )


def mad_stats(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    cents_scale: int = 100,
    k_sigma: int = 3,
    num_partitions: int = 16,
) -> Dataset:
    """Exact per-key robust statistics in integer fixed point: lower median,
    MAD (median absolute deviation, lower-median convention), and the count
    of ``|v - median| > k_sigma * MAD`` outliers.

    "Lower median" = the value at 1-indexed rank ``(n-1)//2 + 1`` — exactly
    DuckDB's ``quantile_disc(x, 0.5)`` — so the whole row hash-matches a SQL
    mirror with no float drift.

    Only the per-batch ``(key, cents, count)`` tables cross the shuffle
    (bounded by the value cardinality, not the row count); medians are then
    weighted-rank scans over each key's count table: segmented cumsum + one
    first-hit pick per key, repeated on ``|v - med|`` re-sorted per key.
    Output: ``key, n, median_cents, mad_cents, n_outliers``.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(
            batch[value_col].to_numpy(zero_copy_only=False) * cents_scale
        ).astype(np.int64)
        t = pa.table({key: batch[key], "v": pa.array(cents)})
        return t.group_by([key, "v"]).aggregate([([], "count_all")]).rename_columns(
            [key, "v", "cnt"]
        )

    def _weighted_lower_median(
        c: np.ndarray, bk: np.ndarray, seg: np.ndarray, target_per_row: np.ndarray
    ) -> np.ndarray:
        """First index per segment where the running count reaches target."""
        cum = np.cumsum(c)
        base = np.repeat(np.concatenate(([0], cum[bk[1:-1] - 1])), np.diff(bk))
        return _first_per_segment(cum - base >= target_per_row, seg)

    def _stats(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                key: pa.array([], part.schema.field(key).type),
                "n": pa.array([], pa.int64()),
                "median_cents": pa.array([], pa.int64()),
                "mad_cents": pa.array([], pa.int64()),
                "n_outliers": pa.array([], pa.int64()),
            }
        )
        if part.num_rows == 0:
            return empty
        k = part[key].to_numpy(zero_copy_only=False)
        v = part["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = part["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        # combine duplicate (key, v) rows from different batches
        b2 = run_boundaries(k, v)
        c = np.add.reduceat(c, b2[:-1])
        rows_u = b2[:-1]
        k, v = k[rows_u], v[rows_u]
        bk = run_boundaries(k)
        sizes = np.diff(bk)
        seg = np.repeat(np.arange(len(sizes)), sizes)
        n_k = np.add.reduceat(c, bk[:-1])
        target = np.repeat((n_k - 1) // 2 + 1, sizes)
        med_idx = _weighted_lower_median(c, bk, seg, target)
        med = np.repeat(v[med_idx], sizes)
        d = np.abs(v - med)
        # re-sort each key's rows by deviation for the MAD rank scan
        order = np.lexsort((d, seg))
        mad_idx = _weighted_lower_median(c[order], bk, seg, target)
        mad = np.repeat(d[order][mad_idx], sizes)
        out_mask = d > k_sigma * mad
        n_out = np.zeros(len(sizes), dtype=np.int64)
        np.add.at(n_out, seg[out_mask], c[out_mask])
        take = pa.array(rows_u[bk[:-1]])
        return pa.table(
            {
                key: part[key].take(take),
                "n": pa.array(n_k),
                "median_cents": pa.array(v[med_idx]),
                "mad_cents": pa.array(d[order][mad_idx]),
                "n_outliers": pa.array(n_out),
            }
        )

    parts = ds.select_columns([key, value_col]).map_batches(
        _partial, batch_format="pyarrow"
    )
    return group_apply(parts, key, _stats, sort_by=["v"], num_partitions=num_partitions)


def attribution(
    ds: Dataset,
    *,
    user_col: str,
    ts_col: str,
    type_col: str,
    id_col: str,
    conversion_type: str,
    touch_types: Sequence[str],
    window_us: int,
    credit_scale: int = 1_000_000,
    num_partitions: int = 32,
) -> Dataset:
    """Multi-touch attribution: for every conversion event, credit the touch
    events of the same user in ``[conv_ts - window, conv_ts]`` under three
    models at once — first-touch, last-touch, and linear.

    Deterministic ties: first/last pick by ``(ts, id)`` order; linear credit
    is integer micro-credits ``credit_scale // n_touches`` (floor division in
    both engines, so the totals hash-match SQL exactly).

    One hash exchange on the user key; per partition the touch windows are
    located with two ``searchsorted`` calls over a rank-compressed composite
    key (the ``range_join`` machinery), first/last picks are O(conversions),
    and only the linear model pays the output-sized ragged expansion.  The
    per-partition channel totals are summed by
    :func:`~.grouping.combine_by_key`.  Output: ``channel, first_touch,
    last_touch, linear_micros`` (one row per touch channel).
    """
    touch_set = set(touch_types)

    def _credit(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "channel": pa.array([], part.schema.field(type_col).type),
                "first_touch": pa.array([], pa.int64()),
                "last_touch": pa.array([], pa.int64()),
                "linear_micros": pa.array([], pa.int64()),
            }
        )
        if part[ts_col].null_count:  # unordered events join no journey
            part = part.filter(pc.is_valid(part[ts_col]))
        if part.num_rows == 0:
            return empty
        ucol = part[user_col].combine_chunks()
        if not pa.types.is_integer(ucol.type):
            ucol = ucol.dictionary_encode().indices
        u = ucol.to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            part[ts_col]
            .combine_chunks()
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        types = part[type_col].to_numpy(zero_copy_only=False)
        conv = np.flatnonzero(types == conversion_type)
        touch = np.flatnonzero(np.isin(types, list(touch_set)))
        if len(conv) == 0 or len(touch) == 0:
            return empty
        # part is sorted by (user, ts, id) → touch slice keeps that order
        tu, tt = u[touch], ts[touch]
        cu, ct = u[conv], ts[conv]
        lo_ts = ct - np.int64(window_us)
        all_ts = np.unique(np.concatenate([tt, ct, lo_ts]))
        base = np.int64(len(all_ts) + 1)
        # rank-compress user ids too: composite = urank * base + ts_rank
        uu = np.unique(u)
        if len(uu) * int(base) >= (1 << 62):
            raise OverflowError(
                "attribution partition too wide for int64 composite key; "
                "raise num_partitions"
            )
        tur = np.searchsorted(uu, tu)
        cur_ = np.searchsorted(uu, cu)
        t_comp = tur * base + np.searchsorted(all_ts, tt)
        lo = np.searchsorted(
            t_comp, cur_ * base + np.searchsorted(all_ts, lo_ts), side="left"
        )
        hi = np.searchsorted(
            t_comp, cur_ * base + np.searchsorted(all_ts, ct), side="right"
        )
        counts = hi - lo
        has = counts > 0
        first_rows = touch[lo[has]]
        last_rows = touch[hi[has] - 1]
        # linear: ragged expansion to touch rows, floor-divided credit
        cts = counts[has]
        total = int(cts.sum())
        if len(cts):
            csum = np.concatenate(([0], np.cumsum(cts)[:-1]))
            flat = np.repeat(lo[has], cts) + (
                np.arange(total) - np.repeat(csum, cts)
            )
            lin_rows = touch[flat]
            lin_credit = np.repeat(credit_scale // cts, cts)
        else:  # no conversion in this partition has any prior touch
            lin_rows = np.empty(0, np.int64)
            lin_credit = np.empty(0, np.int64)

        chan_arr = part[type_col].combine_chunks()
        out = {}
        for rows, col, weights in (
            (first_rows, "first_touch", None),
            (last_rows, "last_touch", None),
            (lin_rows, "linear_micros", lin_credit),
        ):
            ch = chan_arr.take(pa.array(rows)).to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(ch, return_inverse=True)
            agg = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(agg, inv, weights if weights is not None else 1)
            out[col] = dict(zip(uniq, agg))
        channels = sorted(set().union(*[d.keys() for d in out.values()]))
        return pa.table(
            {
                "channel": pa.array(channels, part.schema.field(type_col).type),
                "first_touch": pa.array(
                    [out["first_touch"].get(c, 0) for c in channels], pa.int64()
                ),
                "last_touch": pa.array(
                    [out["last_touch"].get(c, 0) for c in channels], pa.int64()
                ),
                "linear_micros": pa.array(
                    [out["linear_micros"].get(c, 0) for c in channels], pa.int64()
                ),
            }
        )

    projected = ds.select_columns([user_col, ts_col, type_col, id_col])
    partials = group_apply(
        projected,
        user_col,
        _credit,
        sort_by=[ts_col, id_col],
        num_partitions=num_partitions,
    )
    # tiny: channels x partitions rows
    return combine_by_key(
        partials,
        "channel",
        [("first_touch", "sum"), ("last_touch", "sum"), ("linear_micros", "sum")],
    )


def winsorize(
    ds: Dataset,
    *,
    key: Union[str, Sequence[str]],
    value_col: str,
    lo_pct: int = 5,
    hi_pct: int = 95,
    out_col: Optional[str] = None,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Per-key winsorization (outlier clamping for feature prep): every
    value is clamped into its OWN key's ``[P_lo, P_hi]`` percentile band,
    using the exact ceil-rank percentile convention of
    :func:`group_quantiles` — so the SQL oracle is the identical
    row_number mirror plus LEAST/GREATEST.

    Scale shape: the percentile pass is one hash exchange producing a
    key-cardinality-sized (key, lo, hi) table, broadcast via ``ray.put``
    (swap for a hash join back when keys outgrow the driver — same
    documented trade as every broadcast lookup here); the clamp is one
    vectorized pass with per-DISTINCT-key probe fan-out.  Appends
    ``out_col`` (default ``{value_col}_wins``) to the input rows.
    """
    keys = [key] if isinstance(key, str) else list(key)
    if len(keys) != 1:
        raise ValueError("winsorize supports a single key column")
    kcol = keys[0]
    out_col = out_col or f"{value_col}_wins"

    import ray as _ray

    bands: dict = {}
    for row in group_quantiles(
        ds.select_columns([kcol, value_col]),
        key=kcol,
        value_col=value_col,
        pcts=(lo_pct, hi_pct),
        num_partitions=num_partitions,
    ).take_all():  # key-cardinality-sized by construction
        lo, hi = bands.setdefault(row[kcol], [None, None])
        if row["pct"] == lo_pct:
            bands[row[kcol]][0] = int(row["value"])
        else:
            bands[row[kcol]][1] = int(row["value"])
    bands_ref = _ray.put(bands)

    def _clamp(batch: pa.Table) -> pa.Table:
        b = _ray.get(bands_ref)
        if batch[value_col].null_count:
            # a null value has no defined clamp and never entered the
            # quantile bands — drop, mirroring SQL aggregate semantics
            batch = batch.filter(pc.is_valid(batch[value_col]))
        enc = batch[kcol].combine_chunks().dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        idx_arr = enc.indices
        if idx_arr.null_count:  # null keys form their own (SQL NULL) group
            idx_arr = pc.fill_null(idx_arr, len(uniq))
            uniq = uniq + [None]
        lo = np.array([b[u][0] for u in uniq], dtype=np.int64)
        hi = np.array([b[u][1] for u in uniq], dtype=np.int64)
        idx = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        clamped = np.minimum(np.maximum(v, lo[idx]), hi[idx])
        return batch.append_column(out_col, pa.array(clamped))

    return ds.map_batches(_clamp, batch_format="pyarrow")


def group_diversity(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    scale: int = 10**6,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Simpson diversity index per key — ``1 − Σ_t p_t²`` over the key's
    ``value_col`` distribution, as the exact integer
    ``(n² − Σ c_t²)·scale // n²`` (0 = all events one type, → scale for an
    even spread).  The log-free diversity twin of Shannon entropy: identical
    zero/max points and monotone in evenness, but bit-exact against a
    HUGEINT SQL mirror (the :func:`~.text_analysis.bigram_pmi` trade).

    Scale shape: per-batch (key, value) pre-count in ``map_batches`` so the
    single exchange carries distinct pairs per block, then one vectorized
    per-partition pass (duplicate-pair combine + two ``reduceat``).  Loud
    int64 overflow guard on n²·scale.

    Emits (key, n_events:int64, simpson_x1e6:int64).
    """

    def _partial(batch: pa.Table) -> pa.Table:
        agg = batch.select([key, value_col]).group_by(
            [key, value_col]
        ).aggregate([([], "count_all")])
        return agg.rename_columns([key, value_col, "cnt"])

    def _final(part: pa.Table) -> pa.Table:
        agg = part.group_by([key, value_col]).aggregate([("cnt", "sum")])
        agg = agg.rename_columns([key, value_col, "cnt"]).sort_by(
            [(key, "ascending"), (value_col, "ascending")]
        )
        kb = run_boundaries(*_np_cols(agg, [key]))
        cnt = agg["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.add.reduceat(cnt, kb[:-1])
        if len(n) and int(n.max()) ** 2 > (2**63 - 1) // scale:
            raise OverflowError(
                "group_diversity: n^2*scale overflows int64; lower `scale`"
            )
        ss = np.add.reduceat(cnt * cnt, kb[:-1])
        nn = n * n
        simpson = (nn - ss) * scale // nn
        firsts = pa.array(kb[:-1])
        return pa.table(
            {
                key: agg[key].take(firsts),
                "n_events": pa.array(n),
                "simpson_x1e6": pa.array(simpson),
            }
        )

    pairs = ds.map_batches(_partial, batch_format="pyarrow")
    return group_apply(
        pairs, key, _final, sort_by=[value_col], num_partitions=num_partitions
    )


def cooccurrence_counts(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    out_a: str = "value_a",
    out_b: str = "value_b",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Market-basket co-occurrence: for every unordered pair of DISTINCT
    values appearing under the same key, the number of keys where both
    occur — (tool A, tool B) → conversations using both, the input to lift
    / association-rule mining and the key-level cousin of
    :func:`~.text_analysis.bigram_pmi`'s adjacency pairs.

    Scale shape: per-batch distinct (key, value) dedup, one hash exchange
    on the key, then a fully vectorized within-key pair expansion (the
    ragged repeat/arange construction the range join uses — no per-key
    Python loop).  Output pairs per key are quadratic in the key's DISTINCT
    value count — bounded by design for category-like values (tools,
    event types); guard upstream if a key can carry thousands of distinct
    values.  Pair order is canonical (a < b by sort).
    """

    def _local_unique(batch: pa.Table) -> pa.Table:
        t = batch.select([key, value_col])
        if t[value_col].null_count:
            t = t.filter(pc.is_valid(t[value_col]))
        return t.group_by([key, value_col]).aggregate([])

    def _pairs(part: pa.Table) -> pa.Table:
        # part sorted by (key, value); combine cross-block duplicates first
        part = part.group_by([key, value_col]).aggregate([]).sort_by(
            [(key, "ascending"), (value_col, "ascending")]
        )
        n = part.num_rows
        empty = pa.table(
            {
                out_a: pa.array([], part.schema.field(value_col).type),
                out_b: pa.array([], part.schema.field(value_col).type),
                "n_keys": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        kb = run_boundaries(*_np_cols(part, [key]))
        idx = np.arange(n, dtype=np.int64)
        seg_end = np.repeat(kb[1:], np.diff(kb))
        c = seg_end - idx - 1  # later elements in the same key-segment
        total = int(c.sum())
        if total == 0:
            return empty
        firsts = np.repeat(idx, c)
        starts = np.concatenate(([0], np.cumsum(c)))[:-1]
        seconds = firsts + (np.arange(total) - np.repeat(starts, c)) + 1
        v = part[value_col].combine_chunks()
        t = pa.table(
            {
                out_a: v.take(pa.array(firsts)),
                out_b: v.take(pa.array(seconds)),
            }
        )
        agg = t.group_by([out_a, out_b]).aggregate([([], "count_all")])
        return agg.rename_columns([out_a, out_b, "n_keys"])

    uniq = ds.map_batches(_local_unique, batch_format="pyarrow")
    local = group_apply(
        uniq, key, _pairs, sort_by=[value_col], num_partitions=num_partitions
    )
    return combine_by_key(local, [out_a, out_b], [("n_keys", "sum")])


def resample_gapfill(
    ds: Dataset,
    *,
    key: str,
    bucket_col: str,
    step: int,
    count_col: str = "n",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Time-series resample with gap fill: one output row per ``step``-spaced
    bucket between each key's min and max observed bucket, with the event
    count (0 where no rows fell in the bucket).  The batch analog of a
    streaming tumbling window that fires on EVERY tick, which the reference's
    windowed metrics pipeline approximates by emitting only non-empty windows
    (hypertrace-metrics-generator/.../MetricsProcessor.java:75-124) — gap
    filling is what makes downstream rate/derivative math correct.

    ``bucket_col`` must already be truncated to an int64 multiple of ``step``
    (e.g. ``(epoch // 86400) * 86400``); values off the grid raise.

    Scale shape: per-batch partial counts mean only unique (key, bucket)
    pairs cross the one hash exchange; the dense range is GENERATED inside
    each partition (ragged arange over per-key [min, max] runs), so no
    driver-side loop and no oversized shuffle — output size is bounded by
    keys x range/step, counts mapped back via searchsorted.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        if batch[bucket_col].null_count:
            # a null bucket (e.g. null timestamp upstream) sits on no grid
            batch = batch.filter(pc.is_valid(batch[bucket_col]))
        t = (
            batch.select([key, bucket_col])
            .group_by([key, bucket_col])
            .aggregate([([], "count_all")])
        )
        return t.rename_columns([key, bucket_col, count_col])

    def _fill(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                key: pa.array([], part.schema.field(key).type),
                bucket_col: pa.array([], pa.int64()),
                count_col: pa.array([], pa.int64()),
            }
        )
        if part.num_rows == 0:
            return empty
        # combine the per-batch partials that met in this partition
        t = part.group_by([key, bucket_col]).aggregate([(count_col, "sum")])
        t = t.rename_columns([key, bucket_col, count_col]).sort_by(
            [(key, "ascending"), (bucket_col, "ascending")]
        )
        b = t[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if ((b % step) != 0).any():
            raise ValueError(
                f"resample_gapfill: {bucket_col} contains values off the "
                f"step={step} grid; truncate upstream"
            )
        n = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        kb = run_boundaries(*_np_cols(t, [key]))
        mins, maxs = b[kb[:-1]], b[kb[1:] - 1]
        lens = (maxs - mins) // step + 1
        total = int(lens.sum())
        starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        # ragged arange: bucket value for every dense slot of every key
        flat = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
        dense_b = np.repeat(mins, lens) + flat * step
        # map observed counts onto the dense grid: within one key-segment the
        # slot index is (bucket - min) // step, plus that key's dense offset
        seg_id = np.repeat(np.arange(len(lens)), np.diff(kb))
        obs_slots = starts[seg_id] + (b - mins[seg_id]) // step
        dense_n = np.zeros(total, dtype=np.int64)
        dense_n[obs_slots] = n
        keys_arr = t[key].combine_chunks().take(
            pa.array(np.repeat(kb[:-1], lens))
        )
        return pa.table(
            {key: keys_arr, bucket_col: dense_b, count_col: dense_n}
        )

    return group_apply(
        ds.map_batches(_partial, batch_format="pyarrow"),
        key,
        _fill,
        num_partitions=num_partitions,
    )


def group_moments(
    ds: Dataset,
    *,
    key: str,
    x_col: str,
    y_col: str,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Exact per-key second-order moments over two integer columns: ``n``,
    ``sum_x``, ``sum_y``, ``sum_xx``, ``sum_yy``, ``sum_xy`` — the sufficient
    statistics for covariance / Pearson correlation / OLS slope, kept as
    exact int64 so the result is bit-reproducible across partitionings and
    SQL-mirrorable with plain SUMs (no float drift between engines; the
    caller divides at the end, where precision is theirs to choose).

    Scale shape: per-batch partial sums via one Arrow ``group_by`` (only
    key-cardinality-sized partials cross the one exchange); the final
    combine sums partials per key with Python-int exactness and re-checks
    int64 range, raising loudly on overflow.  Per-batch inputs are guarded:
    |x|, |y| < 2^31 keeps every product below 2^62.
    """
    lim = np.int64(1) << 31

    def _partial(batch: pa.Table) -> pa.Table:
        # SQL aggregate semantics: rows with a null x/y contribute nothing
        if batch[x_col].null_count or batch[y_col].null_count:
            batch = batch.filter(
                pc.and_(pc.is_valid(batch[x_col]), pc.is_valid(batch[y_col]))
            )
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and (np.abs(x).max() >= lim or np.abs(y).max() >= lim):
            raise OverflowError(
                "group_moments: |x| or |y| >= 2^31 would overflow int64 "
                "products; rescale upstream"
            )
        t = pa.table(
            {
                key: batch[key],
                "_n": pa.array(np.ones(len(x), dtype=np.int64)),
                "_sx": pa.array(x),
                "_sy": pa.array(y),
                "_sxx": pa.array(x * x),
                "_syy": pa.array(y * y),
                "_sxy": pa.array(x * y),
            }
        )
        aggs = [(c, "sum") for c in ("_n", "_sx", "_sy", "_sxx", "_syy", "_sxy")]
        out = t.group_by([key]).aggregate(aggs)
        return out.rename_columns(
            [key, "n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"]
        )

    cols = ["n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"]

    def _final(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {key: pa.array([], part.schema.field(key).type)}
                | {c: pa.array([], pa.int64()) for c in cols}
            )
        kb = run_boundaries(*_np_cols(part, [key]))
        out = {key: part[key].combine_chunks().take(pa.array(kb[:-1]))}
        i64 = np.iinfo(np.int64)
        for c in cols:
            v = part[c].to_numpy(zero_copy_only=False)
            # exact Python-int segment sums, re-checked against int64 range
            # (.tolist() yields Python ints, so the accumulator cannot wrap)
            sums = [sum(v[a:z].tolist()) for a, z in zip(kb[:-1], kb[1:])]
            if any(s < i64.min or s > i64.max for s in sums):
                raise OverflowError(
                    f"group_moments: per-key {c} exceeds int64; rescale upstream"
                )
            out[c] = pa.array(np.array(sums, dtype=np.int64))
        return pa.table(out)

    return group_apply(
        ds.map_batches(_partial, batch_format="pyarrow"),
        key,
        _final,
        num_partitions=num_partitions,
    )


def global_rank(
    ds: Dataset,
    *,
    col: str,
    descending: bool = False,
    out_col: str = "rank",
    dense_col: Optional[str] = None,
    max_distinct: int = 2_000_000,
) -> Dataset:
    """Exact global ``RANK() OVER (ORDER BY col)`` (+ optional DENSE_RANK)
    WITHOUT a global sort.

    A total-order sort of the corpus is the most expensive exchange an
    engine can run; but rank only needs ``count(values < x)``, so the scale
    path is a distinct-VALUE histogram: per-batch ``value_counts`` combine →
    one value-keyed exchange → a value-cardinality-sized table on the
    driver (loud guard at ``max_distinct``), whose cumulative counts give
    every value its rank.  The (sorted values → ranks) pair is broadcast
    once via ``ray.put``; assignment back is one ``searchsorted`` per batch,
    zero shuffles of the corpus itself.  Ties share a rank exactly like SQL
    RANK; ``dense_col`` adds DENSE_RANK from the same histogram for free.
    """
    import ray as _ray

    def _partial(batch: pa.Table) -> pa.Table:
        t = batch.select([col])
        if t[col].null_count:
            t = t.filter(pc.is_valid(t[col]))
        g = t.group_by([col]).aggregate([([], "count_all")])
        return g.rename_columns([col, "cnt"])

    hist = combine_by_key(
        ds.map_batches(_partial, batch_format="pyarrow"), col, [("cnt", "sum")]
    ).to_pandas()
    if len(hist) > max_distinct:
        raise ValueError(
            f"global_rank: {len(hist)} distinct values of {col!r} exceeds "
            f"max_distinct={max_distinct}; driver histogram state would be "
            "unbounded — bin the column first (length_buckets / "
            "binned_quantiles) or raise the guard deliberately"
        )
    if not len(hist):
        # no non-null values anywhere (empty corpus, or col all-null —
        # null values have no defined rank either way): typed empty result
        raw = ds.schema()
        fields = (
            [pa.field(n, t) for n, t in zip(raw.names, raw.types)]
            if raw is not None
            else []
        )
        fields.append(pa.field(out_col, pa.int64()))
        if dense_col:
            fields.append(pa.field(dense_col, pa.int64()))
        return _ray.data.from_arrow(pa.schema(fields).empty_table())
    hist = hist.sort_values(col, ascending=not descending).reset_index(drop=True)
    cnt = hist["cnt"].to_numpy(dtype=np.int64)
    ranks = np.empty_like(cnt)
    ranks[0] = 1
    np.cumsum(cnt[:-1], out=ranks[1:])
    ranks[1:] += 1
    dense = np.arange(1, len(cnt) + 1, dtype=np.int64)
    # store ascending for searchsorted regardless of rank direction
    vals = hist[col].to_numpy()
    if descending:
        vals, ranks, dense = vals[::-1].copy(), ranks[::-1].copy(), dense[::-1].copy()
    ref = _ray.put((vals, ranks, dense))

    def _assign(batch: pa.Table) -> pa.Table:
        if batch[col].null_count:
            raise ValueError(
                f"global_rank: null {col!r} values have no defined rank; "
                "filter or fill them first"
            )
        v_sorted, r, d = _ray.get(ref)
        v = batch[col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(v_sorted, v)
        batch = batch.append_column(out_col, pa.array(r[idx]))
        if dense_col:
            batch = batch.append_column(dense_col, pa.array(d[idx]))
        return batch

    return ds.map_batches(_assign, batch_format="pyarrow")


def _trunc_div(num: int, den: int) -> int:
    """Integer division truncating toward zero — SQL ``//`` semantics
    (Python's ``//`` floors, which differs for negative numerators)."""
    q = abs(num) // abs(den)
    return -q if (num < 0) != (den < 0) else q


def group_linear_fit(
    ds: Dataset,
    *,
    key: str,
    x_col: str,
    y_col: str,
    scale: int = 1_000_000,
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Exact distributed OLS per key: ``y ≈ slope·x + intercept`` fitted
    from :func:`group_moments`' integer sufficient statistics — the
    canonical combiner pattern (per-batch partial sums, one key-sized
    exchange), so the fit never moves more than key-cardinality rows.

    ``slope`` and ``intercept`` are emitted as truncated fixed-point
    integers (``slope_x{scale}`` = trunc(scale·(nΣxy − ΣxΣy)/(nΣxx −
    (Σx)²)); truncation toward zero matches SQL ``//``), so the result is
    bit-reproducible across partitionings and SQL-mirrorable with HUGEINT
    arithmetic.  Zero-x-variance keys get NULL slope/intercept.  The final
    arithmetic runs over key-cardinality rows with Python-int exactness
    (no int64 overflow regardless of scale).
    """
    moments = group_moments(
        ds, key=key, x_col=x_col, y_col=y_col, num_partitions=num_partitions
    )

    def _fit(t: pa.Table) -> pa.Table:
        n = t["n"].to_pylist()
        sx = t["sum_x"].to_pylist()
        sy = t["sum_y"].to_pylist()
        sxx = t["sum_xx"].to_pylist()
        sxy = t["sum_xy"].to_pylist()
        slopes, intercepts = [], []
        for i in range(t.num_rows):  # key-cardinality-sized, exact ints
            den = n[i] * sxx[i] - sx[i] * sx[i]
            if den == 0:
                slopes.append(None)
                intercepts.append(None)
                continue
            s = _trunc_div((n[i] * sxy[i] - sx[i] * sy[i]) * scale, den)
            slopes.append(s)
            intercepts.append(_trunc_div(sy[i] * scale - s * sx[i], n[i]))
        return pa.table(
            {
                key: t[key],
                "n": t["n"],
                f"slope_x{scale}": pa.array(slopes, pa.int64()),
                f"intercept_x{scale}": pa.array(intercepts, pa.int64()),
            }
        )

    return moments.map_batches(_fit, batch_format="pyarrow")
