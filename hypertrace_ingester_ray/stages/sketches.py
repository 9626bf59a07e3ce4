"""Probabilistic sketches: HyperLogLog distinct counting and a Bloom-filter
anti-join prefilter.

Scale rationale (the reason these exist next to the exact operators in
``stages/analytics.py`` / ``stages/joins.py``): at 100 TB an exact
COUNT(DISTINCT) must move every unique (key, value) pair through a shuffle,
and an exact anti join must probe every row against the full key set.  The
sketch versions move a **fixed-size** register array per (key, batch) — 4 KiB
at p=12 regardless of cardinality — and a fixed-size bit array broadcast once
via ``ray.put``.

- :func:`hll_distinct` — HyperLogLog (Flajolet et al. 2007) with the
  small-range linear-counting correction; fully deterministic (fixed-key
  64-bit hash), vectorized partial registers per batch, merged with one
  small exchange on the group key.  ~1.6 % typical error at p=12.
- :func:`bloom_anti_join` — Bloom prefilter + exact confirmation: the bloom
  bit array eliminates definite non-members without touching the exact set;
  only bloom-positive rows (true members + ~fp_rate of the rest) hit the
  exact sorted-array membership check, so the RESULT IS EXACT (same oracle
  as ``joins.broadcast_semi_join(anti=True)``) while the per-row cost at
  scale is one cache-friendly bit probe.

The reference has no sketches (its Kafka Streams state stores hold exact
sets, e.g. the distinct-services set per trace in RawTraceViewGenerator);
these are the batch/scale-path additions a 100 TB corpus needs.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from .grouping import (
    DEFAULT_NUM_PARTITIONS,
    combine_by_key,
    group_apply,
    run_boundaries,
    segment_ids_from_boundaries,
    top_k,
)

__all__ = [
    "hll_distinct",
    "bloom_anti_join",
    "heavy_hitters",
    "binned_quantiles",
    "sampled_quantiles",
    "sampled_quantiles_by",
    "splitmix64",
]

_SPLIT_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT_C2 = np.uint64(0x94D049BB133111EB)
_SPLIT_INC = np.uint64(0x9E3779B97F4A7C15)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array (wrapping mul)."""
    z = x + _SPLIT_INC
    z = (z ^ (z >> np.uint64(30))) * _SPLIT_C1
    z = (z ^ (z >> np.uint64(27))) * _SPLIT_C2
    return z ^ (z >> np.uint64(31))


def _hash64(col) -> np.ndarray:
    """Deterministic (fixed-key) 64-bit hash of any Arrow column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(vals, categorize=False).astype(np.uint64)


def _bit_length(w: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint64 (0 → 0), exact for all 64 bits."""
    bl = np.zeros(len(w), dtype=np.int64)
    v = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        v[big] >>= np.uint64(s)
    bl[w > 0] += 1
    return bl


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------


def _estimate_from_registers(merged: np.ndarray) -> np.ndarray:
    """HLL estimate (with small-range linear counting) per register row;
    ``merged`` is (k, m) uint8.  Returns rounded int64 counts."""
    m = merged.shape[1]
    alpha = 0.7213 / (1 + 1.079 / m)
    z = np.power(2.0, -merged.astype(np.float64)).sum(axis=1)
    est = alpha * m * m / z
    zeros = (merged == 0).sum(axis=1)
    small = (est <= 2.5 * m) & (zeros > 0)
    est[small] = m * np.log(m / zeros[small])
    return np.rint(est).astype(np.int64)


def hll_distinct(
    ds: Dataset,
    *,
    key: str,
    value_col: str,
    p: int = 12,
    out_col: str = "n_distinct_approx",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Approximate COUNT(DISTINCT ``value_col``) per ``key`` via HyperLogLog
    with 2**p registers (NULL values ignored).  Deterministic; standard
    error ≈ 1.04/sqrt(2**p) (~1.6 % at p=12).
    """
    m = 1 << p
    width = 64 - p
    w_mask = (np.uint64(1) << np.uint64(width)) - np.uint64(1)

    def _partial(batch: pa.Table) -> pa.Table:
        batch = batch.select([key, value_col])
        if batch[value_col].null_count:
            batch = batch.filter(pc.is_valid(batch[value_col]))
        if batch.num_rows == 0:
            return pa.table(
                {
                    key: batch[key],
                    "registers": pa.array([], pa.binary(m)),
                }
            )
        h = _hash64(batch[value_col])
        bucket = (h >> np.uint64(width)).astype(np.int64)
        rho = (width - _bit_length(h & w_mask) + 1).astype(np.uint8)
        karr = batch[key].combine_chunks()
        # dictionary codes, not np.unique: numpy can't order None vs str —
        # the null key keeps its own register set (SQL's NULL group)
        enc = karr.dictionary_encode()
        uk = enc.dictionary.to_pylist()
        idx_arr = enc.indices
        if idx_arr.null_count:
            idx_arr = pc.fill_null(idx_arr, len(uk))
            uk = uk + [None]
        inv = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        slot = inv * m + bucket
        order = np.argsort(slot, kind="stable")
        slot_s = slot[order]
        bounds = run_boundaries(slot_s)
        max_rho = np.maximum.reduceat(rho[order], bounds[:-1])
        run_slots = slot_s[bounds[:-1]]
        regs = np.zeros((len(uk), m), dtype=np.uint8)
        regs[run_slots // m, run_slots % m] = max_rho
        return pa.table(
            {
                key: pa.array(uk, type=karr.type),
                "registers": pa.array(
                    [regs[i].tobytes() for i in range(len(uk))], pa.binary(m)
                ),
            }
        )

    alpha = 0.7213 / (1 + 1.079 / m)

    def _merge(part: pa.Table) -> pa.Table:
        n = part.num_rows
        if n == 0:
            return pa.table({key: part[key], out_col: pa.array([], pa.int64())})
        flat = np.frombuffer(
            b"".join(part["registers"].to_pylist()), dtype=np.uint8
        ).reshape(n, m)
        bounds = run_boundaries(part[key].to_numpy(zero_copy_only=False))
        merged = np.maximum.reduceat(flat, bounds[:-1], axis=0)
        est = _estimate_from_registers(merged)
        return pa.table(
            {
                key: part[key].take(pa.array(bounds[:-1])),
                out_col: pa.array(est),
            }
        )

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    return group_apply(partials, key, _merge, num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# Bloom-filter anti join (exact result; bloom is the scale-path prefilter)
# ---------------------------------------------------------------------------


def bloom_anti_join(
    ds: Dataset,
    small: Dataset,
    *,
    key: str,
    bits_per_key: int = 16,
    n_hashes: int = 7,
) -> Dataset:
    """Drop rows of ``ds`` whose ``key`` appears in ``small`` (anti join).

    The small side is collected once on the driver, turned into (a) a Bloom
    bit array and (b) a sorted exact array, both shared via ``ray.put``.
    Each batch probes the bloom filter vectorized; only bloom-positive rows
    do the exact ``searchsorted`` confirm, so false positives are removed and
    the output is byte-identical to the exact anti join.
    """
    # re-project each block: operator fusion can hand back a block that still
    # carries the pre-projection schema (observed with map_batches-filter →
    # select_columns chains), and concat_tables requires identical schemas
    sparts = [
        t.select([key])
        for t in ray.get(small.select_columns([key]).to_arrow_refs())
        # fully-empty datasets can hand back zero-COLUMN blocks that lack
        # the key; zero rows contribute nothing either way
        if t.num_rows
    ]
    if not sparts:  # empty exclusion set: anti join drops nothing
        return ds
    small_tbl = pa.concat_tables(sparts)
    vals = small_tbl[key].combine_chunks().to_numpy(zero_copy_only=False)
    vals = np.unique(vals)
    n = max(len(vals), 1)
    m_bits = int(max(64, bits_per_key * n))
    bits = np.zeros((m_bits + 7) // 8, dtype=np.uint8)
    h1 = pd.util.hash_array(vals, categorize=False).astype(np.uint64)
    h2 = splitmix64(h1) | np.uint64(1)
    for i in range(n_hashes):
        idx = (h1 + np.uint64(i) * h2) % np.uint64(m_bits)
        # bitwise_or.at: plain fancy-index |= drops updates on duplicate bytes
        np.bitwise_or.at(
            bits,
            (idx >> np.uint64(3)).astype(np.int64),
            np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8),
        )
    filter_ref = ray.put((bits, m_bits, np.sort(vals)))

    def _probe(batch: pa.Table) -> pa.Table:
        bits_, m_, exact_sorted = ray.get(filter_ref)
        col = batch[key].combine_chunks()
        v = col.to_numpy(zero_copy_only=False)
        g1 = pd.util.hash_array(v, categorize=False).astype(np.uint64)
        g2 = splitmix64(g1) | np.uint64(1)
        cand = np.ones(len(v), dtype=bool)
        for i in range(n_hashes):
            idx = (g1 + np.uint64(i) * g2) % np.uint64(m_)
            bit = (
                bits_[(idx >> np.uint64(3)).astype(np.int64)]
                >> (idx & np.uint64(7)).astype(np.uint8)
            ) & np.uint8(1)
            cand &= bit.astype(bool)
            if not cand.any():
                break
        keep = ~cand
        if cand.any():
            ci = np.flatnonzero(cand)
            pos = np.searchsorted(exact_sorted, v[ci])
            pos = np.minimum(pos, len(exact_sorted) - 1)
            member = exact_sorted[pos] == v[ci]
            keep[ci[~member]] = True
        return batch.filter(pa.array(keep))

    return ds.map_batches(_probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters (exact result; the sketch bounds the state)
# ---------------------------------------------------------------------------


def heavy_hitters(
    ds: Dataset,
    *,
    value_col: str,
    threshold: int,
    k: int = 4096,
    out_count_col: str = "cnt",
    value_type: "pa.DataType | None" = None,
) -> Dataset:
    """All values occurring at least ``threshold`` times — EXACT, computed
    with sketch-bounded state via the classic two-pass scheme:

    1. Per-batch Misra-Gries summaries with ``k`` counters (value_counts →
       subtract the (k+1)-th count, drop ≤0), merged by a value-keyed sum and
       compressed once more to ``k`` counters.  Mergeable-summaries theorem
       (Agarwal et al., PODS 2012): any value with true frequency > N/k
       survives the merged summary, so the candidate set is a superset of
       the answer whenever ``threshold > N/k``.
    2. Exact confirm: one streaming pass counting ONLY the ≤k candidates
       (broadcast via ``ray.put``), then filter ≥ threshold.

    Raises ``ValueError`` if ``threshold <= N/k`` (the guarantee would not
    hold) — pick ``k > N/threshold``.  Candidate/driver state is ``O(k)``
    regardless of corpus size; contrast with ``corpus.vocab_top_k`` whose
    exchange is vocabulary-sized.
    """

    def _mg_partial(batch: pa.Table) -> pa.Table:
        arr = batch[value_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.drop_null()
        vc = arr.value_counts()
        vals = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        n_batch = int(cnts.sum())  # non-null values counted toward N
        if len(cnts) > k:
            order = np.argsort(-cnts, kind="stable")
            cnts = cnts - cnts[order[k]]
            keep = cnts > 0
            vals, cnts = vals.filter(pa.array(keep)), cnts[keep]
        nr = np.zeros(len(cnts), np.int64)
        if len(nr) == 0 and n_batch:
            # every counter compressed away — keep one zero-count row so the
            # batch still contributes to N (the threshold<=N/k guard)
            vals = vc.field("values").slice(0, 1)
            cnts = np.zeros(1, np.int64)
            nr = np.array([n_batch], np.int64)
        elif len(nr):
            nr[0] = n_batch
        return pa.table(
            {value_col: vals, "cnt": pa.array(cnts), "n_rows": pa.array(nr)}
        )

    merged = combine_by_key(
        ds.map_batches(_mg_partial, batch_format="pyarrow"),
        value_col,
        [("cnt", "sum"), ("n_rows", "sum")],
    )
    mparts = [t for t in ray.get(merged.to_arrow_refs()) if t.num_rows]
    if not mparts:  # certainly-empty corpus: no candidates, nothing to count
        # empty-result typing precedence: caller's value_type, then the
        # dataset's recoverable schema, then string.  Without value_type a
        # non-string value_col on an unrecoverable-schema empty run would
        # flip to string and fail a later union/concat (ADVICE r4).
        vt = value_type
        raw = ds.schema()
        if vt is None and raw is not None and value_col in raw.names:
            t = dict(zip(raw.names, raw.types))[value_col]
            if isinstance(t, pa.DataType):
                vt = t
        return ray.data.from_arrow(
            pa.table(
                {
                    value_col: pa.array([], vt or pa.string()),
                    out_count_col: pa.array([], pa.int64()),
                }
            )
        )
    mt = pa.concat_tables(mparts)
    total_n = int(pc.sum(mt["n_rows"]).as_py() or 0)
    if threshold * k <= total_n:
        raise ValueError(
            f"threshold={threshold} <= N/k = {total_n}/{k}; "
            "increase k for an exact heavy-hitter guarantee"
        )
    cnts = mt["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
    vals = mt[value_col].combine_chunks()
    if len(cnts) > k:  # final MG compress to k candidates
        order = np.argsort(-cnts, kind="stable")
        cnts = cnts - cnts[order[k]]
        keep = cnts > 0
        vals = vals.filter(pa.array(keep))
    cand_ref = ray.put(vals)

    def _exact(batch: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        arr = batch[value_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        hit = arr.filter(pc.is_in(arr, value_set=cand))
        vc = hit.value_counts()
        return pa.table(
            {
                value_col: vc.field("values"),
                out_count_col: vc.field("counts").cast(pa.int64()),
            }
        )

    exact = combine_by_key(
        ds.map_batches(_exact, batch_format="pyarrow"),
        value_col,
        [(out_count_col, "sum")],
    )
    return exact.map_batches(
        lambda t: t.filter(pc.greater_equal(t[out_count_col], threshold)),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Binned quantiles (bounded state for unbounded/float domains)
# ---------------------------------------------------------------------------


def binned_quantiles(
    ds: Dataset,
    *,
    value_col: str,
    bin_width: float,
    pcts: Sequence[int] = (10, 25, 50, 75, 90),
) -> pa.Table:
    """Approximate quantiles of a float/unbounded column with state bounded
    by the number of occupied BINS, not distinct values: each value maps to
    ``floor(v / bin_width)``, per-block bin histograms merge through one
    bin-keyed aggregate, and the driver walks the merged histogram with the
    same ceil-rank convention as ``corpus.length_quantiles``.  The reported
    value is the bin's lower edge — error ≤ ``bin_width``, deterministic,
    and exactly mirrorable in SQL (the oracle computes the identical
    floor-binned walk).  This is the scale path when ``length_quantiles``'
    distinct-value state would be unbounded (floats, 64-bit ids)."""

    def _hist(batch: pa.Table) -> pa.Table:
        arr = batch[value_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.drop_null()
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        bins = np.floor(v / bin_width).astype(np.int64)
        ub, cnts = np.unique(bins, return_counts=True)
        return pa.table(
            {"bin": pa.array(ub), "cnt": pa.array(cnts.astype(np.int64))}
        )

    hist = combine_by_key(
        ds.map_batches(_hist, batch_format="pyarrow"), "bin", [("cnt", "sum")]
    ).take_all()  # bounded: one row per occupied bin
    bins = np.array([r["bin"] for r in hist], dtype=np.int64)
    cnts = np.array([r["cnt"] for r in hist], dtype=np.int64)
    order = np.argsort(bins)
    bins, cnts = bins[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if len(cum) else 0
    out_p, out_v = [], []
    for p in pcts:
        target = max((p * n + 99) // 100, 1)
        i = int(np.searchsorted(cum, target, side="left"))
        if i < len(bins):
            out_p.append(int(p))
            out_v.append(float(bins[i]) * bin_width)
    return pa.table(
        {
            "pct": pa.array(out_p, pa.int64()),
            "value": pa.array(out_v, pa.float64()),
        }
    )


def cms_counts(
    ds: Dataset,
    terms: Sequence,
    *,
    value_col: str,
    depth: int = 4,
    width: int = 4096,
) -> pa.Table:
    """Count-Min Sketch point-frequency estimates for ``terms`` over
    ``value_col`` — approximate counts whose exchange is bounded by the
    SKETCH size (``depth × width`` cells), never the value cardinality.
    The missing piece between ``heavy_hitters`` (who is frequent?) and a
    vocabulary-sized exact count: "how often are THESE values?" at fixed
    memory.  Guarantees: estimate ≥ true count (deterministic), and
    overestimates by ≤ e·N/width with probability 1−(1/e)^depth.

    Per batch: one fused ``bincount`` over the flattened (row, cell) index;
    only NONZERO cells ship (Zipf inputs touch a fraction of the sketch).
    The global merge is a cell-keyed combine (≤ depth·width rows);
    estimates resolve on the driver (terms-sized).  Returns a
    ``pa.Table`` (term:string, approx_cnt:int64), ordered as ``terms``.
    """
    seeds = (np.arange(depth, dtype=np.uint64) + np.uint64(1)) * np.uint64(
        0x9E3779B97F4A7C15
    )

    def _cells(vals_hash: np.ndarray) -> np.ndarray:
        # (depth, n) cell ids: re-finalize the value hash per row seed
        return np.stack(
            [
                (splitmix64(vals_hash + s) % np.uint64(width)).astype(np.int64)
                + d * width
                for d, s in enumerate(seeds)
            ]
        )

    def _partial(batch: pa.Table) -> pa.Table:
        col = batch[value_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = pc.is_valid(col)
        if not pc.all(valid).as_py():
            col = col.filter(valid)
        h = _hash64(col)
        flat = _cells(h).ravel()
        cnt = np.bincount(flat, minlength=depth * width).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {"cell": pa.array(nz.astype(np.int64)), "cnt": pa.array(cnt[nz])}
        )

    rows = combine_by_key(
        ds.map_batches(_partial, batch_format="pyarrow"), "cell", [("cnt", "sum")]
    ).take_all()  # bounded by depth*width cells
    sketch = np.zeros(depth * width, dtype=np.int64)
    for r in rows:
        sketch[r["cell"]] = r["cnt"]

    term_arr = pa.array(list(terms))
    th = _cells(_hash64(term_arr))  # (depth, n_terms)
    est = sketch[th].min(axis=0)
    return pa.table(
        {
            "term": term_arr.cast(pa.string()),
            "approx_cnt": pa.array(est.astype(np.int64)),
        }
    )


def hll_set_ops(
    ds_a: Dataset,
    ds_b: Dataset,
    *,
    value_col: str,
    p: int = 12,
) -> Dataset:
    """Approximate distinct-set algebra between two streams: |A|, |B|,
    |A∪B| (native HLL register max-merge — the union of HLLs IS the HLL of
    the union), and |A∩B| by inclusion–exclusion (clipped at 0).

    Scale shape: each side folds to ONE 2**p-byte register vector — per
    block a single partial register row leaves the read task, and the
    driver max-merges blocks-many fixed-size vectors; nothing row-sized is
    collected.  Deterministic (same hash as :func:`hll_distinct`).
    Approximate by design → pair with the exact operators when the answer
    must be exact; the error bound is pytest-checked.
    """
    import ray as _ray
    import ray.data as _rd

    m = 1 << p
    width = 64 - p
    w_mask = (np.uint64(1) << np.uint64(width)) - np.uint64(1)

    def _partial(batch: pa.Table) -> pa.Table:
        col = batch[value_col]
        if col.null_count:
            batch = batch.filter(pc.is_valid(col))
        if batch.num_rows == 0:
            return pa.table({"registers": pa.array([], pa.binary(m))})
        h = _hash64(batch[value_col])
        bucket = (h >> np.uint64(width)).astype(np.int64)
        rho = (width - _bit_length(h & w_mask) + 1).astype(np.uint8)
        regs = np.zeros(m, dtype=np.uint8)
        np.maximum.at(regs, bucket, rho)
        return pa.table({"registers": pa.array([regs.tobytes()], pa.binary(m))})

    def _fold(ds: Dataset) -> np.ndarray:
        rows = ds.map_batches(_partial, batch_format="pyarrow").take_all()
        if not rows:
            return np.zeros(m, dtype=np.uint8)
        flat = np.frombuffer(
            b"".join(r["registers"] for r in rows), dtype=np.uint8
        ).reshape(len(rows), m)
        return flat.max(axis=0)

    ra, rb = _fold(ds_a), _fold(ds_b)
    est = _estimate_from_registers(np.stack([ra, rb, np.maximum(ra, rb)]))
    n_a, n_b, n_union = int(est[0]), int(est[1]), int(est[2])
    return _rd.from_arrow(
        pa.table(
            {
                "n_a_approx": pa.array([n_a], pa.int64()),
                "n_b_approx": pa.array([n_b], pa.int64()),
                "n_union_approx": pa.array([n_union], pa.int64()),
                "n_intersect_approx": pa.array(
                    [max(n_a + n_b - n_union, 0)], pa.int64()
                ),
            }
        )
    )


def sampled_quantiles(
    ds: Dataset,
    *,
    value_col: str,
    id_col: str,
    k: int = 1024,
    pcts: Sequence[int] = (25, 50, 75, 90, 99),
) -> Dataset:
    """Quantile estimates from a DETERMINISTIC bottom-k hash sample — the
    mergeable, layout-independent quantile sketch this family was missing.

    KLL / GK / t-digest give tighter theoretical bounds but their state
    depends on merge ORDER, so two runs with different block layouts (or a
    resume) return different estimates.  The bottom-k sketch instead keeps
    the ``k`` rows with the smallest fixed hash ticket
    ``(id * 2246822519) mod 2^32`` (ties by id) — a uniform
    without-replacement sample that is a pure FUNCTION OF THE ROW SET:
    identical across runs, cluster shapes, shard layouts and resumes, and
    therefore exactly mirrorable in SQL (``ORDER BY ticket, id LIMIT k``
    is the whole sketch).  Standard sample-quantile bounds apply: rank
    error ``O(sqrt(ln(1/δ)/k))`` — ~±4 rank points at k=1024 with high
    probability (pytest checks the realized error against exact).

    Quantile convention: value at ceil-rank ``max(1, (p·n + 99) // 100)``
    of the sorted sample — the same integer convention as
    :func:`binned_quantiles` / ``corpus.length_quantiles``.

    Scale shape: :func:`~.grouping.top_k` keeps each block's local
    bottom-k, so the driver sorts ``k × num_blocks`` rows and keeps the
    ≤ ``k``-row sample (bounded by construction).  Merging two corpora =
    union then bottom-k again — the sketch is mergeable with no loss.
    ``id_col`` must be non-negative int64 (same ticket contract as
    ``corpus.weighted_sample``).
    """
    from .corpus import _MOD32, _SAMPLE_K

    def _local(batch: pa.Table) -> pa.Table:
        batch = batch.select([id_col, value_col]).filter(
            pc.and_(pc.is_valid(batch[id_col]), pc.is_valid(batch[value_col]))
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ticket = ((ids * _SAMPLE_K) % _MOD32).astype(np.int64)
        return batch.append_column("_ticket", pa.array(ticket))

    sample_rows = top_k(
        ds.map_batches(_local, batch_format="pyarrow"),
        [("_ticket", "ascending"), (id_col, "ascending")],
        k,
    ).take_all()  # bounded: <= k rows by construction
    vals = np.sort(np.array([r[value_col] for r in sample_rows], np.float64))
    n = len(vals)
    out_p, out_v = [], []
    for p in pcts:
        if n:
            out_p.append(int(p))
            out_v.append(float(vals[max((int(p) * n + 99) // 100, 1) - 1]))
    return ray.data.from_arrow(
        pa.table(
            {
                "pct": pa.array(out_p, pa.int64()),
                "value": pa.array(out_v, pa.float64()),
            }
        )
    )


def sampled_quantiles_by(
    ds: Dataset,
    *,
    by: str,
    value_col: str,
    id_col: str,
    k: int = 512,
    pcts: Sequence[int] = (25, 50, 75, 90, 99),
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
) -> Dataset:
    """Per-group :func:`sampled_quantiles`: one deterministic bottom-k hash
    sample PER KEY, then the same ceil-rank walk — grouped quantile
    estimates whose state is ``k`` rows per group no matter how many rows
    or distinct values the group holds (``group_quantiles`` is the exact
    path; this is the sketch when per-group value volume is unbounded).

    Same ticket, same determinism story as the global sketch: the per-group
    sample is a pure function of the group's row set, layout-independent,
    mergeable, and exactly SQL-mirrorable (``row_number() OVER (PARTITION
    BY key ORDER BY ticket, id) <= k``).

    Scale shape: each block keeps its local per-group bottom-k (so the one
    keyed exchange carries ≤ ``k × groups-per-block`` rows per block, not
    the corpus), then complete groups meet in :func:`group_apply`
    partitions where the final bottom-k + quantile walk runs per group —
    a Python loop over groups × ≤k sample rows, fine for dimension-sized
    key cardinalities (document/vocabulary-sized keys belong in
    ``group_quantiles``' value-keyed exchange instead)."""
    from .corpus import _MOD32, _SAMPLE_K, _sortable_codes

    def _local(batch: pa.Table) -> pa.Table:
        batch = batch.select([by, id_col, value_col]).filter(
            pc.and_(pc.is_valid(batch[id_col]), pc.is_valid(batch[value_col]))
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ticket = ((ids * _SAMPLE_K) % _MOD32).astype(np.int64)
        batch = batch.append_column("_ticket", pa.array(ticket))
        gc = _sortable_codes(batch[by])
        order = np.lexsort((ids, ticket, gc))
        bounds = run_boundaries(gc[order])
        seg = segment_ids_from_boundaries(bounds)
        keep = order[(np.arange(len(order)) - bounds[seg]) < k]
        return batch.take(pa.array(np.sort(keep)))

    def _reduce(part: pa.Table) -> pa.Table:
        group_type = part.schema.field(by).type
        if part.num_rows == 0:
            return pa.table(
                {
                    by: pa.array([], group_type),
                    "pct": pa.array([], pa.int64()),
                    "value": pa.array([], pa.float64()),
                }
            )
        gc = _sortable_codes(part[by])
        vals = part[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        bounds = run_boundaries(gc)
        g_idx, out_p, out_v = [], [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sample = np.sort(vals[lo : min(lo + k, hi)])
            n = len(sample)
            for p in pcts:
                g_idx.append(int(lo))
                out_p.append(int(p))
                out_v.append(float(sample[max((int(p) * n + 99) // 100, 1) - 1]))
        gcol = part[by]
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        return pa.table(
            {
                by: gcol.take(pa.array(g_idx, pa.int64())),
                "pct": pa.array(out_p, pa.int64()),
                "value": pa.array(out_v, pa.float64()),
            }
        )

    return group_apply(
        ds.map_batches(_local, batch_format="pyarrow"),
        by,
        _reduce,
        sort_by=["_ticket", id_col],
        num_partitions=num_partitions,
    )
