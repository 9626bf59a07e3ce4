"""Training-corpus preparation operators.

Beyond the reference's telemetry-shaped operator set (SURVEY.md §2) and the
round-1/2 dedup / similarity / text-analysis stages, these are the remaining
operations a 100 TB LLM training-data pipeline runs before tokenization:

- deterministic train/val/test **hash split** (embarrassingly parallel,
  reproducible across runs and cluster sizes),
- **vocabulary build** (word-count top-k with in-batch combining before the
  small keyed combine — the canonical partial-aggregation pattern),
- **pattern redaction** (PII-style regex scrub, RE2 both here and in the
  DuckDB oracles),
- exact **length quantiles** via bounded per-value histogram merge (no
  global sort),
- **decontamination**: flag corpus documents sharing word-``k``-gram
  shingles with a benchmark/eval set (benchmark shingle set broadcast via
  ``ray.put``; corpus side fully vectorized),
- Gopher-style **repetition score** (top n-gram fraction per document).

All kernels are flat-array numpy/Arrow over ``map_batches`` batches — no
per-row Python in any hot path.  Scale assumptions are documented per
operator.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..functions.hashing import shingle_hashes
from .grouping import (
    combine_by_key,
    group_apply,
    run_boundaries,
    segment_ids_from_boundaries,
    segmented_broadcast_first,
    segmented_cumcount,
    top_k,
)

# Knuth multiplicative hash constant; the split hash is
# (id * K mod 2^64) mod 2^32 — for ids < 2^32 this equals the exact integer
# product mod 2^32, which is what the SQL oracle (HUGEINT arithmetic)
# computes.  For 64-bit ids the uint64 wraparound keeps the split
# deterministic and uniform; only the SQL mirror assumes ids < 2^32.
_SPLIT_K = np.uint64(2654435761)
_MOD32 = np.uint64(1) << np.uint64(32)


def hash_split_batch(
    batch: pa.Table,
    *,
    id_col: str = "doc_id",
    train_pct: int = 90,
    val_pct: int = 5,
) -> pa.Table:
    """Assign each row a deterministic split label from a multiplicative
    hash of its id: bucket = ((id * K) mod 2^32) mod 100, train/val/test by
    percentile.  Pure per-row function of the id — the same document lands
    in the same split on any cluster size, any run, any shard layout."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
    bucket = ((ids * _SPLIT_K) % _MOD32 % np.uint64(100)).astype(np.int64)
    split = np.where(
        bucket < train_pct,
        "train",
        np.where(bucket < train_pct + val_pct, "val", "test"),
    )
    return pa.table(
        {
            id_col: batch[id_col],
            "bucket": pa.array(bucket, pa.int64()),
            "split": pa.array(split, pa.string()),
        }
    )


def hash_split(ds: Dataset, **kw) -> Dataset:
    return ds.map_batches(
        lambda b: hash_split_batch(b, **kw), batch_format="pyarrow"
    )


def vocab_top_k(ds: Dataset, *, text_col: str = "text", k: int = 100) -> Dataset:
    """Corpus vocabulary: the ``k`` most frequent whitespace tokens.

    Scale shape: each batch collapses to its distinct (word, count) pairs
    BEFORE the exchange (``value_counts`` in-batch combiner), so the
    word-keyed combine carries per-block vocabulary size — bounded by the
    language's vocabulary, not the corpus — and the final top-k runs over
    the global vocabulary only.  Ties break by word ascending so the top-k
    cut is deterministic."""

    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vc = toks.flatten().value_counts()
        return pa.table(
            {
                "word": vc.field("values"),
                "cnt": vc.field("counts").cast(pa.int64()),
            }
        )

    agg = combine_by_key(
        ds.map_batches(_partial, batch_format="pyarrow"), "word", [("cnt", "sum")]
    )
    return top_k(agg, [("cnt", "descending"), ("word", "ascending")], k)


def redact_batch(
    batch: pa.Table,
    *,
    text_col: str = "text",
    patterns: Sequence[Tuple[str, str]] = ((r"[0-9]+", "<NUM>"),),
    keep: Sequence[str] = (),
) -> pa.Table:
    """Apply ordered (regex → replacement) scrubs to a text column; emit the
    redacted text plus the total match count.  Patterns are RE2 (Arrow's
    regex engine) — the same engine DuckDB uses, so oracles mirror exactly.
    Counts are evaluated on the text as each pattern sees it (i.e. after the
    preceding replacements), matching nested ``regexp_replace`` SQL."""
    text = batch[text_col]
    n_red = pa.nulls(len(batch), pa.int64())
    n_red = pc.fill_null(n_red, 0)
    for pat, repl in patterns:
        n_red = pc.add(n_red, pc.cast(pc.count_substring_regex(text, pat), pa.int64()))
        text = pc.replace_substring_regex(text, pat, repl)
    cols = {c: batch[c] for c in keep}
    cols["text_redacted"] = text
    cols["n_redactions"] = n_red
    return pa.table(cols)


def redact(ds: Dataset, **kw) -> Dataset:
    return ds.map_batches(lambda b: redact_batch(b, **kw), batch_format="pyarrow")


def length_quantiles(
    ds: Dataset,
    *,
    col: str = "n_chars",
    pcts: Sequence[int] = (10, 20, 30, 40, 50, 60, 70, 80, 90),
) -> pa.Table:
    """Exact quantiles of an integer column without a global sort: per-block
    ``value_counts`` → ``combine_by_key(value, sum)`` → driver-side cumulative walk
    over the merged histogram.  Driver state is bounded by the number of
    DISTINCT values (document lengths), not rows — fine for any length-like
    column; for genuinely unbounded domains bin first.

    Quantile definition (mirrored in integer math by the SQL oracle): the
    p-th percentile is the smallest value whose cumulative count reaches
    ``ceil(p*N/100)`` = ``(p*N + 99) // 100``."""

    def _hist(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.drop_null()  # SQL percentile semantics: nulls don't rank
        vc = arr.value_counts()
        return pa.table(
            {
                "value": vc.field("values").cast(pa.int64()),
                "cnt": vc.field("counts").cast(pa.int64()),
            }
        )

    hist = combine_by_key(
        ds.map_batches(_hist, batch_format="pyarrow"), "value", [("cnt", "sum")]
    ).take_all()  # bounded: one row per distinct value
    vals = np.array([r["value"] for r in hist], dtype=np.int64)
    cnts = np.array([r["cnt"] for r in hist], dtype=np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if len(cum) else 0
    out_p: List[int] = []
    out_v: List[int] = []
    for p in pcts:
        target = (p * n + 99) // 100
        idx = int(np.searchsorted(cum, target, side="left"))
        if idx < len(vals):
            out_p.append(int(p))
            out_v.append(int(vals[idx]))
    return pa.table(
        {"pct": pa.array(out_p, pa.int64()), "value": pa.array(out_v, pa.int64())}
    )


def _distinct_per_segment(
    sh: np.ndarray, soff: np.ndarray, hit: np.ndarray | None = None
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Per-document distinct-shingle counts (and, optionally, distinct
    counts restricted to a boolean ``hit`` mask), fully vectorized: sort
    within segments, count first-occurrences with ``add.reduceat``."""
    n = len(soff) - 1
    seg = np.repeat(np.arange(n, dtype=np.int64), np.diff(soff))
    order = np.lexsort((sh, seg))
    s_sh, s_seg = sh[order], seg[order]
    new = np.ones(len(s_sh), dtype=bool)
    if len(s_sh) > 1:
        new[1:] = (s_sh[1:] != s_sh[:-1]) | (s_seg[1:] != s_seg[:-1])
    starts = np.searchsorted(s_seg, np.arange(n, dtype=np.int64))
    # every doc has >= 1 shingle (hashing.py fallback) so segments are
    # non-empty and reduceat boundaries are strictly valid
    n_distinct = np.add.reduceat(new.astype(np.int64), starts)
    if hit is None:
        return n_distinct, None
    s_hit = hit[order]
    n_hit = np.add.reduceat((new & s_hit).astype(np.int64), starts)
    return n_distinct, n_hit


def decontaminate(
    ds: Dataset,
    benchmark: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 3,
    keep_cols: Optional[Sequence[str]] = None,
) -> Dataset:
    """Benchmark decontamination: for every corpus document, count its
    distinct word-``k``-gram shingles and how many also occur in the
    benchmark/eval set; emit ``overlap_x1000`` for thresholding.
    ``keep_cols`` pass through unchanged (for chaining).

    Scale shape: the benchmark side is small by definition (an eval set) —
    its distinct shingle-hash set is reduced per-block, unioned once on the
    driver and **broadcast via ``ray.put``**; every corpus task then does a
    vectorized ``np.isin`` against the shared sorted array.  The corpus side
    streams — no join, no shuffle.  Shingle identity is the 64-bit rolling
    hash (``functions/hashing.py``): set intersections over hashes equal
    intersections over the n-gram strings themselves up to 2^-64 collision
    odds, which is what lets the DuckDB oracle mirror this with string
    n-grams (same construction as the ``doc_near_dup_verified`` oracle)."""

    def _bench_part(batch: pa.Table) -> pa.Table:
        sh, _ = shingle_hashes(batch[text_col], shingle_k)
        return pa.table({"h": pa.array(np.unique(sh), pa.uint64())})

    parts = benchmark.map_batches(_bench_part, batch_format="pyarrow").take_all()
    bench_arr = np.unique(np.array([r["h"] for r in parts], dtype=np.uint64))
    ref = ray.put(bench_arr)

    def _check(batch: pa.Table) -> pa.Table:
        bench = ray.get(ref)  # local object store — zero-copy after first task
        sh, soff = shingle_hashes(batch[text_col], shingle_k)
        hit = np.isin(sh, bench)
        n_sh, n_ov = _distinct_per_segment(sh, soff, hit)
        cols = {
            id_col: batch[id_col],
            "n_shingles": pa.array(n_sh, pa.int64()),
            "n_overlap": pa.array(n_ov, pa.int64()),
            "overlap_x1000": pa.array(
                n_ov * 1000 // np.maximum(n_sh, 1), pa.int64()
            ),
        }
        for c in keep_cols or ():
            cols[c] = batch[c]
        return pa.table(cols)

    return ds.map_batches(_check, batch_format="pyarrow")


# decorrelated multiplicative constants (xxhash primes) so split / sample /
# shuffle decisions over the same ids are independent of each other
_SAMPLE_K = np.uint64(2246822519)
_SHUFFLE_K = np.uint64(3266489917)


def stratified_sample(
    ds: Dataset,
    fracs_x1000: dict,
    *,
    id_col: str = "doc_id",
    strata_col: str = "lang",
) -> Dataset:
    """Deterministic per-stratum sampling: keep a row iff
    ``((id * K) mod 2^32) mod 1000 < fracs_x1000[stratum]`` — e.g. rebalance
    a multilingual corpus by keeping 100‰ of English but 1000‰ of a
    low-resource language.  Pure per-row function of (id, stratum): the
    sample is reproducible across runs, cluster sizes and shard layouts,
    and composes with :func:`hash_split` (decorrelated hash constants).
    Strata absent from ``fracs_x1000`` are dropped (permille 0)."""

    def _sample(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ticket = ((ids * _SAMPLE_K) % _MOD32 % np.uint64(1000)).astype(np.int64)
        # dictionary codes, not np.unique (None can't be numpy-sorted);
        # a null stratum is just another absent key → permille 0
        enc = batch[strata_col].combine_chunks().dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        idx_arr = enc.indices
        if idx_arr.null_count:
            idx_arr = pc.fill_null(idx_arr, len(uniq))
            uniq = uniq + [None]
        inv = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        limits = np.array(
            [int(fracs_x1000.get(s, 0)) for s in uniq], dtype=np.int64
        )
        return batch.filter(pa.array(ticket < limits[inv]))

    return ds.map_batches(_sample, batch_format="pyarrow")


def _sortable_codes(col) -> np.ndarray:
    """Column → int64 codes that sort exactly like the values, nulls LAST —
    numpy can't order object arrays mixing None with str, so every numpy
    sort over a possibly-null key goes through this."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    enc = arr.dictionary_encode()
    d = enc.dictionary
    ranks = np.empty(len(d), dtype=np.int64)
    ranks[pc.array_sort_indices(d).to_numpy(zero_copy_only=False)] = np.arange(
        len(d), dtype=np.int64
    )
    idx = enc.indices
    if idx.null_count:
        codes = idx.to_numpy(zero_copy_only=False)
        out = np.full(len(codes), len(d), dtype=np.int64)
        m = ~np.isnan(codes)
        out[m] = ranks[codes[m].astype(np.int64)]
        return out
    return ranks[idx.to_numpy(zero_copy_only=False).astype(np.int64)]


def top_k_per_group(
    ds: Dataset,
    *,
    group_col: str,
    order_col: str,
    id_col: str = "doc_id",
    k: int = 3,
    num_partitions: int = 16,
) -> Dataset:
    """Top-``k`` rows per group by ``order_col`` descending (ties broken by
    ``id_col`` ascending) — e.g. the k longest documents per source.

    Rides the same hash exchange as the flagship (``group_apply``): each
    partition holds complete groups, and the per-partition kernel is one
    ``lexsort`` + segmented rank — per-group state never materializes
    beyond the partition.  Adds a ``rank`` column (0-based)."""

    def _topk(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part.append_column("rank", pa.array([], pa.int64()))
        # value-ordered dictionary codes, not np.unique: object arrays
        # mixing None and str can't be sorted by numpy — nulls get the
        # last code (SQL NULLS LAST)
        gcodes = _sortable_codes(part[group_col])
        v = part[order_col].to_numpy(zero_copy_only=False)
        i = part[id_col].to_numpy(zero_copy_only=False)
        if i.dtype == object:  # nullable string tiebreaker
            i = _sortable_codes(part[id_col])
        order = np.lexsort((i, -v, gcodes))
        seg = segment_ids_from_boundaries(run_boundaries(gcodes[order]))
        rank = segmented_cumcount(seg)
        keep = order[rank < k]
        out = part.take(pa.array(keep))
        return out.append_column("rank", pa.array(rank[rank < k], pa.int64()))

    return group_apply(ds, group_col, _topk, num_partitions=num_partitions)


def shuffle_shards(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    n_shards: int = 8,
    num_partitions: int = 16,
) -> Dataset:
    """Deterministic global training shuffle: order every row by a
    multiplicative hash of its id and cut the ordering into ``n_shards``
    contiguous shards — the "shuffled shards" layout training loaders
    consume, with zero random state (re-running or resharding reproduces
    byte-identical shards).

    Scale shape: shard assignment is per-row arithmetic; the within-shard
    position needs one hash exchange keyed by shard (complete shards per
    partition) + a segmented sort — the same single-shuffle pattern as the
    flagship, no driver materialization.  Emits (id, shard, pos)."""

    def _key(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = ((ids * _SHUFFLE_K) % _MOD32).astype(np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "shard": pa.array(h % n_shards, pa.int64()),
                "pos_key": pa.array(h, pa.int64()),
            }
        )

    keyed = ds.map_batches(_key, batch_format="pyarrow")

    def _rank(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "shard": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                }
            )
        shard = part["shard"].to_numpy(zero_copy_only=False)
        pkey = part["pos_key"].to_numpy(zero_copy_only=False)
        ids = part[id_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, pkey, shard))
        seg = segment_ids_from_boundaries(run_boundaries(shard[order]))
        pos = segmented_cumcount(seg)
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        return pa.table(
            {
                id_col: part[id_col],
                "shard": part["shard"],
                "pos": pa.array(pos[inv], pa.int64()),
            }
        )

    return group_apply(keyed, "shard", _rank, num_partitions=num_partitions)


def repetition_scores(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    gram_k: int = 2,
) -> Dataset:
    """Gopher-style repetition signal: the fraction of a document's word
    ``k``-grams taken by its single most frequent ``k``-gram
    (``top_gram_count * 1000 // n_grams``).  Boilerplate and degenerate
    generations score high.  Per-batch flat-array kernel: sort shingles
    within documents, run-length the equal runs, per-document max via
    ``maximum.reduceat`` — no per-row Python."""

    def _rep(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sh, soff = shingle_hashes(batch[text_col], gram_k)
        seg = np.repeat(np.arange(n, dtype=np.int64), np.diff(soff))
        order = np.lexsort((sh, seg))
        s_sh, s_seg = sh[order], seg[order]
        new = np.ones(len(s_sh), dtype=bool)
        if len(s_sh) > 1:
            new[1:] = (s_sh[1:] != s_sh[:-1]) | (s_seg[1:] != s_seg[:-1])
        run_starts = np.flatnonzero(new)
        run_lens = np.diff(np.append(run_starts, len(s_sh)))
        seg_of_run = s_seg[run_starts]
        first_run = np.searchsorted(seg_of_run, np.arange(n, dtype=np.int64))
        top = np.maximum.reduceat(run_lens, first_run)
        n_grams = np.diff(soff)
        return pa.table(
            {
                id_col: batch[id_col],
                "n_grams": pa.array(n_grams, pa.int64()),
                "top_gram_count": pa.array(top, pa.int64()),
                "rep_x1000": pa.array(
                    top * 1000 // np.maximum(n_grams, 1), pa.int64()
                ),
            }
        )

    return ds.map_batches(_rep, batch_format="pyarrow")


def common_word_df(
    ds: Dataset, *, text_col: str = "text", permille: int = 500
) -> "pa.Array":
    """Pass 1 of CCNet-style common-word removal: words present in at least
    ``permille``/1000 of documents.  Per batch, each doc contributes each of
    its DISTINCT words once (docs are single rows, so in-batch distinct
    (doc, word) pairs are globally distinct); the combine then carries
    vocabulary-sized blocks, never corpus-sized.  The result set is small by
    Zipf — only words above a sizable document-frequency share — hence safe
    to collect and broadcast."""

    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_codes = len(enc.dictionary)
        doc = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(off))
        upair = np.unique(doc * np.int64(max(n_codes, 1)) + codes)
        ucode = (upair % np.int64(max(n_codes, 1))).astype(np.int64)
        cnt = np.bincount(ucode, minlength=n_codes).astype(np.int64)
        return pa.table({"word": enc.dictionary, "df": pa.array(cnt)})

    n_docs = ds.count()
    agg = combine_by_key(
        ds.map_batches(_partial, batch_format="pyarrow"), "word", [("df", "sum")]
    )
    hot = agg.map_batches(
        lambda t: t.filter(
            pc.greater_equal(
                pc.multiply(t["df"].cast(pa.int64()), pa.scalar(1000)),
                pa.scalar(int(n_docs) * permille),
            )
        ).select(["word"]),
        batch_format="pyarrow",
    )
    out = hot.take_all()
    return pa.array(sorted(r["word"] for r in out), pa.string())


def remove_common_words(
    ds: Dataset, *, text_col: str = "text", id_col: str = "doc_id",
    permille: int = 500,
) -> Dataset:
    """CCNet-style boilerplate filter: drop every word whose document
    frequency is ≥ ``permille``/1000 of the corpus, preserving the order of
    the remaining words.  Two passes: a vocabulary-sized df aggregate whose
    above-threshold slice (Zipf-small) is broadcast via ``ray.put``, then a
    fully vectorized per-batch rewrite (split → membership mask on
    dictionary codes → kept-word ListArray → ``binary_join``) — no Python
    loop, no corpus-sized driver state.

    Emits (id_col, text_filtered, n_removed:int64)."""
    common = common_word_df(ds, text_col=text_col, permille=permille)
    common_ref = ray.put(common)

    def _rewrite(batch: pa.Table) -> pa.Table:
        hot = ray.get(common_ref)
        # null text rewrites as "" (a null list entry would desync offsets)
        toks = pc.split_pattern(pc.fill_null(batch[text_col], ""), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        enc = flat.dictionary_encode()
        # membership decided once per DISTINCT word, fanned out via codes
        uniq_hot = pc.is_in(enc.dictionary, value_set=hot).to_numpy(
            zero_copy_only=False
        )
        keep = ~uniq_hot[enc.indices.to_numpy(zero_copy_only=False)]
        off = np.asarray(toks.offsets)
        kept_per_doc = (
            np.add.reduceat(keep.astype(np.int64), off[:-1])
            if len(flat)
            else np.zeros(0, dtype=np.int64)
        )
        kept_per_doc[np.diff(off) == 0] = 0  # reduceat artifact on empty docs
        new_off = np.concatenate(([0], np.cumsum(kept_per_doc)))
        kept_list = pa.ListArray.from_arrays(
            pa.array(new_off, pa.int32()), flat.filter(pa.array(keep))
        )
        text_filtered = pc.binary_join(kept_list, " ")
        return pa.table(
            {
                id_col: batch[id_col],
                "text_filtered": text_filtered,
                "n_removed": pa.array(
                    np.diff(off) - kept_per_doc, pa.int64()
                ),
            }
        )

    return ds.map_batches(_rewrite, batch_format="pyarrow")


def pack_sequences(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    seq_len: int = 2048,
    bucket_width: int = 1 << 20,
    num_partitions: int = 16,
) -> Dataset:
    """GPT-style concat-and-chunk sequence packing: documents are laid out
    in ``id_col`` order into one virtual token stream and cut into fixed
    ``seq_len`` chunks.  Emits per doc its global ``token_offset`` and the
    ``chunk_first``/``chunk_last`` window it lands in — exactly what a
    training loader needs to materialize any chunk range independently.

    The global ordered prefix sum is computed WITHOUT a global sort:

    1. one pass computes per-range-bucket token sums (``id // bucket_width``;
       bucket count = id-space/2²⁰ — driver state is bucket-sized, never
       corpus-sized), prefix-summed on the driver and broadcast via
       ``ray.put``;
    2. one hash exchange keyed by bucket colocates each bucket, where a
       segmented cumsum + the bucket's broadcast base yields exact global
       offsets.

    Token count = whitespace-split length (empty text counts 1, matching
    ``string_split`` in SQL mirrors)."""

    def _count(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern(pc.fill_null(batch[text_col], ""), " ")
        ).cast(pa.int64())
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: batch[id_col],
                "bucket": pa.array(ids // bucket_width, pa.int64()),
                "n_tokens": n,
            }
        )

    counted = ds.map_batches(_count, batch_format="pyarrow")

    # bucket-sized aggregate: sum of tokens per id-range bucket
    sums = {
        r["bucket"]: r["n_tokens"]
        for r in combine_by_key(
            counted, "bucket", [("n_tokens", "sum")]
        ).take_all()
    }
    base = {}
    acc = 0
    for b in sorted(sums):
        base[b] = acc
        acc += sums[b]
    base_ref = ray.put(base)

    def _offsets(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "token_offset": pa.array([], pa.int64()),
                    "chunk_first": pa.array([], pa.int64()),
                    "chunk_last": pa.array([], pa.int64()),
                }
            )
        bases = ray.get(base_ref)
        bkt = part["bucket"].to_numpy(zero_copy_only=False)
        n = part["n_tokens"].to_numpy(zero_copy_only=False)
        # part arrives sorted by (bucket, id) from group_apply; exclusive
        # cumsum per bucket segment + that bucket's global base
        bounds = run_boundaries(bkt)
        excl = np.concatenate(([0], np.cumsum(n)[:-1]))
        seg_start = segmented_broadcast_first(excl, bounds)
        seg_base = np.array([bases[b] for b in bkt[bounds[:-1]]], dtype=np.int64)
        seg = segment_ids_from_boundaries(bounds)
        off = excl - seg_start + seg_base[seg]
        return pa.table(
            {
                id_col: part[id_col],
                "n_tokens": part["n_tokens"],
                "token_offset": pa.array(off, pa.int64()),
                "chunk_first": pa.array(off // seq_len, pa.int64()),
                "chunk_last": pa.array((off + n - 1) // seq_len, pa.int64()),
            }
        )

    return group_apply(
        counted,
        "bucket",
        _offsets,
        sort_by=[id_col],
        num_partitions=num_partitions,
    )


def chunk_documents(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    chunk_tokens: int = 64,
) -> Dataset:
    """RAG/tokenizer-style chunking: split each document into fixed
    ``chunk_tokens``-token windows, one output row per chunk
    (id, chunk_idx, chunk_text, n_tokens).  The last chunk keeps the
    remainder; empty text yields one chunk of the single empty token
    (``string_split`` parity with SQL mirrors).

    Embarrassingly parallel flat-map: chunks tile each document's token
    span contiguously — and documents tile the batch — so ALL chunks of a
    batch are one ``ListArray`` over the flat token child with computed
    offsets; ``binary_join`` re-joins text.  No per-row Python, no
    shuffle; output block size grows by ~1 row per ``chunk_tokens`` input
    tokens (Ray's streaming executor re-blocks as needed)."""
    w = int(chunk_tokens)

    def _chunk(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets, dtype=np.int64)
        n = np.diff(off)
        n_chunks = np.maximum((n + w - 1) // w, 1)
        total = int(n_chunks.sum())
        # intra-doc chunk index for every output row
        firsts = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        intra = np.arange(total, dtype=np.int64) - np.repeat(firsts, n_chunks)
        starts = np.repeat(off[:-1], n_chunks) + intra * w
        offsets = np.concatenate((starts, [off[-1]]))
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), flat
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, n_chunks)),
                "chunk_idx": pa.array(intra, pa.int64()),
                "chunk_text": pc.binary_join(lists, " "),
                "n_tokens": pa.array(np.diff(offsets), pa.int64()),
            }
        )

    return ds.map_batches(_chunk, batch_format="pyarrow")


def ngram_counts(
    ds: Dataset, *, text_col: str = "text", n: int = 2
) -> Dataset:
    """Full corpus n-gram count table (``ngram, cnt``): in-batch
    ``value_counts`` combiner, one keyed-combine exchange bounded by per-block
    n-gram vocabulary.  The n-gram build is vectorized: flat token array +
    offsets, adjacency mask that excludes cross-document pairs, one
    ``binary_join_element_wise`` — no Python loop."""
    if n < 2:
        raise ValueError("use vocab_top_k for unigrams")

    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets)
        total = len(flat)
        if total < n:
            return pa.table(
                {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        # positions whose full n-window stays inside one document: start j is
        # valid iff j + n <= end-of-its-doc
        doc_end = np.repeat(off[1:], np.diff(off))  # per-token doc end
        starts = np.flatnonzero(doc_end[: total - (n - 1)] >= np.arange(total - (n - 1)) + n)
        if len(starts) == 0:
            return pa.table(
                {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        parts = [flat.take(pa.array(starts + i)) for i in range(n)]
        grams = pc.binary_join_element_wise(*parts, " ")
        vc = grams.value_counts()
        return pa.table(
            {
                "ngram": vc.field("values"),
                "cnt": vc.field("counts").cast(pa.int64()),
            }
        )

    return combine_by_key(
        ds.map_batches(_partial, batch_format="pyarrow"), "ngram", [("cnt", "sum")]
    )


def ngram_top_k(
    ds: Dataset, *, text_col: str = "text", n: int = 2, k: int = 100
) -> Dataset:
    """Corpus top-k word n-grams (language-model count tables): the full
    :func:`ngram_counts` table cut to ``k`` by one :func:`top_k` over the
    global n-gram vocabulary only.  Ties break by n-gram ascending
    (deterministic cut)."""
    agg = ngram_counts(ds, text_col=text_col, n=n)
    return top_k(agg, [("cnt", "descending"), ("ngram", "ascending")], k)


def quota_sample(
    ds: Dataset,
    *,
    group_col: str,
    quotas: dict,
    id_col: str = "doc_id",
    num_partitions: int = 16,
) -> Dataset:
    """Exact per-group quota sampling — the data-mixing primitive: keep AT
    MOST ``quotas[group]`` rows per group, chosen by a deterministic hash
    ticket (``(id * K) mod 2^32``, ties by id).  Unlike
    :func:`stratified_sample` (a per-row keep-probability, output size
    binomial) this enforces hard per-source row budgets, the way training
    mixes specify "X documents of web, Y of code".

    One hash exchange on ``group_col`` (complete groups per partition); the
    per-partition kernel is a lexsort + segmented rank against the
    per-group limit — reproducible across runs, cluster sizes and shard
    layouts.  Groups absent from ``quotas`` are dropped.  SQL mirror:
    ``row_number() OVER (PARTITION BY g ORDER BY (id*K) % 2^32, id)
    <= quota[g]`` (HUGEINT product — exact for ids < 2^32, like
    hash_split)."""

    def _take(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        ids = part[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        ticket = ((ids * _SAMPLE_K) % _MOD32).astype(np.int64)
        # dictionary codes (None can't be numpy-sorted); a null group is
        # just another key absent from quotas → budget 0
        enc = part[group_col].combine_chunks().dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        idx_arr = enc.indices
        if idx_arr.null_count:
            idx_arr = pc.fill_null(idx_arr, len(uniq))
            uniq = uniq + [None]
        inv = idx_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids.astype(np.int64), ticket, inv))
        seg = segment_ids_from_boundaries(run_boundaries(inv[order]))
        rank = segmented_cumcount(seg)
        limits = np.array(
            [int(quotas.get(u, 0)) for u in uniq], dtype=np.int64
        )
        keep = order[rank < limits[inv[order]]]
        return part.take(pa.array(np.sort(keep)))

    return group_apply(ds, group_col, _take, num_partitions=num_partitions)


def segment_dedup(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    seg_words: int = 10,
    num_partitions: int = 16,
) -> Dataset:
    """Corpus-wide duplicated-segment removal (the CCNet/C4 line-dedup
    analog for unstructured text): split every document into fixed
    ``seg_words``-word segments, keep each distinct segment's FIRST
    occurrence corpus-wide (min ``(doc_id, seg_idx)``), and reassemble
    documents from their surviving segments.

    Output: ``(doc_id, text, n_segs_kept, n_segs_total)`` — documents whose
    every segment was seen earlier elsewhere vanish entirely (same
    semantics as the SQL mirror's GROUP BY over kept rows).

    Fully vectorized explode: one ``split_pattern`` per batch, segment
    strings built with ``ListArray.from_arrays`` over recomputed offsets +
    ``binary_join`` (no per-segment Python).  Two hash exchanges: (1) by
    64-bit segment-content hash — keep-first is one ``run_boundaries``
    take; (2) by ``doc_id`` — reassembly is again offsets + binary_join.
    Segment text crosses exchange 1 once (the unavoidable dedup payload)
    and only survivors cross exchange 2.  Exact up to 64-bit content-hash
    collisions (same contract as exact_dedup)."""
    import pandas as pd

    def _explode(batch: pa.Table) -> pa.Table:
        col = pc.fill_null(batch[text_col], "")  # null text segments as ""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        la = pc.split_pattern(col, " ")
        counts = pc.list_value_length(la).to_numpy().astype(np.int64)
        flat = la.flatten()
        n_segs = -(-counts // seg_words)
        doc_word0 = np.concatenate(([0], np.cumsum(counts)))
        within = (
            np.arange(int(n_segs.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(n_segs)))[:-1], n_segs)
        )
        starts = np.repeat(doc_word0[:-1], n_segs) + within * seg_words
        seg_offsets = np.append(starts, doc_word0[-1]).astype(np.int32)
        segs = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(seg_offsets), flat),
            " ",
        )
        h = pd.util.hash_array(
            np.asarray(segs.to_pandas(), dtype=object), categorize=False
        )
        return pa.table(
            {
                "_h": pa.array(h.astype(np.int64)),
                id_col: pc.take(
                    batch[id_col],
                    pa.array(np.repeat(np.arange(len(counts)), n_segs)),
                ),
                "_seg_idx": pa.array(within),
                "_seg": segs,
                "_n_total": pa.array(np.repeat(n_segs, n_segs)),
            }
        )

    def _keep_first(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part.drop_columns(["_h"])
        firsts = run_boundaries(part["_h"].to_numpy(zero_copy_only=False))[:-1]
        return part.take(pa.array(firsts)).drop_columns(["_h"])

    kept = group_apply(
        ds.select_columns([id_col, text_col]).map_batches(
            _explode, batch_format="pyarrow"
        ),
        "_h",
        _keep_first,
        sort_by=[id_col, "_seg_idx"],
        num_partitions=num_partitions,
    )

    def _reassemble(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    id_col: part[id_col],
                    text_col: pa.array([], pa.string()),
                    "n_segs_kept": pa.array([], pa.int64()),
                    "n_segs_total": pa.array([], pa.int64()),
                }
            )
        bounds = run_boundaries(part[id_col].to_numpy(zero_copy_only=False))
        segs = part["_seg"]
        if isinstance(segs, pa.ChunkedArray):
            segs = segs.combine_chunks()
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(bounds.astype(np.int32)), segs),
            " ",
        )
        return pa.table(
            {
                id_col: part[id_col].take(pa.array(bounds[:-1])),
                text_col: joined,
                "n_segs_kept": pa.array(np.diff(bounds)),
                "n_segs_total": part["_n_total"].take(pa.array(bounds[:-1])),
            }
        )

    return group_apply(
        kept,
        id_col,
        _reassemble,
        sort_by=["_seg_idx"],
        num_partitions=num_partitions,
    )


def weighted_sample(
    ds: Dataset,
    *,
    weight_col: str,
    id_col: str = "doc_id",
    k: int = 100,
    pri_scale: int = 1_000_000,
) -> Dataset:
    """Deterministic weighted sampling without replacement (integer
    Efraimidis–Spirakis analog): per-row priority
    ``((id * K) mod 2^32) * pri_scale // weight`` — heavier rows draw
    smaller priorities in expectation — keep the global ``k`` smallest
    (ties by id).  Pure integer arithmetic: reproducible across runs,
    cluster sizes and shard layouts, and bit-exact against a SQL
    ``row_number() ... LIMIT k`` mirror.

    Scale shape: :func:`top_k` keeps each block's local top-k, so the
    driver sorts ``k × num_blocks`` rows, not the corpus.  Weights are
    non-negative int64 (raises loudly otherwise); a zero-weight row has no
    priority (SQL's ``x // 0`` is NULL, sorted last), so it ranks after
    every positive-weight row, ties by id."""

    def _local(batch: pa.Table) -> pa.Table:
        if batch[weight_col].null_count:  # no weight → no draw priority
            batch = batch.filter(pc.is_valid(batch[weight_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(w) and w.min() < 0:
            raise ValueError("weighted_sample: weights must not be negative")
        ticket = ((ids * _SAMPLE_K) % _MOD32).astype(np.int64)
        # ticket < 2^32, so with pri_scale < 2^31 every positive-weight
        # priority stays below int64 max, the zero-weight rank
        pri = np.full(len(w), np.iinfo(np.int64).max)
        pos = w > 0
        pri[pos] = ticket[pos] * pri_scale // w[pos]
        return batch.append_column("_pri", pa.array(pri))

    # tie-break by id in every block too: a cut on pri alone could drop a
    # (pri-tied, smaller-id) row the global ORDER BY (pri, id) LIMIT k keeps
    out = top_k(
        ds.map_batches(_local, batch_format="pyarrow"),
        [("_pri", "ascending"), (id_col, "ascending")],
        k,
    )
    return out.map_batches(
        lambda t: t.drop_columns(["_pri"]), batch_format="pyarrow"
    )


def length_buckets(
    ds: Dataset,
    *,
    col: str = "n_chars",
    id_col: str = "doc_id",
    pcts: Sequence[int] = (25, 50, 75),
    bucket_col: str = "bucket",
) -> Dataset:
    """Curriculum / data-mixing bucketing: assign every document the index
    of its global length quantile band — ``bucket = Σ_p (value > q_p)``
    over the exact ceil-rank quantiles of :func:`length_quantiles` (so
    quartile ``pcts`` yield buckets 0-3).  Downstream, mixing weights or
    curriculum order key off the bucket instead of re-sorting the corpus.

    Scale shape: the quantile pass is the distinct-value-bounded histogram
    walk; the thresholds (len(pcts) ints) broadcast in the task closure; the
    assignment is one vectorized ``searchsorted`` pass, zero shuffles.
    """
    q = length_quantiles(ds, col=col, pcts=pcts)
    thresholds = np.asarray(q["value"].to_numpy(zero_copy_only=False), np.int64)

    def _assign(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.int64)
        # number of thresholds strictly below v (ties belong to the lower
        # band: v == q_p does not clear the q_p fence)
        bucket = np.searchsorted(thresholds, v, side="left").astype(np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                col: batch[col],
                bucket_col: pa.array(bucket),
            }
        )

    return ds.select_columns([id_col, col]).map_batches(
        _assign, batch_format="pyarrow"
    )


def normalize_text(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    out_col: str = "text_norm",
    strip_punct: bool = True,
) -> Dataset:
    """CCNet-style text normalization before dedup/fingerprinting:
    lowercase, optionally strip everything that is not a letter / digit /
    whitespace, collapse whitespace runs to single spaces, trim.  Running
    dedup on normalized text is what makes "Hello,  World!" and
    "hello world" collide — the standard pre-pass for MinHash/exact dedup.

    Pure vectorized RE2 kernels (``utf8_lower`` +
    ``replace_substring_regex``), zero shuffles; DuckDB's regexp functions
    are RE2 as well, so the oracle is character-identical.
    """

    def _norm(batch: pa.Table) -> pa.Table:
        s = pc.utf8_lower(batch[text_col])
        if strip_punct:
            s = pc.replace_substring_regex(s, r"[^\p{L}\p{N}\s]", "")
        s = pc.utf8_trim_whitespace(pc.replace_substring_regex(s, r"\s+", " "))
        return pa.table({id_col: batch[id_col], out_col: s})

    return ds.select_columns([id_col, text_col]).map_batches(
        _norm, batch_format="pyarrow"
    )
