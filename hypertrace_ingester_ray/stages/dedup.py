"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup, AllPairs, substring overlap and winnowing.

Scale design notes (100 TB):
- exact dedup never shuffles full text: a 64-bit content hash is computed in
  ``map_batches``, the shuffle moves (hash, doc_id) plus whatever columns the
  caller keeps, and per-group keep-first runs vectorized via group_apply.
- every near-duplicate family runs on one candidate-pair kernel,
  :func:`_blocked_pairs`, and differs only in its blocking key, its pair
  filter and its oversized-bucket policy:

  1. **blocking** — one exchange on the key; each bucket arrives sorted by
     id, and rows with a null key form no bucket;
  2. **purging** — a bucket above the family's cap either raises (the exact
     families: AllPairs, shared-key) or keeps only the O(m) star edges to
     its min-id member (MinHash, SimHash, embedding LSH);
  3. **filtering** — id-ordered pairs ``a < b`` (never one id with itself)
     that pass the family's predicate, which also yields its score;
  4. **combine** — one exchange on ``(a, b)``: keep-first where a pair can
     surface from several buckets, a shared-key count, or none when the
     blocking is a partition (label-blocked cosine).

  MinHash signatures and SimHash fingerprints are computed per batch
  (numpy, vectorized over shingle hashes); their LSH bands are the blocking
  keys, so only docs sharing a band bucket ever meet.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..functions.hashing import popcount64, shingle_hashes
from .grouping import _arrow_block, combine_by_key, group_apply, run_boundaries
from .similarity import _to_matrix, _valid_vec_rows

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _content_hash(batch: pa.Table, col: str) -> pa.Table:
    import pandas as pd

    h = pd.util.hash_array(
        np.asarray(batch[col].to_pandas(), dtype=object), categorize=False
    ).astype(np.int64)
    return batch.append_column("_chash", pa.array(h))


def exact_dedup(ds: Dataset, col: str = "text", id_col: str = "doc_id", **kw) -> Dataset:
    """One row per distinct ``col`` value: the minimum ``id_col`` plus the
    duplicate count.  Hash-partition + per-group first (keep-min)."""
    ds = ds.map_batches(
        _content_hash, batch_format="pyarrow", fn_kwargs={"col": col}
    )

    def _keep_first(part: pa.Table) -> pa.Table:
        # sorted by (_chash, id_col); one output row per hash run.
        h = part["_chash"].to_numpy(zero_copy_only=False)
        bounds = run_boundaries(h)
        firsts = bounds[:-1]
        counts = np.diff(bounds)
        out = part.take(pa.array(firsts)).drop_columns(["_chash"])
        return out.append_column("n_copies", pa.array(counts.astype(np.int64)))

    return group_apply(ds, "_chash", _keep_first, sort_by=[id_col], **kw)


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _minhash_params(num_perm: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signatures_batch(
    batch: pa.Table,
    *,
    num_perm: int = 64,
    shingle_k: int = 3,
    seed: int = 7,
    scheme: str = "siphash",
) -> pa.Table:
    """doc → MinHash signature (uint64[num_perm] as FixedSizeList<int64>).

    Fully vectorized: one ``shingle_hashes`` pass over the whole batch (flat
    token-hash array + rolling combine), then per-doc column minima via
    ``np.minimum.reduceat``.  Permutations are processed in chunks so peak
    memory is ~(n_shingles x chunk x 8B) regardless of num_perm.
    ``scheme="poly"`` swaps the token hash for the SQL-mirrorable polynomial
    byte fold (DuckDB-oracle-checkable end to end).
    """
    a, b = _minhash_params(num_perm, seed)
    n = batch.num_rows
    sh, soff = shingle_hashes(batch["text"], shingle_k, scheme=scheme)
    sigs = np.empty((n, num_perm), dtype=np.uint64)
    starts = soff[:-1]
    chunk = 8
    for c0 in range(0, num_perm, chunk):
        ac, bc = a[c0 : c0 + chunk], b[c0 : c0 + chunk]
        ph = (sh[:, None] * ac[None, :] + bc[None, :]) % np.uint64(_MERSENNE)
        sigs[:, c0 : c0 + chunk] = np.minimum.reduceat(ph, starts, axis=0)
    flat = pa.array(sigs.reshape(-1).astype(np.int64))
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "sig": pa.FixedSizeListArray.from_arrays(flat, num_perm),
        }
    )


def _band_explode(batch: pa.Table, *, bands: int, rows_per_band: int) -> pa.Table:
    """signature → one row per LSH band: (band_bucket, doc_id, sig)."""
    n = batch.num_rows
    sig = np.asarray(batch["sig"].combine_chunks().flatten().to_numpy(zero_copy_only=False)).reshape(n, -1)
    buckets = np.empty((n, bands), dtype=np.int64)
    for bi in range(bands):
        chunk = sig[:, bi * rows_per_band : (bi + 1) * rows_per_band]
        acc = np.zeros(n, dtype=np.uint64)
        for c in range(chunk.shape[1]):
            acc = acc * np.uint64(1_000_003) + chunk[:, c].astype(np.uint64)
        buckets[:, bi] = (acc % np.uint64(1 << 62)).astype(np.int64) * np.int64(bands) + bi
    doc_rep = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), bands)
    sig_rep = np.repeat(np.arange(n), bands)
    return pa.table(
        {
            "bucket": pa.array(buckets.reshape(-1)),
            "doc_id": pa.array(doc_rep),
            "sig_row": batch["sig"].take(pa.array(sig_rep)),
        }
    )


def _dedup_pair_rows(part: pa.Table, count_col: Optional[str] = None) -> pa.Table:
    """Keep-first per (id_a, id_b) over a partition sorted by those columns,
    plus the run length as ``count_col`` when given.  Works for any id dtype
    — no packed composite key, so 64-bit ids can never collide."""
    a = part.column(0).to_numpy(zero_copy_only=False)
    b = part.column(1).to_numpy(zero_copy_only=False)
    bounds = run_boundaries(a, b)
    out = part.take(pa.array(bounds[:-1]))
    if count_col:
        out = out.append_column(
            count_col, pa.array(np.diff(bounds).astype(np.int64))
        )
    return out


def _blocked_pairs(
    rows: Dataset,
    key: str,
    id_col: str,
    *,
    nonnull: Sequence[str] = (),
    pair_cols: Sequence[str] = ("doc_a", "doc_b"),
    score: Optional[Tuple[str, pa.DataType]] = None,
    bucket_data: Optional[Callable[[pa.Table], np.ndarray]] = None,
    pair_filter: Optional[Callable] = None,
    combine: Optional[str] = "first",
    distinct_ids: bool = False,
    cap: Optional[int] = None,
    cap_error: Optional[str] = None,
    label: str = "blocked-pairs",
    **kw,
) -> Dataset:
    """Pairs of ``id_col`` values sharing a ``key`` bucket: blocking →
    purging → filtering → combine (module docstring).  Rows with a null
    ``key`` or a null in a ``nonnull`` column pair with nothing.

    - ``cap``: a bucket of more than ``cap`` members raises
      ``RuntimeError(cap_error.format(m=m))`` when ``cap_error`` is set;
      otherwise it yields only the star edges from its min id, counted in
      one ``[label]`` line per partition, so nothing is dropped unaccounted.
    - ``pair_filter(x, ia, ib, star) -> (keep, score_values)`` sees the
      bucket's rows ``x`` of ``bucket_data(partition)`` and local pair
      indices ``ia < ib``; with ``star`` the pairs are ``(0, j)`` for every
      other member ``j``.  ``score`` names and types its score column.
    - ``combine``: ``"first"`` keeps one row per pair, ``"count"`` also
      counts its buckets as ``n_shared``, ``None`` skips the exchange.
    - ``distinct_ids``: an id on several rows of one bucket counts once,
      as a ``SELECT DISTINCT id, key`` would.

    Returns ``(*pair_cols, [score])`` with int64 ids, ``a < b``.
    """
    a_col, b_col = pair_cols
    schema = pa.schema(
        [(a_col, pa.int64()), (b_col, pa.int64())] + ([score] if score else [])
    )

    def _expand(part: pa.Table) -> pa.Table:
        for c in (key, *nonnull):  # NULL = NULL is not true: no bucket
            if part[c].null_count:
                part = part.filter(pc.is_valid(part[c]))
        if part.num_rows == 0:
            return schema.empty_table()
        ids = part[id_col].to_numpy(zero_copy_only=False)
        kv = part[key].to_numpy(zero_copy_only=False)
        if distinct_ids:  # sorted by (key, id): keep each run's first row
            first = run_boundaries(kv, ids)[:-1]
            part, ids, kv = part.take(pa.array(first)), ids[first], kv[first]
        bounds = run_boundaries(kv)
        data = bucket_data(part) if bucket_data else None
        cols = ([], [], [])
        star_buckets = star_rows = 0
        for s, e in zip(bounds[:-1], bounds[1:]):
            m = e - s
            if m < 2:
                continue
            star = cap is not None and m > cap
            if star and cap_error is not None:
                raise RuntimeError(cap_error.format(m=m))
            if star:
                star_buckets += 1
                star_rows += m
                ia, ib = np.zeros(m - 1, dtype=np.int64), np.arange(1, m)
            else:
                ia, ib = np.triu_indices(m, k=1)
            bid = ids[s:e]
            keep = bid[ia] != bid[ib]
            if pair_filter is not None:
                passed, values = pair_filter(data[s:e], ia, ib, star)
                keep &= passed
                if score:
                    cols[2].append(values[keep])
            cols[0].append(bid[ia[keep]])
            cols[1].append(bid[ib[keep]])
        if star_buckets:
            print(
                f"[{label}] {star_buckets} mega-bucket(s) ({star_rows} rows) "
                "degraded to star-representative edges"
            )
        return pa.table(
            [
                pa.array(np.concatenate(c) if c else [], f.type)
                for c, f in zip(cols, schema)
            ],
            schema=schema,
        )

    pairs = group_apply(rows, key, _expand, sort_by=[id_col], schema=schema, **kw)
    if combine is None:
        return pairs
    count_col = "n_shared" if combine == "count" else None
    if count_col:
        schema = schema.append(pa.field(count_col, pa.int64()))
    return group_apply(
        pairs, [a_col, b_col], partial(_dedup_pair_rows, count_col=count_col),
        schema=schema, **kw,
    )


def _signature_agreement(sig, ia, ib, star, *, sim_threshold):
    """MinHash pair filter: estimated Jaccard = signature agreement rate."""
    if star:
        est = (sig[1:] == sig[0][None, :]).mean(axis=1)
    else:
        est = (sig[:, None, :] == sig[None, :, :]).mean(axis=2)[ia, ib]
    return est >= sim_threshold, est


def minhash_lsh_pairs(
    ds: Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    sim_threshold: float = 0.5,
    allpairs_cap: int = 1000,
    scheme: str = "siphash",
    **kw,
) -> Dataset:
    """Near-duplicate candidate pairs via MinHash + LSH banding.

    shingle → minhash (map_batches) → band explode (map_batches) →
    :func:`_blocked_pairs` on the band bucket (a pair can surface from
    several bands; one copy is kept).
    """
    rows_per_band = num_perm // bands
    sigs = ds.map_batches(
        minhash_signatures_batch,
        batch_format="pyarrow",
        fn_kwargs={
            "num_perm": num_perm,
            "shingle_k": shingle_k,
            "scheme": scheme,
        },
    )
    exploded = sigs.map_batches(
        _band_explode,
        batch_format="pyarrow",
        fn_kwargs={"bands": bands, "rows_per_band": rows_per_band},
    )
    # Skew guard — no silent loss: a bucket above ``allpairs_cap`` members
    # (a whole band signature shared that widely is a boilerplate cluster)
    # keeps only its star edges, which preserve dedup connectivity
    # (union-find still merges the cluster) at O(m) instead of O(m^2).
    return _blocked_pairs(
        exploded,
        "bucket",
        "doc_id",
        score=("est_jaccard", pa.float64()),
        bucket_data=lambda part: np.asarray(
            part["sig_row"].combine_chunks().flatten()
            .to_numpy(zero_copy_only=False)
        ).reshape(part.num_rows, -1),
        pair_filter=partial(_signature_agreement, sim_threshold=sim_threshold),
        cap=allpairs_cap,
        label="minhash-lsh",
        **kw,
    )


# ---------------------------------------------------------------------------
# n-gram Jaccard verification (exact) for candidate pairs
# ---------------------------------------------------------------------------


def exact_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Scalar reference/test helper, backed by the SAME ``shingle_hashes``
    kernel as the distributed ``_verify`` pass (no duplicate hash scheme)."""
    sh, off = shingle_hashes(pa.array([text_a, text_b], pa.string()), k)
    sa = set(sh[off[0] : off[1]].tolist())
    sb = set(sh[off[1] : off[2]].tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_batch(
    batch: pa.Table, *, shingle_k: int = 2, scheme: str = "siphash"
) -> pa.Table:
    """64-bit SimHash over word-shingle hashes (weight 1 each).

    Vectorized: one ``shingle_hashes`` pass for the batch, bit matrix over
    the flat shingle array, per-doc votes via ``np.add.reduceat``.  Bits are
    processed in chunks of 16 to bound peak memory.  ``scheme="poly"`` swaps
    the token hash for the SQL-mirrorable polynomial byte fold.
    """
    n = batch.num_rows
    sh, soff = shingle_hashes(batch["text"], shingle_k, scheme=scheme)
    counts = np.diff(soff)
    starts = soff[:-1]
    h64 = sh * np.uint64(0x9E3779B97F4A7C15)  # avalanche spread
    out = np.zeros(n, dtype=np.uint64)
    for b0 in range(0, 64, 16):
        bit_idx = np.arange(b0, b0 + 16, dtype=np.uint64)
        bits = ((h64[:, None] >> bit_idx[None, :]) & np.uint64(1)).astype(
            np.int32
        )
        ones = np.add.reduceat(bits, starts, axis=0) if len(sh) else np.zeros(
            (n, 16), np.int32
        )
        vote = 2 * ones - counts[:, None]  # ones - zeros
        out |= ((vote > 0).astype(np.uint64) << bit_idx[None, :]).sum(
            axis=1, dtype=np.uint64
        )
    return pa.table(
        {"doc_id": batch["doc_id"], "simhash": pa.array(out.astype(np.int64))}
    )


def _hamming_within(h, ia, ib, star, *, max_hamming):
    """SimHash pair filter: Hamming distance of the 64-bit fingerprints."""
    dist = popcount64(h[ia] ^ h[ib])
    return dist <= max_hamming, dist


def simhash_pairs(
    ds: Dataset, *, max_hamming: int = 3, scheme: str = "siphash", **kw
) -> Dataset:
    """Near-dup pairs with Hamming(simhash) ≤ max_hamming, via 4×16-bit band
    blocking (a pair within distance 3 must agree on ≥1 of 4 bands)."""
    sigs = ds.map_batches(
        simhash_batch, batch_format="pyarrow", fn_kwargs={"scheme": scheme}
    )

    def _explode(batch: pa.Table) -> pa.Table:
        h = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        band = np.arange(4, dtype=np.uint64)[:, None]
        chunk = (h >> (band * np.uint64(16))) & np.uint64(0xFFFF)
        bucket = chunk.astype(np.int64) * 4 + band.astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(bucket.reshape(-1)),
                "doc_id": pa.array(np.tile(doc, 4)),
                "simhash": pa.array(np.tile(h.astype(np.int64), 4)),
            }
        )

    # buckets above 1,000 members keep only star edges (see minhash_lsh_pairs)
    return _blocked_pairs(
        sigs.map_batches(_explode, batch_format="pyarrow"),
        "bucket",
        "doc_id",
        score=("hamming", pa.int64()),
        bucket_data=lambda part: (
            part["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ),
        pair_filter=partial(_hamming_within, max_hamming=max_hamming),
        cap=1000,
        label="simhash",
        **kw,
    )


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (blocked on an exact key)
# ---------------------------------------------------------------------------


def _cosine(v, ia, ib, star, *, threshold):
    """Label-blocked pair filter: cosine of the raw vectors."""
    norms = np.sqrt((v * v).sum(axis=1))
    norms[norms == 0] = 1.0
    sim = ((v @ v.T) / np.outer(norms, norms))[ia, ib]
    return sim >= threshold, sim


def _unit_cosine(v, ia, ib, star, *, threshold):
    """LSH pair filter: cosine of the normalized vectors, O(m) for a star."""
    norms = np.sqrt((v * v).sum(axis=1))
    norms[norms == 0] = 1.0
    vn = v / norms[:, None]
    sim = vn[1:] @ vn[0] if star else (vn @ vn.T)[ia, ib]
    return sim >= threshold, sim


def embedding_near_dup(
    ds: Dataset,
    *,
    block_col: str = "label",
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    **kw,
) -> Dataset:
    """Pairs (a < b) within the same block whose cosine similarity ≥ threshold.
    Rows without an embedding or a block key match nothing."""
    # the blocks partition the rows, so a pair meets once: no combine
    return _blocked_pairs(
        ds,
        block_col,
        id_col,
        nonnull=[vec_col],
        pair_cols=("id_a", "id_b"),
        score=("cosine", pa.float64()),
        bucket_data=lambda part: _to_matrix(part[vec_col]),
        pair_filter=partial(_cosine, threshold=threshold),
        combine=None,
        **kw,
    )


def embedding_near_dup_lsh(
    ds: Dataset,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.30,
    nbits: int = 8,
    n_tables: int = 4,
    seed: int = 11,
    allpairs_cap: int = 2000,
    **kw,
) -> Dataset:
    """Embedding near-dup with RANDOM-HYPERPLANE LSH blocking — the scale
    path when no exact block key (label) exists.

    Each of ``n_tables`` hash tables projects every vector onto ``nbits``
    seeded hyperplanes; the sign pattern is the bucket id, so only vectors
    agreeing on all bits of some table ever meet (cos(theta)^nbits collision
    prob — near-dups collide in >=1 table w.h.p.).  Within-bucket exact
    cosine verifies candidates; a pair found by several tables is kept
    once, and a bucket above ``allpairs_cap`` members keeps only its star
    edges.  No all-pairs, no global materialization.
    """

    def _assign(batch: pa.Table) -> pa.Table:
        batch = _valid_vec_rows(batch, vec_col)
        vecs = _to_matrix(batch[vec_col])
        n, d = vecs.shape
        rng = np.random.default_rng(seed)  # same planes in every task
        planes = rng.standard_normal((d, nbits * n_tables))
        bits = (vecs @ planes) > 0  # (n, nbits*n_tables)
        weights = 1 << np.arange(nbits, dtype=np.int64)
        code = bits.reshape(n, n_tables, nbits) @ weights  # (n, n_tables)
        bucket = code.T * np.int64(n_tables) + np.arange(n_tables)[:, None]
        rows = pa.array(np.tile(np.arange(n, dtype=np.int64), n_tables))
        return pa.table(
            {
                "bucket": pa.array(bucket.reshape(-1)),
                id_col: batch[id_col].take(rows),
                vec_col: batch[vec_col].take(rows),
            }
        )

    return _blocked_pairs(
        ds.map_batches(_assign, batch_format="pyarrow"),
        "bucket",
        id_col,
        pair_cols=("id_a", "id_b"),
        score=("cosine", pa.float64()),
        bucket_data=lambda part: _to_matrix(part[vec_col]),
        pair_filter=partial(_unit_cosine, threshold=threshold),
        cap=allpairs_cap,
        label="emb-lsh",
        **kw,
    )


def _distinct_pairs(d: np.ndarray, h: np.ndarray):
    """Distinct ``(d, h)`` rows — a doc row and one of its hashes — sorted
    by ``d`` then ``h``."""
    order = np.lexsort((h, d))
    d, h = d[order], h[order]
    keep = np.ones(len(d), dtype=bool)
    keep[1:] = (d[1:] != d[:-1]) | (h[1:] != h[:-1])
    return d[keep], h[keep]


def exact_verify_pairs(
    cands: Dataset,
    docs: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_k: int = 3,
    jaccard_threshold: float = 0.5,
    num_partitions: int = 8,
) -> Dataset:
    """Attach both sides' text to candidate (doc_a, doc_b) pairs and keep
    pairs whose EXACT word-``shingle_k``-gram Jaccard ≥ threshold.

    The per-pair loop is bounded by the CANDIDATE count (output-sized), not
    the corpus.  The two text-attach joins CHAIN (j2's left input is j1's
    output stream), which trips a schema-loss race in Ray's native join
    operator when a partition arrives empty — so they use
    :func:`~..joins.cogroup_join`, the schema-explicit exchange that is safe
    to chain.  Returns (doc_a, doc_b, jaccard_x1000:int64).
    """
    from .joins import cogroup_join

    docs = docs.select_columns([id_col, text_col])
    j1 = cogroup_join(
        cands.select_columns(["doc_a", "doc_b"]),
        docs.map_batches(
            lambda t: t.rename_columns(["doc_a", "text_a"]),
            batch_format="pyarrow",
        ),
        on=["doc_a"],
        num_partitions=num_partitions,
    )
    j2 = cogroup_join(
        j1,
        docs.map_batches(
            lambda t: t.rename_columns(["doc_b", "text_b"]),
            batch_format="pyarrow",
        ),
        on=["doc_b"],
        num_partitions=num_partitions,
    )

    def _verify(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "jaccard_x1000": pa.array([], pa.int64()),
                }
            )
        sa, offa = shingle_hashes(batch["text_a"], shingle_k)
        sb, offb = shingle_hashes(batch["text_b"], shingle_k)

        # fully vectorized per-pair set intersection: dedup each side's
        # (pair, hash) pairs, concat the sides, and count (pair, hash) runs
        # that appear on BOTH sides — one lexsort over the batch, no
        # per-pair Python loop
        def _side(sh: np.ndarray, off: np.ndarray):
            pid = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
            return _distinct_pairs(pid, sh)

        p_a, h_a = _side(sa, offa)
        p_b, h_b = _side(sb, offb)
        size_a = np.bincount(p_a, minlength=n)
        size_b = np.bincount(p_b, minlength=n)
        p = np.concatenate([p_a, p_b])
        h = np.concatenate([h_a, h_b])
        order = np.lexsort((h, p))
        ps, hs = p[order], h[order]
        shared = np.zeros(0, dtype=np.int64)
        if len(ps) > 1:
            same = (ps[1:] == ps[:-1]) & (hs[1:] == hs[:-1])
            shared = ps[1:][same]
        inter = np.bincount(shared, minlength=n)
        union = size_a + size_b - inter
        out = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        keep = out >= jaccard_threshold
        return pa.table(
            {
                "doc_a": batch["doc_a"].filter(pa.array(keep)),
                "doc_b": batch["doc_b"].filter(pa.array(keep)),
                "jaccard_x1000": pa.array(
                    np.floor(out[keep] * 1000).astype(np.int64)
                ),
            }
        )

    return j2.map_batches(_verify, batch_format="pyarrow")


def verified_near_dup_pairs(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 3,
    jaccard_threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 32,
    **kw,
) -> Dataset:
    """Candidate generation + EXACT verification: MinHash/LSH proposes
    candidate pairs (loose banding → high recall), then each candidate is
    verified with exact word-``shingle_k``-gram Jaccard and kept when
    ``jaccard >= jaccard_threshold`` by :func:`exact_verify_pairs`, whose
    work is bounded by the candidate count (tiny by LSH construction), not
    by the corpus.

    Returns (doc_a, doc_b, jaccard_x1000:int64), a < b.
    """
    cands = minhash_lsh_pairs(
        ds.select_columns([id_col, text_col]),
        num_perm=num_perm,
        bands=bands,
        shingle_k=shingle_k,
        sim_threshold=0.0,  # banding alone gates candidates; verify exactly
        # NO star-edge degradation here: the exact-verified output is itself
        # O(m^2) for a true boilerplate cluster, so emitting every in-bucket
        # member pair is output-sized work, and dropping member-member pairs
        # would lose recall vs the exact oracle (ADVICE r2).
        allpairs_cap=1 << 62,
        **kw,
    ).select_columns(["doc_a", "doc_b"])
    return exact_verify_pairs(
        cands,
        ds,
        id_col=id_col,
        text_col=text_col,
        shingle_k=shingle_k,
        jaccard_threshold=jaccard_threshold,
        num_partitions=int(kw.get("num_partitions", 8)),
    )


# ---------------------------------------------------------------------------
# connected components over near-dup pairs → canonical-doc dedup finalize
# ---------------------------------------------------------------------------


def _block_label_sum(block) -> int:
    t = _arrow_block(block)
    return (pc.sum(t["label"]).as_py() or 0) if t.num_rows else 0


def _label_sum(labels: Dataset) -> int:
    """Global ``label`` sum, one task per block (``Dataset.sum`` would run
    Ray Data's all-to-all ``groupby(None)``)."""
    import ray

    task = ray.remote(_block_label_sum)
    refs = [r for bundle in labels.iter_internal_ref_bundles()
            for r in bundle.block_refs]
    return sum(ray.get([task.remote(r) for r in refs]))


def connected_components(
    pairs: Dataset,
    *,
    col_a: str = "doc_a",
    col_b: str = "doc_b",
    max_iters: int = 16,
    num_partitions: int = 16,
) -> Dataset:
    """Connected components of the undirected pair graph: every node reachable
    through any chain of near-dup pairs gets ``component_id`` = the minimum
    node id in its component.  This is the missing last step between a pair
    list (what the LSH/minhash/simhash chains emit) and an actual dedup
    decision: docs A-B and B-C similar ⇒ {A,B,C} is ONE cluster even though
    (A,C) was never a candidate pair.

    Algorithm: BSP min-label propagation.  Round state is one (node, label)
    table — node-count-sized, never the corpus — materialized per round (the
    legitimate use of materialize(): it IS the iteration state, exactly like
    a Pregel superstep).  Each round is one distributed hash join (edges ⋈
    labels on the source endpoint: every edge ships its endpoint's current
    label to the other endpoint) plus one keyed min combine; convergence is
    detected by the monotonically decreasing global label sum, so the
    driver holds two scalars, never data.

    Rounds needed = graph diameter.  Near-dup graphs are unions of
    near-cliques (LSH buckets), diameter 2-3, so 3-4 rounds typical; for
    adversarially long path graphs ``max_iters`` bounds the work and an
    unconverged exit raises (never silently wrong).  The diameter-hostile
    upgrade path (large-star/small-star contraction, O(log n) rounds) slots
    into the same loop shape.

    Returns (node:int64, component_id:int64) for every node that appears in
    at least one pair — singletons are their own component by definition and
    are handled by :func:`canonical_docs` without entering the loop.
    """
    from .joins import cogroup_join

    # symmetrize once: (u,v) and (v,u) — each edge pushes labels both ways
    def _sym(batch: pa.Table) -> pa.Table:
        a = batch[col_a].cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = batch[col_b].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"u": np.concatenate([a, b]), "v": np.concatenate([b, a])}
        )

    edges = pairs.map_batches(_sym, batch_format="pyarrow").materialize()

    # initial labels: each endpoint labels itself (dedup via the min
    # combine, which also serves as round 0's combine)
    def _self_label(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["u"], "label": batch["u"]})

    labels = combine_by_key(
        edges.map_batches(_self_label, batch_format="pyarrow"),
        "node",
        [("label", "min")],
    )
    prev_sum = _label_sum(labels)

    for _ in range(max_iters):
        # message pass: edge (u,v) ships label[u] to v; v keeps its own too
        msgs = cogroup_join(
            edges,
            labels,
            on=("u",),
            right_on=("node",),
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table({"node": t["v"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        labels_new = combine_by_key(msgs.union(labels), "node", [("label", "min")])
        new_sum = _label_sum(labels_new)
        labels = labels_new
        if new_sum == prev_sum:  # min-labels can only decrease; fixed point
            return labels.map_batches(
                lambda t: t.rename_columns(["node", "component_id"]),
                batch_format="pyarrow",
            )
        prev_sum = new_sum
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} rounds "
        "(graph diameter exceeds max_iters); raise max_iters or switch to "
        "star-contraction"
    )


def canonical_docs(
    docs: Dataset,
    pairs: Dataset,
    *,
    id_col: str = "doc_id",
    col_a: str = "doc_a",
    col_b: str = "doc_b",
    max_iters: int = 16,
    num_partitions: int = 16,
) -> Dataset:
    """Dedup finalize: keep exactly one representative (the min-id member)
    per near-dup component, plus every doc that appears in no pair.

    The left join ships the corpus through one hash shuffle against the
    (small) component table; the filter is per-row arithmetic.  No driver
    materialization of anything corpus-sized — the duplicate set at 100 TB
    can be half the corpus, so it is NEVER collected or broadcast.
    """
    from .joins import cogroup_join

    comp = connected_components(
        pairs,
        col_a=col_a,
        col_b=col_b,
        max_iters=max_iters,
        num_partitions=num_partitions,
    )
    joined = cogroup_join(
        docs,
        comp,
        on=(id_col,),
        right_on=("node",),
        how="left_outer",
        num_partitions=num_partitions,
    )

    def _keep(batch: pa.Table) -> pa.Table:
        cid = batch["component_id"]
        keep = pc.or_kleene(
            pc.is_null(cid), pc.equal(cid, batch[id_col].cast(pa.int64()))
        )
        return batch.filter(pc.fill_null(keep, True)).drop_columns(
            ["component_id"]
        )

    return joined.map_batches(_keep, batch_format="pyarrow")


def semantic_dedup_pairs(
    ds: Dataset,
    *,
    k: int = 8,
    iters: int = 1,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_partitions: int = 16,
    **kw,
) -> Dataset:
    """SemDeDup-style semantic near-dup detection: cluster the embedding
    space with distributed k-means, then find cosine-similar pairs ONLY
    within each cluster — the all-pairs work drops from O(n²) to
    O(Σ per-cluster m²), and the cluster id doubles as the shuffle key.

    Composition of two existing stages: ``similarity.kmeans`` (deterministic
    init → the whole chain stays oracle-checkable) feeding
    ``embedding_near_dup`` with the learned cluster as ``block_col``.
    Missed pairs that straddle a cluster boundary are the documented
    approximation of the method (SemDeDup, Abbas et al. 2023); raise ``k``
    slower / lower ``iters`` to trade recall for cost."""
    from .similarity import kmeans

    assigned = kmeans(
        ds,
        k=k,
        iters=iters,
        id_col=id_col,
        vec_col=vec_col,
        include_vec=True,
    )
    return embedding_near_dup(
        assigned,
        block_col="cluster",
        id_col=id_col,
        vec_col=vec_col,
        threshold=threshold,
        num_partitions=num_partitions,
        **kw,
    )


# ---------------------------------------------------------------------------
# AllPairs / prefix-filter EXACT set-similarity join
# ---------------------------------------------------------------------------


def allpairs_jaccard_pairs(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.5,
    num_partitions: int = 16,
    bucket_cap: int = 100_000,
) -> Dataset:
    """EXACT word-set similarity join: every pair with distinct-word Jaccard
    ≥ ``threshold`` — recall 1.0, no LSH approximation — without the O(n²)
    scan, via prefix filtering (Bayardo et al., "Scaling Up All Pairs
    Similarity Search", WWW'07; Chaudhuri et al. SSJoin).

    Pipeline (every stage a Dataset transform; no driver-side state, no
    vocabulary broadcast):

    1. **token explode** — per doc, DISTINCT word-token hashes →
       (tok, doc_id, set_size) rows (vectorized lexsort dedup).
    2. **document frequency** — partial per-batch counts + one vocab-sized
       groupby: df(tok) = number of docs containing tok.
    3. **df attach** — co-shuffle join rows ⋈ df on tok (cogroup_join; no
       broadcast, so the vocabulary may be corpus-scale).
    4. **prefix cut** — per doc ordered by (df asc, tok): keep the first
       ``|d| - ceil(t·|d|) + 1`` tokens.  Lemma: two sets with Jaccard ≥ t
       must share a token inside these prefixes (ceil(t·|x|) ≤ pairwise
       required overlap ceil(t/(1+t)·(|A|+|B|)) whenever the size filter
       |B| ≥ t·|A| can hold), so recall is exactly 1.
    5. **candidate buckets** — :func:`_blocked_pairs` on tok: within a
       token bucket, id-ordered pairs passing the size filter
       ``min ≥ t·max`` and the PPJoin positional filter, one copy per
       pair.  Prefix tokens are each doc's globally RAREST tokens, so
       buckets are small by construction; a bucket larger than
       ``bucket_cap`` raises loudly (that corpus needs the LSH path —
       exactness makes the output itself O(m²) for true boilerplate
       clusters, so there is no silent degradation that preserves it).
    6. **exact verify** — :func:`exact_verify_pairs` with word tokens
       (shingle_k=1).

    Returns (doc_a, doc_b, jaccard_x1000:int64), a < b.  Complements
    :func:`verified_near_dup_pairs` (LSH recall < 1) as the exact path.
    """
    from .joins import cogroup_join

    docs = ds.select_columns([id_col, text_col])
    tok_schema = pa.schema(
        [("tok", pa.int64()), ("doc_id", pa.int64()), ("set_size", pa.int64())]
    )

    def _tok_explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return tok_schema.empty_table()
        sh, off = shingle_hashes(batch[text_col], 1)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        d, h = _distinct_pairs(doc_idx, sh)
        sizes = np.bincount(d, minlength=n).astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tok": pa.array(h.view(np.int64)),
                "doc_id": pa.array(ids[d]),
                "set_size": pa.array(sizes[d]),
            }
        )

    rows = docs.map_batches(_tok_explode, batch_format="pyarrow")

    def _partial_df(t: pa.Table) -> pa.Table:
        agg = t.select(["tok"]).group_by(["tok"]).aggregate([([], "count_all")])
        return agg.rename_columns(["tok", "df"])

    df = combine_by_key(
        rows.map_batches(_partial_df, batch_format="pyarrow"), "tok", [("df", "sum")]
    )

    attached = cogroup_join(rows, df, on=["tok"], num_partitions=num_partitions)

    def _prefix(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False)
        bounds = run_boundaries(ids)
        seg = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        cum = np.arange(len(ids), dtype=np.int64) - bounds[:-1][seg]
        size = part["set_size"].to_numpy(zero_copy_only=False)
        # err toward a LONGER prefix on float boundaries: recall must be 1
        p = size - np.ceil(threshold * size - 1e-9).astype(np.int64) + 1
        keep = cum < p
        # pos = 0-based rank of the token in the doc's canonical order,
        # carried for the PPJoin positional filter in the bucket stage
        part = part.append_column("pos", pa.array(cum))
        return part.select(["tok", "doc_id", "set_size", "pos"]).filter(
            pa.array(keep)
        )

    prefixes = group_apply(
        attached,
        "doc_id",
        _prefix,
        sort_by=["df", "tok"],
        num_partitions=num_partitions,
    )

    def _size_and_position(x, ia, ib, star):
        za, zb = x[ia, 0], x[ib, 0]
        keep = np.minimum(za, zb) >= threshold * np.maximum(za, zb) - 1e-9
        # PPJoin positional filter (Xiao et al., WWW'08): this shared
        # token sits at rank pos in each doc's canonical order, so the
        # overlap can't exceed 1 + min(remaining suffix lengths); prune
        # when that bound can't reach the required overlap
        # α = ceil(t/(1+t)·(|A|+|B|)).  Recall is preserved: for a true
        # pair, the FIRST shared token in canonical order satisfies the
        # bound (all α common tokens sit at or after its position).
        alpha = np.ceil(threshold / (1.0 + threshold) * (za + zb) - 1e-9)
        ub = 1 + np.minimum(za - x[ia, 1] - 1, zb - x[ib, 1] - 1)
        return keep & (ub >= alpha), None

    cands = _blocked_pairs(
        prefixes,
        "tok",
        "doc_id",
        bucket_data=lambda part: np.column_stack(
            [
                part["set_size"].to_numpy(zero_copy_only=False),
                part["pos"].to_numpy(zero_copy_only=False),
            ]
        ),
        pair_filter=_size_and_position,
        cap=bucket_cap,
        cap_error=(
            "allpairs_jaccard_pairs: token bucket of {m} prefix entries "
            f"exceeds bucket_cap={bucket_cap}; an exact join on this corpus "
            "is inherently quadratic for that token — use "
            "verified_near_dup_pairs (LSH) or raise bucket_cap"
        ),
        num_partitions=num_partitions,
    )
    return exact_verify_pairs(
        cands,
        docs,
        id_col=id_col,
        text_col=text_col,
        shingle_k=1,
        jaccard_threshold=threshold,
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# exact substring-overlap detection (contamination / boilerplate pairs)
# ---------------------------------------------------------------------------


def substring_overlap_pairs(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 20,
    num_partitions: int = 16,
    bucket_cap: int = 100_000,
) -> Dataset:
    """EXACT substring-level overlap detection: every pair of documents
    sharing at least one common ``k``-character substring, with the count of
    distinct shared grams — the pairwise form of exact substring dedup
    (Lee et al., "Deduplicating Training Data Makes Language Models
    Better", ACL'22 — which dedups 50-token repeated spans) and the
    standard benchmark-contamination check.

    Shape: per-doc DISTINCT byte-``k``-gram rolling hashes (zero-copy over
    the Arrow value buffer, ``functions.hashing.char_shingle_hashes``) →
    one hash exchange on the gram → id-ordered pair expansion inside each
    gram bucket (singleton grams vanish here, so only ACTUALLY shared grams
    cost anything) → per-pair count of shared grams via multi-key run
    lengths.  A gram shared by more than ``bucket_cap`` docs raises loudly:
    that output is inherently quadratic, and a corpus with such boilerplate
    should strip it (corpus.segment_dedup) or use the MinHash path.

    Docs shorter than ``k`` bytes emit nothing.  Returns
    ``(doc_a, doc_b, n_shared:int64)``, a < b.
    """
    from ..functions.hashing import char_shingle_hashes

    gram_schema = pa.schema([("gram", pa.int64()), ("doc_id", pa.int64())])

    def _grams(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return gram_schema.empty_table()
        sh, off = char_shingle_hashes(batch[text_col], k)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        d, h = _distinct_pairs(doc_idx, sh)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {"gram": pa.array(h.view(np.int64)), "doc_id": pa.array(ids[d])}
        )

    rows = ds.select_columns([id_col, text_col]).map_batches(
        _grams, batch_format="pyarrow"
    )
    return shared_key_pairs(
        rows,
        key_col="gram",
        num_partitions=num_partitions,
        bucket_cap=bucket_cap,
        label="substring_overlap_pairs",
    )


def shared_key_pairs(
    rows: Dataset,
    *,
    key_col: str,
    id_col: str = "doc_id",
    num_partitions: int = 16,
    bucket_cap: int = 100_000,
    label: str = "shared_key_pairs",
) -> Dataset:
    """Distinct ``(key, doc)`` rows → ``(doc_a, doc_b, n_shared)``: pairs of
    docs sharing at least one key, with the count of shared keys.  One
    exchange on the key, in-bucket id-ordered pair expansion (singleton
    keys cost nothing), multi-key run-length counts.  A doc on several
    rows shares a key once (``n_shared`` counts distinct keys).  A key
    shared by more than ``bucket_cap`` docs raises loudly (quadratic
    output)."""
    return _blocked_pairs(
        rows,
        key_col,
        id_col,
        combine="count",
        distinct_ids=True,
        cap=bucket_cap,
        cap_error=(
            f"{label}: key shared by {{m}} docs exceeds "
            f"bucket_cap={bucket_cap} (quadratic output); strip "
            "boilerplate first (corpus.segment_dedup) or raise bucket_cap"
        ),
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# winnowing fingerprints (MOSS) — the sublinear scale path for substring
# overlap
# ---------------------------------------------------------------------------


def winnow_fingerprints(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 20,
    w: int = 10,
) -> Dataset:
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    "Winnowing: Local Algorithms for Document Fingerprinting", SIGMOD'03):
    per doc, slide a ``w``-window over the byte-``k``-gram hash sequence
    and keep each window's MINIMUM hash; the fingerprint set is the
    DISTINCT selected values.

    Guarantee: any shared substring of length ≥ ``w + k - 1`` characters
    contains a full window, whose minimum lands in BOTH docs' sets — so
    :func:`shared_key_pairs` over these fingerprints detects every long
    clone while storing only ~``2/(w+1)`` of the grams
    :func:`substring_overlap_pairs` would index.  This is the 100-TB path:
    the exchange payload shrinks by ~w/2 with the same ≥(w+k-1) detection
    floor.

    The gram hash is a plain polynomial in the raw bytes mod 2^64 (the
    selection is by VALUE, so the whole operator is mirrorable in SQL with
    HUGEINT arithmetic — see the ``doc_winnow_pairs`` oracle).  Docs
    shorter than ``w + k - 1`` bytes emit nothing.  Returns distinct
    ``(doc_id, fp:int64)`` rows.
    """
    from ..functions.hashing import char_shingle_hashes

    out_schema = pa.schema([("doc_id", pa.int64()), ("fp", pa.int64())])

    def _winnow(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return out_schema.empty_table()
        sh, soff = char_shingle_hashes(batch[text_col], k)
        total = len(sh)
        if total < w:
            return out_schema.empty_table()
        wins = np.lib.stride_tricks.sliding_window_view(sh, w)
        mins = wins.min(axis=1)
        m = len(mins)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(soff))
        vdoc = doc_idx[:m]
        # a window starting at flat gram i is valid iff its w grams all
        # belong to the same doc: i + w <= soff[doc(i)+1]
        valid = (np.arange(m, dtype=np.int64) + w) <= soff[vdoc + 1]
        d, h = _distinct_pairs(vdoc[valid], mins[valid])
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {"doc_id": pa.array(ids[d]), "fp": pa.array(h.view(np.int64))}
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        _winnow, batch_format="pyarrow"
    )


def winnow_overlap_pairs(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 20,
    w: int = 10,
    num_partitions: int = 16,
    bucket_cap: int = 100_000,
) -> Dataset:
    """Pairs of docs sharing a winnowed fingerprint + shared-fingerprint
    counts: detects every clone of length ≥ ``w + k - 1`` chars at ~2/(w+1)
    of :func:`substring_overlap_pairs`' index size."""
    rows = winnow_fingerprints(
        ds, text_col=text_col, id_col=id_col, k=k, w=w
    ).map_batches(
        lambda t: t.select(["fp", "doc_id"]), batch_format="pyarrow"
    )
    return shared_key_pairs(
        rows,
        key_col="fp",
        num_partitions=num_partitions,
        bucket_cap=bucket_cap,
        label="winnow_overlap_pairs",
    )


def duplicated_span_stats(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 20,
    num_partitions: int = 16,
) -> Dataset:
    """Per-document duplicated-span accounting: the number of characters
    covered by at least one ``k``-char substring that ALSO occurs in some
    OTHER document — the measurement half of exact substring-span dedup
    (Lee et al., ACL'22 remove repeated ≥50-token spans; here the spans are
    byte grams and the output is the per-doc coverage, the input to a
    removal policy).

    Shape: (gram, doc, pos) rows stream out of ``char_shingle_hashes``
    (position = window index, implicit); ONE exchange on the gram marks
    grams seen in ≥2 DISTINCT docs and emits their (doc, pos) hits; ONE
    exchange on the doc merges each doc's hit intervals ``[pos, pos+k)``
    with a vectorized islands pass (all intervals equal length, so the
    union is a running-max-free adjacency scan) and sums their union
    length.  Docs with no shared span are absent (coverage 0).
    Returns ``(doc_id, dup_chars:int64)``.
    """
    from ..functions.hashing import char_shingle_hashes

    gram_schema = pa.schema(
        [("gram", pa.int64()), ("doc_id", pa.int64()), ("pos", pa.int64())]
    )

    def _grams(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return gram_schema.empty_table()
        sh, off = char_shingle_hashes(batch[text_col], k)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        pos = np.arange(len(sh), dtype=np.int64) - off[doc_idx]
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "gram": pa.array(sh.view(np.int64)),
                "doc_id": pa.array(ids[doc_idx]),
                "pos": pa.array(pos),
            }
        )

    def _hits(part: pa.Table) -> pa.Table:
        grams = part["gram"].to_numpy(zero_copy_only=False)
        docs = part["doc_id"].to_numpy(zero_copy_only=False)
        gb = run_boundaries(grams)
        # distinct docs per gram run: count (gram, doc) sub-runs
        gd = run_boundaries(grams, docs)
        sub_of_run = np.searchsorted(gd, gb[:-1])
        n_docs = np.diff(np.append(sub_of_run, len(gd) - 1))
        shared = n_docs > 1  # gram appears in >= 2 distinct docs
        keep = np.repeat(shared, np.diff(gb))
        return pa.table(
            {
                "doc_id": part["doc_id"].filter(pa.array(keep)),
                "pos": part["pos"].filter(pa.array(keep)),
            }
        )

    hits = group_apply(
        ds.select_columns([id_col, text_col]).map_batches(
            _grams, batch_format="pyarrow"
        ),
        "gram",
        _hits,
        sort_by=["doc_id", "pos"],
        num_partitions=num_partitions,
    )

    def _coverage(part: pa.Table) -> pa.Table:
        docs = part["doc_id"].to_numpy(zero_copy_only=False)
        pos = part["pos"].to_numpy(zero_copy_only=False)
        db = run_boundaries(docs)
        seg = np.repeat(np.arange(len(db) - 1), np.diff(db))
        # equal-length intervals [pos, pos+k) sorted by pos: a new island
        # starts where the gap to the previous start exceeds k (or at a
        # segment head); union length = k per island + the sum of
        # within-island start deltas
        prev_same = np.zeros(len(pos), dtype=bool)
        prev_same[1:] = seg[1:] == seg[:-1]
        delta = np.zeros(len(pos), dtype=np.int64)
        delta[1:] = pos[1:] - pos[:-1]
        joined = prev_same & (delta < k)  # continues the island
        covered = np.where(joined, delta, k)
        dup = np.add.reduceat(covered, db[:-1])
        return pa.table(
            {
                "doc_id": pa.array(docs[db[:-1]]),
                "dup_chars": pa.array(dup.astype(np.int64)),
            }
        )

    return group_apply(
        hits, "doc_id", _coverage, sort_by=["pos"], num_partitions=num_partitions
    )
