"""Near-duplicate pair families (stages/dedup.py) vs brute-force ground
truth: AllPairs, substring overlap, winnowing, span stats, SimHash, and the
blocked-pairs kernel's bucket policies (star edges, loud caps, null keys,
repeated ids)."""

import itertools

import numpy as np
import pytest


def test_allpairs_jaccard_exact_vs_bruteforce(ray_session):
    """Prefix-filter AllPairs join == brute-force O(n^2) word-set Jaccard:
    recall 1.0 (exactness), precision 1.0 (verification), across partition
    counts and thresholds."""
    import itertools

    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.dedup import allpairs_jaccard_pairs

    rng = np.random.RandomState(41)
    vocab = [f"w{i}" for i in range(40)]
    texts, ids = [], []
    for i in range(60):
        k = rng.randint(3, 12)
        words = list(rng.choice(vocab, size=k, replace=False))
        texts.append(" ".join(words))
        ids.append(i)
        if rng.rand() < 0.3:  # planted near-dup: drop/add one word
            w2 = words[:-1] + [str(rng.choice(vocab))]
            texts.append(" ".join(w2))
            ids.append(100 + i)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})

    def brute(th):
        sets = {i: set(s.split(" ")) for i, s in zip(ids, texts)}
        out = set()
        for a, b in itertools.combinations(sorted(sets), 2):
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            j = inter / union if union else 1.0
            if j >= th:
                out.add((a, b))
        return out

    for th, nparts in ((0.5, 4), (0.7, 9)):
        got = allpairs_jaccard_pairs(
            ray.data.from_arrow(t), threshold=th, num_partitions=nparts
        ).to_pandas()
        pairs = set(zip(got["doc_a"].tolist(), got["doc_b"].tolist()))
        assert pairs == brute(th), (th, nparts,
                                    pairs - brute(th), brute(th) - pairs)


@pytest.mark.parametrize(
    "label,kw",
    [
        ("allpairs_jaccard_pairs", {"threshold": 0.5}),
        ("substring_overlap_pairs", {"k": 8}),
        ("winnow_overlap_pairs", {"k": 8, "w": 3}),
    ],
    ids=["allpairs_jaccard_pairs", "substring_overlap_pairs",
         "winnow_overlap_pairs"],
)
def test_allpairs_bucket_cap_raises(ray_session, label, kw):
    """A bucket exceeding bucket_cap must raise loudly, not degrade, and
    the message names the operator that raised."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages import dedup

    t = pa.table(
        {
            "doc_id": pa.array(range(30), pa.int64()),
            "text": ["same same same same same same"] * 30,
        }
    )
    with pytest.raises(Exception, match=f"{label}: .*bucket_cap=10"):
        getattr(dedup, label)(
            ray.data.from_arrow(t), num_partitions=2, bucket_cap=10, **kw
        ).materialize()


def test_substring_overlap_pairs_vs_bruteforce(ray_session):
    """substring_overlap_pairs == brute-force distinct shared k-gram counts;
    short docs emit nothing; pairs are a<b; partition-count invariant."""
    import itertools

    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.dedup import substring_overlap_pairs

    rng = np.random.RandomState(17)
    alpha = "abcdefgh"
    texts, ids = [], []
    for i in range(40):
        s = "".join(rng.choice(list(alpha), size=rng.randint(5, 60)))
        texts.append(s)
        ids.append(i)
        if rng.rand() < 0.4:  # planted overlap: copy a slice into a new doc
            j = rng.randint(0, max(len(s) - 15, 1))
            texts.append(
                "".join(rng.choice(list(alpha), size=10)) + s[j : j + 15]
            )
            ids.append(100 + i)
    k = 8
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})

    def grams(s):
        return {s[i : i + k] for i in range(len(s) - k + 1)}

    gsets = {i: grams(s) for i, s in zip(ids, texts)}
    exp = {}
    for a, b in itertools.combinations(sorted(gsets), 2):
        shared = len(gsets[a] & gsets[b])
        if shared:
            exp[(a, b)] = shared

    for nparts in (3, 7):
        got = substring_overlap_pairs(
            ray.data.from_arrow(t), k=k, num_partitions=nparts
        ).to_pandas()
        m = {
            (r.doc_a, r.doc_b): r.n_shared for r in got.itertuples()
        }
        assert m == exp, (nparts, len(m), len(exp))


def test_winnow_guarantee_and_density(ray_session):
    """Winnowing guarantee: every pair sharing a substring of length
    >= w+k-1 is detected; fingerprint density ~2/(w+1) (< 3/(w+1) slack);
    winnow pairs are a subset of full substring-overlap pairs."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.dedup import (
        substring_overlap_pairs,
        winnow_fingerprints,
        winnow_overlap_pairs,
    )

    rng = np.random.RandomState(9)
    alpha = list("abcdefghijklmnop")
    k, w = 8, 4
    clone = "".join(rng.choice(alpha, size=k + w - 1))  # exactly the floor
    texts, ids, planted = [], [], []
    for i in range(30):
        s = "".join(rng.choice(alpha, size=rng.randint(40, 120)))
        texts.append(s)
        ids.append(i)
        if rng.rand() < 0.5:
            j = rng.randint(0, 20)
            texts.append(
                "".join(rng.choice(alpha, size=j)) + clone
                + "".join(rng.choice(alpha, size=20))
            )
            ids.append(100 + i)
            planted.append(100 + i)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    ds = ray.data.from_arrow(t)

    got = winnow_overlap_pairs(ds, k=k, w=w, num_partitions=3).to_pandas()
    pairs = set(zip(got["doc_a"].tolist(), got["doc_b"].tolist()))
    # guarantee: every planted pair of clone carriers is found
    for i, a in enumerate(planted):
        for b in planted[i + 1:]:
            assert (min(a, b), max(a, b)) in pairs, (a, b)
    # soundness: winnow pairs share >= 1 true k-gram (subset of exact op)
    full = substring_overlap_pairs(ds, k=k, num_partitions=3).to_pandas()
    full_pairs = set(zip(full["doc_a"].tolist(), full["doc_b"].tolist()))
    assert pairs <= full_pairs
    # density: |fingerprints| well below |grams| (expected ~2/(w+1))
    fp = winnow_fingerprints(ds, k=k, w=w).to_pandas()
    n_grams = sum(max(len(s) - k + 1, 0) for s in texts)
    assert len(fp) < n_grams * 3.0 / (w + 1), (len(fp), n_grams)


def test_duplicated_span_stats_vs_bruteforce(ray_session):
    """duplicated_span_stats == brute-force per-doc union of positions
    covered by k-grams shared with another doc; partition invariant."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.dedup import duplicated_span_stats

    rng = np.random.RandomState(21)
    alpha = list("abcdef")
    k = 6
    texts, ids = [], []
    shared_chunk = "".join(rng.choice(alpha, size=25))
    for i in range(30):
        s = "".join(rng.choice(alpha, size=rng.randint(10, 80)))
        if rng.rand() < 0.5:
            j = rng.randint(0, len(s))
            s = s[:j] + shared_chunk + s[j:]
        texts.append(s)
        ids.append(i)

    def brute():
        grams = {}
        for i, s in zip(ids, texts):
            for p in range(len(s) - k + 1):
                grams.setdefault(s[p : p + k], set()).add(i)
        out = {}
        for i, s in zip(ids, texts):
            covered = set()
            for p in range(len(s) - k + 1):
                g = s[p : p + k]
                if len(grams[g]) > 1:
                    covered.update(range(p, p + k))
            if covered:
                out[i] = len(covered)
        return out

    exp = brute()
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    for nparts in (2, 5):
        got = duplicated_span_stats(
            ray.data.from_arrow(t), k=k, num_partitions=nparts
        ).to_pandas()
        m = dict(zip(got["doc_id"].tolist(), got["dup_chars"].tolist()))
        assert m == exp, (nparts, len(m), len(exp))


# ---------------------------------------------------------------------------
# blocked-pairs kernel: bucket policies shared by the near-duplicate family
# ---------------------------------------------------------------------------


def _reference_pairs(buckets, ids, score, keep, cap):
    """The kernel's contract, pair by pair: inside each bucket take every
    id-ordered pair (a < b) up to ``cap`` members, above ``cap`` only the
    star edges from the min id; keep pairs whose ``score`` passes ``keep``;
    one copy per pair across buckets.  ``score(i, j)`` takes row indices."""
    members = {}
    for row, bkt in enumerate(buckets):
        members.setdefault(bkt, []).append(row)
    out, sizes = {}, []
    for rows in members.values():
        rows = sorted(rows, key=lambda r: ids[r])
        m = len(rows)
        if m < 2:
            continue
        sizes.append(m)
        cand = (
            [(rows[0], r) for r in rows[1:]]
            if m > cap
            else itertools.combinations(rows, 2)
        )
        for i, j in cand:
            if ids[i] != ids[j] and keep(score(i, j)):
                out.setdefault((ids[i], ids[j]), score(i, j))
    return out, sizes


def _near_dup_corpus():
    """5 identical docs, 3 one-word variants of them, 4 unrelated docs."""
    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(300)]
    base = list(rng.choice(vocab, size=24))
    texts, ids = [], []
    for i in range(5):
        texts.append(" ".join(base))
        ids.append(10 + i)
    for i in range(3):
        words = list(base)
        words[rng.randint(len(words))] = f"x{i}"
        texts.append(" ".join(words))
        ids.append(20 + i)
    for i in range(4):
        texts.append(" ".join(rng.choice(vocab, size=24)))
        ids.append(30 + i)
    return ids, texts


def test_minhash_star_edges_above_cap(ray_session):
    """MinHash-LSH: a band bucket of cap+1 members gives exactly the min-id
    star edges whose signature agreement passes the threshold; a bucket of
    cap members gives all its pairs; pairs repeat across bands only once."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages import dedup

    ids, texts = _near_dup_corpus()
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    bands, num_perm, thr = 16, 64, 0.7
    ex = dedup._band_explode(
        dedup.minhash_signatures_batch(t, num_perm=num_perm),
        bands=bands,
        rows_per_band=num_perm // bands,
    )
    sig = np.asarray(
        ex["sig_row"].combine_chunks().flatten().to_numpy()
    ).reshape(ex.num_rows, -1)
    bkt = ex["bucket"].to_numpy()
    rid = ex["doc_id"].to_numpy()

    def est(i, j):
        return float((sig[i] == sig[j]).mean())

    full, sizes = _reference_pairs(bkt, rid, est, lambda e: e >= thr, 1 << 62)
    top = max(sizes)
    assert top > 5  # a variant joins the identical cluster in some band
    for cap in (top - 1, top, 4):
        exp, _ = _reference_pairs(bkt, rid, est, lambda e: e >= thr, cap)
        got = dedup.minhash_lsh_pairs(
            ray.data.from_arrow(t), num_perm=num_perm, bands=bands,
            sim_threshold=thr, allpairs_cap=cap, num_partitions=3,
        ).to_pandas()
        assert len(got) == len(exp), cap
        assert dict(
            zip(zip(got.doc_a, got.doc_b), got.est_jaccard)
        ) == exp, cap
    # cap=4 stars every cluster bucket, so member-member pairs go missing
    assert set(exp) < set(full)


def test_embedding_lsh_star_edges_above_cap(ray_session):
    """Embedding LSH: a hyperplane bucket of cap+1 members gives exactly the
    min-id star edges with cosine >= threshold; at the cap, all pairs."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages import dedup

    rng = np.random.RandomState(3)
    d, nbits, n_tables, seed, thr = 4, 2, 2, 11, 0.5
    base = rng.normal(size=d)
    vecs = np.vstack(
        [base + 1e-3 * rng.normal(size=d) for _ in range(6)]
        + [rng.normal(size=d) for _ in range(10)]
    ).astype(np.float32)
    ids = list(range(100, 100 + len(vecs)))
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
        }
    )
    v = vecs.astype(np.float64)
    planes = np.random.default_rng(seed).standard_normal((d, nbits * n_tables))
    bits = (v @ planes) > 0
    w = 1 << np.arange(nbits)
    bkt = np.concatenate(
        [
            (bits[:, ti * nbits : (ti + 1) * nbits] @ w) * n_tables + ti
            for ti in range(n_tables)
        ]
    )
    rid = np.tile(ids, n_tables)
    row = np.tile(np.arange(len(vecs)), n_tables)
    vn = v / np.linalg.norm(v, axis=1)[:, None]

    def cos(i, j):
        return float(vn[row[i]] @ vn[row[j]])

    _, sizes = _reference_pairs(bkt, rid, cos, lambda c: c >= thr, 1 << 62)
    top = max(sizes)
    for cap in (top - 1, top):
        exp, _ = _reference_pairs(bkt, rid, cos, lambda c: c >= thr, cap)
        got = dedup.embedding_near_dup_lsh(
            ray.data.from_arrow(t), threshold=thr, nbits=nbits,
            n_tables=n_tables, seed=seed, allpairs_cap=cap, num_partitions=3,
        ).to_pandas()
        m = dict(zip(zip(got.id_a, got.id_b), got.cosine))
        assert len(got) == len(m) and set(m) == set(exp), cap
        for k, c in exp.items():
            assert abs(m[k] - c) < 1e-9, (cap, k)


@pytest.mark.parametrize("n_docs", [1000, 1001])
def test_simhash_star_edges_above_fixed_cap(ray_session, n_docs):
    """SimHash stars buckets above its fixed 1,000-member cap: 1,001
    identical docs pair only with the min id, 1,000 give every pair."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages import dedup

    ids = list(range(7, 7 + n_docs))
    t = pa.table(
        {
            "doc_id": pa.array(ids + [5000], pa.int64()),
            "text": ["one boilerplate footer repeated everywhere"] * n_docs
            + ["an unrelated document about something else entirely"],
        }
    )
    got = dedup.simhash_pairs(ray.data.from_arrow(t), num_partitions=2)
    got = got.to_pandas()
    exp = (
        {(7, b) for b in ids[1:]}
        if n_docs > 1000
        else set(itertools.combinations(ids, 2))
    )
    assert len(got) == len(exp)
    assert set(zip(got.doc_a.tolist(), got.doc_b.tolist())) == exp
    assert (got.hamming == 0).all()


def test_simhash_pairs_vs_bruteforce(ray_session):
    """With no bucket over the cap, SimHash pairs == every pair with
    Hamming <= max_hamming (pigeonhole: distance <= 3 over four 16-bit bands
    leaves one band equal), with the exact distance."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages import dedup

    rng = np.random.RandomState(13)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    for _ in range(40):
        words = list(rng.choice(vocab, size=rng.randint(30, 60)))
        texts.append(" ".join(words))
        if rng.rand() < 0.2:  # exact copy
            texts.append(texts[-1])
        for _ in range(rng.randint(0, 3)):  # near-dups: one word swapped
            v = list(words)
            v[rng.randint(len(v))] = str(rng.choice(vocab))
            texts.append(" ".join(v))
    ids = [3 * i + 1 for i in range(len(texts))]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    h = dedup.simhash_batch(t)["simhash"].to_numpy().astype(np.uint64)
    for max_h in (0, 3):
        exp = {}
        for i, j in itertools.combinations(range(len(ids)), 2):
            dist = bin(int(h[i] ^ h[j])).count("1")
            if dist <= max_h:
                exp[(ids[i], ids[j])] = dist
        got = dedup.simhash_pairs(
            ray.data.from_arrow(t), max_hamming=max_h, num_partitions=3
        ).to_pandas()
        assert exp and len(got) == len(exp), max_h
        assert dict(zip(zip(got.doc_a, got.doc_b), got.hamming)) == exp
    assert any(0 < d for d in exp.values())


def test_embedding_near_dup_null_label_forms_no_block(ray_session):
    """SQL's ``a.label = b.label`` never matches NULL: rows without a label
    pair with nothing, while labelled rows still pair."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.dedup import embedding_near_dup

    t = pa.table(
        {
            "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
            "embedding": pa.array(
                [[1.0, 0.0, 0.0], [1.0, 0.0, 1e-3], [0.0, 1.0, 0.0],
                 [0.0, 1.0, 1e-3]],
                pa.list_(pa.float32()),
            ),
            "label": pa.array([None, None, 7, 7], pa.int32()),
        }
    )
    got = embedding_near_dup(
        ray.data.from_arrow(t), threshold=0.9, num_partitions=2
    ).to_pandas()
    assert list(zip(got.id_a, got.id_b)) == [(3, 4)]


def test_repeated_id_gives_no_self_pair(ray_session):
    """Every oracle joins on ``a.id < b.id``: an id repeated inside one
    block must not pair with itself (label-blocked cosine, shared-key)."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.dedup import (
        embedding_near_dup,
        substring_overlap_pairs,
    )

    emb = pa.table(
        {
            "vec_id": pa.array([5, 5, 8], pa.int64()),
            "embedding": pa.array(
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], pa.list_(pa.float32())
            ),
            "label": pa.array([1, 1, 1], pa.int32()),
        }
    )
    got = embedding_near_dup(
        ray.data.from_arrow(emb), threshold=0.9, num_partitions=2
    ).to_pandas()
    assert got.empty, got

    text = "a document long enough to share several grams"
    docs = pa.table(
        {
            "doc_id": pa.array([9, 9, 4], pa.int64()),
            "text": [text, text, "nothing in common with the other one"],
        }
    )
    got = substring_overlap_pairs(
        ray.data.from_arrow(docs), k=20, num_partitions=2
    ).to_pandas()
    assert got.empty, got


def test_simhash_pairs_without_pairs_keep_columns(ray_session):
    """No surviving pair: the frame is empty but keeps its typed columns."""
    import pyarrow as pa
    import ray
    import ray.data

    from hypertrace_ingester_ray.stages import dedup

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": ["the quick brown fox jumps over the lazy dog",
                     "completely unrelated words about tax law and rivers"],
        }
    )
    ds = dedup.simhash_pairs(ray.data.from_arrow(t), max_hamming=0, num_partitions=2)
    # (Ray's to_pandas drops the columns of zero-row blocks; the blocks
    # themselves carry them)
    got = pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pandas()
    assert got.empty
    assert list(got.columns) == ["doc_a", "doc_b", "hamming"]
    assert ds.schema().names == ["doc_a", "doc_b", "hamming"]


def test_shared_key_pairs_count_distinct_docs(ray_session):
    """A doc on two rows shares each gram once, as the oracle's
    ``SELECT DISTINCT doc_id, gram`` counts it."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages import dedup

    s = "a document long enough to share several grams"
    docs = pa.table(
        {
            "doc_id": pa.array([9, 9, 4], pa.int64()),
            "text": [s, s, "prefix: " + s[:30]],
        }
    )
    got = dedup.substring_overlap_pairs(
        ray.data.from_arrow(docs), k=20, num_partitions=2
    ).to_pandas()
    # s[:30] holds 30 - 20 + 1 distinct 20-grams of s
    assert list(got.itertuples(index=False, name=None)) == [(4, 9, 11)]
