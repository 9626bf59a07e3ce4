"""Training-corpus preparation operator tests (stages/corpus.py):
hash split, vocabulary, redaction, quantiles, decontamination, repetition."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from hypertrace_ingester_ray.stages import corpus


@pytest.fixture(scope="module")
def docs(ray_session):
    base = [
        "alpha beta gamma delta epsilon zeta eta theta",   # 0 (benchmark)
        "alpha beta gamma delta something else entirely",   # 1: shares 3-grams w/ 0
        "totally disjoint words here none shared at all",   # 2: no overlap
        "spam spam spam spam spam spam ham",                # 3: repetitive
        "one two",                                          # 4: short (< k tokens)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(len(base))), pa.int64()),
            "text": pa.array(base, pa.string()),
            "n_chars": pa.array([len(s) for s in base], pa.int64()),
        }
    )
    return ray.data.from_arrow(t)


def test_hash_split_deterministic_and_complete(docs, ray_session):
    out = corpus.hash_split(docs).to_pandas().sort_values("doc_id")
    assert set(out.columns) == {"doc_id", "bucket", "split"}
    assert len(out) == 5
    # pure function of the id: same result regardless of partitioning
    again = (
        corpus.hash_split(docs.repartition(3)).to_pandas().sort_values("doc_id")
    )
    assert list(out.bucket) == list(again.bucket)
    assert ((out.bucket >= 0) & (out.bucket < 100)).all()
    expected = np.where(
        out.bucket < 90, "train", np.where(out.bucket < 95, "val", "test")
    )
    assert list(out.split) == list(expected)
    # matches the SQL mirror's HUGEINT arithmetic
    for did, b in zip(out.doc_id, out.bucket):
        assert b == (did * 2654435761) % (1 << 32) % 100


def test_hash_split_uniformity(ray_session):
    ids = pa.table({"doc_id": pa.array(np.arange(20_000), pa.int64())})
    out = corpus.hash_split(ray.data.from_arrow(ids)).to_pandas()
    frac = (out.split == "train").mean()
    assert 0.88 < frac < 0.92  # 90% ± noise


def test_vocab_top_k(docs):
    out = corpus.vocab_top_k(docs, k=3).to_pandas()
    assert list(out.columns) == ["word", "cnt"]
    assert out.iloc[0].word == "spam" and out.iloc[0].cnt == 6
    # ties broken by word ascending → deterministic cut
    assert len(out) == 3
    assert list(out.cnt) == sorted(out.cnt, reverse=True)


def test_redact(ray_session):
    t = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                ["call 555 then 1234 end", "no digits at all"], pa.string()
            ),
        }
    )
    out = (
        corpus.redact(ray.data.from_arrow(t), keep=["id"])
        .to_pandas()
        .sort_values("id")
    )
    assert list(out.text_redacted) == [
        "call <NUM> then <NUM> end",
        "no digits at all",
    ]
    assert list(out.n_redactions) == [2, 0]


def test_redact_multi_pattern(ray_session):
    t = pa.table({"text": pa.array(["mail a@b.co num 77"], pa.string())})
    out = corpus.redact(
        ray.data.from_arrow(t),
        patterns=[(r"[a-z]+@[a-z.]+", "<EMAIL>"), (r"[0-9]+", "<NUM>")],
    ).to_pandas()
    assert out.text_redacted[0] == "mail <EMAIL> num <NUM>"
    assert out.n_redactions[0] == 2


def test_length_quantiles_exact(ray_session):
    vals = pa.table({"n_chars": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], pa.int64())})
    out = corpus.length_quantiles(
        ray.data.from_arrow(vals), pcts=(10, 50, 90)
    ).to_pandas()
    # ceil-based: p=10 → rank 1 → 1; p=50 → rank 5 → 5; p=90 → rank 9 → 9
    assert dict(zip(out.pct, out.value)) == {10: 1, 50: 5, 90: 9}


def test_length_quantiles_duplicates(ray_session):
    vals = pa.table({"n_chars": pa.array([5] * 99 + [100], pa.int64())})
    out = corpus.length_quantiles(
        ray.data.from_arrow(vals), pcts=(50, 90)
    ).to_pandas()
    assert dict(zip(out.pct, out.value)) == {50: 5, 90: 5}


def test_decontaminate(docs):
    bench = docs.filter(lambda r: r["doc_id"] == 0)
    out = (
        corpus.decontaminate(docs, bench, shingle_k=3)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "overlap_x1000"] == 1000  # benchmark doc itself
    assert 0 < out.loc[1, "n_overlap"] < out.loc[1, "n_shingles"]
    assert out.loc[2, "n_overlap"] == 0
    # short doc: whole-text fallback shingle, no overlap with benchmark
    assert out.loc[4, "n_shingles"] == 1 and out.loc[4, "n_overlap"] == 0


def test_repetition_scores(docs):
    out = (
        corpus.repetition_scores(docs)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # doc 3: 6 bigrams, "spam spam" ×5 → 833
    assert out.loc[3, "n_grams"] == 6
    assert out.loc[3, "top_gram_count"] == 5
    assert out.loc[3, "rep_x1000"] == 833
    # doc 0: all bigrams distinct
    assert out.loc[0, "top_gram_count"] == 1
    # short doc: single whole-text gram
    assert out.loc[4, "n_grams"] == 1 and out.loc[4, "rep_x1000"] == 1000


def test_stratified_sample_deterministic(ray_session):
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(10_000), pa.int64()),
            "lang": pa.array(["en", "fr"] * 5_000, pa.string()),
        }
    )
    ds = ray.data.from_arrow(t)
    out = corpus.stratified_sample(
        ds, {"en": 100, "fr": 1000}, strata_col="lang"
    ).to_pandas()
    en = out[out.lang == "en"]
    fr = out[out.lang == "fr"]
    assert len(fr) == 5_000  # permille 1000 keeps everything
    assert 400 < len(en) < 600  # ~10% of 5000
    # unknown strata drop; repartitioning does not change the sample
    assert len(corpus.stratified_sample(ds, {}).to_pandas()) == 0
    again = corpus.stratified_sample(
        ds.repartition(7), {"en": 100, "fr": 1000}
    ).to_pandas()
    assert sorted(again.doc_id) == sorted(out.doc_id)


def test_top_k_per_group(ray_session):
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "source": pa.array(["a", "a", "a", "b", "b", "b"], pa.string()),
            "n_chars": pa.array([10, 30, 20, 5, 5, 50], pa.int64()),
        }
    )
    out = (
        corpus.top_k_per_group(
            ray.data.from_arrow(t),
            group_col="source",
            order_col="n_chars",
            k=2,
            num_partitions=4,
        )
        .to_pandas()
        .sort_values(["source", "rank"])
    )
    assert list(out.doc_id) == [2, 3, 6, 4]  # b ties (5,5) break by doc_id
    assert list(out["rank"]) == [0, 1, 0, 1]


def test_shuffle_shards(ray_session):
    ids = pa.table({"doc_id": pa.array(np.arange(1_000), pa.int64())})
    ds = ray.data.from_arrow(ids)
    out = corpus.shuffle_shards(ds, n_shards=4, num_partitions=4).to_pandas()
    assert len(out) == 1_000
    # each shard's positions are exactly 0..len-1 (a permutation cut)
    for s, grp in out.groupby("shard"):
        assert sorted(grp.pos) == list(range(len(grp)))
    # deterministic across partitioning layouts
    again = corpus.shuffle_shards(
        ds.repartition(9), n_shards=4, num_partitions=8
    ).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = again.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    # not the identity order: hash actually shuffles
    s0 = out[out.shard == 0].sort_values("pos")
    assert list(s0.doc_id) != sorted(s0.doc_id)


def test_remove_common_words(ray_session):
    # "the" and "a" appear in 3/4 docs (750 permille); "rare" in 1/4
    texts = [
        "the quick a fox",
        "the lazy a dog",
        "the a",
        "rare words only",
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = (
        corpus.remove_common_words(ds, permille=700)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.text_filtered) == [
        "quick fox",
        "lazy dog",
        "",  # every word common -> empty string, not null
        "rare words only",
    ]
    assert list(out.n_removed) == [2, 2, 2, 0]


def test_remove_common_words_counts_occurrences(ray_session):
    # removal counts token OCCURRENCES, not distinct words
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(["hot hot hot cold", "hot warm"], pa.string()),
            }
        )
    )
    out = (
        corpus.remove_common_words(ds, permille=1000)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # "hot" is in 2/2 docs -> removed everywhere; others are 1/2
    assert list(out.text_filtered) == ["cold", "warm"]
    assert list(out.n_removed) == [3, 1]


def test_remove_common_words_partition_invariant(ray_session):
    # document frequency is global, not per-block
    texts = ["x y", "x z", "x w", "q r"]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(4)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    one = (
        corpus.remove_common_words(ray.data.from_arrow(t), permille=700)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    many = (
        corpus.remove_common_words(
            ray.data.from_arrow(t).repartition(4), permille=700
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(one.text_filtered) == list(many.text_filtered)
    assert list(one.n_removed) == list(many.n_removed)


def test_pack_sequences_exact_layout(ray_session):
    texts = ["a b c", "d e f g h", "i", "j k l m"]  # 3,5,1,4 tokens
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = (
        corpus.pack_sequences(ds, seq_len=4, bucket_width=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.n_tokens) == [3, 5, 1, 4]
    assert list(out.token_offset) == [0, 3, 8, 9]
    # seq_len=4: doc 1 spans tokens 3..7 -> chunks 0..1; doc 3 tokens 9..12
    assert list(out.chunk_first) == [0, 0, 2, 2]
    assert list(out.chunk_last) == [0, 1, 2, 3]


def test_pack_sequences_partition_invariant(ray_session):
    t = pa.table(
        {
            "doc_id": pa.array(list(range(20)), pa.int64()),
            "text": pa.array(
                [" ".join(["w"] * (i % 7 + 1)) for i in range(20)], pa.string()
            ),
        }
    )
    one = (
        corpus.pack_sequences(ray.data.from_arrow(t), seq_len=5, bucket_width=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    many = (
        corpus.pack_sequences(
            ray.data.from_arrow(t).repartition(5), seq_len=5, bucket_width=4
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(one.token_offset) == list(many.token_offset)
    # offsets are an exact exclusive prefix sum in doc_id order
    n = list(one.n_tokens)
    expect = [sum(n[:i]) for i in range(len(n))]
    assert list(one.token_offset) == expect


def test_chunk_documents(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["a b c d e", "x y", ""], pa.string()
                ),
            }
        )
    )
    out = (
        corpus.chunk_documents(ds, chunk_tokens=2)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    assert list(out.chunk_text) == ["a b", "c d", "e", "x y", ""]
    assert list(out.chunk_idx) == [0, 1, 2, 0, 0]
    # empty text yields ONE chunk of the single empty token (split parity)
    assert list(out.n_tokens) == [2, 2, 1, 2, 1]


def test_ngram_top_k_no_cross_doc_pairs(ray_session):
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages import corpus

    t = pa.table({"text": ["a b c", "c a", "b"]})
    out = (
        corpus.ngram_top_k(ray.data.from_arrow(t), n=2, k=10)
        .to_pandas()
        .set_index("ngram")["cnt"]
        .to_dict()
    )
    # "c c" (doc1 end -> doc2 start) and "a b" (doc2 end -> doc3) must NOT
    # appear; within-doc pairs only
    assert out == {"a b": 1, "b c": 1, "c a": 1}

    out3 = (
        corpus.ngram_top_k(ray.data.from_arrow(t), n=3, k=10)
        .to_pandas()
        .set_index("ngram")["cnt"]
        .to_dict()
    )
    assert out3 == {"a b c": 1}


def test_quota_sample_hard_budgets_and_determinism(ray_session):
    rng = np.random.RandomState(9)
    n = 3000
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "source": pa.array([f"s{int(i)}" for i in rng.randint(0, 6, n)]),
        }
    )
    quotas = {"s0": 5, "s1": 0, "s2": 300, "s3": 10**9, "s5": 1}
    outs = []
    for parts in (2, 7):
        out = (
            corpus.quota_sample(
                ray.data.from_arrow(t).repartition(parts),
                group_col="source",
                quotas=quotas,
                num_partitions=4,
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        outs.append(out)
    # identical result regardless of input sharding
    assert outs[0].equals(outs[1])
    got = outs[0].groupby("source").size().to_dict()
    full = pa.table(t).to_pandas().groupby("source").size().to_dict()
    assert got["s0"] == 5 and got["s2"] == 300 and got["s5"] == 1
    assert got["s3"] == full["s3"]  # quota above group size: keep all
    assert "s1" not in got and "s4" not in got  # zero / missing quota drop


def test_segment_dedup_matches_bruteforce(ray_session):
    rng = np.random.RandomState(21)
    vocab = [f"w{i}" for i in range(12)]
    texts = [
        " ".join(rng.choice(vocab, rng.randint(4, 30)).tolist())
        for _ in range(120)
    ]
    texts += texts[:10]  # whole-doc duplicates too
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts),
        }
    )
    sw = 3
    out = (
        corpus.segment_dedup(
            ray.data.from_arrow(t).repartition(5),
            seg_words=sw,
            num_partitions=4,
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # brute force: global first-occurrence per segment string
    seen = {}
    exp = {}
    for did, tx in enumerate(texts):
        words = tx.split(" ")
        segs = [
            " ".join(words[i : i + sw]) for i in range(0, len(words), sw)
        ]
        for si, s in enumerate(segs):
            seen.setdefault(s, (did, si))
        exp[did] = segs
    for did, segs in exp.items():
        kept = [
            s for si, s in enumerate(segs) if seen[s] == (did, si)
        ]
        if not kept:
            assert did not in out.index
            continue
        row = out.loc[did]
        assert row["text"] == " ".join(kept)
        assert row["n_segs_kept"] == len(kept)
        assert row["n_segs_total"] == len(segs)
    # the duplicate tail docs must have vanished entirely
    assert all(d not in out.index for d in range(120, 130))


def test_weighted_sample_deterministic_and_exact(ray_session):
    rng = np.random.RandomState(17)
    n = 2000
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "w": pa.array(rng.randint(1, 500, n).astype(np.int64)),
        }
    )
    K, MOD = 2246822519, 1 << 32
    pri = [
        ((i * K) % MOD * 1_000_000 // int(t["w"][i].as_py()), i)
        for i in range(n)
    ]
    exp = sorted(i for _, i in sorted(pri)[:50])
    for parts in (3, 9):
        out = (
            corpus.weighted_sample(
                ray.data.from_arrow(t).repartition(parts),
                weight_col="w",
                k=50,
            )
            .to_pandas()["doc_id"]
            .sort_values()
            .tolist()
        )
        assert out == exp
    with pytest.raises(Exception, match="negative"):
        bad = pa.table(
            {"doc_id": pa.array([1, 2]), "w": pa.array([3, -1])}
        )
        corpus.weighted_sample(
            ray.data.from_arrow(bad), weight_col="w", k=1
        ).to_pandas()


def test_bigram_pmi_matches_bruteforce(ray_session):
    from collections import Counter

    from hypertrace_ingester_ray.stages import text_analysis

    rng = np.random.RandomState(23)
    vocab = [f"t{i}" for i in range(9)]
    texts = [
        " ".join(rng.choice(vocab, rng.randint(1, 25)).tolist())
        for _ in range(200)
    ]
    pairs = Counter()
    for tx in texts:
        ws = tx.split(" ")
        for a, b in zip(ws, ws[1:]):
            pairs[(a, b)] += 1
    lc, rc = Counter(), Counter()
    for (a, b), c in pairs.items():
        lc[a] += c
        rc[b] += c
    scored = sorted(
        (
            -(c * 10**12 // (lc[a] * rc[b])),
            f"{a} {b}",
            c,
            lc[a],
            rc[b],
        )
        for (a, b), c in pairs.items()
    )[:15]
    out = (
        text_analysis.bigram_pmi(
            ray.data.from_arrow(pa.table({"text": pa.array(texts)}))
            .repartition(4),
            k=15,
        )
        .to_pandas()
        .values.tolist()
    )
    exp = [[g, c, l, r, -s] for s, g, c, l, r in scored]
    assert out == exp


def test_length_buckets_quartiles(ray_session):
    """Ties sit in the lower band; buckets are 0..len(pcts)."""
    import pyarrow as pa

    from hypertrace_ingester_ray.stages.corpus import length_buckets

    t = pa.table(
        {
            "doc_id": pa.array(list(range(8)), pa.int64()),
            "n_chars": pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
        }
    )
    out = (
        length_buckets(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # ceil-rank quartiles of 1..8: q25=2, q50=4, q75=6
    assert list(out.bucket) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_normalize_text(ray_session):
    import pyarrow as pa

    from hypertrace_ingester_ray.stages.corpus import normalize_text

    t = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["  Hello,   WORLD!! ", "Ün 你好\t42"], pa.string()),
        }
    )
    out = (
        normalize_text(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out.text_norm) == ["hello world", "ün 你好 42"]
