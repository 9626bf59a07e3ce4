"""Text-analysis operators for large-scale training-data pipelines.

These extend the engine beyond the reference's operator set (SURVEY.md §2 is
telemetry-shaped) with the document-pipeline operations a 100 TB text corpus
needs: token counting, quality scoring, language ID, fingerprinting.  All are
stateless vectorized ``map_batches`` kernels over the ``documents`` table
(``doc_id, text, lang, source, n_chars``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .grouping import combine_by_key, run_boundaries, top_k

# Tiny per-language stopword lists for the n-gram/stopword language heuristic.
# Deliberately simple + deterministic (the corpus here is synthetic); the
# operator shape (per-language token-hit scoring, argmax) is the real thing.
STOPWORDS = {
    "en": ["the", "a", "of", "and", "to"],
    "es": ["el", "la", "de", "y", "que"],
    "fr": ["le", "la", "et", "les", "des"],
    "de": ["der", "die", "und", "das", "ein"],
    "zh": ["的", "是", "了", "在", "我"],
}

QUALITY_STOPWORDS = ["the", "a", "of", "and", "to", "in", "is"]


def token_stats_batch(batch: pa.Table) -> pa.Table:
    """doc → token/char statistics (single-space tokenization, matching the
    DuckDB oracle's string_split).  Null text counts as "" (split_pattern's
    null list entries would desync flatten() offsets from rows)."""
    text = pc.fill_null(batch["text"], "")
    tokens = pc.split_pattern(text, " ")
    n_tokens = pc.cast(pc.list_value_length(tokens), pa.int64())
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": n_tokens,
            "n_chars": n_chars,
        }
    )


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """Quality signals: token count, mean token length ×100 (integer, exact),
    stopword hits — length/punct/stopword-ratio style scoring.  Null text
    scores as "" (kept, not dropped — the row still exists in the corpus)."""
    text = pc.fill_null(batch["text"], "")
    tokens = pc.split_pattern(text, " ")
    n_tokens = pc.cast(pc.list_value_length(tokens), pa.int64())
    n_chars = pc.cast(pc.utf8_length(text), pa.int64())
    # mean token length in integer permille to keep the oracle float-free:
    # (chars - spaces) * 1000 / tokens
    n_spaces = pc.subtract(n_tokens, 1)
    letters = pc.subtract(n_chars, n_spaces)
    mean_tok_len_x1000 = pc.cast(
        pc.divide(pc.multiply(letters, 1000), pc.max_element_wise(n_tokens, 1)),
        pa.int64(),
    )
    flat = tokens.combine_chunks().flatten()
    hit = pc.is_in(flat, value_set=pa.array(QUALITY_STOPWORDS))
    offsets = tokens.combine_chunks().offsets.to_numpy(zero_copy_only=False)
    hits_np = pc.cast(hit, pa.int64()).to_numpy(zero_copy_only=False)
    per_doc = np.add.reduceat(hits_np, offsets[:-1]) if len(hits_np) else np.zeros(0, np.int64)
    per_doc = np.where(np.diff(offsets) == 0, 0, per_doc)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": n_tokens,
            "mean_tok_len_x1000": mean_tok_len_x1000,
            "n_stopwords": pa.array(per_doc.astype(np.int64)),
        }
    )


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Stopword-hit argmax language ID (ties broken by language-code order).
    Null text identifies as "unknown" (scored as empty)."""
    tokens = pc.split_pattern(pc.fill_null(batch["text"], ""), " ").combine_chunks()
    flat = tokens.flatten()
    offsets = tokens.offsets.to_numpy(zero_copy_only=False)
    langs = sorted(STOPWORDS)
    scores = np.zeros((len(langs), batch.num_rows), dtype=np.int64)
    for i, lang in enumerate(langs):
        hit = pc.cast(
            pc.is_in(flat, value_set=pa.array(STOPWORDS[lang])), pa.int64()
        ).to_numpy(zero_copy_only=False)
        per_doc = (
            np.add.reduceat(hit, offsets[:-1]) if len(hit) else np.zeros(0, np.int64)
        )
        scores[i] = np.where(np.diff(offsets) == 0, 0, per_doc)
    best = np.argmax(scores, axis=0)  # first max wins → language-code order
    pred = np.array(langs, dtype=object)[best]
    pred[scores.max(axis=0) == 0] = "unknown"
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "pred_lang": pa.array(pred, pa.string()),
            "stopword_hits": pa.array(scores.max(axis=0)),
        }
    )


def fingerprint_batch(
    batch: pa.Table, ngram: int = 5, scheme: str = "siphash"
) -> pa.Table:
    """Document fingerprint: min rolling hash over word n-grams (winnowing-
    style content fingerprint for near-dup candidate generation).

    Vectorized: one ``shingle_hashes`` pass over the batch (flat token-hash
    array + rolling combine), per-doc min via ``np.minimum.reduceat``.
    Short docs (< ngram words) fingerprint their whole text — the fallback
    shingle ``shingle_hashes`` already provides.  ``scheme="poly"`` swaps the
    token hash for the SQL-mirrorable polynomial byte fold so the output is
    value-checkable against a DuckDB oracle.
    """
    from ..functions.hashing import shingle_hashes

    sh, soff = shingle_hashes(batch["text"], ngram, scheme=scheme)
    if len(sh):
        fps = np.minimum.reduceat(sh, soff[:-1]).astype(np.int64)
    else:
        fps = np.empty(0, dtype=np.int64)
    return pa.table({"doc_id": batch["doc_id"], "fingerprint": pa.array(fps)})


def token_stats(ds: Dataset) -> Dataset:
    return ds.map_batches(token_stats_batch, batch_format="pyarrow")


def quality_scores(ds: Dataset) -> Dataset:
    return ds.map_batches(quality_score_batch, batch_format="pyarrow")


def lang_id(ds: Dataset) -> Dataset:
    return ds.map_batches(lang_id_batch, batch_format="pyarrow")


def fingerprints(ds: Dataset, *, scheme: str = "siphash") -> Dataset:
    return ds.map_batches(
        fingerprint_batch, batch_format="pyarrow", fn_kwargs={"scheme": scheme}
    )


# ---------------------------------------------------------------------------
# TF-IDF top terms & inverted index (search/feature primitives)
# ---------------------------------------------------------------------------


#: default loud ceiling for driver-collected vocabularies.  ~10⁷ distinct
#: words ≈ 100s of MB broadcast — true for natural-language corpora at any
#: size; 100 TB of WEB text (typos, URLs, code) can reach 10⁹ and must use
#: the ``vocab="join"`` shuffle path instead of a driver collect.
MAX_VOCAB_DISTINCT = 10_000_000


def _df_partial_fn(text_col: str):
    """Per-batch distinct-(doc, word) document-frequency combiner (docs are
    single rows, so in-batch distinct pairs are globally distinct)."""

    def _partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_codes = max(len(enc.dictionary), 1)
        doc = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(off))
        upair = np.unique(doc * np.int64(n_codes) + codes)
        cnt = np.bincount(
            (upair % np.int64(n_codes)).astype(np.int64), minlength=n_codes
        ).astype(np.int64)
        return pa.table({"word": enc.dictionary, "df": pa.array(cnt)})

    return _partial


def corpus_df_ds(ds: Dataset, *, text_col: str = "text") -> Dataset:
    """Distributed (word, df) document-frequency table — the no-collect form
    of :func:`corpus_df`: the vocabulary never leaves the cluster, so this
    is the building block for the word-keyed shuffle-join paths
    (``vocab="join"``) that stay safe at 10⁹-word web vocabularies."""
    return combine_by_key(
        ds.map_batches(_df_partial_fn(text_col), batch_format="pyarrow"),
        "word",
        [("df", "sum")],
    )


def corpus_df(
    ds: Dataset,
    *,
    text_col: str = "text",
    max_distinct: int = MAX_VOCAB_DISTINCT,
) -> pa.Table:
    """Document frequency for EVERY word, collected to a (word, df) Arrow
    table sorted by word — the broadcast-side input of the tf-idf family.

    Loudly guarded driver collect: more than ``max_distinct`` distinct words
    raises (the global_rank contract) instead of silently materializing an
    unbounded vocabulary on the driver; callers with adversarial/web-scale
    vocabularies use the ``vocab="join"`` paths built on
    :func:`corpus_df_ds`."""
    rows = corpus_df_ds(ds, text_col=text_col).take(max_distinct + 1)
    if len(rows) > max_distinct:
        raise ValueError(
            f"corpus_df: vocabulary exceeds max_distinct={max_distinct}; "
            "a driver collect of the full vocabulary would be unbounded — "
            'use the vocab="join" path (word-keyed shuffle join) or raise '
            "the guard deliberately"
        )
    words = sorted(r["word"] for r in rows)
    dfmap = {r["word"]: r["df"] for r in rows}
    return pa.table(
        {
            "word": pa.array(words, pa.string()),
            "df": pa.array([dfmap[w] for w in words], pa.int64()),
        }
    )


def tfidf_top_terms(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    scale: int = 1_000_000,
    vocab: str = "broadcast",
    max_distinct: int = MAX_VOCAB_DISTINCT,
    num_partitions: int = 16,
) -> Dataset:
    """Top-``k`` characteristic terms per document by integer tf·idf with
    idf = 1/df (score = tf·``scale`` // df — log-free so the DuckDB mirror
    is bit-exact; the ranking favors frequent-in-doc, rare-in-corpus terms
    exactly like the log form for the common case tf ≥ 1, df spread wide).

    ``vocab="broadcast"`` (default): ONE vocabulary-sized aggregate
    broadcast via ``ray.put`` (see ``corpus_df``, loudly guarded at
    ``max_distinct``), then a single stateless ``map_batches`` pass —
    per-doc tf and the segmented top-k rank never leave the batch (docs
    are single rows).  No per-doc shuffle at all.

    ``vocab="join"``: the scale path for vocabularies beyond the driver
    (10⁹-word web corpora) — distinct (doc, word, tf) pairs are shuffle-
    joined against the distributed :func:`corpus_df_ds` table on the word
    key, then one doc-keyed exchange ranks the top-k.  Identical output
    (pytest-checked), three exchanges instead of zero, unbounded
    vocabulary.

    Ties break by word ascending.  Emits (id, word, tf, df, score, rank).
    """
    import ray as _ray

    if vocab == "join":
        return _tfidf_top_terms_join(
            ds,
            id_col=id_col,
            text_col=text_col,
            k=k,
            scale=scale,
            num_partitions=num_partitions,
        )
    if vocab != "broadcast":
        raise ValueError(f"tfidf_top_terms: unknown vocab strategy {vocab!r}")
    df_ref = _ray.put(
        corpus_df(ds, text_col=text_col, max_distinct=max_distinct)
    )

    def _topk(batch: pa.Table) -> pa.Table:
        dft = _ray.get(df_ref)
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_codes = max(len(enc.dictionary), 1)
        doc = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(off))
        pair, tf = np.unique(doc * np.int64(n_codes) + codes, return_counts=True)
        pdoc = (pair // n_codes).astype(np.int64)
        pcode = (pair % n_codes).astype(np.int64)
        # df lookup: batch-dictionary position in the broadcast vocab
        vidx = pc.index_in(enc.dictionary, value_set=dft["word"])
        vidx = vidx.to_numpy(zero_copy_only=False)
        dfv = dft["df"].to_numpy(zero_copy_only=False)[vidx[pcode]]
        score = tf.astype(np.int64) * np.int64(scale) // dfv
        words = np.asarray(enc.dictionary.to_numpy(zero_copy_only=False))[pcode]
        order = np.lexsort((words, -score, pdoc))
        seg = run_boundaries(pdoc[order])
        from .grouping import segment_ids_from_boundaries, segmented_cumcount

        rank = segmented_cumcount(segment_ids_from_boundaries(seg))
        keep = order[rank < k]
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: pa.array(ids[pdoc[keep]]),
                "word": pa.array(words[keep], pa.string()),
                "tf": pa.array(tf[keep].astype(np.int64)),
                "df": pa.array(dfv[keep].astype(np.int64)),
                "score": pa.array(score[keep]),
                "rank": pa.array(rank[rank < k], pa.int64()),
            }
        )

    return ds.map_batches(_topk, batch_format="pyarrow")


def _doc_word_tf_pairs(ds: Dataset, id_col: str, text_col: str) -> Dataset:
    """Explode docs into distinct (id, word, tf) rows — globally distinct
    because docs are single rows.  Shared by the vocab="join" paths."""

    def _pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_codes = max(len(enc.dictionary), 1)
        doc = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(off))
        pair, tf = np.unique(doc * np.int64(n_codes) + codes, return_counts=True)
        pdoc = (pair // n_codes).astype(np.int64)
        pcode = (pair % n_codes).astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        words = np.asarray(enc.dictionary.to_numpy(zero_copy_only=False))[pcode]
        return pa.table(
            {
                id_col: pa.array(ids[pdoc]),
                "word": pa.array(words, pa.string()),
                "tf": pa.array(tf.astype(np.int64)),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        _pairs, batch_format="pyarrow"
    )


def _tfidf_top_terms_join(
    ds: Dataset,
    *,
    id_col: str,
    text_col: str,
    k: int,
    scale: int,
    num_partitions: int,
) -> Dataset:
    """Word-keyed shuffle-join tf-idf (the unbounded-vocabulary path): the
    df table stays a distributed Dataset; (doc, word, tf) pairs join it on
    the word hash; one final doc-keyed exchange ranks top-k.  Output is
    row-identical to the broadcast path."""
    from .grouping import group_apply, segment_ids_from_boundaries, segmented_cumcount
    from .joins import cogroup_join

    pairs = _doc_word_tf_pairs(ds, id_col, text_col)
    dfds = corpus_df_ds(ds, text_col=text_col)
    joined = cogroup_join(
        pairs, dfds, on=["word"], num_partitions=num_partitions
    )

    def _score(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        dfv = batch["df"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "score", pa.array(tf * np.int64(scale) // dfv)
        )

    scored = joined.map_batches(_score, batch_format="pyarrow")

    def _topk_part(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "word": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "score": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        # part arrives key-grouped (sorted by id) from group_apply
        idc = (
            part[id_col]
            .combine_chunks()
            .dictionary_encode()
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        words = part["word"].to_numpy(zero_copy_only=False)
        score = part["score"].to_numpy(zero_copy_only=False)
        order = np.lexsort((words, -score, idc))
        seg = run_boundaries(idc[order])
        rank = segmented_cumcount(segment_ids_from_boundaries(seg))
        keep = order[rank < k]
        out = part.take(pa.array(keep)).append_column(
            "rank", pa.array(rank[rank < k].astype(np.int64))
        )
        return out.select([id_col, "word", "tf", "df", "score", "rank"])

    return group_apply(
        scored, id_col, _topk_part, num_partitions=num_partitions
    )


def inverted_index(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 16,
) -> Dataset:
    """Build an inverted index: word → sorted posting list of the documents
    containing it, plus the document frequency.  Postings are emitted as a
    comma-joined string column (oracle-comparable; a training/search
    consumer would read the list form upstream of the join).

    Shape: distinct (word, doc) pairs explode in ``map_batches`` (in-batch
    distinct is globally distinct — docs are single rows), then ONE hash
    exchange keyed by word colocates each posting list; the per-partition
    kernel is a lexsort + ``ListArray`` + ``binary_join`` — no per-word
    Python.  Skew note: at 100 TB, stopword-grade terms produce posting
    lists of ~n_docs; cap or drop terms above a df ceiling upstream
    (``remove_common_words``' hot set is exactly that filter) before
    building an index meant for serving."""
    from .grouping import group_apply

    def _pairs(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets)
        enc = flat.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_codes = max(len(enc.dictionary), 1)
        doc = np.repeat(np.arange(len(toks), dtype=np.int64), np.diff(off))
        pair = np.unique(doc * np.int64(n_codes) + codes)
        pdoc = (pair // n_codes).astype(np.int64)
        pcode = (pair % n_codes).astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        words = np.asarray(enc.dictionary.to_numpy(zero_copy_only=False))[pcode]
        return pa.table(
            {
                "word": pa.array(words, pa.string()),
                id_col: pa.array(ids[pdoc]),
            }
        )

    pairs = ds.map_batches(_pairs, batch_format="pyarrow")

    def _lists(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "postings": pa.array([], pa.string()),
                }
            )
        # part arrives sorted by (word, id) from group_apply
        w = part["word"]
        bounds = run_boundaries(
            w.combine_chunks().dictionary_encode().indices.to_numpy(
                zero_copy_only=False
            )
        )
        ids_str = pc.cast(part[id_col], pa.string()).combine_chunks()
        lists = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()), ids_str
        )
        return pa.table(
            {
                "word": w.take(pa.array(bounds[:-1])),
                "df": pa.array(np.diff(bounds).astype(np.int64)),
                "postings": pc.binary_join(lists, ","),
            }
        )

    return group_apply(
        pairs, "word", _lists, sort_by=[id_col], num_partitions=num_partitions
    )


def bigram_pmi(
    ds: Dataset,
    *,
    text_col: str = "text",
    k: int = 40,
    scale: int = 10**12,
    vocab: str = "broadcast",
    max_distinct: int = MAX_VOCAB_DISTINCT,
    num_partitions: int = 16,
) -> Dataset:
    """Top-``k`` collocations by integer PMI: rank adjacent word pairs by
    ``pair_cnt * scale // (left_cnt * right_cnt)`` where the marginals are
    bigram-occurrence sums (``left_cnt = Σ_b pair(a,b)``).  The corpus-total
    factor of true PMI is constant across pairs, so the log-free integer
    ratio yields the identical ranking — and is bit-exact against a HUGEINT
    SQL mirror (same ``//`` floors, ties by ngram ascending).

    Scale shape: the pair table is built with the same in-batch combiner as
    :func:`~.corpus.ngram_top_k` (adjacency-masked, cross-document pairs
    excluded), aggregated once by ngram; with ``vocab="broadcast"``
    (default) the two marginal tables are vocabulary-sized and broadcast
    via ``ray.put`` — LOUDLY guarded at ``max_distinct`` — while
    ``vocab="join"`` shuffle-joins the pair table against the distributed
    marginals on each word key (identical output, pytest-checked, no
    driver vocabulary).  Scoring is one vectorized pass.  Guards: pair
    counts above ``2^63 // scale`` raise loudly (int64 scoring
    overflow)."""
    import ray as _ray

    from .corpus import ngram_counts

    pairs = ngram_counts(ds, text_col=text_col, n=2)
    if vocab == "join":
        return _bigram_pmi_join(
            pairs, k=k, scale=scale, num_partitions=num_partitions
        )
    if vocab != "broadcast":
        raise ValueError(f"bigram_pmi: unknown vocab strategy {vocab!r}")

    def _marginal_partial(t: pa.Table) -> pa.Table:
        s = pc.split_pattern(t["ngram"], " ")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        return pa.concat_tables(
            [
                pa.table(
                    {
                        "side": pa.array([side] * t.num_rows),
                        "word": pc.list_element(s, idx),
                        "cnt": t["cnt"],
                    }
                )
                for side, idx in (("l", 0), ("r", 1))
            ]
        )

    left: dict = {}
    right: dict = {}
    # vocabulary-sized by construction (≤ 2·vocab rows)
    marg_rows = combine_by_key(
        pairs.map_batches(_marginal_partial, batch_format="pyarrow"),
        ["side", "word"],
        [("cnt", "sum")],
    ).take(2 * max_distinct + 1)
    if len(marg_rows) > 2 * max_distinct:
        raise ValueError(
            f"bigram_pmi: marginal vocabulary exceeds max_distinct="
            f"{max_distinct}; a driver collect would be unbounded — use "
            'vocab="join" or raise the guard deliberately'
        )
    for row in marg_rows:
        d = left if row["side"] == "l" else right
        d[row["word"]] = int(row["cnt"])
    lr_ref = _ray.put((left, right))

    def _score(t: pa.Table) -> pa.Table:
        lcnt, rcnt = _ray.get(lr_ref)
        s = pc.split_pattern(t["ngram"], " ")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        lw = pc.list_element(s, 0).to_numpy(zero_copy_only=False)
        rw = pc.list_element(s, 1).to_numpy(zero_copy_only=False)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        if len(cnt) and cnt.max() > (2**63 - 1) // scale:
            raise OverflowError(
                "bigram_pmi: pair count too large for int64 scoring; "
                "lower `scale`"
            )
        lu, li = np.unique(lw, return_inverse=True)
        ru, ri = np.unique(rw, return_inverse=True)
        la = np.array([lcnt[w] for w in lu], dtype=np.int64)[li]
        ra = np.array([rcnt[w] for w in ru], dtype=np.int64)[ri]
        return pa.table(
            {
                "ngram": t["ngram"],
                "pair_cnt": t["cnt"],
                "left_cnt": pa.array(la),
                "right_cnt": pa.array(ra),
                "pmi_x1e12": pa.array(cnt * scale // (la * ra)),
            }
        )

    return top_k(
        pairs.map_batches(_score, batch_format="pyarrow"),
        [("pmi_x1e12", "descending"), ("ngram", "ascending")],
        k,
    )


def _bigram_pmi_join(
    pairs: Dataset, *, k: int, scale: int, num_partitions: int
) -> Dataset:
    """Word-keyed shuffle-join PMI (the unbounded-vocabulary path): the two
    marginal tables stay distributed Datasets and the bigram table joins
    each on its word key (two chained cogroup joins), so no vocabulary ever
    reaches the driver.  Output is row-identical to the broadcast path."""
    from .joins import cogroup_join

    def _split(t: pa.Table) -> pa.Table:
        s = pc.split_pattern(t["ngram"], " ")
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        return t.append_column("lw", pc.list_element(s, 0)).append_column(
            "rw", pc.list_element(s, 1)
        )

    # pw feeds THREE consumers (both marginals + j1's probe side):
    # materialize once so the upstream ngram_counts shuffle runs once, not
    # three times — block-level object-store residency, not a driver
    # collect (the skew_join single-scan discipline)
    pw = pairs.map_batches(_split, batch_format="pyarrow").materialize()

    def _marginal(col: str, out: str) -> Dataset:
        def _partial(t: pa.Table) -> pa.Table:
            return t.select([col, "cnt"]).rename_columns(["word", out])

        return combine_by_key(
            pw.map_batches(_partial, batch_format="pyarrow"), "word", [(out, "sum")]
        )

    lm = _marginal("lw", "left_cnt")
    rm = _marginal("rw", "right_cnt")
    j1 = cogroup_join(
        pw, lm, on=["lw"], right_on=["word"], num_partitions=num_partitions
    )
    j2 = cogroup_join(
        j1, rm, on=["rw"], right_on=["word"], num_partitions=num_partitions
    )

    def _score(t: pa.Table) -> pa.Table:
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        if len(cnt) and cnt.max() > (2**63 - 1) // scale:
            raise OverflowError(
                "bigram_pmi: pair count too large for int64 scoring; "
                "lower `scale`"
            )
        la = t["left_cnt"].to_numpy(zero_copy_only=False)
        ra = t["right_cnt"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "ngram": t["ngram"],
                "pair_cnt": t["cnt"],
                "left_cnt": t["left_cnt"],
                "right_cnt": t["right_cnt"],
                "pmi_x1e12": pa.array(cnt * scale // (la * ra)),
            }
        )

    return top_k(
        j2.map_batches(_score, batch_format="pyarrow"),
        [("pmi_x1e12", "descending"), ("ngram", "ascending")],
        k,
    )


def unigram_surprisal(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    scale: int = 10**6,
    vocab: str = "broadcast",
    max_distinct: int = MAX_VOCAB_DISTINCT,
    num_partitions: int = 16,
) -> Dataset:
    """CCNet-style LM quality proxy: score every document by its mean
    inverse corpus unigram frequency — ``rarity = (Σ_t total*scale//cnt[t])
    // n_tokens`` over the document's tokens.  Rare-token-dense documents
    (gibberish, OCR noise, boilerplate-free tails) score high, common-word
    prose scores low; CCNet buckets its corpus into head/middle/tail on
    exactly this kind of LM score.  The log-free integer form preserves the
    ranking of a unigram-LM cross-entropy (both are monotone in mean
    inverse frequency) and is bit-exact against a HUGEINT SQL mirror —
    a float KenLM-style scorer would be rows-only checkable.

    Scale shape, ``vocab="broadcast"`` (default): pass 1 is the corpus
    unigram count table (in-batch ``value_counts`` combiner → one
    vocabulary-bounded :func:`combine_by_key` exchange), collected — LOUDLY guarded at
    ``max_distinct`` — and broadcast via ``ray.put``.  Pass 2 is one
    vectorized batch pass: split → dictionary-encode → per-DISTINCT-word
    lookup fanned out via codes → ``np.add.reduceat`` per-document sums.
    ``vocab="join"`` is the unbounded-vocabulary path: (doc, word, tf)
    pairs shuffle-join the distributed count table on the word key, then
    one doc-keyed exchange sums — identical output (pytest-checked), no
    driver vocabulary.  Guards: both the per-word term (``total*scale``)
    and the per-document sum are checked against int64 and raise loudly —
    never a silent wrap.

    Emits (id_col, n_tokens:int64, rarity_x1e6:int64).
    """
    import ray as _ray

    def _count_partial(batch: pa.Table) -> pa.Table:
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

    count_agg = combine_by_key(
        ds.map_batches(_count_partial, batch_format="pyarrow"), "word", [("cnt", "sum")]
    )
    if vocab == "join":
        return _unigram_surprisal_join(
            ds,
            count_agg,
            text_col=text_col,
            id_col=id_col,
            scale=scale,
            num_partitions=num_partitions,
        )
    if vocab != "broadcast":
        raise ValueError(
            f"unigram_surprisal: unknown vocab strategy {vocab!r}"
        )
    rows = count_agg.take(max_distinct + 1)
    if len(rows) > max_distinct:
        raise ValueError(
            f"unigram_surprisal: vocabulary exceeds max_distinct="
            f"{max_distinct}; a driver collect would be unbounded — use "
            'vocab="join" or raise the guard deliberately'
        )
    counts = {row["word"]: int(row["cnt"]) for row in rows}
    total = sum(counts.values())
    if total > (2**63 - 1) // scale:
        raise OverflowError(
            "unigram_surprisal: corpus token total too large for int64 "
            "scoring at this scale; lower `scale`"
        )
    cnt_ref = _ray.put(counts)

    def _score(batch: pa.Table) -> pa.Table:
        cmap = _ray.get(cnt_ref)
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets, dtype=np.int64)
        n_tok = np.diff(off)
        enc = flat.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        inv = np.array(
            [total * scale // cmap[w] for w in uniq], dtype=np.int64
        )
        per_tok = inv[enc.indices.to_numpy(zero_copy_only=False)]
        sums = np.zeros(batch.num_rows, dtype=np.int64)
        nz = n_tok > 0
        if per_tok.size:
            # float shadow-sum with a 2x margin (53-bit mantissa) catches
            # any document whose exact int64 sum could wrap
            shadow = np.add.reduceat(per_tok.astype(np.float64), off[:-1][nz])
            if shadow.size and shadow.max() > float(2**62):
                raise OverflowError(
                    "unigram_surprisal: per-document rarity sum would "
                    "overflow int64; lower `scale`"
                )
            sums[nz] = np.add.reduceat(per_tok, off[:-1][nz])
        rarity = np.zeros(batch.num_rows, dtype=np.int64)
        rarity[nz] = sums[nz] // n_tok[nz]
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": pa.array(n_tok),
                "rarity_x1e6": pa.array(rarity),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        _score, batch_format="pyarrow"
    )


def _unigram_surprisal_join(
    ds: Dataset,
    count_agg: Dataset,
    *,
    text_col: str,
    id_col: str,
    scale: int,
    num_partitions: int,
) -> Dataset:
    """Word-keyed shuffle-join surprisal (the unbounded-vocabulary path).
    The count table stays distributed; (doc, word, tf) pairs join it on the
    word hash; per-pair contribution = tf · (total·scale // cnt); one
    doc-keyed exchange sums.  Zero-token docs ride a parallel (id, n_tok,
    0) stream so every input row appears in the output, exactly like the
    broadcast path.  Only ``total`` (one int) reaches the driver."""
    from .grouping import group_apply, segmented_sum
    from .joins import cogroup_join

    # count_agg feeds TWO consumers (the total reduction and the join's
    # build side); combine_by_key's result is already materialized, so the
    # corpus-wide count aggregation runs once
    total = 0
    for row in count_agg.map_batches(
        lambda t: pa.table(
            {"s": pa.array([pc.sum(t["cnt"]).as_py() or 0], pa.int64())}
        ),
        batch_format="pyarrow",
    ).take_all():
        total += int(row["s"])
    if total > (2**63 - 1) // scale:
        raise OverflowError(
            "unigram_surprisal: corpus token total too large for int64 "
            "scoring at this scale; lower `scale`"
        )

    pairs = _doc_word_tf_pairs(ds, id_col, text_col)
    joined = cogroup_join(
        pairs, count_agg, on=["word"], num_partitions=num_partitions
    )

    def _contrib(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False)
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        inv = total * scale // cnt
        # float shadow with 2x margin: catches per-pair products that
        # could wrap int64 (mirrors the broadcast path's per-doc check)
        if tf.size and (tf.astype(np.float64) * inv.astype(np.float64)).max() > float(
            2**62
        ):
            raise OverflowError(
                "unigram_surprisal: per-pair contribution would overflow "
                "int64; lower `scale`"
            )
        return pa.table(
            {
                id_col: batch[id_col],
                "contrib": pa.array(tf * inv),
            }
        )

    contribs = joined.map_batches(_contrib, batch_format="pyarrow")

    # parallel per-doc token-count stream: guarantees zero-token docs (no
    # pairs at all) still emit a row, and carries n_tokens for the divisor
    def _base(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        off = np.asarray(toks.offsets, dtype=np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "contrib": pa.array(np.diff(off) * np.int64(-1)),
            }
        )

    # n_tok rides as NEGATIVE contrib values in the same stream (one
    # exchange instead of two column-aligned ones): per doc,
    # sum(neg) = -n_tok and sum(pos) = rarity numerator
    base = ds.select_columns([id_col, text_col]).map_batches(
        _base, batch_format="pyarrow"
    )

    def _final(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "rarity_x1e6": pa.array([], pa.int64()),
                }
            )
        idc = (
            part[id_col]
            .combine_chunks()
            .dictionary_encode()
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        c = part["contrib"].to_numpy(zero_copy_only=False)
        bounds = run_boundaries(idc)
        pos = np.where(c > 0, c, 0)
        neg = np.where(c < 0, -c, 0)
        # float shadow on the per-doc sum (2x margin) before the int64 sum
        shadow = segmented_sum(pos.astype(np.float64), bounds)
        if shadow.size and shadow.max() > float(2**62):
            raise OverflowError(
                "unigram_surprisal: per-document rarity sum would "
                "overflow int64; lower `scale`"
            )
        sums = segmented_sum(pos, bounds).astype(np.int64)
        n_tok = segmented_sum(neg, bounds).astype(np.int64)
        rarity = np.zeros(len(sums), dtype=np.int64)
        nz = n_tok > 0
        rarity[nz] = sums[nz] // n_tok[nz]
        firsts = pa.array(bounds[:-1])
        return pa.table(
            {
                id_col: part[id_col].take(firsts),
                "n_tokens": pa.array(n_tok),
                "rarity_x1e6": pa.array(rarity),
            }
        )

    return group_apply(
        contribs.union(base), id_col, _final, num_partitions=num_partitions
    )


# GPT-2-style pre-tokenizer regex, RE2-compatible (RE2 has no lookahead, so
# the original's trailing-space lookahead branch is folded into plain \s+).
# Both pyarrow's count_substring_regex and DuckDB's regexp_extract_all are
# RE2, so the count is bit-identical on both sides of the oracle.
BPE_TOKEN_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def bpe_token_counts(
    ds: Dataset, *, text_col: str = "text", id_col: str = "doc_id"
) -> Dataset:
    """Token counting with BOTH conventions a training pipeline budgets in:
    whitespace words and BPE-ish pre-tokenizer pieces (the GPT-2 regex
    families of contractions / letter-runs / digit-runs / punctuation-runs).
    Piece counts are what sequence packing and cost estimates actually need
    — whitespace counts undercount code and CJK text badly.

    One vectorized pass, zero shuffles: ``pc.count_substring_regex`` runs
    the compiled RE2 scan per batch.  Emits (id_col, n_ws_tokens:int64,
    n_bpe_tokens:int64).
    """

    def _count(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        ws = pc.cast(
            pc.list_value_length(pc.split_pattern(text, " ")), pa.int64()
        )
        bpe = pc.cast(
            pc.count_substring_regex(text, BPE_TOKEN_PATTERN), pa.int64()
        )
        return pa.table(
            {id_col: batch[id_col], "n_ws_tokens": ws, "n_bpe_tokens": bpe}
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        _count, batch_format="pyarrow"
    )


def bm25_topk(
    ds: Dataset,
    queries: "dict[int, list[str]]",
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 10,
    k1_x100: int = 120,
    b_x100: int = 75,
    idf_scale: int = 10**6,
    tf_scale: int = 10**3,
) -> pa.Table:
    """Integer BM25-variant retrieval: top-``k`` documents per query by

        score(d, q) = Σ_{t∈q}  IDF(t) · TFW(t, d)
        IDF(t)   = N·idf_scale // (df_t + 1)
        TFW(t,d) = tf·(100+k1_x100)·tf_scale // DEN
        DEN      = tf·100 + (k1_x100·X) // 100
        X        = 100 − b_x100 + (b_x100·L100) // 100
        L100     = dl·N·100 // total_tokens            (dl/avgdl ×100)

    i.e. BM25's exact tf-saturation and length-normalization shape with an
    integer reciprocal-df surrogate in place of the log idf — every division
    floors, so the score is bit-exact against a HUGEINT SQL mirror (the
    same trade :func:`bigram_pmi` makes; a float log-idf BM25 would be
    rows-only checkable).  Ties rank by doc id ascending.

    Scale shape: pass 1 aggregates N, total_tokens and per-term df (term-
    list-sized, broadcast back); pass 2 is one vectorized batch scan
    emitting a LOCAL top-k per query per batch, merged on the driver —
    bounded by tasks × |queries| × k, the :func:`~.similarity.knn_bruteforce`
    contract.  Loud int64 overflow guard on the maximum possible
    contribution.  Returns (query_id, doc_id, score:int64, rank:int64).
    """
    import ray as _ray

    from .grouping import run_boundaries

    terms = sorted({t for ts in queries.values() for t in ts})
    term_arr = pa.array(terms, pa.string())

    def _stats(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets, dtype=np.int64)
        names = ["\x00N", "\x00T"]
        vals = [batch.num_rows, len(flat)]
        for t in terms:
            per_tok = pc.cast(
                pc.equal(flat, pa.scalar(t)), pa.int64()
            ).to_numpy(zero_copy_only=False)
            # empty/null-text docs have zero-length segments; off[:-1] may
            # then contain len(flat) (trailing empties), which reduceat
            # rejects — index only the non-empty segments and scatter back
            per_doc = np.zeros(len(off) - 1, np.int64)
            seg_nz = np.diff(off) > 0
            if per_tok.size and seg_nz.any():
                per_doc[seg_nz] = np.add.reduceat(per_tok, off[:-1][seg_nz])
            names.append(t)
            vals.append(int((per_doc > 0).sum()))
        return pa.table(
            {"key": pa.array(names), "val": pa.array(vals, pa.int64())}
        )

    agg = {
        r["key"]: int(r["val"])
        for r in combine_by_key(
            ds.map_batches(_stats, batch_format="pyarrow"), "key", [("val", "sum")]
        ).take_all()
    }
    if "\x00N" not in agg:  # zero blocks: the corpus is certainly empty
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    n_docs, total_tok = agg["\x00N"], agg["\x00T"]
    df = {t: agg.get(t, 0) for t in terms}
    max_idf = n_docs * idf_scale // 1
    max_tfw = (100 + k1_x100) * tf_scale // 100 + 1
    if max_idf * max_tfw * max(len(ts) for ts in queries.values()) > 2**63 - 1:
        raise OverflowError(
            "bm25_topk: max score would overflow int64; lower idf_scale/"
            "tf_scale"
        )
    state_ref = _ray.put(
        {"queries": queries, "df": df, "N": n_docs, "T": total_tok}
    )

    def _score(batch: pa.Table) -> pa.Table:
        st = _ray.get(state_ref)
        N, T = st["N"], st["T"]
        toks = pc.split_pattern(batch[text_col], " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.flatten()
        off = np.asarray(toks.offsets, dtype=np.int64)
        dl = np.diff(off)
        docs = batch[id_col].to_numpy(zero_copy_only=False)
        # shared per-term tf vectors (terms may appear in several queries)
        tf_by_term = {}
        for t in set(st["df"]):
            per_tok = pc.cast(
                pc.equal(flat, pa.scalar(t)), pa.int64()
            ).to_numpy(zero_copy_only=False)
            # same trailing-empty-segment guard as _stats: reduceat cannot
            # take an index == len(per_tok)
            tf = np.zeros(len(off) - 1, np.int64)
            seg_nz = dl > 0
            if per_tok.size and seg_nz.any():
                tf[seg_nz] = np.add.reduceat(per_tok, off[:-1][seg_nz])
            tf_by_term[t] = tf
        L100 = dl.astype(np.int64) * N * 100 // max(T, 1)
        X = 100 - b_x100 + (b_x100 * L100) // 100
        out_q, out_d, out_s = [], [], []
        for qid, ts in st["queries"].items():
            score = np.zeros(batch.num_rows, dtype=np.int64)
            for t in ts:
                tf = tf_by_term[t]
                idf = N * idf_scale // (st["df"][t] + 1)
                den = tf * 100 + (k1_x100 * X) // 100
                nz = tf > 0
                tfw = np.zeros_like(tf)
                tfw[nz] = tf[nz] * (100 + k1_x100) * tf_scale // den[nz]
                score += idf * tfw
            nzs = np.flatnonzero(score > 0)
            if not len(nzs):
                continue
            order = np.lexsort((docs[nzs], -score[nzs]))[:k]
            sel = nzs[order]
            out_q.append(np.full(len(sel), qid, dtype=np.int64))
            out_d.append(docs[sel])
            out_s.append(score[sel])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                "doc_id": pa.array(np.concatenate(out_d)),
                "score": pa.array(np.concatenate(out_s)),
            }
        )

    partials = ds.select_columns([id_col, text_col]).map_batches(
        _score, batch_format="pyarrow"
    )
    parts = [_ray.get(r) for r in partials.to_arrow_refs()]
    if not parts:
        parts = [
            pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.int64()),
                }
            )
        ]
    tbl = pa.concat_tables(parts)  # tasks × |queries| × k rows: small
    qid = tbl["query_id"].to_numpy(zero_copy_only=False)
    did = tbl["doc_id"].to_numpy(zero_copy_only=False)
    sc = tbl["score"].to_numpy(zero_copy_only=False)
    order = np.lexsort((did, -sc, qid))
    qid, did, sc = qid[order], did[order], sc[order]
    bounds = run_boundaries(qid)
    pos = np.arange(len(qid)) - np.repeat(bounds[:-1], np.diff(bounds))
    keep = pos < k
    return pa.table(
        {
            "query_id": pa.array(qid[keep]),
            "doc_id": pa.array(did[keep]),
            "score": pa.array(sc[keep]),
            "rank": pa.array((pos[keep] + 1).astype(np.int64)),
        }
    )
