"""Operations over open-ended attribute map columns (map<string,string>).

The reference carries arbitrary span tags in ``Event.attributes`` and filters
them by prefix allow/deny lists — ``TagsFilter``: keep a key unless it
matches an ``allowed.attributes.prefixes`` entry and is not in the explicit
allow-list (/root/reference/span-normalizer/span-normalizer/src/main/java/
org/hypertrace/core/spannormalizer/jaeger/TagsFilter.java:65-100).  Keys are
lower-cased at ingest (EventBuilder.java:73-83).

The flagship transcript schema keeps extracted fields as narrow first-class
columns (SURVEY.md §7.5), so these operators serve pipelines that do carry a
map column.  All are vectorized over the flattened keys/items arrays — no
per-row Python.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def lowercase_map_keys(col: pa.ChunkedArray) -> pa.Array:
    """Lower-case every key (EventBuilder.java:73-83 ingest normalization)."""
    arr = col.combine_chunks()
    keys = pc.utf8_lower(arr.keys)
    return pa.MapArray.from_arrays(arr.offsets, keys, arr.items)


def filter_map_keys(
    col: pa.ChunkedArray,
    *,
    denied_prefixes: Sequence[str] = (),
    allow_list: Sequence[str] = (),
) -> pa.Array:
    """TagsFilter semantics (TagsFilter.java:65-100): drop an entry when its
    key starts with any denied prefix, unless the key is explicitly allowed.
    """
    arr = col.combine_chunks()
    keys = arr.keys
    keep = np.ones(len(keys), dtype=bool)
    for prefix in denied_prefixes:
        hit = pc.starts_with(keys, prefix).to_numpy(zero_copy_only=False)
        keep &= ~hit
    if allow_list:
        allowed = pc.is_in(keys, value_set=pa.array(list(allow_list))).to_numpy(
            zero_copy_only=False
        )
        keep |= allowed

    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    # new offsets = cumulative count of kept entries at each old offset
    kept_cum = np.concatenate(([0], np.cumsum(keep.astype(np.int64))))
    new_offsets = pa.array(kept_cum[offsets].astype(np.int32))
    idx = pa.array(np.flatnonzero(keep))
    return pa.MapArray.from_arrays(new_offsets, keys.take(idx), arr.items.take(idx))


def map_get(col: pa.ChunkedArray, key: str) -> pa.Array:
    """Vectorized ``attributes[key]`` extraction (first match per row)."""
    return map_get_many(col, [key])[key]


def map_get_many(col: pa.ChunkedArray, wanted) -> dict:
    """Extract several map keys in ONE pass over the entries.

    Map keys are low-cardinality, so the entry keys are dictionary-encoded
    once and each wanted key costs an integer-code compare instead of a
    string scan — k keys share one child traversal."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    keys = arr.keys
    n = len(arr)
    items_type = arr.items.type
    out: dict = {}
    if len(keys) == 0:
        return {k: pa.nulls(n, items_type) for k in wanted}
    enc = keys.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    code_of = {v: i for i, v in enumerate(enc.dictionary.to_pylist())}
    offsets = arr.offsets.to_numpy(zero_copy_only=False)
    base = offsets[0]
    for key in wanted:
        c = code_of.get(key)
        if c is None:
            out[key] = pa.nulls(n, items_type)
            continue
        out_idx = np.full(n, -1, dtype=np.int64)
        hit_pos = np.flatnonzero(codes == c)
        hit_pos = hit_pos[(hit_pos >= base) & (hit_pos < offsets[-1])]
        if len(hit_pos):
            # row of each hit = searchsorted into offsets; FIRST hit per row
            rows = np.searchsorted(offsets, hit_pos, side="right") - 1
            first = np.unique(rows, return_index=True)[1]
            out_idx[rows[first]] = hit_pos[first]
        matched = out_idx >= 0
        values = arr.items.take(pa.array(np.where(matched, out_idx, 0)))
        out[key] = pc.if_else(pa.array(matched), values, pa.nulls(n, items_type))
    return out


# ---------------------------------------------------------------------------
# E8 — HTTP query-string parsing (HttpAttributeEnricher analog)
# ---------------------------------------------------------------------------

QUERY_PARAM_PREFIX = "http.request.query.param."


def _url_decode_unique(vals: pa.Array) -> pa.Array:
    """URL-decode a string array; the Python ``unquote`` runs once per
    DISTINCT value (dictionary-encode → decode uniques → take)."""
    from urllib.parse import unquote

    enc = vals.dictionary_encode()
    decoded = pa.array(
        [None if v is None else unquote(v) for v in enc.dictionary.to_pylist()],
        pa.string(),
    )
    return decoded.take(enc.indices)


def parse_query_params(
    query_col, *, key_prefix: str = QUERY_PARAM_PREFIX
) -> pa.MapArray:
    """Parse ``k=v&k2=v2`` query strings into a ``map<string,string>`` column
    (HttpAttributeEnricher.java:38-81 semantics): keys lower-cased and
    prefixed, values URL-decoded, repeated keys joined with ``,`` (the
    multi-value param list).  Fully vectorized: one split per level, run-
    boundary grouping, ``pc.binary_join`` for the multi-value merge.
    """
    arr = query_col.combine_chunks() if isinstance(query_col, pa.ChunkedArray) else query_col
    n = len(arr)
    parts = pc.split_pattern(pc.fill_null(arr, ""), "&")
    if isinstance(parts, pa.ChunkedArray):
        parts = parts.combine_chunks()
    flat = parts.flatten()
    off = np.asarray(parts.offsets, dtype=np.int64)
    off = off - off[0]
    keep = (
        pc.and_(pc.not_equal(flat, ""), pc.match_substring(flat, "="))
        .to_numpy(zero_copy_only=False)
        .astype(bool)
    )
    pos = np.flatnonzero(keep)
    if len(pos) == 0:
        empty_off = pa.array(np.zeros(n + 1, dtype=np.int32))
        return pa.MapArray.from_arrays(
            empty_off, pa.array([], pa.string()), pa.array([], pa.string())
        )
    rows = np.searchsorted(off, pos, side="right") - 1

    def _arr(x):
        return x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x

    kv = pc.split_pattern(flat.take(pa.array(pos)), "=", max_splits=1)
    keys = _arr(pc.utf8_lower(pc.list_element(kv, 0)))
    vals = _url_decode_unique(_arr(pc.list_element(kv, 1)))

    # group (row, key) runs → comma-join multi-values, vectorized.  Entries
    # within a row are ordered by key STRING (each dictionary entry's sorted
    # rank), not by dictionary code: codes follow first appearance in the
    # whole call, which would make a row's map depend on its call-mates
    keys_codes = keys.dictionary_encode()
    rank = np.empty(len(keys_codes.dictionary), dtype=np.int64)
    rank[pc.sort_indices(keys_codes.dictionary).to_numpy()] = np.arange(len(rank))
    kc = rank[keys_codes.indices.to_numpy(zero_copy_only=False)]
    order = np.lexsort((kc, rows))
    rows_s, kc_s = rows[order], kc[order]
    vals_s = _arr(vals.take(pa.array(order)))
    keys_s = _arr(keys.take(pa.array(order)))
    grp = np.ones(len(order), dtype=bool)
    if len(order):
        grp[1:] = (rows_s[1:] != rows_s[:-1]) | (kc_s[1:] != kc_s[:-1])
    gstart = np.flatnonzero(grp)
    gbounds = np.concatenate([gstart, [len(order)]])
    joined = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(gbounds.astype(np.int32)), vals_s),
        ",",
    )
    gkeys = keys_s.take(pa.array(gstart))
    if key_prefix:
        gkeys = pc.binary_join_element_wise(key_prefix, gkeys, "")
    grow = rows_s[gstart]
    per_row = np.bincount(grow, minlength=n)
    map_off = np.concatenate([[0], np.cumsum(per_row)]).astype(np.int32)
    return pa.MapArray.from_arrays(pa.array(map_off), gkeys, joined)


def serialize_map(col, *, entry_sep: str = ";", kv_sep: str = "=") -> pa.Array:
    """Deterministic string rendering of a map column: entries key-sorted
    within each row, ``k=v`` joined by ``;``.  Used to hash-compare map
    columns against SQL oracles without cross-engine map-type coercion."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    offsets = np.asarray(arr.offsets, dtype=np.int64)
    # a sliced MapArray keeps FULL child arrays with non-zero-based offsets;
    # rebase offsets and slice children to the row window (ADVICE r2)
    off0 = int(offsets[0])
    offsets = offsets - off0
    total = int(offsets[-1])
    keys = arr.keys.slice(off0, total)
    items = arr.items.slice(off0, total)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    knp = keys.to_numpy(zero_copy_only=False)
    order = np.lexsort((knp, rows))
    kv = pc.binary_join_element_wise(
        keys.take(pa.array(order)), items.take(pa.array(order)), kv_sep
    )
    if isinstance(kv, pa.ChunkedArray):
        kv = kv.combine_chunks()
    return pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)), kv),
        entry_sep,
    )


def extract_json_int(col, key: str) -> pa.Array:
    """Vectorized extraction of an integer field from a flat JSON-object
    string column (``{"k": 69}`` → 69), the grok-style parse for the
    ``events.props`` payload — one compiled-regex kernel pass, no json.loads
    per row.  Null where the key is absent or non-integer.

    Reference parity: the reference greps span attributes out of serialized
    maps the same way (HttpFieldsGenerator.java — tag-string parsing); this
    is that parse recast as a pyarrow.compute kernel over a JSON column.
    """
    pat = r'"' + re.escape(key) + r'"\s*:\s*(?P<v>-?\d+)'
    st = pc.extract_regex(col, pattern=pat)
    return pc.cast(pc.struct_field(st, ["v"]), pa.int64())
