"""Round-5 regression tests for the ADVICE findings.

1. _hash_column must take the exact-integer path even when the batch has
   nulls: keys with |v| > 2^53 must land in the same partition regardless
   of per-batch null presence, and nulls hash to one fixed partition.
"""

import numpy as np
import pyarrow as pa

from hypertrace_ingester_ray.stages.grouping import _hash_column


def test_hash_column_big_int_keys_stable_under_nulls():
    # keys beyond 2^53: a float64 round-trip would round these
    keys = [2**62 + 1, 2**62 + 2, -(2**62) - 3, 2**53 + 1]
    clean = pa.chunked_array([pa.array(keys, pa.int64())])
    dirty = pa.chunked_array([pa.array(keys + [None], pa.int64())])
    h_clean = _hash_column(clean, 1 << 20).to_pylist()
    h_dirty = _hash_column(dirty, 1 << 20).to_pylist()
    assert h_clean == h_dirty[: len(keys)]


def test_hash_column_adjacent_big_ints_differ():
    # rounding through float64 would collapse 2^62+1 and 2^62+2
    keys = pa.chunked_array([pa.array([2**62 + 1, 2**62 + 2], pa.int64())])
    h = _hash_column(keys, 1 << 30).to_pylist()
    assert h[0] != h[1]


def test_hash_column_nulls_single_deterministic_partition():
    a = pa.chunked_array([pa.array([None, None, 7, None], pa.int64())])
    h = _hash_column(a, 64).to_pylist()
    assert h[0] == h[1] == h[3]
    # repeated call identical (no architecture-dependent NaN cast)
    assert h == _hash_column(a, 64).to_pylist()


def test_hash_column_uint64_path():
    a = pa.chunked_array([pa.array([2**63 + 5, None], pa.uint64())])
    b = pa.chunked_array([pa.array([2**63 + 5], pa.uint64())])
    assert _hash_column(a, 1024)[0].as_py() == _hash_column(b, 1024)[0].as_py()


def test_poly_hash_strings_matches_duckdb():
    import duckdb
    from hypertrace_ingester_ray.functions.hashing import poly_hash_strings

    texts = ["hello", "", "a b c", "Zz9"]
    got = poly_hash_strings(pa.array(texts, pa.string()))
    want = [
        duckdb.sql(
            "SELECT CASE WHEN len(w)=0 THEN 0::HUGEINT ELSE "
            "list_reduce(list_transform(range(1, len(w)+1), "
            "i -> ord(substr(w, CAST(i AS INT), 1))::HUGEINT), "
            "(a,b) -> (a*1099511628211::HUGEINT + b) "
            "% 18446744073709551616::HUGEINT) END "
            f"FROM (SELECT '{t}' AS w)"
        ).fetchone()[0]
        for t in texts
    ]
    assert [int(x) for x in got] == [int(x) for x in want]


def test_shingle_hashes_poly_short_doc_fallback():
    from hypertrace_ingester_ray.functions.hashing import (
        poly_hash_strings,
        shingle_hashes,
    )

    sh, off = shingle_hashes(pa.array(["one two"], pa.string()), 3, scheme="poly")
    assert off.tolist() == [0, 1]
    assert int(sh[0]) == int(poly_hash_strings(pa.array(["one two"]))[0])


def test_group_quantiles_numeric_null_key_single_group(ray_session):
    """ADVICE r4: a nullable NUMERIC key must form ONE SQL NULL group, not
    one run per null row (nulls used to become NaN where NaN != NaN)."""
    import ray

    from hypertrace_ingester_ray.stages.analytics import group_quantiles

    t = pa.table(
        {
            "k": pa.array([1, 1, None, None, None, 2], pa.int64()),
            "v": pa.array([10, 20, 5, 15, 25, 7], pa.int64()),
        }
    )
    res = (
        group_quantiles(
            ray.data.from_arrow(t), key="k", value_col="v", pcts=(50,),
            num_partitions=4,
        )
        .to_pandas()
    )
    # one row per key incl. exactly ONE null-key row
    assert len(res) == 3
    null_rows = res[res["k"].isna()]
    assert len(null_rows) == 1
    # median of {5,15,25} by ceil-rank: rank ceil(0.5*3)=2 -> 15
    assert int(null_rows["value"].iloc[0]) == 15


def test_winsorize_numeric_null_key(ray_session):
    import ray

    from hypertrace_ingester_ray.stages.analytics import winsorize

    t = pa.table(
        {
            "k": pa.array([None, None, None, None, 7], pa.int64()),
            "v": pa.array([1, 2, 3, 100, 50], pa.int64()),
        }
    )
    res = (
        winsorize(
            ray.data.from_arrow(t), key="k", value_col="v",
            lo_pct=25, hi_pct=75, num_partitions=4,
        )
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    # null group band: P25 = rank ceil(.25*4)=1 -> 1, P75 = rank 3 -> 3
    null_rows = res[res["k"].isna()]
    assert sorted(null_rows["v_wins"].tolist()) == [1, 2, 3, 3]
    assert res[res["k"] == 7]["v_wins"].tolist() == [50]


def _empty_unschema_ds(schema: pa.Schema):
    """An empty dataset whose schema Ray has lost (post-transform empty)."""
    import ray

    return ray.data.from_arrow(schema.empty_table()).filter(lambda r: False)


def test_cogroup_join_left_outer_empty_right_schema_stable(ray_session):
    import ray

    from hypertrace_ingester_ray.stages.joins import cogroup_join

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2], pa.int64()), "lv": ["a", "b"]})
    )
    rschema = pa.schema([("k", pa.int64()), ("rv", pa.float64())])
    right = _empty_unschema_ds(rschema)
    out = cogroup_join(
        left, right, on=["k"], how="left_outer", num_partitions=4,
        right_schema=rschema,
    ).to_pandas()
    assert sorted(out.columns) == ["k", "lv", "rv"]
    assert out["rv"].isna().all() and len(out) == 2


def test_asof_join_empty_right_schema_stable(ray_session):
    import ray

    from hypertrace_ingester_ray.stages.joins import asof_join

    rschema = pa.schema(
        [("k", pa.string()), ("ts", pa.int64()), ("price", pa.float64())]
    )
    left = ray.data.from_arrow(
        pa.table({"k": ["x"], "ts": pa.array([5], pa.int64()), "lv": [1]})
    )
    out = asof_join(
        left, _empty_unschema_ds(rschema), key="k", ts_col="ts",
        num_partitions=4, right_schema=rschema,
    ).to_pandas()
    # schema-stable means IDENTICAL to the non-empty-right output, which
    # ALWAYS suffixes right payload columns
    nonempty = asof_join(
        left,
        ray.data.from_arrow(
            pa.table(
                {
                    "k": ["x"],
                    "ts": pa.array([1], pa.int64()),
                    "price": [9.5],
                }
            )
        ),
        key="k",
        ts_col="ts",
        num_partitions=4,
    ).to_pandas()
    assert list(out.columns) == list(nonempty.columns)
    assert "price_right" in out.columns
    assert out["price_right"].isna().all() and len(out) == 1


def test_heavy_hitters_empty_respects_value_type(ray_session):
    import ray

    from hypertrace_ingester_ray.stages.sketches import heavy_hitters

    schema = pa.schema([("v", pa.int64())])
    out = heavy_hitters(
        _empty_unschema_ds(schema), value_col="v", threshold=1, k=16,
        value_type=pa.int64(),
    )
    sch = out.schema()
    types = dict(zip(sch.names, sch.types))
    assert types["v"] == pa.int64()  # was pa.string() without value_type
    assert types["cnt"] == pa.int64()
    assert out.count() == 0


# ---------------------------------------------------------------------------
# round-5 self-review fixes (second session)
# ---------------------------------------------------------------------------


def test_poly_hash_skew_and_equivalence():
    import numpy as np
    import time

    from hypertrace_ingester_ray.functions.hashing import (
        _ROLL_C,
        poly_hash_strings,
    )

    def ref(s):
        h = 0
        for byt in s.encode():
            h = (h * int(_ROLL_C) + byt) % (1 << 64)
        return h

    strs = ["", "a", "hello world", "x" * 1000, "q" * 33, "ab cd ef"]
    got = poly_hash_strings(pa.array(strs))
    assert [int(v) for v in got] == [ref(s) for s in strs]
    # length-skew guard: one 1MB string among 100k short ones must not
    # degrade to O(n_strings x max_len) mask passes
    big = ["w" * 8] * 100_000 + ["y" * 1_000_000]
    t0 = time.perf_counter()
    h = poly_hash_strings(pa.array(big))
    assert time.perf_counter() - t0 < 5.0
    assert int(h[-1]) == ref("y" * 1_000_000)
    assert int(h[0]) == ref("w" * 8)


def test_weighted_sample_tie_break_matches_global_order(ray_session):
    import ray

    from hypertrace_ingester_ray.stages.corpus import weighted_sample

    # equal weights => pri ties abound; ids 0..n share ticket collisions
    # after //w. The kept set must equal ORDER BY (pri, id) LIMIT k no
    # matter the block layout.
    n = 400
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "w": pa.array([7] * n, pa.int64()),
        }
    )

    def run(blocks):
        ds = ray.data.from_arrow(tbl).repartition(blocks)
        out = weighted_sample(ds, weight_col="w", id_col="doc_id", k=25)
        return sorted(r["doc_id"] for r in out.take_all())

    assert run(1) == run(13)


def test_parse_double_java_semantics():
    from hypertrace_ingester_ray.functions.attr_reader import _parse_double

    assert _parse_double("1.5") == 1.5
    assert _parse_double("-2e3") == -2000.0
    assert _parse_double("Infinity") == float("inf")
    assert _parse_double("-Infinity") == float("-inf")
    nan = _parse_double("NaN")
    assert nan != nan
    # Python-float()-isms the JVM rejects
    for bad in ("1_0", "inf", "infinity", "nan", "INFINITY", "0x10"):
        assert _parse_double(bad) is None, bad


def test_parse_double_signed_nan():
    from hypertrace_ingester_ray.functions.attr_reader import _parse_double

    for s in ("+NaN", "-NaN", " -NaN "):
        v = _parse_double(s)
        assert v != v, s
    for bad in ("+-NaN", "NaN+", "-nan"):
        assert _parse_double(bad) is None, bad


def test_parse_double_trims_like_java_string_trim():
    """String.trim drops only chars <= U+0020; any other whitespace stays
    in the string and makes Double.parseDouble reject it."""
    from hypertrace_ingester_ray.functions.attr_reader import _parse_double

    assert _parse_double(" \t1.5\n\r") == 1.5
    assert _parse_double("\x00\x1f2.5\x01") == 2.5
    for bad in ("1.5\u00a0", "\u20032", "\u30001", "1\u2028", "\u0661\u0662"):
        assert _parse_double(bad) is None, repr(bad)


def _order_line_sample_vs_oracle(tmp_path, quantities):
    """Run order_line_join_sample and its oracle SQL on a lineitem with the
    given ``l_quantity`` values (four lines per order); returns both
    samples as sorted row tuples."""
    import datetime

    import duckdb
    import pyarrow.parquet as pq

    import __ray_entry__ as entry

    n = len(quantities)
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([i // 4 for i in range(n)], pa.int64()),
                "l_linenumber": pa.array([i % 4 + 1 for i in range(n)], pa.int32()),
                "l_quantity": pa.array(quantities, pa.float64()),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(range(n // 4), pa.int64()),
                "o_orderdate": pa.array(
                    [datetime.date(1995, 1, 1 + k % 28) for k in range(n // 4)],
                    pa.date32(),
                ),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = entry.queries()["order_line_join_sample"](str(tmp_path)).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
        )
    want = con.sql(entry.oracle_sql()["order_line_join_sample"]).df()
    cols = ["samp_id", "l_orderkey", "l_linenumber", "o_orderdate", "w"]

    def rows(df):
        return sorted(
            tuple(
                str(v)[:10] if c == "o_orderdate" else int(v)
                for c, v in zip(cols, r)
            )
            for r in df[cols].itertuples(index=False)
        )

    return rows(got), rows(want)


def test_order_line_join_sample_fractional_quantity_matches_duckdb(tmp_path):
    """Fractional l_quantity: the sample weight rounds half to even, as the
    oracle's CAST(double AS BIGINT) does, instead of failing the cast."""
    n = 160
    frac = [0.5, 0.25, 0.75, 0.0]
    qty = [1 + i % 29 + frac[i % 4] for i in range(n)]
    got, want = _order_line_sample_vs_oracle(tmp_path, qty)
    assert len(got) == 40
    assert got == want
    # Python's round() is half to even too; the sample must hold .5 rows
    by_id = {i // 4 * 8 + i % 4 + 1: qty[i] for i in range(n)}
    picked = [(by_id[r[0]], r[4]) for r in got]
    assert all(w == round(q) for q, w in picked)
    assert any(q % 1 == 0.5 for q, _ in picked)


def test_order_line_join_sample_zero_weight_matches_duckdb(tmp_path):
    """A positive l_quantity at or below 0.5 rounds to weight 0.  The oracle
    keeps such a row with a NULL priority (``x // 0``), ordered after every
    positive-weight row; the sample must too, instead of raising."""
    qty = [1 + i % 29 for i in range(160)]
    qty[37] = 0.4
    got, want = _order_line_sample_vs_oracle(tmp_path, qty)
    assert len(got) == 40
    assert got == want
    # fewer than 40 positive weights: the zero-weight rows fill the sample
    # in id order
    qty = [0.3 if i % 3 else 2.0 for i in range(96)]
    got, want = _order_line_sample_vs_oracle(tmp_path, qty)
    assert len(got) == 40
    assert got == want
    assert sum(r[4] == 0 for r in got) == 40 - 32


def test_projector_rejects_column_collision():
    import pytest as _pytest

    from hypertrace_ingester_ray.functions.attr_reader import (
        AttributeProjector,
    )

    proj = AttributeProjector(
        [{"name": "role", "kind": "string", "definition": {"literal": "x"}}]
    )
    batch = pa.table({"role": ["user"]})
    with _pytest.raises(ValueError, match="collides"):
        proj(batch)


def test_export_conversation_json_empty(tmp_path):
    from hypertrace_ingester_ray.functions.visualizer import (
        export_conversation_json,
    )

    empty = pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "role": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
        }
    )
    assert export_conversation_json(empty, str(tmp_path)) == []


def test_knn_partial_topk_tie_break_by_id(ray_session):
    """Exact duplicate vectors tie exactly in cosine; the batch-local
    partial must keep the smallest-id tied candidates (the final merge's
    tie rule) instead of an arbitrary argpartition pick."""
    import numpy as np

    from hypertrace_ingester_ray.stages.similarity import _PartialTopK

    D, K = 4, 3
    base = np.array([1.0, 0.0, 0.0, 0.0])
    # 5 exact copies of the query direction with ids 50,40,30,20,10 —
    # only the 3 smallest ids may survive the batch-local top-3
    mat = np.stack([base] * 5 + [np.array([0.0, 1.0, 0.0, 0.0])])
    ids = np.array([50, 40, 30, 20, 10, 5], dtype=np.int64)
    batch = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.float32()), D
            ),
        }
    )
    kern = _PartialTopK(
        {"ids": np.array([999]), "matrix": base[None, :]}, K,
        "vec_id", "embedding",
    )
    out = kern(batch).to_pandas()
    assert out.neighbor_id.tolist() == [10, 20, 30]


def test_knn_partial_topk_nan_vector_ranks_last(ray_session):
    """A non-null embedding with a NaN component scores NaN against every
    query; the batch-local top-k ranks it as -inf instead of coming up
    short of k picks and raising."""
    from hypertrace_ingester_ray.stages.similarity import _PartialTopK

    D, K = 3, 3
    mat = np.array(
        [[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]]
    )
    ids = np.array([1, 2, 3, 4], dtype=np.int64)
    batch = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(mat.ravel(), pa.float32()), D
            ),
        }
    )
    kern = _PartialTopK(
        {"ids": np.array([9]), "matrix": np.array([[1.0, 0.0, 0.0]])}, K,
        "vec_id", "embedding",
    )
    out = kern(batch).to_pandas()
    assert out.neighbor_id.tolist() == [1, 3, 4]
    # with every candidate needed, the NaN one comes last, cosine kept NaN
    kern4 = _PartialTopK(
        {"ids": np.array([9]), "matrix": np.array([[1.0, 0.0, 0.0]])}, 4,
        "vec_id", "embedding",
    )
    out4 = kern4(batch).to_pandas()
    assert out4.neighbor_id.tolist() == [1, 3, 4, 2]
    assert np.isnan(out4.cosine.iloc[-1])
