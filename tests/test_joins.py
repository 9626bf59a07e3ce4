"""Join + explode operator tests."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from hypertrace_ingester_ray.stages.explode import explode_tokens_batch
from hypertrace_ingester_ray.stages.joins import (
    asof_join,
    broadcast_table_join,
    cogroup_join,
)


def test_explode_tokens_batch():
    batch = pa.table(
        {
            "conv_id": pa.array(["a", "b"], pa.string()),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "text": pa.array(["x y z", "solo"], pa.string()),
        }
    )
    out = explode_tokens_batch(batch)
    assert out["token"].to_pylist() == ["x", "y", "z", "solo"]
    assert out["token_idx"].to_pylist() == [1, 2, 3, 1]
    assert out["conv_id"].to_pylist() == ["a", "a", "a", "b"]


def test_broadcast_table_join_left_outer(ray_session):
    """A left_outer broadcast table join keeps every left row; a key with no
    match gets a null value."""
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 2], pa.int64())})
    )
    names = pa.table(
        {"k": pa.array([1, 2], pa.int64()), "name": pa.array(["one", "two"])}
    )
    out = broadcast_table_join(ds, names, on=["k"], how="left_outer")
    got = sorted(out.take_all(), key=lambda r: r["k"])
    assert [(r["k"], r["name"]) for r in got] == [
        (1, "one"), (2, "two"), (2, "two"), (3, None)
    ]


def test_hash_join_inner(ray_session):
    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64()), "l": pa.array(["a", "b", "c"])})
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([2, 3, 4], pa.int64()), "r": pa.array(["B", "C", "D"])})
    )
    out = cogroup_join(left, right, on=["k"], num_partitions=4).to_pandas()
    assert sorted(out.k.tolist()) == [2, 3]


def test_cogroup_join_matches_local_join(ray_session):
    """cogroup_join (the distributed co-shuffle join) returns the same rows
    as a single-process hash join (``pyarrow.Table.join``) of the two
    inputs, for every join type, with a renamed right key and a
    null key on each side."""
    lt = pa.table(
        {
            "k": pa.array([1, 2, 3, 5, 2, None], pa.int64()),
            "l": pa.array(list("abcefg")),
        }
    )
    rt = pa.table(
        {"rk": pa.array([2, 3, 4, None], pa.int64()), "r": pa.array(list("BCDN"))}
    )
    left, right = ray.data.from_arrow(lt), ray.data.from_arrow(rt)

    def rows(t: pa.Table):
        return sorted(
            (tuple(r.values()) for r in t.select(sorted(t.column_names)).to_pylist()),
            key=repr,
        )

    for how, join_type in [
        ("inner", "inner"),
        ("left_outer", "left outer"),
        ("right_outer", "right outer"),
        ("full_outer", "full outer"),
        ("left_semi", "left semi"),
        ("left_anti", "left anti"),
    ]:
        got = cogroup_join(
            left, right, on=["k"], right_on=["rk"], how=how, num_partitions=4
        )
        want = lt.join(
            rt.rename_columns(["k", "r"]), keys="k", join_type=join_type
        )
        got_t = pa.concat_tables(ray.get(got.to_arrow_refs()))
        assert rows(got_t) == rows(want), how


def test_cogroup_join_chained(ray_session):
    """The chained-join shape that races in the native operator (empty
    partitions of a join-output stream): join the output of a cogroup_join
    into a second cogroup_join with far more partitions than keys."""
    a = ray.data.from_arrow(
        pa.table({"x": pa.array([1, 2], pa.int64()), "y": pa.array([10, 20], pa.int64())})
    )
    b = ray.data.from_arrow(
        pa.table({"x": pa.array([1, 2], pa.int64()), "z": pa.array([7, 8], pa.int64())})
    )
    c = ray.data.from_arrow(
        pa.table({"y": pa.array([10, 20], pa.int64()), "w": pa.array([5, 6], pa.int64())})
    )
    j1 = cogroup_join(a, b, on=["x"], num_partitions=8)
    j2 = cogroup_join(j1, c, on=["y"], num_partitions=8).to_pandas()
    assert sorted(j2.w.tolist()) == [5, 6]
    assert set(j2.columns) == {"x", "y", "z", "w"}


def test_asof_join_backward(ray_session):
    left = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array([1, 1, 2, 3], pa.int64()),
                "ts": pa.array([100, 50, 10, 99], pa.timestamp("us")),
                "lv": pa.array(["L1", "L2", "L3", "L4"], pa.string()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array([1, 1, 1, 2], pa.int64()),
                "ts": pa.array([40, 60, 100, 20], pa.timestamp("us")),
                "rv": pa.array(["R40", "R60", "R100", "R20"], pa.string()),
            }
        )
    )
    out = (
        asof_join(left, right, key="key", ts_col="ts", num_partitions=4)
        .to_pandas()
        .sort_values(["key", "ts"])
        .reset_index(drop=True)
    )
    # key 1 ts 50 → R40; key 1 ts 100 → R100 (tie inclusive); key 2 ts 10 →
    # no match (right at 20 is later); key 3 → no right rows
    assert out.rv_right.tolist() == ["R40", "R100", None, None]


def test_asof_join_string_keys(ray_session):
    left = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array(["x", "y"], pa.string()),
                "ts": pa.array([10, 10], pa.timestamp("us")),
                "v": pa.array([1, 2], pa.int64()),
            }
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {
                "key": pa.array(["x"], pa.string()),
                "ts": pa.array([5], pa.timestamp("us")),
                "w": pa.array([9], pa.int64()),
            }
        )
    )
    out = asof_join(left, right, key="key", ts_col="ts", num_partitions=2).to_pandas()
    got = dict(zip(out.key, out.w_right))
    assert got["x"] == 9 and np.isnan(got["y"])


def test_range_join_window(ray_session):
    """Interval join: all right rows within [left.ts - w, left.ts], same key."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.joins import range_join

    def t(rows):
        return pa.table(
            {
                "k": pa.array([r[0] for r in rows], pa.string()),
                "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
                "id": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    left = ray.data.from_arrow(t([("a", 100, 1), ("a", 200, 2), ("b", 150, 3)]))
    right = ray.data.from_arrow(
        t([("a", 50, 10), ("a", 100, 11), ("a", 199, 12), ("b", 40, 13)])
    )
    out = range_join(
        left, right, key="k", ts_col="ts", window_us=60, num_partitions=4
    ).to_pandas()
    pairs = sorted(map(tuple, out[["id", "id_right"]].values))
    # left 1 (ts100, window [40,100]): right 10 (50), 11 (100)
    # left 2 (ts200, window [140,200]): right 12 (199)
    # left 3 (b ts150, window [90,150]): nothing (13 at 40)
    assert pairs == [(1, 10), (1, 11), (2, 12)]


def test_broadcast_join_null_keys(ray_session):
    """Null keys never match in a broadcast table join: a left_outer join
    keeps those rows with a null value instead of crashing (ADVICE r2)."""
    import ray.data

    tbl = pa.table(
        {
            "k": pa.array(["a", None, "b", None], pa.string()),
            "v": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    lookup = pa.table(
        {"k": pa.array(["a", "b", None]), "mapped": pa.array(["A", "B", "N"])}
    )
    out = (
        broadcast_table_join(
            ray.data.from_arrow(tbl), lookup, on=["k"], how="left_outer"
        )
        .to_pandas()
        .sort_values("v")
    )
    assert out["mapped"].tolist() == ["A", None, "B", None]


def test_broadcast_semi_and_anti_join(ray_session):
    import pyarrow as pa

    from hypertrace_ingester_ray.stages.joins import broadcast_semi_join

    t = pa.table(
        {
            "k": pa.array(["a", "b", None, "c"], pa.string()),
            "v": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)
    semi = broadcast_semi_join(ds, ["a", "c"], key="k").to_pandas()
    assert sorted(semi.v) == [1, 4]
    # anti keeps non-members AND null keys (NOT IN over a null-free list)
    anti = broadcast_semi_join(ds, ["a", "c"], key="k", anti=True).to_pandas()
    assert sorted(anti.v) == [2, 3]
    # nulls in the key set are ignored, not matched
    semi2 = broadcast_semi_join(ds, pa.array(["b", None]), key="k").to_pandas()
    assert sorted(semi2.v) == [2]


def test_keyed_diff_cdc(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from hypertrace_ingester_ray.stages.joins import keyed_diff

    old = pd.DataFrame(
        {"k": [1, 2, 3, 4], "a": ["x", "y", "z", "w"], "b": [10, 20, 30, 40]}
    )
    new = pd.DataFrame(
        {"k": [2, 3, 4, 5], "a": ["y", "Z", "w", "v"], "b": [20, 30, 99, 50]}
    )
    out = (
        keyed_diff(
            ray.data.from_pandas(old).repartition(2),
            ray.data.from_pandas(new).repartition(2),
            key="k",
            compare_cols=["a", "b"],
            num_partitions=3,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert dict(zip(out["k"], out["change"])) == {
        1: "removed",
        3: "changed",  # a differs
        4: "changed",  # b differs
        5: "added",
    }


def test_keyed_diff_duplicate_keys_raise(ray_session):
    import pandas as pd
    import pytest
    import ray.data

    from hypertrace_ingester_ray.stages.joins import keyed_diff

    old = pd.DataFrame({"k": [1, 1], "a": ["x", "y"]})
    new = pd.DataFrame({"k": [1], "a": ["x"]})
    with pytest.raises(Exception, match="duplicate"):
        keyed_diff(
            ray.data.from_pandas(old),
            ray.data.from_pandas(new),
            key="k",
            compare_cols=["a"],
        ).to_pandas()


def test_skew_join_equals_plain_join(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from hypertrace_ingester_ray.stages.joins import cogroup_join, skew_join

    rng = np.random.RandomState(21)
    # one pathologically hot key (5000 rows) + uniform cold keys
    lk = np.concatenate([np.full(5000, 7), rng.randint(100, 400, 4000)])
    left = pd.DataFrame({"k": lk.astype(np.int64), "lv": np.arange(len(lk), dtype=np.int64)})
    rk = np.concatenate([[7, 7], np.arange(100, 400)])
    right = pd.DataFrame({"k2": rk.astype(np.int64), "rv": np.arange(len(rk), dtype=np.int64)})

    out = skew_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(2),
        on="k",
        right_on="k2",
        hot_threshold=1000,
        num_partitions=4,
    ).to_pandas()
    exp = cogroup_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        on=["k"],
        right_on=["k2"],
        num_partitions=4,
    ).to_pandas()
    # hot key 7 matched twice per left row -> 10000 hot output rows
    assert (out["k"] == 7).sum() == 10000
    key = lambda df: df[["k", "lv", "rv"]].sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(key(out), key(exp))


def test_skew_join_no_hot_keys_falls_back(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from hypertrace_ingester_ray.stages.joins import skew_join

    left = pd.DataFrame({"k": np.arange(100, dtype=np.int64)})
    right = pd.DataFrame({"k": np.arange(50, 150, dtype=np.int64), "rv": np.arange(100, dtype=np.int64)})
    out = skew_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        on="k",
        hot_threshold=10_000,
        num_partitions=4,
    ).to_pandas()
    assert sorted(out["k"].tolist()) == list(range(50, 100))


def test_skew_join_hot_key_absent_from_build_side(ray_session):
    """A hot LEFT key with ZERO right-side rows must not crash the hot
    path (empty broadcast build) — the inner join's answer is the cold
    path alone."""
    import numpy as np
    import pandas as pd
    import ray.data

    from hypertrace_ingester_ray.stages.joins import skew_join

    lk = np.concatenate([np.full(5000, 7), np.arange(100, 200)])
    left = pd.DataFrame({"k": lk.astype(np.int64), "lv": np.arange(len(lk), dtype=np.int64)})
    # right side covers only the cold keys — nothing for hot key 7
    right = pd.DataFrame(
        {"k": np.arange(100, 200, dtype=np.int64), "rv": np.arange(100, dtype=np.int64)}
    )
    out = skew_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(2),
        on="k",
        hot_threshold=1000,
        num_partitions=4,
    ).to_pandas()
    assert (out["k"] == 7).sum() == 0
    assert sorted(out["k"].unique().tolist()) == list(range(100, 200))
    assert len(out) == 100


def test_apply_changes_merge(ray_session):
    """Upserts replace/insert, deletes drop, untouched rows pass through;
    bad ops and duplicate keys raise."""
    snap = ray.data.from_arrow(
        pa.table(
            {"k": pa.array([1, 2, 3, 4], pa.int64()),
             "v": pa.array([10, 20, 30, 40], pa.int64())}
        )
    )
    ch = ray.data.from_arrow(
        pa.table(
            {"k": pa.array([2, 4, 9], pa.int64()),
             "v": pa.array([99, None, 90], pa.int64()),
             "op": pa.array(["upsert", "delete", "upsert"])}
        )
    )
    from hypertrace_ingester_ray.stages.joins import apply_changes

    out = (
        apply_changes(snap, ch, key="k", num_partitions=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out.k) == [1, 2, 3, 9]
    assert list(out.v) == [10, 99, 30, 90]

    bad_op = ray.data.from_arrow(
        pa.table({"k": pa.array([1], pa.int64()),
                  "v": pa.array([0], pa.int64()),
                  "op": pa.array(["replace"])})
    )
    with pytest.raises(Exception, match="op values"):
        apply_changes(snap, bad_op, key="k", num_partitions=2).materialize()

    dup = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 1], pa.int64()),
                  "v": pa.array([0, 1], pa.int64()),
                  "op": pa.array(["upsert", "upsert"])})
    )
    with pytest.raises(Exception, match="duplicate"):
        apply_changes(snap, dup, key="k", num_partitions=2).materialize()


def test_cogroup_join_randomized_vs_duckdb(ray_session):
    """Seeded randomized equivalence: cogroup_join inner/left_outer matches
    DuckDB on tables with duplicate keys, missing keys, and null payloads."""
    import duckdb

    rng = np.random.RandomState(11)
    for trial in range(5):
        nl, nr = rng.randint(0, 40, 2)
        lt = pa.table(
            {
                "k": pa.array(rng.randint(0, 12, nl), pa.int64()),
                "lv": pa.array(
                    [None if x % 7 == 0 else int(x) for x in rng.randint(0, 50, nl)],
                    pa.int64(),
                ),
            }
        )
        rt = pa.table(
            {
                "k": pa.array(rng.randint(0, 12, nr), pa.int64()),
                "rv": pa.array(rng.randint(0, 50, nr), pa.int64()),
            }
        )
        ldf, rdf = lt.to_pandas(), rt.to_pandas()
        for how, sqlj in (("inner", "JOIN"), ("left_outer", "LEFT JOIN")):
            got = (
                cogroup_join(
                    ray.data.from_arrow(lt),
                    ray.data.from_arrow(rt),
                    on=["k"],
                    how=how,
                    num_partitions=5,
                )
                .to_pandas()
                .sort_values(["k", "lv", "rv"], na_position="first")
                .reset_index(drop=True)
            )
            exp = (
                duckdb.sql(f"SELECT l.k, l.lv, r.rv FROM ldf l {sqlj} rdf r USING (k)")
                .df()
                .sort_values(["k", "lv", "rv"], na_position="first")
                .reset_index(drop=True)
            )
            assert len(got) == len(exp), (trial, how, len(got), len(exp))
            if len(exp):
                for c in ("k", "lv", "rv"):
                    a = got[c].astype("float64")
                    b = exp[c].astype("float64")
                    assert ((a == b) | (a.isna() & b.isna())).all(), (trial, how, c)


def test_set_op_intersect_except(ray_session):
    from hypertrace_ingester_ray.stages.joins import set_op

    l = ray.data.from_arrow(
        pa.table({"a": pa.array(["x", "y", "z", "y"]), "b": pa.array([1, 2, 3, 2], pa.int64())})
    )
    r = ray.data.from_arrow(
        pa.table({"a": pa.array(["y", "w"]), "b": pa.array([2, 9], pa.int64())})
    )
    inter = set_op(l, r, how="intersect", num_partitions=4).to_pandas()
    assert inter.values.tolist() == [["y", 2]]
    exc = (
        set_op(l, r, how="except", num_partitions=4)
        .to_pandas()
        .sort_values("a")
    )
    assert exc.values.tolist() == [["x", 1], ["z", 3]]
    with pytest.raises(Exception, match="schemas differ"):
        set_op(l, r.map_batches(
            lambda t: t.rename_columns(["a", "c"]), batch_format="pyarrow"
        ), how="intersect")


def test_auto_join_strategy_selection_row_identical(ray_session):
    """auto_join picks broadcast / skew / cogroup by thresholds; every
    strategy returns the identical row set; broadcast refuses right/full
    outer."""
    import numpy as np
    import pandas as pd
    import ray

    from hypertrace_ingester_ray.stages.joins import auto_join

    rng = np.random.RandomState(3)
    left = pd.DataFrame(
        {
            # key 7 is hot (60% of rows)
            "k": np.where(rng.rand(5000) < 0.6, 7, rng.randint(0, 50, 5000)),
            "x": rng.randint(0, 1000, 5000),
        }
    )
    right = pd.DataFrame({"k": np.arange(0, 40), "name": [f"n{i}" for i in range(40)]})
    lds = lambda: ray.data.from_pandas(left).repartition(4)
    rds = lambda: ray.data.from_pandas(right).repartition(2)

    def rows(ds):
        df = ds.to_pandas()
        return sorted(map(tuple, df[["k", "x", "name"]].values.tolist()))

    got = {}
    for name, kw in {
        "broadcast": dict(broadcast_threshold_rows=1000),
        "skew": dict(broadcast_threshold_rows=0, hot_threshold=100),
        "cogroup": dict(broadcast_threshold_rows=0, hot_threshold=10**9),
    }.items():
        ds, decision = auto_join(
            lds(), rds(), on=["k"], explain=True, num_partitions=8, **kw
        )
        assert decision["strategy"] == name, decision
        got[name] = rows(ds)

    exp = left.merge(right, on="k", how="inner")
    expected = sorted(map(tuple, exp[["k", "x", "name"]].values.tolist()))
    for name, g in got.items():
        assert g == expected, name

    # right-preserving joins never take the broadcast path
    ds, decision = auto_join(
        lds(), rds(), on=["k"], how="full_outer",
        broadcast_threshold_rows=10**9, explain=True, num_partitions=8,
    )
    assert decision["strategy"] == "cogroup"
    assert len(ds.to_pandas()) == len(left.merge(right, on="k", how="outer"))


def test_cogroup_join_semi_anti_randomized(ray_session):
    """Seeded randomized equivalence: cogroup_join left_semi/left_anti match
    DuckDB SEMI/ANTI JOIN on tables with duplicate and missing keys.  Semi
    and anti preserve left multiplicity and never widen the schema."""
    import duckdb

    from hypertrace_ingester_ray.stages.joins import cogroup_join

    rng = np.random.RandomState(23)
    for trial in range(5):
        nl, nr = rng.randint(0, 40, 2)
        lt = pa.table(
            {
                # left keys range wider than right so anti is non-empty
                "k": pa.array(rng.randint(0, 20, nl), pa.int64()),
                "lv": pa.array(rng.randint(0, 50, nl), pa.int64()),
            }
        )
        rt = pa.table({"k": pa.array(rng.randint(0, 10, nr), pa.int64())})
        ldf, rdf = lt.to_pandas(), rt.to_pandas()
        for how, sqlj in (("left_semi", "SEMI"), ("left_anti", "ANTI")):
            ds = cogroup_join(
                ray.data.from_arrow(lt),
                ray.data.from_arrow(rt),
                on=["k"],
                how=how,
                num_partitions=4,
            )
            got = ds.to_pandas()
            if len(got):
                # (Ray's to_pandas drops columns on an ALL-empty dataset
                # even though every block is typed — schema() stays right)
                assert list(got.columns) == ["k", "lv"], how
            exp = duckdb.sql(
                f"SELECT l.k, l.lv FROM ldf l {sqlj} JOIN rdf r USING (k)"
            ).df()
            g = sorted(map(tuple, got.values.tolist()))
            e = sorted(map(tuple, exp.values.tolist()))
            assert g == e, (trial, how, len(g), len(e))
