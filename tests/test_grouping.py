"""Unit tests for the hash-partitioned grouping primitives (G1-G3 analogs)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from hypertrace_ingester_ray.stages.grouping import (
    assemble_conversations,
    group_apply,
    run_boundaries,
    segment_ids_from_boundaries,
    segmented_broadcast_first,
    segmented_cumcount,
)


def test_run_boundaries_and_segments():
    a = np.array([1, 1, 2, 2, 2, 5])
    b = run_boundaries(a)
    assert b.tolist() == [0, 2, 5, 6]
    seg = segment_ids_from_boundaries(b)
    assert seg.tolist() == [0, 0, 1, 1, 1, 2]
    assert segmented_cumcount(seg).tolist() == [0, 1, 0, 1, 2, 0]
    assert segmented_broadcast_first(np.array([9, 8, 7, 6, 5, 4]), b).tolist() == [
        9, 9, 7, 7, 7, 4,
    ]


def test_run_boundaries_multi_key():
    conv = np.array([0, 0, 0, 1])
    role = np.array(["a", "a", "b", "b"], dtype=object)
    assert run_boundaries(conv, role).tolist() == [0, 2, 3, 4]


def _turns(rows):
    return pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "text": pa.array([r[3] for r in rows], pa.string()),
        }
    )


def test_assemble_dedup_keep_first():
    # duplicate (conv, turn_idx): keep the first in (conv, turn_idx, ts) order
    t = _turns(
        [
            ("a", 0, 100, "first"),
            ("a", 0, 200, "dup-late"),
            ("a", 1, 300, "x"),
            ("b", 0, 50, "y"),
        ]
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")])
    out, n_dedup, n_capped = assemble_conversations(t)
    assert n_dedup == 1 and n_capped == 0
    assert out.num_rows == 3
    assert out["text"].to_pylist() == ["first", "x", "y"]


def test_assemble_cap():
    rows = [("a", i, i * 10, f"t{i}") for i in range(10)] + [("b", 0, 5, "z")]
    t = _turns(rows).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
    )
    out, n_dedup, n_capped = assemble_conversations(t, max_turns_per_conv=4)
    assert n_capped == 6
    assert out.filter(pa.compute.equal(out["conv_id"], "a")).num_rows == 4
    assert out.filter(pa.compute.equal(out["conv_id"], "b")).num_rows == 1


def test_assemble_sessionize():
    rows = [("a", 0, 0, "x"), ("a", 1, 1_000_000, "x"), ("a", 2, 100_000_000, "x"),
            ("a", 3, 101_000_000, "x"), ("b", 0, 999_000_000, "x")]
    t = _turns(rows).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
    )
    out, _, _ = assemble_conversations(t, session_gap_us=30_000_000)
    assert out["session_id"].to_pylist() == [0, 0, 1, 1, 0]


def test_group_apply_complete_groups(ray_session):
    import ray.data

    # every conv must arrive whole in exactly one partition call
    t = pa.table(
        {
            "conv_id": pa.array([f"c{i % 37}" for i in range(1000)], pa.string()),
            "v": pa.array(list(range(1000)), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(7)

    def per_part(part: pa.Table) -> pa.Table:
        convs = part["conv_id"].to_pylist()
        return pa.table(
            {
                "conv_id": pa.array(sorted(set(convs)), pa.string()),
                "n": pa.array(
                    [convs.count(c) for c in sorted(set(convs))], pa.int64()
                ),
            }
        )

    out = group_apply(ds, "conv_id", per_part, sort_by=["v"], num_partitions=5).to_pandas()
    # each conv appears in exactly one partition with its full count
    assert len(out) == 37
    assert out["n"].sum() == 1000
    for _, row in out.iterrows():
        expect = sum(1 for i in range(1000) if f"c{i % 37}" == row["conv_id"])
        assert row["n"] == expect


def test_salted_group_apply_hot_key(ray_session):
    """A hot key is split across salts and partials merge back exactly."""
    import ray.data
    from hypertrace_ingester_ray.stages.grouping import (
        hot_key_counts,
        salted_group_apply,
    )

    rows = [("hot", i) for i in range(5000)] + [("cold", i) for i in range(20)]
    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.string()),
            "v": pa.array([r[1] for r in rows], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(8)

    hot = hot_key_counts(ds, "k", threshold=1000)
    assert hot == {"hot": 5000}

    def partial(part: pa.Table) -> pa.Table:
        ks = part["k"].to_pylist()
        out_k, out_n, out_s = [], [], []
        for k in sorted(set(ks)):
            sel = part.filter(pa.compute.equal(part["k"], k))
            out_k.append(k)
            out_n.append(sel.num_rows)
            out_s.append(sum(sel["v"].to_pylist()))
        return pa.table(
            {"k": pa.array(out_k), "n": pa.array(out_n, pa.int64()),
             "s": pa.array(out_s, pa.int64())}
        )

    n_partials = {"count": 0}

    def merge(part: pa.Table) -> pa.Table:
        ks = part["k"].to_pylist()
        out = []
        for k in sorted(set(ks)):
            sel = part.filter(pa.compute.equal(part["k"], k))
            n_partials["count"] = max(n_partials["count"], sel.num_rows)
            out.append((k, sum(sel["n"].to_pylist()), sum(sel["s"].to_pylist())))
        return pa.table(
            {"k": pa.array([o[0] for o in out]),
             "n": pa.array([o[1] for o in out], pa.int64()),
             "s": pa.array([o[2] for o in out], pa.int64())}
        )

    res = salted_group_apply(
        ds, "k", partial, merge, hot_threshold=1000, salt_factor=8,
        num_partitions=8,
    ).to_pandas().set_index("k")
    assert res.loc["hot", "n"] == 5000
    assert res.loc["hot", "s"] == sum(range(5000))
    assert res.loc["cold", "n"] == 20
    assert res.loc["cold", "s"] == sum(range(20))


def test_hot_key_counts_filters_distributed(ray_session):
    """With 10^5 distinct keys the driver must only receive the hot set —
    the per-key histogram is filtered dataset-side (VERDICT r1 #2)."""
    import numpy as np
    import ray.data
    from hypertrace_ingester_ray.stages.grouping import hot_key_counts

    n_distinct = 100_000
    keys = [f"k{i}" for i in range(n_distinct)]  # 1 row each: all cold
    keys += ["whale"] * 500  # one hot key
    t = pa.table({"k": pa.array(keys, pa.string())})
    ds = ray.data.from_arrow(t).repartition(8)

    hot = hot_key_counts(ds, "k", threshold=100)
    assert hot == {"whale": 500}


def test_group_apply_partitions_match_hash_oracle(ray_session):
    """Each partition ``group_apply`` hands to ``fn`` holds exactly the rows
    ``add_part_column`` assigns to it, all of them in one call, sorted by
    ``[key, *sort_by]`` — at a small fan-out and above 512 partitions."""
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import PART_COL, add_part_column

    n = 4000
    t = pa.table(
        {
            "conv_id": pa.array([f"c{i % 997}" for i in range(n)], pa.string()),
            "turn_idx": pa.array([(i * 7) % 11 for i in range(n)], pa.int32()),
            "v": pa.array(list(range(n)), pa.int64()),  # unique row id
        }
    )

    def tag(part: pa.Table, part_id: int) -> pa.Table:
        # record (part_id, row order) so both can be checked per row
        return part.append_column(
            "part_id", pa.array([part_id] * part.num_rows, pa.int32())
        ).append_column("pos", pa.array(np.arange(part.num_rows), pa.int64()))

    for num_partitions in (7, 600):
        ds = ray.data.from_arrow(t).repartition(6)
        got = group_apply(
            ds,
            "conv_id",
            tag,
            pass_part_id=True,
            sort_by=["turn_idx", "v"],
            num_partitions=num_partitions,
        ).to_pandas()
        assert len(got) == n and got["v"].is_unique
        oracle = (
            add_part_column(t, "conv_id", num_partitions)
            .to_pandas()
            .set_index("v")[PART_COL]
        )
        assert (got["part_id"].to_numpy() == oracle.loc[got["v"]].to_numpy()).all()
        for _, rows in got.groupby("part_id"):
            rows = rows.sort_values("pos")
            assert rows["pos"].tolist() == list(range(len(rows)))
            expect = rows.sort_values(["conv_id", "turn_idx", "v"])
            assert rows["v"].tolist() == expect["v"].tolist()


def test_direct_shuffle_multi_key(ray_session):
    import ray.data

    t = pa.table(
        {
            "k1": pa.array(["a", "a", "b", "b", "c"] * 40, pa.string()),
            "k2": pa.array([1, 2, 1, 2, 1] * 40, pa.int64()),
            "v": pa.array(list(range(200)), pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t)

    def per_part(part: pa.Table) -> pa.Table:
        # each (k1,k2) group must be complete: sum v per group
        return (
            part.group_by(["k1", "k2"])
            .aggregate([("v", "sum")])
            .rename_columns(["k1", "k2", "v_sum"])
        )

    out = group_apply(ds, ["k1", "k2"], per_part, num_partitions=4).to_pandas()
    assert len(out) == 5  # (a,1) (a,2) (b,1) (b,2) (c,1)
    expect = (
        t.to_pandas().groupby(["k1", "k2"])["v"].sum().reset_index(name="v_sum")
    )
    merged = out.sort_values(["k1", "k2"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        merged, expect.sort_values(["k1", "k2"]).reset_index(drop=True)
    )


def test_cogroup_keyed_set_difference(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import cogroup, run_boundaries

    rng = np.random.RandomState(9)
    left = pd.DataFrame({"k": rng.randint(0, 50, 3000).astype(np.int64)})
    right = pd.DataFrame({"k": rng.randint(25, 60, 500).astype(np.int64)})

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0:
            return pa.table({"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
        lk = lt["k"].to_numpy(zero_copy_only=False)
        b = run_boundaries(lk)
        keys, counts = lk[b[:-1]], np.diff(b)
        mask = ~np.isin(keys, np.unique(rt["k"].to_numpy(zero_copy_only=False)))
        return pa.table({"k": pa.array(keys[mask]), "n": pa.array(counts[mask].astype(np.int64))})

    out = (
        cogroup(
            ray.data.from_pandas(left).repartition(4),
            ray.data.from_pandas(right).repartition(3),
            "k",
            fn,
            num_partitions=5,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    vc = left["k"].value_counts()
    exp = vc[~vc.index.isin(set(right["k"]))].sort_index()
    assert out["k"].tolist() == exp.index.tolist()
    assert out["n"].tolist() == exp.values.tolist()


def _spy_reduce_batches(monkeypatch):
    """Record every batch plan the direct exchange makes on the driver."""
    from hypertrace_ingester_ray.stages import grouping

    plans = []
    real = grouping.plan_reduce_batches

    def spy(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(grouping, "plan_reduce_batches", spy)
    return plans


def test_cogroup_empty_side(ray_session, monkeypatch):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import cogroup

    left = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    right = pd.DataFrame({"k": pd.array([], dtype="int64"), "w": pd.array([], dtype="int64")})

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        # right partition arrives as a typed empty table, never None
        assert rt.schema.names == ["k", "w"]
        return lt

    out = cogroup(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        "k",
        fn,
        num_partitions=3,
    ).to_pandas()
    assert sorted(out["k"].tolist()) == [1, 1, 2]

    # a reduce batch holding several partitions, some with no right rows:
    # those get the typed empty right table, and each partition is still
    # its own fn call
    plans = _spy_reduce_batches(monkeypatch)
    left = pa.table({"k": pa.array(range(40), pa.int64()),
                     "v": pa.array(range(40), pa.float64())})
    right = pa.table({"k": pa.array([0, 1, 2], pa.int64()),
                      "w": pa.array([7, 8, 9], pa.int64())})
    right_schema = right.schema

    def count_sides(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert rt.schema.equals(right_schema)
        return pa.table({"n_left": [lt.num_rows], "n_right": [rt.num_rows]})

    out = cogroup(
        ray.data.from_arrow(left), ray.data.from_arrow(right), "k",
        count_sides, num_partitions=16,
    ).to_pandas()
    assert len(plans) == 1
    assert any(len(b) > 1 for b in plans[0])
    assert len(out) == sum(len(b) for b in plans[0])
    assert out["n_left"].sum() == 40 and out["n_right"].sum() == 3
    assert (out["n_right"] == 0).any()


def test_cogroup_runs_on_reduce_batches(ray_session, monkeypatch):
    """cogroup shares the direct exchange's reduce batches: at 64 partitions
    a small input runs in fewer reduce tasks than non-empty partitions,
    while fn still runs once per partition on exactly that partition's
    sorted rows of each side (checked against a local hash-partition
    oracle)."""
    import pyarrow as pa
    import ray
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import add_part_column, cogroup

    plans = _spy_reduce_batches(monkeypatch)
    rng = np.random.RandomState(5)
    left = pa.table({"k": pa.array(rng.randint(0, 300, 2000), pa.int64()),
                     "v": pa.array(rng.randint(0, 10**6, 2000), pa.int64())})
    right = pa.table({"k": pa.array(rng.randint(150, 450, 500), pa.int64()),
                      "w": pa.array(rng.randint(0, 10**6, 500), pa.int64())})
    P = 64

    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return pa.table({
            "lk": [lt["k"].to_pylist()], "lv": [lt["v"].to_pylist()],
            "rk": [rt["k"].to_pylist()], "rw": [rt["w"].to_pylist()],
        })

    out = cogroup(
        ray.data.from_arrow(left).repartition(3),
        ray.data.from_arrow(right).repartition(2),
        "k", fn, left_sort=["v"], right_sort=["w"], num_partitions=P,
    )
    got = sorted(
        repr(r) for t in ray.get(out.to_arrow_refs()) for r in t.to_pylist()
    )

    def local_parts(t, sort):
        t = add_part_column(t, "k", P)
        part = t["__part"].to_numpy()
        return {
            p: t.filter(pa.array(part == p)).drop_columns(["__part"])
            .sort_by([("k", "ascending"), (sort, "ascending")])
            for p in np.unique(part)
        }

    lp, rp = local_parts(left, "v"), local_parts(right, "w")
    empty_l, empty_r = left.schema.empty_table(), right.schema.empty_table()
    want = sorted(
        repr(fn(lp.get(p, empty_l), rp.get(p, empty_r)).to_pylist()[0])
        for p in sorted(set(lp) | set(rp))
    )
    assert got == want
    non_empty = len(set(lp) | set(rp))
    assert len(plans) == 1
    assert sum(len(b) for b in plans[0]) == non_empty
    assert len(plans[0]) < non_empty
    assert out.num_blocks() == non_empty


def _exchange_block() -> pa.Table:
    """One input block with every column kind the exchange must carry
    unchanged, including a NULL key."""
    import datetime as dt

    n = 12
    return pa.table({
        "k": pa.array([None if i % 5 == 0 else f"c{i % 4}" for i in range(n)]),
        "n": pa.array([None if i == 3 else i * 10**12 for i in range(n)],
                      pa.int64()),
        "ts": pa.array([dt.datetime(2024, 1, 1, 0, 0, i) for i in range(n)],
                       pa.timestamp("us")),
        "day": pa.array([dt.date(2024, 1, 1 + i) for i in range(n)],
                        pa.date32()),
        "vec": pa.array([None if i == 7 else [float(i)] * (i % 3)
                         for i in range(n)], pa.list_(pa.float64())),
        "tags": pa.array([None if i == 2 else [("a", str(i)), ("b", None)]
                          for i in range(n)],
                         pa.map_(pa.string(), pa.string())),
    })


def test_exchange_ships_ipc_buffers(ray_session):
    """The exchange's map task returns every non-empty slice as one Arrow
    IPC buffer, and the decoded reduce inputs equal the in-process map's
    tables row for row (Arrow and pandas input blocks)."""
    import ray

    from hypertrace_ingester_ray.stages import grouping

    P = 5
    map_remote = ray.remote(num_returns=P + 1)(grouping._shuffle_map_ipc)
    block = _exchange_block()
    pdf = block.select(["k", "n", "ts"]).to_pandas()
    for blk in (block, pdf):
        local = grouping._shuffle_map_fn(blk, ["k"], P)
        got = ray.get(list(map_remote.remote(ray.put(blk), ["k"], P)))
        rows, nbytes, dropped = got[P]
        assert rows.tolist() == local[P].tolist()
        assert rows.sum() == len(blk)
        assert dropped.sum() == 0  # no prep, nothing dropped
        for p in range(P):
            if local[p] is None:
                assert got[p] is None and rows[p] == nbytes[p] == 0
                continue
            assert isinstance(got[p], pa.Buffer)
            assert nbytes[p] == got[p].size
            decoded = grouping._read_source(got[p])
            assert decoded.schema.equals(local[p].schema)
            assert decoded.to_pylist() == local[p].to_pylist()
        # the NULL key forms one group in one partition
        null_parts = [p for p in range(P) if local[p] is not None
                      and local[p]["k"].null_count]
        assert len(null_parts) == 1


def test_concat_sort_mixed_sources(tmp_path):
    """One reduce side may mix an IPC buffer, a bucket file's path and a
    table."""
    import pyarrow.parquet as pq

    from hypertrace_ingester_ray.stages import grouping

    block = _exchange_block()
    a, b, c = block.slice(0, 4), block.slice(4, 4), block.slice(8)
    path = str(tmp_path / "bucket.parquet")
    pq.write_table(b, path)
    got = grouping._concat_sort(
        ["n"], [grouping._ipc_buffer(a), None, path, c], block.schema
    )
    assert got.to_pylist() == block.sort_by("n").to_pylist()
