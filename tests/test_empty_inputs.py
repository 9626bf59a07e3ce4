"""Zero-row-input hardening: Ray drops the schema of an empty dataset after
any transform (``ds.schema()`` → None), which used to crash the exchange
(`cogroup` AttributeError) and Ray's native join (ArrowInvalid at finalize).
These tests pin the degraded-but-graceful semantics documented on each
operator.  The empty datasets are built the way real pipelines produce
them: a transform over a zero-row parquet read."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data


def _empty_like(table: pa.Table, tmp_path, name: str):
    """A schema-LESS empty dataset, as a filtered-to-nothing read produces."""
    import pyarrow.parquet as pq

    p = str(tmp_path / f"{name}.parquet")
    pq.write_table(table.slice(0, 0), p)
    out = ray.data.read_parquet(p).map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    assert out.schema() is None  # the Ray behavior this module hardens
    return out


@pytest.fixture()
def lr(tmp_path):
    lt = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "lv": pa.array([10, 20, 30], pa.int64())})
    rt = pa.table({"k": pa.array([2, 3, 4], pa.int64()), "rv": pa.array([200, 300, 400], pa.int64())})
    return lt, rt, tmp_path


def test_hash_join_empty_sides(ray_session, lr):
    from hypertrace_ingester_ray.stages.joins import cogroup_join

    lt, rt, tmp = lr
    left = ray.data.from_arrow(lt)
    empty_r = _empty_like(rt, tmp, "r")
    out = cogroup_join(left, empty_r, on=["k"], num_partitions=4)
    assert out.count() == 0
    # inner join vs empty right: typed empty carrying the left columns
    # (checked on the dataset schema: Ray's to_pandas drops columns of an
    # all-empty dataset)
    assert set(out.schema().names) >= {"k", "lv"}
    out2 = cogroup_join(
        _empty_like(lt, tmp, "l"), ray.data.from_arrow(rt), on=["k"], num_partitions=4
    ).to_pandas()
    assert len(out2) == 0


def test_cogroup_join_left_outer_empty_right(ray_session, lr):
    from hypertrace_ingester_ray.stages.joins import cogroup_join

    lt, rt, tmp = lr
    out = cogroup_join(
        ray.data.from_arrow(lt),
        _empty_like(rt, tmp, "r"),
        on=["k"],
        how="left_outer",
        num_partitions=4,
    ).to_pandas()
    # all left rows survive; right payload is untypeable so only left cols
    assert sorted(out["k"].tolist()) == [1, 2, 3]


def test_set_op_empty_sides(ray_session, lr):
    from hypertrace_ingester_ray.stages.joins import set_op

    lt, _, tmp = lr
    left = ray.data.from_arrow(lt)
    empty = _empty_like(lt, tmp, "e")
    assert set_op(left, empty, how="intersect", num_partitions=4).count() == 0
    exc = set_op(left, empty, how="except", num_partitions=4).to_pandas()
    assert sorted(exc["k"].tolist()) == [1, 2, 3]
    assert set_op(empty, left, how="intersect", num_partitions=4).count() == 0
    assert set_op(empty, left, how="except", num_partitions=4).count() == 0


def test_apply_changes_empty_sides(ray_session, tmp_path):
    from hypertrace_ingester_ray.stages.joins import apply_changes

    snap_t = pa.table({"k": pa.array([1, 2], pa.int64()), "v": pa.array(["a", "b"])})
    chg_t = pa.table(
        {
            "k": pa.array([2, 3], pa.int64()),
            "v": pa.array(["B", "C"]),
            "op": pa.array(["delete", "upsert"]),
        }
    )
    # empty change stream: snapshot passes through unchanged
    out = apply_changes(
        ray.data.from_arrow(snap_t),
        _empty_like(chg_t, tmp_path, "chg"),
        key="k",
        num_partitions=4,
    ).to_pandas()
    assert sorted(out["k"].tolist()) == [1, 2]
    # empty snapshot: upserts become the snapshot, deletes are no-ops
    out2 = apply_changes(
        _empty_like(snap_t, tmp_path, "snap"),
        ray.data.from_arrow(chg_t),
        key="k",
        num_partitions=4,
    ).to_pandas()
    assert sorted(out2["k"].tolist()) == [3]
    assert list(out2.columns) == ["k", "v"]


def test_asof_and_range_join_empty_sides(ray_session, tmp_path):
    from hypertrace_ingester_ray.stages.joins import asof_join, range_join

    lt = pa.table(
        {
            "k": pa.array([1, 1], pa.int64()),
            "ts": pa.array([100, 200], pa.int64()),
            "lv": pa.array([7, 8], pa.int64()),
        }
    )
    rt = pa.table(
        {
            "k": pa.array([1], pa.int64()),
            "ts": pa.array([150], pa.int64()),
            "rv": pa.array([9], pa.int64()),
        }
    )
    left = ray.data.from_arrow(lt)
    empty_r = _empty_like(rt, tmp_path, "r")
    # empty right: left rows pass through (no right payload columns)
    out = asof_join(left, empty_r, key="k", ts_col="ts", num_partitions=4).to_pandas()
    assert sorted(out["ts"].tolist()) == [100, 200]
    # empty left: empty result
    assert (
        asof_join(_empty_like(lt, tmp_path, "l"), ray.data.from_arrow(rt), key="k", ts_col="ts", num_partitions=4).count()
        == 0
    )
    # range join is inner: either empty side -> empty result
    assert range_join(left, empty_r, key="k", ts_col="ts", window_us=100, num_partitions=4).count() == 0
    assert (
        range_join(_empty_like(lt, tmp_path, "l2"), ray.data.from_arrow(rt), key="k", ts_col="ts", window_us=100, num_partitions=4).count()
        == 0
    )


def test_keyed_diff_empty_sides(ray_session, tmp_path):
    from hypertrace_ingester_ray.stages.joins import keyed_diff

    old_t = pa.table({"k": pa.array([1, 2], pa.int64()), "v": pa.array([5, 6], pa.int64())})
    new = ray.data.from_arrow(old_t)
    diff = keyed_diff(
        _empty_like(old_t, tmp_path, "old"), new, key="k", compare_cols=["v"], num_partitions=4
    ).to_pandas()
    assert sorted(diff["change"].tolist()) == ["added", "added"]
    diff2 = keyed_diff(
        new, _empty_like(old_t, tmp_path, "new"), key="k", compare_cols=["v"], num_partitions=4
    ).to_pandas()
    assert sorted(diff2["change"].tolist()) == ["removed", "removed"]
