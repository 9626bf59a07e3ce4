"""Regression tests for the round-4 self-review findings: null keys in the
vectorized RateLimiter, drop rules on raw-only input columns, empty-partition
tenant counting, out-dir run-identity guard, nested input fingerprints, and
the streaming seed fingerprint for BFS checkpoints."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hypertrace_ingester_ray.pipelines.ingest import (
    PipelineConfig,
    _input_fingerprint,
    process_partition,
    run_pipeline,
)
from hypertrace_ingester_ray.sources.transcripts import transcripts_from_events
from hypertrace_ingester_ray.stages.filters import RateLimitConfig, RateLimiter
from hypertrace_ingester_ray.stages.normalize import (
    DropCondition,
    NormalizeConfig,
    normalize_batch,
)


def test_rate_limiter_null_keys():
    """Null tenant/key values are real groups (M2 tenant_column can yield
    null tenants): they must be rate-limited, not crash pandas' default
    dropna groupby with ngroup()==-1 / NaN cumcount."""
    t = pa.table(
        {
            "tenant_id": ["a", None, "a", "a", None, None],
            "conv_id": ["c", "c", "c", "c", "c", None],
        }
    )
    rl = RateLimiter(2)
    out = rl(t)
    # ('a','c') capped at 2, (None,'c') capped at 2, (None,None) keeps 1
    assert out.num_rows == 5
    # state carried: only (None,None) has budget left (1 of 2 used)
    out2 = rl(t)
    assert out2.num_rows == 1
    assert out2["tenant_id"][0].as_py() is None
    assert out2["conv_id"][0].as_py() is None
    assert rl(t).num_rows == 0


def test_drop_rule_on_raw_only_column():
    """A drop rule on an input column outside the normalized projection
    (e.g. the tenant_column source) must evaluate against the RAW batch,
    not KeyError on the projected table (heavy extraction path)."""
    n = 4
    batch = pa.table(
        {
            "conv_id": ["c"] * n,
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": ["user"] * n,
            "text": ["GET /a 200 1ms 1b"] * n,
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array([1000 * i for i in range(n)], pa.timestamp("us")),
            "customer": ["keep", "dropme", "keep", None],
        }
    )
    cfg = NormalizeConfig(
        drop_rules=((DropCondition("customer", "EQ", "dropme"),),)
    )
    out = normalize_batch(batch, cfg)
    assert out.num_rows == n - 1
    # missing-column semantics (absent attribute == null attribute):
    # NOT_EXISTS matches every row, EXISTS none, EQ none
    cfg2 = NormalizeConfig(
        drop_rules=((DropCondition("no_such_col", "NOT_EXISTS"),),)
    )
    assert normalize_batch(batch, cfg2).num_rows == 0
    cfg3 = NormalizeConfig(
        drop_rules=(
            (DropCondition("no_such_col", "EXISTS"),),
            (DropCondition("no_such_col", "EQ", "x"),),
        )
    )
    assert normalize_batch(batch, cfg3).num_rows == n


def test_process_partition_empty_with_tenant_column():
    """pc.all/pc.sum return null over empty arrays; the tenant-drop counter
    must not TypeError on a zero-row partition (the documented pure core)."""
    empty = pa.table(
        {
            "conv_id": pa.array([], pa.string()),
            "turn_idx": pa.array([], pa.int32()),
            "role": pa.array([], pa.string()),
            "text": pa.array([], pa.string()),
            "tool": pa.array([], pa.string()),
            "ts": pa.array([], pa.timestamp("us")),
            "tenant_id": pa.array([], pa.string()),
        }
    )
    from hypertrace_ingester_ray.enrichers import build_default_registry

    views, stats = process_partition(
        empty, registry=build_default_registry(), tenant_column="tenant"
    )
    assert stats["rows_in"] == 0
    assert stats["rows_no_tenant"] == 0


def test_run_identity_guard_rejects_config_change(tmp_path, sf_dir):
    """Resume manifests skip committed partitions, so re-running into an
    existing out_dir with a DIFFERENT config (here: adding a rate limit)
    must raise instead of silently serving un-rate-limited resumed rows."""
    out = str(tmp_path / "guard")
    cfg = PipelineConfig(num_partitions=4)
    s1 = run_pipeline(transcripts_from_events(sf_dir), out, cfg)
    # same config: legitimate resume
    s2 = run_pipeline(transcripts_from_events(sf_dir), out, cfg)
    assert s2["resumed_partitions"] == 4
    assert s2["view_counts"] == s1["view_counts"]
    changed = PipelineConfig(
        num_partitions=4, rate_limit=RateLimitConfig(5, 10**7)
    )
    with pytest.raises(ValueError, match="different run"):
        run_pipeline(transcripts_from_events(sf_dir), out, changed)
    # an out_dir with prior output but no identity record is refused too
    legacy = tmp_path / "legacy"
    (legacy / "per_turn").mkdir(parents=True)
    with pytest.raises(ValueError, match="no _run_config.json"):
        run_pipeline(transcripts_from_events(sf_dir), str(legacy), cfg)


def test_input_fingerprint_recursive(tmp_path):
    """Nested/partitioned parquet layouts (read_parquet reads them
    recursively) must fingerprint their files, not hash the empty string —
    otherwise two different nested inputs look identical to the stale-bucket
    guard."""
    a, b = tmp_path / "a", tmp_path / "b"
    for root, payload in ((a, b"x" * 10), (b, b"y" * 24)):
        (root / "part=0").mkdir(parents=True)
        (root / "part=0" / "f.parquet").write_bytes(payload)
    fa, fb = _input_fingerprint(str(a)), _input_fingerprint(str(b))
    assert fa["n_files"] == fb["n_files"] == 1
    assert fa["crc"] != fb["crc"]


def test_bfs_checkpoint_seed_fingerprint_streaming(tmp_path):
    """Seed identity is a streaming two-int fingerprint (no driver
    materialization of the seed set); a different seed set into the same
    checkpoint dir raises, the same one resumes."""
    import ray.data

    from hypertrace_ingester_ray.stages.graph import bfs_hops

    edges = ray.data.from_arrow(
        pa.table({"src": [1, 2, 3], "dst": [2, 3, 4]})
    )
    seeds = ray.data.from_arrow(pa.table({"node": pa.array([1], pa.int64())}))
    ck = str(tmp_path / "ck")
    r1 = {r["node"]: r["dist"] for r in bfs_hops(
        edges, seeds, max_hops=2, num_partitions=2, checkpoint_dir=ck
    ).take_all()}
    assert r1 == {1: 0, 2: 1, 3: 2}
    # same seeds: resumes cleanly and bit-identically
    r2 = {r["node"]: r["dist"] for r in bfs_hops(
        edges, seeds, max_hops=2, num_partitions=2, checkpoint_dir=ck
    ).take_all()}
    assert r2 == r1
    other = ray.data.from_arrow(
        pa.table({"node": pa.array([4], pa.int64())})
    )
    with pytest.raises(ValueError, match="different run"):
        bfs_hops(edges, other, max_hops=2, num_partitions=2, checkpoint_dir=ck)


def test_hot_key_counts_sampled_detection():
    """Sampled pre-count (skew_join's near-unique-key regime): a planted
    hot key is detected from a 1-in-R row sample, singletons are not, and
    the returned estimate is within 2x of truth."""
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import hot_key_counts

    hot_n, n_unique = 5000, 20000
    keys = ["hot"] * hot_n + [f"u{i}" for i in range(n_unique)]
    ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(8)
    got = hot_key_counts(ds, "k", threshold=1000, sample_rate=16)
    assert set(got) == {"hot"}
    assert hot_n / 2 <= got["hot"] <= hot_n * 2
    # exact path unchanged
    exact = hot_key_counts(ds, "k", threshold=1000)
    assert exact == {"hot": hot_n}


def test_skew_join_sampled_still_row_identical():
    """skew_join with a sampling-regime threshold returns exactly the plain
    inner join rows (the hot set only routes)."""
    import ray.data

    from hypertrace_ingester_ray.stages.joins import cogroup_join, skew_join

    n = 40000
    lk = ["h"] * (n // 2) + [f"k{i % 997}" for i in range(n // 2)]
    left = ray.data.from_arrow(
        pa.table({"k": lk, "v": list(range(n))})
    ).repartition(8)
    right = ray.data.from_arrow(
        pa.table({"k": ["h"] + [f"k{i}" for i in range(997)],
                  "w": list(range(998))})
    )
    a = skew_join(left, right, on="k", hot_threshold=8192, num_partitions=8)
    b = cogroup_join(left, right, on=["k"], num_partitions=8)
    pa_a = a.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    pa_b = b.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    assert pa_a[["k", "v", "w"]].equals(pa_b[["k", "v", "w"]])
