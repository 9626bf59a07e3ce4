"""Reduce batching of the direct exchange: small hash partitions share one
reduce task (and one fused extract → enrich → views pass) while every
partition keeps its own sinks, manifest and resume unit."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hypertrace_ingester_ray.pipelines import ingest
from hypertrace_ingester_ray.pipelines.ingest import PartitionProcessor, PipelineConfig
from hypertrace_ingester_ray.stages import grouping
from hypertrace_ingester_ray.stages.filters import RateLimitConfig
from hypertrace_ingester_ray.stages.grouping import plan_reduce_batches
from hypertrace_ingester_ray.stages.normalize import NormalizeConfig
from hypertrace_ingester_ray.state import lineage


def test_plan_reduce_batches_by_rows():
    counts = [300, 0, 300, 500, 0, 2000, 100, 100]
    # consecutive non-empty partitions up to the target; empty ones skipped;
    # a partition above the target runs alone
    assert plan_reduce_batches(counts, 1000) == [[0, 2], [3], [5], [6, 7]]
    assert plan_reduce_batches(counts, 1) == [[0], [2], [3], [5], [6], [7]]
    assert plan_reduce_batches([0, 0], 1000) == []
    assert plan_reduce_batches([5] * 4, 1000) == [[0, 1, 2, 3]]


def test_plan_reduce_batches_keeps_cpu_parallelism():
    # never fewer batches than min(non-empty partitions, CPUs)
    counts = [10] * 8
    assert plan_reduce_batches(counts, 10**6, 4) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert len(plan_reduce_batches(counts, 10**6, 16)) == 8
    # the split lands on the batch with the most rows
    assert plan_reduce_batches([1, 1, 50, 50], 10**6, 2) == [[0, 1, 2], [3]]
    for cpus in range(1, 10):
        b = plan_reduce_batches([3, 0, 7, 1, 9, 0, 2], 10**6, cpus)
        assert len(b) == min(5, cpus)
        assert sum(b, []) == [0, 2, 3, 4, 6]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from hypertrace_ingester_ray.sources.transcripts import write_synthetic_transcripts

    out = str(tmp_path_factory.mktemp("batch_corpus"))
    write_synthetic_transcripts(
        out, n_convs=240, convs_per_file=80, seed=11, max_workers=1,
        mean_turns=12, dup_rate=0.05,
    )
    return out


def _manifests(out_dir):
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "_manifests", "part-*.json"))):
        with open(path) as f:
            out[os.path.basename(path)] = json.load(f)
    return out


@pytest.mark.parametrize(
    "cfg",
    [
        PipelineConfig(num_partitions=16),
        PipelineConfig(
            num_partitions=16,
            normalize=NormalizeConfig(tenant_column="tenant"),
            rate_limit=RateLimitConfig(max_rows_per_window=4, window_sec=60.0),
            max_turns_per_conv=8,
        ),
    ],
    ids=["default", "tenant_rate_limit_cap"],
)
def test_batched_run_byte_identical_to_one_partition_per_task(
    tmp_path, corpus, cfg, monkeypatch
):
    """Every partition's manifest (counters, view counts, sink checksums)
    is the same whether partitions share reduce tasks or not."""
    import ray.data

    # defined here so Ray pickles it by value (workers cannot import tests)
    def _add_tenant(batch: pa.Table) -> pa.Table:
        # tenant from the conversation id; every 5th conversation has none
        h = np.array([sum(map(ord, c)) for c in batch["conv_id"].to_pylist()])
        tenant = np.where(h % 5 == 0, None, np.where(h % 2 == 0, "acme", "globex"))
        return batch.append_column("tenant", pa.array(tenant, pa.string()))

    def source():
        ds = ray.data.read_parquet(corpus)
        if cfg.normalize.tenant_column:
            ds = ds.map_batches(_add_tenant, batch_format="pyarrow")
        return ds

    batched = ingest.run_pipeline(source(), str(tmp_path / "batched"), cfg)
    monkeypatch.setattr(grouping, "REDUCE_BATCH_ROWS", 1)
    single = ingest.run_pipeline(source(), str(tmp_path / "single"), cfg)

    assert single["reduce_tasks"] == single["num_partitions"] == 16
    assert batched["reduce_tasks"] < batched["num_partitions"]
    m_batched = _manifests(tmp_path / "batched")
    assert len(m_batched) == 16
    assert m_batched == _manifests(tmp_path / "single")
    for key in ("view_counts", "rows_in", "rows_deduped", "rows_capped",
                "rows_no_tenant", "rows_rate_limited"):
        assert batched[key] == single[key]
    if cfg.rate_limit is not None:
        assert batched["rows_rate_limited"] > 0
        assert batched["rows_no_tenant"] > 0
        assert batched["rows_capped"] > 0
    with open(tmp_path / "batched" / "_run_manifest.json") as f:
        assert json.load(f)["reduce_tasks"] == batched["reduce_tasks"]


def _local_partitions(corpus, cfg, num_partitions):
    """The sorted hash partitions the direct exchange would hand the
    reduce tasks, built in this process."""
    from hypertrace_ingester_ray.stages.normalize import normalize_light_batch

    slices = [
        grouping._shuffle_map_fn(
            normalize_light_batch(
                pq.read_table(f).replace_schema_metadata(None), cfg.normalize
            ),
            ["conv_id"],
            num_partitions,
        )
        for f in sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    ]
    order = ["conv_id", "turn_idx", "ts"]
    return [
        (p, grouping._concat_sort(order, [s[p] for s in slices]))
        for p in range(num_partitions)
        if any(s[p] is not None for s in slices)
    ]


def test_resume_inside_a_batch(tmp_path, corpus, monkeypatch):
    """A batch killed after its first partition commits: the rerun skips
    the committed partition, writes the rest, and the totals and
    manifests equal a fresh run's."""
    cfg = PipelineConfig(
        num_partitions=6,
        rate_limit=RateLimitConfig(max_rows_per_window=4, window_sec=60.0),
    )
    parts = _local_partitions(corpus, cfg, cfg.num_partitions)
    assert len(parts) == 6
    out = str(tmp_path / "killed")
    proc = PartitionProcessor(out, cfg)

    real_commit = lineage.commit_manifest
    calls = []

    def commit_then_die(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise RuntimeError("killed mid-batch")
        return real_commit(*args, **kwargs)

    monkeypatch.setattr(lineage, "commit_manifest", commit_then_die)
    with pytest.raises(RuntimeError, match="killed mid-batch"):
        proc.process_batch(parts)
    monkeypatch.setattr(lineage, "commit_manifest", real_commit)
    first = parts[0][0]
    assert sorted(_manifests(out)) == [f"part-{first:05d}.json"]

    rerun = proc.process_batch(parts).to_pydict()
    assert rerun["part_id"] == [p for p, _ in parts]
    assert rerun["resumed"] == [True] + [False] * 5

    fresh_out = str(tmp_path / "fresh")
    fresh = PartitionProcessor(fresh_out, cfg).process_batch(parts).to_pydict()
    for col, vals in fresh.items():
        if col != "resumed":
            assert sum(rerun[col]) == sum(vals), col
    assert sum(fresh["rows_rate_limited"]) > 0
    assert _manifests(out) == _manifests(fresh_out)
