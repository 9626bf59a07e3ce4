"""Reduce batching of the direct exchange: small hash partitions share one
reduce task (one fused extract → enrich → views pass, and one file per
sink) while every partition keeps its own manifest and resume unit."""

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


def _sorted_rows(out_dir, sink):
    """A sink's rows, order-free (map columns compare as entry lists)."""
    rows = pq.read_table(os.path.join(out_dir, sink)).to_pylist()
    return sorted(rows, key=repr)


def _sink_files(out_dir, sink):
    return sorted(
        os.path.basename(f) for f in glob.glob(os.path.join(out_dir, sink, "*.parquet"))
    )


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
    """Every partition's manifest counters and view counts, and every
    sink's rows, are the same whether partitions share reduce tasks (and
    sink files) or not."""
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

    batched_out, single_out = str(tmp_path / "batched"), str(tmp_path / "single")
    batched = ingest.run_pipeline(source(), batched_out, cfg)
    monkeypatch.setattr(grouping, "REDUCE_BATCH_ROWS", 1)
    single = ingest.run_pipeline(source(), single_out, cfg)

    assert single["reduce_tasks"] == single["num_partitions"] == 16
    assert batched["reduce_tasks"] < batched["num_partitions"]
    m_batched = _manifests(batched_out)
    m_single = _manifests(single_out)
    assert len(m_batched) == 16
    assert sorted(m_batched) == sorted(m_single)
    file_keys = {"file_part", "file_parts", "view_checksums"}
    for name, m in m_batched.items():
        assert {k: v for k, v in m.items() if k not in file_keys} == {
            k: v for k, v in m_single[name].items() if k not in file_keys
        }, name
        assert m_single[name]["file_parts"] == [m["part_id"]]
        assert m["part_id"] in m["file_parts"]
    # one file per reduce task and sink, named by its first partition
    firsts = sorted({f"part-{m['file_part']:05d}.parquet" for m in m_batched.values()})
    assert len(firsts) == batched["reduce_tasks"]
    for sink in ingest.SINKS:
        assert _sink_files(batched_out, sink) == firsts
        if sink != "metrics_partial":  # partials are cut per batch
            assert _sorted_rows(batched_out, sink) == _sorted_rows(single_out, sink)
    assert _sorted_rows(batched_out, "metrics") == _sorted_rows(single_out, "metrics")
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
    """A batch killed after its first partition commits: that commit does
    not count, because its file-mates never committed — the rerun
    recomputes the whole batch, and the totals and manifests equal a fresh
    run's."""
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
    assert lineage.load_manifest(out, first) is None

    rerun = ingest.stats_table(proc.process_batch(parts)).to_pydict()
    assert rerun["part_id"] == [p for p, _ in parts]
    assert rerun["resumed"] == [False] * 6

    fresh_out = str(tmp_path / "fresh")
    fresh = ingest.stats_table(
        PartitionProcessor(fresh_out, cfg).process_batch(parts)
    ).to_pydict()
    assert rerun == fresh
    assert sum(fresh["rows_rate_limited"]) > 0
    assert _manifests(out) == _manifests(fresh_out)
    assert _sink_files(out, "per_turn") == [f"part-{first:05d}.parquet"]


def _kill_mid_batch_then_resume(tmp_path, corpus, monkeypatch, resume_rows):
    """A fresh run, then the out dir as a run leaves it when killed inside
    a batch: the batch ``[q, q+1, q+2]`` wrote its files and committed
    ``q`` only (``commit_manifest`` raising on the second commit); no other
    partition committed.  ``q`` is the second partition of a multi-partition
    batch of the resume's plan (``REDUCE_BATCH_ROWS`` = ``resume_rows``),
    so the resume never rewrites the killed batch's file itself.  Returns
    (fresh out dir, resumed out dir, fresh summary, resumed summary)."""
    import ray
    import ray.data

    cfg = PipelineConfig(num_partitions=16)
    fresh_out, out = str(tmp_path / "fresh"), str(tmp_path / "killed")
    fresh = ingest.run_pipeline(ray.data.read_parquet(corpus), fresh_out, cfg)
    # the killed run's identity record and schema manifest
    os.makedirs(out)
    for name in ("_run_config.json", "_schema.json"):
        with open(os.path.join(fresh_out, name)) as src, open(
            os.path.join(out, name), "w"
        ) as dst:
            dst.write(src.read())

    parts = _local_partitions(corpus, cfg, cfg.num_partitions)
    counts = np.zeros(cfg.num_partitions, dtype=np.int64)
    for p, t in parts:
        counts[p] = t.num_rows
    cpus = int(ray.cluster_resources().get("CPU", 1))
    plan = plan_reduce_batches(counts, resume_rows, cpus)
    q = next(b for b in plan if len(b) > 1)[1]
    pos = [p for p, _ in parts].index(q)
    killed = parts[pos : pos + 3]
    assert len(killed) == 3

    real_commit = lineage.commit_manifest
    calls = []

    def commit_then_die(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise RuntimeError("killed mid-batch")
        return real_commit(*args, **kwargs)

    monkeypatch.setattr(lineage, "commit_manifest", commit_then_die)
    with pytest.raises(RuntimeError, match="killed mid-batch"):
        PartitionProcessor(out, cfg).process_batch(killed)
    monkeypatch.setattr(lineage, "commit_manifest", real_commit)
    assert sorted(_manifests(out)) == [f"part-{q:05d}.json"]
    assert _sink_files(out, "per_turn") == [f"part-{q:05d}.parquet"]

    monkeypatch.setattr(grouping, "REDUCE_BATCH_ROWS", resume_rows)
    resumed = ingest.run_pipeline(ray.data.read_parquet(corpus), out, cfg)
    return fresh_out, out, fresh, resumed


def test_batch_killed_mid_commit_resumes_without_dup_or_missing(
    tmp_path, corpus, monkeypatch
):
    fresh_out, out, fresh, resumed = _kill_mid_batch_then_resume(
        tmp_path, corpus, monkeypatch, grouping.REDUCE_BATCH_ROWS
    )
    assert resumed["resumed_partitions"] == 0
    assert resumed["view_counts"] == fresh["view_counts"]
    key = ["conv_id", "turn_idx"]
    rows = [
        ingest.view_dataset(o, "per_turn").to_pandas()[key] for o in (fresh_out, out)
    ]
    assert not rows[1].duplicated(key).any()
    assert sorted(map(tuple, rows[1].values)) == sorted(map(tuple, rows[0].values))
    for sink in ingest.VIEW_BUILDERS:
        assert _sorted_rows(out, sink) == _sorted_rows(fresh_out, sink)


def test_resume_under_another_batch_plan_leaves_no_orphan(
    tmp_path, corpus, monkeypatch
):
    fresh_out, out, fresh, resumed = _kill_mid_batch_then_resume(
        tmp_path, corpus, monkeypatch, 10**6
    )
    assert resumed["view_counts"] == fresh["view_counts"]
    named = sorted(
        {f"part-{m['file_part']:05d}.parquet" for m in _manifests(out).values()}
    )
    assert len(named) == resumed["reduce_tasks"]
    for sink in ingest.SINKS:
        assert _sink_files(out, sink) == named, sink
        assert not glob.glob(os.path.join(out, sink, "*.tmp"))
    pt = ingest.view_dataset(out, "per_turn").to_pandas()
    assert len(pt) == fresh["view_counts"]["per_turn"]
    assert not pt.duplicated(["conv_id", "turn_idx"]).any()


def test_flipped_byte_recomputes_every_partition_of_the_file(tmp_path, corpus):
    import ray.data

    cfg = PipelineConfig(num_partitions=16)
    out = str(tmp_path / "run")
    first = ingest.run_pipeline(ray.data.read_parquet(corpus), out, cfg)
    shared = next(m for m in _manifests(out).values() if len(m["file_parts"]) > 1)
    path = lineage.part_file(out, "per_role", shared["file_part"])
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        b = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([b[0] ^ 0xFF]))
    for p in shared["file_parts"]:
        assert lineage.load_manifest(out, p) is None
    rerun = ingest.run_pipeline(ray.data.read_parquet(corpus), out, cfg)
    assert rerun["resumed_partitions"] == first["num_partitions"] - len(
        shared["file_parts"]
    )
    assert rerun["view_counts"] == first["view_counts"]
    pr = ingest.view_dataset(out, "per_role").to_pandas()
    assert len(pr) == first["view_counts"]["per_role"]
    assert all(lineage.load_manifest(out, p) is not None for p in shared["file_parts"])


def test_out_dir_from_per_partition_layout_is_refused(tmp_path, corpus):
    """An out dir written with one sink file per partition (its identity
    record has no ``sink_layout``) must not be resumed into."""
    import ray.data

    cfg = PipelineConfig(num_partitions=4)
    out = str(tmp_path / "old")
    ingest.run_pipeline(ray.data.read_parquet(corpus), out, cfg)
    path = os.path.join(out, "_run_config.json")
    with open(path) as f:
        record = json.load(f)
    del record["sink_layout"]
    with open(path, "w") as f:
        json.dump(record, f, sort_keys=True)
    with pytest.raises(ValueError, match="sink_layout"):
        ingest.run_pipeline(ray.data.read_parquet(corpus), out, cfg)
