"""True crash-resume: SIGKILL a CLI run mid-flight, re-run, and assert the
routed rows equal a clean run's — the north rule's "killed ray job submit
resumes without duplicate or missing routed rows"."""

import json
import os
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_sigkill_then_resume(tmp_path):
    corpus = str(tmp_path / "corpus")
    subprocess.run(
        [sys.executable, "-m", "hypertrace_ingester_ray.cli", "synth",
         "--out", corpus, "--n-convs", "3000"],
        cwd=REPO, check=True, capture_output=True,
    )

    def run_cli(out, timeout=None, kill_after=None):
        p = subprocess.Popen(
            [sys.executable, "-m", "hypertrace_ingester_ray.cli", "run",
             "--input", corpus, "--out", out,
             "--num-partitions", "16", "--num-cpus", "4"],
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        if kill_after is not None:
            manifests = os.path.join(out, "_manifests")
            # generous deadline: under external load (full suite + bench in
            # parallel) the first partitions can take >120s to commit
            deadline = time.time() + 420
            while time.time() < deadline:
                done = len(os.listdir(manifests)) if os.path.isdir(manifests) else 0
                if done >= kill_after:
                    break
                time.sleep(0.2)
            p.kill()  # SIGKILL — no cleanup, mid-write
            p.wait()
            return None
        out_text, _ = p.communicate(timeout=timeout)
        assert p.returncode == 0, out_text
        return json.loads([l for l in out_text.splitlines() if l.startswith("{")][-1])

    clean = str(tmp_path / "clean")
    s_clean = run_cli(clean, timeout=300)

    crashed = str(tmp_path / "crashed")
    run_cli(crashed, kill_after=4)  # kill once ≥4 partitions committed
    committed = len(os.listdir(os.path.join(crashed, "_manifests")))
    assert committed >= 1

    s_resumed = run_cli(crashed, timeout=300)
    assert s_resumed["resumed_partitions"] >= 1
    assert s_resumed["view_counts"] == s_clean["view_counts"]

    a = pq.read_table(os.path.join(clean, "per_turn")).to_pandas()
    b = pq.read_table(os.path.join(crashed, "per_turn")).to_pandas()
    key = ["conv_id", "turn_idx"]
    assert not b.duplicated(key).any()
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True)[sorted(a.columns)],
        b.sort_values(key).reset_index(drop=True)[sorted(b.columns)],
        check_dtype=False,
    )


def test_manifest_checksum_detects_corruption(tmp_path):
    """A committed part file that is later corrupted must invalidate its
    manifest so the partition is recomputed, not resumed (VERDICT r1 #6)."""
    import pyarrow as pa
    from hypertrace_ingester_ray.state import lineage

    out = str(tmp_path / "out")
    tbl = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    rows, crc = lineage.write_view_part(out, "per_turn", 0, tbl)
    assert rows == 3
    lineage.commit_manifest(
        out, 0, rows_in=3, rows_deduped=0, rows_capped=0,
        view_counts={"per_turn": 3}, view_checksums={"per_turn": crc},
    )
    assert lineage.load_manifest(out, 0) is not None

    # corrupt the committed file: truncate + garbage
    fp = lineage.part_file(out, "per_turn", 0)
    with open(fp, "r+b") as f:
        f.seek(0)
        f.write(b"\x00CORRUPT\x00")
    assert lineage.load_manifest(out, 0) is None  # forces recompute

    # missing file also invalidates
    os.remove(fp)
    assert lineage.load_manifest(out, 0) is None


def test_write_partitioned_resume_and_corruption(ray_session, tmp_path):
    """Generic sink: second run resumes every committed partition; a
    corrupted part file fails CRC validation and is recomputed."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.sinks import write_partitioned
    from hypertrace_ingester_ray.state import lineage

    t = pa.table(
        {
            "doc_id": pa.array(list(range(1000)), pa.int64()),
            "text": pa.array([f"doc {i}" for i in range(1000)], pa.string()),
        }
    )
    out = str(tmp_path / "sink")
    s1 = write_partitioned(
        ray.data.from_arrow(t), out, key="doc_id", num_partitions=8
    )
    assert s1["rows"] == 1000 and s1["resumed_partitions"] == 0

    s2 = write_partitioned(
        ray.data.from_arrow(t), out, key="doc_id", num_partitions=8
    )
    assert s2["resumed_partitions"] == s2["num_partitions"]
    assert s2["rows"] == 1000

    # corrupt one committed part file -> only that partition recomputes
    victim = lineage.part_file(out, "data", 3)
    with open(victim, "r+b") as f:
        f.seek(10)
        f.write(b"\xff\xff\xff")
    s3 = write_partitioned(
        ray.data.from_arrow(t), out, key="doc_id", num_partitions=8
    )
    assert s3["resumed_partitions"] == s3["num_partitions"] - 1
    assert s3["rows"] == 1000

    # different partition count into the same dir must refuse
    import pytest as _pytest

    with _pytest.raises(ValueError):
        write_partitioned(
            ray.data.from_arrow(t), out, key="doc_id", num_partitions=16
        )

    # every row lands in exactly one file
    import pyarrow.parquet as pq
    import glob

    back = pa.concat_tables(
        [pq.read_table(p) for p in glob.glob(out + "/data/*.parquet")]
    )
    assert sorted(back["doc_id"].to_pylist()) == list(range(1000))


def test_write_partitioned_resumes_with_empty_partitions(ray_session, tmp_path):
    """A layout with empty partitions resumes: the run manifest keeps the
    layout's partition count (it once stored the non-empty count, and the
    rerun's count guard then refused the dir)."""
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.sinks import write_partitioned

    t = pa.table({"k": pa.array([1, 2, 3], pa.int64())})
    out = str(tmp_path / "sparse")
    s1 = write_partitioned(ray.data.from_arrow(t), out, key="k", num_partitions=8)
    assert s1["num_partitions"] == 3 and s1["resumed_partitions"] == 0
    s2 = write_partitioned(ray.data.from_arrow(t), out, key="k", num_partitions=8)
    assert s2["resumed_partitions"] == 3 and s2["rows"] == 3
    assert s2["exchange_bytes"] == 0


def test_range_partitioned_zone_pruning(ray_session, tmp_path):
    import json

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.sinks import (
        read_zone_pruned,
        write_range_partitioned,
    )

    rng = np.random.RandomState(13)
    n = 20000
    pdf = pd.DataFrame(
        {
            "ts": rng.randint(0, 1_000_000, n).astype(np.int64),
            "v": rng.randint(0, 100, n).astype(np.int64),
        }
    )
    out = str(tmp_path / "ranged")
    s = write_range_partitioned(
        ray.data.from_pandas(pdf).repartition(6),
        out,
        col="ts",
        num_partitions=16,
    )
    assert s["rows"] == n
    assert s["resumed_partitions"] == 0

    # zones must be (nearly) disjoint: each partition's range ends before
    # the next begins
    zm = json.load(open(f"{out}/_zone_map.json"))["zones"]
    ordered = [zm[k]["ts"] for k in sorted(zm, key=int)]
    for (alo, ahi), (blo, bhi) in zip(ordered, ordered[1:]):
        assert ahi <= blo

    # pruned read of a narrow range: most files skipped, values exact
    lo, hi = 100_000, 150_000
    ds, nread, nskip = read_zone_pruned(out, col="ts", lo=lo, hi=hi)
    assert nskip >= 12, (nread, nskip)
    got = ds.to_pandas()
    got = got[(got.ts >= lo) & (got.ts <= hi)]
    exp = pdf[(pdf.ts >= lo) & (pdf.ts <= hi)]
    assert sorted(got["ts"].tolist()) == sorted(exp["ts"].tolist())
    assert got["v"].sum() == exp["v"].sum()

    # resume: identical second run skips every partition's write
    s2 = write_range_partitioned(
        ray.data.from_pandas(pdf).repartition(6),
        out,
        col="ts",
        num_partitions=16,
    )
    assert s2["resumed_partitions"] == s2["num_partitions"]
    assert s2["rows"] == n


def test_identity_partition_out_of_range_raises(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import group_apply

    pdf = pd.DataFrame({"p": np.array([0, 1, 99], dtype=np.int64)})
    with pytest.raises(Exception, match="out of range"):
        group_apply(
            ray.data.from_pandas(pdf),
            "p",
            lambda t: t,
            num_partitions=4,
            identity_partition=True,
        ).to_pandas()


def test_incremental_ingest_new_files_only(ray_session, tmp_path):
    """File-watermark incremental runs: only unseen input files are
    processed; committed inputs are never reprocessed; mutated landed files
    raise."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    import ray.data

    from hypertrace_ingester_ray.state import watermark
    from hypertrace_ingester_ray.stages.sinks import write_partitioned

    in_dir = tmp_path / "landing"
    out_dir = tmp_path / "out"
    in_dir.mkdir()

    def land(name, lo, n):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(np.arange(lo, lo + n, dtype=np.int64)),
                    "v": pa.array(np.arange(n, dtype=np.int64)),
                }
            ),
            str(in_dir / name),
        )

    processed_calls = []

    def process(files, gen_dir):
        processed_calls.append(list(files))
        ds = ray.data.read_parquet(files)
        return write_partitioned(ds, gen_dir, key="doc_id", num_partitions=4)

    land("a.parquet", 0, 100)
    land("b.parquet", 100, 50)
    s1 = watermark.run_incremental(str(in_dir), str(out_dir), process)
    assert s1["n_files"] == 2 and s1["rows"] == 150 and s1["gen"] == 0

    # nothing new -> no-op, process not called again
    assert watermark.run_incremental(str(in_dir), str(out_dir), process) is None
    assert len(processed_calls) == 1

    # one new file -> only it is processed, into a NEW generation dir
    land("c.parquet", 200, 30)
    s2 = watermark.run_incremental(str(in_dir), str(out_dir), process)
    assert s2["n_files"] == 1 and s2["rows"] == 30 and s2["gen"] == 1
    assert processed_calls[1] == [str(in_dir / "c.parquet")]
    assert os.path.isdir(out_dir / "gen-0000") and os.path.isdir(out_dir / "gen-0001")

    # total routed rows across generations == total landed rows
    import glob

    parts = sorted(
        p
        for g in ("gen-0000", "gen-0001")
        for p in glob.glob(str(out_dir / g / "data" / "*.parquet"))
    )
    total = ray.data.read_parquet(parts).count()
    assert total == 180

    # mutating a committed landed file raises loudly
    land("a.parquet", 0, 99)
    with pytest.raises(ValueError, match="immutable"):
        watermark.run_incremental(str(in_dir), str(out_dir), process)


def test_bucketed_write_and_join(ray_session, tmp_path):
    """SMB layout: same-contract tables join with zero shuffle, key rename
    works positionally, empty buckets null-extend outer joins, and a
    contract mismatch raises loudly."""
    import pyarrow as pa
    import ray

    from hypertrace_ingester_ray.stages.sinks import (
        bucketed_join,
        write_bucketed,
    )

    left = pa.table(
        {"k": pa.array([1, 2, 3, 4, 5], pa.int64()), "l": ["a", "b", "c", "d", "e"]}
    )
    right = pa.table(
        {"rk": pa.array([2, 4, 4, 99], pa.int64()), "r": ["x", "y", "z", "w"]}
    )
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    write_bucketed(ray.data.from_arrow(left).repartition(3), da, key="k", num_buckets=4)
    write_bucketed(ray.data.from_arrow(right).repartition(2), db, key="rk", num_buckets=4)

    inner = bucketed_join(da, db, how="inner").to_pandas()
    got = sorted(map(tuple, inner[["k", "l", "r"]].values.tolist()))
    assert got == [(2, "b", "x"), (4, "d", "y"), (4, "d", "z")]

    # left outer: unmatched left keys survive with null r
    lo = bucketed_join(da, db, how="left_outer").to_pandas()
    assert len(lo) == 6 and lo[lo.k == 1].r.isna().all()

    # full outer: right-only key 99 survives with null l
    fo = bucketed_join(da, db, how="full_outer").to_pandas()
    assert len(fo) == 7 and fo[fo.k == 99].l.isna().all()

    # no bucket has rows: the join of the two stored schemas' empty tables
    ea, eb = str(tmp_path / "ea"), str(tmp_path / "eb")
    write_bucketed(ray.data.from_arrow(left.slice(0, 0)), ea, key="k",
                   num_buckets=4, schema=left.schema)
    write_bucketed(ray.data.from_arrow(right.slice(0, 0)), eb, key="rk",
                   num_buckets=4, schema=right.schema)
    none = bucketed_join(ea, eb, how="full_outer")
    assert none.count() == 0
    sch = none.schema().base_schema
    assert sch.names == ["k", "l", "r"]
    assert sch.types == [pa.int64(), pa.string(), pa.string()]
    # one all-empty side: the other side's rows, null-extended
    lo_empty = bucketed_join(da, eb, how="left_outer").to_pandas()
    assert len(lo_empty) == 5 and lo_empty.r.isna().all()

    # contract mismatch (different bucket count) raises
    db2 = str(tmp_path / "b2")
    write_bucketed(ray.data.from_arrow(right), db2, key="rk", num_buckets=8)
    with pytest.raises(ValueError, match="num_buckets"):
        bucketed_join(da, db2)


def test_zordered_write_prunes_both_columns(ray_session, tmp_path):
    """Z-order layout: zone-pruned reads skip most files for predicates on
    EITHER interleaved column, values stay exact, the synthetic code column
    is not persisted."""
    import numpy as np
    import pandas as pd
    import ray

    from hypertrace_ingester_ray.stages.sinks import (
        read_zone_pruned,
        write_zordered,
    )

    rng = np.random.RandomState(7)
    n = 40000
    pdf = pd.DataFrame(
        {
            "a": rng.randint(0, 1_000_000, n).astype(np.int64),
            "b": rng.randint(0, 1_000_000, n).astype(np.int64),
            "v": rng.randint(0, 100, n).astype(np.int64),
        }
    )
    out = str(tmp_path / "zordered")
    s = write_zordered(
        ray.data.from_pandas(pdf).repartition(6), out, cols=["a", "b"],
        num_partitions=64,
    )
    assert s["rows"] == n

    for col in ("a", "b"):  # BOTH dimensions prune — the z-order point
        lo, hi = 100_000, 200_000
        ds, nread, nskip = read_zone_pruned(out, col=col, lo=lo, hi=hi)
        assert nskip >= (nread + nskip) // 2, (col, nread, nskip)
        got = ds.to_pandas()
        assert "__zcode" not in got.columns
        got = got[(got[col] >= lo) & (got[col] <= hi)]
        exp = pdf[(pdf[col] >= lo) & (pdf[col] <= hi)]
        assert len(got) == len(exp)
        assert got["v"].sum() == exp["v"].sum()

    with pytest.raises(ValueError, match="bits"):
        write_zordered(
            ray.data.from_pandas(pdf), str(tmp_path / "z2"),
            cols=["a", "b", "v"], bits=21,
        )


def test_bucketed_group_apply_zero_shuffle(ray_session, tmp_path):
    """bucketed_group_apply == shuffle-based group_apply over the same data:
    complete key-groups per bucket, key+sort order inside the partition;
    empty buckets never reach ``fn``, and a table with no rows at all gives
    ``fn`` of the stored schema's typed empty table."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import group_apply
    from hypertrace_ingester_ray.stages.sinks import (
        bucketed_group_apply,
        write_bucketed,
    )

    rng = np.random.RandomState(13)
    n = 3000
    t = pa.table(
        {
            "k": pa.array(rng.randint(0, 40, n).astype(np.int64)),
            "ord": pa.array(rng.permutation(n).astype(np.int64)),
            "v": pa.array(rng.randint(0, 100, n).astype(np.int64)),
        }
    )
    out = str(tmp_path / "bt")
    write_bucketed(ray.data.from_arrow(t).repartition(5), out, key="k",
                   num_buckets=7)

    def _stats(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "k": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "first_v": pa.array([], pa.int64()),
                }
            )
        # ord-sorted within key: first_v is the v of the smallest ord
        import numpy as _np

        from hypertrace_ingester_ray.stages.grouping import run_boundaries

        ks = part["k"].to_numpy(zero_copy_only=False)
        vs = part["v"].to_numpy(zero_copy_only=False)
        b = run_boundaries(ks)
        return pa.table(
            {
                "k": pa.array(ks[b[:-1]]),
                "n": pa.array(_np.diff(b).astype(_np.int64)),
                "first_v": pa.array(vs[b[:-1]]),
            }
        )

    got = (
        bucketed_group_apply(out, _stats, sort_by=["ord"])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = (
        group_apply(
            ray.data.from_arrow(t), "k", _stats, sort_by=["ord"],
            num_partitions=4,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got.equals(exp), (len(got), len(exp))

    empty = str(tmp_path / "bt_empty")
    write_bucketed(ray.data.from_arrow(t.slice(0, 0)), empty, key="k",
                   num_buckets=7, schema=t.schema)
    none = bucketed_group_apply(empty, _stats, sort_by=["ord"])
    assert none.count() == 0
    sch = none.schema().base_schema
    assert sch.names == ["k", "n", "first_v"]
    assert set(sch.types) == {pa.int64()}


def test_bucketed_corpus_replay_matches_direct_run(
    ray_session, tmp_path, monkeypatch
):
    """run_pipeline over a prepare_bucketed_corpus layout (ZERO query-time
    shuffle) produces byte-identical routed rows and view counts to the
    direct shuffled run, in shared reduce batches; bucket-count mismatch
    raises.  Resumes of both runs keep committed partitions out of the
    exchange and out of every reduce task."""
    import glob
    import os

    import pytest as _pytest

    from hypertrace_ingester_ray.pipelines.ingest import (
        SINKS,
        PipelineConfig,
        prepare_bucketed_corpus,
        run_pipeline,
    )
    from hypertrace_ingester_ray.sources.transcripts import (
        transcripts_from_events,
    )

    sf = "/root/testdata/sf0.001"
    cfg = PipelineConfig(num_partitions=8)
    direct_out = str(tmp_path / "direct")
    s1 = run_pipeline(transcripts_from_events(sf), direct_out, cfg)

    bucket_dir = str(tmp_path / "corpus")
    prepare_bucketed_corpus(transcripts_from_events(sf), bucket_dir, cfg)
    replay_out = str(tmp_path / "replay")
    s2 = run_pipeline(None, replay_out, cfg, bucketed_corpus=bucket_dir)

    assert s1["view_counts"] == s2["view_counts"]
    assert s1["rows_in"] == s2["rows_in"]
    # the stored buckets ride the exchange's reduce batches: small buckets
    # share a task, and each task writes one file per sink
    assert s2["num_partitions"] == cfg.num_partitions
    assert s2["reduce_tasks"] < cfg.num_partitions
    for sink in SINKS:
        files = glob.glob(os.path.join(replay_out, sink, "*.parquet"))
        assert len(files) == s2["reduce_tasks"], sink
    # the run manifest reports the exchange's IPC bytes; replay has none
    import json

    for out, s in ((direct_out, s1), (replay_out, s2)):
        with open(os.path.join(out, "_run_manifest.json")) as f:
            assert json.load(f)["exchange_bytes"] == s["exchange_bytes"]
    assert s1["exchange_bytes"] > 0
    assert s2["exchange_bytes"] == 0

    import duckdb

    a = duckdb.sql(
        f"SELECT * FROM read_parquet('{direct_out}/per_turn/*.parquet') "
        "ORDER BY conv_id, turn_idx"
    ).df()
    b = duckdb.sql(
        f"SELECT * FROM read_parquet('{replay_out}/per_turn/*.parquet') "
        "ORDER BY conv_id, turn_idx"
    ).df()
    assert a.equals(b), (len(a), len(b))

    with _pytest.raises(ValueError, match="bucket"):
        run_pipeline(
            None,
            str(tmp_path / "bad"),
            PipelineConfig(num_partitions=4),
            bucketed_corpus=bucket_dir,
        )

    # resume: a committed partition is never shipped by the exchange's map
    # tasks nor handed to a reduce task (process_batch); its stats come
    # from its manifest, so the summary equals the fresh run's
    import shutil

    from hypertrace_ingester_ray.pipelines import ingest
    from hypertrace_ingester_ray.state import lineage

    seen = tmp_path / "process_batch_parts.txt"

    def spy(parts, *, out_dir, config, peer_index, cache_key):
        with open(seen, "a") as f:
            f.write("".join(f"{p}\n" for p, _ in parts))
        proc = ingest._cached_processor(config, peer_index, cache_key)
        return proc.process_batch(parts, out_dir)

    monkeypatch.setattr(ingest, "_partition_batch_task", spy)

    def counters(s):
        keep = ("num_partitions", "view_counts", "partition_rows")
        return {k: v for k, v in s.items() if k.startswith("rows_") or k in keep}

    def seen_parts():
        return [int(x) for x in seen.read_text().split()] if seen.exists() else []

    for out, fresh, inp, bucketed in (
        (direct_out, s1, transcripts_from_events(sf), None),
        (replay_out, s2, None, bucket_dir),
    ):
        again = run_pipeline(inp, out, cfg, bucketed_corpus=bucketed)
        assert again["resumed_partitions"] == cfg.num_partitions
        assert again["exchange_bytes"] == 0
        assert again["reduce_tasks"] == 0
        assert counters(again) == counters(fresh)
        assert seen_parts() == []

    # lose the commits of half the sink files (each file's partitions
    # commit together): only their partitions are shipped and processed
    manifests = {}
    for path in glob.glob(os.path.join(direct_out, "_manifests", "*.json")):
        with open(path) as f:
            m = json.load(f)
        manifests[m["part_id"]] = m
    files = sorted({m["file_part"] for m in manifests.values()})
    assert len(files) > 1
    lost = sorted(p for p, m in manifests.items() if m["file_part"] in files[::2])
    for p in lost:
        os.remove(lineage.manifest_path(direct_out, p))
    shutil.rmtree(os.path.join(direct_out, "metrics"))
    half = run_pipeline(transcripts_from_events(sf), direct_out, cfg)
    assert half["resumed_partitions"] == cfg.num_partitions - len(lost)
    assert 0 < half["exchange_bytes"] < s1["exchange_bytes"]
    assert counters(half) == counters(s1)
    assert sorted(seen_parts()) == lost


def test_prepare_bucketed_corpus_identity_guard(ray_session, tmp_path):
    """Re-preparing a bucket_dir from a DIFFERENT input raises instead of
    silently serving stale buckets (ADVICE r3); same-input re-prepare is the
    legit resume path; overwrite=True rebuilds; Dataset inputs are
    unverifiable and refuse re-entry."""
    import os
    import shutil

    import pytest as _pytest

    from hypertrace_ingester_ray.pipelines.ingest import (
        PipelineConfig,
        prepare_bucketed_corpus,
    )
    from hypertrace_ingester_ray.sources.transcripts import (
        write_synthetic_transcripts,
    )

    in_a = str(tmp_path / "in_a")
    in_b = str(tmp_path / "in_b")
    write_synthetic_transcripts(in_a, n_convs=40, convs_per_file=20, seed=1)
    write_synthetic_transcripts(in_b, n_convs=60, convs_per_file=20, seed=2)
    cfg = PipelineConfig(num_partitions=4)
    bucket_dir = str(tmp_path / "bk")
    prepare_bucketed_corpus(in_a, bucket_dir, cfg)
    assert os.path.exists(os.path.join(bucket_dir, "_bucket_meta.json"))
    # same input again: allowed (resume-after-kill path)
    prepare_bucketed_corpus(in_a, bucket_dir, cfg)
    # different input: loud error
    with _pytest.raises(ValueError, match="different"):
        prepare_bucketed_corpus(in_b, bucket_dir, cfg)
    # overwrite rebuilds from the new input
    s = prepare_bucketed_corpus(in_b, bucket_dir, cfg, overwrite=True)
    assert s["rows"] > 0
    # a non-empty dir without the identity record is refused
    os.remove(os.path.join(bucket_dir, "_bucket_meta.json"))
    with _pytest.raises(ValueError, match="no _bucket_meta"):
        prepare_bucketed_corpus(in_b, bucket_dir, cfg)
