"""Path inputs: the exchange's map tasks read Parquet file groups themselves
(no Ray Data read stage), so a run over a path must equal the run over
``ray.data.read_parquet`` of the same path, row for row and byte for byte
(with and without the peer-service index, whose partials the same map
tasks return), with each map task's input bounded in bytes; the rows the
poison-row policy drops are counted; and a bucketed-corpus prepare over a
path runs on the same map tasks, byte for byte like the Dataset prepare."""

import dataclasses
import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from hypertrace_ingester_ray.pipelines.ingest import (
    PipelineConfig,
    prepare_bucketed_corpus,
    run_pipeline,
)
from hypertrace_ingester_ray.sources.parquet import parquet_file_groups
from hypertrace_ingester_ray.sources.transcripts import write_synthetic_transcripts
from hypertrace_ingester_ray.stages.normalize import NormalizeConfig

P = 8


@pytest.fixture(scope="module")
def flat(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("flat"))
    write_synthetic_transcripts(d, n_convs=60, convs_per_file=12, seed=5,
                                dup_rate=0.02)
    return d


def _summary(s):
    # exchange_bytes is left out: each IPC slice carries its own stream
    # header, so the bytes depend on how the rows split into map tasks
    skip = ("elapsed_sec", "turns_per_sec", "phases", "exchange_bytes")
    return {k: v for k, v in s.items() if k not in skip}


def _checksums(out):
    got = {}
    for path in glob.glob(os.path.join(out, "_manifests", "*.json")):
        with open(path) as f:
            m = json.load(f)
        got[m["part_id"]] = m["view_checksums"]
    return got


def _peer_observed(summary, out, on):
    """The peer pre-pass's phase and entry count appear in the summary and
    the run manifest exactly when ``peer_correlation`` is on."""
    with open(os.path.join(out, "_run_manifest.json")) as f:
        manifest = json.load(f)
    for s in (summary, manifest):
        assert ("peer_index" in s["phases"]) == on
        assert ("peer_index_entries" in s) == on
    if on:
        assert summary["phases"]["peer_index"] >= 0
        assert manifest["peer_index_entries"] == summary["peer_index_entries"]


def _parity(path, tmp_path, cfg):
    """The path run equals the Dataset run, once as configured and once
    with ``peer_correlation`` (every conversation of these inputs sits in
    one file, so both build the exact index)."""
    import ray.data

    for c in (cfg, dataclasses.replace(cfg, peer_correlation=True)):
        tag = "peer" if c.peer_correlation else "plain"
        outs = [str(tmp_path / f"{tag}_path"), str(tmp_path / f"{tag}_ds")]
        by_path = run_pipeline(path, outs[0], c)
        by_ds = run_pipeline(ray.data.read_parquet(path), outs[1], c)
        assert by_path["rows_in"] > 0
        assert _summary(by_path) == _summary(by_ds)
        assert _checksums(outs[0]) == _checksums(outs[1])
        for s, out in zip((by_path, by_ds), outs):
            _peer_observed(s, out, c.peer_correlation)
        if c.peer_correlation:
            assert by_path["peer_index_entries"] > 0
        else:
            plain = by_path
    return plain


def test_flat_dir(flat, tmp_path):
    _parity(flat, tmp_path, PipelineConfig(num_partitions=P))


def test_single_file(flat, tmp_path):
    one = sorted(glob.glob(os.path.join(flat, "*.parquet")))[1]
    s = _parity(one, tmp_path, PipelineConfig(num_partitions=P))
    assert s["rows_in"] == pq.ParquetFile(one).metadata.num_rows


def test_hive_dir_partition_column(flat, tmp_path):
    """``tenant=<v>/`` dirs: the hive column is read as a string column,
    here the column-derived tenant."""
    hive = tmp_path / "hive"
    for i, f in enumerate(sorted(glob.glob(os.path.join(flat, "*.parquet")))):
        d = hive / f"tenant={'acme' if i % 2 else 'globex'}"
        d.mkdir(parents=True, exist_ok=True)
        shutil.copy(f, d / os.path.basename(f))
    cfg = PipelineConfig(
        num_partitions=P, normalize=NormalizeConfig(tenant_column="tenant")
    )
    _parity(str(hive), tmp_path, cfg)
    tenants = pq.read_table(str(tmp_path / "plain_path" / "per_turn"))["tenant_id"]
    assert set(pc.unique(tenants).to_pylist()) == {"acme", "globex"}


def test_dir_with_zero_row_file(flat, tmp_path):
    d = tmp_path / "with_empty"
    shutil.copytree(flat, d)
    first = sorted(glob.glob(os.path.join(flat, "*.parquet")))[0]
    empty = pq.read_table(first).slice(0, 0)
    pq.write_table(empty, str(d / "part-00000005.parquet"))
    _parity(str(d), tmp_path, PipelineConfig(num_partitions=P))


@pytest.mark.parametrize("num_blocks", [1, 50])
def test_read_num_blocks(flat, tmp_path, num_blocks):
    n_files = len(glob.glob(os.path.join(flat, "*.parquet")))
    groups = parquet_file_groups(flat, num_blocks)
    assert len(groups) == min(num_blocks, n_files)
    assert sum(len(g.files) for g in groups) == n_files
    _parity(flat, tmp_path,
            PipelineConfig(num_partitions=P, read_num_blocks=num_blocks))


def _with_poison(flat, d) -> int:
    """``flat``'s files copied into ``d`` with a NULL ``ts`` or
    ``turn_idx`` in every seventh row; returns the number of such rows."""
    d.mkdir()
    n_null = 0
    for i, f in enumerate(sorted(glob.glob(os.path.join(flat, "*.parquet")))):
        t = pq.read_table(f)
        null = np.arange(t.num_rows) % 7 == i % 7
        col = "ts" if i % 2 == 0 else "turn_idx"
        vals = pc.if_else(pa.array(null), pa.nulls(t.num_rows, t[col].type), t[col])
        t = t.set_column(t.schema.get_field_index(col), col, vals)
        pq.write_table(t, str(d / os.path.basename(f)))
        n_null += int(null.sum())
    assert n_null > 0
    return n_null


def test_poison_rows_are_counted(flat, tmp_path):
    """Rows with a NULL ``ts`` (or ``turn_idx``) are dropped before the
    exchange and reported as ``rows_poison``, in the summary and in the run
    manifest, for path and Dataset inputs and on a resumed rerun."""
    import ray.data

    d = tmp_path / "nulls"
    n_null = _with_poison(flat, d)
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in glob.glob(str(d / "*")))

    cfg = PipelineConfig(num_partitions=P)
    out = str(tmp_path / "out")
    s = run_pipeline(str(d), out, cfg)
    assert s["rows_poison"] == n_null
    assert s["rows_in"] == total - n_null
    with open(os.path.join(out, "_run_manifest.json")) as f:
        assert json.load(f)["rows_poison"] == n_null
    s_ds = run_pipeline(ray.data.read_parquet(str(d)), str(tmp_path / "ds"), cfg)
    assert s_ds["rows_poison"] == n_null
    again = run_pipeline(str(d), out, cfg)
    assert again["resumed_partitions"] == again["num_partitions"]
    assert again["rows_poison"] == n_null
    # a bucketed corpus counts them once, when it is prepared; every
    # replay reports that count
    bucket_dir = str(tmp_path / "buckets")
    assert prepare_bucketed_corpus(str(d), bucket_dir, cfg)["rows_poison"] == n_null
    replay = run_pipeline(None, str(tmp_path / "replay"), cfg,
                          bucketed_corpus=bucket_dir)
    assert replay["rows_poison"] == n_null
    assert replay["rows_in"] == s["rows_in"]


def test_groups_are_bounded_by_bytes(flat, tmp_path, monkeypatch):
    """A map task reads at most Ray Data's ``target_max_block_size`` of
    row groups (or one larger row group): big inputs are cut at file and
    row-group boundaries, in listing order, every row group exactly once,
    and the run over the cut groups equals the Ray Data run."""
    from ray.data import DataContext

    d = tmp_path / "row_groups"
    d.mkdir()
    for f in sorted(glob.glob(os.path.join(flat, "*.parquet"))):
        pq.write_table(pq.read_table(f), str(d / os.path.basename(f)),
                       row_group_size=40)
    files = sorted(glob.glob(str(d / "*.parquet")))
    sizes = {
        f: [pq.ParquetFile(f).metadata.row_group(i).total_byte_size
            for i in range(pq.ParquetFile(f).metadata.num_row_groups)]
        for f in files
    }
    assert min(len(v) for v in sizes.values()) > 2
    limit = 3 * max(max(v) for v in sizes.values())

    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 10**12)
    # below the bound nothing is cut: two groups, as counted
    assert len(parquet_file_groups(str(d), 2)) == 2
    monkeypatch.setattr(ctx, "target_max_block_size", limit)
    groups = parquet_file_groups(str(d), 2)
    seen = []
    for g in groups:
        pieces = [(p, rgs if rgs is not None else range(len(sizes[p])))
                  for p, rgs, _ in g.files]
        assert sum(sizes[p][i] for p, rgs in pieces for i in rgs) <= limit
        seen += [(p, i) for p, rgs in pieces for i in rgs]
    assert seen == [(f, i) for f in files for i in range(len(sizes[f]))]
    assert len(groups) > len(files)
    _parity(str(d), tmp_path, PipelineConfig(num_partitions=P))


def _oracle_peer_index(path):
    """Per tool, the smallest service (``coalesce(tool, role)``) of the
    turn before it in the same conversation, from the raw files in pandas."""
    df = pq.read_table(path, columns=["conv_id", "turn_idx", "role", "tool"]
                       ).to_pandas()
    df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
    df["service"] = df["tool"].fillna(df["role"])
    df["prev"] = df.groupby("conv_id")["service"].shift(1)
    keep = df["tool"].notna() & df["prev"].notna()
    return df[keep].groupby("tool")["prev"].min().to_dict()


#: Two files of turns ``(conv_id, turn_idx, role, tool)``, each file's rows
#: in reverse order.  Every tool's caller set is small and distinct, so
#: pairing across conversations (``c2``'s first turn after ``c1``'s last),
#: a row with itself, or taking the largest caller each changes the index.
PEER_FILES = [
    [("c1", 0, "m1", None), ("c1", 1, "tool", "x"), ("c1", 2, "b2", None),
     ("c1", 3, "tool", "y"), ("c1", 4, "a1", None),
     ("c2", 0, "tool", "y"), ("c2", 1, "a0", None)],
    [("c3", 0, "k", None), ("c3", 1, "tool", "x"), ("c3", 2, "tool", "z"),
     ("c4", 0, "c", None), ("c4", 1, "d", None), ("c4", 2, "tool", "z")],
]
PEER_INDEX = {"x": "k", "y": "b2", "z": "d"}


def _map_side_peer_index(path, num_groups, cfg):
    """The peer index a path run merges: the ``peer_pairs`` partial each
    exchange map task returns after its counts, over its prepped group."""
    from functools import partial

    from hypertrace_ingester_ray.enrichers.extended import (
        merge_peer_partials,
        peer_pairs,
    )
    from hypertrace_ingester_ray.stages.grouping import _shuffle_map_ipc
    from hypertrace_ingester_ray.stages.normalize import prep_main_batch

    prep = partial(prep_main_batch, config=cfg.normalize)
    return merge_peer_partials([
        _shuffle_map_ipc(g, ["conv_id"], P, prep=prep, side=peer_pairs)[-1]
        for g in parquet_file_groups(path, num_groups)
    ])


def test_peer_index_replay_matches_direct_and_oracle(flat, tmp_path):
    """The peer index a path run builds (in the exchange's map tasks) and
    the one a bucketed replay builds (over the stored buckets) both equal a
    pandas oracle, and the replay routes the same ``peer_service_name`` per
    turn as the direct run."""
    import datetime

    from hypertrace_ingester_ray.pipelines.ingest import _build_peer_index

    cfg = PipelineConfig(num_partitions=P, peer_correlation=True)
    assert _map_side_peer_index(flat, 3, cfg) == _oracle_peer_index(flat)

    src = tmp_path / "peer_in"
    src.mkdir()
    t0 = datetime.datetime(2024, 1, 1)
    for i, rows in enumerate(PEER_FILES):
        conv, idx, role, tool = zip(*rows[::-1])
        pq.write_table(pa.table({
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(idx, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": pa.array(["GET /x HTTP/1.1 status=200"] * len(rows)),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array([t0 + datetime.timedelta(seconds=k) for k in idx],
                           pa.timestamp("us")),
        }), str(src / f"part-{i}.parquet"))
    src = str(src)
    oracle = _oracle_peer_index(src)
    assert oracle == PEER_INDEX
    assert _map_side_peer_index(src, 2, cfg) == oracle

    direct = run_pipeline(src, str(tmp_path / "direct"), cfg)
    bucket_dir = str(tmp_path / "buckets")
    prepare_bucketed_corpus(src, bucket_dir, cfg)
    assert _build_peer_index(
        parquet_file_groups(os.path.join(bucket_dir, "main", "data"), 3)
    ) == oracle
    replay = run_pipeline(None, str(tmp_path / "replay"), cfg,
                          bucketed_corpus=bucket_dir)
    assert direct["peer_index_entries"] == replay["peer_index_entries"] == len(oracle)
    _peer_observed(replay, str(tmp_path / "replay"), True)

    def peers(out):
        t = pq.read_table(os.path.join(out, "per_turn"),
                          columns=["conv_id", "turn_idx", "tool",
                                   "peer_service_name"])
        return t.to_pandas().sort_values(["conv_id", "turn_idx"],
                                         ignore_index=True)

    a, b = peers(str(tmp_path / "direct")), peers(str(tmp_path / "replay"))
    assert len(a) == sum(map(len, PEER_FILES))
    assert a.equals(b)
    tools = a[a["tool"].notna()]
    assert (tools["peer_service_name"] == tools["tool"].map(oracle)).all()


def _bucket_files(bucket_dir):
    """``{relative path: bytes}`` of a corpus's bucket files and contract."""
    main = os.path.join(bucket_dir, "main")
    paths = glob.glob(os.path.join(main, "data", "*.parquet"))
    paths.append(os.path.join(main, "_bucket_meta.json"))
    out = {}
    for p in paths:
        with open(p, "rb") as f:
            out[os.path.relpath(p, main)] = f.read()
    return out


def _rows_poison(bucket_dir):
    with open(os.path.join(bucket_dir, "_bucket_meta.json")) as f:
        return json.load(f)["rows_poison"]


def test_prepare_path_matches_dataset_prepare(flat, tmp_path):
    """A path-input prepare (file-group map tasks) and a
    ``ray.data.read_parquet`` prepare of the same files write byte-identical
    bucket files and an equal ``main/_bucket_meta.json``, and count the
    same poison rows, in the summary and the corpus's ``_bucket_meta.json``."""
    import ray.data

    d = tmp_path / "nulls"
    n_null = _with_poison(flat, d)
    cfg = PipelineConfig(num_partitions=P)
    dirs = [str(tmp_path / "by_path"), str(tmp_path / "by_ds")]
    by_path = prepare_bucketed_corpus(str(d), dirs[0], cfg)
    by_ds = prepare_bucketed_corpus(ray.data.read_parquet(str(d)), dirs[1], cfg)
    assert by_path["rows"] > 0
    assert _summary(by_path) == _summary(by_ds)
    assert by_path["rows_poison"] == n_null
    assert _rows_poison(dirs[0]) == _rows_poison(dirs[1]) == n_null
    files = _bucket_files(dirs[0])
    assert len(files) == P + 1
    assert files == _bucket_files(dirs[1])


def test_resumed_prepare_ships_only_uncommitted_buckets(flat, tmp_path):
    """A prepare into a corpus whose buckets are all committed ships
    nothing; after one bucket loses its commit, only that bucket is shipped
    and rewritten, and the corpus equals a fresh prepare's."""
    from hypertrace_ingester_ray.state import lineage

    cfg = PipelineConfig(num_partitions=P)
    bucket_dir = str(tmp_path / "buckets")
    fresh = prepare_bucketed_corpus(flat, bucket_dir, cfg)
    assert fresh["resumed_partitions"] == 0 and fresh["exchange_bytes"] > 0
    want = _bucket_files(bucket_dir)

    again = prepare_bucketed_corpus(flat, bucket_dir, cfg)
    assert again["resumed_partitions"] == P
    assert again["exchange_bytes"] == 0
    assert again["rows"] == fresh["rows"]

    main = os.path.join(bucket_dir, "main")
    os.remove(lineage.manifest_path(main, 3))
    half = prepare_bucketed_corpus(flat, bucket_dir, cfg)
    assert half["resumed_partitions"] == P - 1
    assert 0 < half["exchange_bytes"] < fresh["exchange_bytes"]
    assert half["rows"] == fresh["rows"]
    assert half["rows_poison"] == fresh["rows_poison"] == 0
    assert _bucket_files(bucket_dir) == want


def test_zero_row_path_prepare_replays_to_typed_empty_sinks(flat, tmp_path):
    """A path input whose only file has no rows prepares a corpus with no
    bucket files and the prepped schema in ``main/_bucket_meta.json`` (the
    one a non-empty prepare of the same columns stores), prepares again as
    a resume, and replays to typed empty sinks."""
    from hypertrace_ingester_ray.schemas import VIEW_SCHEMAS
    from hypertrace_ingester_ray.stages.sinks import _load_bucket_meta

    d = tmp_path / "empty"
    d.mkdir()
    first = sorted(glob.glob(os.path.join(flat, "*.parquet")))[0]
    pq.write_table(pq.read_table(first).slice(0, 0), str(d / "part-0.parquet"))
    cfg = PipelineConfig(num_partitions=P)
    bucket_dir = str(tmp_path / "buckets")
    for _ in range(2):
        s = prepare_bucketed_corpus(str(d), bucket_dir, cfg)
        assert (s["rows"], s["num_partitions"], s["rows_poison"]) == (0, 0, 0)
    main = os.path.join(bucket_dir, "main")
    assert not glob.glob(os.path.join(main, "data", "*.parquet"))
    full = str(tmp_path / "full")
    prepare_bucketed_corpus(first, full, cfg)
    assert _load_bucket_meta(main)["schema"].equals(
        _load_bucket_meta(os.path.join(full, "main"))["schema"]
    )

    out = str(tmp_path / "replay")
    r = run_pipeline(None, out, cfg, bucketed_corpus=bucket_dir)
    assert r["rows_in"] == 0 and r["rows_poison"] == 0
    assert set(r["view_counts"].values()) == {0}
    for view, schema in VIEW_SCHEMAS.items():
        t = pq.read_table(os.path.join(out, view))
        assert t.num_rows == 0
        assert t.schema.remove_metadata().equals(schema), view


def _prepare_old_layout(path, bucket_dir, cfg):
    """A corpus as prepared before buckets held parsed, fully sorted rows:
    light-normalized rows sorted by ``conv_id`` only, no ``sorted_by`` in
    the bucket contract, no stored peer index, and an identity record
    without a layout."""
    from functools import partial

    from hypertrace_ingester_ray.pipelines.ingest import (
        _input_fingerprint,
        _read_num_blocks,
    )
    from hypertrace_ingester_ray.stages.normalize import prep_main_batch
    from hypertrace_ingester_ray.stages.sinks import write_bucketed

    main = os.path.join(bucket_dir, "main")
    s = write_bucketed(
        parquet_file_groups(path, _read_num_blocks(cfg)), main,
        key="conv_id", num_buckets=cfg.num_partitions,
        prep=partial(prep_main_batch, config=cfg.normalize),
    )
    meta_path = os.path.join(main, "_bucket_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    del meta["sorted_by"]
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with open(os.path.join(bucket_dir, "_bucket_meta.json"), "w") as f:
        json.dump({**_input_fingerprint(path), "num_buckets": cfg.num_partitions,
                   "rows_poison": s["rows_dropped"]}, f)


def test_old_layout_corpus_replays_like_parsed_layout(flat, tmp_path):
    """A corpus in the old layout (light rows, sorted by ``conv_id`` only)
    replays to the same view counts and sink checksums as one prepared with
    parsed, fully sorted buckets; its ``peer_correlation`` replay and a
    re-prepare into it raise.  The parsed corpus stores the exact peer
    index (equal to the pandas oracle), and a replay under another tenant
    routes that tenant."""
    from hypertrace_ingester_ray.pipelines.ingest import PEER_INDEX_FILE
    from hypertrace_ingester_ray.stages.sinks import _load_bucket_meta

    cfg = PipelineConfig(num_partitions=P)
    new, old = str(tmp_path / "new"), str(tmp_path / "old")
    prepare_bucketed_corpus(flat, new, cfg)
    _prepare_old_layout(flat, old, cfg)
    meta = _load_bucket_meta(os.path.join(new, "main"))
    assert meta["sorted_by"] == ["conv_id", "turn_idx", "ts"]
    assert "status_code" in meta["schema"].names
    assert "tenant_id" not in meta["schema"].names
    assert "status_code" not in _load_bucket_meta(os.path.join(old, "main"))[
        "schema"].names

    runs, sums = {}, {}
    for name, corpus in (("new", new), ("old", old)):
        out = str(tmp_path / f"replay_{name}")
        runs[name] = run_pipeline(None, out, cfg, bucketed_corpus=corpus)
        sums[name] = _checksums(out)
    assert runs["new"]["rows_in"] > 0
    assert _summary(runs["new"]) == _summary(runs["old"])
    assert sums["new"] == sums["old"]

    oracle = _oracle_peer_index(flat)
    stored = pq.read_table(os.path.join(new, PEER_INDEX_FILE))
    assert len(oracle) > 0
    assert dict(zip(stored["tool"].to_pylist(),
                    stored["service"].to_pylist())) == oracle
    peer = dataclasses.replace(cfg, peer_correlation=True)
    out = str(tmp_path / "replay_peer")
    s = run_pipeline(None, out, peer, bucketed_corpus=new)
    assert s["peer_index_entries"] == len(oracle)
    _peer_observed(s, out, True)
    with pytest.raises(ValueError, match="overwrite=True"):
        run_pipeline(None, str(tmp_path / "old_peer"), peer,
                     bucketed_corpus=old)
    with pytest.raises(ValueError, match="different run"):
        prepare_bucketed_corpus(flat, old, cfg)

    acme = dataclasses.replace(cfg, normalize=NormalizeConfig(tenant_id="acme"))
    out = str(tmp_path / "replay_acme")
    s = run_pipeline(None, out, acme, bucketed_corpus=new)
    assert s["view_counts"] == runs["new"]["view_counts"]
    tenants = pq.read_table(os.path.join(out, "per_turn"))["tenant_id"]
    assert pc.unique(tenants).to_pylist() == ["acme"]


def test_stored_order_skips_the_sort(tmp_path):
    """``bucketed_reduce`` over buckets stored in the requested order (it
    passes no sort order) returns the same tables as over the same buckets
    without ``sorted_by`` (it sorts), rows tied on the full order
    included; a requested order the stored one does not start with is
    sorted."""
    from functools import partial

    import ray
    import ray.data

    from hypertrace_ingester_ray.stages.grouping import (
        _apply_per_partition,
        bucketed_reduce,
    )
    from hypertrace_ingester_ray.stages.sinks import write_bucketed

    rng = np.random.default_rng(3)
    n = 400
    t = pa.table({
        "conv_id": pa.array([f"c{i}" for i in rng.integers(0, 9, n)]),
        "turn_idx": pa.array(rng.integers(0, 4, n), pa.int32()),
        "ts": pa.array(rng.integers(0, 3, n), pa.timestamp("us")),
        "ord": pa.array(np.arange(n)),
    })
    ds = ray.data.from_arrow([t.slice(i, 50) for i in range(0, n, 50)])
    order = ["turn_idx", "ts"]
    stored = str(tmp_path / "stored")
    write_bucketed(ds, stored, key="conv_id", num_buckets=4, sort_by=order)
    resort = str(tmp_path / "resort")
    shutil.copytree(stored, resort)
    meta_path = os.path.join(resort, "_bucket_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    del meta["sorted_by"]
    with open(meta_path, "w") as f:
        json.dump(meta, f)

    def tables(d, sort_by):
        refs = bucketed_reduce([d], partial(_apply_per_partition, lambda x: x,
                                            False),
                               sort_by=sort_by, per_partition_returns=True)
        return ray.get(refs)

    got, want = tables(stored, order), tables(resort, order)
    assert len(got) == 4
    assert sum(g.num_rows for g in got) == n
    for g, w in zip(got, want):
        assert g.equals(w)
        keys = list(zip(*(g[c].to_pylist() for c in ["conv_id", *order])))
        assert keys == sorted(keys)
        assert len(set(keys)) < g.num_rows  # ties present
    by_ord = tables(stored, ["ord"])
    for g in by_ord:
        assert g.equals(g.sort_by([("conv_id", "ascending"),
                                   ("ord", "ascending")]))
