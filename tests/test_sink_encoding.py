"""The sink encoding plan (``state/lineage.py:parquet_plan``): every sink of a
flagship run reads back as its declared schema with the values a plain
Parquet write gives, the footers show the plan's codecs and encodings,
DuckDB reads the files, a write is byte-deterministic, and an out dir
committed under Parquet's default encoding resumes without a rewrite."""

import glob
import hashlib
import os
import shutil
import zlib

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from hypertrace_ingester_ray import schemas
from hypertrace_ingester_ray.pipelines import ingest
from hypertrace_ingester_ray.pipelines.ingest import (
    PartitionProcessor,
    PipelineConfig,
    run_pipeline,
    view_dataset,
)
from hypertrace_ingester_ray.stages import grouping
from hypertrace_ingester_ray.stages.normalize import prep_main_batch
from hypertrace_ingester_ray.state import lineage

SINK_SCHEMAS = {**schemas.VIEW_SCHEMAS, "metrics": schemas.METRICS}
CFG = PipelineConfig(num_partitions=8)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from hypertrace_ingester_ray.sources.transcripts import write_synthetic_transcripts

    out = str(tmp_path_factory.mktemp("enc_corpus"))
    write_synthetic_transcripts(
        out, n_convs=160, convs_per_file=40, seed=5, max_workers=1,
        mean_turns=12, dup_rate=0.05,
    )
    return out


@pytest.fixture(scope="module")
def run(tmp_path_factory, corpus, ray_session):
    out = str(tmp_path_factory.mktemp("enc_run"))
    return out, run_pipeline(corpus, out, CFG)


def _local_partitions(corpus):
    """The sorted hash partitions the exchange hands the reduce tasks,
    built in this process."""
    slices = [
        grouping._shuffle_map_fn(
            prep_main_batch(
                pq.read_table(f).replace_schema_metadata(None), CFG.normalize
            )[0],
            ["conv_id"],
            CFG.num_partitions,
        )
        for f in sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    ]
    order = ["conv_id", "turn_idx", "ts"]
    return [
        (p, grouping._concat_sort(order, [s[p] for s in slices]))
        for p in range(CFG.num_partitions)
        if any(s[p] is not None for s in slices)
    ]


def _default_encoding(monkeypatch):
    """Write as ``pq.write_table``'s defaults did before the plan."""
    monkeypatch.setattr(lineage, "parquet_plan", lambda schema: {})


def _sorted_rows(path):
    return sorted(pq.read_table(path).to_pylist(), key=repr)


def _files(out, sink):
    return sorted(glob.glob(os.path.join(out, sink, "*.parquet")))


def test_sinks_read_back_declared_schema_and_values(
    run, corpus, tmp_path, monkeypatch
):
    out, summary = run
    ref = str(tmp_path / "default_encoding")
    _default_encoding(monkeypatch)
    PartitionProcessor(ref, CFG).process_batch(_local_partitions(corpus))
    ingest.finalize_metrics(ref)
    for sink, schema in SINK_SCHEMAS.items():
        got = pq.read_table(os.path.join(out, sink))
        # no dictionary type leaks through: every column is its declared type
        assert got.schema.remove_metadata() == schema, sink
        assert got.num_rows == summary["view_counts"].get(sink, got.num_rows)
        assert _sorted_rows(os.path.join(out, sink)) == _sorted_rows(
            os.path.join(ref, sink)
        ), sink


def test_footers_follow_the_plan(run):
    """int64 and timestamp leaves: DELTA_BINARY_PACKED + ZSTD; free text:
    plain + ZSTD; every other leaf: SNAPPY, strings dictionary-encoded."""
    out, _ = run
    seen = set()
    for sink in SINK_SCHEMAS:
        for f in _files(out, sink):
            pf = pq.ParquetFile(f)
            for rg in range(pf.metadata.num_row_groups):
                for i in range(pf.metadata.num_columns):
                    col = pf.metadata.row_group(rg).column(i)
                    leaf = pf.schema.column(i)
                    path = col.path_in_schema
                    if leaf.physical_type == "INT64":
                        assert col.compression == "ZSTD", (f, path)
                        assert "DELTA_BINARY_PACKED" in col.encodings, (f, path)
                        assert not col.has_dictionary_page, (f, path)
                        seen.add("delta")
                    elif path in schemas.FREE_TEXT_COLUMNS:
                        assert col.compression == "ZSTD", (f, path)
                        assert "PLAIN" in col.encodings, (f, path)
                        assert not col.has_dictionary_page, (f, path)
                        seen.add(path)
                    else:
                        assert col.compression == "SNAPPY", (f, path)
                        if leaf.physical_type == "BYTE_ARRAY":
                            assert col.has_dictionary_page, (f, path)
                        if path.startswith("tags.key_value."):
                            seen.add("tags")
    assert seen == {"delta", "text", "summary", "tags"}


def test_duckdb_reads_per_turn(run):
    import duckdb

    out, _ = run
    t = pq.read_table(os.path.join(out, "per_turn"))
    got = duckdb.sql(
        "SELECT count(*), count(DISTINCT conv_id), sum(dur_ms), sum(bytes), "
        "min(ts), max(ts), sum(length(text)), sum(cardinality(tags)), "
        "count(status_code), count(DISTINCT api_status) "
        f"FROM read_parquet('{os.path.join(out, 'per_turn', '*.parquet')}')"
    ).fetchone()
    want = (
        t.num_rows,
        pc.count_distinct(t["conv_id"]).as_py(),
        pc.sum(t["dur_ms"]).as_py(),
        pc.sum(t["bytes"]).as_py(),
        pc.min(t["ts"]).as_py(),
        pc.max(t["ts"]).as_py(),
        pc.sum(pc.utf8_length(t["text"])).as_py(),
        sum(len(m) for m in t["tags"].to_pylist() if m is not None),
        pc.count(t["status_code"]).as_py(),
        pc.count_distinct(t["api_status"]).as_py(),
    )
    assert got == want


def test_two_writes_of_one_table_give_one_crc(run, tmp_path):
    out, _ = run
    table = pq.read_table(_files(out, "per_turn")[0])
    crcs = []
    for d in ("a", "b"):
        rows, crc = lineage.write_view_part(str(tmp_path / d), "per_turn", 0, table)
        assert rows == table.num_rows
        with open(lineage.part_file(str(tmp_path / d), "per_turn", 0), "rb") as f:
            assert zlib.crc32(f.read()) == crc
        crcs.append(crc)
    assert crcs[0] == crcs[1]


def test_resume_keeps_files_of_the_default_encoding(
    run, corpus, tmp_path, monkeypatch
):
    """Partitions committed with Parquet's default encoding stay committed
    and untouched; the rerun writes the rest under the plan, and the
    mixed-codec sinks read back with the declared schemas and a fresh
    run's row counts."""
    _, fresh = run
    out = str(tmp_path / "mixed")
    # the out dir's identity record, then only the old-encoding commits
    run_pipeline(corpus, out, CFG)
    for entry in os.listdir(out):
        path = os.path.join(out, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif entry != "_run_config.json":
            os.remove(path)
    parts = _local_partitions(corpus)
    old = parts[: len(parts) // 2]
    with monkeypatch.context() as m:
        _default_encoding(m)
        PartitionProcessor(out, CFG).process_batch(old)

    def digests():
        return {
            f: hashlib.md5(open(f, "rb").read()).hexdigest()
            for sink in ingest.SINKS
            for f in _files(out, sink)
        }

    def text_codec(path):
        pf = pq.ParquetFile(path)
        return pf.metadata.row_group(0).column(
            pf.schema_arrow.get_field_index("text")
        ).compression

    old_files = digests()
    (old_per_turn,) = _files(out, "per_turn")
    assert text_codec(old_per_turn) == "SNAPPY"

    summary = run_pipeline(corpus, out, CFG)
    assert summary["resumed_partitions"] == len(old)
    assert summary["view_counts"] == fresh["view_counts"]
    now = digests()
    assert {f: now[f] for f in old_files} == old_files
    new_per_turn = [f for f in _files(out, "per_turn") if f not in old_files]
    assert new_per_turn and all(text_codec(f) == "ZSTD" for f in new_per_turn)
    for sink, schema in schemas.VIEW_SCHEMAS.items():
        ds = view_dataset(out, sink)
        assert ds.schema().base_schema.remove_metadata() == schema, sink
        assert ds.count() == fresh["view_counts"][sink], sink


def test_metrics_combine_switch_counts_decoded_bytes(run, tmp_path, monkeypatch):
    """``finalize_metrics`` sizes the partials by their footers' uncompressed
    row-group bytes: at the threshold the combine runs in this process, one
    byte below it on the exchange, and both give the run's metrics rows."""
    out, _ = run
    partial_dir = os.path.join(out, "metrics_partial")
    decoded = sum(
        md.row_group(i).total_byte_size
        for f in _files(out, "metrics_partial")
        for md in [pq.read_metadata(f)]
        for i in range(md.num_row_groups)
    )
    calls = []
    real = grouping.combine_by_key

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(grouping, "combine_by_key", spy)
    for threshold, distributed in ((decoded, 0), (decoded - 1, 1)):
        d = str(tmp_path / str(threshold))
        shutil.copytree(partial_dir, os.path.join(d, "metrics_partial"))
        monkeypatch.setattr(ingest, "DISTRIBUTED_METRICS_THRESHOLD", threshold)
        calls.clear()
        ingest.finalize_metrics(d)
        assert len(calls) == distributed
        metrics = os.path.join(d, "metrics")
        assert _sorted_rows(metrics) == _sorted_rows(os.path.join(out, "metrics"))
        # either combine writes the sink under the plan, schema stored
        assert pq.read_schema(_files(d, "metrics")[0]).remove_metadata() == (
            schemas.METRICS
        )
        for f in _files(d, "metrics"):
            md = pq.read_metadata(f).row_group(0)
            codecs = {
                md.column(i).path_in_schema: md.column(i).compression
                for i in range(md.num_columns)
            }
            assert codecs == {
                "window_ts": "ZSTD", "tenant_id": "SNAPPY",
                "service_name": "SNAPPY", "api_status": "SNAPPY",
                "num_calls": "ZSTD",
            }, f
