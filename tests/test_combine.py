"""The keyed combine and the global top-k on the direct exchange
(``grouping.combine_by_key`` / ``grouping.top_k``): NULL keys, typed empty
results, and a guard that no aggregate falls back to Ray Data's sort
shuffle (``Dataset.groupby`` / ``Dataset.sort``)."""

import datetime
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from hypertrace_ingester_ray.stages.grouping import combine_by_key, top_k

SENTINEL_LIKE = "\x00\x00<null>"  # the old string null-key sentinel


def _by_key(ds, key, col):
    return {r[key]: r[col] for r in ds.take_all()}


def _total(ds, col):
    # a driver-side sum: Dataset.sum() itself runs through Dataset.groupby
    return sum(r[col] for r in ds.take_all())


def test_combine_by_key_null_string_key_is_its_own_group(ray_session):
    t = pa.table(
        {
            "k": pa.array(["a", None, "b", "a", None, SENTINEL_LIKE], pa.string()),
            "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "m": pa.array(["x", "q", "y", "p", None, "z"], pa.string()),
        }
    )
    out = combine_by_key(
        ray.data.from_arrow(t).repartition(3), "k", [("v", "sum"), ("m", "min")]
    )
    assert set(out.columns()) == {"k", "v", "m"}
    assert _by_key(out, "k", "v") == {"a": 5, None: 7, "b": 3, SENTINEL_LIKE: 6}
    assert _by_key(out, "k", "m") == {"a": "p", None: "q", "b": "y", SENTINEL_LIKE: "z"}


def test_combine_by_key_null_date32_key_is_its_own_group(ray_session):
    d0 = datetime.date(2020, 1, 1)
    t = pa.table(
        {
            "d": pa.array([d0, None, d0, None, datetime.date(1970, 1, 1)], pa.date32()),
            "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
        }
    )
    out = combine_by_key(ray.data.from_arrow(t).repartition(2), "d", [("v", "sum")])
    assert out.schema().base_schema.field("d").type == pa.date32()
    assert _by_key(out, "d", "v") == {d0: 4, None: 6, datetime.date(1970, 1, 1): 5}


def test_combine_by_key_typed_empty(ray_session):
    t = pa.table({"k": pa.array([], pa.string()), "v": pa.array([], pa.int32())})
    out = combine_by_key(ray.data.from_arrow(t), "k", [("v", "sum")])
    assert out.count() == 0
    sch = out.schema().base_schema
    assert sch.names == ["k", "v"]
    assert sch.field("k").type == pa.string() and sch.field("v").type == pa.int64()


def test_top_k_matches_full_sort(ray_session):
    rng = np.random.default_rng(3)
    n = 5_000
    t = pa.table(
        {
            "score": pa.array(rng.integers(0, 50, n)),
            "id": pa.array(np.arange(n)[::-1].copy()),
        }
    )
    keys = [("score", "descending"), ("id", "ascending")]
    got = top_k(ray.data.from_arrow(t).repartition(7), keys, 25).take_all()
    assert got == t.sort_by(keys).slice(0, 25).to_pylist()
    empty = top_k(ray.data.from_arrow(t.slice(0, 0)), keys, 25)
    assert empty.count() == 0
    assert empty.schema().base_schema.names == ["score", "id"]


def test_hopping_window_counts_sentinel_like_key_stays_apart(ray_session):
    """A real key equal to the old null sentinel is not merged into the
    NULL group."""
    from hypertrace_ingester_ray.stages.metrics import hopping_window_counts

    ts = pa.array([10, 20, 30], pa.int64()).cast(pa.timestamp("us"))
    t = pa.table(
        {"ts": ts, "event_type": pa.array([SENTINEL_LIKE, None, "a"], pa.string())}
    )
    out = hopping_window_counts(
        ray.data.from_arrow(t), window_us=1_000, hop_us=1_000
    )
    assert _by_key(out, "event_type", "num_events") == {
        SENTINEL_LIKE: 1, None: 1, "a": 1,
    }


@pytest.fixture
def no_sort_shuffle(monkeypatch):
    def _refuse(self, *args, **kwargs):
        raise AssertionError("Ray Data sort shuffle used")

    monkeypatch.setattr(ray.data.Dataset, "groupby", _refuse)
    monkeypatch.setattr(ray.data.Dataset, "sort", _refuse)


def test_no_sort_shuffle_left(no_sort_shuffle, sf_dir, tmp_path, monkeypatch,
                              ray_session):
    """Every aggregate and top-k in the flagship and the main operator
    families runs with ``Dataset.groupby`` and ``Dataset.sort`` refusing."""
    from hypertrace_ingester_ray.pipelines import ingest
    from hypertrace_ingester_ray.stages import corpus, dedup, metrics, sketches
    from hypertrace_ingester_ray.sources.transcripts import transcripts_from_events

    out = str(tmp_path / "run")
    cfg = ingest.PipelineConfig(num_partitions=8, peer_correlation=True)
    summary = ingest.run_pipeline(transcripts_from_events(sf_dir), out, cfg)
    assert summary["view_counts"]["per_turn"] > 0

    # bucketed replay: the prepare step's exchange and the stored reduce
    bucket_dir = str(tmp_path / "corpus")
    ingest.prepare_bucketed_corpus(transcripts_from_events(sf_dir), bucket_dir, cfg)
    replay = ingest.run_pipeline(
        None, str(tmp_path / "replay"), cfg, bucketed_corpus=bucket_dir
    )
    assert replay["view_counts"] == summary["view_counts"]

    # label propagation's per-round convergence sum
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([1, 2, 10], pa.int64()),
                  "doc_b": pa.array([2, 3, 11], pa.int64())})
    )
    comp = dedup.connected_components(pairs, num_partitions=4).take_all()
    assert {r["node"]: r["component_id"] for r in comp} == {
        1: 1, 2: 1, 3: 1, 10: 10, 11: 10,
    }

    # the distributed branch of the final metrics combine
    shutil.rmtree(os.path.join(out, "metrics"))
    monkeypatch.setattr(ingest, "DISTRIBUTED_METRICS_THRESHOLD", -1)
    ingest.finalize_metrics(out)
    per_turn = ingest.view_dataset(out, "per_turn")
    assert _total(ingest.view_dataset(out, "metrics"), "num_calls") == per_turn.count()
    assert _total(metrics.windowed_metrics(per_turn), "num_calls") == per_turn.count()

    events = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    hop = metrics.hopping_window_counts(
        events, window_us=3_600_000_000, hop_us=900_000_000
    )
    assert _total(hop, "num_events") == 4 * events.count()

    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    assert corpus.vocab_top_k(docs, k=5).count() == 5
    assert corpus.weighted_sample(docs, weight_col="n_chars", k=7).count() == 7
    q = sketches.sampled_quantiles(events, value_col="value", id_col="event_id", k=64)
    assert q.count() > 0


def test_peer_index_without_ray_data(tmp_path, monkeypatch, ray_session):
    """With ``peer_correlation``, a bucketed-corpus prepare, a path-input
    run and a bucketed replay run with ``ray.data.read_parquet`` and
    ``Dataset.map_batches`` refusing: the corpus is bucketed by file-group
    map tasks, and the peer index rides those map tasks (path input) or
    plain tasks over the stored buckets (replay)."""
    from hypertrace_ingester_ray.pipelines import ingest
    from hypertrace_ingester_ray.sources.transcripts import (
        write_synthetic_transcripts,
    )

    src = str(tmp_path / "in")
    write_synthetic_transcripts(src, n_convs=40, convs_per_file=10, seed=3)
    cfg = ingest.PipelineConfig(num_partitions=4, peer_correlation=True)
    bucket_dir = str(tmp_path / "corpus")

    def _refuse(*args, **kwargs):
        raise AssertionError("Ray Data used")

    monkeypatch.setattr(ray.data, "read_parquet", _refuse)
    monkeypatch.setattr(ray.data.Dataset, "map_batches", _refuse)
    ingest.prepare_bucketed_corpus(src, bucket_dir, cfg)
    direct = ingest.run_pipeline(src, str(tmp_path / "direct"), cfg)
    replay = ingest.run_pipeline(
        None, str(tmp_path / "replay"), cfg, bucketed_corpus=bucket_dir
    )
    assert direct["peer_index_entries"] > 0
    assert replay["peer_index_entries"] == direct["peer_index_entries"]
    assert replay["view_counts"] == direct["view_counts"]
