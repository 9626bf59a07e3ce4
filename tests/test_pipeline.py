"""End-to-end pipeline tests: golden per-sink counts, per-turn text equality
under stable (conv_id, turn_idx) order, resume with no dup/missing rows."""

import glob
import json
import os
import shutil

import duckdb
import pandas as pd
import pytest

from hypertrace_ingester_ray.pipelines.ingest import (
    PipelineConfig,
    run_pipeline,
    view_dataset,
)
from hypertrace_ingester_ray.sources.transcripts import (
    TRANSCRIPTS_CTE,
    transcripts_from_events,
)


def test_per_sink_counts(pipeline_out):
    _, summary = pipeline_out
    assert summary["rows_in"] == 1000
    assert summary["view_counts"] == {
        "per_turn": 1000,
        "per_role": 651,
        "per_conversation": 15,
        "call_edges": 777,  # 636 api_edge + 141 root/backend/non-root rows
        "per_tool": 403,
        "errors": 295,
    }


def test_per_turn_text_equality(pipeline_out, sf_dir):
    out, _ = pipeline_out
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')"
    )
    oracle = con.sql(
        f"WITH {TRANSCRIPTS_CTE} SELECT conv_id, turn_idx, text FROM transcripts"
        " ORDER BY conv_id, turn_idx"
    ).df()
    mine = (
        view_dataset(out, "per_turn")
        .to_pandas()[["conv_id", "turn_idx", "text"]]
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)


def test_sink_layout_and_manifests(pipeline_out):
    out, summary = pipeline_out
    # one file per (reduce batch, sink), one manifest per partition
    for view in [*summary["view_counts"], "metrics_partial"]:
        files = glob.glob(os.path.join(out, view, "*.parquet"))
        assert len(files) == summary["reduce_tasks"]
    manifests = glob.glob(os.path.join(out, "_manifests", "*.json"))
    assert len(manifests) == summary["num_partitions"]
    with open(os.path.join(out, "_run_manifest.json")) as f:
        rm = json.load(f)
    assert rm["view_counts"] == summary["view_counts"]


def test_rerun_resumes_all_partitions(pipeline_out, sf_dir):
    out, summary = pipeline_out
    s2 = run_pipeline(
        transcripts_from_events(sf_dir),
        out,
        PipelineConfig(num_partitions=8),
    )
    assert s2["resumed_partitions"] == s2["num_partitions"]
    assert s2["view_counts"] == summary["view_counts"]


def test_kill_resume_no_dup_no_missing(tmp_path, sf_dir):
    """Simulate a mid-run kill: complete run, then invalidate half the
    partitions (as if they never committed) and resume — routed rows must be
    identical to a clean run."""
    out = str(tmp_path / "killrun")
    cfg = PipelineConfig(num_partitions=8)
    s1 = run_pipeline(transcripts_from_events(sf_dir), out, cfg)

    # destroy the commit record of partitions 0..3 AND the per_turn files
    # they live in (simulated crash before their manifests were written);
    # also leave a stray tmp file.  Partitions sharing a file with them
    # lose their data too and must be recomputed.
    lost = set()
    for pid in range(4):
        path = os.path.join(out, "_manifests", f"part-{pid:05d}.json")
        with open(path) as f:
            m = json.load(f)
        lost |= set(m["file_parts"])
        os.remove(path)
        data = os.path.join(out, "per_turn", f"part-{m['file_part']:05d}.parquet")
        if os.path.exists(data):
            os.remove(data)
    open(os.path.join(out, "per_turn", "part-00000.parquet.tmp"), "w").close()
    os.remove(os.path.join(out, "_run_manifest.json"))
    shutil.rmtree(os.path.join(out, "metrics"))

    s2 = run_pipeline(transcripts_from_events(sf_dir), out, cfg)
    assert s2["resumed_partitions"] == s1["num_partitions"] - len(lost)
    assert s2["resumed_partitions"] > 0
    assert s2["view_counts"] == s1["view_counts"]
    pt = view_dataset(out, "per_turn").to_pandas()
    assert len(pt) == s1["view_counts"]["per_turn"]
    assert not pt.duplicated(["conv_id", "turn_idx"]).any()


def test_wide_fan_out_matches_eight_partitions(pipeline_out, sf_dir, tmp_path):
    """600 partitions (above the exchange's old 512-partition ceiling) route
    the same rows as the shared 8-partition run."""
    out8, s8 = pipeline_out
    out600 = str(tmp_path / "p600")
    s600 = run_pipeline(
        transcripts_from_events(sf_dir), out600, PipelineConfig(num_partitions=600)
    )
    assert s600["view_counts"] == s8["view_counts"]
    key = ["conv_id", "turn_idx"]
    rows = [
        view_dataset(o, "per_turn").to_pandas().sort_values(key).reset_index(drop=True)
        for o in (out8, out600)
    ]
    pd.testing.assert_frame_equal(rows[0], rows[1])


def test_pipeline_config_has_one_execution_path():
    import dataclasses

    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert not names & {"concurrency", "shuffle"}
    assert PipelineConfig().concurrency is None
    with pytest.raises(TypeError):
        PipelineConfig(concurrency=2)


def test_metrics_totals(pipeline_out):
    out, summary = pipeline_out
    m = view_dataset(out, "metrics").to_pandas()
    assert m["num_calls"].sum() == summary["view_counts"]["per_turn"]
    assert set(m.columns) == {
        "window_ts", "tenant_id", "service_name", "api_status", "num_calls",
    }


def test_call_edges_four_scenarios(ray_session):
    """ServiceCallViewGeneratorTest analog: one conversation exercising all
    four edge scenarios at once."""
    import pyarrow as pa

    from hypertrace_ingester_ray.enrichers.base import ConversationContext
    from hypertrace_ingester_ray.enrichers.core import build_default_registry
    from hypertrace_ingester_ray.stages.grouping import assemble_conversations
    from hypertrace_ingester_ray.stages.normalize import normalize_batch
    from hypertrace_ingester_ray.stages.views import call_edges_view

    def turn(conv, idx, role, tool=None):
        path = f"/api/v1/view/{idx}?page=1&q=view&tag=alpha&tag=beta%200"
        return (conv, idx, role, f"GET {path} HTTP/1.1 status=200 dur_ms=5 bytes=9", tool, 1000 + idx)

    rows = [
        # conv A: user entry → assistant → tool,tool (mid-run tool = backend)
        turn("A", 0, "user"),
        turn("A", 1, "assistant"),
        turn("A", 2, "tool", "db"),
        turn("A", 3, "tool", "http"),   # last turn of conv → backend
        # conv B: starts with a tool (non-root entry scenario)
        turn("B", 0, "tool", "shell"),
        turn("B", 1, "user"),
    ]
    t = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "tool": pa.array([r[4] for r in rows], pa.string()),
            "ts": pa.array([r[5] for r in rows], pa.timestamp("us")),
        }
    )
    norm = normalize_batch(t)
    assembled, _, _ = assemble_conversations(norm)
    ctx = ConversationContext(assembled)
    enriched = build_default_registry().apply(ctx)
    edges = call_edges_view(enriched, ctx).to_pandas()

    by_type = edges.groupby("edge_type").size().to_dict()
    # A: u→a, a→t transitions; B: t→u transition = 3 api edges
    assert by_type["api_edge"] == 3
    # A starts with user → 1 root entry (B starts with tool → none)
    assert by_type["root_entry"] == 1
    # backends: A2 (mid-run tool) + A3 (conv-final tool) = 2
    # (B0 is an api_edge source: next role differs)
    assert by_type["backend"] == 2
    # B starts with an exit before any user head → 1 non-root entry
    assert by_type["non_root_entry"] == 1
    b = edges[edges.edge_type == "backend"].sort_values("caller_turn_idx")
    # provider-chain urls (enrichers/backend_providers.py): JDBC resolves
    # host:port with no path; HTTP resolves host:port + request path
    assert b.request_url.tolist() == [
        "jdbc://db:5432", "http://http:80/api/v1/view/3",
    ]
    assert b.backend_id.notna().all()


def test_process_batch_builds_one_context(tmp_path, monkeypatch):
    """One partition-stage call builds one ConversationContext, shared by
    the enricher DAG and the six view builders."""
    import pyarrow as pa

    from hypertrace_ingester_ray.enrichers.base import ConversationContext
    from hypertrace_ingester_ray.pipelines import ingest
    from hypertrace_ingester_ray.stages.normalize import normalize_batch

    built = []
    init = ConversationContext.__init__

    def _counting_init(self, table):
        built.append(table.num_rows)
        init(self, table)

    monkeypatch.setattr(ConversationContext, "__init__", _counting_init)
    n = 4
    part = normalize_batch(
        pa.table(
            {
                "conv_id": pa.array(["a", "a", "b", "b"], pa.string()),
                "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
                "role": pa.array(["user", "tool", "user", "assistant"], pa.string()),
                "text": pa.array(
                    ["GET /api/v1/x/1 HTTP/1.1 status=200 dur_ms=3 bytes=4"] * n,
                    pa.string(),
                ),
                "tool": pa.array([None, "db", None, None], pa.string()),
                "ts": pa.array([10, 20, 30, 40], pa.timestamp("us")),
            }
        )
    )
    stats = ingest.stats_table(
        ingest.PartitionProcessor(str(tmp_path)).process_batch([(0, part)])
    )
    assert stats["rows_per_turn"].to_pylist() == [n]
    assert built == [n]


def test_rate_limit_wired_into_pipeline(tmp_path, sf_dir):
    """F5 production wiring (VERDICT r3 #5): a config-driven rate limit caps
    rows per (conversation, ts-window) in run_pipeline output; the dropped
    count lands in the run manifest; the config round-trips from JSON."""
    import pyarrow.parquet as pq

    from hypertrace_ingester_ray.config import pipeline_config_from_dict
    from hypertrace_ingester_ray.stages.filters import RateLimitConfig

    window_sec = 10**7  # ~115-day windows so the cap actually binds
    cfg = pipeline_config_from_dict(
        {
            "num_partitions": 8,
            "rate_limit": {
                "max_rows_per_window": 5,
                "window_sec": window_sec,
            },
        }
    )
    assert cfg.rate_limit == RateLimitConfig(5, window_sec)
    out = str(tmp_path / "rl")
    s = run_pipeline(transcripts_from_events(sf_dir), out, cfg)
    assert s["rows_rate_limited"] > 0
    # every (conv, window) in the per_turn sink holds <= 5 rows
    pt = pq.read_table(os.path.join(out, "per_turn"))
    df = pt.select(["conv_id", "ts"]).to_pandas()
    df["w"] = df["ts"].astype("int64") // (window_sec * 10**6)
    assert df.groupby(["conv_id", "w"]).size().max() <= 5
    assert (
        s["view_counts"]["per_turn"] + s["rows_rate_limited"]
        + s["rows_deduped"] == s["rows_in"]
    )
    # resume stays idempotent under rate limiting (deterministic data-time
    # windows, not wall clock)
    s2 = run_pipeline(transcripts_from_events(sf_dir), out, cfg)
    assert s2["resumed_partitions"] == 8
    assert s2["view_counts"] == s["view_counts"]


def test_column_derived_tenant(tmp_path, sf_dir):
    """M2 column-derived tenant (VERDICT r3 #6, TenantIdHandler.java:33-81):
    per_turn carries the tenant from the configured column; rows without a
    tenant are dropped and counted in the manifest."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from hypertrace_ingester_ray.stages.normalize import NormalizeConfig

    base = transcripts_from_events(sf_dir)

    def _add_tenant(batch: "pa.Table") -> "pa.Table":
        conv = batch["conv_id"].to_pandas()
        # tenant derived from the conversation id; every 7th conv missing
        h = conv.map(lambda c: sum(map(ord, c)))
        tenant = np.where(
            h % 7 == 0, None, np.where(h % 2 == 0, "acme", "globex")
        )
        return batch.append_column("tenant", pa.array(tenant, pa.string()))

    ds = base.map_batches(_add_tenant, batch_format="pyarrow")
    cfg = PipelineConfig(
        normalize=NormalizeConfig(tenant_column="tenant"), num_partitions=8
    )
    out = str(tmp_path / "mt")
    s = run_pipeline(ds, out, cfg)
    assert s["rows_no_tenant"] > 0
    pt = pq.read_table(os.path.join(out, "per_turn")).to_pandas()
    assert set(pt["tenant_id"].unique()) == {"acme", "globex"}
    assert len(pt) + s["rows_no_tenant"] + s["rows_deduped"] == s["rows_in"]
    # manifest carries the per-partition counter
    m = json.load(
        open(glob.glob(os.path.join(out, "_manifests", "part-*.json"))[0])
    )
    assert "rows_no_tenant" in m


def test_nested_rule_trees(ray_session):
    """F4 nested AND/OR rule trees (VERDICT r3 #7): a reference-shaped
    nested rule config ports 1:1 and filters identically to its manually
    expanded OR-of-AND form."""
    import pyarrow as pa

    from hypertrace_ingester_ray.config import pipeline_config_from_dict
    from hypertrace_ingester_ray.stages.normalize import (
        NormalizeConfig,
        normalize_batch,
    )

    batch = pa.table(
        {
            "conv_id": pa.array([f"c{i}" for i in range(6)]),
            "turn_idx": pa.array([0] * 6, pa.int32()),
            "role": pa.array(
                ["system", "tool", "assistant", "tool", "user", "tool"]
            ),
            "text": pa.array(
                ["a", "boom", "boom", "calm", "boom", "x"]
            ),
            "tool": pa.array(["t", "t", None, "t", None, None]),
            "ts": pa.array([0] * 6, pa.timestamp("us")),
        }
    )
    # nested: AND(tool EXISTS, OR(role == tool, text CONTAINS boom))
    cfg = pipeline_config_from_dict(
        {
            "drop_rules": [
                {
                    "and": [
                        {"column": "tool", "op": "EXISTS"},
                        {
                            "or": [
                                {"column": "role", "op": "EQ", "value": "tool"},
                                {
                                    "column": "text",
                                    "op": "CONTAINS",
                                    "value": "boom",
                                },
                            ]
                        },
                    ]
                }
            ]
        }
    )
    got = normalize_batch(batch, cfg.normalize)
    # manual expansion: OR of AND-lists
    expanded = NormalizeConfig(
        drop_rules=[
            [
                type(cfg.normalize.drop_rules[0].children[0])(
                    "tool", "EXISTS"
                ),
                type(cfg.normalize.drop_rules[0].children[0])(
                    "role", "EQ", "tool"
                ),
            ],
            [
                type(cfg.normalize.drop_rules[0].children[0])(
                    "tool", "EXISTS"
                ),
                type(cfg.normalize.drop_rules[0].children[0])(
                    "text", "CONTAINS", "boom"
                ),
            ],
        ]
    )
    exp = normalize_batch(batch, expanded)
    assert got.equals(exp)
    # dropped: c1 (tool+role==tool), c3 (tool+role==tool);
    # kept: c0 (tool but no OR branch), c2/c4/c5 (no tool)
    assert sorted(got["conv_id"].to_pylist()) == ["c0", "c2", "c4", "c5"]
    # malformed trees raise loudly
    import pytest as _pytest

    with _pytest.raises(ValueError, match="empty"):
        pipeline_config_from_dict({"drop_rules": [{"or": []}]})
    with _pytest.raises(ValueError, match="exactly one"):
        pipeline_config_from_dict(
            {"drop_rules": [{"and": [], "or": []}]}
        )


def test_metrics_otlp_export(pipeline_out):
    """S7 exporter analog: export_metrics_otlp writes an OTLP-gauge-shaped
    artifact (name, ts, value, attributes) whose total equals the metrics
    sink total; idempotent on rerun."""
    import pyarrow.parquet as pq

    from hypertrace_ingester_ray.stages.metrics import export_metrics_otlp

    out, summary = pipeline_out
    dst = export_metrics_otlp(out)
    t = pq.read_table(dst)
    assert t.column_names == ["name", "ts", "value", "attributes"]
    assert set(t["name"].to_pylist()) == {"num_calls"}
    # gauge total == per_turn rows (every turn counted exactly once)
    assert sum(t["value"].to_pylist()) == summary["view_counts"]["per_turn"]
    attrs = t["attributes"].to_pylist()
    assert all(
        a.startswith("api_status=") and ";tenant_id=" in a for a in attrs
    )
    assert export_metrics_otlp(out) == dst  # idempotent


def test_combined_round4_config_features(tmp_path, sf_dir):
    """All round-4 config features in ONE run — column-derived tenant,
    nested AND/OR drop tree, and rate limiting interact: the drop tree
    evaluates pre-shuffle, tenant/limit accounting composes exactly, and
    resume stays idempotent under the full combination."""
    import glob as _glob
    import json as _json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hypertrace_ingester_ray.config import pipeline_config_from_dict

    base = transcripts_from_events(sf_dir)
    raw_rows = base.count()

    def _add_tenant(batch: "pa.Table") -> "pa.Table":
        conv = batch["conv_id"].to_pandas()
        h = conv.map(lambda c: sum(map(ord, c)))
        tenant = np.where(h % 5 == 0, None, np.where(h % 2 == 0, "acme", "globex"))
        return batch.append_column("tenant", pa.array(tenant, pa.string()))

    ds = base.map_batches(_add_tenant, batch_format="pyarrow")
    cfg = pipeline_config_from_dict(
        {
            "num_partitions": 8,
            "tenant_column": "tenant",
            "drop_rules": [
                {"and": [
                    {"column": "role", "op": "EQ", "value": "tool"},
                    {"or": [
                        {"column": "text", "op": "CONTAINS", "value": "POST"},
                        {"column": "text", "op": "CONTAINS", "value": "GET"},
                    ]},
                ]}
            ],
            "rate_limit": {"max_rows_per_window": 8, "window_sec": 10**7},
        }
    )
    out = str(tmp_path / "combined")
    s = run_pipeline(ds, out, cfg)
    # the nested tree dropped rows BEFORE the shuffle
    assert s["rows_in"] < raw_rows
    # every remaining accounting bucket composes exactly
    assert s["rows_no_tenant"] > 0 and s["rows_rate_limited"] > 0
    assert (
        s["view_counts"]["per_turn"] + s["rows_no_tenant"]
        + s["rows_rate_limited"] + s["rows_deduped"] == s["rows_in"]
    )
    pt = pq.read_table(os.path.join(out, "per_turn")).to_pandas()
    # no dropped-rule row survived into the sink
    assert not (
        (pt.role == "tool")
        & (pt.text.str.contains("POST") | pt.text.str.contains("GET"))
    ).any()
    # tenants derived, never null
    assert set(pt["tenant_id"].unique()) == {"acme", "globex"}
    # windows capped
    w = pt["ts"].astype("int64") // (10**7 * 10**6)
    assert pt.assign(w=w).groupby(["conv_id", "w"]).size().max() <= 8
    # manifest records all three counters
    m = _json.load(
        open(_glob.glob(os.path.join(out, "_manifests", "part-*.json"))[0])
    )
    assert {"rows_no_tenant", "rows_rate_limited", "rows_deduped"} <= set(m)
    # resume idempotency under the full combination
    s2 = run_pipeline(ds, out, cfg)
    assert s2["resumed_partitions"] == 8
    assert s2["view_counts"] == s["view_counts"]


def test_worker_processor_cache_is_keyed_by_config(tmp_path, sf_dir, monkeypatch):
    """The per-worker processor cache does not grow with out dirs: two
    runs with one config into two out dirs use one cache key, two reduce
    batches with one key into two out dirs share one processor, and each
    batch is written under its own out dir."""
    import numpy as np
    import pyarrow as pa

    from hypertrace_ingester_ray.pipelines import ingest
    from hypertrace_ingester_ray.stages.normalize import normalize_batch
    from hypertrace_ingester_ray.state import lineage

    part = normalize_batch(
        pa.table(
            {
                "conv_id": pa.array(["a", "a"], pa.string()),
                "turn_idx": pa.array([0, 1], pa.int32()),
                "role": pa.array(["user", "assistant"], pa.string()),
                "text": pa.array(["GET /x HTTP/1.1 status=200"] * 2, pa.string()),
                "tool": pa.array([None, None], pa.string()),
                "ts": pa.array([10, 20], pa.timestamp("us")),
            }
        )
    )
    cfg = ingest.PipelineConfig(num_partitions=2)
    ingest._WORKER_PROCESSORS.clear()
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        stats = ingest._partition_batch_task(
            [(1, part)], out_dir=out, config=cfg, peer_index=None, cache_key="k"
        )
        # one int64 row per partition, in STATS_SCHEMA column order
        assert stats.dtype == np.int64
        assert ingest.stats_table(stats)["rows_per_turn"].to_pylist() == [2]
        assert os.path.exists(lineage.manifest_path(out, 1))
    assert len(ingest._WORKER_PROCESSORS) == 1
    # a new key replaces the cached processor instead of adding one
    ingest._partition_batch_task(
        [(0, part)], out_dir=outs[0], config=cfg, peer_index={}, cache_key="k2"
    )
    assert list(ingest._WORKER_PROCESSORS) == ["k2"]

    keys = tmp_path / "cache_keys.txt"
    task = ingest._partition_batch_task

    def spy(parts, *, cache_key, **kwargs):
        with open(keys, "a") as f:
            f.write(cache_key + "\n")
        return task(parts, cache_key=cache_key, **kwargs)

    monkeypatch.setattr(ingest, "_partition_batch_task", spy)
    for out in ("run_a", "run_b"):
        run_pipeline(transcripts_from_events(sf_dir), str(tmp_path / out), cfg)
    assert len(set(keys.read_text().split())) == 1
