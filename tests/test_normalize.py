"""Normalize-stage unit tests: drop-rule operators, light/full parity,
bypass routing, config round-trip, metrics finalize branches."""

import os
import shutil

import pyarrow as pa
import pytest

from hypertrace_ingester_ray.config import pipeline_config_from_dict
from hypertrace_ingester_ray.stages.normalize import (
    DropCondition,
    NormalizeConfig,
    extract_batch,
    needs_extraction_for_rules,
    normalize_batch,
    normalize_light_batch,
    prep_parsed_batch,
    rules_mask,
)


@pytest.fixture()
def batch():
    return pa.table(
        {
            "conv_id": pa.array(["a", "a", "b", "c"], pa.string()),
            "turn_idx": pa.array([0, 1, 0, 0], pa.int32()),
            "role": pa.array(["user", "tool", "assistant", "user"], pa.string()),
            "text": pa.array(
                [
                    "GET /api/v1/view/1 HTTP/1.1 status=200 dur_ms=5 bytes=1",
                    "GET /api/v1/error/2 HTTP/1.1 status=500 dur_ms=6 bytes=2",
                    "POST /api/v1/signup/3 HTTP/1.1 status=404 dur_ms=7 bytes=3",
                    "not a log line at all",
                ],
                pa.string(),
            ),
            "tool": pa.array([None, "db", None, None], pa.string()),
            "ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
        }
    )


@pytest.mark.parametrize(
    "cond,expect",
    [
        (DropCondition("role", "EQ", "user"), [True, False, False, True]),
        (DropCondition("role", "NEQ", "user"), [False, True, True, False]),
        (DropCondition("text", "CONTAINS", "error"), [False, True, False, False]),
        (DropCondition("tool", "EXISTS"), [False, True, False, False]),
        (DropCondition("tool", "NOT_EXISTS"), [True, False, True, True]),
    ],
)
def test_drop_operators(batch, cond, expect):
    mask = rules_mask(batch, [[cond]])
    assert mask.to_pylist() == expect


def test_or_of_ands(batch):
    rules = [
        [DropCondition("role", "EQ", "user"), DropCondition("conv_id", "EQ", "a")],
        [DropCondition("tool", "EQ", "db")],
    ]
    mask = rules_mask(batch, rules)
    assert mask.to_pylist() == [True, True, False, False]


def test_light_plus_extract_equals_full(batch):
    cfg = NormalizeConfig(drop_rules=[[DropCondition("role", "EQ", "assistant")]])
    full = normalize_batch(batch, cfg)
    light = extract_batch(normalize_light_batch(batch, cfg))
    assert full.schema.names == light.schema.names
    assert full.equals(light)


def test_extract_batch_adds_configured_tenant_to_parsed_rows(batch):
    """Parsed rows stored without the constant tenant column (a bucketed
    corpus's) get the tenant ``extract_batch`` is given, and are otherwise
    left as they are: the same table as extracting the light rows with
    that tenant."""
    parsed, dropped = prep_parsed_batch(batch, NormalizeConfig())
    assert dropped == 0
    assert "tenant_id" not in parsed.schema.names
    assert "status_code" in parsed.schema.names
    out = extract_batch(parsed, tenant_id="acme")
    assert out["tenant_id"].to_pylist() == ["acme"] * batch.num_rows
    assert out.equals(extract_batch(normalize_light_batch(batch), "acme"))


def test_extract_batch_keeps_a_tenant_column(batch):
    """A batch that carries ``tenant_id`` keeps it, parsed or not: a
    column-derived tenant, or a heavy-path batch's configured one."""
    cfg = NormalizeConfig(tenant_column="role")
    light = normalize_light_batch(batch, cfg)
    parsed = prep_parsed_batch(batch, cfg)[0]
    assert parsed["tenant_id"].to_pylist() == batch["role"].to_pylist()
    for t in (light, parsed):
        out = extract_batch(t, tenant_id="acme")
        assert out["tenant_id"].to_pylist() == batch["role"].to_pylist()
    full = normalize_batch(batch, NormalizeConfig(tenant_id="globex"))
    assert extract_batch(full, tenant_id="acme").equals(full)


def test_unparseable_text_yields_nulls(batch):
    out = normalize_batch(batch)
    row = out.slice(3, 1)
    assert row["status_code"][0].as_py() is None
    assert row["is_error"][0].as_py() is False
    assert row["service_name"][0].as_py() == "user"


def test_needs_extraction_detection():
    light = NormalizeConfig(drop_rules=[[DropCondition("role", "EQ", "x")]])
    heavy = NormalizeConfig(drop_rules=[[DropCondition("status_code", "EQ", "500")]])
    assert not needs_extraction_for_rules(light)
    assert needs_extraction_for_rules(heavy)


def test_config_round_trip():
    cfg = pipeline_config_from_dict(
        {
            "tenant_id": "acme",
            "drop_rules": [[{"column": "role", "op": "EQ", "value": "system"}]],
            "space_rules": [
                {"space_id": "s1", "conditions": [{"column": "tool", "op": "EXISTS"}]}
            ],
            "session_gap_sec": 60,
            "enable_client_info": True,
            "latency_sample_pct": 5,
            "num_partitions": 99,
        }
    )
    assert cfg.normalize.tenant_id == "acme"
    assert cfg.normalize.drop_rules[0][0].op == "EQ"
    assert cfg.space_rules[0].space_id == "s1"
    assert cfg.session_gap_us == 60_000_000
    assert cfg.enable_client_info and cfg.latency_sample_pct == 5
    assert cfg.num_partitions == 99


def test_metrics_distributed_finalize(pipeline_out, tmp_path, ray_session,
                                      monkeypatch):
    """The dims-exploded branch: a threshold below any partial size sends
    the final combine through ``combine_by_key``; it must match the local
    combine's result."""
    import pandas as pd

    from hypertrace_ingester_ray.pipelines import ingest
    from hypertrace_ingester_ray.pipelines.ingest import finalize_metrics, view_dataset

    out, _ = pipeline_out
    local = view_dataset(out, "metrics").to_pandas()

    alt = str(tmp_path / "alt")
    os.makedirs(alt)
    shutil.copytree(os.path.join(out, "metrics_partial"), os.path.join(alt, "metrics_partial"))
    monkeypatch.setattr(ingest, "DISTRIBUTED_METRICS_THRESHOLD", -1)
    finalize_metrics(alt)
    dist = view_dataset(alt, "metrics").to_pandas()

    key = ["window_ts", "tenant_id", "service_name", "api_status"]
    pd.testing.assert_frame_equal(
        local.sort_values(key).reset_index(drop=True),
        dist.sort_values(key).reset_index(drop=True)[local.columns],
        check_dtype=False,
    )


def test_poison_rows_dropped(ray_session, tmp_path):
    """Null conv_id / turn_idx / ts rows are swallowed end-to-end, never
    crashing the pipeline (the reference's poison-pill contract)."""
    import ray.data

    from hypertrace_ingester_ray.pipelines.ingest import PipelineConfig, run_pipeline

    t = pa.table(
        {
            "conv_id": pa.array(["a", None, "b", "b"], pa.string()),
            "turn_idx": pa.array([0, 1, None, 0], pa.int32()),
            "role": pa.array(["user"] * 4, pa.string()),
            "text": pa.array(
                ["GET /api/v1/view/1 HTTP/1.1 status=200 dur_ms=1 bytes=1"] * 4,
                pa.string(),
            ),
            "tool": pa.array([None] * 4, pa.string()),
            "ts": pa.array([1, 2, 3, None], pa.timestamp("us")),
        }
    )
    out = str(tmp_path / "poison")
    s = run_pipeline(
        ray.data.from_arrow(t), out, PipelineConfig(num_partitions=2)
    )
    assert s["rows_in"] == 1  # only the fully-valid row survives
    assert s["view_counts"]["per_turn"] == 1


def test_split_parse_matches_grok_regex():
    """_parse_text_fields is kernel-for-kernel equivalent to the reference
    GROK_PATTERN regex (plus the ''->null optional-group normalization) on
    well-formed AND adversarial texts."""
    import pyarrow.compute as pc

    from hypertrace_ingester_ray.stages.normalize import (
        GROK_PATTERN,
        OP_PATTERN,
        _parse_text_fields,
    )

    texts = pa.array(
        [
            "GET /api/v1/click/52?page=3&q=click&tag=a%201 HTTP/1.1 status=200 dur_ms=556 bytes=694",
            "POST /api/v1/buy/3?page=1 HTTP/1.1 status=201 dur_ms=7 bytes=33 grpc_status=0",
            "DELETE /x HTTP/1.1 status=500 dur_ms=1 bytes=2 grpc_status=14",
            "",  # empty
            "GET",  # truncated
            "get /x HTTP/1.1 status=1 dur_ms=2 bytes=3",  # lowercase method
            "GET2 /x HTTP/1.1 status=1 dur_ms=2 bytes=3",  # alnum method
            "GET ?q=1 HTTP/1.1 status=1 dur_ms=2 bytes=3",  # empty path
            "GET /x HTTP/1.1 status=a dur_ms=2 bytes=3",  # non-digit status
            "GET /x HTTP/1.1 status=1 dur_ms=2 bytes=3 extra=4",  # bad tail
            "GET /x HTTP/1.0 status=1 dur_ms=2 bytes=3",  # wrong version
            "GET /x? HTTP/1.1 status=1 dur_ms=2 bytes=3",  # empty query
            "GET /a?b?c HTTP/1.1 status=1 dur_ms=2 bytes=3",  # ? in query
            None,
        ],
        pa.string(),
    )
    ref = pc.extract_regex(texts, GROK_PATTERN)
    got = _parse_text_fields(pa.chunked_array([texts]), len(texts))

    def norm_ref(name):
        v = pc.struct_field(ref, name)
        return pc.if_else(pc.equal(v, ""), pa.nulls(len(texts), pa.string()), v)

    for name, out_name in [
        ("http_method", "http_method"),
        ("api_path", "api_path"),
        ("http_query", "http_query"),
        ("status_code", "status_code"),
        ("dur_ms", "dur_ms"),
        ("bytes", "bytes"),
        ("grpc_status", "grpc_status_code"),
    ]:
        want = norm_ref(name).to_pylist()
        have = [None if v is None else str(v) for v in got[out_name].to_pylist()]
        assert have == want, (name, have, want)
    # op column parity
    want_op = pc.struct_field(
        pc.extract_regex(pc.struct_field(ref, "api_path"), OP_PATTERN), "op"
    ).to_pylist()
    assert got["op"].to_pylist() == want_op
