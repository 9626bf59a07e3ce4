"""Enricher registry (topo sort) + enricher semantics on a crafted conversation.

Mirrors the reference's per-enricher unit-test strategy (SURVEY.md §5):
one assertion block per enricher over a small in-memory trace."""

import hashlib

import pyarrow as pa
import pytest

from hypertrace_ingester_ray.enrichers import (
    Enricher,
    EnrichmentRegistry,
    build_default_registry,
)
from hypertrace_ingester_ray.enrichers.base import ConversationContext
from hypertrace_ingester_ray.stages.normalize import normalize_batch


def _mk(name, deps=()):
    class E(Enricher):
        pass

    E.name = name
    E.depends_on = deps
    E.enrich = lambda self, t, ctx: t
    return E()


def test_topo_sort_dependency_order():
    reg = EnrichmentRegistry([_mk("c", ("b",)), _mk("b", ("a",)), _mk("a")])
    assert [e.name for e in reg.ordered] == ["a", "b", "c"]


def test_topo_sort_cycle_raises():
    with pytest.raises(ValueError, match="cycle"):
        EnrichmentRegistry([_mk("a", ("b",)), _mk("b", ("a",))])


def test_topo_sort_unknown_dep_raises():
    with pytest.raises(ValueError, match="unknown"):
        EnrichmentRegistry([_mk("a", ("zzz",))])


@pytest.fixture(scope="module")
def enriched():
    # one conversation: user → assistant(tool call) → tool(error) → user → assistant
    raw = pa.table(
        {
            "conv_id": pa.array(["c1"] * 5 + ["c2"], pa.string()),
            "turn_idx": pa.array([0, 1, 2, 3, 4, 0], pa.int32()),
            "role": pa.array(
                ["user", "assistant", "tool", "user", "assistant", "tool"],
                pa.string(),
            ),
            "text": pa.array(
                [
                    "GET /api/v1/view/1 HTTP/1.1 status=200 dur_ms=5 bytes=1",
                    "POST /api/v1/purchase/2 HTTP/1.1 status=200 dur_ms=6 bytes=2",
                    "GET /api/v1/error/3 HTTP/1.1 status=500 dur_ms=7 bytes=3",
                    "GET /api/v1/click/4 HTTP/1.1 status=200 dur_ms=8 bytes=4",
                    "POST /api/v1/signup/5 HTTP/1.1 status=404 dur_ms=9 bytes=5",
                    "GET /api/v1/error/6 HTTP/1.1 status=503 dur_ms=1 bytes=6",
                ],
                pa.string(),
            ),
            "tool": pa.array([None, "db", "db", None, None, "http"], pa.string()),
            "ts": pa.array([10, 20, 30, 40, 50, 60], pa.timestamp("us")),
        }
    )
    norm = normalize_batch(raw).append_column(
        "session_id", pa.array([0] * 6, pa.int32())
    )
    return build_default_registry().apply(ConversationContext(norm))


def test_span_kind_and_protocol(enriched):
    assert enriched["span_kind"].to_pylist() == [
        "ENTRY", "INTERNAL", "EXIT", "ENTRY", "INTERNAL", "EXIT",
    ]
    assert enriched["protocol"].to_pylist() == [
        "HTTP", "SQL", "SQL", "HTTP", "HTTP", "HTTP",
    ]


def test_api_status(enriched):
    assert enriched["api_status"].to_pylist() == [
        "SUCCESS", "SUCCESS", "FAIL", "SUCCESS", "FAIL", "FAIL",
    ]
    assert enriched["status_message"].to_pylist() == [
        "OK", "OK", "Internal Server Error", "OK", "Not Found",
        "Service Unavailable",
    ]


def test_boundary_and_episodes(enriched):
    assert enriched["is_boundary"].to_pylist() == [
        True, True, True, True, True, True,
    ]
    assert enriched["episode_id"].to_pylist() == [0, 0, 0, 1, 1, 0]
    assert enriched["episode_head"].to_pylist() == [
        True, False, False, True, False, True,
    ]


def test_entity_ids_deterministic(enriched):
    svc = enriched["service_id"].to_pylist()
    assert svc[0] == "svc_" + hashlib.md5(b"user").hexdigest()[:8]
    assert svc[1] == "svc_" + hashlib.md5(b"db").hexdigest()[:8]
    api = enriched["api_name"].to_pylist()
    assert api[0] == "user:view"
    be = enriched["backend_id"].to_pylist()
    assert be[0] is None
    # provider-chain identity: (backend_type, host:port, path) — SQL rows
    # resolve through the JDBC provider (enrichers/backend_providers.py)
    assert be[1] == "be_" + hashlib.md5(b"JDBC:db:5432").hexdigest()[:8]


def test_exit_calls_per_episode(enriched):
    # c1 episode 0 has 2 tool-bearing turns, episode 1 has 0; c2 has 1
    assert enriched["exit_call_count"].to_pylist() == [2, 2, 2, 0, 0, 1]


def test_transaction_name(enriched):
    assert enriched["transaction_name"].to_pylist() == [
        "view", "view", "view", "view", "view", None,
    ]


def test_conv_has_error(enriched):
    assert enriched["conv_has_error"].to_pylist() == [True] * 6


def test_service_registry_override():
    reg = build_default_registry(service_registry={"db": "svc_custom"})
    raw = pa.table(
        {
            "conv_id": pa.array(["c"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["tool"], pa.string()),
            "text": pa.array(["GET /api/v1/error/1 HTTP/1.1 status=500 dur_ms=1 bytes=1"], pa.string()),
            "tool": pa.array(["db"], pa.string()),
            "ts": pa.array([1], pa.timestamp("us")),
        }
    )
    norm = normalize_batch(raw).append_column("session_id", pa.array([0], pa.int32()))
    out = reg.apply(ConversationContext(norm))
    assert out["service_id"].to_pylist() == ["svc_custom"]


# ---------------------------------------------------------------------------
# round-3 depth: full code-mapper tables, provider chain, 3-key priorities
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def enriched_v4():
    """Conversation exercising the full HttpCodeMapper table (3xx/4xx/5xx),
    the GrpcCodeMapper dispatch (grpc_status token), the provider chain
    (4 protocol classes), and the sparse stmt/body/proc/hdr priority keys."""
    raw = pa.table(
        {
            "conv_id": pa.array(["c"] * 6, pa.string()),
            "turn_idx": pa.array(list(range(6)), pa.int32()),
            "role": pa.array(
                ["user", "tool", "tool", "tool", "tool", "assistant"], pa.string()
            ),
            "text": pa.array(
                [
                    # 301 → SUCCESS per HttpCodeMapper.getState (3xx prefix)
                    "GET /api/v1/view/1?page=1&q=view&tag=a&hdr=x%201 HTTP/1.1 status=301 dur_ms=5 bytes=1",
                    # SQL: stmt wins the 3-key priority
                    "GET /api/v1/error/2?page=1&q=error&tag=a&stmt=select%202 HTTP/1.1 status=502 dur_ms=5 bytes=1",
                    # GRPC with grpc_status=4 → DEADLINE_EXCEEDED / FAIL
                    "GET /api/v1/error/3?page=1&q=error&tag=a HTTP/1.1 status=500 dur_ms=5 bytes=1 grpc_status=4",
                    # GRPC success: grpc_status=0 → OK / SUCCESS
                    "GET /api/v1/purchase/4?page=1&q=purchase&tag=a&body=m%204 HTTP/1.1 status=418 dur_ms=5 bytes=1 grpc_status=0",
                    # PROC: no proc key, no hdr → falls through to q
                    "GET /api/v1/error/5?page=1&q=error&tag=a HTTP/1.1 status=511 dur_ms=5 bytes=1",
                    # hdr key wins for HTTP protocol
                    "POST /api/v1/signup/6?page=1&q=signup&tag=a&hdr=x%206 HTTP/1.1 status=204 dur_ms=5 bytes=1",
                ],
                pa.string(),
            ),
            "tool": pa.array(
                [None, "db", "code", "code", "shell", None], pa.string()
            ),
            "ts": pa.array([10, 20, 30, 40, 50, 60], pa.timestamp("us")),
        }
    )
    norm = normalize_batch(raw).append_column(
        "session_id", pa.array([0] * 6, pa.int32())
    )
    return build_default_registry().apply(ConversationContext(norm))


def test_full_http_code_table(enriched_v4):
    assert enriched_v4["status_message"].to_pylist()[:2] == [
        "Moved Permanently", "Bad Gateway",
    ]
    assert enriched_v4["status_message"].to_pylist()[4:] == [
        "Network Authentication Required", "No Content",
    ]
    # 3xx → SUCCESS (HttpCodeMapper.getState 2xx/3xx prefix rule)
    assert enriched_v4["api_status"].to_pylist()[0] == "SUCCESS"
    assert enriched_v4["api_status"].to_pylist()[1] == "FAIL"


def test_grpc_code_mapper_dispatch(enriched_v4):
    # protocol=GRPC rows resolve through the GrpcCodeMapper table
    assert enriched_v4["status_message"].to_pylist()[2] == "DEADLINE_EXCEEDED"
    assert enriched_v4["api_status"].to_pylist()[2] == "FAIL"
    # grpc_status=0 → OK/SUCCESS even though the http status is 418
    assert enriched_v4["status_message"].to_pylist()[3] == "OK"
    assert enriched_v4["api_status"].to_pylist()[3] == "SUCCESS"


def test_status_class(enriched_v4):
    assert enriched_v4["status_class"].to_pylist() == [
        "3xx", "5xx", "5xx", "4xx", "5xx", "2xx",
    ]


def test_backend_provider_chain(enriched_v4):
    # one distinct provider output per protocol class
    assert enriched_v4["backend_type"].to_pylist() == [
        None, "JDBC", "GRPC", "GRPC", "PROC", None,
    ]
    assert enriched_v4["backend_port"].to_pylist() == [
        None, 5432, 50051, 50051, None, None,
    ]
    urls = enriched_v4["backend_url"].to_pylist()
    assert urls[1] == "jdbc://db:5432"
    assert urls[2] == "grpc://code:50051/error"
    assert urls[4] == "proc://shell"  # PROC: no port, no path


def test_protocol_field_priorities(enriched_v4):
    """≥3-key priority coalesce per protocol (PROTOCOL_FIELD_PRIORITIES):
    protocol-specific key > shared hdr key > always-present q fallback."""
    req = enriched_v4["proto_request"].to_pylist()
    assert req[1] == "select 2"  # SQL: stmt (key 1) wins
    assert req[3] == "m 4"  # GRPC: body (key 1) wins
    assert req[2] == "error"  # GRPC without body/hdr → q (key 3)
    assert req[4] == "error"  # PROC without proc/hdr → q (key 3)
    assert req[0] == "x 1"  # HTTP: hdr (key 1) wins
    assert req[5] == "x 6"  # HTTP: hdr present again
