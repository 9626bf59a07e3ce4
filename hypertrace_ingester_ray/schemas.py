"""Explicit Arrow schemas for every table that crosses a stage boundary.

The reference fixes schemas with Avro IDL compiled to SpecificRecord classes
(e.g. /root/reference/hypertrace-view-generator/hypertrace-view-generator-api/
src/main/avro/SpanEventView.avdl:1-110). Here each logical table gets an
explicit ``pyarrow.schema`` constant which stages assert at their boundaries.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Input contract: the transcript table (BASELINE.json input_hint).
# Analog of the Jaeger Span proto consumed at
# span-normalizer/.../jaeger/JaegerSpanPreProcessor.java:100-127.
# ---------------------------------------------------------------------------
TRANSCRIPTS = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),  # nullable: only tool-call / tool-result turns
        pa.field("ts", pa.timestamp("us")),
    ]
)

# ---------------------------------------------------------------------------
# Normalized turn: output of the parse stage (analog of Avro RawSpan/Event,
# span-normalizer/.../util/EventBuilder.java:30-119). First-class extracted
# columns stay narrow; the open-ended remainder lives in `attributes`
# (map<string,string>, keys lower-cased at ingest as in EventBuilder.java:73-83).
# ---------------------------------------------------------------------------
NORMALIZED_TURNS = pa.schema(
    [
        pa.field("tenant_id", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
        # grok-extracted first-class fields (HttpFieldsGenerator analog)
        pa.field("http_method", pa.string()),
        pa.field("api_path", pa.string()),
        pa.field("http_query", pa.string()),
        pa.field("op", pa.string()),
        pa.field("status_code", pa.int32()),
        # grpc status (0..16) on GRPC turns, null otherwise — feeds the
        # GrpcCodeMapper dispatch (ApiStatusEnricher.java per-protocol keys)
        pa.field("grpc_status_code", pa.int32()),
        pa.field("dur_ms", pa.int64()),
        pa.field("bytes", pa.int64()),
        # normalization outputs
        pa.field("service_name", pa.string()),
        pa.field("is_error", pa.bool_()),
    ]
)

# Enriched turn = normalized + enrichment columns (analog of
# Event.enrichedAttributes).  Kept as plain columns, not a map.
ENRICHED_EXTRA = [
    pa.field("span_kind", pa.string()),  # ENTRY / EXIT / INTERNAL   (E1)
    pa.field("protocol", pa.string()),  # (E1)
    pa.field("api_status", pa.string()),  # SUCCESS / FAIL            (E2)
    pa.field("status_message", pa.string()),  # full HttpCodeMapper/GrpcCodeMapper tables (E2)
    pa.field("status_class", pa.string()),  # 2xx/3xx/4xx/5xx family    (E2)
    pa.field("is_boundary", pa.bool_()),  # head of a role-run        (E3)
    pa.field("episode_id", pa.int32()),  # ApiNode analog            (GR2)
    pa.field("episode_head", pa.bool_()),
    pa.field("service_id", pa.string()),  # (E4)
    pa.field("api_id", pa.string()),  # (E5)
    pa.field("api_name", pa.string()),
    pa.field("api_discovery_state", pa.string()),  # (E5) DISCOVERED / null
    # E7 provider-chain outputs (backend/provider/*.java analogs); tool turns only
    pa.field("backend_type", pa.string()),  # JDBC / GRPC / HTTP / PROC
    pa.field("backend_host", pa.string()),
    pa.field("backend_port", pa.int32()),
    pa.field("backend_path", pa.string()),
    pa.field("backend_url", pa.string()),
    pa.field("backend_id", pa.string()),  # (E7) tool turns only
    pa.field("exit_call_count", pa.int32()),  # per-episode tool calls    (E14)
    pa.field("transaction_name", pa.string()),  # conv-level, repeated      (E10)
    pa.field("conv_has_error", pa.bool_()),  # (E6 trace rollup)
    pa.field("session_id", pa.int32()),  # ts-gap sessionization     (G2)
    # M8 per-protocol field dispatch (Sql/Grpc/HttpFieldsGenerator maps)
    pa.field("proto_request", pa.string()),
    pa.field("proto_params", pa.string()),
    # E13 entity-span association record (EntitySpanEnricher.java:17-23)
    pa.field("associated_entity_ids", pa.string()),
    # J3 exit→callee-entry walk (SpanEventViewGenerator.java:77-125)
    pa.field("callee_entry_turn_idx", pa.int32()),
    pa.field("api_callee_name", pa.string()),
    # E8 HttpAttributeEnricher: open attributes map + scalar query params
    pa.field("tags", pa.map_(pa.string(), pa.string())),
    pa.field("query_param_page", pa.string()),
    pa.field("query_param_q", pa.string()),
    pa.field("query_param_tag", pa.string()),
]

ENRICHED_TURNS = pa.schema(list(NORMALIZED_TURNS) + ENRICHED_EXTRA)

# ---------------------------------------------------------------------------
# View schemas (analog of the 6 Avro views,
# hypertrace-view-generator-api/src/main/avro/*.avdl).
# ---------------------------------------------------------------------------
PER_TURN_VIEW = ENRICHED_TURNS  # V1 SpanEventView analog: 1 row / turn

PER_ROLE_VIEW = pa.schema(  # V2 RawServiceView analog: 1 row / role-episode head
    [
        pa.field("tenant_id", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("service_name", pa.string()),
        pa.field("service_id", pa.string()),
        pa.field("role", pa.string()),
        pa.field("start_ts", pa.timestamp("us")),
        pa.field("end_ts", pa.timestamp("us")),
        pa.field("dur_ms_sum", pa.int64()),
        pa.field("num_turns", pa.int64()),
        pa.field("num_errors", pa.int64()),
        pa.field("num_calls", pa.int64()),  # 1 per ENTRY head as in RawServiceViewGenerator.java:66
        pa.field("transaction_name", pa.string()),
    ]
)

PER_CONVERSATION_VIEW = pa.schema(  # V3 RawTraceView analog: 1 row / conversation
    [
        pa.field("tenant_id", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("transaction_name", pa.string()),
        pa.field("num_turns", pa.int64()),
        pa.field("num_services", pa.int64()),
        pa.field("num_episodes", pa.int64()),
        pa.field("num_errors", pa.int64()),
        pa.field("num_exit_calls", pa.int64()),
        pa.field("start_ts", pa.timestamp("us")),
        pa.field("end_ts", pa.timestamp("us")),
        pa.field("duration_ms", pa.int64()),
        pa.field("has_error", pa.bool_()),
    ]
)

CALL_EDGE_VIEW = pa.schema(  # V4 ServiceCallView analog: 4 edge scenarios
    # (ServiceCallViewGenerator.java:58-150): api_edge (ApiNode edge),
    # root_entry (entry with no incoming edge), backend (exit with no
    # outgoing edge), non_root_entry (root ancestor of entry-less exits)
    [
        pa.field("tenant_id", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("edge_type", pa.string()),
        pa.field("caller_service", pa.string()),
        pa.field("callee_service", pa.string()),
        pa.field("caller_role", pa.string()),
        pa.field("callee_role", pa.string()),
        pa.field("caller_turn_idx", pa.int32()),
        pa.field("callee_turn_idx", pa.int32()),
        pa.field("ts", pa.timestamp("us")),
        pa.field("dur_ms", pa.int64()),
        pa.field("num_errors", pa.int64()),
        pa.field("status_code", pa.int32()),
        pa.field("backend_id", pa.string()),
        pa.field("request_url", pa.string()),
    ]
)

PER_TOOL_VIEW = pa.schema(  # V5 BackendEntityView analog: 1 row / tool-call turn
    [
        pa.field("tenant_id", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("backend_id", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("op", pa.string()),
        pa.field("status_code", pa.int32()),
        pa.field("api_status", pa.string()),
        pa.field("caller_service", pa.string()),
        pa.field("ts", pa.timestamp("us")),
        pa.field("dur_ms", pa.int64()),
        # E7 provider-chain outputs (BackendEntityView backend attrs)
        pa.field("backend_type", pa.string()),
        pa.field("backend_port", pa.int32()),
        pa.field("request_url", pa.string()),
    ]
)

ERROR_VIEW = pa.schema(  # V6 LogEventView analog: 1 row / error turn
    [
        pa.field("tenant_id", pa.string()),
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("status_code", pa.int32()),
        pa.field("status_message", pa.string()),
        pa.field("summary", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

METRICS = pa.schema(  # A1 MetricsProcessor analog
    [
        pa.field("window_ts", pa.timestamp("us")),
        pa.field("tenant_id", pa.string()),
        pa.field("service_name", pa.string()),
        pa.field("api_status", pa.string()),
        pa.field("num_calls", pa.int64()),
    ]
)

#: Free-text sink columns: near-unique per row, so the Parquet writer keeps
#: them plain (a dictionary over them is a hash build nothing probes again)
#: and compresses them with zstd (``state/lineage.py:parquet_plan``).
FREE_TEXT_COLUMNS = frozenset({"text", "summary"})

VIEW_SCHEMAS = {
    "per_turn": PER_TURN_VIEW,
    "per_role": PER_ROLE_VIEW,
    "per_conversation": PER_CONVERSATION_VIEW,
    "call_edges": CALL_EDGE_VIEW,
    "per_tool": PER_TOOL_VIEW,
    "errors": ERROR_VIEW,
}
