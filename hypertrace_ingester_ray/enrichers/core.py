"""The default enricher DAG — analogs of the reference's 15 enrichers.

Each enricher cites the reference class it mirrors.  All are vectorized over
a partition table sorted by (conv_id, turn_idx); entity-id derivation is
deterministic (md5-based) so the DuckDB oracles can reproduce it exactly.

Transcript analog mapping (SURVEY.md §2.5):
  span.kind ENTRY/EXIT       ← role user/tool        (SpanTypeAttributeEnricher)
  protocol                   ← tool class            (SpanTypeAttributeEnricher)
  api status + message       ← parsed status_code    (ApiStatusEnricher)
  API boundary               ← role-run head         (ApiBoundaryTypeAttributeEnricher)
  service entity id          ← service_name lookup   (DefaultServiceEntityEnricher)
  API/endpoint entity        ← (service, op) lookup  (EndpointEnricher)
  backend entity             ← tool lookup           (BackendEntityEnricher)
  exit-call counts           ← tool calls / episode  (ExitCallsEnricher)
  transaction name           ← first ENTRY turn op   (TransactionNameEnricher)
  error rollups              ← status flags          (ErrorsAndExceptionsEnricher)
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np
import pyarrow as pa

from ..stages.grouping import run_boundaries, segmented_broadcast_first
from .base import ConversationContext, Enricher, EnrichmentRegistry

# tool → protocol class (SpanTypeAttributeEnricher.getProtocolName analog,
# /root/reference/hypertrace-trace-enricher/.../SpanTypeAttributeEnricher.java:182-276)
PROTOCOL_BY_TOOL = {"db": "SQL", "code": "GRPC", "shell": "PROC"}
DEFAULT_PROTOCOL = "HTTP"


def md5_id(prefix: str, value: str) -> str:
    return prefix + hashlib.md5(value.encode()).hexdigest()[:8]


class SpanKindEnricher(Enricher):
    """SpanTypeAttributeEnricher analog (SpanTypeAttributeEnricher.java:88-179):
    role → span_kind, tool → protocol."""

    name = "span_kind"

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        import pyarrow.compute as pc

        role = table["role"]
        kind = pc.if_else(
            pc.fill_null(pc.equal(role, "user"), False),
            pa.scalar("ENTRY"),
            pc.if_else(
                pc.fill_null(pc.equal(role, "tool"), False),
                pa.scalar("EXIT"),
                pa.scalar("INTERNAL"),
            ),
        )
        # tool → protocol once per DISTINCT tool (dictionary take)
        enc = table["tool"].combine_chunks().dictionary_encode()
        mapped = pa.array(
            [PROTOCOL_BY_TOOL.get(t, DEFAULT_PROTOCOL) for t in enc.dictionary.to_pylist()],
            pa.string(),
        )
        protocol = pc.fill_null(mapped.take(enc.indices), DEFAULT_PROTOCOL)
        return table.append_column("span_kind", kind).append_column(
            "protocol", protocol
        )


class ApiStatusEnricher(Enricher):
    """ApiStatusEnricher analog (ApiStatusEnricher.java:38-133): per-protocol
    mapper dispatch — GRPC turns resolve through the full GrpcCodeMapper
    table, everything else through the full HttpCodeMapper table
    (util/HttpCodeMapper.java:20-100, GrpcCodeMapper.java:13-38).  Also
    surfaces ``status_class`` (the 2xx..5xx family,
    HttpSemanticConventionUtils status family)."""

    name = "api_status"
    depends_on = ("span_kind",)

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        from ..functions.conventions import status_class
        from .status_codes import (
            API_STATUS_FAIL,
            API_STATUS_SUCCESS,
            GRPC_CODE_NAMES,
            HTTP_CODE_TO_MESSAGE,
        )

        import pyarrow.compute as pc

        status = table["status_code"].combine_chunks()
        grpc = table["grpc_status_code"].combine_chunks()
        grpc_mask = pc.fill_null(
            pc.and_(pc.is_valid(grpc), pc.equal(table["protocol"], "GRPC")), False
        )

        # state: HttpCodeMapper.getState (2xx/3xx SUCCESS, else FAIL) with the
        # GrpcCodeMapper.getState override (OK==0) on grpc-mapped rows;
        # null status → null state (nulls propagate through the comparisons)
        http_ok = pc.and_(pc.greater_equal(status, 200), pc.less(status, 400))
        api_status = pc.if_else(
            http_ok, pa.scalar(API_STATUS_SUCCESS), pa.scalar(API_STATUS_FAIL)
        )
        api_status = pc.if_else(
            grpc_mask,
            pc.if_else(
                pc.equal(grpc, 0),
                pa.scalar(API_STATUS_SUCCESS),
                pa.scalar(API_STATUS_FAIL),
            ),
            api_status,
        )

        # message: table lookup once per DISTINCT code (dictionary take)
        def _code_messages(col, lookup):
            enc = col.dictionary_encode()
            mapped = pa.array(
                [None if c is None else lookup.get(int(c)) for c in enc.dictionary.to_pylist()],
                pa.string(),
            )
            return mapped.take(enc.indices)

        msg = _code_messages(status, HTTP_CODE_TO_MESSAGE)
        if pc.any(grpc_mask).as_py():
            msg = pc.if_else(grpc_mask, _code_messages(grpc, GRPC_CODE_NAMES), msg)

        sclass = status_class(table["status_code"])
        return (
            table.append_column("api_status", api_status)
            .append_column("status_message", msg)
            .append_column("status_class", sclass)
        )


class BoundaryEnricher(Enricher):
    """ApiBoundaryTypeAttributeEnricher analog
    (ApiBoundaryTypeAttributeEnricher.java:65-121): head of a role-run."""

    name = "boundary"
    depends_on = ("span_kind",)

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        return table.append_column("is_boundary", pa.array(ctx.role_run_start()))


class EpisodeEnricher(Enricher):
    """ApiTraceGraph analog (ApiTraceGraph.java:139-273): episode = user-head
    subgraph; adds episode_id + episode_head."""

    name = "episode"
    depends_on = ("boundary",)

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        ep, head = ctx.episodes()
        return table.append_column("episode_id", pa.array(ep)).append_column(
            "episode_head", pa.array(head)
        )


class ServiceEntityEnricher(Enricher):
    """DefaultServiceEntityEnricher analog
    (DefaultServiceEntityEnricher.java:39-60): service_name → SERVICE_ID via a
    lookup table with deterministic upsert (md5)."""

    name = "service_entity"

    def __init__(self, registry: Optional[Dict[str, str]] = None):
        # broadcast small-side dict (EntityCache analog); unknown names are
        # upserted deterministically, mirroring EDS upsert semantics.
        self.registry = dict(registry or {})

    def _lookup(self, name: str) -> str:
        sid = self.registry.get(name)
        if sid is None:
            sid = md5_id("svc_", name)
            self.registry[name] = sid
        return sid

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        enc = table["service_name"].combine_chunks().dictionary_encode()
        mapped = pa.array(
            [None if v is None else self._lookup(v) for v in enc.dictionary.to_pylist()],
            pa.string(),
        )
        return table.append_column("service_id", mapped.take(enc.indices))


class EndpointEnricher(Enricher):
    """EndpointEnricher analog (endpoint/EndpointEnricher.java:49-120):
    (service_name, op) → API_ID / API_NAME."""

    name = "endpoint"
    depends_on = ("service_entity",)

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        # per-unique (service, op) pair work only: combine dictionary codes,
        # build strings + md5 once per distinct endpoint
        svc_codes, svc_uniq = ctx.dict_codes("service_name")
        op_codes, op_uniq = ctx.dict_codes("op")
        k = len(op_uniq) + 1
        # encode null op (code -1) as remainder k-1, which no real op can hit
        pair = svc_codes * k + np.where(op_codes < 0, k - 1, op_codes)
        uniq, inverse = np.unique(pair, return_inverse=True)
        names = np.empty(len(uniq), dtype=object)
        ids = np.empty(len(uniq), dtype=object)
        for i, p in enumerate(uniq):
            sc, oc = divmod(int(p), k)
            if oc == k - 1:
                names[i] = None
                ids[i] = None
            else:
                name = f"{svc_uniq[sc]}:{op_uniq[oc]}"
                names[i] = name
                ids[i] = md5_id("api_", name)
        api_name = names[inverse]
        api_id = ids[inverse]
        # API_DISCOVERY_STATE (EndpointEnricher.java:49-120 marks every
        # endpoint it resolves/creates DISCOVERED): constant on rows that
        # carry a discovered endpoint, null otherwise
        discovery = np.where(api_id != None, "DISCOVERED", None)  # noqa: E711
        return (
            table.append_column("api_id", pa.array(api_id, pa.string()))
            .append_column("api_name", pa.array(api_name, pa.string()))
            .append_column(
                "api_discovery_state", pa.array(discovery, pa.string())
            )
        )


class BackendEntityEnricher(Enricher):
    """BackendEntityEnricher analog (backend/AbstractBackendEntityEnricher.java:96-160):
    EXIT (tool) turns resolve a backend entity through the PROVIDER CHAIN —
    a declarative ``{protocol → provider}`` registry deriving type / host /
    port / path / url / id per protocol class (the backend/provider/*.java
    chain recast as data; see enrichers/backend_providers.py)."""

    name = "backend"
    depends_on = ("span_kind",)

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        from .backend_providers import resolve_backends

        cols = resolve_backends(
            table["tool"],
            table["protocol"],
            table["api_path"],
            table["op"],
            md5_id,
        )
        for name, arr in cols.items():
            table = table.append_column(name, arr)
        return table


class ExitCallsEnricher(Enricher):
    """ExitCallsEnricher analog (ExitCallsEnricher.java:29-139): per-episode
    tool-call count attached to every turn of the episode."""

    name = "exit_calls"
    depends_on = ("episode", "backend")

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        ep_bounds = ctx.episode_bounds()
        tools = ctx.col("tool")
        is_call = (tools != None).astype(np.int64)  # noqa: E711
        per_ep = np.add.reduceat(is_call, ep_bounds[:-1]) if ctx.n else np.zeros(0, np.int64)
        counts = np.repeat(per_ep, np.diff(ep_bounds)).astype(np.int32)
        return table.append_column("exit_call_count", pa.array(counts))


class TransactionNameEnricher(Enricher):
    """TransactionNameEnricher analog (TransactionNameEnricher.java:24-49):
    conv-level transaction name = op of the earliest ENTRY (user) turn."""

    name = "transaction_name"

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        roles = ctx.roles
        op = ctx.col("op")
        n = ctx.n
        # first user-turn op per conversation, via cummax over candidate rows
        is_user = roles == "user"
        idx = np.arange(n, dtype=np.int64)
        cand = np.where(is_user, idx, np.iinfo(np.int64).max)
        first_user = np.minimum.reduceat(cand, ctx.bounds[:-1]) if n else np.zeros(0, np.int64)
        tx = np.full(len(first_user), None, dtype=object)
        has = first_user < np.iinfo(np.int64).max
        tx[has] = op[first_user[has]]
        per_row = np.repeat(tx, np.diff(ctx.bounds))
        return table.append_column("transaction_name", pa.array(per_row, pa.string()))


class ErrorRollupEnricher(Enricher):
    """ErrorsAndExceptionsEnricher trace-rollup analog
    (ErrorsAndExceptionsEnricher.java:101-184): conv_has_error flag."""

    name = "error_rollup"
    depends_on = ("api_status",)

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        err = ctx.col("is_error").astype(np.int64)
        per_conv = np.add.reduceat(err, ctx.bounds[:-1]) if ctx.n else np.zeros(0, np.int64)
        has = np.repeat(per_conv > 0, np.diff(ctx.bounds))
        return table.append_column("conv_has_error", pa.array(has))


class ProtocolFieldsEnricher(Enricher):
    """M8 — the per-protocol field-generator dispatch
    (ProtocolFieldsGenerator.java dispatch loop; SqlFieldsGenerator.java:24-54,
    GrpcFieldsGenerator.java, HttpFieldsGenerator.java key maps): each
    protocol resolves its target fields from priority-ordered source keys in
    the open ``tags`` map, vectorized via functions/fields.py."""

    name = "protocol_fields"
    depends_on = ("span_kind", "http_attributes")

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        from ..functions.fields import generate_protocol_fields
        from ..functions.maps import QUERY_PARAM_PREFIX

        # the http_attributes enricher extracted every source key at the
        # unique level (ctx.pre_extracted) — the dispatch then runs no map
        # scan at all; fall back to the scalar columns when this enricher is
        # used standalone
        pre = getattr(ctx, "pre_extracted", None) or {
            QUERY_PARAM_PREFIX + k: table[f"query_param_{k}"]
            for k in HttpAttributeEnricher.PARAM_KEYS
            if f"query_param_{k}" in table.schema.names
        }
        pre = {
            k: v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
            for k, v in pre.items()
        }
        cols = generate_protocol_fields(
            table["tags"], table["protocol"], extracted=pre
        )
        for name, arr in cols.items():
            table = table.append_column(name, arr)
        return table


class EntitySpanEnricher(Enricher):
    """E13 — EntitySpanEnricher analog (EntitySpanEnricher.java:17-23,
    writeAssociatedEntitiesForSpan): records the entities each turn is
    associated with.  The association record is the non-null entity ids
    (service, api, backend) joined with ',' — one vectorized skip-null
    join, no entity-store side effects needed in a batch engine."""

    name = "entity_span"
    depends_on = ("service_entity", "endpoint", "backend")

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        joined = pa.compute.binary_join_element_wise(
            table["service_id"],
            table["api_id"],
            table["backend_id"],
            ",",
            null_handling="skip",
        )
        return table.append_column("associated_entity_ids", joined)


class CalleeWalkEnricher(Enricher):
    """J3 — the exit→callee-entry ancestral walk
    (SpanEventViewGenerator.java:77-125, getExitSpanToCalleeApiEntrySpanMap):
    every EXIT (tool) turn is mapped to the next ENTRY (user role-run head)
    downstream in the same conversation — the API entry its call feeds —
    yielding ``callee_entry_turn_idx`` and ``api_callee_name``.  Vectorized:
    one searchsorted over the partition's user-head row indices."""

    name = "callee_walk"
    depends_on = ("boundary", "endpoint")

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        n = ctx.n
        roles = ctx.roles
        heads = np.flatnonzero(ctx.role_run_start() & (roles == "user"))
        tools = ctx.col("tool")
        is_exit = np.not_equal(tools, None)
        if n == 0 or len(heads) == 0:
            return table.append_column(
                "callee_entry_turn_idx", pa.nulls(n, pa.int32())
            ).append_column("api_callee_name", pa.nulls(n, pa.string()))
        pos = np.searchsorted(heads, np.arange(n), side="right")
        safe = np.minimum(pos, len(heads) - 1)
        nxt = heads[safe]
        valid = (
            is_exit
            & (pos < len(heads))
            & (ctx.conv_codes[nxt] == ctx.conv_codes)
        )
        turn_idx = ctx.col("turn_idx")
        api_name = ctx.col("api_name")
        callee_idx = pa.array(
            turn_idx[nxt].astype(np.int32), mask=~valid
        )
        callee_api = np.where(valid, api_name[nxt], None)
        return table.append_column(
            "callee_entry_turn_idx", callee_idx
        ).append_column("api_callee_name", pa.array(callee_api, pa.string()))


class HttpAttributeEnricher(Enricher):
    """HttpAttributeEnricher analog (HttpAttributeEnricher.java:38-81):
    parse the request query string into the open attributes map —
    multi-value, URL-decoded ``http.request.query.param.<k>`` entries — plus
    scalar convenience columns for the hot keys.  The map is passed through
    ``filter_map_keys`` (TagsFilter.java:65-100) so the flagship pipeline
    exercises the prefix allow/deny kernels in production, and lands in the
    ``per_turn`` sink as ``tags`` (SpanEventViewGenerator.java:205)."""

    name = "http_attributes"
    depends_on = ("span_kind",)

    #: scalar param columns surfaced beside the map (oracle-checkable)
    PARAM_KEYS = ("page", "q", "tag")

    def __init__(
        self,
        denied_prefixes: tuple = ("http.request.query.param.internal",),
        allow_list: tuple = (),
    ):
        self.denied_prefixes = denied_prefixes
        self.allow_list = allow_list

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        from ..functions.maps import (
            QUERY_PARAM_PREFIX,
            filter_map_keys,
            map_get,
            parse_query_params,
        )

        # query strings are typically low-cardinality (param templates):
        # parse/filter/extract once per DISTINCT query, then take() back to
        # rows — the EntityCache-style unique-level pattern
        q = pa.compute.fill_null(table["http_query"], "")
        if isinstance(q, pa.ChunkedArray):
            q = q.combine_chunks()
        enc = q.dictionary_encode()
        tags_u = parse_query_params(enc.dictionary)
        if self.denied_prefixes or self.allow_list:
            tags_u = filter_map_keys(
                pa.chunked_array([tags_u]),
                denied_prefixes=self.denied_prefixes,
                allow_list=self.allow_list,
            )
        idx = enc.indices
        table = table.append_column("tags", tags_u.take(idx))
        chunked = pa.chunked_array([tags_u])
        # extract EVERY downstream source key while the map is still
        # unique-level (one entry scan over n_distinct queries, not n rows);
        # protocol_fields then needs no row-level map pass at all
        from ..functions.fields import PROTOCOL_FIELD_PRIORITIES
        from ..functions.maps import map_get_many

        all_keys = sorted(
            {QUERY_PARAM_PREFIX + k for k in self.PARAM_KEYS}
            | {
                k
                for f in PROTOCOL_FIELD_PRIORITIES.values()
                for ks in f.values()
                for k in ks
            }
        )
        extracted_u = map_get_many(chunked, all_keys)
        ctx.pre_extracted = {k: extracted_u[k].take(idx) for k in all_keys}
        for k in self.PARAM_KEYS:
            table = table.append_column(
                f"query_param_{k}", ctx.pre_extracted[QUERY_PARAM_PREFIX + k]
            )
        return table


DEFAULT_ENRICHERS = (
    SpanKindEnricher,
    HttpAttributeEnricher,
    ProtocolFieldsEnricher,
    CalleeWalkEnricher,
    EntitySpanEnricher,
    ApiStatusEnricher,
    BoundaryEnricher,
    EpisodeEnricher,
    ServiceEntityEnricher,
    EndpointEnricher,
    BackendEntityEnricher,
    ExitCallsEnricher,
    TransactionNameEnricher,
    ErrorRollupEnricher,
)


def build_default_registry(
    service_registry: Optional[Dict[str, str]] = None,
    extra_enrichers=(),
) -> EnrichmentRegistry:
    """Instantiate the default DAG (application.conf enrichers list analog,
    hypertrace-trace-enricher/.../configs/common/application.conf:74-130).

    ``extra_enrichers``: already-instantiated optional enrichers (spaces,
    client info, peer service, user plugins) appended to the registry; the
    topo sort orders them by their declared ``depends_on``."""
    instances = []
    for cls in DEFAULT_ENRICHERS:
        if cls is ServiceEntityEnricher:
            instances.append(cls(service_registry))
        else:
            instances.append(cls())
    instances.extend(extra_enrichers)
    return EnrichmentRegistry(instances)
