"""Optional enrichers: memoized client parsing (E11), space rules (E12),
peer-service correlation (G4 / J2).  All off by default, mirroring the
reference's config-gated enrichers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

import ray

from ..stages.grouping import segmented_broadcast_first
from ..stages.normalize import DropCondition, rules_mask
from .base import ConversationContext, Enricher


class ClientInfoEnricher(Enricher):
    """UserAgentSpanEnricher analog
    (/root/reference/hypertrace-trace-enricher/.../UserAgentSpanEnricher.java:27-68
    + cached UserAgentParser, util/UserAgentParser.java): parse a descriptor
    string into client family/type fields through a memo cache that persists
    across batches (worker-lifetime, like the reference's caffeine cache).

    Transcript analog: the descriptor is ``role[/tool]``; the parse yields
    ``client_family`` (human/agent/system) and ``client_type``.
    """

    name = "client_info"
    depends_on = ("span_kind",)

    def __init__(self):
        self._memo: Dict[str, Tuple[str, str]] = {}

    def _parse(self, descriptor: str) -> Tuple[str, str]:
        hit = self._memo.get(descriptor)
        if hit is None:
            role, _, tool = descriptor.partition("/")
            if role == "user":
                hit = ("human", "browser")
            elif role == "assistant":
                hit = ("agent", "llm")
            elif role == "tool":
                hit = ("system", tool or "unknown")
            else:
                hit = ("unknown", "unknown")
            self._memo[descriptor] = hit
        return hit

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        role_codes, role_uniq = ctx.dict_codes("role")
        tool_codes, tool_uniq = ctx.dict_codes("tool")
        k = len(tool_uniq) + 1
        pair = role_codes * k + np.where(tool_codes < 0, k - 1, tool_codes)
        uniq, inverse = np.unique(pair, return_inverse=True)
        fams = np.empty(len(uniq), dtype=object)
        types = np.empty(len(uniq), dtype=object)
        for i, p in enumerate(uniq):
            rc, tc = divmod(int(p), k)
            tool = tool_uniq[tc] if tc < k - 1 else ""
            fam, typ = self._parse(f"{role_uniq[rc]}/{tool}")
            fams[i] = fam
            types[i] = typ
        return table.append_column(
            "client_family", pa.array(fams[inverse], pa.string())
        ).append_column("client_type", pa.array(types[inverse], pa.string()))


class UserAgentEnricher(Enricher):
    """Full UserAgentSpanEnricher analog
    (UserAgentSpanEnricher.java:40-68): when the corpus carries a
    ``user_agent`` column, parse it with the grammar parser in
    :mod:`..functions.useragent` and emit the reference's six enriched
    fields (name/type/device/os name/os version/browser version).  The
    parser instance lives for the enricher's (= worker's) lifetime — the
    LoadingCache analog; parsing itself is unique-level per batch.

    No ``user_agent`` column → no-op, mirroring the reference's
    empty-Optional early return (UserAgentParser.java:58-68).
    """

    name = "user_agent"

    def __init__(self, ua_col: str = "user_agent"):
        from ..functions.useragent import UserAgentParser

        self.ua_col = ua_col
        self._parser = UserAgentParser()

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        if self.ua_col not in table.schema.names:
            return table
        parsed = self._parser.parse_column(table[self.ua_col])
        for f in parsed.schema.names:
            table = table.append_column(f, parsed[f])
        return table


@dataclass(frozen=True)
class SpaceRule:
    """One tenant space rule: rows matching the condition set get the space id
    (SpaceEnricher analog, enrichers/space/SpaceEnricher.java:40-70)."""

    space_id: str
    conditions: Sequence[DropCondition]


class SpaceEnricher(Enricher):
    """Evaluate space rules per turn → ``space_ids`` list column; conv-level
    union mirrors the trace-attr union (SpaceEnricher.java:50-56)."""

    name = "spaces"

    def __init__(self, rules: Sequence[SpaceRule] = ()):
        self.rules = list(rules)

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        n = ctx.n
        n_rules = max(len(self.rules), 1)
        # one vectorized mask per rule → flat (row, rule) hit pairs; no
        # Python loop over rows (VERDICT r2 #7)
        hit_rows: List[np.ndarray] = []
        hit_rids: List[np.ndarray] = []
        for ri, rule in enumerate(self.rules):
            mask = rules_mask(table, [rule.conditions])
            if mask is None:
                continue
            rows_r = np.flatnonzero(
                mask.combine_chunks().to_numpy(zero_copy_only=False)
            )
            hit_rows.append(rows_r)
            hit_rids.append(np.full(len(rows_r), ri, dtype=np.int64))
        if hit_rows:
            rows = np.concatenate(hit_rows)
            rids = np.concatenate(hit_rids)
            order = np.lexsort((rids, rows))  # per-row lists in rule order
            rows, rids = rows[order], rids[order]
        else:
            rows = np.empty(0, dtype=np.int64)
            rids = np.empty(0, dtype=np.int64)
        sid_by_rule = np.array(
            [r.space_id for r in self.rules] or [""], dtype=object
        )
        row_off = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=n)))
        ).astype(np.int32)
        space_ids = pa.ListArray.from_arrays(
            pa.array(row_off), pa.array(sid_by_rule[rids], pa.string())
        )
        # conv-level union: unique (conv, rule) pairs, sorted by space_id
        # within each conversation (same determinism as sorted(set(...)))
        seg = np.repeat(np.arange(ctx.n_convs, dtype=np.int64), np.diff(ctx.bounds))
        upairs = np.unique(seg[rows] * np.int64(n_rules) + rids)
        useg, urid = np.divmod(upairs, np.int64(n_rules))
        usids = sid_by_rule[urid].astype(str)
        uorder = np.lexsort((usids, useg))
        useg, usids = useg[uorder], usids[uorder]
        conv_off = np.concatenate(
            ([0], np.cumsum(np.bincount(useg, minlength=ctx.n_convs)))
        ).astype(np.int32)
        conv_lists = pa.ListArray.from_arrays(
            pa.array(conv_off), pa.array(usids, pa.string())
        )
        conv_ids = conv_lists.take(pa.array(seg))  # broadcast to rows
        return table.append_column("space_ids", space_ids).append_column(
            "conv_space_ids", conv_ids
        )


# ---------------------------------------------------------------------------
# G4 / J2 — peer-service correlation: the cross-conversation KV join
# ---------------------------------------------------------------------------


_PEER_PAIRS = pa.schema([("tool", pa.string()), ("service", pa.string())])

#: The columns :func:`peer_pairs` reads.
PEER_COLUMNS = ("conv_id", "turn_idx", "tool", "role")


def peer_pairs(table: pa.Table) -> pa.Table:
    """Pass 1 over one table of normalized turns: its distinct tools, each
    with the smallest service that called it (at most one row per tool).

    The CALLER of a tool turn is the preceding turn's service in the same
    conversation (the client span publishing its identity) — not the tool
    row itself (which would make the index an identity map, ADVICE r1).
    Lag-1 within the table after a sort; a caller that sits in another
    table is not observed (see :func:`build_peer_index`)."""
    if table.num_rows == 0:
        return _PEER_PAIRS.empty_table()
    t = table.select(list(PEER_COLUMNS)).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    conv = t["conv_id"].to_numpy(zero_copy_only=False)
    # same derivation ServiceNamer uses (coalesce(tool, role)); computed
    # here because the light-normalized pre-shuffle rows are narrow
    svc = pa.compute.coalesce(t["tool"], t["role"]).to_numpy(zero_copy_only=False)
    is_tool = pa.compute.is_valid(t["tool"]).to_numpy(zero_copy_only=False)
    same_conv = np.concatenate([[False], conv[1:] == conv[:-1]])
    keep = is_tool & same_conv
    prev_svc = np.concatenate([[None], svc[:-1]])
    out = pa.table(
        {
            "tool": t["tool"].filter(pa.array(keep)),
            "service": pa.array(prev_svc[keep], pa.string()),
        }
    )
    return (
        out.group_by(["tool"])
        .aggregate([("service", "min")])
        .rename_columns(["tool", "service"])
        .cast(_PEER_PAIRS)
    )


def merge_peer_partials(
    partials: Sequence[pa.Table], max_entries: int = 1_000_000
) -> Dict[str, str]:
    """The peer index from :func:`peer_pairs` partials: per tool, the
    smallest caller over all of them; with more than ``max_entries`` tools,
    the smallest tool names are kept."""
    index = (
        pa.concat_tables([_PEER_PAIRS.empty_table(), *partials])
        .group_by("tool")
        .aggregate([("service", "min")])
        .sort_by("tool")
        .slice(0, max_entries)
    )
    return dict(zip(index["tool"].to_pylist(), index["service_min"].to_pylist()))


def build_peer_index(normalized_ds, *, max_entries: int = 1_000_000) -> Dict[str, str]:
    """Pass 1: build the small (tool → first caller service) map — the analog
    of client spans publishing ``ip-identity → service_name`` to the shared
    store (RawSpansProcessor.java:249-345).  Each block reduces to its
    distinct tools with their smallest caller (:func:`peer_pairs`); those
    partials merge on the driver (:func:`merge_peer_partials`).
    ``run_pipeline`` runs the same two steps in plain tasks over Parquet
    file groups; this wrapper serves Dataset inputs.

    Exactness: a pair is seen only when a tool turn and its preceding turn
    sit in the same block.  A bucketed corpus's index is built over whole
    buckets, and every conversation sits whole in one bucket, so it is
    exact.  A path
    input's file groups (and a Dataset's blocks) can split a conversation
    that spans files, and then the pairs across the split are not seen."""
    rows = normalized_ds.map_batches(peer_pairs, batch_format="pyarrow").take_all()
    return merge_peer_partials(
        [pa.Table.from_pylist(rows, schema=_PEER_PAIRS)], max_entries
    )


class PeerServiceEnricher(Enricher):
    """Pass 2: turns gain ``peer_service_name`` from the broadcast peer index
    (server spans looking up the client-published identity,
    RawSpansProcessor.java:274-333).  The index is fetched from the object
    store once per worker (zero-copy broadcast join, SURVEY §2.9 J2)."""

    name = "peer_service"

    def __init__(self, index_ref=None, index: Optional[Dict[str, str]] = None):
        if index is None and index_ref is not None:
            index = ray.get(index_ref)
        self.index = index or {}

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        tool_codes, tool_uniq = ctx.dict_codes("tool")
        mapped = np.array(
            [self.index.get(t) for t in tool_uniq] + [None], dtype=object
        )
        peer = mapped[tool_codes]  # code -1 → the trailing None
        return table.append_column("peer_service_name", pa.array(peer, pa.string()))
