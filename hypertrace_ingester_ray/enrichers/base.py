"""Enricher plugin API + dependency-ordered registry.

Mirrors the reference's enrichment framework:

- ``Enricher`` interface with lifecycle hooks, reflectively registered with
  declared dependencies (/root/reference/hypertrace-trace-enricher/
  hypertrace-trace-enricher-impl/src/main/java/org/hypertrace/traceenricher/
  enrichment/EnrichmentRegistry.java:26-106).
- Topological ordering of the enricher DAG
  (EnrichmentRegistry.java:124-159) — same Kahn-style algorithm here.
- ``EnrichmentProcessor.process`` applies enrichers in topo order over a whole
  trace (EnrichmentProcessor.java:73-154); here each enricher is applied in
  topo order over a whole *partition* of conversations, vectorized.
- The processor is built once per worker and shared
  (StructuredTraceEnrichProcessor.java:38-61) — in Ray: cached per worker
  process by the partition stage's stateless tasks.

``ConversationContext`` is the per-partition analog of
``StructuredTraceGraphBuilder`` (+ memoization,
hypertrace-trace-enricher-api/.../StructuredTraceGraphBuilder.java:18-40):
segment boundaries, role runs and episode structure are computed once and
shared by every enricher in the chain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa

from ..stages.grouping import (
    run_boundaries,
    segment_ids_from_boundaries,
    segmented_broadcast_first,
)


class ConversationContext:
    """Per-partition group structure, computed once (GR1/GR2 analog).

    The table MUST be sorted by (conv_id, turn_idx) — the one ordering
    contract of the engine.
    """

    def __init__(self, table: pa.Table):
        self.table = table
        n = table.num_rows
        self.n = n
        conv = table["conv_id"].combine_chunks().dictionary_encode()
        self.conv_codes = (
            conv.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            if n
            else np.zeros(0, dtype=np.int64)
        )
        # conversation segments
        self.bounds = run_boundaries(self.conv_codes)
        self.seg = segment_ids_from_boundaries(self.bounds)
        self.n_convs = len(self.bounds) - 1

        self._roles: Optional[np.ndarray] = None
        self._episode_ids: Optional[np.ndarray] = None
        self._episode_heads: Optional[np.ndarray] = None
        self._col_cache: dict = {}

    def col(self, name: str) -> np.ndarray:
        """Materialize a column as numpy once per partition (memoized)."""
        out = self._col_cache.get(name)
        if out is None:
            arr = self.table[name].combine_chunks()
            if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
                out = np.asarray(arr.to_pandas(), dtype=object)
            else:
                out = arr.to_numpy(zero_copy_only=False)
            self._col_cache[name] = out
        return out

    def dict_codes(self, name: str):
        """(codes:int64, uniques:list) dictionary encoding of a string column,
        memoized; the basis for per-unique-value enrichment."""
        key = ("__codes", name)
        out = self._col_cache.get(key)
        if out is None:
            enc = self.table[name].combine_chunks().dictionary_encode()
            codes = enc.indices.to_numpy(zero_copy_only=False)
            # null rows get code -1
            codes = np.where(np.isnan(codes), -1, codes).astype(np.int64) if codes.dtype.kind == "f" else codes.astype(np.int64)
            uniques = enc.dictionary.to_pylist()
            out = (codes, uniques)
            self._col_cache[key] = out
        return out

    @property
    def roles(self) -> np.ndarray:
        if self._roles is None:
            self._roles = self.col("role")
        return self._roles

    @property
    def conv_first_row(self) -> np.ndarray:
        """Boolean: row is the first turn of its conversation."""
        m = np.zeros(self.n, dtype=bool)
        m[self.bounds[:-1]] = True
        return m

    def broadcast_first(self, per_row_values: np.ndarray) -> np.ndarray:
        """Each conversation's first value broadcast to all its rows."""
        return segmented_broadcast_first(per_row_values, self.bounds)

    def role_run_start(self) -> np.ndarray:
        """Boolean: first turn of a consecutive same-role run within a conv
        (ApiBoundaryTypeAttributeEnricher analog)."""
        roles = self.roles
        start = np.ones(self.n, dtype=bool)
        if self.n > 1:
            start[1:] = (roles[1:] != roles[:-1]) | (
                self.conv_codes[1:] != self.conv_codes[:-1]
            )
        return start

    def episodes(self):
        """Episode segmentation — the ApiTraceGraph analog (ApiTraceGraph.java:139-273).

        An episode = a user role-run head plus everything until the next user
        role-run head (entry span + internal + exit spans of an ApiNode).
        Turns before the first user turn belong to episode 0.
        Returns (episode_ids int32 per row, episode_head bool per row).
        """
        if self._episode_ids is None:
            start = self.role_run_start() & (self.roles == "user")
            cum = np.cumsum(start.astype(np.int64))
            # starts seen within the conversation up to and including this row
            per_conv = cum - self.broadcast_first(cum - start.astype(np.int64))
            # rows before the first user head get per_conv==0 → episode 0
            # (merged with the first real episode, mirroring orphan-root
            # handling at ApiTraceGraph.java:275-366).
            episode = np.maximum(per_conv - 1, 0)
            self._episode_ids = episode.astype(np.int32)
            head = np.zeros(self.n, dtype=bool)
            if self.n:
                head[1:] = (self._episode_ids[1:] != self._episode_ids[:-1]) | (
                    self.conv_codes[1:] != self.conv_codes[:-1]
                )
                head[0] = True
            self._episode_heads = head
        return self._episode_ids, self._episode_heads

    def episode_bounds(self) -> np.ndarray:
        ep, _ = self.episodes()
        return run_boundaries(self.conv_codes, ep.astype(np.int64))


class Enricher:
    """Base enricher: appends columns to the partition table.

    Analog of the 4-hook Enricher interface; vectorized over all
    conversations in the partition at once.
    """

    name: str = "base"
    depends_on: Sequence[str] = ()

    def enrich(self, table: pa.Table, ctx: ConversationContext) -> pa.Table:
        raise NotImplementedError


class EnrichmentRegistry:
    """Topo-sorted enricher chain (EnrichmentRegistry.java:124-159)."""

    def __init__(self, enrichers: Sequence[Enricher]):
        self._by_name: Dict[str, Enricher] = {e.name: e for e in enrichers}
        if len(self._by_name) != len(enrichers):
            raise ValueError("duplicate enricher names")
        self.ordered = self._topo_sort()

    def _topo_sort(self) -> List[Enricher]:
        in_deg = {n: 0 for n in self._by_name}
        dependents: Dict[str, List[str]] = {n: [] for n in self._by_name}
        for name, e in self._by_name.items():
            for dep in e.depends_on:
                if dep not in self._by_name:
                    raise ValueError(f"enricher {name} depends on unknown {dep}")
                in_deg[name] += 1
                dependents[dep].append(name)
        # deterministic Kahn: ready queue kept sorted by registration order
        order = list(self._by_name)
        ready = [n for n in order if in_deg[n] == 0]
        out: List[Enricher] = []
        while ready:
            n = ready.pop(0)
            out.append(self._by_name[n])
            for m in dependents[n]:
                in_deg[m] -= 1
                if in_deg[m] == 0:
                    ready.append(m)
            ready.sort(key=order.index)
        if len(out) != len(self._by_name):
            raise ValueError("cycle in enricher dependencies")
        return out

    def apply(self, ctx: ConversationContext) -> pa.Table:
        """EnrichmentProcessor.process analog: enrichers in dependency order
        over ``ctx.table``, all sharing the caller's context (built once per
        batch; the view builders reuse it).  Returns the enriched table,
        which is also left in ``ctx.table``."""
        table = ctx.table
        for e in self.ordered:
            table = e.enrich(table, ctx)
            ctx.table = table
        return table
