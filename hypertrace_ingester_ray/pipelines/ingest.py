"""The flagship end-to-end pipeline: parse → group → enrich → route → aggregate.

Topology analog of HypertraceIngester's merged job chain
(/root/reference/hypertrace-ingester/src/main/java/org/hypertrace/ingester/
HypertraceIngester.java:52-77), where consecutive jobs share in-memory streams
instead of Kafka round-trips (SpanNormalizer.java:55-61).  Here the whole
chain runs as ONE direct hash exchange (one all-to-all shuffle):

  exchange map task, one per input group (~2 groups/CPU, each at most
  one Ray Data block's bytes of row groups):
    read Parquet files (a path input) or take one Ray Data block
    → prep_main_batch: poison drop (counted), normalize_light, keep-main
                                                   # span-normalizer (narrow rows)
    → hash conv_id, slice, IPC buffers for uncommitted partitions only
  → group_apply_batches reduce tasks (partition stage) # grouper + enricher + view-gen
         ├─ grok extraction (post-shuffle)
         ├─ assemble (order/dedup/cap/sessionize)
         ├─ enricher DAG (topo order, vectorized)
         └─ 6 view sinks + metrics-partial combiner, one file each per
            reduce batch, written atomically (+ one manifest per partition)
    → stats rows (1/partition)                     # lineage
  finalize_metrics: tiny combine over the partials # metrics-generator

Reduce batches: the hash partition is the unit of commit and resume, but
not of work or output.  After the exchange's counts barrier, consecutive
small partitions are grouped into batches of about
``stages.grouping.REDUCE_BATCH_ROWS`` rows (never fewer batches than cluster
CPUs) and each batch runs as ONE reduce task (``PartitionProcessor.
process_batch``).  Committed partitions never reach it: the driver passes
them to the map tasks, which ship no slice for them.  Inside it, grok
extraction (row-wise), the enricher DAG, the conversation context, the
six view builders (conversation-local) and the metrics partial run once
over the whole batch, so their fixed per-call cost is paid once; the
row-dropping stages (tenant drop, rate limit, root-exit drop) and assembly
run per partition, so every manifest counter stays exact.  Partitions at
or above the target run one per task.  Bucketed replay
(``prepare_bucketed_corpus``) starts at the drops, assembly and enricher
DAG: its stored buckets are the partitions, counted from their Parquet
footers, and ride the same reduce batches
(``stages.grouping.bucketed_reduce``); they hold grok-parsed rows already
sorted by (conv_id, turn_idx, ts), so the reduce task neither sorts nor
parses them again (extraction only adds the constant tenant column).

The metrics aggregation mirrors the reference's metrics pipeline consuming
the RawServiceView topic (hypertrace-metrics-generator/.../
MetricsProcessor.java:75-124), expressed as a per-batch combiner plus a
final combine bounded by dims × reduce batches rows.

Sinks: every sink is a Parquet dir with ONE file per (reduce batch, sink),
named by the batch's first written partition
(``part-<first pid>.parquet``, one row group; a one-partition batch writes
the same bytes as processing that partition alone), as the reference's
view generators write each routed view as one stream.  Each partition's
JSON manifest is its commit record: its counters and per-view row counts,
the file it lives in with that file's partition list, and the file's CRC.
A partition counts as committed only if every partition of its file
committed too.  Before the exchange the driver sweeps the out dir
(``lineage.sweep_uncommitted``): invalid manifests and every sink file no
valid manifest names are deleted, so a killed run resumes by skipping
committed partitions with no duplicate or missing routed rows, even when
the rerun's batch plan differs (state/lineage.py).  As a Kafka consumer
resumes from its committed offsets, a committed partition is never
shipped again: its stats row is built from its manifest on the driver.

The ``peer_correlation`` index needs no pass of its own over a path
input: each exchange map task returns the ``peer_pairs`` partial of its
prepped group next to its counts, and the driver merges the partials after
the counts barrier, before it submits the reduce tasks.  A bucketed replay
loads the exact index its corpus stored (``peer_index.parquet``).
``prepare_bucketed_corpus`` runs on the same exchange: file-group map
tasks prep, parse and hash, reduce batches write the sorted bucket files,
then plain tasks over the four pair columns of the stored buckets build
the index once (``_build_peer_index``).  Only the bypass side output and a
Dataset input's peer index still read the input through Ray Data
(``_read_normalized``).
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data import Dataset

from .. import schemas
from ..enrichers import build_default_registry
from ..enrichers.base import ConversationContext
from ..sources.parquet import ParquetFileGroup, parquet_file_groups
from ..stages.grouping import (
    DEFAULT_NUM_PARTITIONS,
    assemble_conversations,
    bucketed_reduce,
    group_apply_batches,
)
from ..stages.filters import RateLimitConfig
from ..stages.normalize import (
    NormalizeConfig,
    normalize,
    prep_main_batch,
    prep_parsed_batch,
    split_bypass,
)
from ..stages.views import VIEW_BUILDERS
from ..state import lineage

#: The sink dirs the partition stage writes: the six views and the metrics
#: combiner's partials.
SINKS = (*VIEW_BUILDERS, "metrics_partial")


@dataclass
class PipelineConfig:
    normalize: NormalizeConfig = field(default_factory=NormalizeConfig)
    max_turns_per_conv: int = 100_000
    session_gap_us: Optional[int] = None
    # MUST stay constant across resumes of the same out_dir (partition i of a
    # run always holds the same key-groups); guarded by _run_config.json
    num_partitions: int = DEFAULT_NUM_PARTITIONS
    # input read parallelism (a path input's file groups, one exchange map
    # task each): ~2 per CPU keeps per-task overhead low while the shuffle
    # stays balanced; None = derive from cluster CPUs
    read_num_blocks: Optional[int] = None
    service_registry: Optional[Dict[str, str]] = None
    metrics_window: str = "minute"
    # optional features (off by default, mirroring the reference's config
    # gating): see enrichers/extended.py and stages/filters.py
    enable_client_info: bool = False  # E11 client descriptor analog
    enable_user_agent: bool = False  # E11 full UA-grammar parse (6 fields)
    space_rules: tuple = ()  # E12 SpaceEnricher rules
    peer_correlation: bool = False  # G4/J2 two-pass broadcast KV join
    drop_root_exits: bool = False  # F3 parentless-client-span drop
    root_exit_exclusions: tuple = ()
    latency_sample_pct: Optional[int] = None  # G5 TraceLatencyMeter analog
    # F5 production rate limiting (SpanDropManager composes
    # RateLimitingSpanFilter.java:34-57): deterministic per-(conversation,
    # ts-window) row cap applied post-shuffle in stable turn order; dropped
    # rows counted as rows_rate_limited in the manifest.  None = off
    # (mirrors the reference default).
    rate_limit: Optional["RateLimitConfig"] = None
    # Not a field (no annotation, so not in __init__ or repr): the partition
    # stage has one execution path.  Kept only because perfbench/traced.py
    # reads ``cfg.concurrency``; delete it together with that read.
    concurrency = None


def process_partition(table: pa.Table, *, registry, **options):
    """Pure core: normalized partition (sorted by conv_id, turn_idx, ts) →
    (views dict, stats dict), with no sink writes.  The one-partition case
    of :func:`process_partitions` (which documents ``options`` and is what
    ``PartitionProcessor`` runs before writing sinks); tests call it to
    check views in-process.

    The views dict includes ``metrics_partial`` — the combiner of the
    windowed metric aggregation (A1).  The final combine over these
    partials is tiny (≤ dims × reduce batches rows), so the metrics stage
    never re-reads or re-shuffles the full per-turn data.
    """
    views, stats = process_partitions([table], registry=registry, **options)
    return views, stats[0]


def _drop_and_assemble(
    table: pa.Table,
    *,
    max_turns_per_conv,
    session_gap_us,
    drop_root_exits,
    root_exit_exclusions,
    latency_sample_pct,
    tenant_column,
    rate_limit,
):
    """The row-dropping head of the partition stage over ONE partition:
    tenant drop, rate limit, root-exit drop, latency sample, assemble.
    Returns (assembled table, stats dict without view_counts)."""
    rows_in = table.num_rows
    n_no_tenant = 0
    if tenant_column is not None and table.num_rows:
        # M2 column-derived tenant drop-if-absent (TenantIdHandler.java:
        # 33-81 drops records whose configured tenant tag is missing);
        # counted into the manifest as rows_no_tenant.  num_rows guard:
        # pc.all/pc.sum return null over an empty array
        valid = pc.is_valid(table["tenant_id"])
        if not pc.all(valid).as_py():
            n_no_tenant = table.num_rows - int(
                pc.sum(pc.cast(valid, pa.int64())).as_py()
            )
            table = table.filter(valid)
    n_rate_limited = 0
    if rate_limit is not None:
        from ..stages.filters import rate_limit_part

        # pre-grouping position mirrors SpanDropManager (rate-limited spans
        # never reach the grouper); the partition arrives in stable
        # (conv_id, turn_idx, ts) order so admission is deterministic
        table, n_rate_limited = rate_limit_part(
            table,
            max_rows_per_window=rate_limit.max_rows_per_window,
            window_us=int(rate_limit.window_sec * 1_000_000),
        )
    if drop_root_exits:
        from ..stages.filters import root_exit_drop

        table = root_exit_drop(table, root_exit_exclusions)
    if latency_sample_pct is not None:
        from ..stages.filters import add_latency_sample

        table = add_latency_sample(table, latency_sample_pct)
    assembled, n_dedup, n_capped = assemble_conversations(
        table,
        max_turns_per_conv=max_turns_per_conv,
        session_gap_us=session_gap_us,
    )
    return assembled, {
        "rows_in": rows_in,
        "rows_deduped": n_dedup,
        "rows_capped": n_capped,
        "rows_no_tenant": n_no_tenant,
        "rows_rate_limited": n_rate_limited,
    }


def process_partitions(
    tables,
    *,
    registry,
    max_turns_per_conv: int = 100_000,
    session_gap_us: Optional[int] = None,
    metrics_window: str = "minute",
    drop_root_exits: bool = False,
    root_exit_exclusions=(),
    latency_sample_pct: Optional[int] = None,
    tenant_id: Optional[str] = None,
    tenant_column: Optional[str] = None,
    rate_limit: Optional["RateLimitConfig"] = None,
):
    """Batch core: several normalized partitions (each sorted by conv_id,
    turn_idx, ts) → ``(views dict, [stats dict per partition])``.  The
    views cover the whole batch; each partition's stats (counters and
    ``view_counts``) equal what :func:`process_partition` gives for that
    partition alone.

    What is fused and what is not:

    - grok extraction is row-wise, so it runs ONCE over the concatenated
      batch and is sliced back by partition;
    - the row-dropping stages (tenant drop, rate limit, root-exit drop) and
      ``assemble_conversations`` run PER PARTITION, so every manifest
      counter (rows_no_tenant, rows_rate_limited, rows_deduped, rows_capped)
      stays exact for its partition;
    - the enricher DAG, the conversation context and the six view builders
      are conversation-local, so they run ONCE over the batch (fixed
      per-call cost paid once, TraceEmitPunctuator-style amortization);
      each partition's view row counts come from a ``bincount`` over the
      partition of each row's ``conv_id``;
    - the metrics partial runs once over the batch's ``per_turn``: the
      final combine sums partials, so how they are cut does not matter.
    """
    from ..stages.metrics import partial_counts
    from ..stages.normalize import DEFAULT_TENANT, extract_batch

    sizes = [t.num_rows for t in tables]
    batch = (
        tables[0]
        if len(tables) == 1
        else pa.concat_tables(tables, promote_options="default")
    )
    # no-op if extraction ran pre-shuffle; reconstructs the constant
    # tenant column the light path elided from the exchange
    batch = extract_batch(batch, tenant_id=tenant_id or DEFAULT_TENANT)
    offsets = np.cumsum([0] + sizes)
    assembled, stats = [], []
    for lo, n in zip(offsets[:-1], sizes):
        a, st = _drop_and_assemble(
            batch.slice(lo, n),
            max_turns_per_conv=max_turns_per_conv,
            session_gap_us=session_gap_us,
            drop_root_exits=drop_root_exits,
            root_exit_exclusions=root_exit_exclusions,
            latency_sample_pct=latency_sample_pct,
            tenant_column=tenant_column,
            rate_limit=rate_limit,
        )
        assembled.append(a)
        stats.append(st)
    whole = (
        assembled[0]
        if len(assembled) == 1
        else pa.concat_tables(assembled, promote_options="default")
    )
    # one context per batch, shared by the enricher DAG and the six views
    # (enrichers only append columns, so its memoized columns stay valid)
    ctx = ConversationContext(whole)
    enriched = registry.apply(ctx)
    views = {name: builder(enriched, ctx) for name, builder in VIEW_BUILDERS.items()}
    if len(tables) == 1:
        counts = {name: [t.num_rows] for name, t in views.items()}
    else:
        # hash partitioning makes conversation ids unique across the batch
        conv_ids = [pc.unique(a["conv_id"]) for a in assembled]
        part_of_conv = np.repeat(
            np.arange(len(assembled)), [len(c) for c in conv_ids]
        )
        conv_ids = pa.concat_arrays(conv_ids)
        counts = {
            name: np.bincount(
                part_of_conv[
                    pc.index_in(t["conv_id"], value_set=conv_ids).to_numpy(
                        zero_copy_only=False
                    )
                ],
                minlength=len(tables),
            ).tolist()
            for name, t in views.items()
        }
    for i, st in enumerate(stats):
        st["view_counts"] = {name: c[i] for name, c in counts.items()}
    views["metrics_partial"] = partial_counts(views["per_turn"], metrics_window)
    return views, stats


# Per-worker-process processor cache (the process-wide singleton
# EnrichmentProcessor analog, StructuredTraceEnrichProcessor.java:38-61).
# Ray worker processes are reused across tasks, so the build cost is paid
# once per worker, exactly like an actor __init__ — without reserving CPUs.
# Keyed by config and peer index (not the out dir, which each call names),
# and holding only the latest key: with ``peer_correlation`` every entry
# carries its own copy of an index of up to a million entries.
_WORKER_PROCESSORS: Dict[str, "PartitionProcessor"] = {}


def _build_extras(config: "PipelineConfig", peer_index: Optional[Dict[str, str]]):
    extras = []
    if config.enable_client_info:
        from ..enrichers.extended import ClientInfoEnricher

        extras.append(ClientInfoEnricher())
    if config.enable_user_agent:
        from ..enrichers.extended import UserAgentEnricher

        extras.append(UserAgentEnricher())
    if config.space_rules:
        from ..enrichers.extended import SpaceEnricher

        extras.append(SpaceEnricher(config.space_rules))
    if peer_index is not None:
        from ..enrichers.extended import PeerServiceEnricher

        extras.append(PeerServiceEnricher(index=peer_index))
    return extras


STATS_SCHEMA = pa.schema(
    [
        pa.field("part_id", pa.int32()),
        pa.field("rows_in", pa.int64()),
        pa.field("rows_deduped", pa.int64()),
        pa.field("rows_capped", pa.int64()),
        pa.field("rows_no_tenant", pa.int64()),
        pa.field("rows_rate_limited", pa.int64()),
        pa.field("resumed", pa.bool_()),
    ]
    + [pa.field(f"rows_{v}", pa.int64()) for v in VIEW_BUILDERS]
)


def _stats_row(part_id, stats, resumed) -> list:
    """One partition's stats row, in ``STATS_SCHEMA`` column order
    (``resumed`` as 0/1), from ``process_partitions``' stats or a
    committed manifest (``resumed``)."""
    return [
        part_id,
        stats["rows_in"],
        stats["rows_deduped"],
        stats["rows_capped"],
        # .get: manifests committed before these counters existed
        stats.get("rows_no_tenant", 0),
        stats.get("rows_rate_limited", 0),
        int(resumed),
    ] + [stats["view_counts"].get(v, 0) for v in VIEW_BUILDERS]


def _stats_array(rows) -> np.ndarray:
    """Stats rows as one ``(partitions, columns)`` int64 array: a reduce
    task returns one, which Ray ships as a single buffer (a ``pa.Table``
    goes through Ray's Arrow reducer column by column on the driver)."""
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(STATS_SCHEMA))


def stats_table(rows: np.ndarray) -> pa.Table:
    """:func:`_stats_array` rows as a ``STATS_SCHEMA`` table."""
    return pa.table(
        [
            pa.array(np.ascontiguousarray(rows[:, i])).cast(f.type)
            for i, f in enumerate(STATS_SCHEMA)
        ],
        schema=STATS_SCHEMA,
    )


class PartitionProcessor:
    """Partition stage: grouper + enricher + view fan-out + sinks.

    Built lazily once per worker process by the stateless tasks
    (:func:`_cached_processor`), so the enricher DAG and lookup registries
    are built once per worker — the analog of the process-wide singleton
    EnrichmentProcessor (StructuredTraceEnrichProcessor.java:38-61).
    """

    def __init__(
        self,
        out_dir: Optional[str],
        config: Optional["PipelineConfig"] = None,
        peer_index: Optional[Dict[str, str]] = None,
    ):
        config = config or PipelineConfig()
        self.out_dir = out_dir
        self.config = config
        self.registry = build_default_registry(
            config.service_registry, _build_extras(config, peer_index)
        )

    def __call__(self, part: pa.Table, part_id: int) -> pa.Table:
        """One partition on its own: resumed from its manifest if it is
        committed, else processed and committed."""
        existing = lineage.load_manifest(self.out_dir, part_id)
        if existing is not None:
            return stats_table(
                _stats_array([_stats_row(part_id, existing, resumed=True)])
            )
        return stats_table(self.process_batch([(part_id, part)]))

    def process_batch(self, parts, out_dir: Optional[str] = None) -> np.ndarray:
        """Partition stage over ``[(part_id, table), ...]`` (ascending
        part ids, none of them committed: the driver keeps committed
        partitions out of the exchange) in one call: they go through
        :func:`process_partitions` together and are written as ONE file
        per sink under ``out_dir`` (default: the processor's), named by the
        first of them; then each is committed in turn — the partition stays
        the unit of commit and resume.  Returns one stats row per
        partition (:func:`_stats_array`; :func:`stats_table` names its
        columns)."""
        cfg = self.config
        out_dir = out_dir or self.out_dir
        views, stats = process_partitions(
            [part for _, part in parts],
            registry=self.registry,
            max_turns_per_conv=cfg.max_turns_per_conv,
            session_gap_us=cfg.session_gap_us,
            metrics_window=cfg.metrics_window,
            drop_root_exits=cfg.drop_root_exits,
            root_exit_exclusions=cfg.root_exit_exclusions,
            latency_sample_pct=cfg.latency_sample_pct,
            tenant_id=cfg.normalize.tenant_id,
            tenant_column=cfg.normalize.tenant_column,
            rate_limit=cfg.rate_limit,
        )
        file_parts = [part_id for part_id, _ in parts]
        checksums = {
            name: lineage.write_view_part(out_dir, name, file_parts[0], tbl)[1]
            for name, tbl in views.items()
        }
        rows = []
        for part_id, st in zip(file_parts, stats):
            lineage.commit_manifest(
                out_dir,
                part_id,
                rows_in=st["rows_in"],
                rows_deduped=st["rows_deduped"],
                rows_capped=st["rows_capped"],
                view_counts=st["view_counts"],
                view_checksums=checksums,
                file_parts=file_parts,
                extra={
                    "rows_no_tenant": st["rows_no_tenant"],
                    "rows_rate_limited": st["rows_rate_limited"],
                },
            )
            rows.append(_stats_row(part_id, st, resumed=False))
        return _stats_array(rows)


def _cached_processor(config, peer_index, cache_key):
    """The processor (registry + extras) built once per worker process and
    kept until a call brings another ``cache_key``."""
    proc = _WORKER_PROCESSORS.get(cache_key)
    if proc is None:
        _WORKER_PROCESSORS.clear()
        proc = PartitionProcessor(None, config, peer_index)
        _WORKER_PROCESSORS[cache_key] = proc
    return proc


def _partition_batch_task(
    parts,
    *,
    out_dir: str,
    config: "PipelineConfig",
    peer_index: Optional[Dict[str, str]],
    cache_key: str,
):
    """Stateless-task form of the partition stage for one reduce batch of
    the direct exchange or of bucketed replay."""
    return _cached_processor(config, peer_index, cache_key).process_batch(
        parts, out_dir
    )


DISTRIBUTED_METRICS_THRESHOLD = 64 * 1024 * 1024


def finalize_metrics(out_dir: str) -> None:
    """Final combine over the per-batch metric partials.  Partial volume
    is bounded by dims × reduce batches; below the threshold a single-process
    Arrow group-by beats spinning up another distributed pipeline, above it
    (dims exploded: very fine windows × high cardinality) the combine runs
    as a :func:`~..stages.grouping.combine_by_key` over the direct exchange."""
    import glob

    import pyarrow.parquet as pq

    from ..stages.grouping import combine_by_key
    from ..stages.metrics import METRIC_DIMS, finalize_partials

    metrics_dir = os.path.join(out_dir, "metrics")
    partial_dir = os.path.join(out_dir, "metrics_partial")
    if os.path.exists(metrics_dir) or not os.path.exists(partial_dir):
        return
    # the footers' uncompressed row-group bytes, not file sizes: the sink's
    # codecs must not move the switch between the two combines
    partial_bytes = sum(
        md.row_group(i).total_byte_size
        for f in glob.glob(os.path.join(partial_dir, "*.parquet"))
        for md in [pq.read_metadata(f)]
        for i in range(md.num_row_groups)
    )
    tmp = metrics_dir + "_tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    if partial_bytes <= DISTRIBUTED_METRICS_THRESHOLD:
        final = finalize_partials(pq.read_table(partial_dir))
        os.makedirs(tmp, exist_ok=True)
        lineage.write_parquet(final, os.path.join(tmp, "part-00000.parquet"))
    else:
        # the dataset writer takes the plan's options except store_schema,
        # which it always applies
        plan = lineage.parquet_plan(schemas.METRICS)
        del plan["store_schema"]
        combine_by_key(
            ray.data.read_parquet(partial_dir), METRIC_DIMS, [("num_calls", "sum")]
        ).write_parquet(tmp, **plan)
    os.rename(tmp, metrics_dir)


def _write_schema_manifest(out_dir: str) -> None:
    """Sink bootstrap (the run-once Pinot view-creator DDL analog,
    hypertrace-view-generator/hypertrace-view-creator/.../all-views/
    application.conf:5-8): one ``_schema.json`` describing every sink."""
    import json

    path = os.path.join(out_dir, "_schema.json")
    if os.path.exists(path):
        return
    manifest = {
        name: {f.name: str(f.type) for f in schema}
        for name, schema in schemas.VIEW_SCHEMAS.items()
    }
    manifest["metrics"] = {f.name: str(f.type) for f in schemas.METRICS}
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.rename(tmp, path)


def _backfill_empty_sinks(out_dir: str) -> None:
    """Write a schema-bearing empty part for any sink dir that no partition
    created (possible only when zero rows routed to that sink everywhere).
    Driver-side, O(#sinks), tiny files — never touches populated sinks."""
    sinks = dict(schemas.VIEW_SCHEMAS)
    sinks["metrics"] = schemas.METRICS
    for name, schema in sinks.items():
        d = os.path.join(out_dir, name)
        if os.path.exists(d):
            continue
        tmp = d + "_tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        lineage.write_parquet(
            schema.empty_table(), os.path.join(tmp, "part-empty.parquet")
        )
        os.rename(tmp, d)


def _read_num_blocks(config: "PipelineConfig") -> int:
    if config.read_num_blocks is not None:
        return config.read_num_blocks
    return max(8, int(ray.cluster_resources().get("CPU", 4)) * 2)


def _read_normalized(input_path_or_ds, config: "PipelineConfig"):
    """read → normalize → bypass split through Ray Data: the bypass output
    (of a direct run or a bucketed-corpus prepare) and a Dataset input's
    main stream for the peer index.  Every main stream that is exchanged
    or bucketed is read and prepped in the exchange's map tasks."""
    if isinstance(input_path_or_ds, Dataset):
        ds = input_path_or_ds
    else:
        from ..sources.parquet import read_parquet_clean

        ds = read_parquet_clean(
            input_path_or_ds, override_num_blocks=_read_num_blocks(config)
        )
    from ..stages.normalize import needs_extraction_for_rules, normalize_light

    if needs_extraction_for_rules(config.normalize):
        ds = normalize(ds, config.normalize)
    else:
        ds = normalize_light(ds, config.normalize)
    return split_bypass(ds, config.normalize)


def _peer_partial(group: ParquetFileGroup):
    """The peer index's pass 1 over one group of stored buckets
    (:func:`~..enrichers.extended.peer_pairs`): normalized rows, only the
    pair columns are read."""
    from ..enrichers.extended import PEER_COLUMNS, peer_pairs

    return peer_pairs(group.read(list(PEER_COLUMNS)))


#: made once per process, so Ray exports it once (see ``grouping._map_task``)
_peer_task = ray.remote(_peer_partial)


def _build_peer_index(groups) -> Dict[str, str]:
    """A bucketed corpus's peer index in one plain task per file group of
    its stored buckets, merged on the driver — no Ray Data stage.  Exact:
    a conversation never spans buckets."""
    from ..enrichers.extended import merge_peer_partials

    return merge_peer_partials(ray.get([_peer_task.remote(g) for g in groups]))


#: The stored peer index of a bucketed corpus, next to ``main/``.
PEER_INDEX_FILE = "peer_index.parquet"

#: What a bucketed corpus stores, named in its identity record so a prepare
#: resumed into a dir of another layout is refused: grok-parsed rows, each
#: bucket sorted by ``PARTITION_ORDER``, and the exact peer index.
CORPUS_LAYOUT = "parsed-sorted-peer_index-v1"

#: The partition stage's row order, the order bucket files are stored in.
PARTITION_ORDER = ("conv_id", "turn_idx", "ts")


def _load_peer_index(bucket_dir: str, meta: dict) -> Dict[str, str]:
    """The peer index ``prepare_bucketed_corpus`` stored; ``meta`` is the
    corpus's identity record."""
    import pyarrow.parquet as pq

    if meta.get("layout") != CORPUS_LAYOUT:
        raise ValueError(
            f"bucketed_corpus {bucket_dir!r} has no stored peer index (it "
            "was prepared before the corpus kept one); re-prepare it with "
            "prepare_bucketed_corpus(..., overwrite=True)"
        )
    t = pq.read_table(os.path.join(bucket_dir, PEER_INDEX_FILE))
    return dict(zip(t["tool"].to_pylist(), t["service"].to_pylist()))


def _input_fingerprint(input_path_or_ds) -> dict:
    """Identity record for a prepare input: for a path input, a CRC over
    the sorted (name, size) list of its parquet files — enough to catch
    'same dir name, different data'.  A Dataset input has no stable
    identity (lineage isn't serializable), recorded as unverifiable."""
    import zlib

    if isinstance(input_path_or_ds, str):
        p = input_path_or_ds
        if os.path.isdir(p):
            # recursive: read_parquet reads nested/partitioned layouts, so
            # the identity record must cover them too (a top-level-only
            # listing fingerprints every nested dir as the empty string)
            files = sorted(
                os.path.relpath(os.path.join(root, f), p)
                for root, _dirs, names in os.walk(p)
                for f in names
                if f.endswith(".parquet")
            )
            sig = "\x00".join(
                f"{f}:{os.path.getsize(os.path.join(p, f))}" for f in files
            )
        else:
            files = [os.path.basename(p)]
            sig = f"{files[0]}:{os.path.getsize(p)}"
        return {
            "kind": "path",
            "path": os.path.abspath(p),
            "n_files": len(files),
            "crc": zlib.crc32(sig.encode()),
        }
    return {"kind": "none" if input_path_or_ds is None else "dataset"}


def prepare_bucketed_corpus(
    input_path_or_ds: Union[str, Dataset],
    bucket_dir: str,
    config: Optional[PipelineConfig] = None,
    *,
    overwrite: bool = False,
) -> dict:
    """Pre-pay the flagship's ONE shuffle and its parse: normalize, parse
    and route once and store the main stream as a conv_id-bucketed table
    (stages/sinks.write_bucketed).  Every later
    ``run_pipeline(..., bucketed_corpus=bucket_dir)`` replays the
    assemble → enrich → fan-out → aggregate stages with ZERO exchange, no
    grok extraction and no sort — the reference's replay/reprocessing
    scenario (Kafka consumers re-reading the raw-spans topic, whose spans
    the span-normalizer already parsed and keyed by trace,
    JaegerSpanToAvroRawSpanTransformer.java:58-65), where the expensive
    corpus is reprocessed many times with evolving enrichers.

    Re-preparing into a non-empty ``bucket_dir`` is only allowed when the
    input provably matches the one recorded in ``_bucket_meta.json``
    (resume-after-kill of the SAME prepare, in the same layout); anything
    else — different input files, an unverifiable Dataset input, a dir
    prepared in another layout, or a dir with no identity record —
    raises, because write_bucketed's resume manifests would silently keep
    stale buckets.  ``overwrite=True`` wipes the dir and rebuilds.

    The main stream rides the direct exchange with no Ray Data stage, as
    in a direct run: one map task per Parquet file group of a path input
    (:func:`~..sources.parquet.parquet_file_groups`), or per block of a
    Dataset input, reads its input, runs
    :func:`~..stages.normalize.prep_parsed_batch` (poison drop, normalize,
    keep-main, grok extraction; the constant tenant column stays elided,
    and a replay adds its own config's tenant) and hashes on ``conv_id``;
    reduce batches write the bucket files
    (:func:`~..stages.sinks.write_bucketed`), each sorted by
    ``PARTITION_ORDER``, the partition stage's order.  A resumed prepare
    ships no slice for a bucket that is already committed.  Then plain
    tasks over the stored buckets build the exact peer index once
    (:func:`_build_peer_index`), stored as ``peer_index.parquet``, so a
    ``peer_correlation`` replay only loads it.  The poison rows the map
    tasks drop are counted there and kept in the dir's
    ``_bucket_meta.json`` as ``rows_poison``, which every replay reports.
    Only the bypass side output is still read through Ray Data
    (``_read_normalized``)."""
    import json
    from functools import partial

    from ..stages.sinks import write_bucketed

    config = config or PipelineConfig()
    from ..state.lineage import identity_guard

    if overwrite:
        shutil.rmtree(bucket_dir, ignore_errors=True)
    meta_name = "_bucket_meta.json"
    fp = _input_fingerprint(input_path_or_ds)
    fp["num_buckets"] = config.num_partitions
    fp["layout"] = CORPUS_LAYOUT
    if fp["kind"] != "path" and os.path.exists(
        os.path.join(bucket_dir, meta_name)
    ):
        # a Dataset input has no stable identity, so a re-prepare into an
        # existing dir can never be PROVEN to be the same run — refuse
        raise ValueError(
            f"bucket_dir {bucket_dir!r} already exists and the Dataset "
            "input is unverifiable; write_bucketed's resume manifests "
            "would keep stale buckets — pass overwrite=True to rebuild, "
            "or use a fresh dir"
        )
    identity_guard(bucket_dir, fp, filename=meta_name, kind="bucket_dir")
    if isinstance(input_path_or_ds, Dataset):
        source = input_path_or_ds
    else:
        source = parquet_file_groups(input_path_or_ds, _read_num_blocks(config))
    main_dir = os.path.join(bucket_dir, "main")
    summary = write_bucketed(
        source,
        main_dir,
        key=PARTITION_ORDER[0],
        num_buckets=config.num_partitions,
        prep=partial(prep_parsed_batch, config=config.normalize),
        sort_by=list(PARTITION_ORDER[1:]),
    )
    summary["rows_poison"] = summary.pop("rows_dropped")
    bp = os.path.join(bucket_dir, "bypass")
    if config.normalize.bypass_rules and not os.path.exists(bp):
        tmp = bp + "_tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        _read_normalized(input_path_or_ds, config)[1].write_parquet(tmp)
        os.rename(tmp, bp)
    # the exact peer index, over the stored buckets (a zero-row corpus has
    # no bucket files)
    data_dir = os.path.join(main_dir, "data")
    index = _build_peer_index(
        parquet_file_groups(data_dir, _read_num_blocks(config))
        if os.path.isdir(data_dir) else []
    )
    index_path = os.path.join(bucket_dir, PEER_INDEX_FILE)
    lineage.write_parquet(
        pa.table({"tool": pa.array(list(index), pa.string()),
                  "service": pa.array(list(index.values()), pa.string())}),
        index_path + ".tmp",
    )
    os.replace(index_path + ".tmp", index_path)
    meta_path = os.path.join(bucket_dir, meta_name)
    with open(meta_path) as f:
        meta = json.load(f)
    meta["rows_poison"] = summary["rows_poison"]
    meta["peer_index_entries"] = len(index)
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(meta_path + ".tmp", meta_path)
    return summary


def run_pipeline(
    input_path_or_ds: Union[str, Dataset],
    out_dir: str,
    config: Optional[PipelineConfig] = None,
    *,
    bucketed_corpus: Optional[str] = None,
) -> dict:
    """Execute the full topology; returns the run summary (also written as
    ``_run_manifest.json``).

    ``bucketed_corpus`` (from :func:`prepare_bucketed_corpus`) replays the
    assemble → enrich → fan-out → aggregate stages over the stored
    conv_id-bucketed table of parsed, sorted rows with ZERO query-time
    shuffle, parse or sort, and with ``peer_correlation`` loads the peer
    index the corpus stored; ``input_path_or_ds`` is ignored and the
    bucket count must match ``config.num_partitions``."""
    import json

    config = config or PipelineConfig()
    os.makedirs(out_dir, exist_ok=True)

    # resume guard: resume manifests skip committed partitions, which is
    # only safe for the SAME run — same partition layout (hash(conv_id)%P),
    # same config (a changed rate_limit / tenant_column / drop rule would
    # otherwise silently no-op on resumed partitions) and same input.
    # repr(config) covers every knob that shapes routed rows; a Dataset
    # input has no stable identity and is recorded as such (config changes
    # are still caught; changed dataset CONTENTS are the caller's burden,
    # as the north-rule resume contract assumes the same input stream).
    from ..state.lineage import identity_guard

    identity_guard(
        out_dir,
        {
            "num_partitions": config.num_partitions,
            "config": repr(config),
            "input": _input_fingerprint(input_path_or_ds),
            "bucketed_corpus": bucketed_corpus,
            "sink_layout": lineage.SINK_LAYOUT,
        },
        filename="_run_config.json",
        kind="pipeline out_dir",
    )

    t0 = time.perf_counter()
    phases = {}
    # the Ray Data side branches: the bypass output, and for a Dataset
    # input the peer index's normalized main stream
    main_ds = bypass = None
    if bucketed_corpus is not None:
        from ..stages.sinks import _load_bucket_meta

        # the corpus's identity record: its layout, rows_poison and the
        # stored peer index's size
        with open(os.path.join(bucketed_corpus, "_bucket_meta.json")) as f:
            corpus_meta = json.load(f)
        main_dir = os.path.join(bucketed_corpus, "main")
        meta = _load_bucket_meta(main_dir)
        if list(meta["key"]) != ["conv_id"]:
            raise ValueError(
                f"bucketed_corpus is keyed by {meta['key']}, need ['conv_id']"
            )
        if int(meta["num_buckets"]) != config.num_partitions:
            raise ValueError(
                f"bucketed_corpus has {meta['num_buckets']} buckets but "
                f"config.num_partitions={config.num_partitions}; the bucket "
                "layout IS the partition layout — match them"
            )
        bp_path = os.path.join(bucketed_corpus, "bypass")
        bypass = ray.data.read_parquet(bp_path) if os.path.exists(bp_path) else None
    else:
        # the exchange's map tasks read and normalize the main stream
        # themselves: a path input is split into file groups, a Dataset
        # input gives its blocks
        if isinstance(input_path_or_ds, Dataset):
            source = input_path_or_ds
            if config.normalize.bypass_rules or config.peer_correlation:
                main_ds, bypass = _read_normalized(input_path_or_ds, config)
        else:
            source = parquet_file_groups(
                input_path_or_ds, _read_num_blocks(config)
            )
            if config.normalize.bypass_rules:
                bypass = _read_normalized(input_path_or_ds, config)[1]

    # optional G4/J2 peer index: a small-side index built distributively,
    # then broadcast into the partition stage.  A replay loads the one its
    # corpus stored; a Dataset input builds it in a pre-pass; a path
    # input's exchange map tasks return each group's partial next to their
    # counts (``_direct_exchange``'s side), merged below once the counts
    # barrier has passed
    from ..enrichers.extended import build_peer_index, merge_peer_partials, peer_pairs

    peer_index = None
    map_side_peers = (
        config.peer_correlation
        and bucketed_corpus is None
        and not isinstance(input_path_or_ds, Dataset)
    )
    if config.peer_correlation and not map_side_peers:
        t_peer = time.perf_counter()
        if bucketed_corpus is not None:
            peer_index = _load_peer_index(bucketed_corpus, corpus_meta)
        else:
            peer_index = build_peer_index(main_ds)
        phases["peer_index"] = round(time.perf_counter() - t_peer, 2)

    # S6 analog: write the sink schema manifest once at pipeline start
    # (the Pinot view-creator bootstrap job)
    _write_schema_manifest(out_dir)
    # resume: the committed partitions, with every sink file of an
    # uncommitted one (a killed batch's orphans) deleted before any task
    # writes — the batch plan may differ from the killed run's.  They are
    # skipped before the exchange: no map task ships their rows and no
    # reduce task sees them
    committed = lineage.sweep_uncommitted(out_dir, SINKS)
    skip = sorted(committed)

    import hashlib
    from functools import partial

    def batch_task(index):
        """The reduce batches' partition stage with peer index ``index``."""
        cache_key = hashlib.md5(
            (repr(config) + repr(sorted((index or {}).items()))).encode()
        ).hexdigest()
        return partial(
            _partition_batch_task,
            out_dir=out_dir,
            config=config,
            peer_index=index,
            cache_key=cache_key,
        )

    def merged_batch_task(partials):
        nonlocal peer_index
        t_peer = time.perf_counter()
        peer_index = merge_peer_partials(partials)
        phases["peer_index"] = round(time.perf_counter() - t_peer, 2)
        return batch_task(peer_index)

    # stateless batch tasks, processor cached per worker process; exchanged
    # partitions and stored buckets share the reduce batches
    # (stages/grouping.py _reduce_stage).  One stats row per partition.
    if bucketed_corpus is not None:
        # buckets stored in this order are not sorted again
        stats_refs = bucketed_reduce(
            [main_dir], batch_task(peer_index), sort_by=list(PARTITION_ORDER[1:]),
            skip=skip,
        )
        # the poison rows were dropped, and counted, when the corpus was
        # bucketed (None: a corpus prepared before the count was kept)
        totals = {"exchange_bytes": 0,
                  "rows_dropped": corpus_meta.get("rows_poison")}
    else:
        stats_refs, totals = group_apply_batches(
            source,
            PARTITION_ORDER[0],
            merged_batch_task if map_side_peers else batch_task(peer_index),
            sort_by=list(PARTITION_ORDER[1:]),
            num_partitions=config.num_partitions,
            prep=partial(prep_main_batch, config=config.normalize),
            skip=skip,
            side=peer_pairs if map_side_peers else None,
        )
    stats = np.concatenate(
        ray.get(stats_refs)
        + [_stats_array([_stats_row(p, m, resumed=True)
                         for p, m in sorted(committed.items())])]
    )
    stats = {name: stats[:, i] for i, name in enumerate(STATS_SCHEMA.names)}
    reduce_tasks = len(stats_refs)
    phases["main_stage"] = round(
        time.perf_counter() - t0 - phases.get("peer_index", 0), 2
    )

    # bypass side output (SpanNormalizer.java:66-70 routed branch)
    if bypass is not None:
        from ..stages.normalize import extract_batch

        bp_dir = os.path.join(out_dir, "bypass")
        if not os.path.exists(bp_dir):
            tmp = bp_dir + "_tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            bp = bypass.map_batches(
                extract_batch,
                batch_format="pyarrow",
                fn_kwargs={"tenant_id": config.normalize.tenant_id},
            )
            if config.normalize.tenant_column is not None:
                # tenant resolution precedes routing in the reference
                # (TenantIdHandler runs in the pre-processor): bypass rows
                # without a tenant are dropped too (uncounted side output)
                bp = bp.map_batches(
                    lambda t: t.filter(pc.is_valid(t["tenant_id"])),
                    batch_format="pyarrow",
                )
            bp.write_parquet(tmp)
            os.rename(tmp, bp_dir)

    # metrics stage: final combine over the per-batch partial counts
    # written by the partition stage (the combiner pattern — the full per-turn
    # data is never re-read or re-shuffled).  finalize_metrics picks a
    # single-process Arrow group-by, or combine_by_key on the direct exchange
    # once the partials pass DISTRIBUTED_METRICS_THRESHOLD bytes.
    finalize_metrics(out_dir)
    phases["metrics_finalize"] = round(
        time.perf_counter() - t0 - sum(phases.values()), 2
    )

    # Zero-row runs route no partitions, so no sink dir was ever created —
    # backfill typed empty sinks from the declared schemas (the same
    # contract _schema.json advertises) so view_dataset() and every
    # downstream reader see the schema instead of FileNotFoundError.
    _backfill_empty_sinks(out_dir)

    elapsed = time.perf_counter() - t0
    total_rows_in = int(stats["rows_in"].sum())
    n_parts = len(stats["part_id"])
    summary = {
        "elapsed_sec": elapsed,
        "num_partitions": n_parts,
        "reduce_tasks": reduce_tasks,
        # Arrow IPC bytes the exchange's map tasks shipped to the reducers
        "exchange_bytes": totals["exchange_bytes"],
        "resumed_partitions": int(stats["resumed"].sum()),
        "rows_in": total_rows_in,
        "rows_deduped": int(stats["rows_deduped"].sum()),
        "rows_capped": int(stats["rows_capped"].sum()),
        "rows_no_tenant": int(stats["rows_no_tenant"].sum()),
        "rows_rate_limited": int(stats["rows_rate_limited"].sum()),
        # rows with a NULL conv_id, turn_idx or ts, dropped before the
        # exchange (stages.normalize.drop_poison_rows); a replay reports
        # the count its corpus recorded
        "rows_poison": totals["rows_dropped"],
        "view_counts": {
            v: int(stats[f"rows_{v}"].sum()) for v in VIEW_BUILDERS
        },
        "turns_per_sec": total_rows_in / elapsed if elapsed > 0 else 0.0,
        "phases": phases,
        # skew observability: rows per hash partition (A4 operational metrics)
        "partition_rows": {
            "max": int(stats["rows_in"].max()) if n_parts else 0,
            "mean": float(stats["rows_in"].mean()) if n_parts else 0.0,
        },
    }
    if peer_index is not None:
        summary["peer_index_entries"] = len(peer_index)
    lineage.write_run_manifest(out_dir, summary)
    return summary


def view_dataset(out_dir: str, view: str) -> Dataset:
    """Read a routed sink back as a Dataset."""
    return ray.data.read_parquet(os.path.join(out_dir, view))
