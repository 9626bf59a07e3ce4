"""Stage 1 — vectorized parse / normalize (the span-normalizer analog).

Reference semantics reimplemented over Arrow batches:

- ``JaegerSpanPreProcessor`` per-span tag normalization + tenant resolution +
  drop-filtering (/root/reference/span-normalizer/span-normalizer/src/main/
  java/org/hypertrace/core/spannormalizer/jaeger/JaegerSpanPreProcessor.java:100-128)
- ``EventBuilder.buildEvent`` first-class field projection + Duration metric
  (.../util/EventBuilder.java:30-119)
- ``HttpFieldsGenerator`` priority-key URL/method/status/size extraction
  (.../fieldgenerators/HttpFieldsGenerator.java:84-150) — here a single
  compiled grok regex over the turn ``text`` via ``pc.extract_regex``
- ``ServiceNamer`` first-match service-name resolution
  (.../jaeger/ServiceNamer.java:29-48) — ``coalesce(tool, role)``
- ``TenantIdHandler`` static default tenant (.../TenantIdHandler.java:33-81)
- ``SpanFilter`` / ``SpanDropFilter`` OR-of-AND drop rules with
  EQ/NEQ/CONTAINS/EXISTS/NOT_EXISTS operators
  (.../jaeger/SpanFilter.java:123-155,209-267)

Everything is a pure ``pa.Table → pa.Table`` function suitable for
``ds.map_batches(..., batch_format="pyarrow")`` — no Python row loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal, Optional, Sequence

import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

# One grok pattern for the request-log-shaped turn text.  Named groups become
# first-class columns (the FieldsGenerator dispatch analog,
# FieldsGenerator.java:69-105).
GROK_PATTERN = (
    r"^(?P<http_method>[A-Z]+) (?P<api_path>[^?\s]+)(?:\?(?P<http_query>\S*))?"
    r" HTTP/1\.1"
    r" status=(?P<status_code>\d+) dur_ms=(?P<dur_ms>\d+) bytes=(?P<bytes>\d+)"
    r"(?: grpc_status=(?P<grpc_status>\d+))?$"
)
OP_PATTERN = r"^/api/v1/(?P<op>[a-z]+)"

DEFAULT_TENANT = "default-tenant"


# ---------------------------------------------------------------------------
# drop rules (F1/F2 analog)
# ---------------------------------------------------------------------------

DropOp = Literal["EQ", "NEQ", "CONTAINS", "EXISTS", "NOT_EXISTS"]


@dataclass(frozen=True)
class DropCondition:
    """One relational condition over a column (SpanDropFilter.java:1-62)."""

    column: str
    op: DropOp
    value: Optional[str] = None


@dataclass(frozen=True)
class RuleTree:
    """Arbitrary AND/OR tree over conditions — the nested logical-rule form
    of the reference's exclude rules (ExcludeSpanRuleEvaluator.java:42-62
    evaluates LogicalSpanFilterExpression trees, not just OR-of-AND lists).
    ``children`` holds DropCondition leaves and/or nested RuleTree nodes.
    """

    op: Literal["and", "or"]
    children: tuple = ()

    def __post_init__(self):
        if self.op not in ("and", "or"):
            raise ValueError(f"RuleTree op must be 'and'/'or', got {self.op!r}")
        if not self.children:
            raise ValueError("RuleTree requires at least one child")


#: a "rule" is either a flat AND-list of conditions (the classic OR-of-AND
#: shape) or a RuleTree for arbitrary nesting
Rule = Sequence  # Sequence[DropCondition] | RuleTree


def iter_rule_conditions(rules):
    """Yield every leaf DropCondition of a rule list (flat or tree form)."""
    for rule in rules:
        stack = [rule]
        while stack:
            node = stack.pop()
            if isinstance(node, DropCondition):
                yield node
            elif isinstance(node, RuleTree):
                stack.extend(node.children)
            else:  # flat AND-list
                stack.extend(node)


@dataclass(frozen=True)
class NormalizeConfig:
    tenant_id: str = DEFAULT_TENANT
    # M2 column-derived tenant (TenantIdHandler.java:33-81 resolves the
    # tenant from a configured tag key): when set, tenant_id comes from this
    # input column and rows WITHOUT one are dropped (counted in the run
    # manifest as rows_no_tenant, main path).  When None, tenant_id is the
    # static constant above (elided from the exchange).
    tenant_column: Optional[str] = None
    # OR of ANDs: a row matching every condition of any rule is dropped
    # (SpanFilter.java:123-155).  Each rule may also be a RuleTree for
    # arbitrary AND/OR nesting (F4, ExcludeSpanRuleEvaluator.java:42-62).
    drop_rules: Sequence = ()
    # bypass predicate (ByPassPredicate.java:28-44): rows matching skip
    # grouping/enrichment and are routed straight to the bypass sink.
    bypass_rules: Sequence = ()


def _condition_mask(batch: pa.Table, cond: DropCondition) -> pa.ChunkedArray:
    if cond.column not in batch.column_names:
        # a column the row simply doesn't carry behaves like the reference's
        # attribute-map lookup on an absent tag (SpanFilter.java matches
        # against a null attribute): EXISTS false, NOT_EXISTS true,
        # EQ/NEQ/CONTAINS no match
        val = cond.op == "NOT_EXISTS"
        return pa.chunked_array([pa.array([val] * batch.num_rows, pa.bool_())])
    col = batch[cond.column]
    if cond.op == "EQ":
        m = pc.equal(col, cond.value)
    elif cond.op == "NEQ":
        m = pc.not_equal(col, cond.value)
    elif cond.op == "CONTAINS":
        m = pc.match_substring(col, cond.value)
    elif cond.op == "EXISTS":
        m = pc.is_valid(col)
    elif cond.op == "NOT_EXISTS":
        m = pc.is_null(col)
    else:  # pragma: no cover
        raise ValueError(f"unknown drop op {cond.op}")
    return pc.fill_null(m, False) if cond.op not in ("EXISTS", "NOT_EXISTS") else m


def _node_mask(batch: pa.Table, node):
    """Compile one rule node (condition leaf, AND/OR tree, or flat AND-list)
    down to a boolean mask — the vectorized form of the reference's
    recursive tree evaluation (ExcludeSpanRuleEvaluator.java:42-62)."""
    if isinstance(node, DropCondition):
        return _condition_mask(batch, node)
    if isinstance(node, RuleTree):
        combine = pc.and_ if node.op == "and" else pc.or_
        acc = None
        for child in node.children:
            m = _node_mask(batch, child)
            acc = m if acc is None else combine(acc, m)
        return acc
    # flat sequence of conditions = AND (the classic rule shape)
    acc = None
    for cond in node:
        m = _condition_mask(batch, cond)
        acc = m if acc is None else pc.and_(acc, m)
    return acc


def rules_mask(batch: pa.Table, rules: Sequence) -> Optional[pa.ChunkedArray]:
    """True where a row matches any rule (each rule = AND-list of conditions
    or an arbitrary AND/OR RuleTree)."""
    if not rules:
        return None
    any_rule = None
    for rule in rules:
        rule_mask = _node_mask(batch, rule)
        any_rule = rule_mask if any_rule is None else pc.or_(any_rule, rule_mask)
    return any_rule


# ---------------------------------------------------------------------------
# the parse kernel
# ---------------------------------------------------------------------------


LIGHT_COLUMNS = {"tenant_id", "conv_id", "turn_idx", "role", "text", "tool", "ts"}


def needs_extraction_for_rules(config: NormalizeConfig) -> bool:
    """True when any drop/bypass rule references a grok-extracted column, in
    which case extraction must run before filtering (pre-shuffle)."""
    for rules in (config.drop_rules, config.bypass_rules):
        for cond in iter_rule_conditions(rules):
            if cond.column not in LIGHT_COLUMNS:
                return True
    return False


#: The columns a row needs non-null to be grouped and ordered.
POISON_COLUMNS = ("conv_id", "turn_idx", "ts")


def drop_poison_rows(batch: pa.Table) -> pa.Table:
    """Poison-pill policy (JaegerSpanPreProcessor.java:88-96 swallows bad
    records and counts them, never failing the job): rows with a null
    grouping key, turn index or timestamp (``POISON_COLUMNS``) cannot be
    ordered or grouped — drop them instead of corrupting the shuffle."""
    conv_id, turn_idx, ts = (pc.is_valid(batch[c]) for c in POISON_COLUMNS)
    mask = pc.and_(pc.and_(conv_id, turn_idx), ts)
    if pc.all(mask).as_py():
        return batch
    return batch.filter(mask)


def normalize_light_batch(
    batch: pa.Table, config: NormalizeConfig = NormalizeConfig()
) -> pa.Table:
    """Pre-shuffle normalize: tenant + drop rules only, narrow columns.

    The grok extraction runs post-shuffle (extract_batch) so the all-to-all
    exchange moves ~40% fewer bytes per row — extraction output is derived
    data and cheaper to recompute after the move than to ship.  The caller
    drops the poison rows first (:func:`drop_poison_rows`)."""
    # tenant_id is a per-pipeline CONSTANT (M2 tenant resolution): shipping
    # it as a materialized string column costs ~110 MB per 6M rows through
    # the exchange for zero information.  It is reconstructed post-shuffle
    # (extract_batch) and only materialized here when a drop/bypass rule
    # actually references it.
    cols = {
        "conv_id": batch["conv_id"],
        "turn_idx": pc.cast(batch["turn_idx"], pa.int32()),
        "role": batch["role"],
        "text": batch["text"],
        "tool": batch["tool"],
        "ts": batch["ts"],
    }
    if config.tenant_column is not None:
        # column-derived tenant (M2): data-dependent, so it MUST ride the
        # exchange; null-tenant rows ride too and are dropped + counted
        # post-shuffle (rows_no_tenant in the manifest)
        cols = {
            "tenant_id": pc.cast(batch[config.tenant_column], pa.string()),
            **cols,
        }
    elif any(
        cond.column == "tenant_id"
        for cond in iter_rule_conditions(
            (*config.drop_rules, *config.bypass_rules)
        )
    ):
        cols = {
            "tenant_id": pa.array([config.tenant_id] * batch.num_rows, pa.string()),
            **cols,
        }
    batch = pa.table(cols)
    drop = rules_mask(batch, config.drop_rules)
    if drop is not None:
        batch = batch.filter(pc.invert(drop))
    return batch


def _parse_text_fields(text_col, n: int) -> dict:
    """Vectorized grok of the request-log text.

    Equivalent to ``pc.extract_regex(text, GROK_PATTERN)`` followed by the
    ``""``→null normalization of the optional groups, but ~2× cheaper: ONE
    space-split plus cheap string predicates (``ascii_is_decimal`` ==
    RE2 ``^\\d+$``) replaces the 7-capture-group regex scan of every text
    byte.  Rows that fail any structural check come back all-null, exactly
    like a regex non-match (parity-tested against GROK_PATTERN in
    tests/test_normalize.py)."""
    import numpy as np

    txt = text_col.combine_chunks() if isinstance(text_col, pa.ChunkedArray) else text_col
    sp = pc.split_pattern(txt, " ")
    offs = sp.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = sp.values
    counts = offs[1:] - offs[:-1]
    base = offs[:-1]
    str_t = flat.type

    def tok(k):
        present = counts > k
        if len(flat) == 0 or not present.any():
            return pa.nulls(n, str_t)
        got = flat.take(pa.array(np.where(present, base + k, 0)))
        return pc.if_else(pa.array(present), got, pa.nulls(n, str_t))

    toks = [tok(k) for k in range(7)]

    # url → path [+ '?' + query] (regex: [^?\s]+ then optional \?\S*)
    usp = pc.split_pattern(toks[1], "?", max_splits=1)
    uoffs = usp.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    uflat = usp.values
    ucounts = uoffs[1:] - uoffs[:-1]
    ubase = uoffs[:-1]

    def utok(k):
        present = ucounts > k
        if len(uflat) == 0 or not present.any():
            return pa.nulls(n, str_t)
        got = uflat.take(pa.array(np.where(present, ubase + k, 0)))
        return pc.if_else(pa.array(present), got, pa.nulls(n, str_t))

    api_path = utok(0)
    http_query = utok(1)

    def _prefixed_digits(arr, prefix):
        digits = pc.utf8_slice_codeunits(arr, len(prefix), 2**31 - 1)
        ok = pc.and_(pc.starts_with(arr, prefix), pc.ascii_is_decimal(digits))
        return ok, digits

    ok3, status_s = _prefixed_digits(toks[3], "status=")
    ok4, dur_s = _prefixed_digits(toks[4], "dur_ms=")
    ok5, bytes_s = _prefixed_digits(toks[5], "bytes=")
    ok6, grpc_s = _prefixed_digits(toks[6], "grpc_status=")
    method_ok = pc.and_(pc.ascii_is_upper(toks[0]), pc.utf8_is_alpha(toks[0]))
    m = pc.and_kleene(
        pa.array((counts == 6) | (counts == 7)),
        pc.and_(
            pc.and_(method_ok, pc.equal(toks[2], "HTTP/1.1")),
            pc.and_(pc.and_(ok3, ok4), ok5),
        ),
    )
    m = pc.and_kleene(
        m, pc.if_else(pa.array(counts == 7), ok6, pa.scalar(True))
    )
    m = pc.and_kleene(
        m, pc.greater(pc.utf8_length(pc.fill_null(api_path, "")), 0)
    )
    m = pc.fill_null(m, False)
    null_s = pa.nulls(n, pa.string())

    def masked(arr, extra_mask=None):
        cond = m if extra_mask is None else pc.and_(m, extra_mask)
        return pc.if_else(cond, arr, null_s)

    nonempty_q = pc.fill_null(
        pc.greater(pc.utf8_length(pc.fill_null(http_query, "")), 0), False
    )
    api_path = masked(api_path)
    # op: second-level extraction once per DISTINCT path (templated paths)
    enc = api_path.dictionary_encode()
    op_u = pc.struct_field(pc.extract_regex(enc.dictionary, OP_PATTERN), "op")
    op = op_u.take(enc.indices)
    return {
        "http_method": masked(toks[0]),
        "api_path": api_path,
        "http_query": masked(http_query, nonempty_q),
        "op": op,
        "status_code": pc.cast(masked(status_s), pa.int32()),
        "dur_ms": pc.cast(masked(dur_s), pa.int64()),
        "bytes": pc.cast(masked(bytes_s), pa.int64()),
        "grpc_status_code": pc.cast(
            masked(grpc_s, pa.array(counts == 7)), pa.int32()
        ),
    }


def extract_batch(batch: pa.Table, tenant_id: str = DEFAULT_TENANT) -> pa.Table:
    """Grok extraction over a (possibly light-normalized) batch → full
    NORMALIZED_TURNS layout.  Vectorized; idempotent on already-extracted
    input (detected by column presence).  ``tenant_id`` materializes the
    constant tenant column the light path elided, from the exchange or
    from a bucketed corpus's parsed rows (:func:`prep_parsed_batch`), so
    it is added before the idempotence check."""
    if "tenant_id" not in batch.schema.names:
        batch = batch.add_column(
            0,
            "tenant_id",
            pa.array([tenant_id] * batch.num_rows, pa.string()),
        )
    if "status_code" in batch.schema.names:
        return batch
    f = _parse_text_fields(batch["text"], batch.num_rows)
    http_method = f["http_method"]
    api_path = f["api_path"]
    http_query = f["http_query"]
    status_code = f["status_code"]
    dur_ms = f["dur_ms"]
    bytes_ = f["bytes"]
    grpc_status_code = f["grpc_status_code"]
    op = f["op"]
    service_name = pc.coalesce(batch["tool"], batch["role"])
    is_error = pc.fill_null(pc.greater_equal(status_code, 400), False)
    return pa.table(
        {
            "tenant_id": batch["tenant_id"],
            "conv_id": batch["conv_id"],
            "turn_idx": batch["turn_idx"],
            "role": batch["role"],
            "text": batch["text"],
            "tool": batch["tool"],
            "ts": batch["ts"],
            "http_method": http_method,
            "api_path": api_path,
            "http_query": http_query,
            "op": op,
            "status_code": status_code,
            "grpc_status_code": grpc_status_code,
            "dur_ms": dur_ms,
            "bytes": bytes_,
            "service_name": service_name,
            "is_error": is_error,
        }
    )


def normalize_batch(batch: pa.Table, config: NormalizeConfig = NormalizeConfig()) -> pa.Table:
    """transcripts batch → NORMALIZED_TURNS batch (drop-filtered).

    Drop rules are applied AFTER extraction (on the full NORMALIZED_TURNS
    layout) so rules may reference grok-extracted columns — this is the
    heavy path ``needs_extraction_for_rules`` selects; light-column rules
    filter identically on either side of the projection.  The caller drops
    the poison rows first (:func:`drop_poison_rows`)."""
    n = batch.num_rows
    f = _parse_text_fields(batch["text"], n)
    http_method = f["http_method"]
    api_path = f["api_path"]
    http_query = f["http_query"]
    status_code = f["status_code"]
    dur_ms = f["dur_ms"]
    bytes_ = f["bytes"]
    grpc_status_code = f["grpc_status_code"]
    op = f["op"]

    service_name = pc.coalesce(batch["tool"], batch["role"])
    is_error = pc.fill_null(pc.greater_equal(status_code, 400), False)

    tenant = (
        pc.cast(batch[config.tenant_column], pa.string())
        if config.tenant_column is not None
        else pa.array([config.tenant_id] * n, pa.string())
    )
    cols = {
        "tenant_id": tenant,
        "conv_id": batch["conv_id"],
        "turn_idx": pc.cast(batch["turn_idx"], pa.int32()),
        "role": batch["role"],
        "text": batch["text"],
        "tool": batch["tool"],
        "ts": batch["ts"],
        "http_method": http_method,
        "api_path": api_path,
        "http_query": http_query,
        "op": op,
        "status_code": status_code,
        "grpc_status_code": grpc_status_code,
        "dur_ms": dur_ms,
        "bytes": bytes_,
        "service_name": service_name,
        "is_error": is_error,
    }
    out = pa.table(cols)
    # rules may reference raw input columns the projection drops (e.g. the
    # tenant_column source, or any extra attribute column riding the input):
    # evaluate them over projection + leftover raw columns (zero-copy
    # appends), then filter the projection
    rule_tbl = out
    for name in batch.column_names:
        if name not in cols:
            rule_tbl = rule_tbl.append_column(name, batch[name])
    drop = rules_mask(rule_tbl, config.drop_rules)
    if drop is not None:
        out = out.filter(pc.invert(drop))
    return out


def normalize(ds: Dataset, config: NormalizeConfig = NormalizeConfig()) -> Dataset:
    return ds.map_batches(drop_poison_rows, batch_format="pyarrow").map_batches(
        normalize_batch, batch_format="pyarrow", fn_kwargs={"config": config}
    )


def normalize_light(ds: Dataset, config: NormalizeConfig = NormalizeConfig()) -> Dataset:
    return ds.map_batches(drop_poison_rows, batch_format="pyarrow").map_batches(
        normalize_light_batch, batch_format="pyarrow", fn_kwargs={"config": config}
    )


def keep_main(batch: pa.Table, config: NormalizeConfig) -> pa.Table:
    """The main side of the bypass split: the rows no bypass rule matches."""
    if not config.bypass_rules:
        return batch
    return batch.filter(pc.invert(rules_mask(batch, config.bypass_rules)))


def prep_main_batch(batch: pa.Table, config: NormalizeConfig):
    """The flagship's whole pre-shuffle half over one input batch, as the
    exchange's map task runs it: drop the poison rows, normalize (light, or
    with extraction when a rule needs extracted columns) and keep the main
    side of the bypass split.  Returns ``(main rows, poison rows dropped)``
    — the reference counts the bad records it swallows
    (JaegerSpanPreProcessor.java:88-96)."""
    n = batch.num_rows
    batch = drop_poison_rows(batch)
    norm = (
        normalize_batch if needs_extraction_for_rules(config)
        else normalize_light_batch
    )
    return keep_main(norm(batch, config), config), n - batch.num_rows


def prep_parsed_batch(batch: pa.Table, config: NormalizeConfig):
    """:func:`prep_main_batch` followed by grok extraction: the rows a
    bucketed corpus stores, so a replay never parses again (the
    reference's raw-spans topic carries spans the span-normalizer already
    parsed).  The constant tenant column stays elided exactly where the
    light path elides it; a replay's :func:`extract_batch` adds the
    replay config's tenant."""
    main, dropped = prep_main_batch(batch, config)
    parsed = extract_batch(main, config.tenant_id)
    if "tenant_id" not in main.schema.names:
        parsed = parsed.drop_columns(["tenant_id"])
    return parsed, dropped


def split_bypass(ds: Dataset, config: NormalizeConfig):
    """Route bypass rows to their own branch (SpanNormalizer.java:66-70).

    Returns ``(main, bypass)`` datasets; ``bypass`` is None when unconfigured.
    """
    if not config.bypass_rules:
        return ds, None

    def _keep_bypass(batch: pa.Table) -> pa.Table:
        m = rules_mask(batch, config.bypass_rules)
        return batch.filter(m)

    return (
        ds.map_batches(keep_main, batch_format="pyarrow",
                       fn_kwargs={"config": config}),
        ds.map_batches(_keep_bypass, batch_format="pyarrow"),
    )
