"""Per-partition lineage manifests + atomic, resumable sink writes.

The reference gets exactly-once-ish resume from Kafka consumer offsets plus
RocksDB changelog restore (/root/reference/hypertrace-metrics-generator/.../
MetricsProcessor.java:138-151; punctuator restore).  Ray Data has task retries
but no output transactionality, so the engine owns it (SURVEY.md §4):

- deterministic partition layout: partition i of a run always holds the same
  key-groups (hash(conv_id) % P with fixed P and a process-stable hash);
- every sink file is written to ``<path>.tmp`` then ``os.rename``d (atomic on
  POSIX);
- a sink file may hold several partitions: the flagship's reduce task writes
  ONE file per view for its whole batch, named by the batch's first written
  partition (``part_file(out_dir, view, first_pid)``);
- a partition's JSON manifest is written LAST — it is the commit record.  It
  names the file its rows live in (``file_part``), that file's partition list
  (``file_parts``) and the file's CRC per view (``view_checksums``);
- a partition is committed only if its manifest is valid, its file's CRC
  matches, and every partition of the file's list has a manifest naming the
  same file — so a batch killed between its commits counts as not committed
  at all, and is recomputed whole;
- before the partition stage, :func:`sweep_uncommitted` deletes invalid
  manifests and every sink file no valid manifest names (the orphans of a
  killed batch), CRCing each shared file once.  A killed run therefore
  never produces duplicate or missing routed rows, even when the batch plan
  changes between runs;
- the manifest carries lineage + metrics: input row count, per-sink routed row
  counts, dropped/dedup counts, and the content checksums.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from functools import partial
from typing import Dict, Optional

import pyarrow as pa
import pyarrow.parquet as pq

from ..schemas import FREE_TEXT_COLUMNS

MANIFEST_DIR = "_manifests"
RUN_MANIFEST = "_run_manifest.json"
#: Recorded in a pipeline out dir's identity record: out dirs written with
#: one sink file per partition (before batch files) are refused on resume.
SINK_LAYOUT = "batch-files"


def part_file(out_dir: str, view: str, part_id: int) -> str:
    return os.path.join(out_dir, view, f"part-{part_id:05d}.parquet")


def manifest_path(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"part-{part_id:05d}.json")


def checksum_file(path: str) -> int:
    """Streaming CRC32 of the rendered part file — the content checksum the
    manifest commits to.  File-level (not row-level) on purpose: it detects
    torn/corrupted-but-present sink files on resume, is dtype-agnostic (map
    and list columns included), and costs one sequential read only on the
    resume path."""
    acc = 0
    with open(path, "rb") as f:
        while True:
            chunk = f.read(1 << 20)
            if not chunk:
                return acc
            acc = zlib.crc32(chunk, acc)


#: columns worth min/max statistics at the sink: the partition / time keys a
#: reader prunes row-groups on.  Stats for wide payload columns (text, tag
#: maps) cost ~25% of the write and prune nothing — skipped.
_STATS_COLUMNS = frozenset(
    {"tenant_id", "conv_id", "ts", "turn_idx", "window_ts", "service_name"}
)


def _leaves(path: str, typ: pa.DataType):
    """``(leaf path, leaf type)`` of every Parquet column under ``path``,
    named as the writer's per-column options name them."""
    if pa.types.is_map(typ):
        yield from _leaves(f"{path}.key_value.key", typ.key_type)
        yield from _leaves(f"{path}.key_value.value", typ.item_type)
    elif pa.types.is_list(typ) or pa.types.is_large_list(typ):
        yield from _leaves(f"{path}.list.element", typ.value_type)
    elif pa.types.is_struct(typ):
        for f in typ:
            yield from _leaves(f"{path}.{f.name}", f.type)
    else:
        yield path, typ


def parquet_plan(schema: pa.Schema) -> dict:
    """``pq.write_table`` keyword arguments for a table of ``schema``, one
    rule per leaf column:

    - timestamp and int64: no dictionary, ``DELTA_BINARY_PACKED``, zstd —
      measures and times are near-unique per row but close in value;
    - the free-text columns (:data:`~..schemas.FREE_TEXT_COLUMNS`): plain,
      zstd — a dictionary over them is a hash build nothing probes again;
    - every other leaf (low-cardinality strings, int32, bool, map keys and
      values): dictionary and snappy — zstd there costs sink CPU and
      saves little after the dictionary.

    ``store_schema`` stays on, so every column reads back as its declared
    Arrow type.
    """
    dictionary, compression, encoding = [], {}, {}
    for field in schema:
        for path, typ in _leaves(field.name, field.type):
            if pa.types.is_timestamp(typ) or pa.types.is_int64(typ):
                encoding[path] = "DELTA_BINARY_PACKED"
                compression[path] = "zstd"
            elif path in FREE_TEXT_COLUMNS:
                encoding[path] = "PLAIN"
                compression[path] = "zstd"
            else:
                dictionary.append(path)
                compression[path] = "snappy"
    return {
        "use_dictionary": dictionary,
        "compression": compression,
        "column_encoding": encoding,
        "store_schema": True,
    }


def write_parquet(table: pa.Table, where, **kwargs) -> None:
    """``pq.write_table`` under :func:`parquet_plan`: the one way the
    engine writes a sink file (``kwargs``: other writer options, such as
    ``write_statistics``)."""
    pq.write_table(table, where, **parquet_plan(table.schema), **kwargs)


def write_view_part(out_dir: str, view: str, part_id: int, table: pa.Table):
    """Atomically write one view partition file; returns (rows, checksum)."""
    path = part_file(out_dir, view, part_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    stats_cols = [c for c in table.schema.names if c in _STATS_COLUMNS]
    # rendered in memory, then CRC'd and written in one call each: the
    # committed checksum costs no second read of the sink file, and no
    # Python callback per chunk the Parquet writer flushes
    sink = pa.BufferOutputStream()
    write_parquet(table, sink, write_statistics=stats_cols)
    buf = sink.getvalue()
    with open(tmp, "wb") as f:
        f.write(buf)
    os.rename(tmp, path)
    return table.num_rows, zlib.crc32(buf)


def _read_manifest(out_dir: str, part_id: int) -> Optional[dict]:
    """A partition's manifest as written, or None if absent or unreadable."""
    try:
        with open(manifest_path(out_dir, part_id)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def _file_of(m: dict, part_id: int):
    """(first partition id, partition list) of the file a manifest names;
    manifests of one-file-per-partition sinks omit both."""
    return m.get("file_part", part_id), m.get("file_parts", [part_id])


def _sink_paths(out_dir: str, m: dict, part_id: int) -> Dict[str, str]:
    """``{view: path}`` of the sink files a manifest commits to."""
    first = _file_of(m, part_id)[0]
    views = {**m.get("view_counts", {}), **m.get("view_checksums", {})}
    return {view: part_file(out_dir, view, first) for view in views}


def _valid(out_dir: str, part_id: int, read, verified: dict) -> Optional[dict]:
    """``part_id``'s manifest if the partition is committed, else None.
    ``read(p)`` returns partition ``p``'s raw manifest; ``verified`` maps a
    (file path, CRC) to whether the file matches, so a file shared by
    several partitions is read once."""
    m = read(part_id)
    if m is None:
        return None
    first, parts = _file_of(m, part_id)
    if part_id not in parts:
        return None
    # every partition of the file's list must have committed the same file:
    # a batch killed between its commits leaves none of them committed
    for p in parts:
        if p != part_id:
            o = read(p)
            if o is None or _file_of(o, p) != (first, parts) or o.get(
                "view_checksums"
            ) != m.get("view_checksums"):
                return None
    # every referenced sink file must exist AND match its committed checksum
    checksums = m.get("view_checksums", {})
    for view, fp in _sink_paths(out_dir, m, part_id).items():
        key = (fp, checksums.get(view))
        if key not in verified:
            verified[key] = os.path.exists(fp) and (
                key[1] is None or checksum_file(fp) == key[1]
            )
        if not verified[key]:
            return None
    return m


def load_manifest(out_dir: str, part_id: int) -> Optional[dict]:
    """The manifest of a committed partition, or None (absent, unreadable,
    a file missing or corrupted, or a file-mate uncommitted): the partition
    must be recomputed."""
    return _valid(out_dir, part_id, partial(_read_manifest, out_dir), {})


_PART_FILE = re.compile(r"part-(\d+)\.(json|parquet)(\.tmp)?")


def sweep_uncommitted(out_dir: str, views) -> Dict[int, dict]:
    """Driver-side, before the partition stage: validate every manifest
    (each shared sink file CRC'd once), delete the invalid manifests and
    every ``part-<n>.parquet`` (or ``.tmp``) file in the ``views`` sink dirs
    that no valid manifest names.  Returns ``{part_id: manifest}`` of the
    committed partitions.

    Without the sweep, a batch killed before all of its commits leaves a
    file that the rerun — whose batch plan may differ — never overwrites,
    and a reader of the sink dir would see those rows twice."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    names = os.listdir(mdir) if os.path.isdir(mdir) else []
    raw = {}
    for name in names:
        mt = _PART_FILE.fullmatch(name)
        if mt and mt.group(2) == "json" and not mt.group(3):
            raw[int(mt.group(1))] = _read_manifest(out_dir, int(mt.group(1)))
    verified = {}
    committed = {}
    for pid in raw:
        m = _valid(out_dir, pid, raw.get, verified)
        if m is None:
            os.remove(manifest_path(out_dir, pid))
        else:
            committed[pid] = m
    keep = {
        fp for pid, m in committed.items() for fp in _sink_paths(out_dir, m, pid).values()
    }
    for view in views:
        vdir = os.path.join(out_dir, view)
        if not os.path.isdir(vdir):
            continue
        for name in os.listdir(vdir):
            path = os.path.join(vdir, name)
            if _PART_FILE.fullmatch(name) and path not in keep:
                os.remove(path)
    for name in names:  # torn manifest writes
        if name.endswith(".tmp"):
            os.remove(os.path.join(mdir, name))
    return committed


def commit_manifest(
    out_dir: str,
    part_id: int,
    *,
    rows_in: int,
    rows_deduped: int,
    rows_capped: int,
    view_counts: Dict[str, int],
    view_checksums: Optional[Dict[str, int]] = None,
    file_parts: Optional[list] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Commit one partition.  ``file_parts`` lists the partitions of the
    sink file the partition's rows live in (ascending; the file is named by
    the first); default: a file of its own."""
    file_parts = [part_id] if file_parts is None else list(file_parts)
    m = {
        "part_id": part_id,
        "rows_in": rows_in,
        "rows_deduped": rows_deduped,
        "rows_capped": rows_capped,
        "view_counts": view_counts,
        "view_checksums": view_checksums or {},
        "file_part": file_parts[0],
        "file_parts": file_parts,
        **(extra or {}),
    }
    path = manifest_path(out_dir, part_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(m, f)
    os.rename(tmp, path)
    return m


def write_run_manifest(out_dir: str, summary: dict) -> None:
    path = os.path.join(out_dir, RUN_MANIFEST)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(summary, f, indent=2, default=str)
    os.rename(tmp, path)


def identity_guard(
    dir_path: str,
    meta: dict,
    *,
    loose: tuple = (),
    filename: str = "meta.json",
    has_prior_output=None,
    kind: str = "output dir",
) -> None:
    """Write-or-validate a run-identity record for a resumable directory.

    Resume manifests make re-runs skip committed work, which is only safe
    when the re-run IS the same run: same input, same config.  This is the
    one shared mechanism (used by the pipeline out_dir, bucketed-corpus
    dirs, and iterative graph checkpoints) — on first use it atomically
    writes ``filename``; on any later use it compares and raises on
    mismatch instead of silently serving stale results.

    ``loose`` keys may differ between runs (e.g. extending ``iters`` /
    ``max_hops`` of the SAME iterative job is a legitimate continuation).
    ``has_prior_output()`` says whether the dir already holds run output;
    output present without an identity record predates tracking (or belongs
    to something else) — refused rather than trusted.  Defaults to "any
    directory entry besides the record itself".
    """
    os.makedirs(dir_path, exist_ok=True)
    path = os.path.join(dir_path, filename)
    if os.path.exists(path):
        with open(path) as f:
            saved = json.load(f)
        mismatch = {
            k: {"saved": saved.get(k), "now": v}
            for k, v in meta.items()
            if k not in loose and saved.get(k) != v
        }
        if mismatch:
            raise ValueError(
                f"{kind} {dir_path!r} belongs to a different run "
                f"(mismatched identity: {mismatch}); resuming would "
                "silently produce wrong results — use a fresh dir"
            )
        return
    if has_prior_output is None:
        has_prior_output = lambda: any(
            e != filename for e in os.listdir(dir_path)
        )
    if has_prior_output():
        raise ValueError(
            f"{kind} {dir_path!r} holds prior output but no {filename} "
            "identity record; refusing to resume from an unidentified run "
            "— use a fresh dir"
        )
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f, sort_keys=True)
    os.rename(tmp, path)
