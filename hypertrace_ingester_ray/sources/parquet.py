"""Metadata-hygienic Parquet reads.

Driver-generated Parquet carries pandas/ARROW:schema metadata; a pyarrow
schema WITH metadata is unhashable (``hash(schema)`` raises on the metadata
dict), which makes Ray Data's block-schema deduplication log a
"Failed to hash the schemas" warning inside the read operator — before any
``map_batches`` could strip it.  Passing an explicit metadata-free ``schema=``
to ``read_parquet`` makes every block schema clean at the source.

:func:`parquet_file_groups` splits a path into the same files, hive
``key=value`` columns and schema without Ray Data, in groups of bounded
size: the flagship's exchange map tasks read those groups themselves
(``stages.grouping``).
"""

from __future__ import annotations

import glob
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq

import ray.data
from ray.data import Dataset


def _any_parquet_file(path: str) -> Optional[str]:
    if os.path.isfile(path):
        return path
    hits = sorted(glob.glob(os.path.join(path, "*.parquet")))
    return hits[0] if hits else None


def clean_schema(
    path: str, columns: Optional[Sequence[str]] = None
) -> Optional[pa.Schema]:
    """The file's arrow schema, metadata stripped (and column-pruned)."""
    f = _any_parquet_file(path)
    if f is None:
        return None
    schema = pq.ParquetFile(f).schema_arrow.remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return schema


def read_parquet_clean(
    path: str, *, columns: Optional[Sequence[str]] = None, **kwargs
) -> Dataset:
    """``ray.data.read_parquet`` with a metadata-free schema so block-schema
    hashing (and therefore shuffle-side schema dedup) works silently."""
    schema = clean_schema(path, columns)
    if schema is not None:
        kwargs.setdefault("schema", schema)
    if columns is not None:
        kwargs["columns"] = list(columns)
    return ray.data.read_parquet(path, **kwargs)


class ParquetFileGroup:
    """A group of Parquet files (or runs of one file's row groups) read as
    one table in one task: each piece under ``schema`` (None: the file's
    own), its hive ``key=value`` columns appended as strings, pieces in
    listing order.  The rows and columns are those ``read_parquet_clean``
    gives for the same files."""

    __slots__ = ("files", "schema", "filesystem")

    def __init__(self, files: List[Tuple[str, Optional[List[int]], Dict[str, str]]],
                 schema: Optional[pa.Schema], filesystem):
        # [(path, row group ids or None for the whole file,
        #   {partition column: value}), ...]
        self.files = files
        self.schema = schema
        self.filesystem = filesystem

    def read(self, columns: Optional[Sequence[str]] = None) -> pa.Table:
        """The group's rows; ``columns`` (if given) are the only ones read."""
        fmt = pds.ParquetFileFormat()
        tables = []
        for path, row_groups, partitions in self.files:
            t = fmt.make_fragment(
                path, filesystem=self.filesystem, row_groups=row_groups
            ).to_table(schema=self.schema, columns=columns, use_threads=False)
            for name, value in partitions.items():
                if name not in t.column_names and (
                    columns is None or name in columns
                ):
                    t = t.append_column(
                        name, pc.fill_null(pa.nulls(t.num_rows, pa.string()), value)
                    )
            tables.append(t)
        nonempty = [t for t in tables if t.num_rows] or tables[:1]
        return pa.concat_tables(
            nonempty, promote_options="default"
        ).replace_schema_metadata(None)

    def empty(self) -> pa.Table:
        """The group's columns with no rows: its first file's, no row group
        read."""
        path, _, partitions = self.files[0]
        return ParquetFileGroup(
            [(path, [], partitions)], self.schema, self.filesystem
        ).read()


def _row_group_runs(sizes: List[int], limit: int) -> list:
    """One file as ``[(row group ids, or None for the whole file, bytes)]``:
    the whole file when it holds at most ``limit`` bytes, else runs of
    consecutive row groups of at most ``limit`` bytes each (a larger row
    group is a run of its own)."""
    if sum(sizes) <= limit:
        return [(None, sum(sizes))]
    runs, ids, size = [], [], 0
    for i, b in enumerate(sizes):
        if ids and size + b > limit:
            runs.append((ids, size))
            ids, size = [], 0
        ids.append(i)
        size += b
    runs.append((ids, size))
    return runs


def parquet_file_groups(path: str, num_groups: int) -> List[ParquetFileGroup]:
    """The files under ``path`` (a file, or a dir listed recursively) in
    groups of consecutive files — the listing, hive partition columns and
    schema of ``read_parquet_clean``, without starting a Ray Data read (no
    fragment sampling, no streaming executor).

    The files are split into at most ``num_groups`` groups, as
    ``read_parquet_clean(path, override_num_blocks=num_groups)`` splits
    them.  A group holding more than Ray Data's ``target_max_block_size``
    (the bound of one read block), counted as the uncompressed row-group
    bytes the file footers record, is cut further at file and then
    row-group boundaries, so one map task's input stays bounded whatever
    the input's size: every group holds at most that many bytes, or one
    row group larger than that."""
    from ray.data import DataContext
    from ray.data.datasource.partitioning import Partitioning, PathPartitionParser

    max_group_bytes = DataContext.get_current().target_max_block_size
    parse = PathPartitionParser(Partitioning("hive"))
    dataset = pq.ParquetDataset(path, partitioning=None)
    files = []
    for frag in dataset.fragments:
        md = frag.metadata
        files.append((
            frag.path,
            parse(frag.path),
            [md.row_group(i).total_byte_size for i in range(md.num_row_groups)],
        ))
    schema = clean_schema(path)
    groups = []
    for idx in np.array_split(np.arange(len(files)), max(1, num_groups)):
        pieces, size = [], 0
        for i in idx:
            file_path, partitions, sizes = files[i]
            for row_groups, b in _row_group_runs(sizes, max_group_bytes):
                if pieces and size + b > max_group_bytes:
                    groups.append(
                        ParquetFileGroup(pieces, schema, dataset.filesystem)
                    )
                    pieces, size = [], 0
                pieces.append((file_path, row_groups, partitions))
                size += b
        if pieces:
            groups.append(ParquetFileGroup(pieces, schema, dataset.filesystem))
    return groups
