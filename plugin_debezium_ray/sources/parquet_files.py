"""The engine's own parquet datasource: a read planned from its footers.

``ParquetFiles`` expands its paths with pyarrow's dataset discovery (a
file, a list of files, or a directory walked recursively, skipping
names that start with ``.`` or ``_``), opens each file's footer once in
the driver and keeps it, and makes one ``ReadTask`` per file that reads
``columns`` with pyarrow.  Building it runs no Ray task: no metadata
prefetch and no sampling of rows to estimate sizes.

``ParquetWalSource`` reads its WAL and snapshot through it
(``ray.data.read_datasource``), so its callers still get a Dataset.  A
commit over such a read (``pipelines/replay.py:_file_reads``) takes the
files, filesystem, schema and footers from the public attributes below:
its DDL plan and footer skip (``ddl_rows_from_parquet``) read no footer
a second time.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.fs as pafs
import pyarrow.parquet as pq

from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _resolve(paths) -> tuple:
    """``(filesystem, paths)``: the filesystem of the first path's URI
    scheme, each path without it; plain local paths are kept as given."""
    paths = ([os.fspath(paths)] if isinstance(paths, (str, os.PathLike))
             else [os.fspath(p) for p in paths])
    if not paths:
        raise ValueError("ParquetFiles needs at least one path")
    try:
        fs = pafs.FileSystem.from_uri(paths[0])[0]
    except pa.ArrowInvalid:  # no scheme: a relative local path
        return pafs.LocalFileSystem(), paths
    return fs, [pafs.FileSystem.from_uri(p)[1] for p in paths]


def _read_file(filesystem, path: str, columns: list[str]):
    """A read task's body: the file's ``columns``, one table per row
    group, columns in the order asked for."""
    with filesystem.open_input_file(path) as f:
        pf = pq.ParquetFile(f)
        for i in range(pf.metadata.num_row_groups):
            yield pf.read_row_group(i, columns=columns,
                                    use_threads=False).select(columns)


class ParquetFiles(Datasource):
    """Parquet files read by pyarrow, one ``ReadTask`` per file, planned
    from footers the driver opens once and keeps."""

    def __init__(self, paths: "str | list[str]", *, columns: list[str]):
        fs, paths = _resolve(paths)
        # pyarrow's discovery, as read_parquet uses it; an explicit schema
        # spares it opening the first file to infer one
        found = pds.dataset(paths[0] if len(paths) == 1 else paths,
                            filesystem=fs, format="parquet",
                            partitioning=None, schema=pa.schema([]))
        #: the files, in discovery order
        self.paths: list[str] = list(found.files)
        if not self.paths:
            raise FileNotFoundError(f"no parquet files under {paths}")
        #: the filesystem ``paths`` are on
        self.filesystem = found.filesystem
        self.columns = list(columns)
        #: each file's ``pyarrow.parquet.FileMetaData``, opened once
        self.footers = []
        for path in self.paths:
            with self.filesystem.open_input_file(path) as f:
                self.footers.append(pq.ParquetFile(f).metadata)
        sch = self.footers[0].schema.to_arrow_schema()
        #: the read's row schema: the first file's ``columns``
        self.schema = pa.schema([sch.field(c) for c in self.columns])
        # uncompressed bytes of the read's columns, per file
        self._sizes = [
            sum(rg.column(j).total_uncompressed_size
                for rg in (md.row_group(i) for i in range(md.num_row_groups))
                for j in range(rg.num_columns)
                if rg.column(j).path_in_schema.split(".")[0] in self.columns)
            for md in self.footers]

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._sizes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        """One task per file, whatever ``parallelism`` asks."""
        return [
            ReadTask(functools.partial(_read_file, self.filesystem, path,
                                       self.columns),
                     BlockMetadata(num_rows=md.num_rows, size_bytes=size,
                                   input_files=[path], exec_stats=None),
                     schema=self.schema)
            for path, md, size in zip(self.paths, self.footers, self._sizes)
        ]
