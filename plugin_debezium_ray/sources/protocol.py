"""Source protocol — the connector extension surface (SURVEY.md §2.8).

The reference's extension unit is a module subclassing the abstract task
with one declarative property interface per database; ours is a small
protocol any envelope producer implements:

    envelopes()  -> Dataset of envelope rows (the change stream)
    snapshot()   -> Dataset of op=r rows for the initial load (or None)
    needs_schema_history -> checkpoint strictness (ST2)

The schema history rides in the change stream itself: the commit takes
its DDL rows from the envelopes (a parquet read's footers, a scan of a
file read's ``ddl`` column, or the blocks of any other input), so a
source declares nothing about DDL.

``ReplayJob.run_source`` consumes any of these, so adding a new source
(a real WAL reader, a Kafka topic dump, a table poller) is one class —
the analogue of adding a connector module in the reference.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import ray.data

from plugin_debezium_ray.sources.binlog import binlog, snapshot_envelopes
from plugin_debezium_ray.sources.parquet_files import ParquetFiles
from plugin_debezium_ray.stages.apply import APPLY_COLUMNS


@runtime_checkable
class Source(Protocol):
    needs_schema_history: bool

    def envelopes(self) -> "ray.data.Dataset": ...

    def snapshot(self) -> "ray.data.Dataset | None": ...


class ParquetWalSource:
    """Envelope segments on disk/object storage — the production source.
    ``wal_paths`` and ``snapshot_paths`` are each a file, a list of files
    or a directory.  Both reads are ``ParquetFiles`` datasources keeping
    only ``APPLY_COLUMNS``: each opens its files' footers once, in the
    driver, and runs no Ray task to plan itself.  The commit plans the
    WAL's DDL rows and its footer skip from those same footers."""

    needs_schema_history = True

    def __init__(self, wal_paths, *, snapshot_paths=None):
        self.wal_paths = wal_paths
        self.snapshot_paths = snapshot_paths

    def envelopes(self):
        return _read_files(self.wal_paths)

    def snapshot(self):
        if self.snapshot_paths is None:
            return None
        return _read_files(self.snapshot_paths)


def _read_files(paths) -> "ray.data.Dataset":
    """``paths``' ``APPLY_COLUMNS`` as a Dataset, one read task per file."""
    src = ParquetFiles(paths, columns=list(APPLY_COLUMNS))
    return ray.data.read_datasource(src, override_num_blocks=len(src.paths))


class SyntheticBinlogSource:
    """Deterministic generated WAL — tests and benches."""

    needs_schema_history = True

    def __init__(self, n_events: int, n_keys: int, *, seed: int = 42,
                 include_snapshot: bool = True, **kw):
        self.n_events = n_events
        self.n_keys = n_keys
        self.seed = seed
        self.include_snapshot = include_snapshot
        self.kw = kw

    def envelopes(self):
        return binlog(self.n_events, self.n_keys, seed=self.seed, **self.kw)

    def snapshot(self):
        if not self.include_snapshot:
            return None
        return snapshot_envelopes(self.n_keys, seed=self.seed)


class TableSource:
    """Derive a change stream from a plain keyed Parquet table (the
    polling-connector analogue; schema rides in the stream, like the
    reference's Postgres/MongoDB connectors)."""

    needs_schema_history = False

    def __init__(self, table_path: str, *, key_cols, lsn_col, payload_cols,
                 op_col=None, op_map=None, **kw):
        self.table_path = table_path
        self.args = dict(key_cols=key_cols, lsn_col=lsn_col,
                         payload_cols=payload_cols, op_col=op_col,
                         op_map=op_map, **kw)

    def envelopes(self):
        from plugin_debezium_ray.sources.from_table import envelopes_from_table

        cols = list(
            dict.fromkeys(
                [self.args["lsn_col"], *self.args["payload_cols"],
                 *self.args["key_cols"]]
                + ([self.args["op_col"]] if self.args.get("op_col") else [])
            )
        )
        ds = ray.data.read_parquet(self.table_path, columns=cols)
        return envelopes_from_table(ds, **self.args)

    def snapshot(self):
        return None
