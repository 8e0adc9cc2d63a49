"""Schema registry — ordered additive/rename column evolution (ST3).

The reference accumulates DDL in a schema-history file
(`AbstractDebeziumTask.java:453-518,535-538`) consumed by the engine; we
hold the current payload schema + an ordered evolution log, snapshotted
into every checkpoint manifest (the atomic offsets+history contract of
ST2).  Exposed both as a plain class (driver-side build from the binlog's
DDL rows) and as a Ray actor for concurrent pipelines.  For parquet WAL
files the DDL rows are planned from the footers
(``ddl_rows_from_parquet``): only row groups whose ``ddl`` column is not
all null are read, which plays the part of the reference's small
schema-history file.

DDL payloads (JSON in the envelope's ``ddl`` column, op='ddl'):
  {"action": "add_column", "name": ..., "type": "<arrow alias>", "default": ...}
  {"action": "rename_column", "from": ..., "to": ...}
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

import ray


class SchemaRegistry:
    def __init__(self, payload_fields: list[tuple[str, str]] | None = None):
        # [(name, arrow type alias)] — the base payload schema
        self.fields: list[tuple[str, str]] = list(payload_fields or [])
        self.log: list[dict] = []  # ordered evolution events
        self.defaults: dict[str, object] = {}

    # ------------------------------------------------------------- DDL

    def apply_ddl(self, ddl: str | dict) -> None:
        ev = json.loads(ddl) if isinstance(ddl, str) else dict(ddl)
        action = ev.get("action")
        if action == "add_column":
            if any(n == ev["name"] for n, _ in self.fields):
                return  # idempotent re-apply
            self.fields.append((ev["name"], ev.get("type", "string")))
            self.defaults[ev["name"]] = ev.get("default")
        elif action == "rename_column":
            self.fields = [
                (ev["to"] if n == ev["from"] else n, t) for n, t in self.fields
            ]
            if ev["from"] in self.defaults:
                self.defaults[ev["to"]] = self.defaults.pop(ev["from"])
        else:
            raise ValueError(f"unknown DDL action: {action!r}")
        self.log.append(ev)

    # ------------------------------------------------------------ views

    def current_schema(self) -> pa.Schema:
        return pa.schema(
            [pa.field(n, pa.type_for_alias(t)) for n, t in self.fields]
        )

    def rename_map(self) -> dict[str, str]:
        """Cumulative old→current name map for reading old segments."""
        renames: dict[str, str] = {}
        for ev in self.log:
            if ev["action"] != "rename_column":
                continue
            # chase chains: anything previously mapping to `from` now → `to`
            for k, v in list(renames.items()):
                if v == ev["from"]:
                    renames[k] = ev["to"]
            renames[ev["from"]] = ev["to"]
        return renames

    def added_columns(self) -> list[tuple[str, str, object]]:
        """[(name, type alias, default)] in evolution order, with renames
        applied to the names."""
        rn = {}
        out: list[tuple[str, str, object]] = []
        for ev in self.log:
            if ev["action"] == "add_column":
                out.append((ev["name"], ev.get("type", "string"), ev.get("default")))
            else:
                out = [
                    (ev["to"] if n == ev["from"] else n, t, d) for n, t, d in out
                ]
                rn[ev["from"]] = ev["to"]
        return out

    # -------------------------------------------------------- snapshot

    def snapshot(self) -> dict:
        return {"fields": self.fields, "log": self.log, "defaults": self.defaults}

    @classmethod
    def from_snapshot(cls, snap: dict | None) -> "SchemaRegistry":
        reg = cls()
        if snap:
            reg.fields = [tuple(f) for f in snap.get("fields", [])]
            reg.log = list(snap.get("log", []))
            reg.defaults = dict(snap.get("defaults", {}))
        return reg


#: the columns the schema-history replay reads
DDL_COLUMNS = ["lsn", "seq", "op", "ddl"]


def _ddl_only(t: pa.Table, max_lsn: int | None) -> pa.Table:
    """The op=ddl rows of ``t`` at or below ``max_lsn``."""
    import pyarrow.compute as pc

    from plugin_debezium_ray.envelope import OP_DDL

    keep = pc.fill_null(pc.equal(t["op"], OP_DDL), False)
    if max_lsn is not None:
        keep = pc.and_(keep, pc.less_equal(t["lsn"], max_lsn))
    return t.select(["lsn", "seq", "ddl"]).filter(keep)


def registry_from_envelopes(
    env: "ray.data.Dataset | pa.Table",
    base_fields: list[tuple[str, str]],
    *,
    prior_snapshot: dict | None = None,
    max_lsn: int | None = None,
) -> SchemaRegistry:
    """Build the registry from the DDL rows of ``env`` in (lsn, seq)
    order — the schema-history replay.

    ``env`` is either an envelope Dataset, scanned for its DDL rows in
    the workers (only those rows leave them; the data stream is
    untouched), or a Table of ``DDL_COLUMNS`` rows already in the driver
    (``ddl_rows_from_parquet``).  Both keep the same rows — op=ddl at or
    below ``max_lsn`` — and replay them idempotently over
    ``prior_snapshot``."""
    if isinstance(env, pa.Table):
        rows = _ddl_only(env, max_lsn).to_pylist()
    else:
        # select the DDL columns first: the before/after image columns
        # dominate the WAL's bytes and the scan needs none of them
        rows = env.select_columns(DDL_COLUMNS).map_batches(
            _ddl_only, fn_args=(max_lsn,), batch_format="pyarrow"
        ).take_all()
    rows.sort(key=lambda r: (r["lsn"], r["seq"]))
    reg = (
        SchemaRegistry.from_snapshot(prior_snapshot)
        if prior_snapshot
        else SchemaRegistry(base_fields)
    )
    seen = {json.dumps(e, sort_keys=True) for e in reg.log}
    for r in rows:
        key = r["ddl"]
        norm = json.dumps(json.loads(key), sort_keys=True)
        if norm in seen:  # idempotent replay of already-recorded DDL
            continue
        reg.apply_ddl(key)
        seen.add(norm)
    return reg


def _parquet_files(paths) -> list[tuple["pafs.FileSystem", str]]:
    """``(filesystem, path)`` of every file ``ray.data.read_parquet``
    reads for ``paths``: a file, a list of files, or a directory (walked
    recursively, skipping names that start with ``.`` or ``_``), in
    sorted order within a directory."""
    import pyarrow.fs as pafs

    out = []
    for path in [paths] if isinstance(paths, str) else paths:
        try:
            fs, p = pafs.FileSystem.from_uri(path)
        except (pa.ArrowInvalid, ValueError):  # a relative local path
            fs, p = pafs.LocalFileSystem(), os.path.abspath(path)
        if fs.get_file_info(p).type != pafs.FileType.Directory:
            out.append((fs, p))
            continue
        base = p.rstrip("/") + "/"
        infos = fs.get_file_info(pafs.FileSelector(p, recursive=True))
        out += sorted(
            (fs, i.path) for i in infos
            if i.is_file and not i.path[len(base):].startswith((".", "_"))
        )
    return out


def ddl_rows_from_parquet(paths, *, max_lsn: int | None = None) -> pa.Table:
    """The ``DDL_COLUMNS`` rows of the parquet row groups under ``paths``
    that can hold DDL, planned from each file's own footer and read in
    the driver — no Ray Data run.

    A file without a ``ddl`` column contributes nothing.  A row group is
    skipped only when its footer proves it holds no DDL: the ``ddl``
    chunk's statistics count ``num_rows`` nulls, or (under ``max_lsn``)
    the ``lsn`` chunk's minimum is above ``max_lsn``.  A row group
    without statistics is read.  The result keeps every row of the row
    groups read, so its ``num_rows`` is what the planner read;
    ``registry_from_envelopes`` picks the DDL rows from it."""
    import pyarrow.parquet as pq

    parts = []
    for fs, path in _parquet_files(paths):
        with fs.open_input_file(path) as f:
            pf = pq.ParquetFile(f)
            md = pf.metadata
            cols = [md.schema.column(j).path for j in range(md.num_columns)]
            if "ddl" not in cols:
                continue
            ddl_j, lsn_j = cols.index("ddl"), cols.index("lsn")
            keep = []
            for i in range(md.num_row_groups):
                rg = md.row_group(i)
                ddl, lsn = rg.column(ddl_j).statistics, rg.column(lsn_j).statistics
                if (ddl is not None and ddl.has_null_count
                        and ddl.null_count == rg.num_rows):
                    continue
                if (max_lsn is not None and lsn is not None
                        and lsn.has_min_max and lsn.min > max_lsn):
                    continue
                keep.append(i)
            if keep:
                parts.append(pf.read_row_groups(keep, columns=DDL_COLUMNS))
    if not parts:
        return pa.schema([("lsn", pa.int64()), ("seq", pa.int64()),
                          ("op", pa.string()), ("ddl", pa.string())]).empty_table()
    return pa.concat_tables(parts, promote_options="permissive")


@ray.remote
class SchemaRegistryActor:
    """Singleton actor wrapper for concurrent access (ST3)."""

    def __init__(self, snapshot: dict | None = None, base: list | None = None):
        self.reg = (
            SchemaRegistry.from_snapshot(snapshot)
            if snapshot
            else SchemaRegistry([tuple(f) for f in (base or [])])
        )

    def apply_ddl(self, ddl: str | dict) -> None:
        self.reg.apply_ddl(ddl)

    def snapshot(self) -> dict:
        return self.reg.snapshot()

    def view(self) -> tuple[dict, list]:
        return self.reg.rename_map(), self.reg.added_columns()
