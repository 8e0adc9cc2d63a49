"""Schema registry — ordered additive/rename column evolution (ST3).

The reference accumulates DDL in a schema-history file
(`AbstractDebeziumTask.java:453-518,535-538`) consumed by the engine; we
hold the current payload schema + an ordered evolution log, snapshotted
into every checkpoint manifest (the atomic offsets+history contract of
ST2).  A plain class, built driver-side from the binlog's DDL rows.  When
a commit's input is a read of WAL files (a ``ParquetFiles`` datasource or
a ``read_parquet``), or a union of such reads, the DDL rows are planned
from those files' footers (``ddl_rows_from_parquet``), even if the read
prunes the ``ddl`` column: only row groups whose ``ddl`` column is not
all null are read, which plays the part of the reference's small
schema-history file.  A ``ParquetFiles`` read hands over the footers it
already opened, so none is read twice.  Any other input is scanned for
them (``registry_from_envelopes``).  The same footer pass lists the files
whose ``lsn``/``seq`` statistics put every row at or below a ledger mark,
which the commit then does not read.

DDL payloads (JSON in the envelope's ``ddl`` column, op='ddl'):
  {"action": "add_column", "name": ..., "type": "<arrow alias>", "default": ...}
  {"action": "rename_column", "from": ..., "to": ...}
"""

from __future__ import annotations

import json
from typing import NamedTuple

import pyarrow as pa


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
        out: list[tuple[str, str, object]] = []
        for ev in self.log:
            if ev["action"] == "add_column":
                out.append((ev["name"], ev.get("type", "string"), ev.get("default")))
            else:
                out = [
                    (ev["to"] if n == ev["from"] else n, t, d) for n, t, d in out
                ]
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


class FooterPlan(NamedTuple):
    """What ``ddl_rows_from_parquet`` planned from a read's footers."""

    #: the ``DDL_COLUMNS`` rows of every row group that can hold DDL
    ddl: pa.Table
    #: ``{path: num_rows}`` of the files whose every row is at or below
    #: the ``mark`` it was given
    skipped: dict


def _at_or_below(rg, lsn_j: int, seq_j: int, mark: tuple[int, int]) -> bool:
    """The row group's footer proves every row's ``(lsn, seq)`` is at or
    below ``mark``: both columns are integers with min/max statistics and
    no nulls."""
    stats = []
    for j in (lsn_j, seq_j):
        col = rg.column(j)
        st = col.statistics
        if (col.physical_type not in ("INT32", "INT64") or st is None
                or not st.has_min_max or not st.has_null_count
                or st.null_count):
            return False
        stats.append(st)
    lsn, seq = stats
    return lsn.max < mark[0] or (lsn.max == mark[0] and seq.max <= mark[1])


def ddl_rows_from_parquet(filesystem: "pyarrow.fs.FileSystem", files: list[str],
                          footers: list | None = None, *,
                          max_lsn: int | None = None,
                          mark: tuple[int, int] | None = None) -> FooterPlan:
    """Plan a read of ``files`` on ``filesystem`` from each file's own
    footer, in the driver — no Ray Data run.  ``footers``, when given,
    holds each file's ``FileMetaData`` already open, and no footer is
    read again; otherwise each is opened once here.  ``ReplayJob``
    passes the files and filesystem a commit's input resolved: a
    ``ParquetFiles`` read's, with the footers it keeps, or a
    ``read_parquet``'s.

    ``ddl`` holds the ``DDL_COLUMNS`` rows of the row groups that can hold
    DDL.  A file without a ``ddl`` column contributes nothing.  A row
    group is skipped only when its footer proves it holds no DDL: the
    ``ddl`` chunk's statistics count ``num_rows`` nulls, or (under
    ``max_lsn``) the ``lsn`` chunk's minimum is above ``max_lsn``.  A row
    group without statistics is read.  The table keeps every row of the
    row groups read, so its ``num_rows`` is what the planner read;
    ``registry_from_envelopes`` picks the DDL rows from it.

    ``skipped`` lists the files, with their ``num_rows``, whose every row
    group proves each row's ``(lsn, seq)`` is at or below ``mark``
    (``_at_or_below``); empty without a ``mark``.  ``ReplayJob`` passes
    the smallest mark of a ledger that covers every bucket, so the ledger
    filter would drop every data row of such a file."""
    import pyarrow.parquet as pq

    parts, skipped = [], {}
    for path, md in zip(files, footers or [None] * len(files)):
        if md is None:
            with filesystem.open_input_file(path) as f:
                md = pq.ParquetFile(f).metadata
        cols = [md.schema.column(j).path for j in range(md.num_columns)]
        if (mark is not None and "lsn" in cols and "seq" in cols
                and all(_at_or_below(md.row_group(i), cols.index("lsn"),
                                     cols.index("seq"), mark)
                        for i in range(md.num_row_groups))):
            skipped[path] = md.num_rows
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
            with filesystem.open_input_file(path) as f:
                parts.append(pq.ParquetFile(f, metadata=md).read_row_groups(
                    keep, columns=DDL_COLUMNS))
    if not parts:
        ddl = pa.schema([("lsn", pa.int64()), ("seq", pa.int64()),
                         ("op", pa.string()), ("ddl", pa.string())]).empty_table()
    else:
        ddl = pa.concat_tables(parts, promote_options="permissive")
    return FooterPlan(ddl, skipped)
