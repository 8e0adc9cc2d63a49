"""Envelope decode + format/enrichment stage (M1-M9 of SURVEY.md §2.2).

Reimplements, vectorized over zero-copy Arrow batches, what the reference
does per record on a single thread in `ChangeConsumer.handle/format*`
(`ChangeConsumer.java:196-308`) after `MapConverter.convert`:

- event filter (ignoreDdl / tombstone DROP / non-RAW drops non-envelope)
- INLINE  — row image (before if op=d else after), flattened
- RAW     — {key, value=envelope} structs kept intact
- WRAP    — row nested under ``record``, enrichments at top level
- addDeleted / addKey / addMetadata enrichment columns
- stream routing (SplitTable) as a ``_stream`` column (partition col)

Designed as a callable class for ``map_batches`` (stateless apart from
compiled regexes, so it also runs fine as plain tasks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from plugin_debezium_ray.config import (
    CaptureConfig,
    DeletedHandling,
    Format,
    KeyHandling,
    MetadataHandling,
    SplitTable,
)
from plugin_debezium_ray.envelope import DELETED_OPS, OP_DDL, OP_DELETE

STREAM_COL = "_stream"


def _combine(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    # zero-copy for the normal single-chunk map_batches case —
    # combine_chunks() always concatenates (copies wide image structs)
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def stream_names(source: pa.StructArray) -> pa.Array:
    """``db.table`` name of each envelope's stream; a null ``db`` or
    ``table`` reads as "" (so a null-db stream is ``.table``)."""
    return pc.binary_join_element_wise(
        pc.fill_null(source.field("db"), ""),
        pc.fill_null(source.field("table"), ""),
        ".",
    )


class EnvelopeDecoder:
    """``map_batches`` callable: envelope Arrow batch → formatted rows.

    Schema-evolution hooks: ``column_renames`` (old→new) and
    ``added_columns`` [(name, arrow_type, default)] are applied to the
    flattened image so segments written under an older payload schema read
    under the current one (the schema-history role,
    `AbstractDebeziumTask.java:535-538`).
    """

    def __init__(
        self,
        config: CaptureConfig | None = None,
        *,
        column_renames: dict[str, str] | None = None,
        added_columns: list[tuple[str, str, object]] | None = None,
    ):
        self.cfg = config or CaptureConfig()
        self.includes = self.cfg.compiled_includes()
        self.excludes = self.cfg.compiled_excludes()
        import re

        self.col_includes = [re.compile(p) for p in self.cfg.included_columns] or None
        self.col_excludes = [re.compile(p) for p in self.cfg.excluded_columns] or None
        self.column_renames = column_renames or {}
        self.added_columns = added_columns or []

    # -------------------------------------------------------- filtering

    def _filter(self, t: pa.Table) -> pa.Table:
        """Event filter — `ChangeConsumer.java:196-213` semantics.

        Non-envelope (DDL/schema-change) rows drop when ``ignoreDdl`` or
        whenever format != RAW; tombstones (null op AND null images) drop
        only under DeletedHandling.DROP — delete *envelopes* still flow.
        """
        cfg = self.cfg
        op = t["op"]
        mask = pa.array(np.ones(len(t), dtype=bool))
        is_ddl = pc.equal(op, OP_DDL).combine_chunks()
        is_ddl = pc.fill_null(is_ddl, False)
        if cfg.ignore_ddl or cfg.format != Format.RAW:
            mask = pc.and_(mask, pc.invert(is_ddl))
        # a tombstone has no op and no images; delete envelopes have op='d'
        # and a full before-image, so DROP never removes them (the reference
        # subtlety: tombstones are disabled at the source,
        # AbstractDebeziumTask.java:561-562)
        is_tombstone = pc.and_(
            pc.is_null(op).combine_chunks(),
            pc.and_(
                pc.is_null(t["after"]).combine_chunks(),
                pc.is_null(t["before"]).combine_chunks(),
            ),
        )
        if cfg.deleted == DeletedHandling.DROP:
            mask = pc.and_(mask, pc.invert(is_tombstone))
        if cfg.format != Format.RAW:
            # non-envelope messages (no op) never survive non-RAW formats
            mask = pc.and_(mask, pc.is_valid(op).combine_chunks())
        if self.includes or self.excludes:
            src = _combine(t["source"])
            full = pc.binary_join_element_wise(
                pc.fill_null(src.field("db"), ""),
                pc.fill_null(src.field("table"), ""),
                ".",
            )
            # vectorized include/exclude: one Arrow regex kernel per
            # pattern, OR-folded (`AbstractDebeziumTask.java:583-589`)
            full = pc.fill_null(full, "")
            if self.includes:
                inc = None
                for r in self.includes:
                    m = pc.match_substring_regex(full, r.pattern)
                    inc = m if inc is None else pc.or_(inc, m)
                mask = pc.and_(mask, inc)
            if self.excludes:
                exc = None
                for r in self.excludes:
                    m = pc.match_substring_regex(full, r.pattern)
                    exc = m if exc is None else pc.or_(exc, m)
                mask = pc.and_(mask, pc.invert(exc))
        if cfg.max_lsn is not None:
            mask = pc.and_(mask, pc.less_equal(t["lsn"], cfg.max_lsn).combine_chunks())
        return t.filter(mask)

    # -------------------------------------------------------- helpers

    def _image(self, t: pa.Table) -> pa.StructArray:
        """before if op=DELETE else after — `ChangeConsumer.java:250-260`."""
        is_del = pc.equal(t["op"], OP_DELETE).combine_chunks()
        is_del = pc.fill_null(is_del, False)
        return pc.if_else(is_del, _combine(t["before"]), _combine(t["after"]))

    def _deleted_col(self, t: pa.Table) -> pa.Array:
        """op ∈ {DELETE, TRUNCATE} — `ChangeConsumer.java:262-274`."""
        return pc.fill_null(
            pc.is_in(t["op"], value_set=pa.array(list(DELETED_OPS))), False
        ).combine_chunks()

    def _metadata_col(self, t: pa.Table) -> pa.Array:
        """op + transaction + source + timestamp — `ChangeConsumer.java:282-308`."""
        src = _combine(t["source"])
        return pa.StructArray.from_arrays(
            [
                _combine(t["op"]),
                _combine(t["lsn"]),
                _combine(t["seq"]),
                _combine(t["ts_ms"]),
                src.field("db"),
                src.field("table"),
                src.field("snapshot"),
                _combine(t["transaction"]),
            ],
            names=["op", "lsn", "seq", "ts_ms", "db", "table", "snapshot", "transaction"],
        )

    def _split_stream(self, t: pa.Table) -> pa.Array:
        """SplitTable routing — `ChangeConsumer.java:147-177`."""
        cfg = self.cfg
        n = len(t)
        if cfg.split_table == SplitTable.OFF:
            return pa.array(["data"] * n)
        src = _combine(t["source"])
        if cfg.split_table == SplitTable.DATABASE:
            return pc.fill_null(src.field("db"), "")
        return stream_names(src)

    def _project_columns(self, cols: dict[str, pa.Array]) -> dict[str, pa.Array]:
        """includedColumns/excludedColumns regex projection
        (`AbstractDebeziumTask.java:583-589`), capture-time in the
        reference, applied at decode here."""
        if not self.col_includes and not self.col_excludes:
            return cols
        out = {}
        for name, arr in cols.items():
            if self.col_includes and not any(r.search(name) for r in self.col_includes):
                continue
            if self.col_excludes and any(r.search(name) for r in self.col_excludes):
                continue
            out[name] = arr
        return out

    def _evolve(self, cols: dict[str, pa.Array], n: int) -> dict[str, pa.Array]:
        """Apply schema-registry view: renames then additive columns."""
        if self.column_renames:
            cols = {self.column_renames.get(k, k): v for k, v in cols.items()}
        for name, typ, default in self.added_columns:
            if name not in cols:
                at = pa.type_for_alias(typ) if isinstance(typ, str) else typ
                if default is None:
                    cols[name] = pa.nulls(n, at)
                else:
                    cols[name] = pa.array([default] * n, type=at)
        return cols

    # -------------------------------------------------------- formats

    def __call__(self, t: pa.Table) -> pa.Table:
        t = self._filter(t)
        cfg = self.cfg
        if cfg.format == Format.RAW:
            return self._format_raw(t)
        if cfg.format == Format.WRAP:
            return self._format_wrap(t)
        return self._format_inline(t)

    def _enrich(self, cols: dict[str, pa.Array], t: pa.Table) -> dict[str, pa.Array]:
        cfg = self.cfg
        n = len(t)
        if cfg.deleted == DeletedHandling.ADD_FIELD:
            cols[cfg.deleted_field_name] = self._deleted_col(t)
        elif cfg.deleted == DeletedHandling.NULL:
            cols[cfg.deleted_field_name] = pa.nulls(n, pa.bool_())
        if cfg.metadata == MetadataHandling.ADD_FIELD:
            cols[cfg.metadata_field_name] = self._metadata_col(t)
        elif cfg.metadata == MetadataHandling.NULL:
            cols[cfg.metadata_field_name] = pa.nulls(
                n, self._metadata_col(t.slice(0, 0)).type
            )
        cols[STREAM_COL] = self._split_stream(t)
        return cols

    def _format_inline(self, t: pa.Table) -> pa.Table:
        """INLINE (default): flattened row image + enrichments —
        `ChangeConsumer.java:225-235`."""
        img = self._image(t)
        ptype = img.type
        fields = [ptype.field(i) for i in range(ptype.num_fields)]
        flat = img.flatten()
        cols = dict(zip([f.name for f in fields], flat))
        # addKey: merge key fields into the row (ChangeConsumer.java:276-280).
        # flatten() (not .field()) so a NULL key struct — keyless op=m
        # message events — yields null key columns instead of leaking the
        # raw child values under the mask
        if self.cfg.key == KeyHandling.ADD_FIELD:
            key = _combine(t["key"])
            kt = key.type
            kflat = key.flatten()
            for i in range(kt.num_fields):
                kname = kt.field(i).name
                kval = kflat[i]
                cols[kname] = (
                    pc.coalesce(cols[kname], kval) if kname in cols else kval
                )
        else:
            kt = _combine(t["key"]).type
            for i in range(kt.num_fields):
                cols.pop(kt.field(i).name, None)
        cols = self._project_columns(cols)
        cols = self._evolve(cols, len(t))
        cols = self._enrich(cols, t)
        return pa.Table.from_arrays(list(cols.values()), names=list(cols.keys()))

    def _format_raw(self, t: pa.Table) -> pa.Table:
        """RAW: {key, value} + deleted — `ChangeConsumer.java:215-223`."""
        value = pa.StructArray.from_arrays(
            [_combine(t[c]) for c in ("op", "ts_ms", "before", "after", "source", "transaction")],
            names=["op", "ts_ms", "before", "after", "source", "transaction"],
        )
        cols: dict[str, pa.Array] = {"key": _combine(t["key"]), "value": value}
        cols = self._enrich(cols, t)
        return pa.Table.from_arrays(list(cols.values()), names=list(cols.keys()))

    def _format_wrap(self, t: pa.Table) -> pa.Table:
        """WRAP: row under ``record``, enrichments top-level —
        `ChangeConsumer.java:237-248`."""
        img = self._image(t)
        ptype = img.type
        fields = [ptype.field(i) for i in range(ptype.num_fields)]
        flat = img.flatten()
        cols = dict(zip([f.name for f in fields], flat))
        cols = self._project_columns(cols)
        cols = self._evolve(cols, len(t))
        record = pa.StructArray.from_arrays(
            list(cols.values()), names=list(cols.keys())
        )
        out: dict[str, pa.Array] = {"record": record}
        if self.cfg.key == KeyHandling.ADD_FIELD:
            out["key"] = _combine(t["key"])
        out = self._enrich(out, t)
        return pa.Table.from_arrays(list(out.values()), names=list(out.keys()))
