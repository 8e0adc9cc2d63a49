"""Capture configuration — the property surface of the reference task.

Mirrors the declarative property schema of the reference
(`/root/reference/plugin-debezium/src/main/java/io/kestra/plugin/debezium/AbstractDebeziumInterface.java:11-163`
and the enums in `AbstractDebeziumTask.java:797-823`), re-expressed as a
plain dataclass consumed by the Ray Data stages.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field


class Format(enum.Enum):
    """Output format — `AbstractDebeziumTask.java:807-811`."""

    RAW = "RAW"
    INLINE = "INLINE"  # reference default
    WRAP = "WRAP"


class DeletedHandling(enum.Enum):
    """How deletions surface — `AbstractDebeziumTask.java:813-817`.

    ADD_FIELD: add a boolean column (default name ``deleted``).
    NULL: add the column but always null.
    DROP: drop *tombstone* (null-value) messages.  NOTE the reference
    subtlety (`ChangeConsumer.java:196-213` + tombstones disabled at
    `AbstractDebeziumTask.java:561-562`): delete *envelopes* (op=d) still
    flow through under DROP — only null-payload tombstone messages are
    dropped.  We reproduce that faithfully.
    """

    ADD_FIELD = "ADD_FIELD"  # reference default
    NULL = "NULL"
    DROP = "DROP"


class KeyHandling(enum.Enum):
    """Primary-key merge — `AbstractDebeziumTask.java:797-800`."""

    ADD_FIELD = "ADD_FIELD"  # reference default
    DROP = "DROP"


class MetadataHandling(enum.Enum):
    """Metadata enrichment — `AbstractDebeziumTask.java:802-805`."""

    ADD_FIELD = "ADD_FIELD"  # reference default
    NULL = "NULL"
    DROP = "DROP"


class SplitTable(enum.Enum):
    """Stream routing — `AbstractDebeziumTask.java:819-823`,
    `ChangeConsumer.java:162-177`."""

    OFF = "OFF"  # single stream "data"
    DATABASE = "DATABASE"  # stream per db
    TABLE = "TABLE"  # stream per db.table (reference default)


class SnapshotMode(enum.Enum):
    """Snapshot modes — `plugin-debezium-mysql/.../MysqlInterface.java:43-53`.

    Deprecated aliases INITIAL_ONLY->NO_DATA-style remapping is done in
    `from_string` (reference remaps at `mysql/Capture.java:85-89`).
    """

    INITIAL = "INITIAL"  # bulk-load source table then apply tail
    INITIAL_ONLY = "INITIAL_ONLY"  # load only, no tail
    WHEN_NEEDED = "WHEN_NEEDED"
    NEVER = "NEVER"  # tail only
    ALWAYS = "ALWAYS"
    NO_DATA = "NO_DATA"  # schema only
    RECOVERY = "RECOVERY"

    @classmethod
    def from_string(cls, s: str) -> "SnapshotMode":
        s = s.strip().upper()
        # deprecated aliases, remapped like mysql/Capture.java:85-89
        aliases = {"SCHEMA_ONLY": "NO_DATA", "SCHEMA_ONLY_RECOVERY": "RECOVERY"}
        return cls[aliases.get(s, s)]


class OffsetCommitMode(enum.Enum):
    """Checkpoint cadence — `AbstractDebeziumRealtimeTrigger.java:271-274`."""

    ON_EACH_BATCH = "ON_EACH_BATCH"  # commit after every applied segment group
    ON_STOP = "ON_STOP"  # commit once at end of replay


@dataclass
class CaptureConfig:
    """One config object for a replay/capture job.

    ``key_cols`` are the primary-key columns of the maintained table
    (the reference's key message fields, `ChangeConsumer.java:276-280`);
    ordering columns are always ``(lsn, seq)`` (commit-LSN, event-seq).
    """

    key_cols: tuple[str, ...] = ("repo", "path")
    format: Format = Format.INLINE
    deleted: DeletedHandling = DeletedHandling.ADD_FIELD
    deleted_field_name: str = "deleted"
    key: KeyHandling = KeyHandling.ADD_FIELD
    metadata: MetadataHandling = MetadataHandling.ADD_FIELD
    metadata_field_name: str = "metadata"
    split_table: SplitTable = SplitTable.TABLE
    ignore_ddl: bool = True  # AbstractDebeziumTask.java:96-97
    # include/exclude regex lists (AbstractDebeziumTask.java:583-589)
    included_tables: list[str] = field(default_factory=list)
    excluded_tables: list[str] = field(default_factory=list)
    included_columns: list[str] = field(default_factory=list)
    excluded_columns: list[str] = field(default_factory=list)
    # stop conditions (AbstractDebeziumTask.java:124-163) — expressed as
    # segment-range / record bounds on a finite replay
    max_records: int | None = None
    max_lsn: int | None = None  # replay the log only up to this LSN (inclusive)
    #: soft wall budget for multi-segment replays (ST7 maxDuration analogue;
    #: checked between segment groups, like the reference's 1 s poll loop)
    max_duration_seconds: float | None = None
    #: idle stop for the streaming surface (``iter_events``): stop when no
    #: record arrives for this long — the reference's ``maxWait``
    #: (`AbstractDebeziumTask.java:138-144`, default 10 s, soft limit).
    #: ``None`` = no idle stop (bounded replays drain regardless).
    max_wait_seconds: float | None = None
    #: wall budget for the snapshot phase — the reference's
    #: ``maxSnapshotDuration`` (`AbstractDebeziumTask.java:146-152`,
    #: default 1 h, soft: checked at the phase boundary like the 1 s poll
    #: loop).  When set, the snapshot applies as its own atomic commit and
    #: an over-budget snapshot stops the capture before the streaming
    #: phase (``ReplayResult.stopped_reason``); when ``None`` the snapshot
    #: unions into the stream (single shuffle — the fast path).
    max_snapshot_duration_seconds: float | None = None
    snapshot_mode: SnapshotMode = SnapshotMode.INITIAL
    offset_commit_mode: OffsetCommitMode = OffsetCommitMode.ON_STOP
    # physical knobs
    num_buckets: int = 64  # primary-key hash partitions of the lake table
    batch_size: int = 65536

    def compiled_includes(self) -> list[re.Pattern] | None:
        return [re.compile(p) for p in self.included_tables] or None

    def compiled_excludes(self) -> list[re.Pattern] | None:
        return [re.compile(p) for p in self.excluded_tables] or None


# the reference's built-in stop-condition defaults
# (`AbstractDebeziumTask.java:138-152`); our dataclass leaves them None
# (bounded replays need no idle stop) — callers wanting reference-default
# behavior use these
REFERENCE_DEFAULT_MAX_WAIT_SECONDS = 10.0
REFERENCE_DEFAULT_MAX_SNAPSHOT_DURATION_SECONDS = 3600.0


def join_properties(value: str | list[str] | None) -> str | None:
    """Scalar-or-list include/exclude property joiner (M10).

    Comma-joins a list, escaping embedded commas — mirrors
    `AbstractDebeziumTask.java:600-608`.
    """
    if value is None:
        return None
    if isinstance(value, str):
        return value
    return ",".join(v.replace(",", "\\,") for v in value)
