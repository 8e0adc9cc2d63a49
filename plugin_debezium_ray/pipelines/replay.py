"""ReplayJob — the engine's task/trigger surface (SURVEY.md §3).

One job object with the reference's three surfaces
(`AbstractDebeziumInterface` shared property schema, SURVEY.md §2.8):

- ``run()``        — batch capture (Capture.run, `AbstractDebeziumTask.java:185-284`)
- ``poll()``       — polling trigger: incremental run, result only when
                     events were applied (`AbstractDebeziumTrigger`, size>0 gate)
- ``iter_events()``— realtime trigger: per-record streaming iterator
                     (`AbstractDebeziumRealtimeTrigger.java:117-186`)

Every commit runs ONE core, ``run``:

    _prepare  restore the parent commit once (ledger, prior bucket files
              and fingerprints, version, this attempt's data dir), apply
              ``max_records`` and the ``snapshot_mode`` rules (NO_DATA,
              the sub-commit of ``max_snapshot_duration``), replay schema
              history into the registry, and cut the input into decode
              units: a file read's own read tasks, less the files the
              footer skip drops; any other input is materialized once
              and its blocks are the units.  ``run_from_paths`` reads
              through ``ParquetFiles`` (``sources/parquet_files.py``),
              which opened each footer once when the read was built: the
              DDL plan and footer skip reuse those footers, and no Ray
              task runs to plan the read
    route     the units are cut into row-balanced lanes of contiguous
              units, about one per CPU; one ``_decode_unit`` task per
              lane decodes its units in order (decode + ledger filter +
              LWW pre-reduce), reading the next while it projects the
              current, and splits the lane's rows by bucket range once;
              each range's merge home merges all its buckets in one
              pass of ``BucketMerge`` (one sort by (bucket, key), each
              bucket file a slice, deterministic Parquet writes) —
              ``pipelines/streaming_apply.route``
    _commit   stats rows → manifest → put-if-absent manifest create

There is one route and two merge homes.  With no session open, one plain
Ray task per bucket range merges that range's slices and exits.  While a
``StreamingSession`` is open on the job, every commit of every entry
point — ``run``, ``run_segments``, ``run_from_paths``, ``run_source``,
``poll``, ``follow_apply`` — hands its slices to the session's
``MergeShard`` actors, which outlive the commit and keep the tables
they wrote.  Both homes write byte-identical bucket files, so they are
interchangeable on one lake, even within one session.
"""

from __future__ import annotations

import copy
import os
import secrets
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import pyarrow as pa

import ray
import ray.data

from plugin_debezium_ray.config import CaptureConfig, OffsetCommitMode, SnapshotMode
from plugin_debezium_ray.envelope import OP_DDL, payload_fields_of
from plugin_debezium_ray.pipelines.streaming_apply import route
from plugin_debezium_ray.stages.apply import APPLY_COLUMNS, project_for_apply
from plugin_debezium_ray.stages.decode import EnvelopeDecoder
from plugin_debezium_ray.state.checkpoint import (
    CheckpointManager, bucket_fingerprints_of, bucket_paths_of, build_manifest,
    ledger_of,
)
from plugin_debezium_ray.state.schema_registry import (
    DDL_COLUMNS,
    SchemaRegistry,
    ddl_rows_from_parquet,
    registry_from_envelopes,
)


@dataclass
class ReplayResult:
    version: int
    events_applied: int  # LWW winners applied (upserts + deletes)
    events_seen: int  # raw records consumed past the ledger (Output.size)
    buckets_touched: int
    manifest_path: str | None
    table_dir: str
    elapsed_seconds: float
    metrics: dict = field(default_factory=dict)
    #: soft stop condition that ended the capture early, if any
    #: ("max_snapshot_duration" — AbstractDebeziumTask.java:611-634)
    stopped_reason: str | None = None

    @property
    def size(self) -> int:  # the reference Output.size analogue
        return self.events_seen


#: the snapshot modes that load ``snapshot`` into a lake with no commit yet
_SNAPSHOT_MODES = (
    SnapshotMode.INITIAL,
    SnapshotMode.ALWAYS,
    SnapshotMode.WHEN_NEEDED,
    SnapshotMode.INITIAL_ONLY,
)


@dataclass
class _Prepared:
    """One commit as ``ReplayJob._prepare`` set it up; ``route`` and
    ``_commit`` read only this."""

    cfg: CaptureConfig
    parent: dict | None
    ledger: dict
    prior_paths: dict
    prior_fps: dict
    version: int
    #: this attempt's data directory name, ``v{N:06d}-{8 hex}``
    commit_id: str
    reg: SchemaRegistry
    #: the decode units, ``(ray_remote_args, ReadTask or block ref,
    #: rows)`` (rows None when unknown); none under NO_DATA (commit the
    #: schema only)
    units: list
    data_dir: str
    fingerprint_col: str | None
    metrics: dict
    #: events a separately committed snapshot phase consumed
    snapshot_seen: int = 0

    def project(self):
        """The decode tasks' fn: decode + ledger filter + pre-reduce."""
        cfg = self.cfg
        return project_for_apply(
            cfg.key_cols,
            cfg.num_buckets,
            ledger=self.ledger,
            max_lsn=cfg.max_lsn,
            renames=self.reg.rename_map(),
            added_columns=self.reg.added_columns(),
        )

    def merge_kw(self) -> dict:
        """This commit's ``BucketMerge`` / ``MergeShard.finalize`` args."""
        return dict(
            out_dir=self.data_dir,
            commit_id=self.commit_id,
            prior_paths=self.prior_paths,
            prior_fingerprints=self.prior_fps,
            ledger=self.ledger,
            fingerprint_col=self.fingerprint_col,
            renames=self.reg.rename_map(),
        )


#: the columns a materialized input keeps: what the decode tasks and the
#: DDL scan read
_KEPT_COLUMNS = (*APPLY_COLUMNS, "ddl")


def _narrow(t: pa.Table) -> pa.Table:
    """A block's ``_KEPT_COLUMNS``, each block on its own: the blocks of
    a union may carry different columns."""
    return t.select([c for c in _KEPT_COLUMNS if c in t.column_names])


@ray.remote
def _scan_block(t: pa.Table) -> tuple:
    """A materialized block's schema, None when it holds no row (a row
    filter can leave a block without columns), its DDL rows
    (``DDL_COLUMNS``; None when it has no ``ddl`` column) and its row
    count."""
    import pyarrow.compute as pc

    sch = t.schema if t.num_rows else None
    if "ddl" not in t.column_names:
        return sch, None, t.num_rows
    return sch, t.select(DDL_COLUMNS).filter(
        pc.fill_null(pc.equal(t["op"], OP_DDL), False)), t.num_rows


class ReplayJob:
    """Applies an envelope stream into the lake table at ``table_dir``.

    ``table_dir`` layout (resumable output, SURVEY.md 'Resumable output'):
        data/v{N}-{hex}/bucket=NNNNN.parquet — one attempt at commit N
        _meta/manifest-v{N}.json — commit N, created put-if-absent
    """

    def __init__(
        self,
        config: CaptureConfig,
        table_dir: str,
        *,
        connector_id: str | None = None,
        needs_schema_history: bool = True,
        fingerprint_col: str = "content",
    ):
        self.cfg = config
        self.table_dir = table_dir
        self.connector_id = connector_id
        self.ckpt = CheckpointManager(
            table_dir, needs_schema_history=needs_schema_history
        )
        self.fingerprint_col = fingerprint_col
        #: the open ``StreamingSession``, the merge home of every commit
        #: while it is open; None: plain merge tasks
        self._session = None

    @classmethod
    def for_task(
        cls,
        config: CaptureConfig,
        table_dir: str,
        *,
        namespace: str,
        flow: str,
        task: str,
        iteration: str | int | None = None,
        override_connector_id: str | None = None,
        **kw,
    ) -> "ReplayJob":
        """The reference task lifecycle steps 1-2 (SURVEY.md §3.1):
        derive the stable connector identity from (namespace, flow, task,
        iteration) — so N concurrent iterations never collide
        (`AbstractDebeziumTask.java:298-343`) — and migrate any legacy
        checkpoint state in place, idempotently and best-effort
        (`:399-518`), before the job runs."""
        from plugin_debezium_ray.state.identity import connector_id
        from plugin_debezium_ray.state.migration import migrate_table_dir

        cid = override_connector_id or connector_id(
            namespace, flow, task, iteration
        )
        migrate_table_dir(table_dir, cid, override_id=override_connector_id)
        return cls(config, table_dir, connector_id=cid, **kw)

    # ------------------------------------------------------------- run

    def run(
        self,
        envelopes: "ray.data.Dataset",
        *,
        snapshot: "ray.data.Dataset | None" = None,
        ddl_source: "bool | None" = None,
    ) -> ReplayResult:
        """One batch capture, the apply core behind every entry point:
        restore state → schema replay → route → atomic commit, merged by
        the open session's shards or by plain merge tasks.  Idempotent:
        rerunning with the same envelopes applies zero events (the
        CaptureTest.java:97-99 contract).

        The input decides where the commit's DDL events come from.  A
        ``read_parquet``, or a union of them, without a row ``filter=``
        has them planned from its own files' footers
        (``ddl_rows_from_parquet``), even when the reads prune the
        ``ddl`` column.  Any other file read is scanned for them if it
        has a ``ddl`` column; any other input is materialized, and its
        blocks are scanned.  Without DDL rows the registry carries
        forward.  ``ddl_source=False`` says the input carries no DDL and
        spares the scan."""
        return self._run(time.monotonic(), envelopes, snapshot=snapshot,
                         ddl_source=ddl_source)

    def _run(self, t0: float, envelopes: "ray.data.Dataset", *,
             snapshot: "ray.data.Dataset | None" = None,
             ddl_source: "bool | None" = None) -> ReplayResult:
        """``run`` on a clock started at ``t0``: ``wall_seconds`` and
        ``elapsed_seconds`` count from there."""
        if ddl_source is not None and ddl_source is not False:
            raise TypeError("ddl_source must be None or False")
        prep = self._prepare(envelopes, snapshot, ddl_source)
        if isinstance(prep, ReplayResult):
            return prep  # the snapshot phase overran its budget
        rows, metrics = route(prep, self._session)
        return self._commit(prep, rows, metrics, t0)

    def _prepare(
        self,
        envelopes: "ray.data.Dataset",
        snapshot: "ray.data.Dataset | None",
        ddl_source: "bool | None",
    ) -> "_Prepared | ReplayResult":
        """Everything a commit decides before routing: restore the parent
        commit, apply the ``max_records`` and ``snapshot_mode`` rules,
        replay schema history into the registry (ST3), and cut the input
        into decode units.  ``registry_seconds`` times the last two, a
        non-file input's materialize included.

        Under a ``max_snapshot_duration_seconds`` budget the snapshot
        phase first commits on its own; when it overruns the budget,
        that commit's result comes back instead."""
        cfg = self.cfg
        mode = cfg.snapshot_mode
        parent = self.ckpt.restore()
        if parent is not None or mode not in _SNAPSHOT_MODES:
            snapshot = None  # resuming, or a mode that never snapshots
        metrics: dict = {}
        snapshot_seen = 0
        if (
            snapshot is not None
            and cfg.max_snapshot_duration_seconds is not None
            and mode != SnapshotMode.INITIAL_ONLY
        ):
            # snapshot wall budget (maxSnapshotDuration,
            # AbstractDebeziumTask.java:218-233): the snapshot phase
            # runs as its OWN atomic commit; if it overruns the soft
            # budget, the capture stops before the streaming phase —
            # the committed snapshot state resumes on the next run.
            sub = copy.copy(self)
            sub.cfg = replace(
                cfg,
                snapshot_mode=SnapshotMode.NEVER,
                max_snapshot_duration_seconds=None,
                max_records=None,  # snapshot is exempt from maxRecords
            )
            t_snap = time.monotonic()
            snap_res = sub.run(snapshot, ddl_source=False)
            snap_elapsed = time.monotonic() - t_snap
            metrics["snapshot_seconds"] = round(snap_elapsed, 3)
            if snap_elapsed > cfg.max_snapshot_duration_seconds:
                snap_res.stopped_reason = "max_snapshot_duration"
                snap_res.metrics.update(metrics)
                return snap_res
            metrics["snapshot_events"] = snapshot_seen = snap_res.events_seen
            parent, snapshot = self.ckpt.restore(), None

        t_registry = time.monotonic()
        prior = (parent or {}).get("schema")
        ledger = ledger_of(parent)
        # every data row at or below the smallest mark of a ledger that
        # covers every bucket is one the ledger filter drops
        marks = [ledger.get(b) for b in range(cfg.num_buckets)]
        mark = min(marks) if None not in marks else None
        reads = _file_reads(envelopes)
        ddl, skipped = None, {}
        if ddl_source is None and reads and all(r.parquet for r in reads):
            plans = [ddl_rows_from_parquet(*r.parquet, max_lsn=cfg.max_lsn,
                                           mark=mark) for r in reads]
            ddl = pa.concat_tables([p.ddl for p in plans],
                                   promote_options="permissive")
            # the rows of the row groups the footer planner read
            metrics["registry_rows_read"] = ddl.num_rows
            for p in plans:
                skipped.update(p.skipped)

        ds = envelopes
        if mode != SnapshotMode.NO_DATA:
            if cfg.max_records is not None:
                # soft record bound — post-snapshot only, like
                # AbstractDebeziumTask.java:617-621 (snapshot joins below it)
                ds = ds.limit(cfg.max_records)
            if snapshot is not None:
                ds = snapshot if mode == SnapshotMode.INITIAL_ONLY else snapshot.union(ds)
        ds_reads = reads if ds is envelopes else _file_reads(ds)
        if ds_reads is not None:
            units = _read_units(ds_reads, skipped, metrics)
            sch = (reads or ds_reads)[0].schema
            if ddl is None and ddl_source is None and reads and "ddl" in sch.names:
                ddl = envelopes  # a filtered read: the scan rule
        else:
            # one run of the input's plan: its blocks are the units, and
            # its schema and DDL rows are read from them
            blocks = ds.map_batches(_narrow, batch_format="pyarrow",
                                    batch_size=None).materialize().to_arrow_refs()
            scans = ray.get([_scan_block.remote(b) for b in blocks])
            units = [({}, b, n) for b, (sch, _, n) in zip(blocks, scans) if sch]
            metrics.update(files_skipped=0, rows_skipped=0)
            sch = (reads[0].schema if reads
                   else next((sch for sch, _, _ in scans if sch), None))
            found = [t for _, t, _ in scans if t is not None]
            if ddl is None and ddl_source is None and found:
                ddl = pa.concat_tables(found, promote_options="permissive")
        base_fields = [] if prior or sch is None else [
            (f.name, str(f.type))
            for f in payload_fields_of(pa.schema(zip(sch.names, sch.types)))
        ]
        if ddl is None:
            reg = (SchemaRegistry.from_snapshot(prior) if prior
                   else SchemaRegistry(base_fields))
        else:
            reg = registry_from_envelopes(
                ddl, base_fields, prior_snapshot=prior, max_lsn=cfg.max_lsn
            )
        metrics["registry_seconds"] = round(time.monotonic() - t_registry, 3)
        version = int(parent["version"]) + 1 if parent else 1
        return _Prepared(
            cfg=cfg,
            parent=parent,
            ledger=ledger,
            prior_paths=bucket_paths_of(parent),
            prior_fps=bucket_fingerprints_of(parent),
            version=version,
            commit_id=f"v{version:06d}-{secrets.token_hex(4)}",
            reg=reg,
            # schema-only: commit the registry snapshot, apply nothing
            units=[] if mode == SnapshotMode.NO_DATA else units,
            data_dir=os.path.join(self.table_dir, "data"),
            fingerprint_col=self.fingerprint_col,
            metrics=metrics,
            snapshot_seen=snapshot_seen,
        )

    def _commit(
        self, prep: "_Prepared", stats_rows: list[dict], metrics: dict, t0: float
    ) -> ReplayResult:
        """Fold the routed stats rows into the next manifest and commit
        it atomically — the one manifest write of every entry point;
        ``CommitConflict`` if another writer committed this version."""
        manifest = build_manifest(
            version=prep.version,
            connector_id=self.connector_id,
            stats_rows=stats_rows,
            parent=prep.parent,
            schema_snapshot=prep.reg.snapshot(),
            extra_metrics={
                "wall_seconds": time.monotonic() - t0,
                **prep.metrics,
                **metrics,
            },
        )
        mpath = self.ckpt.save(manifest)
        m = manifest["metrics"]
        return ReplayResult(
            prep.version,
            int(m["events_applied"]),
            int(m["events_seen"]) + prep.snapshot_seen,
            int(m["buckets_touched"]),
            mpath,
            self.table_dir,
            time.monotonic() - t0,
            metrics=m,
        )

    def run_source(self, source, **kw) -> ReplayResult:
        """Run any object implementing the Source protocol (§2.8) —
        the 'one class per connector' extension surface.  The commit's
        clock starts before the source builds its inputs, so
        ``wall_seconds`` includes planning its reads."""
        t0 = time.monotonic()
        return self._run(
            t0,
            source.envelopes(),
            snapshot=source.snapshot(),
            ddl_source=source.ddl_source(),
            **kw,
        )

    def run_from_paths(
        self,
        wal_paths: str | list[str],
        *,
        snapshot_paths: str | list[str] | None = None,
        **kw,
    ) -> ReplayResult:
        """Replay Parquet WAL segments by path (a file, a list of files or
        a directory): ``run_source`` of a ``ParquetWalSource``, whose
        ``ParquetFiles`` reads keep only ``APPLY_COLUMNS`` and open each
        footer once; the commit plans its DDL events and footer skip
        from those footers and runs no Ray Data read planning."""
        from plugin_debezium_ray.sources.protocol import ParquetWalSource

        return self.run_source(
            ParquetWalSource(wal_paths, snapshot_paths=snapshot_paths), **kw
        )

    def run_segments(
        self,
        segment_groups: list["ray.data.Dataset"],
        **kw,
    ) -> list[ReplayResult]:
        """ON_EACH_BATCH commit cadence (ST4): one atomic commit per
        segment group, with the ``max_duration_seconds`` budget checked
        between commits; ON_STOP is a single ``run`` over the union.
        Both cadences converge to the identical final state
        (idempotency).

        PRECONDITION: segment groups must be applied in ascending LSN
        order (the log-tail contract, `ChangeConsumer.java:70-87`).  The
        offset ledger is a per-bucket high-water mark, and the filter
        drops an event only when its ``(lsn, seq)`` is at or below the
        mark of the event's own bucket; an older segment applied AFTER a
        newer one loses exactly the events whose buckets the newer one
        carried past them.  The footer skip adds no ordering assumption:
        it drops a file only when every row is at or below the smallest
        mark over all buckets, so only rows the filter drops.  Within
        one group, any order is fine (the merge sorts by (lsn, seq) per
        key).  No segment group commits nothing under either cadence."""
        if not segment_groups:
            return []
        if self.cfg.offset_commit_mode == OffsetCommitMode.ON_STOP:
            ds = segment_groups[0]
            for other in segment_groups[1:]:
                ds = ds.union(other)
            return [self.run(ds, **kw)]
        # ON_EACH_BATCH honors the soft wall budget between commits —
        # the maxDuration stop condition (AbstractDebeziumTask.java:611-634);
        # a later run resumes from the committed ledger.
        t0 = time.monotonic()
        out = []
        for g in segment_groups:
            if (
                self.cfg.max_duration_seconds is not None
                and out
                and time.monotonic() - t0 >= self.cfg.max_duration_seconds
            ):
                break
            out.append(self.run(g, **kw))
        return out

    def streaming_session(self, *, num_shards: int | None = None) -> "object":
        """Open the job's shard pool (``num_shards`` MergeShard actors):
        until it is closed, every commit of this job merges on its
        shards instead of plain merge tasks.  ``close()``/context manager
        tears the pool down — the engine handle a continuous ingester
        holds for its lifetime.  See
        ``pipelines/streaming_apply.StreamingSession``."""
        from plugin_debezium_ray.pipelines.streaming_apply import (
            StreamingSession,
        )

        return StreamingSession(self, num_shards=num_shards)

    # ------------------------------------------------------------ poll

    def poll(self, envelopes: "ray.data.Dataset", **kw) -> ReplayResult | None:
        """Polling-trigger surface: returns the result only if events were
        applied (`AbstractDebeziumTrigger` evaluates to an execution only
        when size > 0, Trigger.java:99-112)."""
        res = self.run(envelopes, **kw)
        return res if res.size > 0 else None

    # ------------------------------------------------------ streaming

    def iter_events(
        self,
        envelopes: "ray.data.Dataset",
        *,
        batch_size: int = 4096,
        max_wait_seconds: float | None = None,
        max_duration_seconds: float | None = None,
        stop_event=None,
    ):
        """Realtime-trigger surface: yields ``{"stream": s, "data": row}``
        per formatted record, streaming with backpressure (K2,
        `ChangeConsumer.java:147-160`).  Never materializes the stream.

        ``max_wait_seconds`` (defaults to ``cfg.max_wait_seconds``) is the
        idle stop: iteration ends when no batch arrives for that long —
        the reference's ``maxWait`` (`AbstractDebeziumTask.java:138-144,
        626-630`, soft limit).  ``max_duration_seconds`` bounds the total
        wall time (``maxDuration``, `:617-624`).  ``stop_event`` is a
        caller-held ``threading.Event``-style handle (anything with
        ``is_set()``): setting it ends iteration promptly mid-stream and
        releases the underlying dataset stream — the external
        ``stop()``/``kill()`` handoff of the reference's realtime trigger
        (`AbstractDebeziumRealtimeTrigger.java:215-256`)."""
        decoder = EnvelopeDecoder(self.cfg)
        decoded = envelopes.map_batches(
            decoder, batch_format="pyarrow", batch_size=batch_size
        )
        max_wait = (
            max_wait_seconds
            if max_wait_seconds is not None
            else self.cfg.max_wait_seconds
        )
        max_dur = (
            max_duration_seconds
            if max_duration_seconds is not None
            else self.cfg.max_duration_seconds
        )
        batches = decoded.iter_batches(
            batch_size=batch_size, batch_format="pyarrow"
        )
        if max_wait is None and max_dur is None and stop_event is None:
            gen = batches
        else:
            gen = _idle_bounded(batches, max_wait, max_dur, stop_event)
        try:
            for batch in gen:
                streams = batch["_stream"].to_pylist()
                rows = batch.drop_columns(["_stream"]).to_pylist()
                for s, row in zip(streams, rows):
                    # per-record stop check: a batch can hold thousands of
                    # rows, and the reference's stop() halts the consumer
                    # at record granularity (ChangeConsumer.java:147-160)
                    if stop_event is not None and stop_event.is_set():
                        return
                    yield {"stream": s, "data": row}
        finally:
            close = getattr(gen, "close", None)
            if callable(close):
                close()  # join the _idle_bounded producer deterministically

    # ----------------------------------------------------- follow mode

    def _scan_new_segments(self, wal_dir: str, seen: set) -> list:
        """Lexicographically-ordered parquet segments under ``wal_dir``
        not processed yet.  Producers must write-then-rename (atomic
        publish) — a half-written file that sorts into view would
        otherwise be read mid-write; ``*.tmp``/dotfiles are ignored."""
        import glob as _glob

        paths = sorted(_glob.glob(os.path.join(wal_dir, "*.parquet")))
        return [
            p
            for p in paths
            if os.path.basename(p) not in seen
            and not os.path.basename(p).startswith(".")
        ]

    def _watch_segments(
        self,
        wal_dir: str,
        *,
        poll_interval: float,
        max_wait_seconds: float | None,
        max_duration_seconds: float | None,
        stop_event,
    ):
        """Shared watch loop of both follow surfaces: yields each batch
        of newly published segment paths as ``(paths, wall_left)``.
        Returns on the idle stop (no NEW segment for ``max_wait``), the
        total wall bound, or the external stop handle (all defaulting to
        the config values).  The idle clock restarts when the consumer
        RESUMES the generator — time it spent draining/committing a
        yielded batch is consume time, never idle time."""
        max_wait = (
            max_wait_seconds
            if max_wait_seconds is not None
            else self.cfg.max_wait_seconds
        )
        max_dur = (
            max_duration_seconds
            if max_duration_seconds is not None
            else self.cfg.max_duration_seconds
        )
        seen: set = set()
        t0 = time.monotonic()
        last_new = t0

        def stopped() -> bool:
            return (
                (stop_event is not None and stop_event.is_set())
                or (max_dur is not None and time.monotonic() - t0 >= max_dur)
            )

        while not stopped():
            new = self._scan_new_segments(wal_dir, seen)
            if new:
                seen.update(os.path.basename(p) for p in new)
                wall_left = (
                    None
                    if max_dur is None
                    else max(0.0, max_dur - (time.monotonic() - t0))
                )
                yield new, wall_left
                last_new = time.monotonic()  # consumer just finished
                continue
            if (
                max_wait is not None
                and time.monotonic() - last_new >= max_wait
            ):
                return
            deadline = time.monotonic() + poll_interval
            while time.monotonic() < deadline:
                if stopped():
                    return
                time.sleep(min(0.05, poll_interval))

    def follow_events(
        self,
        wal_dir: str,
        *,
        poll_interval: float = 0.5,
        batch_size: int = 4096,
        max_wait_seconds: float | None = None,
        max_duration_seconds: float | None = None,
        stop_event=None,
    ):
        """Unbounded realtime surface: watch ``wal_dir`` for newly
        arriving WAL segment files and publish every record as it
        lands — the reference's realtime trigger loop (the engine runs
        until stopped, each record becomes an execution,
        `AbstractDebeziumRealtimeTrigger.java:141-213`), driven by
        segment arrival instead of an embedded engine thread.

        Stops on ``stop_event`` (promptly, record granularity), on
        ``max_duration_seconds`` total wall (enforced INSIDE a drain —
        the remaining budget is threaded into each segment's event
        stream), or after ``max_wait_seconds`` with no NEW segment
        (idle ``maxWait``, `AbstractDebeziumTask.java:626-630`; time
        spent draining a segment is consume time, never idle time); all
        three default to the config values.  Segments must arrive in
        ascending LSN order (standard WAL naming sorts that way);
        arrival is detected by filename, so producers publish via
        write-then-rename.  Publish-only like ``iter_events`` — pair
        with ``follow_apply`` when the lake should advance too."""
        for new, wall_left in self._watch_segments(
            wal_dir,
            poll_interval=poll_interval,
            max_wait_seconds=max_wait_seconds,
            max_duration_seconds=max_duration_seconds,
            stop_event=stop_event,
        ):
            # the segment itself is bounded: no idle bound inside, but
            # the caller's stop handle still halts per record and the
            # REMAINING wall budget bounds the drain itself
            yield from self.iter_events(
                ray.data.read_parquet(new),
                batch_size=batch_size,
                stop_event=stop_event,
                max_duration_seconds=wall_left,
            )

    def follow_apply(
        self,
        wal_dir: str,
        *,
        poll_interval: float = 0.5,
        max_wait_seconds: float | None = None,
        max_duration_seconds: float | None = None,
        stop_event=None,
        **run_kw,
    ):
        """Unbounded capture surface: watch ``wal_dir`` and commit every
        newly arriving segment batch to the lake atomically, yielding
        one ``ReplayResult`` per commit (ON_EACH_BATCH cadence over an
        endless stream).  Restart-safe: the offset ledger makes a
        rescan-from-zero after a crash apply 0 events for segments
        already committed.  Same arrival/ordering contract as
        ``follow_events``; stop conditions are checked BETWEEN commits —
        a commit in flight always completes atomically (never torn by a
        stop), so a stop can overshoot by one commit's duration.  The
        idle clock excludes commit time (idle = no new segment for
        ``max_wait`` after the previous batch finished committing).

        The follower holds ONE shard pool (``StreamingSession``) for its
        whole lifetime, so every commit merges on its shards without
        paying actor startup per arrival batch; each commit is a
        ``run_from_paths`` over the new segments (DDL they carry evolves
        the schema).

        Snapshot bootstrap: a follower tails the log only.  To start
        from a consistent snapshot, run ``run``/``run_from_paths`` with
        ``snapshot`` once (commit v1), then follow — the ledger carries
        forward."""
        with self.streaming_session():
            for new, _wall_left in self._watch_segments(
                wal_dir,
                poll_interval=poll_interval,
                max_wait_seconds=max_wait_seconds,
                max_duration_seconds=max_duration_seconds,
                stop_event=stop_event,
            ):
                yield self.run_from_paths(new, **run_kw)

    # ------------------------------------------------------- read back

    def read_table(self, *, version: int | None = None) -> "ray.data.Dataset":
        """The committed lake table as a Dataset (manifest-gated files).

        ``version=N`` time-travels to that commit's snapshot: each
        manifest pins its exact bucket files (merged buckets get new
        ``v{N}-{hex}`` files, untouched buckets keep their old paths), and
        ``vacuum`` only deletes files unreferenced by the manifests it
        keeps — so any retained version reads back byte-exactly."""
        if version is None:
            paths = sorted(self.ckpt.bucket_paths().values())
        else:
            m = self.ckpt.restore_version(version)
            paths = sorted(v["path"] for v in m.get("buckets", {}).values())
        if not paths:
            raise FileNotFoundError(f"no committed state under {self.table_dir}")
        return ray.data.read_parquet(paths)

    def versions(self) -> list[int]:
        """Committed versions still readable for time travel, oldest
        first (bounded by ``vacuum``'s ``keep_manifests``)."""
        from plugin_debezium_ray.state.vacuum import list_history

        return [h["version"] for h in list_history(self.table_dir)]

    def lineage(self) -> "pd.DataFrame":
        """Per-partition lineage from the committed manifest: one row per
        bucket with its source offset (``last_lsn``/``last_seq``, the
        per-partition offset ledger), event counts, apply latency, row
        count, content fingerprint and data file — the per-partition
        metrics contract of the capture (the reference reports only
        global ``size``; the bucketed lake makes per-partition lineage
        first-class).  Counts/latency describe the LAST commit that
        touched the bucket; offsets are high-water marks."""
        import pandas as pd

        manifest = self.ckpt.restore()
        if manifest is None:
            raise FileNotFoundError(f"no committed state under {self.table_dir}")
        ledger = manifest.get("ledger", {})
        rows = []
        for b, info in sorted(
            manifest.get("buckets", {}).items(), key=lambda kv: int(kv[0])
        ):
            off = ledger.get(b) or (None, None)
            rows.append(
                {
                    "bucket": int(b),
                    "last_lsn": off[0],
                    "last_seq": off[1],
                    "rows": info.get("rows"),
                    "events_seen": info.get("events_seen"),
                    "events_applied": info.get("events_applied"),
                    "apply_seconds": info.get("apply_seconds"),
                    "fingerprint": info.get("fingerprint"),
                    "path": info.get("path"),
                }
            )
        df = pd.DataFrame(rows)
        df.attrs["version"] = manifest.get("version")
        df.attrs["metrics"] = manifest.get("metrics", {})
        return df


def _idle_bounded(
    batch_iter,
    max_wait: float | None,
    max_dur: float | None,
    stop_event=None,
):
    """Wrap a blocking batch iterator with the reference's soft stop
    conditions: stop when no batch arrives for ``max_wait`` seconds
    (idle, `AbstractDebeziumTask.java:626-630`), total wall time exceeds
    ``max_dur`` (`:617-624`), or a caller-held ``stop_event`` is set (the
    realtime trigger's external ``stop()``/``kill()`` handoff,
    `AbstractDebeziumRealtimeTrigger.java:215-256`).  A producer thread
    pulls batches so the consumer can time out on the queue without
    killing the stream mid-batch.

    On ANY exit path (bound hit, external stop, consumer abandoning the
    generator) the producer is shut down deliberately: a shared stop flag
    makes its bounded ``put`` give up and the queue is drained so a
    blocked put can observe the flag; when the producer is parked in a
    ``put`` it exits within ~0.1 s and closes the underlying Ray batch
    iterator.  A producer blocked INSIDE ``batch_iter.__next__`` (the
    stream is quiet — exactly the idle-stop case) cannot be interrupted
    from outside; the consumer does NOT stall waiting for it (short
    join), and the daemon thread retires itself the moment the iterator
    yields or ends, closing the stream then."""
    import queue
    import threading

    q: "queue.Queue" = queue.Queue(maxsize=4)
    _END = object()
    producer_stop = threading.Event()

    def _bounded_put(item) -> None:
        # block in short slices so a consumer-side stop is observed
        while not producer_stop.is_set():
            try:
                q.put(item, timeout=0.1)
                return
            except queue.Full:
                continue

    def produce():
        try:
            for b in batch_iter:
                _bounded_put(b)
                if producer_stop.is_set():
                    return
        finally:
            close = getattr(batch_iter, "close", None)
            if callable(close):
                try:
                    close()
                except Exception:
                    pass
            # the sentinel must be DELIVERED (a dropped put_nowait would
            # leave the consumer polling a dead stream forever); the
            # bounded put gives up only when the consumer already left
            _bounded_put(_END)

    t = threading.Thread(target=produce, daemon=True)
    t.start()
    start = time.monotonic()
    last = start  # last instant we began WAITING (idle excludes consume time)
    try:
        while True:
            now = time.monotonic()
            if stop_event is not None and stop_event.is_set():
                return
            if max_dur is not None and max_dur - (now - start) <= 0:
                return
            # a batch already queued HAS arrived — never an idle timeout
            try:
                item = q.get_nowait()
            except queue.Empty:
                timeout = None
                if max_wait is not None:
                    idle_left = max_wait - (now - last)
                    if idle_left <= 0:
                        return
                    timeout = idle_left
                if max_dur is not None:
                    wall_left = max_dur - (now - start)
                    timeout = (
                        wall_left if timeout is None else min(timeout, wall_left)
                    )
                if stop_event is not None:
                    # poll in short slices so an external stop() is
                    # observed promptly while blocked on the queue
                    timeout = 0.2 if timeout is None else min(timeout, 0.2)
                try:
                    item = q.get(timeout=timeout)
                except queue.Empty:
                    continue  # loop re-checks every stop condition
            if item is _END:
                return
            yield item
            # time the consumer spent processing the batch is NOT idle
            # time — maxWait means "no batch ARRIVES for that long"
            # (AbstractDebeziumTask.java:626-630)
            last = time.monotonic()
    finally:
        producer_stop.set()
        while True:  # free a producer blocked on a full queue
            try:
                q.get_nowait()
            except queue.Empty:
                break
        # a producer parked in put() exits within ~0.1s; one stuck in
        # batch_iter.__next__ (idle stream) can't be interrupted — don't
        # make every idle stop pay a long join for it (it self-retires
        # when the iterator yields or ends)
        t.join(timeout=0.3)


class _FileRead(NamedTuple):
    """One ``Read`` op over known input files; ``parquet`` is
    ``(filesystem, files, footers)`` of a read whose footers hold every
    DDL row it sees (``footers`` None when the planner must open them)."""

    datasource: "ray.data.Datasource"
    files: list
    ray_remote_args: dict
    parquet: "tuple | None"
    #: the read's row schema, from its plan (no Ray Data run)
    schema: pa.Schema


def _file_reads(ds: "ray.data.Dataset") -> "list[_FileRead] | None":
    """The reads ``ds`` is made of, in plan order, when its logical plan
    is one ``Read`` op or a nested ``Union`` of them (ON_STOP's
    ``Union(Union(R1, R2), R3)``, a snapshot read joined to a WAL read),
    each over known input files with a schema its plan knows; ``None``
    for any other plan.  It knows two datasources over parquet files:

    - ``ParquetFiles`` (``ParquetWalSource``'s reads): its files,
      filesystem, schema and the footers it already opened come from its
      public attributes, so the DDL plan and footer skip open no footer
      again;
    - Ray's ``read_parquet`` without a row ``filter=``: the files and
      filesystem Ray resolved; the planner opens each footer once.

    Any other ``Read`` with input files is decoded from its read tasks,
    and scanned for DDL rows when it has a ``ddl`` column.  The engine's only use of Ray Data's
    private plan API: the decode tasks run the reads' own tasks, and
    ``_prepare`` plans parquet reads' DDL from their files.  A Ray
    upgrade that moves the plan fails
    ``tests/test_streaming_apply.py::TestDecodeUnits`` instead of
    silently materializing every file read."""
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource,
    )
    from ray.data._internal.logical.operators.n_ary_operator import Union
    from ray.data._internal.logical.operators.read_operator import Read

    from plugin_debezium_ray.sources.parquet_files import ParquetFiles

    reads, ops = [], [ds._logical_plan.dag]
    while ops:
        op = ops.pop()
        if isinstance(op, Union):
            ops.extend(reversed(op.input_dependencies))
            continue
        if not isinstance(op, Read):
            return None
        src = op._datasource_or_legacy_reader
        args = dict(op._ray_remote_args or {})
        if isinstance(src, ParquetFiles):
            reads.append(_FileRead(src, src.paths, args,
                                   (src.filesystem, src.paths, src.footers),
                                   src.schema))
            continue
        if (not (files := op.infer_metadata().input_files)
                or (schema := op.infer_schema()) is None):
            return None
        planned = (isinstance(src, ParquetDatasource)
                   and src._to_batches_kwargs.get("filter") is None)
        reads.append(_FileRead(src, files, args,
                               (src._filesystem, src._pq_paths, None)
                               if planned else None,
                               schema))
    return reads


def _read_units(reads: list, skipped: dict, metrics: dict) -> list:
    """The decode units of file reads: each read's read tasks, one per
    file, read after read, each with the row count its metadata gives
    (None when it has none), less every task whose input files are all
    in ``skipped`` (the footer skip); the files and rows it drops are
    counted into ``metrics``."""
    units, files_skipped, rows_skipped = [], 0, 0
    for read in reads:
        for task in read.datasource.get_read_tasks(len(read.files)):
            files = task.metadata.input_files
            if files and all(f in skipped for f in files):
                files_skipped += len(files)
                rows_skipped += sum(skipped[f] for f in files)
            else:
                units.append((read.ray_remote_args, task,
                              task.metadata.num_rows))
    metrics.update(files_skipped=files_skipped, rows_skipped=rows_skipped)
    return units
