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
              and fingerprints, version, this attempt's data dir), replay
              schema history into the registry, apply ``max_records`` and
              the ``snapshot_mode`` rules (NO_DATA, the sub-commit of
              ``max_snapshot_duration``)
    route     map_batches(project_for_apply: decode + ledger filter +
              per-batch LWW pre-reduce), then route each bucket's events
              to ``BucketMerge`` (per-bucket merge + deterministic Parquet
              write), by one of two strategies:
                sort — groupby(_bucket).map_groups(BucketMerge), one hash
                       shuffle (SURVEY.md §7.3)
                push — decode tasks push slices into MergeShard actors,
                       ``MergeShard.finalize`` merges all of a shard's
                       buckets in one ``BucketMerge`` call
                       (``pipelines/streaming_apply.py``)
    _commit   stats rows → manifest → put-if-absent manifest create

The job picks the route from one fact: whether a ``StreamingSession``
(a live shard pool) is open on it.  Then every commit of every entry
point — ``run``, ``run_segments``, ``run_from_paths``, ``run_source``,
``poll``, ``follow_apply`` — takes the push route; otherwise the sort
route.  Both routes write byte-identical bucket files, so they are
interchangeable on one lake.
"""

from __future__ import annotations

import copy
import os
import secrets
import time
from dataclasses import dataclass, field, replace

import pyarrow as pa

import ray
import ray.data

from plugin_debezium_ray.config import CaptureConfig, OffsetCommitMode, SnapshotMode
from plugin_debezium_ray.envelope import payload_fields_of
from plugin_debezium_ray.stages.apply import (
    BUCKET_COL,
    BucketMerge,
    project_for_apply,
)
from plugin_debezium_ray.stages.decode import EnvelopeDecoder
from plugin_debezium_ray.state.checkpoint import (
    CheckpointManager, bucket_fingerprints_of, bucket_paths_of, build_manifest,
    ledger_of,
)
from plugin_debezium_ray.state.schema_registry import (
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
    """One commit as ``ReplayJob._prepare`` set it up; the routes and
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
    #: the records to apply; None under NO_DATA (commit the schema only)
    ds: "ray.data.Dataset | None"
    data_dir: str
    fingerprint_col: str | None
    metrics: dict
    #: events a separately committed snapshot phase consumed
    snapshot_seen: int = 0

    def project(self):
        """The ``map_batches`` fn: decode + ledger filter + pre-reduce."""
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


def _sort_route(prep: _Prepared) -> tuple[list[dict], dict]:
    """The sort route: ONE hash shuffle (groupby bucket), then
    ``BucketMerge`` merges each bucket into its prior state."""
    from plugin_debezium_ray.smallfetch import fetch_small_rows

    cfg = prep.cfg
    merge = BucketMerge(cfg.key_cols, **prep.merge_kw())

    def merge_bucket(group: pa.Table) -> pa.Table:
        return merge(group)

    t0 = time.monotonic()
    stats = (
        prep.ds.map_batches(
            prep.project(), batch_format="pyarrow", batch_size=cfg.batch_size
        )
        .groupby(BUCKET_COL)
        .map_groups(merge_bucket, batch_format="pyarrow")
    )
    rows = fetch_small_rows(stats)  # ≤ num_buckets tiny rows
    return rows, {"apply_wall_seconds": round(time.monotonic() - t0, 3)}


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
        #: ``route(prep) -> (stats_rows, route_metrics)``: the sort route,
        #: or an open ``StreamingSession``'s push route
        self._route = _sort_route

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
        ddl_source: "ray.data.Dataset | pa.Table | bool | None" = None,
    ) -> ReplayResult:
        """One batch capture, the apply core behind every entry point:
        restore state → schema replay → route → atomic commit, on the
        job's current route.  Idempotent: rerunning with the same
        envelopes applies zero events (the CaptureTest.java:97-99
        contract).

        ``ddl_source`` says where the commit's DDL events are: a Dataset
        to scan for them; a Table of ``(lsn, seq, op, ddl)`` rows already
        in the driver (``ddl_rows_from_parquet``, what ``run_from_paths``
        passes); ``False`` for sources known to carry no DDL; or ``None``
        to scan ``envelopes`` if it has a ``ddl`` column and otherwise
        carry the registry forward."""
        t0 = time.monotonic()
        prep = self._prepare(envelopes, snapshot, ddl_source)
        if isinstance(prep, ReplayResult):
            return prep  # the snapshot phase overran its budget
        rows, metrics = self._route(prep) if prep.ds is not None else ([], {})
        return self._commit(prep, rows, metrics, t0)

    def _prepare(
        self,
        envelopes: "ray.data.Dataset",
        snapshot: "ray.data.Dataset | None",
        ddl_source: "ray.data.Dataset | pa.Table | bool | None",
    ) -> "_Prepared | ReplayResult":
        """Everything a commit decides before routing: restore the parent
        commit, replay schema history into the registry (ST3), and apply
        the ``max_records`` and ``snapshot_mode`` rules.

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
        base_fields = [] if prior else [
            (f.name, str(f.type))
            for f in payload_fields_of(_env_schema(envelopes))
        ]
        if ddl_source is None:
            # scan envelopes for DDL only if they have a ddl column;
            # otherwise carry the registry forward
            sch = envelopes.schema()
            if sch is None or "ddl" not in sch.names:
                ddl_source = False
        if isinstance(ddl_source, pa.Table):
            # the rows of the row groups the footer planner read
            metrics["registry_rows_read"] = ddl_source.num_rows
        if ddl_source is False:
            reg = (SchemaRegistry.from_snapshot(prior) if prior
                   else SchemaRegistry(base_fields))
        else:
            reg = registry_from_envelopes(
                ddl_source if ddl_source is not None else envelopes,
                base_fields,
                prior_snapshot=prior,
                max_lsn=cfg.max_lsn,
            )
        metrics["registry_seconds"] = round(time.monotonic() - t_registry, 3)

        ds = envelopes
        if cfg.max_records is not None:
            # soft record bound — post-snapshot only, like
            # AbstractDebeziumTask.java:617-621 (snapshot joins below it)
            ds = ds.limit(cfg.max_records)
        if snapshot is not None:
            ds = snapshot if mode == SnapshotMode.INITIAL_ONLY else snapshot.union(ds)
        if mode == SnapshotMode.NO_DATA:
            ds = None  # schema-only: commit the registry snapshot, apply nothing
        version = int(parent["version"]) + 1 if parent else 1
        return _Prepared(
            cfg=cfg,
            parent=parent,
            ledger=ledger_of(parent),
            prior_paths=bucket_paths_of(parent),
            prior_fps=bucket_fingerprints_of(parent),
            version=version,
            commit_id=f"v{version:06d}-{secrets.token_hex(4)}",
            reg=reg,
            ds=ds,
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
        the 'one class per connector' extension surface."""
        return self.run(
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
        a directory).  The apply reads only ``APPLY_COLUMNS``; the DDL
        events come from the WAL files' footers
        (``ddl_rows_from_parquet``), which read only the row groups whose
        ``ddl`` column is not all null."""
        from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

        # apply reads only APPLY_COLUMNS — prune at the read so
        # before-images / source structs never leave the file footers
        env = ray.data.read_parquet(wal_paths, columns=list(APPLY_COLUMNS))
        ddl = ddl_rows_from_parquet(wal_paths, max_lsn=self.cfg.max_lsn)
        snap = (
            ray.data.read_parquet(snapshot_paths, columns=list(APPLY_COLUMNS))
            if snapshot_paths is not None
            else None
        )
        return self.run(env, snapshot=snap, ddl_source=ddl, **kw)

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
        order (the log-tail contract, `ChangeConsumer.java:70-87`) — the
        offset ledger is a per-bucket high-water mark, so applying an
        older segment AFTER a newer one would filter the older events as
        already-applied.  Within one group, any order is fine (the merge
        sorts by (lsn, seq) per key)."""
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
        until it is closed, every commit of this job takes the push
        route.  ``close()``/context manager tears the pool down — the
        engine handle a continuous ingester holds for its lifetime.  See
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
        whole lifetime, so every commit takes the push route without
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


def _env_schema(ds: "ray.data.Dataset") -> pa.Schema:
    sch = ds.schema()
    return pa.schema(
        [pa.field(n, t) for n, t in zip(sch.names, sch.types)]
    )
