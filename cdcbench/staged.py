"""The traced run: each workload replayed as a staged sequence of the
engine's public calls, materializing between stages, with a span around
every layer.

Spans (name, start, end, parent) are kept in memory and dumped as JSON
when the run ends.  The staged sequence mirrors one engine commit:

    checkpoint.restore   CheckpointManager.restore/ledger/bucket_paths/
                         bucket_fingerprints, as the engine calls them
    read                 ray.data.read_parquet(APPLY_COLUMNS), materialized
    registry             registry_from_envelopes over the DDL columns
                         (sort engine only; the session skips the scan)
    project              map_batches(project_for_apply)
    route.sort           groupby(_bucket) with an identity reduce
    route.push           make_decode_push into a live MergeShard pool
    merge                groupby(_bucket).map_groups(BucketMerge)
                         (sort engine)
    shards.finalize      MergeShard.finalize, BucketMerge per bucket
                         (session engine)
    checkpoint.save      build_manifest + CheckpointManager.save

Spans marked ``side`` are measurements beside the commit's own path
(``read.floor``, the identity ``map_batches`` over the read blocks, and
the route the engine does not take), so both routes are timed over the
same projected blocks.  They are left out of the traced e2e time.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from cdcbench.fixtures import parquet_rows
from cdcbench.harness import clock

#: per-layer metric -> unit, in report order
PER_LAYER = {
    "read.s": "s", "read.bytes": "bytes", "read.floor_s": "s",
    "registry.s": "s", "registry.rows_scanned": "count",
    "project.s": "s", "project.rows_in": "count", "project.rows_out": "count",
    "project.ledger_skipped": "count", "project.useful_ratio": "ratio",
    "route.sort_s": "s", "route.push_s": "s", "route.pushes": "count",
    "route.shard_rows_max_over_mean": "ratio",
    "merge.s": "s", "merge.bucket_max_s": "s", "merge.buckets": "count",
    "merge.prior_rows_read": "count", "merge.rows_written": "count",
    "merge.bytes_written": "bytes", "merge.rewrite_ratio": "ratio",
    "shards.start_s": "s", "shards.finalize_s": "s",
    "checkpoint.restore_s": "s", "checkpoint.manifest_reads": "count",
    "checkpoint.save_s": "s", "checkpoint.manifest_bytes": "bytes",
    "trace.unattributed_share": "ratio", "trace.overhead_share": "ratio",
    "tail.drift": "ratio",
}

# span name -> per-layer time metric
_SPAN_METRIC = {
    "read": "read.s",
    "read.floor": "read.floor_s",
    "registry": "registry.s",
    "project": "project.s",
    "route.sort": "route.sort_s",
    "route.push": "route.push_s",
    "shards.start": "shards.start_s",
    "shards.finalize": "shards.finalize_s",
    "checkpoint.restore": "checkpoint.restore_s",
    "checkpoint.save": "checkpoint.save_s",
}


class Tracer:
    """In-memory spans; a span's parent is the span open around it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, *, side: bool = False):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "side": side, "start": clock(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def children(self, sid: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == sid]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f, indent=0)


def _identity(t: pa.Table) -> pa.Table:
    return t


def _data_rows(paths: list[str]) -> int:
    """Rows whose op is a data mutation (not DDL, not a message)."""
    from plugin_debezium_ray.envelope import OP_DDL, OP_MESSAGE

    n = 0
    for p in paths:
        op = pq.read_table(p, columns=["op"])["op"]
        n += int(pc.sum(pc.invert(pc.is_in(
            op, value_set=pa.array([OP_DDL, OP_MESSAGE])
        ))).as_py() or 0)
    return n


class StagedReplay:
    """Per-layer counters of a sequence of staged commits on one lake."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.counts = {k: 0 for k in PER_LAYER}
        self.bucket_max_s = 0.0
        self.events_applied = 0

    # ------------------------------------------------------------ pool

    def open_pool(self, job, *, side: bool = False):
        """A live shard pool: a ``StreamingSession`` and its actors,
        started and ready."""
        import ray

        with self.tr.span("shards.start", side=side):
            session = job.streaming_session()
            ray.get([s.counters.remote() for s in session.shards])
        return session

    # ---------------------------------------------------------- commit

    def commit(self, job, wal_paths: list[str], *, pool=None,
               snapshot_paths: list[str] | None = None) -> None:
        """One staged commit.  With ``pool`` it is the session engine
        (push route, shard finalize, no DDL scan); without, it is
        ``ReplayJob.run``'s sort engine, which also times the push route
        into a throwaway pool."""
        import ray
        import ray.data
        from plugin_debezium_ray.envelope import payload_fields_of
        from plugin_debezium_ray.smallfetch import fetch_small_rows
        from plugin_debezium_ray.stages.apply import (
            APPLY_COLUMNS, BUCKET_COL, WEIGHT_COL, BucketMerge,
            project_for_apply,
        )
        from plugin_debezium_ray.state.checkpoint import build_manifest
        from plugin_debezium_ray.state.schema_registry import (
            SchemaRegistry, registry_from_envelopes,
        )

        tr, c, cfg, ckpt = self.tr, self.counts, job.cfg, job.ckpt
        sort_engine = pool is None
        with tr.span("commit"):
            with tr.span("checkpoint.restore"):
                parent = ckpt.restore()
                c["checkpoint.manifest_reads"] += 1
                ledger = prior_paths = prior_fps = {}
                if parent:
                    ledger = ckpt.ledger()
                    prior_paths = ckpt.bucket_paths()
                    prior_fps = ckpt.bucket_fingerprints()
                    c["checkpoint.manifest_reads"] += 3
            version = int(parent["version"]) + 1 if parent else 1
            inputs = list(wal_paths)

            with tr.span("read"):
                env = ray.data.read_parquet(
                    wal_paths, columns=list(APPLY_COLUMNS)
                ).materialize()
                snap = None
                if snapshot_paths and parent is None:
                    snap = ray.data.read_parquet(
                        snapshot_paths, columns=list(APPLY_COLUMNS)
                    ).materialize()
                    inputs += snapshot_paths
            c["read.bytes"] += env.size_bytes() + (snap.size_bytes() if snap else 0)
            with tr.span("read.floor", side=True):
                env.map_batches(_identity, batch_format="pyarrow",
                                batch_size=cfg.batch_size).materialize()

            sch = env.schema()
            base_fields = [
                (f.name, str(f.type)) for f in payload_fields_of(
                    pa.schema([pa.field(n, t)
                               for n, t in zip(sch.names, sch.types)])
                )
            ]
            prior_schema = (parent or {}).get("schema")
            if sort_engine:
                with tr.span("registry"):
                    reg = registry_from_envelopes(
                        ray.data.read_parquet(
                            wal_paths, columns=["lsn", "seq", "op", "ddl"]
                        ),
                        base_fields, prior_snapshot=prior_schema,
                        max_lsn=cfg.max_lsn,
                    )
                c["registry.rows_scanned"] += parquet_rows(wal_paths)
            else:
                reg = (SchemaRegistry.from_snapshot(prior_schema)
                       if prior_schema else SchemaRegistry(base_fields))

            ds = snap.union(env) if snap is not None else env
            proj = project_for_apply(
                cfg.key_cols, cfg.num_buckets, ledger=ledger,
                max_lsn=cfg.max_lsn, renames=reg.rename_map(),
                added_columns=reg.added_columns(),
            )
            with tr.span("project"):
                projected = ds.map_batches(
                    proj, batch_format="pyarrow", batch_size=cfg.batch_size
                ).materialize()
            rows_out = projected.count()
            kept = sum(
                int(pc.sum(t[WEIGHT_COL]).as_py() or 0)
                for t in ray.get(projected.to_arrow_refs())
                if t.num_rows and WEIGHT_COL in t.column_names
            )
            c["project.rows_in"] += parquet_rows(inputs)
            c["project.rows_out"] += rows_out
            c["project.ledger_skipped"] += _data_rows(inputs) - kept

            if sort_engine and rows_out:
                with tr.span("route.sort"):
                    projected.groupby(BUCKET_COL).map_groups(
                        _identity, batch_format="pyarrow"
                    ).materialize()
            push_pool = pool or self.open_pool(job, side=True)
            with tr.span("route.push", side=sort_engine):
                from plugin_debezium_ray.pipelines.streaming_apply import (
                    make_decode_push,
                )

                projected.map_batches(
                    make_decode_push(_identity, push_pool.shards,
                                     push_pool.shard_of),
                    batch_format="pyarrow", batch_size=cfg.batch_size,
                ).sum("n")
            shard = ray.get([s.counters.remote() for s in push_pool.shards])
            c["route.pushes"] += sum(x["pushes"] for x in shard)
            held = [x["buffered"] for x in shard]
            if sum(held):
                c["route.shard_rows_max_over_mean"] = max(
                    c["route.shard_rows_max_over_mean"],
                    max(held) / statistics.mean(held),
                )

            data_dir = os.path.join(job.table_dir, "data")
            commit_id = f"v{version:06d}"
            if sort_engine:
                push_pool.close()  # its buffered rows are never finalized
                merge = BucketMerge(
                    cfg.key_cols, data_dir, commit_id,
                    prior_paths=prior_paths, prior_fingerprints=prior_fps,
                    ledger=ledger, fingerprint_col=job.fingerprint_col,
                    renames=reg.rename_map(),
                )

                def merge_bucket(group: pa.Table) -> pa.Table:
                    return merge(group)

                with tr.span("merge"):
                    stats_rows = (
                        fetch_small_rows(projected.groupby(BUCKET_COL).map_groups(
                            merge_bucket, batch_format="pyarrow"))
                        if rows_out else []
                    )
            else:
                with tr.span("shards.finalize"):
                    stats_rows = [r for rows in ray.get([
                        s.finalize.remote(
                            data_dir, commit_id, prior_paths=prior_paths,
                            prior_fingerprints=prior_fps, ledger=ledger,
                            fingerprint_col=job.fingerprint_col,
                            renames=reg.rename_map(),
                        )
                        for s in pool.shards
                    ]) for r in rows]
            stats_rows = [r for r in stats_rows if r.get("bucket") is not None]
            self._merge_counts(stats_rows, parent, prior_paths)

            with tr.span("checkpoint.save"):
                mpath = ckpt.save(build_manifest(
                    version=version, connector_id=job.connector_id,
                    stats_rows=stats_rows, parent=parent,
                    schema_snapshot=reg.snapshot(),
                ))
            c["checkpoint.manifest_bytes"] += os.path.getsize(mpath)

    def _merge_counts(self, stats_rows, parent, prior_paths) -> None:
        c = self.counts
        prior_rows = {int(b): v["rows"]
                      for b, v in (parent or {}).get("buckets", {}).items()}
        for r in stats_rows:
            b = int(r["bucket"])
            c["merge.s"] += r["apply_seconds"]
            self.bucket_max_s = max(self.bucket_max_s, r["apply_seconds"])
            c["merge.buckets"] += 1
            c["merge.rows_written"] += r["rows"]
            c["merge.bytes_written"] += os.path.getsize(r["path"])
            self.events_applied += r["events_applied"]
            if b in prior_paths:
                c["merge.prior_rows_read"] += prior_rows.get(b, 0)

    # --------------------------------------------------------- metrics

    def traced_and_covered(self) -> tuple[float, float]:
        """Wall time of the top-level spans with side spans left out,
        and the part of it that layer spans cover."""
        traced = covered = 0.0
        for top in self.tr.spans:
            if top["parent"] is not None or top["side"]:
                continue
            dur = top["end"] - top["start"]
            if top["name"] != "commit":  # a layer span of its own
                traced += dur
                covered += dur
                continue
            for s in self.tr.children(top["id"]):
                if s["side"]:
                    dur -= s["end"] - s["start"]
                else:
                    covered += s["end"] - s["start"]
            traced += dur
        return traced, covered

    def metrics(self, untraced_s: float, drift: float) -> dict:
        c = dict(self.counts)
        for span, name in _SPAN_METRIC.items():
            c[name] = self.tr.seconds(span)
        c["merge.bucket_max_s"] = self.bucket_max_s
        c["project.useful_ratio"] = (
            c["project.rows_out"] / c["project.rows_in"]
            if c["project.rows_in"] else 0.0
        )
        applied = self.events_applied
        c["merge.rewrite_ratio"] = c["merge.rows_written"] / applied if applied else 0.0
        traced, covered = self.traced_and_covered()
        c["trace.unattributed_share"] = (traced - covered) / traced if traced else 0.0
        c["trace.overhead_share"] = traced / untraced_s if untraced_s else 0.0
        c["tail.drift"] = drift
        return {k: c[k] for k in PER_LAYER}


def drift(commit_seconds: list[float]) -> float:
    """Median of the last ten commits over the median of commits 2-11
    (commit 1 is the session's first); 0 with fewer than 20 commits."""
    if len(commit_seconds) < 20:
        return 0.0
    return (statistics.median(commit_seconds[-10:])
            / statistics.median(commit_seconds[1:11]))


# ------------------------------------------------------- traced workloads

def traced_run(workload: str, runner, tracer: Tracer) -> dict:
    """Run ``workload`` once through its real entry point (untraced) and
    once staged (traced) on a second lake; both lakes must carry the same
    fingerprint and match the oracle.  Returns the per-layer metrics."""
    from cdcbench.fixtures import lake_fingerprint, parity_ok
    from cdcbench.harness import copy_lake
    from cdcbench.workloads import commit_segments, make_job, restart_once

    fx, tally = runner.fx, runner.tally
    staged = StagedReplay(tracer)
    commit_s: list[float] = []
    if workload == "bootstrap":
        oracle = fx.oracle(0)
        # the first replay after start-up runs cold; keep it out of the
        # untraced time
        tally.call(make_job(runner.lake("trace-warm")).run_from_paths,
                   fx.wal_paths, snapshot_paths=fx.snapshot_paths)
        real = runner.lake("trace-real")
        t0 = clock()
        tally.call(make_job(real).run_from_paths, fx.wal_paths,
                   snapshot_paths=fx.snapshot_paths)
        untraced = clock() - t0
        lake = runner.lake("trace-staged")
        tally.call(staged.commit, make_job(lake), fx.wal_paths,
                   snapshot_paths=fx.snapshot_paths)
    elif workload == "restart":
        oracle = fx.oracle(0)
        base = fx.ensure_base_lake(make_job)
        real = copy_lake(base, runner.lake("trace-real"))
        t0 = clock()
        tally.call(restart_once, real, fx.wal_paths)
        untraced = clock() - t0
        lake = copy_lake(base, runner.lake("trace-staged"))

        def staged_restart():
            job = make_job(lake)
            with staged.open_pool(job) as pool:
                staged.commit(job, fx.wal_paths, pool=pool)

        tally.call(staged_restart)
    else:  # tail: one segment a commit, as the open loop commits at its rate
        oracle = fx.oracle(fx.tail_segments)
        base = fx.ensure_base_lake(make_job)
        groups = [[p] for p in fx.tail_paths]
        real = copy_lake(base, runner.lake("trace-real"))
        with make_job(real).streaming_session() as session:
            for group in groups:
                t0 = clock()
                tally.call(commit_segments, session, group)
                commit_s.append(clock() - t0)
        untraced = sum(commit_s[1:])
        lake = copy_lake(base, runner.lake("trace-staged"))
        job = make_job(lake)
        # pool start and the warm-up commit are set-up, as untraced
        with staged.open_pool(job, side=True) as pool:
            tally.call(commit_segments, pool, groups[0])
            for group in groups[1:]:
                tally.call(staged.commit, job, group, pool=pool)
    tally.check(parity_ok(lake, oracle), "staged lake differs from the oracle")
    tally.check(lake_fingerprint(lake) == lake_fingerprint(real),
                "staged and real lakes differ")
    return staged.metrics(untraced, drift(commit_s))
