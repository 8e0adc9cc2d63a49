"""Streaming actor-pool apply — the push route of the apply core.

Every commit runs ``ReplayJob.run``: prepare → route → commit
(``pipelines/replay.py``).  The sort route sends events to buckets with
ONE sort-based ``groupby`` — correct and spill-friendly, but the sort is
a barrier: no merge work starts until every decode task finishes, and
utilization dips at every commit boundary.

This module is the other route, the architecture SURVEY.md §7.1 sketches
directly: a pool of ``MergeShard`` **actors**, each owning a contiguous
bucket range.  Decode tasks pre-reduce their batch and push each shard's
slice to it **as the stream flows** — no all-to-all barrier, no sort.
Correctness rests on LWW being order-independent: the winner per key is
the max ``(lsn, seq)`` event, so shards may receive batches in any
order, from any segment (events at-or-below the ledger are dropped at
finalize).  Exactly-once counting under Ray task retries comes from the
plan, as Delta Lake's writer-assigned transaction ids make its streaming
writes idempotent: the driver numbers the decode units in the order it
submits them, every batch is pushed as ``(unit index, row offset within
the unit)``, and a shard drops an id it has already accepted since its
last drain.  A retried task re-reads the same unit — one file's read
task, or an immutable block — and so re-sends the same ids, while rows
that really repeat in the input (a file listed twice, a self-union) are
counted each time, as the sort route counts them.  Shards compact
incrementally (winner-reduce their accumulated slices) whenever buffered
rows exceed a threshold, so steady-state memory per shard is O(its share
of live keys), not O(its share of the stream).

The decode tasks are plain Ray tasks over **units** of the input, not a
Ray Data execution: a tail commit of a few hundred rows otherwise pays
more for the streaming executor than for the work.  When the input is a
bare file read (its logical plan is one ``Read`` op, as
``read_parquet(paths, columns=APPLY_COLUMNS)`` is), the units are that
read's own ``ReadTask`` objects, one per input file, with its column pruning,
filters, partitioning and ``ray_remote_args``; any other plan (a
generated source, ``limit``, a snapshot ``union``, a materialized
Dataset) runs through Ray Data and each non-empty output block is a
unit.  Every manifest of the route records ``decode_tasks`` and
``decode_source`` (``"read"`` / ``"blocks"``).  The sort route still
runs its Dataset pipeline.

Finalize hands each shard's drained rows to ONE ``BucketMerge`` call
per commit (the sort route calls the same kernel once per bucket) —
identical deterministic bucket files, fingerprints and manifest as the
sort path, so resume / rerun / read_table are interchangeable between
the two paths.  The restore, schema replay, stop and snapshot rules and
the manifest commit around the route are the shared ``_prepare`` /
``_commit``.

A shard keeps state across commits: the ``{bucket: (path, table)}`` of
the bucket files its last finalize wrote.  At the next finalize a bucket
whose manifest path is still the held path merges over the held table
instead of reading the file (the path is still ``os.stat``-ed, so a
missing committed file raises as on the sort route).  Bucket files are
immutable and each commit attempt writes under its own
``data/v{N}-{hex}/``, so the held table is the file's content; any other
path — a lost ``CommitConflict``, another writer's commit, a failed
finalize, a fresh pool — is read from disk.  After each finalize only the
tables that finalize wrote are held: about the prior tables the merge
held at once anyway.  Each manifest counts the disk reads as
``prior_files_read``.

``StreamingSession`` owns one pool across commits.  While it is open,
its job routes every commit here (``run``, ``run_segments``,
``run_from_paths``, ``poll``; ``follow_apply`` holds one for its whole
lifetime); a one-shot push is ``with job.streaming_session():
job.run(ds)``.  The pool serves one lake: multi-table capture
(``pipelines/multi_table.py``) runs each stream through the core on its
own.

At cluster scale each shard is one actor (pin ``num_shards`` ≈ total
cores; Ray spreads them across nodes); backpressure comes from decode
tasks awaiting their pushes before finishing a batch, and from the
driver keeping at most the cluster's CPU count of them in flight.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import _sort_route
from plugin_debezium_ray.stages.apply import (
    BUCKET_COL,
    WEIGHT_COL,
    BucketMerge,
    _composite_key,
    _winners_and_weights,
)


def make_decode_push(proj, shards, shard_of: np.ndarray):
    """Shared decode-task body of the push shuffle: project/pre-reduce a
    batch, slice it by owning shard (one stable argsort + searchsorted),
    and push each slice with the batch's ``push_id``; the task completes
    only after every push is owned by its shard (backpressure + retry
    safety).  The body of ``StreamingSession``'s push route, which names
    each batch by its place in the commit's plan (``_decode_unit``)."""

    def decode_and_push(t: pa.Table, push_id: tuple | None = None) -> pa.Table:
        out = proj(t)
        n = len(out)
        if n:
            buckets = out[BUCKET_COL].to_numpy()
            sid = shard_of[buckets]
            order = np.argsort(sid, kind="stable")
            cuts = np.searchsorted(
                sid[order], np.arange(len(shards) + 1), side="left"
            )
            refs = [
                shards[s].ingest.remote(
                    out.take(pa.array(order[cuts[s] : cuts[s + 1]])), push_id
                )
                for s in range(len(shards))
                if cuts[s + 1] > cuts[s]
            ]
            ray.get(refs)
        return pa.table({"n": pa.array([n], pa.int64())})

    return decode_and_push


def _read_tasks(ds) -> tuple[list, dict] | None:
    """``(read tasks, ray_remote_args)`` of ``ds`` when its logical plan
    is one ``Read`` op over known input files: the datasource's
    ``get_read_tasks``, one task per file; ``None`` for any other plan.
    The push route's only use of Ray Data's private plan API, so a Ray
    upgrade that moves it fails one test
    (``tests/test_streaming_apply.py::TestDecodeUnits``) instead of
    silently sending bare reads through the executor."""
    from ray.data._internal.logical.operators.read_operator import Read

    op = ds._logical_plan.dag
    if not isinstance(op, Read):
        return None
    files = op.infer_metadata().input_files
    if not files:
        return None
    tasks = op._datasource_or_legacy_reader.get_read_tasks(len(files))
    return tasks, dict(op._ray_remote_args or {})


@ray.remote
def _decode_unit(body, unit, batch_size: int, index: int) -> int:
    """One decode task: the rows of ``unit`` — a ``ReadTask`` it runs, or
    a block Ray resolved — through ``body`` (``make_decode_push``)
    ``batch_size`` rows at a time.  ``index`` is the unit's place in the
    commit's plan; each batch is pushed as ``(index, row offset of the
    batch within the unit)``, counting across the blocks a read task
    yields, so a retry of the task sends the same ids again.  Returns
    the projected rows pushed, once every push is owned by its shard."""
    from ray.data.block import BlockAccessor
    from ray.data.datasource import ReadTask

    blocks = unit() if isinstance(unit, ReadTask) else (unit,)
    n = offset = 0
    for block in blocks:
        t = BlockAccessor.for_block(block).to_arrow()
        for lo in range(0, t.num_rows, batch_size):
            n += body(t.slice(lo, batch_size), (index, offset + lo))["n"][0].as_py()
        offset += t.num_rows
    return n


#: buffered rows past which a shard winner-reduces what it holds
COMPACT_ROWS = 400_000


@ray.remote
class MergeShard:
    """Owns buckets ``[lo, hi)``: accumulates pre-reduced event slices,
    compacts with the LWW winner reduction when buffered rows grow, and
    at finalize merges all its buckets with their prior lake state in
    one call of the ``BucketMerge`` kernel the sort path uses per
    bucket.  Across commits it holds the tables its last finalize wrote
    (``held``); a bucket whose manifest path is still held is not read
    back from disk at the next finalize."""

    def __init__(self, key_cols: tuple[str, ...], lo: int, hi: int,
                 compact_rows: int = COMPACT_ROWS):
        self.key_cols = tuple(key_cols)
        self.lo, self.hi = lo, hi
        self.tables: list[pa.Table] = []
        self.buffered = 0
        self.events_seen = 0
        self.compact_rows = compact_rows
        self.pushes = 0
        self.seen_pushes: set = set()
        #: ``{bucket: (path, table)}`` the last finalize wrote
        self.held: dict[int, tuple[str, pa.Table]] = {}

    def ingest(self, t: pa.Table, push_id: tuple | None = None) -> int:
        """Accept one pre-reduced slice (``project_for_apply`` output, so
        it carries ``_weight``).  ``push_id`` names the decode batch by its
        place in the commit's plan — ``(unit index, row offset)``, see
        ``_decode_unit`` — so distinct batches never share one, and a
        RETRIED decode task re-sends the same ids, which are dropped here:
        exactly-once accounting under Ray task retries (SURVEY.md §7.4
        #1), while rows that really repeat in the input are counted each
        time, as on the sort route.  ``seen_pushes`` grows one entry per
        push between commits — at most one per decode batch — and is
        cleared at each drain: the driver drains every decode task's
        output before finalize runs, so no task of a committed segment
        can retry afterwards, which bounds the set for arbitrarily long
        multi-commit sessions."""
        if push_id is not None:
            if push_id in self.seen_pushes:
                return 0
            self.seen_pushes.add(push_id)
        self.pushes += 1
        if len(t):
            self.tables.append(t)
            self.buffered += len(t)
            self.events_seen += int(pc.sum(t[WEIGHT_COL]).as_py() or 0)
            if self.buffered > self.compact_rows:
                self._compact()
        return 0

    def node_id(self) -> str:
        """Ray node hosting this shard (placement evidence: with the
        SPREAD strategy, shards of one pool land across cluster nodes)."""
        return ray.get_runtime_context().get_node_id()

    def counters(self) -> dict:
        """ST6-style shard metrics (events seen, pushes accepted, buffered
        rows), each since the last drain."""
        return {
            "events_seen": self.events_seen,
            "pushes": self.pushes,
            "buffered": self.buffered,
        }

    def _compact(self) -> None:
        merged = pa.concat_tables(self.tables, promote_options="default")
        key = _composite_key(merged, self.key_cols)
        win, _ = _winners_and_weights(
            key, merged["lsn"].to_numpy(), merged["seq"].to_numpy()
        )
        # winners carry the SUM of subsumed rows' weights (rows arriving
        # here are already pre-reduced, so counts would under-report)
        codes, _ = pd.factorize(key, use_na_sentinel=False)
        w = merged[WEIGHT_COL].to_numpy()
        weights = np.bincount(codes, weights=w)[codes[win]].astype(np.int64)
        out = merged.take(pa.array(win))
        i = out.column_names.index(WEIGHT_COL)
        out = out.set_column(i, WEIGHT_COL, pa.array(weights, type=pa.int64()))
        self.tables = [out]
        self.buffered = len(out)

    def _drain(self) -> pa.Table | None:
        """Take every buffered row at a commit boundary: the caller has
        drained every decode task's output, so no push of this segment can
        retry — the dedup set restarts (bounds seen_pushes for long
        multi-commit sessions) and the events_seen counter rolls over to
        per-segment accounting.  The pool may live on across commits."""
        self.seen_pushes.clear()
        self.events_seen = self.pushes = 0
        if not self.tables:
            return None
        merged = pa.concat_tables(self.tables, promote_options="default")
        self.tables = []
        self.buffered = 0
        return merged

    def discard(self) -> None:
        """Drop every row pushed since the last finalize, and their push
        ids: the commit they belong to failed, so the session's next
        commit must not apply them."""
        self._drain()

    def finalize(
        self,
        out_dir: str,
        commit_id: str,
        *,
        prior_paths: dict[int, str],
        prior_fingerprints: dict[int, str],
        ledger: dict[int, tuple[int, int]],
        fingerprint_col: str | None,
        renames: dict[str, str] | None = None,
    ) -> list[dict]:
        """Merge the owned buckets with their prior state in ONE
        ``BucketMerge`` call, write the bucket files, return the stats
        rows (same schema as the sort path).  The tables written replace
        ``held``: a bucket whose manifest path is still one of them merges
        over it instead of reading its file."""
        merged = self._drain()
        # a finalize that fails or writes nothing leaves nothing held
        held, self.held = self.held, {}
        if merged is None:
            return []
        stats, self.held = BucketMerge(
            self.key_cols,
            out_dir=out_dir,
            commit_id=commit_id,
            prior_paths=prior_paths,
            prior_fingerprints=prior_fingerprints,
            ledger=ledger,
            fingerprint_col=fingerprint_col,
            renames=renames,
            held=held,
        ).merge(merged)
        return stats.to_pylist()


def _make_shard_pool(cfg: CaptureConfig, num_shards: int | None):
    """``StreamingSession``'s MergeShard pool + bucket→shard routing
    table."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    if num_shards is None:
        num_shards = max(2, min(cfg.num_buckets, cpus))
    per = (cfg.num_buckets + num_shards - 1) // num_shards
    los = range(0, cfg.num_buckets, per)
    # shards are lightweight during ingest; fractional CPU keeps slots
    # free for decode until finalize needs them.  The whole pool reserves
    # at most all CPUs but one: a pool holding every CPU starves the
    # decode tasks that feed it, and the commit never finishes.
    shard_cpus = min(0.5, math.floor(max(cpus - 1, 0) / len(los) * 1e4) / 1e4)
    shards = [
        MergeShard.options(
            # SPREAD: one pool's shards land across cluster nodes (the
            # multi-node claim of the design, streaming_apply.py:26-28)
            num_cpus=shard_cpus, scheduling_strategy="SPREAD",
        ).remote(
            cfg.key_cols, lo, min(lo + per, cfg.num_buckets),
            compact_rows=COMPACT_ROWS,
        )
        for lo in los
    ]
    return shards, np.arange(cfg.num_buckets) // per


class StreamingSession:
    """The job's live shard pool: ONE long-lived pool of MergeShard
    actors.  While the session is open, every commit of its job takes
    the push route (``_push``), one atomic manifest commit each — the
    engine a continuous ingester (``ReplayJob.follow_apply``) keeps open
    for its whole lifetime instead of paying shard-actor startup per
    arrival batch.  A job has at most one open session.

    The pool survives across commits (the multi-commit soak surface):
    ``seen_pushes``/``events_seen`` reset at each commit boundary,
    incremental compaction keeps running, and each ``finalize`` drains
    the buffered rows into that commit.  State after N commits is
    identical to the sort route's — same lake bytes, same manifest-chain
    semantics.  Use as a context manager (``close()`` kills the shard
    actors and hands the job back to the sort route)."""

    def __init__(self, job, *, num_shards: int | None = None):
        if job._route is not _sort_route:
            raise RuntimeError("a StreamingSession is already open on this job")
        self.job = job
        self.shards, self.shard_of = _make_shard_pool(job.cfg, num_shards)
        #: decode tasks the driver keeps in flight
        self._window = max(1, int(ray.cluster_resources().get("CPU", 1)))
        self.commits = 0
        self._closed = False
        # asked once at pool start (shards never move), read at the
        # first commit so actor start-up overlaps that commit's stream
        self._node_refs = [s.node_id.remote() for s in self.shards]
        job._route = self._push

    @functools.cached_property
    def shard_nodes(self) -> int:
        """Placement lineage: distinct Ray nodes hosting the pool (the
        SPREAD strategy's multi-node evidence)."""
        return len(set(ray.get(self._node_refs)))

    def apply_segment(self, seg) -> "object":
        """Stream one WAL segment through the live pool and commit it
        atomically (``job.run(seg)``); returns that commit's
        ``ReplayResult``."""
        if self._closed:
            raise RuntimeError("StreamingSession is closed")
        return self.job.run(seg)

    def _push(self, prep) -> tuple[list[dict], dict]:
        """The push route: decode tasks push the input's rows to the
        shards, then every shard finalizes its buckets.

        - Units: the input's read tasks, one per file, when it is a bare
          file read (``_read_tasks``); otherwise the non-empty blocks Ray
          Data streams out of its plan.  Each unit is one ``_decode_unit``
          task running the ``make_decode_push`` body, which is shipped
          once with ``ray.put``.  Units are numbered in submission
          order; a batch's push id is ``(unit index, row offset)``.
        - Window: at most the cluster's CPU count of tasks in flight;
          the driver submits the next unit as one finishes.
        - Barrier: every task is drained before finalize, and a task
          finishes only once its pushes are owned, so no task of this
          commit can retry after ``finalize`` clears ``seen_pushes``.
        - Error path: on the first failed task (or a failing Ray Data
          plan) the driver submits no further unit, waits out the ones
          in flight, has every shard ``discard`` what this commit
          pushed, and raises: no push of the failed commit lands after
          this returns, and none is applied by the next commit.  It
          does not cancel the tasks in flight: a cancel can stop a task
          between sending its pushes and their being owned."""
        self.commits += 1
        t_decode = time.monotonic()
        pushed, tasks, source = self._decode(prep)
        t_final = time.monotonic()
        metrics = {
            # phase latencies (per-commit lineage): decode+push tasks vs
            # shard finalize — small jobs are finalize/startup-bound,
            # large jobs decode-bound
            "decode_seconds": round(t_final - t_decode, 4),
            "finalize_seconds": 0,
            "decode_tasks": tasks,
            "decode_source": source,
            "streaming_apply": True,
            "streaming_session_commit": self.commits,
            "num_shards": len(self.shards),
        }
        if not pushed:
            # nothing pushed (e.g. the ledger dropped every row), so
            # there is nothing to merge and no reason to wait on the
            # pool: the ledger advances only in commits that finalize,
            # and a finalize drains everything buffered
            return [], metrics
        merge_kw = prep.merge_kw()
        stats = ray.get([s.finalize.remote(**merge_kw) for s in self.shards])
        metrics["finalize_seconds"] = round(time.monotonic() - t_final, 4)
        metrics["shard_nodes"] = self.shard_nodes
        return [r for rows in stats for r in rows], metrics

    def _decode(self, prep) -> tuple[int, int, str]:
        """Run ``_push``'s decode tasks; returns (projected rows pushed,
        tasks run, ``"read"`` or ``"blocks"``)."""
        body = ray.put(make_decode_push(prep.project(), self.shards, self.shard_of))
        read = _read_tasks(prep.ds)
        if read is not None:
            units, remote_args = read
            source, decode = "read", _decode_unit.options(**remote_args)
        else:
            units = (
                ref
                for bundle in prep.ds.iter_internal_ref_bundles()
                for ref, meta in bundle.blocks
                if meta.num_rows != 0
            )
            source, decode = "blocks", _decode_unit
        pending: list = []
        pushed = tasks = 0
        try:
            for unit in units:
                if len(pending) >= self._window:
                    done, pending = ray.wait(pending)
                    pushed += ray.get(done[0])
                pending.append(decode.remote(body, unit, prep.cfg.batch_size, tasks))
                tasks += 1
            pushed += sum(ray.get(pending))
        except Exception:
            if pending:
                ray.wait(pending, num_returns=len(pending))
            drops = [s.discard.remote() for s in self.shards]
            ray.wait(drops, num_returns=len(drops))
            raise
        return pushed, tasks, source

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.job._route = _sort_route
            # wait for shards still starting (a session whose commits
            # pushed nothing never waited on them): on a 1-core host,
            # killing them mid-start made a loop of short sessions stall
            # other Ray tasks for over 30 s after about 110 sessions
            ray.wait(self._node_refs, num_returns=len(self._node_refs))
            for s in self.shards:
                ray.kill(s)

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
