"""Streaming actor-pool apply — the push route of the apply core.

Every commit runs ``ReplayJob.run``: prepare → route → commit
(``pipelines/replay.py``).  The sort route sends events to buckets with
ONE sort-based ``groupby`` — correct and spill-friendly, but the sort is
a barrier: no merge work starts until every decode task finishes, and
utilization dips at every commit boundary.

This module is the other route, the architecture SURVEY.md §7.1 sketches
directly: a pool of ``MergeShard`` **actors**, each owning a contiguous
bucket range.  Decode tasks pre-reduce their rows and split them by
owning shard; as each task finishes, the driver hands every shard its
slice — no all-to-all barrier, no sort.  Correctness rests on LWW being
order-independent: the winner per key is the max ``(lsn, seq)`` event,
so shards may receive slices in any order, from any segment (events
at-or-below the ledger are dropped at finalize).  Exactly-once counting
under Ray task retries comes from a single sender, as Delta Lake gets
idempotent commits from a single committer: a decode task is pure — it
returns its slices and touches no actor — and only the driver sends rows
to the shards, once per unit, from the task's final attempt.  A retried
task is invisible, while rows that really repeat in the input (a file
listed twice, a self-union) are separate units and count each time, as
the sort route counts them.  Shards compact incrementally
(winner-reduce their accumulated slices) whenever buffered rows exceed
a threshold, so steady-state memory per shard is O(its share of live
keys), not O(its share of the stream).

The decode tasks are plain Ray tasks over the input's own ``ReadTask``
objects, not a Ray Data execution: a tail commit of a few hundred rows
otherwise pays more for the streaming executor than for the work.  The
route takes only file reads (``_file_reads``): one ``read_parquet(paths,
columns=APPLY_COLUMNS)`` — one read task per file, with its column
pruning, filters, partitioning and ``ray_remote_args`` — or a union of
them, whose units are each read's tasks in turn.  Any other input (a
generated source, ``limit``, a materialized Dataset) commits on the
sort route inside the session; the shards' held tables then trust only
the buckets that commit left on their paths.

A restart costs its footers, not its log.  When the ledger has a mark
for every bucket, the commit's footer pass (``ddl_rows_from_parquet``,
the one that plans its DDL) also lists the files whose every row group
proves each row's ``(lsn, seq)`` is at or below the smallest mark — rows
the ledger filter would drop — and the route drops their read tasks, as
Delta Lake skips files by their min/max statistics.  The bucket→shard
table is fixed when the session opens, so a unit is split before any
shard exists, and the pool starts when the first task returns a kept
row.  A restarted follower whose input the ledger covers starts no
shard.  Every push manifest records ``decode_tasks`` (the units that
ran), ``files_skipped``, ``rows_skipped`` (from the footers'
``num_rows``) and ``num_shards`` (0 while no pool has started).

Finalize hands each shard's drained rows to ONE ``BucketMerge`` call
per commit (the sort route calls the same kernel once per bucket) —
identical deterministic bucket files, fingerprints and manifest as the
sort path, so resume / rerun / read_table are interchangeable between
the two paths.  The restore, schema replay, stop and snapshot rules and
the manifest commit around the route are the shared ``_prepare`` /
``_commit``.

A shard keeps state across commits: the ``{bucket: (path, table)}`` of
the bucket files its last writing finalize wrote.  At the next finalize
a bucket whose manifest path is still the held path merges over the held
table instead of reading the file (the path is still ``os.stat``-ed, so
a missing committed file raises as on the sort route).  Bucket files are
immutable and each commit attempt writes under its own
``data/v{N}-{hex}/``, so the held table is the file's content; any other
path — a lost ``CommitConflict``, another writer's commit, a failed
finalize, a fresh pool — is read from disk.  A finalize that writes
replaces what is held with the tables it wrote: about the prior tables
the merge held at once anyway; a shard that got no rows keeps what it
holds.  Each manifest counts the disk reads as ``prior_files_read``.

``StreamingSession`` owns one pool across commits.  While it is open,
its job routes every file-read commit here (``run``, ``run_segments``,
``run_from_paths``, ``poll``; ``follow_apply`` holds one for its whole
lifetime); a one-shot push is ``with job.streaming_session():
job.run(ds)``.  The pool serves one lake: multi-table capture
(``pipelines/multi_table.py``) runs each stream through the core on its
own.

At cluster scale each shard is one actor (pin ``num_shards`` ≈ total
cores; Ray spreads them across nodes); a task's slices go from its
return objects to the actors without passing through the driver, and
the driver keeps at most the cluster's CPU count of decode tasks in
flight.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import _file_reads, _sort_route
from plugin_debezium_ray.stages.apply import (
    BUCKET_COL,
    WEIGHT_COL,
    BucketMerge,
    _composite_key,
    _winners_and_weights,
)


def _split(out: pa.Table, shard_of: np.ndarray, n_shards: int) -> list[pa.Table]:
    """``out``'s rows by owning shard (one stable argsort +
    searchsorted): one table per shard, empty where it owns none."""
    sid = shard_of[out[BUCKET_COL].to_numpy()]
    order = np.argsort(sid, kind="stable")
    cuts = np.searchsorted(sid[order], np.arange(n_shards + 1), side="left")
    return [out.take(pa.array(order[cuts[s] : cuts[s + 1]]))
            for s in range(n_shards)]


def make_decode_push(proj, shards, shard_of: np.ndarray):
    """A ``map_batches`` body that projects a batch, splits it by owning
    shard and pushes each slice, returning once every push is owned.
    The push route does not use it (its tasks return their slices to
    the driver, ``_decode_unit``); ``cdcbench/staged.py`` times it."""

    def decode_and_push(t: pa.Table) -> pa.Table:
        out = proj(t)
        if len(out):
            ray.get([shard.ingest.remote(part) for shard, part
                     in zip(shards, _split(out, shard_of, len(shards)))
                     if len(part)])
        return pa.table({"n": pa.array([len(out)], pa.int64())})

    return decode_and_push


@ray.remote
def _decode_unit(proj, shard_of: np.ndarray, n_shards: int, task,
                 batch_size: int) -> list:
    """One decode task, pure: the rows of the ``ReadTask`` ``task``
    through the projection ``proj`` ``batch_size`` rows at a time, split
    by owning shard.  Returns ``n_shards + 1`` objects (submit with
    ``num_returns``): the per-shard kept-row counts, then one slice per
    shard (None when the unit kept no row)."""
    from ray.data.block import BlockAccessor

    outs = []
    for block in task():
        t = BlockAccessor.for_block(block).to_arrow()
        for lo in range(0, t.num_rows, batch_size):
            out = proj(t.slice(lo, batch_size))
            if len(out):
                outs.append(out)
    if not outs:
        return [[0] * n_shards] + [None] * n_shards
    slices = _split(pa.concat_tables(outs, promote_options="default"),
                    shard_of, n_shards)
    return [[part.num_rows for part in slices], *slices]


#: buffered rows past which a shard winner-reduces what it holds
COMPACT_ROWS = 400_000


@ray.remote
class MergeShard:
    """Owns buckets ``[lo, hi)``: accumulates pre-reduced event slices,
    compacts with the LWW winner reduction when buffered rows grow, and
    at finalize merges all its buckets with their prior lake state in
    one call of the ``BucketMerge`` kernel the sort path uses per
    bucket.  Across commits it holds the tables its last writing
    finalize wrote (``held``); a bucket whose manifest path is still
    held is not read back from disk at the next finalize."""

    def __init__(self, key_cols: tuple[str, ...], lo: int, hi: int,
                 compact_rows: int = COMPACT_ROWS):
        self.key_cols = tuple(key_cols)
        self.lo, self.hi = lo, hi
        self.tables: list[pa.Table] = []
        self.buffered = 0
        self.events_seen = 0
        self.compact_rows = compact_rows
        self.pushes = 0
        #: ``{bucket: (path, table)}`` the last writing finalize wrote
        self.held: dict[int, tuple[str, pa.Table]] = {}

    def ingest(self, t: pa.Table) -> None:
        """Accept one pre-reduced slice (``project_for_apply`` output, so
        it carries ``_weight``).  On the push route only the driver calls
        it, once per decode unit, with the slice the unit's final attempt
        returned: a Ray retry of a decode task cannot count an event
        twice (SURVEY.md §7.4 #1), while rows that really repeat in the
        input are separate units and count each time, as on the sort
        route."""
        self.pushes += 1
        self.tables.append(t)
        self.buffered += len(t)
        self.events_seen += int(pc.sum(t[WEIGHT_COL]).as_py() or 0)
        if self.buffered > self.compact_rows:
            self._compact()

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
        # winners carry the SUM of subsumed rows' weights (rows arriving
        # here are already pre-reduced, so counts would under-report)
        win, weights = _winners_and_weights(
            _composite_key(merged, self.key_cols), merged["lsn"].to_numpy(),
            merged["seq"].to_numpy(), merged[WEIGHT_COL].to_numpy(),
        )
        out = merged.take(pa.array(win))
        i = out.column_names.index(WEIGHT_COL)
        out = out.set_column(i, WEIGHT_COL, pa.array(weights, type=pa.int64()))
        self.tables = [out]
        self.buffered = len(out)

    def _drain(self) -> pa.Table | None:
        """Take every buffered row at a commit boundary; the counters
        roll over to per-commit accounting.  The pool may live on across
        commits."""
        self.events_seen = self.pushes = 0
        if not self.tables:
            return None
        merged = pa.concat_tables(self.tables, promote_options="default")
        self.tables = []
        self.buffered = 0
        return merged

    def discard(self) -> None:
        """Drop every row ingested since the last finalize: the commit
        they belong to failed, so the session's next commit must not
        apply them."""
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
        over it instead of reading its file.  A shard that got no rows
        writes nothing and keeps what it holds."""
        merged = self._drain()
        if merged is None:
            return []
        # a finalize that fails leaves nothing held
        held, self.held = self.held, {}
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


def _shard_table(cfg: CaptureConfig, num_shards: int | None,
                 cpus: int) -> np.ndarray:
    """Bucket → shard index: ``num_shards`` contiguous bucket ranges
    (default one per CPU, at least 2, at most one per bucket)."""
    if num_shards is None:
        num_shards = max(2, min(cfg.num_buckets, cpus))
    per = (cfg.num_buckets + num_shards - 1) // num_shards
    return np.arange(cfg.num_buckets) // per


def _make_shard_pool(cfg: CaptureConfig, shard_of: np.ndarray,
                     cpus: int) -> list:
    """The MergeShard actors of the bucket→shard table ``shard_of``."""
    n = int(shard_of[-1]) + 1
    bounds = np.searchsorted(shard_of, np.arange(n + 1))
    # shards are lightweight during ingest; fractional CPU keeps slots
    # free for decode until finalize needs them.  The whole pool reserves
    # at most all CPUs but one: a pool holding every CPU starves the
    # decode tasks that feed it, and the commit never finishes.
    shard_cpus = min(0.5, math.floor(max(cpus - 1, 0) / n * 1e4) / 1e4)
    return [
        MergeShard.options(
            # SPREAD: one pool's shards land across cluster nodes (the
            # multi-node claim of the module docstring)
            num_cpus=shard_cpus, scheduling_strategy="SPREAD",
        ).remote(cfg.key_cols, int(bounds[s]), int(bounds[s + 1]),
                 compact_rows=COMPACT_ROWS)
        for s in range(n)
    ]


class StreamingSession:
    """The job's live shard pool: ONE long-lived pool of MergeShard
    actors.  While the session is open, every file-read commit of its
    job takes the push route (``_push``), one atomic manifest commit
    each — the engine a continuous ingester (``ReplayJob.follow_apply``)
    keeps open for its whole lifetime instead of paying shard-actor
    startup per arrival batch.  A job has at most one open session.

    The bucket→shard table (``shard_of``) is fixed when the session
    opens; the pool starts when a commit's first decode task returns a
    kept row (``shards`` starts it on first access).  A restarted
    follower whose input the ledger already covers starts no shard, and
    ``close()`` then has nothing to wait for.  The pool survives across
    commits (the multi-commit soak surface): the shard counters reset at
    each commit boundary, incremental compaction keeps running, and each
    ``finalize`` drains the buffered rows into that commit.  State after
    N commits is identical to the sort route's — same lake bytes, same
    manifest-chain semantics.  Use as a context manager (``close()``
    kills the shard actors and hands the job back to the sort route)."""

    def __init__(self, job, *, num_shards: int | None = None):
        if job._route is not _sort_route:
            raise RuntimeError("a StreamingSession is already open on this job")
        self.job = job
        #: decode tasks the driver keeps in flight
        self._window = max(1, int(ray.cluster_resources().get("CPU", 1)))
        #: bucket → index into ``shards``
        self.shard_of = _shard_table(job.cfg, num_shards, self._window)
        #: the pool, once started
        self._shards: list | None = None
        self.commits = 0
        self._closed = False
        job._route = self._push

    @property
    def shards(self) -> list:
        """The MergeShard actors; the first access starts the pool."""
        if self._closed:
            raise RuntimeError("StreamingSession is closed")
        if self._shards is None:
            self._shards = _make_shard_pool(
                self.job.cfg, self.shard_of, self._window)
            # asked once at pool start (shards never move), read after
            # the pool's first finalize
            self._node_refs = [s.node_id.remote() for s in self._shards]
        return self._shards

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
        """The push route for a file-read input: decode tasks split its
        rows by shard, the driver ingests each task's slices, then every
        shard finalizes its buckets.  Any other input commits on
        ``_sort_route``.  Units are each read's read tasks, one per file,
        read after read (``_file_reads``), less every task whose input
        files the ledger covers (``prep.skipped``); ``_decode`` runs
        them."""
        reads = _file_reads(prep.ds)
        if reads is None:
            return _sort_route(prep)
        self.commits += 1
        t_decode = time.monotonic()
        units, files_skipped, rows_skipped = [], 0, 0
        for read in reads:
            for task in read.datasource.get_read_tasks(len(read.files)):
                files = task.metadata.input_files
                if files and all(f in prep.skipped for f in files):
                    files_skipped += len(files)
                    rows_skipped += sum(prep.skipped[f] for f in files)
                else:
                    units.append((read, task))
        pushed = self._decode(prep, units)
        t_final = time.monotonic()
        metrics = {
            # phase latencies (per-commit lineage): decode+ingest vs
            # shard finalize — small jobs are finalize/startup-bound,
            # large jobs decode-bound
            "decode_seconds": round(t_final - t_decode, 4),
            "finalize_seconds": 0,
            "decode_tasks": len(units),
            "files_skipped": files_skipped,
            "rows_skipped": rows_skipped,
            "streaming_apply": True,
            "streaming_session_commit": self.commits,
            "num_shards": len(self._shards or ()),
        }
        if not pushed:
            # nothing pushed (e.g. the ledger dropped every row), so
            # there is nothing to merge and no reason to wait on the
            # pool: the ledger advances only in commits that finalize,
            # and a finalize drains everything buffered
            return [], metrics
        merge_kw = prep.merge_kw()
        stats = ray.get([s.finalize.remote(**merge_kw) for s in self._shards])
        metrics["finalize_seconds"] = round(time.monotonic() - t_final, 4)
        metrics["shard_nodes"] = self.shard_nodes
        return [r for rows in stats for r in rows], metrics

    def _decode(self, prep, units: list) -> int:
        """Run one ``_decode_unit`` task per ``(read, task)`` unit, with
        its read's ``ray_remote_args`` and the commit's projection
        (shipped once with ``ray.put``), and ingest each finished task's
        non-empty slices into their shards, starting the pool at the
        first kept row.  Returns the rows ingested, once every ingest is
        owned.

        - Window: at most the cluster's CPU count of decode tasks in
          flight; the driver submits the next unit as one finishes.
        - Exactly once: only the driver ingests, once per unit, from the
          task's final attempt, so a Ray retry of a task sends nothing.
        - Error path: on the first failed task or ingest the driver
          submits nothing more, waits out the tasks and ingests in
          flight, has a started pool ``discard`` what this commit
          ingested, and raises: nothing of the failed commit lands after
          this returns, and the next commit applies none of it."""
        proj = ray.put(prep.project())
        n_shards = int(self.shard_of[-1]) + 1
        todo = list(reversed(units))
        # in flight: a decode task's counts ref -> its slice refs, and
        # an ingest's ref -> None
        pending: dict = {}
        decoding = rows = 0
        try:
            while todo or pending:
                if todo and decoding < self._window:
                    read, task = todo.pop()
                    counts, *slices = _decode_unit.options(
                        num_returns=n_shards + 1, **read.ray_remote_args
                    ).remote(proj, self.shard_of, n_shards, task,
                             prep.cfg.batch_size)
                    pending[counts] = slices
                    decoding += 1
                    continue
                [done], _ = ray.wait(list(pending))
                slices = pending.pop(done)
                counts = ray.get(done)
                if slices is None:
                    continue
                decoding -= 1
                if any(counts):
                    for shard, n, part in zip(self.shards, counts, slices):
                        if n:
                            pending[shard.ingest.remote(part)] = None
                    rows += sum(counts)
        except Exception:
            if pending:
                ray.wait(list(pending), num_returns=len(pending))
            if self._shards is not None:
                drops = [s.discard.remote() for s in self._shards]
                ray.wait(drops, num_returns=len(drops))
            raise
        return rows

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.job._route = _sort_route
            if self._shards is None:
                return
            # wait for shards still starting (a session whose commits
            # pushed nothing never waited on them): on a 1-core host,
            # killing them mid-start made a loop of short sessions stall
            # other Ray tasks for over 30 s after about 110 sessions
            ray.wait(self._node_refs, num_returns=len(self._node_refs))
            for s in self._shards:
                ray.kill(s)

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
