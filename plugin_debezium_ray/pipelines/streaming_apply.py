"""The apply route: decode lanes, then one merge home per bucket range.

Every commit runs ``ReplayJob.run``: prepare → route → commit
(``pipelines/replay.py``).  ``_prepare`` cuts the input into decode
units: a file read's own ``ReadTask`` objects, or the blocks of any
other input, materialized once, each with its row count when known.
``route`` cuts the units into lanes (``_lanes``): contiguous runs of
about the same number of rows, one per CPU, none past ``COMPACT_ROWS``
rows unless it is one unit.  It runs one plain Ray task per lane
(``_decode_unit``: decode, ledger filter, LWW pre-reduce, unit after
unit, the next unit read while the current one projects), with at most
the cluster's CPU count in flight and no Ray Data execution, so a
worker does not wait on the driver between units.  A task splits its
lane's kept rows once by the contiguous bucket range that owns them
(``_shard_table``) and returns one slice per range.  Each range has a
merge home that calls ``BucketMerge`` once over all of its slices:

- no session open: one plain merge task per range (``_merge_range``),
  which takes the range's slice refs and exits with the commit;
- a ``StreamingSession`` open on the job: the range's ``MergeShard``
  actor, which ingests each slice as its task finishes, finalizes at the
  commit, and outlives it with the tables it wrote (``held``).

That is the only difference, so both homes write byte-identical bucket
files, fingerprints and manifests, and are interchangeable on one lake.

Correctness rests on LWW being order-independent: the winner per key is
the max ``(lsn, seq)`` event, so slices may arrive in any order (events
at-or-below the ledger are dropped again at the merge).  Exactly-once
counting under Ray task retries comes from a single sender, as Delta
Lake gets idempotent commits from a single committer: a decode task is
pure, and only the driver hands its slices on, once per lane, from its
final attempt (a retried lane decodes all of its units again).  Rows
that really repeat in the input (a file listed twice, a self-union) are
separate units and count each time, in one lane or in two.  A shard
winner-reduces its buffer past ``COMPACT_ROWS`` rows.

A restart costs its footers, not its log: when the ledger has a mark for
every bucket, ``_prepare`` drops the read tasks of the files whose
footers prove every row is at or below the smallest mark, as Delta Lake
skips files by their min/max statistics.  A session's bucket→shard table
is fixed when it opens, and its pool starts at the first kept row, so a
restarted follower whose input the ledger covers starts no shard.

A shard's held ``{bucket: (path, table)}`` stands in for a bucket's file
at the next finalize while the manifest still pins that path (the path
is still ``os.stat``-ed).  Bucket files are immutable and each attempt
writes under its own ``data/v{N}-{hex}/``, so any other path — a lost
``CommitConflict``, another writer's commit, a failed finalize, a fresh
pool — is read from disk, and counted in ``prior_files_read``.

Every manifest records ``registry_seconds``, ``decode_seconds``,
``finalize_seconds``, ``decode_tasks`` (units), ``decode_lanes`` (Ray
decode tasks), ``files_skipped`` and ``rows_skipped``; a session commit
adds ``streaming_apply``, ``streaming_session_commit`` and
``num_shards`` (0 while no pool has started).  At cluster scale each
shard is one actor (pin ``num_shards`` ≈ total cores; Ray spreads them
across nodes), and a task's slices go from its return objects to a
merge home without passing the driver.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from plugin_debezium_ray.config import CaptureConfig
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
    The route does not use it (its tasks return their slices to the
    driver, ``_decode_unit``); ``cdcbench/staged.py`` times it."""

    def decode_and_push(t: pa.Table) -> pa.Table:
        out = proj(t)
        if len(out):
            ray.get([shard.ingest.remote(part) for shard, part
                     in zip(shards, _split(out, shard_of, len(shards)))
                     if len(part)])
        return pa.table({"n": pa.array([len(out)], pa.int64())})

    return decode_and_push


#: buffered rows past which a shard winner-reduces what it holds; also
#: the most input rows ``_lanes`` gives one decode task of several units
COMPACT_ROWS = 400_000

# reads a decode task's next unit while the task projects the current
# one: pyarrow releases the GIL while it reads and decodes parquet
_READER = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="unit-reader")


def _fold(t: pa.Table, key_cols: tuple) -> pa.Table:
    """``t``'s LWW winner per key, its ``_weight`` the SUM of the rows it
    subsumes (rows here are already pre-reduced, so counts would
    under-report)."""
    win, weights = _winners_and_weights(
        _composite_key(t, key_cols), t["lsn"].to_numpy(),
        t["seq"].to_numpy(), t[WEIGHT_COL].to_numpy(),
    )
    out = t.take(pa.array(win))
    i = out.column_names.index(WEIGHT_COL)
    return out.set_column(i, WEIGHT_COL, pa.array(weights, type=pa.int64()))


def _read(unit) -> list[pa.Table]:
    """A unit's rows: a ``ReadTask``'s blocks, read, or one materialized
    block."""
    from ray.data.block import BlockAccessor

    return [BlockAccessor.for_block(b).to_arrow()
            for b in (unit() if callable(unit) else [unit])]


def _read_ahead(units: tuple):
    """Each of ``units``' tables in turn; while the caller works on one
    unit, ``_READER`` reads the next.  A caller that stops early waits
    out a read already running, so the reader is idle for the next
    task."""
    ahead = None
    try:
        for i, unit in enumerate(units):
            tables = ahead.result() if ahead else _read(unit)
            ahead = (_READER.submit(_read, units[i + 1])
                     if i + 1 < len(units) else None)
            yield tables
            del tables
    finally:
        if ahead is not None and not ahead.cancel():
            ahead.exception()


@ray.remote
def _decode_unit(proj, shard_of: np.ndarray, n_shards: int, key_cols: tuple,
                 compact_rows: int, batch_size: int, *units) -> list:
    """One decode task, pure: the rows of a lane's ``units`` — each a
    ``ReadTask`` or one materialized block, top-level arguments so that
    Ray resolves a block's ref — in order, through the projection
    ``proj`` ``batch_size`` rows at a time, then split once by owning
    shard.  While a unit projects, the next is read (``_read_ahead``).
    The kept rows are winner-reduced (``_fold``) whenever they pass
    ``compact_rows``.  Returns ``n_shards + 1`` objects (submit with
    ``num_returns``): the per-shard kept-row counts, then one slice per
    shard (None when the lane kept no row)."""
    outs, kept = [], 0
    for tables in _read_ahead(units):
        for t in tables:
            for lo in range(0, t.num_rows, batch_size):
                out = proj(t.slice(lo, batch_size))
                if len(out):
                    outs.append(out)
                    kept += len(out)
        tables = t = None  # drop the unit's blocks before the next
        if kept > compact_rows:
            outs = [_fold(pa.concat_tables(outs, promote_options="default"),
                          key_cols)]
            kept = len(outs[0])
    if not outs:
        return [[0] * n_shards] + [None] * n_shards
    slices = _split(pa.concat_tables(outs, promote_options="default"),
                    shard_of, n_shards)
    return [[part.num_rows for part in slices], *slices]


def _lanes(units: list, window: int) -> list[tuple[dict, list]]:
    """``units`` (``(ray_remote_args, unit, rows)``, rows None when
    unknown) cut into decode lanes, ``(ray_remote_args, [unit, ...])``:
    contiguous runs in plan order, each closed once it holds
    ⌈known rows / ``window``⌉ rows, so there are at most ``window`` of
    them, and before a unit would take it past ``COMPACT_ROWS`` rows.  A
    unit of unknown size is a lane of its own; a unit of 0 rows is in
    none; units with other Ray options never share a lane."""
    total = sum(rows or 0 for _, _, rows in units)
    target = max(1, -(-total // window))
    lanes: list[tuple[dict, list]] = []
    open_rows = None  # the last lane's rows, None once it is closed
    for args, unit, rows in units:
        if rows == 0:
            continue
        if (rows is None or open_rows is None or args != lanes[-1][0]
                or open_rows + rows > COMPACT_ROWS):
            lanes.append((args, []))
            open_rows = 0
        lanes[-1][1].append(unit)
        open_rows = (None if rows is None or open_rows + rows >= target
                     else open_rows + rows)
    return lanes


@ray.remote
class MergeShard:
    """Owns buckets ``[lo, hi)``: accumulates pre-reduced event slices,
    compacts with the LWW winner reduction when buffered rows grow, and
    at finalize merges all its buckets with their prior lake state in
    one call of the ``BucketMerge`` kernel, as a plain merge task does.
    Across commits it holds the tables its last writing finalize wrote
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
        #: ``{bucket: (path, table)}`` the last writing finalize wrote
        self.held: dict[int, tuple[str, pa.Table]] = {}

    def ingest(self, t: pa.Table) -> None:
        """Accept one pre-reduced slice (``project_for_apply`` output, so
        it carries ``_weight``).  The route has only the driver call it,
        once per decode lane, with the slice the lane's final attempt
        returned: a Ray retry of a decode task cannot count an event
        twice (SURVEY.md §7.4 #1), while rows that really repeat in the
        input are separate units and count each time."""
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
        out = _fold(pa.concat_tables(self.tables, promote_options="default"),
                    self.key_cols)
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

    def finalize(self, out_dir: str, commit_id: str, **merge_kw) -> list[dict]:
        """Merge the owned buckets with their prior state in ONE
        ``BucketMerge`` call (``merge_kw``: its keyword arguments but
        ``held``), write the bucket files, return the stats rows (as
        ``_merge_range`` does).  The tables written replace ``held``: a
        bucket whose manifest path is still one of them merges over it
        instead of reading its file.  A shard that got no rows writes
        nothing and keeps what it holds."""
        merged = self._drain()
        if merged is None:
            return []
        # a finalize that fails leaves nothing held
        held, self.held = self.held, {}
        stats, self.held = BucketMerge(
            self.key_cols, out_dir, commit_id, held=held, **merge_kw
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


@ray.remote
def _merge_range(key_cols: tuple, merge_kw: dict, *parts: pa.Table) -> list[dict]:
    """One bucket range's merge home when no session is open: its slices
    from every decode lane, merged in ONE ``BucketMerge`` call; returns
    the stats rows.  Memory bound: a range's decoded slices stay in the
    object store until this task merges them, as a hash shuffle's
    blocks would, and Ray spills either past the store's capacity.  A
    slice holds at most one row per key of each batch its lane projected
    (pre-reduced)."""
    return BucketMerge(key_cols, **merge_kw)(
        pa.concat_tables(parts, promote_options="default")).to_pylist()


def _cpus() -> int:
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


class _MergeTasks:
    """The merge homes of a commit with no session open: each bucket
    range's slice refs, merged by one ``_merge_range`` task."""

    def __init__(self, cfg: CaptureConfig):
        self._window = _cpus()
        self.shard_of = _shard_table(cfg, None, self._window)
        self._key_cols = cfg.key_cols
        self._parts: list[list] = [[] for _ in range(int(self.shard_of[-1]) + 1)]

    def _take(self, counts: list, slices: list) -> list:
        for part, n, ref in zip(self._parts, counts, slices):
            if n:
                part.append(ref)
        return []

    def _merge(self, merge_kw: dict) -> list[list[dict]]:
        return ray.get([_merge_range.remote(self._key_cols, merge_kw, *refs)
                        for refs in self._parts if refs])

    def _discard(self) -> None:
        self._parts = []


def route(prep, session: "StreamingSession | None" = None
          ) -> tuple[list[dict], dict]:
    """The apply route of every commit: decode ``prep.units``, then merge
    each bucket range in its home, the open ``session``'s shards or
    plain merge tasks; returns the stats rows and phase metrics.  A
    commit that keeps no row merges nothing and waits on no home."""
    home = session or _MergeTasks(prep.cfg)
    t_decode = time.monotonic()
    kept, lanes = _decode(prep, home)
    t_final = time.monotonic()
    stats = home._merge(prep.merge_kw()) if kept else []
    metrics = {
        "decode_seconds": round(t_final - t_decode, 4),
        "finalize_seconds": round(time.monotonic() - t_final, 4) if kept else 0,
        "decode_tasks": len(prep.units),
        "decode_lanes": lanes,
    }
    if session is not None:
        session.commits += 1
        metrics.update(streaming_apply=True,
                       streaming_session_commit=session.commits,
                       num_shards=len(session._shards or ()))
        if kept:
            metrics["shard_nodes"] = session.shard_nodes
    return [r for rows in stats for r in rows], metrics


def _decode(prep, home) -> tuple[int, int]:
    """Cut ``prep.units`` into lanes (``_lanes``: at most
    ``home._window`` of them unless a lane would pass ``COMPACT_ROWS``)
    and run one ``_decode_unit`` task per lane, at most ``home._window``
    in flight, with the commit's projection shipped once; hand each
    finished task's non-empty slices to ``home._take``.  Returns the
    rows kept, once the home owns every slice, and the lane count.  On
    the first failed task or ingest the driver submits nothing more,
    waits out what is in flight, has the home ``_discard`` this commit's
    rows, and raises: a session's next commit applies none of them."""
    proj = ray.put(prep.project())
    shard_of = home.shard_of
    n_shards = int(shard_of[-1]) + 1
    todo = list(reversed(_lanes(prep.units, home._window)))
    lanes = len(todo)
    # in flight: a decode task's counts ref -> its slice refs, and
    # an ingest's ref -> None
    pending: dict = {}
    decoding = rows = 0
    try:
        while todo or pending:
            if todo and decoding < home._window:
                args, units = todo.pop()
                counts, *slices = _decode_unit.options(
                    num_returns=n_shards + 1, **args
                ).remote(proj, shard_of, n_shards, prep.cfg.key_cols,
                         COMPACT_ROWS, prep.cfg.batch_size, *units)
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
                pending.update(dict.fromkeys(home._take(counts, slices)))
                rows += sum(counts)
    except Exception:
        if pending:
            ray.wait(list(pending), num_returns=len(pending))
        home._discard()
        raise
    return rows, lanes


class StreamingSession:
    """The job's live shard pool: the merge home of every commit of its
    job while it is open, kept by a continuous ingester
    (``ReplayJob.follow_apply``) for its whole lifetime so that it pays
    shard-actor startup once.  A job has at most one open session.

    The bucket→shard table (``shard_of``) is fixed when the session
    opens; ``shards`` starts the pool on first access, at a commit's
    first kept row.  Across commits the shard counters reset, compaction
    keeps running and each ``finalize`` drains its commit's rows; the
    lake after N commits is byte-identical to N sessionless commits'.
    ``close()`` kills the shards and hands the job back to plain merge
    tasks."""

    def __init__(self, job, *, num_shards: int | None = None):
        if job._session is not None:
            raise RuntimeError("a StreamingSession is already open on this job")
        self.job = job
        #: decode tasks the driver keeps in flight
        self._window = _cpus()
        #: bucket → index into ``shards``
        self.shard_of = _shard_table(job.cfg, num_shards, self._window)
        #: the pool, once started
        self._shards: list | None = None
        self.commits = 0
        self._closed = False
        job._session = self

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

    # the merge home ``route`` hands slices to (as ``_MergeTasks``)

    def _take(self, counts: list, slices: list) -> list:
        """Ingest a unit's non-empty slices into their shards, starting
        the pool at the first kept row; returns the ingest refs."""
        return [shard.ingest.remote(part) for shard, n, part
                in zip(self.shards, counts, slices) if n]

    def _merge(self, merge_kw: dict) -> list[list[dict]]:
        return ray.get([s.finalize.remote(**merge_kw) for s in self._shards])

    def _discard(self) -> None:
        """A started pool drops what the failed commit ingested."""
        if self._shards is not None:
            drops = [s.discard.remote() for s in self._shards]
            ray.wait(drops, num_returns=len(drops))

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.job._session = None
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
