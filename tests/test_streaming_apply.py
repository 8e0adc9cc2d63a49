"""Barrier-free actor-pool apply (`pipelines/streaming_apply.py`):
byte-parity with the sort path, oracle parity, idempotent rerun,
incremental resume, and out-of-order ingestion (LWW order independence).
"""

import hashlib
import os

import pytest

import ray.data

from conftest import pushed
from test_recovery import _oracle, _segment
from test_recovery import _state as _lake_state
from plugin_debezium_ray.config import CaptureConfig, OffsetCommitMode
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import (
    binlog,
    oracle_apply,
    snapshot_envelopes,
)

SEED = 7
N_EVENTS, N_KEYS = 4000, 350


def _state(job):
    return {
        (r.repo, r.path): hashlib.sha256(r.content.encode()).hexdigest()
        for r in job.read_table().to_pandas().itertuples()
    }


def _bucket_hashes(job):
    return {
        b: hashlib.sha256(open(p, "rb").read()).hexdigest()
        for b, p in job.ckpt.bucket_paths().items()
    }


class TestStreamingApply:
    def test_byte_parity_with_sort_path(self, tmp_path):
        a = ReplayJob(CaptureConfig(num_buckets=16), str(tmp_path / "a"))
        a.run(
            binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
            ddl_source=False,
        )
        b = ReplayJob(CaptureConfig(num_buckets=16), str(tmp_path / "b"))
        res = pushed(
            b, b.run, binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        assert res.events_seen == N_EVENTS + N_KEYS
        assert _state(a) == _state(b)
        # identical deterministic bucket FILES, not just values — the two
        # paths are interchangeable on the same lake
        assert _bucket_hashes(a) == _bucket_hashes(b)
        assert set(_state(b)) == set(oracle_apply(N_EVENTS, N_KEYS, seed=SEED))

    def test_rerun_applies_zero(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        pushed(
            job, job.run, binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        h1 = _bucket_hashes(job)
        res2 = pushed(job, job.run, binlog(N_EVENTS, N_KEYS, seed=SEED))
        assert res2.events_seen == 0
        assert _bucket_hashes(job) == h1

    def test_incremental_tail_resume(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        pushed(
            job, job.run, binlog(2000, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        res = pushed(job, job.run, binlog(1500, N_KEYS, seed=SEED, base_lsn=2001))
        assert res.events_seen == 1500 and res.version == 2
        # mirror with the sort path from scratch over the full stream
        ref = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "ref"))
        full = binlog(2000, N_KEYS, seed=SEED).union(
            binlog(1500, N_KEYS, seed=SEED, base_lsn=2001)
        )
        ref.run(full, snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
                ddl_source=False)
        assert _state(job) == _state(ref)

    def test_order_independence_segments_reversed_within_run(self, tmp_path):
        """Shards may receive events in ANY order within one run: a
        union with segments reversed produces the same final state
        (LWW winner = max (lsn, seq), commutative)."""
        s1 = binlog(1500, 200, seed=SEED)
        s2 = binlog(1500, 200, seed=SEED, base_lsn=1501)
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        pushed(a, a.run, s1.union(s2))
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        pushed(b, b.run, binlog(1500, 200, seed=SEED, base_lsn=1501).union(
            binlog(1500, 200, seed=SEED)
        ))
        assert _state(a) == _state(b)

    def test_retried_push_is_deduped(self):
        """A retried decode task re-sends its batches under the same
        ``(unit index, row offset)`` ids; the shard drops them
        (exactly-once events_seen accounting under Ray task retries).
        The same rows under another id are another push: rows that
        really repeat in the input count again, as on the sort route."""
        import pandas as pd
        import pyarrow as pa

        import ray as _ray

        from plugin_debezium_ray.pipelines.streaming_apply import MergeShard

        shard = MergeShard.remote(("repo", "path"), 0, 4)
        t = pa.table(
            {
                "lsn": pa.array([1, 2], pa.int64()),
                "seq": pa.array([0, 0], pa.int64()),
                "deleted": pa.array([False, False]),
                "repo": ["r1", "r1"],
                "path": ["a", "b"],
                "content": ["x", "y"],
                "_bucket": pa.array([0, 0], pa.int32()),
                "_weight": pa.array([3, 4], pa.int64()),
            }
        )
        _ray.get(shard.ingest.remote(t, (0, 0)))
        _ray.get(shard.ingest.remote(t, (0, 0)))  # the retry
        c = _ray.get(shard.counters.remote())
        assert c["events_seen"] == 7  # 3 + 4, counted ONCE
        assert c["pushes"] == 1 and c["buffered"] == 2
        _ray.get(shard.ingest.remote(t, (1, 0)))  # the next unit, same rows
        c = _ray.get(shard.counters.remote())
        assert c["events_seen"] == 14 and c["pushes"] == 2
        # commit boundary bounds the dedup set: finalize clears it (no
        # task of a committed segment can retry past the decode barrier)
        import tempfile

        with tempfile.TemporaryDirectory(dir="/tmp") as d:
            _ray.get(shard.finalize.remote(
                d, "v000001", prior_paths={}, prior_fingerprints={},
                ledger={}, fingerprint_col="content",
            ))
        c2 = _ray.get(shard.counters.remote())
        assert c2 == {"events_seen": 0, "pushes": 0, "buffered": 0}
        _ray.kill(shard)

    def test_schema_evolution_via_ddl_source(self, tmp_path):
        """DDL replays through the streaming path when ddl_source is
        given (same ST3 contract as the sort path)."""
        from plugin_debezium_ray.sources.binlog import ddl_events_table

        ddl = ray.data.from_arrow(
            ddl_events_table(
                [
                    (0, {"action": "add_column", "name": "license",
                         "type": "string", "default": "unknown"}),
                    (0, {"action": "rename_column", "from": "lang",
                         "to": "language"}),
                ]
            )
        )
        env = binlog(N_EVENTS, N_KEYS, seed=SEED).union(ddl)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        pushed(job, job.run, env, snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
               ddl_source=env)
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert set(tab["license"]) == {"unknown"}

    def test_compaction_is_lossless(self, tmp_path, monkeypatch):
        """A tiny compact threshold forces many in-flight winner
        reductions (weights must SUM through compaction, not recount);
        result and events_seen must equal the sort path's."""
        from plugin_debezium_ray.pipelines import streaming_apply as sa

        monkeypatch.setattr(sa, "COMPACT_ROWS", 100)
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "d"))
        # hot keys: every ingest triggers a compact
        res = pushed(job, job.run, binlog(3000, 50, seed=3))
        ref = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "e"))
        ref_res = ref.run(binlog(3000, 50, seed=3), ddl_source=False)
        assert _state(job) == _state(ref)
        assert res.events_seen == ref_res.events_seen == 3000


class TestStreamingSoak:
    """Multi-commit streaming sessions (VERDICT r2 #7): N sequential WAL
    segments through ONE shard pool, one atomic commit per segment —
    exercises seen_pushes growth and incremental compaction over time."""

    #: one commit per segment (ON_STOP commits their union once)
    CFG = dict(num_buckets=8, offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)

    def _segments(self, n=3):
        return [
            binlog(1200, 150, seed=SEED, base_lsn=1 + 10_000 * i)
            for i in range(n)
        ]

    def _parquet_segments(self, tmp_path):
        """The same segments written to parquet, read back as the
        follower reads them: ``read_parquet(columns=APPLY_COLUMNS)``."""
        from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

        dirs = [str(tmp_path / f"seg{i}") for i in range(3)]
        for seg, d in zip(self._segments(), dirs):
            seg.write_parquet(d)
        return lambda: [
            ray.data.read_parquet(d, columns=list(APPLY_COLUMNS)) for d in dirs
        ]

    def test_three_commits_one_pool_parity_and_rerun_zero(
        self, tmp_path, monkeypatch
    ):
        self._three_commits(tmp_path, monkeypatch, self._segments, "blocks")

    def test_three_commits_on_parquet_inputs(self, tmp_path, monkeypatch):
        self._three_commits(tmp_path, monkeypatch,
                            self._parquet_segments(tmp_path), "read")

    def _three_commits(self, tmp_path, monkeypatch, segments, source):
        from plugin_debezium_ray.pipelines import streaming_apply as sa

        monkeypatch.setattr(sa, "COMPACT_ROWS", 500)  # real compactions
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "soak"))
        results = pushed(job, job.run_segments, segments())
        assert [r.version for r in results] == [1, 2, 3]
        assert all(r.events_seen == 1200 for r in results)
        assert all(
            r.metrics.get("streaming_session_commit") == i + 1
            for i, r in enumerate(results)
        )
        assert {r.metrics["decode_source"] for r in results} == {source}

        # parity: one-shot sort path over the union of all segments
        ref = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "ref"))
        full = self._segments()[0]
        for seg in self._segments()[1:]:
            full = full.union(seg)
        ref.run(full, ddl_source=False)
        assert _state(job) == _state(ref)

        # rerun-zero across the SAME multi-commit surface: every segment
        # is at-or-below the ledger now
        rerun = pushed(job, job.run_segments, segments())
        assert [r.events_seen for r in rerun] == [0, 0, 0]
        assert _state(job) == _state(ref)

    def test_mid_session_ddl_evolves_schema(self, tmp_path):
        """Each segment's DDL replays before that segment applies —
        schema evolution ACROSS commits of one streaming session (ST3
        parity with the sort route)."""
        from plugin_debezium_ray.sources.binlog import ddl_events_table

        ddl = ray.data.from_arrow(
            ddl_events_table(
                [
                    (10_001, {"action": "add_column", "name": "license",
                              "type": "string", "default": "unknown"}),
                    (10_001, {"action": "rename_column", "from": "lang",
                              "to": "language"}),
                ]
            )
        )
        segs = [
            binlog(1200, 150, seed=SEED),
            binlog(1200, 150, seed=SEED, base_lsn=10_001).union(ddl),
        ]
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path))
        results = pushed(job, job.run_segments, segs)
        assert [r.version for r in results] == [1, 2]
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert set(tab["license"]) == {"unknown"}
        assert tab["language"].notna().all()  # old rows read renamed

    def test_session_state_matches_separate_runs(self, tmp_path):
        """State after N commits through one pool == N commits through
        N one-shot pools (byte-identical bucket files)."""
        a = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "a"))
        pushed(a, a.run_segments, self._segments())
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        for seg in self._segments():
            pushed(b, b.run, seg)
        assert _state(a) == _state(b)
        assert _bucket_hashes(a) == _bucket_hashes(b)

    def test_on_stop_commits_the_union_once(self, tmp_path):
        """Under ON_STOP the session commits once over the union, like
        ``run_segments``; the state equals the per-segment cadence's."""
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        results = pushed(a, a.run_segments, self._segments())
        assert [r.version for r in results] == [1]
        assert results[0].events_seen == 3 * 1200
        b = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "b"))
        pushed(b, b.run_segments, self._segments())
        assert _state(a) == _state(b)


class TestShardLoss:
    def test_dead_shard_fails_run_without_partial_commit(
        self, tmp_path, monkeypatch
    ):
        """Chaos: a shard actor dies mid-stream.  The contract is
        fail-fast + clean resume — pushes to the dead actor error the
        run, NO manifest is committed (the atomic-commit guarantee), and
        a fresh run over the same WAL reaches oracle parity.  (Shard
        state is deliberately not replicated: recovery is replay-from-
        checkpoint, same as the reference's restart-from-offsets model.)
        """
        from plugin_debezium_ray.pipelines import streaming_apply as sa

        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(num_buckets=8), lake)

        real_make = sa._make_shard_pool

        def sabotaged(cfg, num_shards):
            shards, shard_of = real_make(cfg, num_shards)
            ray.kill(shards[0])  # one shard dies before the stream starts
            return shards, shard_of

        monkeypatch.setattr(sa, "_make_shard_pool", sabotaged)
        with pytest.raises(Exception):
            pushed(job, job.run, binlog(N_EVENTS, N_KEYS, seed=SEED),
                   snapshot=snapshot_envelopes(N_KEYS, seed=SEED))
        monkeypatch.setattr(sa, "_make_shard_pool", real_make)
        # atomicity: the failed run committed nothing
        assert job.ckpt.restore() is None
        res = pushed(job, job.run, binlog(N_EVENTS, N_KEYS, seed=SEED),
                     snapshot=snapshot_envelopes(N_KEYS, seed=SEED))
        assert res.events_seen == N_EVENTS + N_KEYS
        assert set(_state(job)) == set(
            oracle_apply(N_EVENTS, N_KEYS, seed=SEED)
        )


class TestSessionShardLoss:
    def test_mid_session_shard_death_fails_commit_not_lake(self, tmp_path):
        """Chaos on the persistent session: a shard dying BETWEEN commits
        fails the next apply_segment fast, leaves the already-committed
        manifest chain untouched (atomicity), and a fresh session over
        the failed segment converges to parity."""
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(num_buckets=8), lake)
        seg1 = binlog(1500, 150, seed=SEED, base_lsn=1)
        seg2 = binlog(1500, 150, seed=SEED, base_lsn=1501)

        session = job.streaming_session(num_shards=2)
        try:
            r1 = session.apply_segment(seg1)
            assert r1.version == 1
            v1_buckets = _bucket_hashes(job)
            ray.kill(session.shards[0])
            with pytest.raises(Exception):
                session.apply_segment(seg2)
        finally:
            session.close()
        # the failed commit tore nothing: manifest still v1, files intact
        assert int(job.ckpt.restore()["version"]) == 1
        assert _bucket_hashes(job) == v1_buckets

        # recovery: a fresh session replays the failed segment
        with job.streaming_session(num_shards=2) as s2:
            r2 = s2.apply_segment(seg2)
        assert r2.version == 2 and r2.events_seen == 1500
        ref = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "ref"))
        ref.run(binlog(1500, 150, seed=SEED, base_lsn=1).union(
            binlog(1500, 150, seed=SEED, base_lsn=1501)))
        assert _state(job) == _state(ref)

    def test_commit_that_pushes_nothing_skips_the_pool(self, tmp_path):
        """A rerun whose every row the ledger drops pushes nothing, so
        it neither finalizes nor waits on the shards: with the whole pool
        dead, it still commits, applying zero events and writing no
        bucket file."""
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        seg = binlog(1500, 150, seed=SEED, base_lsn=1)
        with job.streaming_session(num_shards=2) as session:
            r1 = session.apply_segment(seg)
            v1_buckets = _bucket_hashes(job)
            for s in session.shards:
                ray.kill(s)
            r2 = session.apply_segment(seg)
        assert r1.events_applied > 0 and "shard_nodes" in r1.metrics
        assert r2.version == 2 and r2.events_applied == 0
        assert r2.metrics["finalize_seconds"] == 0
        assert "shard_nodes" not in r2.metrics
        assert _bucket_hashes(job) == v1_buckets

    def test_closed_session_rejects_apply(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "l"))
        s = job.streaming_session()
        s.close()
        with pytest.raises(RuntimeError):
            s.apply_segment(binlog(10, 5, seed=SEED))


class TestOneApplySurface:
    """The job picks the route: while a shard pool is open on it, every
    commit of every entry point takes the push route; nothing else about
    a commit depends on the route."""

    def test_default_ddl_rule_is_the_same_on_both_routes(self, tmp_path):
        """The same DDL-bearing segments with default arguments: the
        sort route's ``run_segments`` and a session's commits evolve the
        schema alike and write the same bucket files."""
        from plugin_debezium_ray.sources.binlog import ddl_events_table

        ddl = ray.data.from_arrow(ddl_events_table([
            (10_001, {"action": "add_column", "name": "license",
                      "type": "string", "default": "unknown"}),
            (10_001, {"action": "rename_column", "from": "lang",
                      "to": "language"}),
        ]))
        segs = [
            binlog(1200, 150, seed=SEED),
            binlog(1200, 150, seed=SEED, base_lsn=10_001).union(ddl),
        ]
        cfg = CaptureConfig(num_buckets=8,
                            offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)
        sort = ReplayJob(cfg, str(tmp_path / "sort"))
        sort.run_segments(segs)
        push = ReplayJob(cfg, str(tmp_path / "push"))
        with push.streaming_session() as session:
            for seg in segs:
                session.apply_segment(seg)
        cols = sorted(push.read_table().to_pandas().columns)
        assert cols == sorted(sort.read_table().to_pandas().columns)
        assert "language" in cols and "license" in cols and "lang" not in cols
        assert _bucket_hashes(sort) == _bucket_hashes(push)

    def test_apply_columns_read_commits(self, tmp_path):
        """An input without a ``ddl`` column (the pruned read the
        follower and the benchmark use) commits on the sort route."""
        from plugin_debezium_ray.sources.binlog import write_binlog_segments
        from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

        wal = write_binlog_segments(str(tmp_path / "wal"), 600, 60,
                                    seed=SEED, num_segments=2)
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        res = job.run(ray.data.read_parquet(wal, columns=list(APPLY_COLUMNS)))
        assert res.version == 1 and res.events_seen == 600
        assert set(_state(job)) == set(
            oracle_apply(600, 60, seed=SEED, include_snapshot=False)
        )

    def test_open_session_routes_every_entry_point(self, tmp_path):
        import glob

        from plugin_debezium_ray.sources.binlog import write_binlog_segments

        def seg(base_lsn):
            return binlog(200, 60, seed=SEED, base_lsn=base_lsn)

        def wal(base_lsn):
            out = write_binlog_segments(
                str(tmp_path / f"wal{base_lsn}"), 200, 60, seed=SEED,
                num_segments=1, base_lsn=base_lsn,
            )
            return sorted(glob.glob(f"{out}/*.parquet"))

        def every_entry_point(base_lsn):
            return [
                job.run(seg(base_lsn)),
                *job.run_segments([seg(base_lsn + 1000)]),
                job.run_from_paths(wal(base_lsn + 2000)),
                job.poll(seg(base_lsn + 3000)),
            ]

        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        with job.streaming_session(num_shards=2):
            inside = every_entry_point(1)
        assert [r.metrics.get("streaming_apply") for r in inside] == [True] * 4
        assert [r.metrics["streaming_session_commit"] for r in inside] == [1, 2, 3, 4]
        after = every_entry_point(10_001)
        assert [r.version for r in after] == [5, 6, 7, 8]
        assert not any(r.metrics.get("streaming_apply") for r in after)

    def test_one_session_per_job(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
        with job.streaming_session(num_shards=2):
            with pytest.raises(RuntimeError, match="already open"):
                job.streaming_session(num_shards=2)
        with job.streaming_session(num_shards=2):  # closing freed the job
            pass


class TestDecodeUnits:
    """The push route's decode tasks: a bare file read runs the read's
    own tasks, one per file; any other plan runs through Ray Data and
    its blocks are the units.  Every push manifest says which, and
    ``lineage`` reads it back.  A Ray upgrade that moves the logical
    plan fails here instead of slowing the follower down."""

    def _wal(self, tmp_path, n_events, n_files):
        import glob

        from plugin_debezium_ray.sources.binlog import write_binlog_segments

        out = write_binlog_segments(str(tmp_path / "wal"), n_events, 120,
                                    seed=SEED, num_segments=n_files)
        return sorted(glob.glob(f"{out}/*.parquet"))

    @staticmethod
    def _read(paths):
        from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

        return ray.data.read_parquet(paths, columns=list(APPLY_COLUMNS))

    @staticmethod
    def _rows(paths):
        import pyarrow.parquet as pq

        return sum(pq.read_metadata(p).num_rows for p in paths)

    def _failing_commit(self, job, paths):
        """A commit over ``paths[1:]`` plus a copy of ``paths[1]``
        without its ``key`` column, listed second: that read task
        raises (read planning samples only the first and last file)."""
        import pyarrow.parquet as pq

        bad = paths[1] + ".nokey.parquet"
        pq.write_table(pq.read_table(paths[1]).drop_columns(["key"]), bad)
        failing = self._read([paths[1], bad, *paths[2:]])
        with pytest.raises(Exception, match=r"FieldRef.Name\(key\)"):
            job.run(failing)
        assert job.ckpt.current_version() == 1

    def test_units_follow_the_input_plan(self, tmp_path):
        import argparse

        from plugin_debezium_ray.__main__ import cmd_lineage

        paths = self._wal(tmp_path, 900, 3)
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(num_buckets=8), lake)
        with job.streaming_session(num_shards=2):
            read = job.run(self._read(paths))
            lineage = cmd_lineage(argparse.Namespace(lake=lake))["metrics"]
            others = [
                job.run(binlog(300, 120, seed=SEED, base_lsn=10_001)),
                job.run(self._read(paths).limit(500)),
                job.run(self._read(paths[:1]).union(self._read(paths[1:]))),
                job.run(self._read(paths).materialize()),
            ]
        assert read.events_seen == 900
        assert (read.metrics["decode_source"], read.metrics["decode_tasks"]) \
            == ("read", 3)
        assert (lineage["decode_source"], lineage["decode_tasks"]) == ("read", 3)
        assert [r.metrics["decode_source"] for r in others] == ["blocks"] * 4
        assert all(r.metrics["decode_tasks"] >= 1 for r in others)

    def test_failed_read_task_fails_the_commit_only(self, tmp_path):
        """One read task of a session commit raises (a WAL file without
        its ``key`` column, in the middle of the list, where Ray's read
        planning samples no file): the commit raises and commits
        nothing, and retrying the good files in the same session applies
        each of their events once, although the failed attempt pushed
        them too."""
        paths = self._wal(tmp_path, 1200, 4)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        with job.streaming_session(num_shards=2):
            assert job.run(self._read(paths[:1])).version == 1
            self._failing_commit(job, paths)
            res = job.run(self._read(paths[1:]))
        assert (res.version, res.metrics["decode_tasks"]) == (2, 3)
        assert res.events_seen == self._rows(paths[1:]) == 900
        assert _state(job) == {
            k: hashlib.sha256(r["content"].encode()).hexdigest()
            for k, r in oracle_apply(1200, 120, seed=SEED,
                                     include_snapshot=False).items()
        }


    def test_failed_commit_leaves_nothing_to_the_next(self, tmp_path):
        """The good files of a failed commit were pushed before it
        raised; the session's next commit, over another file, applies
        that file's events only."""
        paths = self._wal(tmp_path, 1200, 4)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        with job.streaming_session(num_shards=2):
            job.run(self._read(paths[:1]))
            self._failing_commit(job, paths)
            res = job.run(self._read(paths[3:]))
        assert res.version == 2
        assert res.events_seen == self._rows(paths[3:]) == 300

    def test_duplicate_input_counts_as_on_the_sort_route(self, tmp_path):
        """A file read twice, as one read of ``[f, f]`` or as a union of
        two reads, holds each of its events twice: the push route counts
        them as the sort route does and writes the same bucket files."""
        f = self._wal(tmp_path, 300, 1)[0]
        inputs = {
            "read": lambda: self._read([f, f]),
            "blocks": lambda: self._read([f]).union(self._read([f])),
        }
        for source, ds in inputs.items():
            sort = ReplayJob(CaptureConfig(num_buckets=8),
                             str(tmp_path / f"sort-{source}"))
            want = sort.run(ds())
            push = ReplayJob(CaptureConfig(num_buckets=8),
                             str(tmp_path / f"push-{source}"))
            with push.streaming_session(num_shards=2):
                got = push.run(ds())
            assert got.metrics["decode_source"] == source
            assert got.events_seen == want.events_seen == 600, source
            assert _bucket_hashes(push) == _bucket_hashes(sort), source

    def test_push_ids_count_rows_across_the_blocks_of_a_unit(self):
        """A read task may yield several blocks: each batch is named by
        its unit's index and its row offset within the whole unit."""
        import pyarrow as pa
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        from plugin_debezium_ray.pipelines.streaming_apply import _decode_unit

        blocks = [pa.table({"x": range(250)}), pa.table({"x": range(120)})]
        unit = ReadTask(lambda: iter(blocks), BlockMetadata(370, None, None, None))
        ids = []

        def body(t, push_id):
            ids.append((push_id, t.num_rows))
            return pa.table({"n": [t.num_rows]})

        assert _decode_unit._function(body, unit, 100, 5) == 370
        assert ids == [((5, 0), 100), ((5, 100), 100), ((5, 200), 50),
                       ((5, 250), 100), ((5, 350), 20)]

    def test_retried_decode_task_counts_each_event_once(
        self, tmp_path, monkeypatch
    ):
        """A decode task's worker dies after its first push, on the first
        attempt only, and Ray re-runs the task: the re-sent batch carries
        the same id and is dropped, so each event counts once."""
        from plugin_debezium_ray.pipelines import streaming_apply as sa

        paths = self._wal(tmp_path, 1200, 4)
        died = str(tmp_path / "died")
        real = sa.make_decode_push

        def dying_after_first_push(proj, shards, shard_of):
            body = real(proj, shards, shard_of)

            def decode_and_push(t, push_id=None):
                out = body(t, push_id)
                if not os.path.exists(died):
                    open(died, "w").close()
                    os._exit(1)
                return out

            return decode_and_push

        job = ReplayJob(CaptureConfig(num_buckets=8, batch_size=100),
                        str(tmp_path / "lake"))
        with job.streaming_session(num_shards=2):
            assert job.run(self._read(paths[:1])).version == 1
            monkeypatch.setattr(sa, "make_decode_push", dying_after_first_push)
            res = job.run(self._read(paths[1:]))
        assert os.path.exists(died)
        assert res.version == job.ckpt.current_version() == 2
        assert res.events_seen == self._rows(paths[1:]) == 900
        assert _state(job) == {
            k: hashlib.sha256(r["content"].encode()).hexdigest()
            for k, r in oracle_apply(1200, 120, seed=SEED,
                                     include_snapshot=False).items()
        }


# -------------------------------------------------------- merge kernel

KEYS = ("repo", "path")
EPOCH_1 = dict(renames={"lang": "language"},
               added_columns=[("license", "string", "unknown")])


def _projected(ev, *, num_buckets=8, seed=SEED, n_keys=120, **evolve):
    """Apply rows (``project_for_apply`` output) for global event ids
    ``ev``, without Ray."""
    from plugin_debezium_ray.sources.binlog import _gen_batch
    from plugin_debezium_ray.stages.apply import project_for_apply

    env = _gen_batch(ev, seed=seed, n_keys=n_keys, n_repos=3, txn_size=4,
                     base_lsn=1, key_skew=False)
    return project_for_apply(KEYS, num_buckets, **evolve)(env)


def _in_buckets(t, buckets):
    import pyarrow as pa
    import pyarrow.compute as pc

    return t.filter(pc.is_in(t["_bucket"], value_set=pa.array(buckets, pa.int32())))


def _file_sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestMergeKernel:
    """``BucketMerge`` over one or many buckets per call: the push route
    merges a shard's whole drain in one call, the sort route one bucket
    per call; both must write the same files and stats."""

    def _merge(self, out_dir, commit_id, **kw):
        from plugin_debezium_ray.stages.apply import BucketMerge

        return BucketMerge(KEYS, str(out_dir), commit_id, **kw)

    def _commit(self, out_dir, commit_id, t, prior_paths, prior_fps, **kw):
        """Merge ``t`` one bucket per call; fold its stats into the
        prior maps like a manifest would."""
        import numpy as np
        import pyarrow as pa

        merge = self._merge(out_dir, commit_id, prior_paths=dict(prior_paths),
                            prior_fingerprints=dict(prior_fps), **kw)
        for b in np.unique(t["_bucket"].to_numpy()):
            for r in merge(t.filter(pa.array(t["_bucket"].to_numpy() == b))).to_pylist():
                prior_paths[r["bucket"]] = r["path"]
                prior_fps[r["bucket"]] = r["fingerprint"]

    def test_one_call_equals_one_call_per_bucket(self, tmp_path):
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        paths, fps = {}, {}
        # epoch 0: buckets 0-5 get prior files; 6 and 7 stay fresh
        self._commit(tmp_path / "lake", "v000001",
                     _in_buckets(_projected(np.arange(0, 900)), [0, 1, 2, 3, 4, 5]),
                     paths, fps)
        # epoch 1 (rename + added column) rewrites buckets 1 and 2 only
        renames = EPOCH_1["renames"]
        self._commit(tmp_path / "lake", "v000002",
                     _in_buckets(_projected(np.arange(900, 1200), **EPOCH_1), [1, 2]),
                     paths, fps, renames=renames)
        assert set(paths) == {0, 1, 2, 3, 4, 5}
        del fps[4]  # a prior file without a digest: full recompute

        t = _projected(np.arange(1200, 1700), **EPOCH_1)
        b = t["_bucket"].to_numpy()
        deleted = t["deleted"].to_numpy(zero_copy_only=False)
        # bucket 5 and fresh bucket 7 get only deletes; 6 is fresh
        t = t.filter(pa.array(~np.isin(b, [5, 7]) | deleted))
        t = t.combine_chunks()
        assert set(np.unique(t["_bucket"].to_numpy())) == set(range(8))
        assert pc.all(_in_buckets(t, [5, 7])["deleted"]).as_py()

        kw = dict(prior_paths=paths, prior_fingerprints=fps, renames=renames)
        one = self._merge(tmp_path / "one", "v000003", **kw)(t).to_pylist()
        per = [
            r
            for bb in range(8)
            for r in self._merge(tmp_path / "per", "v000003", **kw)(
                _in_buckets(t, [bb])
            ).to_pylist()
        ]
        assert [r["bucket"] for r in one] == list(range(8))

        def norm(rows):
            return [
                {**{k: v for k, v in r.items()
                    if k not in ("apply_seconds", "path")},
                 "sha": _file_sha(r["path"])}
                for r in rows
            ]

        assert norm(one) == norm(per)
        assert sum(r["upserts"] for r in one if r["bucket"] in (5, 7)) == 0
        # every file keeps its own epoch's column order
        for r in one:
            cols = pa.parquet.read_schema(r["path"]).names
            assert "lang" not in cols and "language" in cols

    def test_bucket_wholly_below_ledger_writes_nothing(self, tmp_path):
        """A retried resend of already-applied events: a bucket whose
        rows are all at or below the ledger yields no stats row and no
        file, so the manifest carries the prior entry forward."""
        import os

        import pyarrow as pa

        from plugin_debezium_ray.stages.apply import FINGERPRINT_SCHEME
        from plugin_debezium_ray.state.checkpoint import build_manifest

        t = pa.table(
            {
                "lsn": pa.array([8, 9, 12], pa.int64()),
                "seq": pa.array([1, 0, 0], pa.int64()),
                "deleted": pa.array([False, False, False]),
                "repo": ["r1", "r1", "r2"],
                "path": ["a", "b", "c"],
                "content": ["x", "y", "z"],
                "_bucket": pa.array([3, 3, 4], pa.int32()),
                "_weight": pa.array([1, 2, 1], pa.int64()),
            }
        )
        ledger = {3: (9, 0)}
        merge = self._merge(tmp_path, "v000002", ledger=ledger)
        assert merge(t.slice(0, 2)).num_rows == 0
        assert not os.path.exists(tmp_path / "v000002")

        rows = merge(t).to_pylist()
        assert [r["bucket"] for r in rows] == [4]
        assert rows[0]["events_seen"] == 1
        prior = {"version": 1, "ledger": {"3": [9, 0]},
                 "fingerprint_scheme": FINGERPRINT_SCHEME,
                 "buckets": {"3": {"path": "p3", "rows": 2, "fingerprint": "f",
                                   "events_applied": 2, "events_seen": 2,
                                   "apply_seconds": 0.1}}}
        m = build_manifest(version=2, connector_id=None, stats_rows=rows,
                           parent=prior, schema_snapshot=None)
        assert m["buckets"]["3"] == prior["buckets"]["3"]
        assert m["metrics"]["events_seen"] == 1


class TestRouteParityAcrossEpochs:
    """Three commits through each route — snapshot + WAL, a DDL segment
    (add column + rename) touching only some buckets, then a segment
    touching every bucket: after every commit both routes hold the same
    bucket files and fingerprints, and each incremental fingerprint
    equals a from-scratch digest of the same state."""

    def _segments(self):
        from plugin_debezium_ray.sources.binlog import ddl_events_table

        ddl = ray.data.from_arrow(
            ddl_events_table(
                [
                    (10_001, {"action": "add_column", "name": "license",
                              "type": "string", "default": "unknown"}),
                    (10_001, {"action": "rename_column", "from": "lang",
                              "to": "language"}),
                ]
            )
        )
        return [
            snapshot_envelopes(150, seed=SEED).union(binlog(1200, 150, seed=SEED)),
            binlog(5, 150, seed=SEED, base_lsn=10_001).union(ddl),
            binlog(1200, 150, seed=SEED, base_lsn=20_001),
        ]

    def test_routes_agree_after_every_commit(self, tmp_path):
        self._routes_agree(
            tmp_path, lambda job: job.run_segments(self._segments()), "blocks"
        )

    def test_routes_agree_on_parquet_inputs(self, tmp_path):
        """The segments written to parquet and committed by path
        (``run_from_paths``: ``read_parquet(columns=APPLY_COLUMNS)``
        plus the footer DDL planner): the push route runs the read's
        own tasks."""
        dirs = [str(tmp_path / f"seg{i}") for i in range(3)]
        for seg, d in zip(self._segments(), dirs):
            seg.write_parquet(d)
        self._routes_agree(
            tmp_path, lambda job: [job.run_from_paths(d) for d in dirs], "read"
        )

    def _routes_agree(self, tmp_path, commit_all, source):
        cfg = CaptureConfig(num_buckets=16,
                            offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)
        sort = ReplayJob(cfg, str(tmp_path / "sort"))
        assert len(commit_all(sort)) == 3
        push = ReplayJob(cfg, str(tmp_path / "push"))
        results = pushed(push, commit_all, push)
        assert [r.metrics["decode_source"] for r in results] == [source] * 3

        def commit(job, v):
            m = job.ckpt.restore_version(v)
            return (
                {b: _file_sha(e["path"]) for b, e in m["buckets"].items()},
                {b: e["fingerprint"] for b, e in m["buckets"].items()},
                m["metrics"]["buckets_touched"],
            )

        segs = self._segments()
        for v in (1, 2, 3):
            s_files, s_fps, touched = commit(sort, v)
            assert (s_files, s_fps, touched) == commit(push, v)
            # one commit over the union digests every bucket in full
            full = ReplayJob(CaptureConfig(num_buckets=16), str(tmp_path / f"full{v}"))
            union = segs[0]
            for seg in segs[1:v]:
                union = union.union(seg)
            full.run(union)
            assert s_fps == commit(full, 1)[1]
            if v == 2:
                assert 0 < touched < 16
        assert touched == 16
        tab = push.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns


def test_wide_shard_pool_leaves_cpu_for_decode(tmp_path):
    """More shards than the cluster has spare CPUs: the pool must still
    leave a slot for the decode tasks instead of starving them forever."""
    from concurrent.futures import ThreadPoolExecutor, wait

    job = ReplayJob(CaptureConfig(num_buckets=16), str(tmp_path))
    with ThreadPoolExecutor(1) as ex:
        with job.streaming_session(num_shards=8) as session:
            fut = ex.submit(session.apply_segment, binlog(300, 40, seed=SEED))
            done, _ = wait([fut], timeout=120)
        # closing the session kills the shards, which frees a starved stream
    assert done, "the commit made no progress: the shard pool holds every CPU"
    res = fut.result()
    assert res.events_seen == 300
    assert set(_state(job)) == set(oracle_apply(300, 40, seed=SEED))


class TestHeldBucketTables:
    """A shard merges over the tables its last finalize wrote while the
    manifest still pins their paths, and reads the files otherwise; the
    lake is the same either way."""

    CFG = dict(num_buckets=8, offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)
    CUTS = (0, 75, 150, 225, 300)

    def _segments(self):
        return [_segment(lo, hi) for lo, hi in zip(self.CUTS, self.CUTS[1:])]

    def _sort_lake(self, tmp_path, segs):
        ref = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "ref"))
        ref.run_segments(segs)
        return ref

    def test_second_session_commit_reads_no_prior_file(self, tmp_path):
        import argparse

        from plugin_debezium_ray.__main__ import cmd_lineage

        segs = self._segments()
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(**self.CFG), lake)
        results = job.run_segments(segs[:2])  # sort route: v1, v2
        results += pushed(job, job.run_segments, segs[2:])  # one session: v3, v4
        assert [r.version for r in results] == [1, 2, 3, 4]
        assert [r.metrics["buckets_touched"] for r in results] == [8] * 4
        # a fresh lake has no prior file; the sort route and the first
        # commit of a fresh pool read every touched bucket's file; the
        # pool's second commit merges over what it wrote
        assert [r.metrics["prior_files_read"] for r in results] == [0, 8, 8, 0]
        lineage = cmd_lineage(argparse.Namespace(lake=lake))
        assert lineage["metrics"]["prior_files_read"] == 0

        ref = self._sort_lake(tmp_path, segs)
        assert _bucket_hashes(job) == _bucket_hashes(ref)
        assert _lake_state(job.table_dir) == _oracle(self.CUTS[-1])

    def test_sort_writer_between_session_commits(self, tmp_path):
        """Another writer commits between two session commits: the
        session's next commit reads that writer's files, not the tables
        it holds from its own last commit."""
        segs = self._segments()
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(**self.CFG), lake)
        with job.streaming_session():
            job.run_segments(segs[:2])
            other = ReplayJob(CaptureConfig(**self.CFG), lake).run(segs[2])
            assert other.version == 3 and other.metrics["prior_files_read"] == 8
            res = job.run(segs[3])
        assert res.version == 4 and res.metrics["prior_files_read"] == 8
        assert _lake_state(job.table_dir) == _oracle(self.CUTS[-1])
        assert _bucket_hashes(job) == _bucket_hashes(self._sort_lake(tmp_path, segs))

    def test_lost_commit_conflict_reads_the_winners_files(self, tmp_path):
        """A session commit loses ``CommitConflict`` after its shards
        wrote (and hold) their attempt's tables: the next commit merges
        over the winner's files."""
        from plugin_debezium_ray.state.checkpoint import CommitConflict

        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(**self.CFG), lake)
        with job.streaming_session():
            assert job.run(_segment(0, 150)).version == 1
            prep = job._prepare(_segment(150, 200), None, False)
            # the winner applies more of the log than the loser's attempt
            won = ReplayJob(CaptureConfig(**self.CFG), lake).run(_segment(150, 250))
            assert won.version == prep.version == 2
            rows, metrics = job._route(prep)
            assert metrics["streaming_apply"] and len(rows) == 8
            with pytest.raises(CommitConflict):
                job._commit(prep, rows, metrics, 0.0)
            res = job.run(_segment(250, 300))
        assert res.version == 3 and res.metrics["prior_files_read"] == 8
        assert _lake_state(job.table_dir) == _oracle(300)
        ref = self._sort_lake(tmp_path, [_segment(0, 150), _segment(150, 250),
                                         _segment(250, 300)])
        assert _bucket_hashes(job) == _bucket_hashes(ref)

    def test_missing_committed_file_raises(self, tmp_path):
        """The push-route twin of ``test_vacuum.py::
        test_missing_committed_file_raises``: a held table does not stand
        in for a committed file that is gone."""
        segs = self._segments()
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "lake"))
        with job.streaming_session():
            job.run_segments(segs[:2])
            os.remove(job.ckpt.bucket_paths()[3])
            with pytest.raises(FileNotFoundError, match="bucket=00003"):
                job.run(segs[2])
        assert job.ckpt.current_version() == 2
