"""The apply route (`pipelines/streaming_apply.py`) and its two merge
homes, plain merge tasks and a session's shard actors: byte-parity
between them, oracle parity, idempotent rerun, incremental resume, and
out-of-order ingestion (LWW order independence).
"""

import hashlib
import os
import types

import pytest

import ray.data

from conftest import pushed, wal_read
from test_recovery import _oracle, _segment
from test_recovery import _state as _lake_state
from plugin_debezium_ray.config import CaptureConfig, OffsetCommitMode
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.pipelines.streaming_apply import route
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
        env = wal_read(tmp_path, binlog(N_EVENTS, N_KEYS, seed=SEED))
        snap = wal_read(tmp_path, snapshot_envelopes(N_KEYS, seed=SEED))
        a = ReplayJob(CaptureConfig(num_buckets=16), str(tmp_path / "a"))
        a.run(env, snapshot=snap)
        b = ReplayJob(CaptureConfig(num_buckets=16), str(tmp_path / "b"))
        res = pushed(b, b.run, env, snapshot=snap)
        assert res.events_seen == N_EVENTS + N_KEYS
        assert _state(a) == _state(b)
        # identical deterministic bucket FILES, not just values — the two
        # paths are interchangeable on the same lake
        assert _bucket_hashes(a) == _bucket_hashes(b)
        assert set(_state(b)) == set(oracle_apply(N_EVENTS, N_KEYS, seed=SEED))

    def test_rerun_applies_zero(self, tmp_path):
        env = wal_read(tmp_path, binlog(N_EVENTS, N_KEYS, seed=SEED))
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        pushed(job, job.run, env,
               snapshot=wal_read(tmp_path, snapshot_envelopes(N_KEYS, seed=SEED)))
        h1 = _bucket_hashes(job)
        res2 = pushed(job, job.run, env)
        assert res2.events_seen == 0
        assert _bucket_hashes(job) == h1

    def test_incremental_tail_resume(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        pushed(
            job, job.run, wal_read(tmp_path, binlog(2000, N_KEYS, seed=SEED)),
            snapshot=wal_read(tmp_path, snapshot_envelopes(N_KEYS, seed=SEED)),
        )
        res = pushed(job, job.run, wal_read(
            tmp_path, binlog(1500, N_KEYS, seed=SEED, base_lsn=2001)))
        assert res.events_seen == 1500 and res.version == 2
        # mirror on plain merge tasks from scratch over the full stream
        ref = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "ref"))
        full = binlog(2000, N_KEYS, seed=SEED).union(
            binlog(1500, N_KEYS, seed=SEED, base_lsn=2001)
        )
        ref.run(full, snapshot=snapshot_envelopes(N_KEYS, seed=SEED))
        assert _state(job) == _state(ref)

    def test_order_independence_segments_reversed_within_run(self, tmp_path):
        """Shards may receive events in ANY order within one run: a
        union with segments reversed produces the same final state
        (LWW winner = max (lsn, seq), commutative)."""
        s1 = wal_read(tmp_path, binlog(1500, 200, seed=SEED))
        s2 = wal_read(tmp_path, binlog(1500, 200, seed=SEED, base_lsn=1501))
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        pushed(a, a.run, s1.union(s2))
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        pushed(b, b.run, s2.union(s1))
        assert _state(a) == _state(b)

    def test_schema_evolution_by_the_default_ddl_rule(self, tmp_path):
        """DDL in the input replays through the streaming path under the
        default rule (same ST3 contract as without a session)."""
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
        env = wal_read(tmp_path, binlog(N_EVENTS, N_KEYS, seed=SEED).union(ddl))
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        pushed(job, job.run, env,
               snapshot=wal_read(tmp_path, snapshot_envelopes(N_KEYS, seed=SEED)))
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert set(tab["license"]) == {"unknown"}

    def test_compaction_is_lossless(self, tmp_path, monkeypatch):
        """A tiny compact threshold forces many in-flight winner
        reductions (weights must SUM through compaction, not recount);
        result and events_seen must equal plain merge tasks'."""
        from plugin_debezium_ray.pipelines import streaming_apply as sa

        monkeypatch.setattr(sa, "COMPACT_ROWS", 100)
        env = wal_read(tmp_path, binlog(3000, 50, seed=3))
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "d"))
        # hot keys: every ingest triggers a compact
        res = pushed(job, job.run, env)
        ref = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "e"))
        ref_res = ref.run(env)
        assert _state(job) == _state(ref)
        assert res.events_seen == ref_res.events_seen == 3000


class TestStreamingSoak:
    """Multi-commit streaming sessions (VERDICT r2 #7): N sequential WAL
    segments through ONE shard pool, one atomic commit per segment —
    exercises the per-commit counters and incremental compaction over
    time."""

    #: one commit per segment (ON_STOP commits their union once)
    CFG = dict(num_buckets=8, offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)

    def _segments(self, n=3):
        return [
            binlog(1200, 150, seed=SEED, base_lsn=1 + 10_000 * i)
            for i in range(n)
        ]

    def _wal_segments(self, tmp_path):
        """The segments as parquet WAL reads (``wal_read``)."""
        return [wal_read(tmp_path, seg) for seg in self._segments()]

    def test_three_commits_one_pool_parity_and_rerun_zero(
        self, tmp_path, monkeypatch
    ):
        segs = self._wal_segments(tmp_path)
        self._three_commits(tmp_path, monkeypatch,
                            lambda job: job.run_segments(segs))

    def test_three_commits_on_parquet_inputs(self, tmp_path, monkeypatch):
        """The segments committed by path, as the follower commits them
        (``run_from_paths``: ``read_parquet(columns=APPLY_COLUMNS)``)."""
        dirs = [str(tmp_path / f"seg{i}") for i in range(3)]
        for seg, d in zip(self._segments(), dirs):
            seg.write_parquet(d)
        self._three_commits(tmp_path, monkeypatch,
                            lambda job: [job.run_from_paths(d) for d in dirs])

    def _three_commits(self, tmp_path, monkeypatch, commit_all):
        from plugin_debezium_ray.pipelines import streaming_apply as sa

        monkeypatch.setattr(sa, "COMPACT_ROWS", 500)  # real compactions
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "soak"))
        results = pushed(job, commit_all, job)
        assert [r.version for r in results] == [1, 2, 3]
        assert all(r.events_seen == 1200 for r in results)
        assert all(
            r.metrics.get("streaming_session_commit") == i + 1
            for i, r in enumerate(results)
        )

        # parity: one sessionless commit over the union of all segments
        ref = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "ref"))
        full = self._segments()[0]
        for seg in self._segments()[1:]:
            full = full.union(seg)
        ref.run(full)
        assert _state(job) == _state(ref)

        # rerun-zero across the SAME multi-commit surface: every segment
        # is at-or-below the ledger now
        rerun = pushed(job, commit_all, job)
        assert [r.events_seen for r in rerun] == [0, 0, 0]
        assert _state(job) == _state(ref)

    def test_mid_session_ddl_evolves_schema(self, tmp_path):
        """Each segment's DDL replays before that segment applies —
        schema evolution ACROSS commits of one streaming session (ST3
        parity with plain merge tasks)."""
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
            wal_read(tmp_path, binlog(1200, 150, seed=SEED)),
            wal_read(tmp_path,
                     binlog(1200, 150, seed=SEED, base_lsn=10_001).union(ddl)),
        ]
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "lake"))
        results = pushed(job, job.run_segments, segs)
        assert [r.version for r in results] == [1, 2]
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert set(tab["license"]) == {"unknown"}
        assert tab["language"].notna().all()  # old rows read renamed

    @pytest.mark.parametrize("mode", list(OffsetCommitMode))
    def test_no_segments_commit_nothing(self, tmp_path, mode):
        job = ReplayJob(CaptureConfig(num_buckets=8, offset_commit_mode=mode),
                        str(tmp_path))
        assert job.run_segments([]) == []
        assert job.ckpt.restore() is None

    def test_session_state_matches_separate_runs(self, tmp_path):
        """State after N commits through one pool == N commits through
        N one-shot pools (byte-identical bucket files)."""
        segs = self._wal_segments(tmp_path)
        a = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "a"))
        pushed(a, a.run_segments, segs)
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        for seg in segs:
            pushed(b, b.run, seg)
        assert _state(a) == _state(b)
        assert _bucket_hashes(a) == _bucket_hashes(b)

    def test_on_stop_commits_the_union_once(self, tmp_path):
        """Under ON_STOP the session commits once over the union, like
        ``run_segments``; the state equals the per-segment cadence's."""
        segs = self._wal_segments(tmp_path)
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        results = pushed(a, a.run_segments, segs)
        assert [r.version for r in results] == [1]
        assert results[0].events_seen == 3 * 1200
        b = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "b"))
        pushed(b, b.run_segments, segs)
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

        def sabotaged(cfg, shard_of, cpus):
            shards = real_make(cfg, shard_of, cpus)
            ray.kill(shards[0])  # one shard dies before the stream starts
            return shards

        env = wal_read(tmp_path, binlog(N_EVENTS, N_KEYS, seed=SEED))
        snap = wal_read(tmp_path, snapshot_envelopes(N_KEYS, seed=SEED))
        monkeypatch.setattr(sa, "_make_shard_pool", sabotaged)
        with job.streaming_session() as session:
            with pytest.raises(Exception):
                job.run(env, snapshot=snap)
            # the commit started the pool, and the live shard discarded
            # what the failed commit pushed to it
            assert session._shards is not None
            assert ray.get(session.shards[1].counters.remote()) == {
                "events_seen": 0, "pushes": 0, "buffered": 0}
        monkeypatch.setattr(sa, "_make_shard_pool", real_make)
        # atomicity: the failed run committed nothing
        assert job.ckpt.restore() is None
        res = pushed(job, job.run, env, snapshot=snap)
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
        seg1 = wal_read(tmp_path, binlog(1500, 150, seed=SEED, base_lsn=1))
        seg2 = wal_read(tmp_path, binlog(1500, 150, seed=SEED, base_lsn=1501))

        session = job.streaming_session()
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
        with job.streaming_session() as s2:
            r2 = s2.apply_segment(seg2)
        assert r1.metrics["streaming_apply"] and r2.metrics["streaming_apply"]
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
        seg = wal_read(tmp_path, binlog(1500, 150, seed=SEED, base_lsn=1))
        with job.streaming_session() as session:
            r1 = session.apply_segment(seg)
            v1_buckets = _bucket_hashes(job)
            for s in session.shards:
                ray.kill(s)
            r2 = session.apply_segment(seg)
        assert r1.events_applied > 0 and "shard_nodes" in r1.metrics
        assert r2.metrics["streaming_apply"]
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
    """The job picks the merge home: while a shard pool is open on it,
    every commit of every entry point merges on its shards; nothing else
    about a commit depends on the home.  (``route`` ids: ``sort`` is a
    sessionless commit, merged by plain tasks.)"""

    def test_default_ddl_rule_is_the_same_on_both_routes(self, tmp_path):
        """The same DDL-bearing segments with default arguments: a
        sessionless ``run_segments`` and a session's commits evolve the
        schema alike and write the same bucket files."""
        from plugin_debezium_ray.sources.binlog import ddl_events_table

        ddl = ray.data.from_arrow(ddl_events_table([
            (10_001, {"action": "add_column", "name": "license",
                      "type": "string", "default": "unknown"}),
            (10_001, {"action": "rename_column", "from": "lang",
                      "to": "language"}),
        ]))
        segs = [
            wal_read(tmp_path, binlog(1200, 150, seed=SEED)),
            wal_read(tmp_path,
                     binlog(1200, 150, seed=SEED, base_lsn=10_001).union(ddl)),
        ]
        cfg = CaptureConfig(num_buckets=8,
                            offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)
        sort = ReplayJob(cfg, str(tmp_path / "sort"))
        sort.run_segments(segs)
        push = ReplayJob(cfg, str(tmp_path / "push"))
        with push.streaming_session() as session:
            pushes = [session.apply_segment(seg) for seg in segs]
        assert all(r.metrics["streaming_apply"] for r in pushes)
        cols = sorted(push.read_table().to_pandas().columns)
        assert cols == sorted(sort.read_table().to_pandas().columns)
        assert "language" in cols and "license" in cols and "lang" not in cols
        assert _bucket_hashes(sort) == _bucket_hashes(push)

    def test_apply_columns_read_commits(self, tmp_path):
        """An input without a ``ddl`` column (the pruned read the
        follower and the benchmark use) commits without a session."""
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

    RENAME = {"action": "rename_column", "from": "lang", "to": "language"}

    def _ddl_wal(self, tmp_path) -> list[str]:
        """Two WAL segment files: 600 events, then a rename DDL and 300
        more events."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from plugin_debezium_ray.sources.binlog import ddl_events_table

        def table(ds):
            return pa.concat_tables(ray.get(ds.to_arrow_refs()))

        segs = [table(binlog(600, 60, seed=SEED)),
                pa.concat_tables([
                    ddl_events_table([(10_001, self.RENAME)]),
                    table(binlog(300, 60, seed=SEED, base_lsn=10_001)),
                ], promote_options="permissive")]
        paths = [str(tmp_path / f"seg-{i}.parquet") for i in (1, 2)]
        for t, p in zip(segs, paths):
            pq.write_table(t, p)
        return paths

    @pytest.mark.parametrize("route", ["sort", "session"])
    def test_pruned_read_applies_its_own_ddl(self, tmp_path, route):
        """A commit of ``read_parquet(columns=APPLY_COLUMNS)`` takes the
        DDL of its own files from their footers, though the read drops
        the ``ddl`` column: the rename in segment 2 reaches the lake and
        the manifest's schema log in both merge homes."""
        from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

        paths = self._ddl_wal(tmp_path)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        reads = [ray.data.read_parquet(p, columns=list(APPLY_COLUMNS))
                 for p in paths]
        if route == "sort":
            results = [job.run(ds) for ds in reads]
        else:
            with job.streaming_session() as session:
                results = [session.apply_segment(ds) for ds in reads]
        assert [r.events_seen for r in results] == [600, 300]
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert tab["language"].notna().all()  # segment 1's rows renamed
        assert job.ckpt.restore()["schema"]["log"] == [self.RENAME]
        assert results[1].metrics["registry_rows_read"] == 301

    @pytest.mark.parametrize("route", ["sort", "session"])
    def test_on_stop_segments_apply_their_own_ddl(self, tmp_path, route):
        """ON_STOP commits its segments' union once; a union of pruned
        reads takes the DDL of every read's files from their footers,
        so the rename in segment 2 reaches the lake and the schema log
        in both merge homes."""
        from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

        reads = [ray.data.read_parquet(p, columns=list(APPLY_COLUMNS))
                 for p in self._ddl_wal(tmp_path)]
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        if route == "sort":
            results = job.run_segments(reads)
        else:
            results = pushed(job, job.run_segments, reads)
        assert [r.events_seen for r in results] == [900]
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert tab["language"].notna().all()
        assert job.ckpt.restore()["schema"]["log"] == [self.RENAME]
        assert results[0].metrics["registry_rows_read"] == 301

    @staticmethod
    def _schema_runs_no_plan(m):
        """Patch ``Dataset.schema`` to fail whenever it would have to run
        a plan: a ``limit(1)`` job."""
        known = ray.data.Dataset.schema

        def schema(self, fetch_if_missing=True):
            # Ray Data itself asks for schemas its plans already know
            sch = known(self, fetch_if_missing=False)
            assert sch is not None or not fetch_if_missing, "schema() ran a plan"
            return sch

        m.setattr(ray.data.Dataset, "schema", schema)

    @pytest.mark.parametrize("route", ["sort", "session"])
    def test_first_commit_of_a_union_runs_no_plan_for_its_schema(
        self, tmp_path, route, monkeypatch
    ):
        """The first commit takes its base schema from the first read's
        plan: a union of reads has no schema of its own, and asking the
        Dataset for one runs a ``limit(1)`` job over its plan."""
        paths = self._ddl_wal(tmp_path)
        ds = ray.data.read_parquet(paths[0]).union(ray.data.read_parquet(paths[1]))
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        with monkeypatch.context() as m:
            self._schema_runs_no_plan(m)
            res = job.run(ds) if route == "sort" else pushed(job, job.run, ds)
        assert (res.version, res.events_seen) == (1, 900)
        assert job.ckpt.restore()["schema"]["log"] == [self.RENAME]

    @pytest.mark.parametrize("route", ["sort", "session"])
    def test_first_commit_of_a_generated_union_runs_its_plan_once(
        self, tmp_path, route, monkeypatch
    ):
        """A generated WAL under a generated snapshot, the union a
        sort-based ``groupby`` plan stalled on for a minute: the input
        is materialized once, so every generated row passes a counting
        spy exactly once; its schema and DDL come from the blocks, so no
        ``schema()`` call runs a plan; the lake is the oracle's."""
        n, k = 40_000, 4_000
        tally = str(tmp_path / "rows")

        def spied(ds):
            def count(t):
                with open(tally, "a") as f:
                    f.write(f"{t.num_rows}\n")
                return t

            return ds.map_batches(count, batch_format="pyarrow")

        env = spied(binlog(n, k, seed=SEED))
        snap = spied(snapshot_envelopes(k, seed=SEED))
        job = ReplayJob(CaptureConfig(num_buckets=64), str(tmp_path / "lake"))
        with monkeypatch.context() as m:
            self._schema_runs_no_plan(m)
            res = (job.run(env, snapshot=snap) if route == "sort"
                   else pushed(job, job.run, env, snapshot=snap))
        assert sum(map(int, open(tally).read().split())) == n + k
        assert (res.version, res.events_seen) == (1, n + k)
        assert _state(job) == {
            key: hashlib.sha256(r["content"].encode()).hexdigest()
            for key, r in oracle_apply(n, k, seed=SEED).items()
        }

    def test_every_merge_home_writes_the_same_phase_metrics(self, tmp_path):
        """A sessionless commit, a session commit and each stream of
        ``replay_multi_table`` record one set of phase metrics, and
        ``lineage`` prints them."""
        import argparse

        from test_multi_table import _mixed_env
        from plugin_debezium_ray.__main__ import cmd_lineage
        from plugin_debezium_ray.pipelines.multi_table import replay_multi_table

        keys = {"registry_seconds", "decode_seconds", "finalize_seconds",
                "decode_tasks", "decode_lanes", "files_skipped",
                "rows_skipped"}
        seg = wal_read(tmp_path, binlog(300, 40, seed=SEED))
        plain = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "plain"))
        session = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "session"))
        multi = replay_multi_table(_mixed_env(), str(tmp_path / "multi"),
                                   CaptureConfig(key_cols=("id",), num_buckets=4))
        results = [plain.run(seg), pushed(session, session.run, seg),
                   *multi.values()]
        assert len(results) == 4
        for res in results:
            assert keys <= set(res.metrics), sorted(keys - set(res.metrics))
            assert res.metrics["decode_tasks"] >= 1
            assert 1 <= res.metrics["decode_lanes"] <= res.metrics["decode_tasks"]
        lineage = cmd_lineage(argparse.Namespace(lake=plain.table_dir))
        assert keys <= set(lineage["metrics"])

    @pytest.mark.parametrize("route", ["sort", "session"])
    def test_pruned_read_under_a_generated_snapshot(self, tmp_path, route):
        """A pruned WAL read joined to a generated snapshot: the union's
        inputs carry different columns.  The union is not a file read, so
        it is materialized and each block is narrowed on its own; a
        session's commit of it merges on the shards."""
        wal = wal_read(tmp_path, binlog(1200, 150, seed=SEED))
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        snap = snapshot_envelopes(150, seed=SEED)
        if route == "sort":
            res = job.run(wal, snapshot=snap)
        else:
            with job.streaming_session():
                res = job.run(wal, snapshot=snap)
        assert res.events_seen == 1200 + 150
        assert bool(res.metrics.get("streaming_apply")) == (route == "session")
        assert _state(job) == {
            k: hashlib.sha256(r["content"].encode()).hexdigest()
            for k, r in oracle_apply(1200, 150, seed=SEED).items()
        }

    def test_filtered_read_keeps_the_scan_rule(self, tmp_path):
        """A row ``filter=`` chooses which events the commit sees, so a
        filtered read is scanned like any other plan: the filter that
        drops the DDL row leaves the schema as it was."""
        import pyarrow.dataset as pds

        paths = self._ddl_wal(tmp_path)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        res = job.run(ray.data.read_parquet(
            paths, filter=pds.field("op") != "ddl"))
        assert res.events_seen == 900
        assert "registry_rows_read" not in res.metrics
        assert "lang" in job.read_table().schema().names
        assert job.ckpt.restore()["schema"]["log"] == []

    def test_empty_first_commit_fixes_no_schema(self, tmp_path):
        """A first commit that keeps no row records no field, and the
        next commit takes its base fields from its own input, as a fresh
        lake does: schema and bucket files equal a fresh lake's."""
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        empty = job.run(binlog(300, 40, seed=7).filter(lambda r: r["lsn"] < 0))
        assert empty.version == 1 and empty.events_seen == 0
        assert job.ckpt.restore()["schema"]["fields"] == []
        assert job.run(binlog(300, 40, seed=7)).version == 2
        fresh = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "fresh"))
        fresh.run(binlog(300, 40, seed=7))
        schema = job.ckpt.restore()["schema"]
        assert schema["fields"] and schema == fresh.ckpt.restore()["schema"]
        assert _bucket_hashes(job) == _bucket_hashes(fresh)

    def test_open_session_routes_every_entry_point(self, tmp_path):
        import glob

        from plugin_debezium_ray.sources.binlog import write_binlog_segments

        def seg(base_lsn):
            return wal_read(tmp_path, binlog(200, 60, seed=SEED, base_lsn=base_lsn))

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
        with job.streaming_session():
            inside = every_entry_point(1)
        assert [r.metrics.get("streaming_apply") for r in inside] == [True] * 4
        assert [r.metrics["streaming_session_commit"] for r in inside] == [1, 2, 3, 4]
        after = every_entry_point(10_001)
        assert [r.version for r in after] == [5, 6, 7, 8]
        assert not any(r.metrics.get("streaming_apply") for r in after)

    def test_one_session_per_job(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
        with job.streaming_session():
            with pytest.raises(RuntimeError, match="already open"):
                job.streaming_session()
        with job.streaming_session():  # closing freed the job
            pass


class TestDecodeUnits:
    """The decode tasks: a file read — one read or a union of reads —
    runs the reads' own tasks, one per file; any other plan is
    materialized, one task per block.  Every manifest records its
    ``decode_tasks``, and ``lineage`` reads it back.  A Ray upgrade that
    moves the logical plan fails here instead of silently materializing
    the follower's reads."""

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

        paths = self._wal(tmp_path, 1800, 6)
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(num_buckets=8), lake)
        with job.streaming_session():
            reads = [
                job.run(self._read(paths[:3])),
                job.run(self._read(paths[3:4]).union(self._read(paths[4:]))),
            ]
            lineage = cmd_lineage(argparse.Namespace(lake=lake))["metrics"]
            others = [
                job.run(binlog(300, 120, seed=SEED, base_lsn=10_001)),
                job.run(self._read(paths).limit(500)),
                job.run(self._read(paths).materialize()),
            ]
        assert [r.events_seen for r in reads] == [900, 900]
        assert [(r.metrics["streaming_apply"], r.metrics["decode_tasks"])
                for r in reads] == [(True, 3), (True, 3)]
        assert (lineage["streaming_apply"], lineage["decode_tasks"]) == (True, 3)
        # the other inputs are materialized: one unit per non-empty
        # block, merged on the session's shards
        assert [r.events_seen for r in others] == [300, 0, 0]
        for r in others:
            assert r.metrics["streaming_apply"]
            assert r.metrics["decode_tasks"] >= 1
            assert r.metrics["files_skipped"] == 0

    def test_path_commit_plans_from_footers_once(self, tmp_path, monkeypatch):
        """A ``run_from_paths`` commit builds no ``ray.data.read_parquet``
        and opens each file's footer once in the driver, for its read
        plan, DDL plan and footer skip together; each file is one decode
        task.  A Ray upgrade that stops ``_file_reads`` from knowing the
        engine's own datasource fails here instead of silently
        materializing the read."""
        import pyarrow.parquet as pq

        paths = self._wal(tmp_path, 900, 3)
        opened = []

        class Counting(pq.ParquetFile):
            def __init__(self, source, *, metadata=None, **kw):
                if metadata is None:  # a footer read
                    opened.append(source)
                super().__init__(source, metadata=metadata, **kw)

        def no_read_parquet(*args, **kw):
            raise AssertionError("run_from_paths built a read_parquet")

        monkeypatch.setattr(ray.data, "read_parquet", no_read_parquet)
        monkeypatch.setattr(pq, "ParquetFile", Counting)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        res = job.run_from_paths(paths)
        assert len(opened) == len(paths) == 3
        assert res.metrics["decode_tasks"] == len(paths)
        assert res.events_seen == self._rows(paths) == 900

    def test_failed_read_task_fails_the_commit_only(self, tmp_path):
        """One read task of a session commit raises (a WAL file without
        its ``key`` column, in the middle of the list, where Ray's read
        planning samples no file): the commit raises and commits
        nothing, and retrying the good files in the same session applies
        each of their events once, although the failed attempt pushed
        them too."""
        paths = self._wal(tmp_path, 1200, 4)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        with job.streaming_session():
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
        with job.streaming_session():
            job.run(self._read(paths[:1]))
            self._failing_commit(job, paths)
            res = job.run(self._read(paths[3:]))
        assert res.version == 2
        assert res.events_seen == self._rows(paths[3:]) == 300

    def test_duplicate_input_counts_as_on_the_sort_route(self, tmp_path):
        """A file read twice, as one read of ``[f, f]`` or as a union of
        two reads, holds each of its events twice: a session counts them
        as plain merge tasks do and writes the same bucket files."""
        f = self._wal(tmp_path, 300, 1)[0]
        inputs = {
            "list": lambda: self._read([f, f]),
            "union": lambda: self._read([f]).union(self._read([f])),
        }
        for form, ds in inputs.items():
            sort = ReplayJob(CaptureConfig(num_buckets=8),
                             str(tmp_path / f"sort-{form}"))
            want = sort.run(ds())
            push = ReplayJob(CaptureConfig(num_buckets=8),
                             str(tmp_path / f"push-{form}"))
            with push.streaming_session():
                got = push.run(ds())
            assert got.metrics["streaming_apply"], form
            assert got.metrics["decode_tasks"] == 2, form
            assert got.events_seen == want.events_seen == 600, form
            assert _bucket_hashes(push) == _bucket_hashes(sort), form

    def test_unit_splits_every_block_by_shard(self):
        """A read task may yield several blocks: the unit's per-shard
        counts and slices hold every projected row of all of them, each
        in the shard that owns its bucket.  A materialized block is a
        unit of its own.  A lane of both holds the rows of each, in
        one split."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc
        from ray.data.block import BlockMetadata
        from ray.data.datasource import ReadTask

        from plugin_debezium_ray.pipelines.streaming_apply import (
            COMPACT_ROWS,
            _decode_unit,
        )

        def block(lo, hi):
            x = np.arange(lo, hi)
            return pa.table({"_bucket": pa.array(x * 7 % 8, pa.int32()),
                             "x": x})

        blocks = [block(0, 250), block(250, 370)]
        unit = ReadTask(lambda: iter(blocks), BlockMetadata(370, None, None, None))
        batches = []

        def proj(t):  # keeps the even rows of each 100-row batch
            batches.append(t.num_rows)
            return t.filter(pc.equal(pc.bit_wise_and(t["x"], 1), 0))

        shard_of = np.arange(8) // 4

        def decode(*lane):
            return _decode_unit._function(proj, shard_of, 2, ("x",),
                                          COMPACT_ROWS, 100, *lane)

        counts, *slices = decode(unit)
        assert batches == [100, 100, 50, 100, 20]
        assert counts == [len(s) for s in slices] == [93, 92]
        assert sorted(x for s in slices for x in s["x"].to_pylist()) \
            == list(range(0, 370, 2))
        for s, part in enumerate(slices):
            assert set(shard_of[part["_bucket"].to_numpy()]) == {s}
        batches.clear()
        counts, *slices = decode(blocks[1])
        assert batches == [100, 20]
        assert sorted(x for s in slices for x in s["x"].to_pylist()) \
            == list(range(250, 370, 2))
        batches.clear()
        counts, *slices = decode(unit, blocks[1])
        assert batches == [100, 100, 50, 100, 20, 100, 20]
        assert counts == [len(s) for s in slices] == [93 + 30, 92 + 30]
        assert sorted(x for s in slices for x in s["x"].to_pylist()) \
            == sorted([*range(0, 370, 2), *range(250, 370, 2)])
        for s, part in enumerate(slices):
            assert set(shard_of[part["_bucket"].to_numpy()]) == {s}

    def test_retried_decode_task_counts_each_event_once(
        self, tmp_path, monkeypatch
    ):
        """A decode task's worker dies inside the task — in the
        projection the driver ships — on the first attempt only, and Ray
        re-runs the task: only the driver ingests, once per unit, from
        the final attempt, so each event counts once."""
        from plugin_debezium_ray.pipelines import replay

        paths = self._wal(tmp_path, 1200, 4)
        died = str(tmp_path / "died")
        real = replay._Prepared.project

        def dying_once(prep):
            proj = real(prep)

            def project(t):
                out = proj(t)
                if not os.path.exists(died):
                    open(died, "w").close()
                    os._exit(1)
                return out

            return project

        job = ReplayJob(CaptureConfig(num_buckets=8, batch_size=100),
                        str(tmp_path / "lake"))
        with job.streaming_session():
            assert job.run(self._read(paths[:1])).version == 1
            monkeypatch.setattr(replay._Prepared, "project", dying_once)
            res = job.run(self._read(paths[1:]))
        assert os.path.exists(died)
        assert res.version == job.ckpt.current_version() == 2
        assert res.events_seen == self._rows(paths[1:]) == 900
        assert _state(job) == {
            k: hashlib.sha256(r["content"].encode()).hexdigest()
            for k, r in oracle_apply(1200, 120, seed=SEED,
                                     include_snapshot=False).items()
        }

    def test_retried_lane_counts_each_event_once(self, tmp_path, monkeypatch):
        """One decode task decodes a lane of three files, and its worker
        dies on the first attempt while projecting the second: Ray
        re-runs the whole lane, and the driver ingests only the final
        attempt's slices, so each event counts once."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from plugin_debezium_ray.pipelines import replay

        paths = self._wal(tmp_path, 1200, 4)
        lsns = [pq.read_table(p, columns=["lsn"])["lsn"] for p in paths]
        second = pc.min(lsns[2]).as_py()
        assert pc.max(lsns[1]).as_py() < second  # files are lsn-ordered
        died = str(tmp_path / "died")
        real = replay._Prepared.project

        def dying_once(prep):
            proj = real(prep)

            def project(t):
                if (pc.min(t["lsn"]).as_py() >= second
                        and not os.path.exists(died)):
                    open(died, "w").close()
                    os._exit(1)
                return proj(t)

            return project

        job = ReplayJob(CaptureConfig(num_buckets=8, batch_size=100),
                        str(tmp_path / "lake"))
        with job.streaming_session() as session:
            assert job.run(self._read(paths[:1])).version == 1
            session._window = 1  # every unit in one lane
            monkeypatch.setattr(replay._Prepared, "project", dying_once)
            res = job.run(self._read(paths[1:]))
        assert os.path.exists(died)
        assert (res.metrics["decode_tasks"], res.metrics["decode_lanes"]) == (3, 1)
        assert res.version == job.ckpt.current_version() == 2
        assert res.events_seen == self._rows(paths[1:]) == 900
        assert _state(job) == {
            k: hashlib.sha256(r["content"].encode()).hexdigest()
            for k, r in oracle_apply(1200, 120, seed=SEED,
                                     include_snapshot=False).items()
        }

    def test_one_lane_over_a_repeated_file_counts_it_twice(self, tmp_path):
        """``[f, f]`` decoded in one lane holds each event of ``f`` twice,
        as two lanes do: the same count and the same bucket files."""
        f = self._wal(tmp_path, 300, 1)[0]
        sort = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "sort"))
        want = sort.run(self._read([f, f]))
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lane"))
        with job.streaming_session() as session:
            session.shards  # the pool starts with the session's CPU share
            session._window = 1
            got = job.run(self._read([f, f]))
        assert want.metrics["decode_lanes"] == 2
        assert (got.metrics["decode_tasks"], got.metrics["decode_lanes"]) == (2, 1)
        assert got.events_seen == want.events_seen == 600
        assert _bucket_hashes(job) == _bucket_hashes(sort)


class TestDecodeLanes:
    """``_lanes`` (no Ray): a commit's units cut into the contiguous,
    row-balanced runs that one decode task each decodes."""

    @staticmethod
    def _units(*rows, args=None):
        return [(args or {}, f"u{i}", n) for i, n in enumerate(rows)]

    @staticmethod
    def _rows(units, lane):
        size = {u: n for _, u, n in units}
        return [size[u] for u in lane]

    def _check(self, units, window, cap):
        from plugin_debezium_ray.pipelines.streaming_apply import _lanes

        lanes = _lanes(units, window)
        # contiguous, in plan order, each non-empty unit exactly once
        assert [u for _, lane in lanes for u in lane] \
            == [u for _, u, n in units if n != 0]
        for args, lane in lanes:
            rows = self._rows(units, lane)
            assert lane and all(a == args for a, u, _ in units if u in lane)
            if len(lane) > 1:
                assert None not in rows and sum(rows) <= cap
        # the window bounds them when only the row target cuts lanes
        if (all(n is not None and a == {} for a, _, n in units)
                and sum(n for *_, n in units) <= cap):
            assert len(lanes) <= window
        return lanes

    def test_bootstrap_commit_is_two_lanes_on_two_cpus(self):
        """The benchmark's bootstrap: the snapshot, the DDL segment and
        eight 5,000-row segments."""
        from plugin_debezium_ray.pipelines.streaming_apply import COMPACT_ROWS

        units = self._units(4000, 2, *[5000] * 8)
        lanes = self._check(units, 2, COMPACT_ROWS)
        assert [len(lane) for _, lane in lanes] == [6, 4]
        assert [len(lane) for _, lane in self._check(units, 1, COMPACT_ROWS)] \
            == [10]

    def test_no_lane_passes_the_cap_but_a_single_unit(self, monkeypatch):
        from plugin_debezium_ray.pipelines import streaming_apply as sa

        monkeypatch.setattr(sa, "COMPACT_ROWS", 1000)
        units = self._units(400, 400, 400, 1500, 300)
        lanes = self._check(units, 1, 1000)
        assert [lane for _, lane in lanes] \
            == [["u0", "u1"], ["u2"], ["u3"], ["u4"]]

    def test_unknown_size_is_alone_and_empty_is_nowhere(self):
        from plugin_debezium_ray.pipelines.streaming_apply import COMPACT_ROWS

        units = self._units(0, 100, None, 100, 0, 100)
        lanes = self._check(units, 1, COMPACT_ROWS)
        assert [lane for _, lane in lanes] == [["u1"], ["u2"], ["u3", "u5"]]
        assert self._check(self._units(0, 0), 4, COMPACT_ROWS) == []
        assert self._check([], 4, COMPACT_ROWS) == []

    def test_other_ray_options_never_share_a_lane(self):
        from plugin_debezium_ray.pipelines.streaming_apply import COMPACT_ROWS

        units = [({}, "u0", 10), ({}, "u1", 10), ({"num_cpus": 2}, "u2", 10)]
        lanes = self._check(units, 1, COMPACT_ROWS)
        assert [(a, lane) for a, lane in lanes] \
            == [({}, ["u0", "u1"]), ({"num_cpus": 2}, ["u2"])]

    def test_random_plans_keep_every_rule(self, monkeypatch):
        import random

        from plugin_debezium_ray.pipelines import streaming_apply as sa

        monkeypatch.setattr(sa, "COMPACT_ROWS", 5000)
        rng = random.Random(SEED)
        options = [{}, {"num_cpus": 2}]
        for _ in range(500):
            units = [(rng.choice(options) if rng.random() < 0.1 else options[0],
                      f"u{i}",
                      rng.choice([None, 0, rng.randint(1, 7000)])
                      if rng.random() < 0.1 else rng.randint(1, 3000))
                     for i in range(rng.randint(0, 12))]
            self._check(units, rng.randint(1, 8), 5000)


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
    """``BucketMerge`` over one or many buckets per call: a merge home
    merges a whole bucket range in one call; one call per bucket must
    write the same files and stats."""

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
                    if k not in ("apply_seconds", "apply_cpu_seconds", "path")},
                 "sha": _file_sha(r["path"])}
                for r in rows
            ]

        assert norm(one) == norm(per)
        assert sum(r["upserts"] for r in one if r["bucket"] in (5, 7)) == 0
        # every file keeps its own epoch's column order
        for r in one:
            cols = pa.parquet.read_schema(r["path"]).names
            assert "lang" not in cols and "language" in cols

    def test_each_file_keeps_its_own_schema(self, tmp_path):
        """A range whose buckets' files have different schemas: a prior
        with a column the upserts lack, a fresh bucket and a bucket that
        gets only deletes.  One call writes each file under the schema a
        call of its own would give it, not under the range's union."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        paths, fps = {}, {}
        self._commit(tmp_path / "lake", "v000001",
                     _in_buckets(_projected(np.arange(0, 600)), [0, 1, 2]),
                     paths, fps)
        # bucket 3's prior carries a column the next upserts lack
        self._commit(tmp_path / "lake", "v000002",
                     _in_buckets(_projected(np.arange(600, 1200),
                                            added_columns=EPOCH_1["added_columns"]),
                                 [3]),
                     paths, fps)
        assert set(paths) == {0, 1, 2, 3}

        t = _projected(np.arange(1200, 1800))
        b = t["_bucket"].to_numpy()
        deleted = t["deleted"].to_numpy(zero_copy_only=False)
        # 1 gets only deletes; 6 is fresh
        t = _in_buckets(t.filter(pa.array((b != 1) | deleted)), [0, 1, 3, 6])
        assert set(np.unique(t["_bucket"].to_numpy())) == {0, 1, 3, 6}

        kw = dict(prior_paths=paths, prior_fingerprints=fps)
        one = self._merge(tmp_path / "one", "v000003", **kw)(t).to_pylist()
        per = [
            r
            for bb in (0, 1, 3, 6)
            for r in self._merge(tmp_path / "per", "v000003", **kw)(
                _in_buckets(t, [bb])
            ).to_pylist()
        ]
        assert [r["bucket"] for r in one] == [0, 1, 3, 6]
        assert [r["upserts"] for r in one if r["bucket"] == 1] == [0]

        def norm(rows):
            return [
                {**{k: v for k, v in r.items()
                    if k not in ("apply_seconds", "apply_cpu_seconds", "path")},
                 "sha": _file_sha(r["path"]),
                 "schema": pq.read_schema(r["path"])}
                for r in rows
            ]

        assert norm(one) == norm(per)
        has_license = {r["bucket"]: "license" in pq.read_schema(r["path"]).names
                       for r in one}
        assert has_license == {0: False, 1: False, 3: True, 6: False}

    def test_one_sort_and_one_directory_per_call(self, tmp_path, monkeypatch):
        """A call over 32 buckets sorts once and makes its directory
        once: the per-bucket work is the prior read and the file write."""
        import numpy as np
        import os

        import pyarrow.compute as pc

        paths, fps = {}, {}
        self._commit(tmp_path / "lake", "v000001",
                     _projected(np.arange(0, 2000), num_buckets=32, n_keys=400),
                     paths, fps)
        assert len(paths) == 32
        calls = {"sort_indices": 0, "makedirs": 0}

        def spy(name, fn):
            def counted(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return counted

        monkeypatch.setattr(pc, "sort_indices", spy("sort_indices", pc.sort_indices))
        monkeypatch.setattr(os, "makedirs", spy("makedirs", os.makedirs))
        rows = self._merge(tmp_path / "lake", "v000002", prior_paths=paths,
                           prior_fingerprints=fps)(
            _projected(np.arange(2000, 3000), num_buckets=32, n_keys=400)
        ).to_pylist()
        assert len(rows) == 32 and all(r["prior_files_read"] for r in rows)
        assert calls == {"sort_indices": 1, "makedirs": 1}

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


class TestMergeHomeParityAcrossEpochs:
    """Three commits in each merge home, plain tasks and a session's
    shards — snapshot + WAL, a DDL segment (add column + rename)
    touching only some buckets, then a segment touching every bucket:
    after every commit both homes hold the same bucket files and
    fingerprints, and each incremental fingerprint equals a from-scratch
    digest of the same state."""

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

    def test_homes_agree_after_every_commit(self, tmp_path):
        segs = [wal_read(tmp_path, seg) for seg in self._segments()]
        self._homes_agree(tmp_path, lambda job: job.run_segments(segs))

    def test_homes_agree_on_parquet_inputs(self, tmp_path):
        """The segments written to parquet and committed by path
        (``run_from_paths``: ``read_parquet(columns=APPLY_COLUMNS)``
        plus the footer DDL planner): the decode tasks run the read's
        own tasks."""
        dirs = [str(tmp_path / f"seg{i}") for i in range(3)]
        for seg, d in zip(self._segments(), dirs):
            seg.write_parquet(d)
        self._homes_agree(
            tmp_path, lambda job: [job.run_from_paths(d) for d in dirs]
        )

    def _homes_agree(self, tmp_path, commit_all):
        cfg = CaptureConfig(num_buckets=16,
                            offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)
        tasks = ReplayJob(cfg, str(tmp_path / "tasks"))
        assert not any(r.metrics.get("streaming_apply") for r in commit_all(tasks))
        push = ReplayJob(cfg, str(tmp_path / "push"))
        assert len(pushed(push, commit_all, push)) == 3

        def commit(job, v):
            m = job.ckpt.restore_version(v)
            return (
                {b: _file_sha(e["path"]) for b, e in m["buckets"].items()},
                {b: e["fingerprint"] for b, e in m["buckets"].items()},
                m["metrics"]["buckets_touched"],
            )

        segs = self._segments()
        assert tasks.ckpt.current_version() == 3
        for v in (1, 2, 3):
            s_files, s_fps, touched = commit(tasks, v)
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


def test_wide_shard_pool_leaves_cpu_for_decode(tmp_path, monkeypatch):
    """Whatever the cluster's CPU count and the bucket count, the shard
    pool reserves at most all CPUs but one, and at most half a CPU per
    shard, so it never starves the decode tasks that feed it; a live
    session commit on the test cluster finishes."""
    from concurrent.futures import ThreadPoolExecutor, wait

    from plugin_debezium_ray.pipelines import streaming_apply as sa

    class Spy:
        """``MergeShard`` that records each actor's options and starts
        none."""

        asked: list = []

        @classmethod
        def options(cls, **opts):
            cls.asked.append(opts["num_cpus"])
            return types.SimpleNamespace(remote=lambda *a, **kw: None)

    with monkeypatch.context() as m:
        m.setattr(sa, "MergeShard", Spy)
        for cpus in (1, 2, 3, 4, 64):
            for num_buckets in (4, 64):
                cfg = CaptureConfig(num_buckets=num_buckets)
                Spy.asked = []
                pool = sa._make_shard_pool(
                    cfg, sa._shard_table(cfg, cpus), cpus)
                assert len(pool) == len(Spy.asked) >= 2
                assert sum(Spy.asked) <= max(cpus - 1, 0), (cpus, num_buckets)
                assert all(0 <= c <= 0.5 for c in Spy.asked)

    seg = wal_read(tmp_path, binlog(300, 40, seed=SEED))
    job = ReplayJob(CaptureConfig(num_buckets=16), str(tmp_path / "lake"))
    with ThreadPoolExecutor(1) as ex:
        with job.streaming_session() as session:
            fut = ex.submit(session.apply_segment, seg)
            done, _ = wait([fut], timeout=120)
        # closing the session kills the shards, which frees a starved stream
    assert done, "the commit made no progress: the shard pool holds every CPU"
    res = fut.result()
    assert res.metrics["streaming_apply"] and res.events_seen == 300
    assert set(_state(job)) == set(oracle_apply(300, 40, seed=SEED))


class TestHeldBucketTables:
    """A shard merges over the tables its last finalize wrote while the
    manifest still pins their paths, and reads the files otherwise; the
    lake is the same either way."""

    CFG = dict(num_buckets=8, offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH)
    CUTS = (0, 75, 150, 225, 300)

    def _segments(self, tmp_path):
        return [wal_read(tmp_path, _segment(lo, hi))
                for lo, hi in zip(self.CUTS, self.CUTS[1:])]

    def _sessionless_lake(self, tmp_path, segs):
        ref = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "ref"))
        ref.run_segments(segs)
        return ref

    def test_second_session_commit_reads_no_prior_file(self, tmp_path):
        import argparse

        from plugin_debezium_ray.__main__ import cmd_lineage

        segs = self._segments(tmp_path)
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(**self.CFG), lake)
        results = job.run_segments(segs[:2])  # plain merge tasks: v1, v2
        results += pushed(job, job.run_segments, segs[2:])  # one session: v3, v4
        assert [r.version for r in results] == [1, 2, 3, 4]
        assert [r.metrics["buckets_touched"] for r in results] == [8] * 4
        # a fresh lake has no prior file; a merge task and the first
        # commit of a fresh pool read every touched bucket's file; the
        # pool's second commit merges over what it wrote
        assert [r.metrics["prior_files_read"] for r in results] == [0, 8, 8, 0]
        lineage = cmd_lineage(argparse.Namespace(lake=lake))
        assert lineage["metrics"]["prior_files_read"] == 0

        ref = self._sessionless_lake(tmp_path, segs)
        assert _bucket_hashes(job) == _bucket_hashes(ref)
        assert _lake_state(job.table_dir) == _oracle(self.CUTS[-1])

    def test_idle_shard_keeps_its_held_tables(self, tmp_path):
        """A shard that gets no rows in a commit keeps the tables it
        holds: commit 2 touches only the buckets of the first half of
        the session's shards, and commit 3, over the other half's, reads
        no prior file."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from plugin_debezium_ray.pipelines.streaming_apply import (
            _cpus, _shard_table,
        )
        from plugin_debezium_ray.stages.apply import project_for_apply

        cfg = CaptureConfig(**self.CFG)
        shard_of = _shard_table(cfg, _cpus())
        # which half of the pool owns each bucket
        half = shard_of * 2 // (int(shard_of[-1]) + 1)
        events = pa.concat_tables([t for t in ray.get(
            _segment(75, 300).to_arrow_refs()) if t.num_rows])
        rows = project_for_apply(KEYS, 8)(events)
        bucket = dict(zip(zip(*(rows[c].to_pylist() for c in KEYS)),
                          rows["_bucket"].to_pylist()))
        side = [half[bucket[k]] for k in zip(
            *(pc.struct_field(events["key"], c).to_pylist() for c in KEYS))]
        segs = [wal_read(tmp_path, _segment(0, 75))] + [
            wal_read(tmp_path, ray.data.from_arrow(
                events.filter(pa.array([x == h for x in side]))))
            for h in (0, 1)
        ]
        job = ReplayJob(cfg, str(tmp_path / "lake"))
        with job.streaming_session() as session:
            assert (session.shard_of == shard_of).all()
            results = job.run_segments(segs)
        assert all(r.metrics["streaming_apply"] for r in results)
        assert [r.metrics["buckets_touched"] for r in results] \
            == [8, int((half == 0).sum()), int((half == 1).sum())]
        assert [r.metrics["prior_files_read"] for r in results] == [0, 0, 0]
        assert _lake_state(job.table_dir) == _oracle(300)
        assert _bucket_hashes(job) == _bucket_hashes(self._sessionless_lake(tmp_path, segs))

    def test_sort_writer_between_session_commits(self, tmp_path):
        """Another writer commits between two session commits: the
        session's next commit reads that writer's files, not the tables
        it holds from its own last commit."""
        segs = self._segments(tmp_path)
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(**self.CFG), lake)
        with job.streaming_session():
            job.run_segments(segs[:2])
            other = ReplayJob(CaptureConfig(**self.CFG), lake).run(segs[2])
            assert other.version == 3 and other.metrics["prior_files_read"] == 8
            res = job.run(segs[3])
        assert res.metrics["streaming_apply"]
        assert res.version == 4 and res.metrics["prior_files_read"] == 8
        assert _lake_state(job.table_dir) == _oracle(self.CUTS[-1])
        assert _bucket_hashes(job) == _bucket_hashes(self._sessionless_lake(tmp_path, segs))

    def test_generated_input_merges_on_the_sessions_shards(self, tmp_path):
        """A file read, a ``binlog()`` segment, a file read, in one
        session: the generated segment is materialized and merges on the
        session's shards like the reads, every commit writes the
        sessionless job's bucket files, and no commit after the first
        reads a prior file — the shards hold what they wrote, the
        generated commit's buckets included."""
        segs = [wal_read(tmp_path, _segment(0, 75)), _segment(75, 76),
                wal_read(tmp_path, _segment(76, 300))]
        ref = self._sessionless_lake(tmp_path, segs)
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "lake"))
        with job.streaming_session() as session:
            results = job.run_segments(segs)
        assert [r.metrics.get("streaming_apply") for r in results] \
            == [True, True, True]
        v2 = {int(b) for b, e in job.ckpt.restore_version(2)["buckets"].items()
              if "/v000002-" in e["path"]}
        assert 0 < len(v2) == results[1].metrics["buckets_touched"] < 8
        assert [r.metrics["buckets_touched"] for r in results[::2]] == [8, 8]
        # a shard that wrote in commit 2 holds only what it wrote; an
        # idle one keeps its commit-1 tables
        wrote = {int(session.shard_of[b]) for b in v2}
        held = [b for b in range(8) if b in v2 or session.shard_of[b] not in wrote]
        assert [r.metrics["prior_files_read"] for r in results] \
            == [0, 0, 8 - len(held)]
        for v in (1, 2, 3):
            files = [{b: _file_sha(e["path"])
                      for b, e in j.ckpt.restore_version(v)["buckets"].items()}
                     for j in (job, ref)]
            assert files[0] == files[1], v
        assert _lake_state(job.table_dir) == _oracle(300)

    def test_lost_commit_conflict_reads_the_winners_files(self, tmp_path):
        """A session commit loses ``CommitConflict`` after its shards
        wrote (and hold) their attempt's tables: the next commit merges
        over the winner's files."""
        from plugin_debezium_ray.state.checkpoint import CommitConflict

        s0, s150, won_seg, s250 = (
            wal_read(tmp_path, _segment(lo, hi))
            for lo, hi in ((0, 150), (150, 200), (150, 250), (250, 300))
        )
        lake = str(tmp_path / "lake")
        job = ReplayJob(CaptureConfig(**self.CFG), lake)
        with job.streaming_session() as session:
            assert job.run(s0).version == 1
            prep = job._prepare(s150, None)
            # the winner applies more of the log than the loser's attempt
            won = ReplayJob(CaptureConfig(**self.CFG), lake).run(won_seg)
            assert won.version == prep.version == 2
            rows, metrics = route(prep, session)
            assert metrics["streaming_apply"] and len(rows) == 8
            with pytest.raises(CommitConflict):
                job._commit(prep, rows, metrics, 0.0)
            res = job.run(s250)
        assert res.metrics["streaming_apply"]
        assert res.version == 3 and res.metrics["prior_files_read"] == 8
        assert _lake_state(job.table_dir) == _oracle(300)
        ref = self._sessionless_lake(tmp_path, [s0, won_seg, s250])
        assert _bucket_hashes(job) == _bucket_hashes(ref)

    def test_missing_committed_file_raises(self, tmp_path):
        """The push-route twin of ``test_vacuum.py::
        test_missing_committed_file_raises``: a held table does not stand
        in for a committed file that is gone."""
        segs = self._segments(tmp_path)
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "lake"))
        with job.streaming_session():
            job.run_segments(segs[:2])
            os.remove(job.ckpt.bucket_paths()[3])
            with pytest.raises(FileNotFoundError, match="bucket=00003"):
                job.run(segs[2])
        assert job.ckpt.current_version() == 2
