"""End-to-end replay: golden parity vs the single-threaded oracle, rerun
idempotence, checkpoint/resume, commit-cadence equivalence, snapshot
modes, schema evolution, trigger surfaces.  Ports the semantics of the
reference CaptureTest/TriggerTest/RealtimeTriggerTest (SURVEY.md §5)."""

import hashlib
import os

import pyarrow as pa
import pytest

import ray.data

from conftest import pushed, wal_read
from plugin_debezium_ray.config import CaptureConfig, OffsetCommitMode, SnapshotMode
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import (
    binlog,
    ddl_events_table,
    oracle_apply,
    snapshot_envelopes,
)

SEED = 11
N_EVENTS, N_KEYS = 3000, 250


def final_state(job):
    tab = job.read_table().to_pandas()
    return {(r.repo, r.path): r.content for r in tab.itertuples()}


def assert_parity(job, oracle):
    eng = final_state(job)
    assert set(eng) == set(oracle)
    for k, content in eng.items():
        assert (
            hashlib.sha256(content.encode()).hexdigest()
            == hashlib.sha256(oracle[k]["content"].encode()).hexdigest()
        ), f"content sha mismatch for {k}"


def data_file_hashes(table_dir):
    ck = ReplayJob(CaptureConfig(), table_dir).ckpt
    out = {}
    for b, p in ck.bucket_paths().items():
        out[b] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return out


@pytest.fixture()
def env():
    return binlog(N_EVENTS, N_KEYS, seed=SEED)


@pytest.fixture()
def snap():
    return snapshot_envelopes(N_KEYS, seed=SEED)


class TestReplayParity:
    def test_full_replay_sha256_parity(self, tmp_path, env, snap):
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        res = job.run(env, snapshot=snap)
        assert res.events_seen == N_EVENTS + N_KEYS
        assert_parity(job, oracle_apply(N_EVENTS, N_KEYS, seed=SEED))

    def test_rerun_yields_zero_and_identical_bytes(self, tmp_path, env, snap):
        """CaptureTest.java:97-99: immediate rerun consumes nothing; our
        stronger check: bucket files stay byte-identical."""
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        job.run(env, snapshot=snap)
        before = data_file_hashes(str(tmp_path))
        res2 = job.run(env, snapshot=snap)
        assert res2.events_seen == 0 and res2.events_applied == 0
        assert data_file_hashes(str(tmp_path)) == before

    def test_resume_from_mid_checkpoint(self, tmp_path):
        """Stop at an LSN bound, then resume over the FULL log from the
        checkpoint: final state identical to one uninterrupted replay."""
        half_lsn = 1 + (N_EVENTS // 2) // 4
        job = ReplayJob(
            CaptureConfig(num_buckets=8, max_lsn=half_lsn), str(tmp_path / "a")
        )
        job.run(binlog(N_EVENTS, N_KEYS, seed=SEED),
                snapshot=snapshot_envelopes(N_KEYS, seed=SEED))
        mid = oracle_apply(N_EVENTS, N_KEYS, seed=SEED, max_lsn=half_lsn)
        assert_parity(job, mid)
        # resume: same job dir, bound lifted, full log replayed
        job2 = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        res = job2.run(binlog(N_EVENTS, N_KEYS, seed=SEED),
                       snapshot=snapshot_envelopes(N_KEYS, seed=SEED))
        assert 0 < res.events_seen < N_EVENTS + N_KEYS  # only the tail
        assert_parity(job2, oracle_apply(N_EVENTS, N_KEYS, seed=SEED))

    def test_commit_cadence_equivalence(self, tmp_path):
        """ON_EACH_BATCH (per-segment commits) and ON_STOP (single commit)
        converge to the identical final state (ST4)."""
        thirds = N_EVENTS // 3
        groups = lambda: [  # noqa: E731
            binlog(N_EVENTS, N_KEYS, seed=SEED).filter(
                lambda r, lo=i * thirds, hi=(i + 1) * thirds if i < 2 else N_EVENTS:
                lo <= (r["lsn"] - 1) * 4 + r["seq"] < hi
            )
            for i in range(3)
        ]
        ja = ReplayJob(
            CaptureConfig(num_buckets=8,
                          offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH),
            str(tmp_path / "each"),
        )
        results = ja.run_segments(groups())
        assert len(results) == 3 and results[0].version == 1
        jb = ReplayJob(
            CaptureConfig(num_buckets=8,
                          offset_commit_mode=OffsetCommitMode.ON_STOP),
            str(tmp_path / "stop"),
        )
        assert len(jb.run_segments(groups())) == 1
        assert final_state(ja) == final_state(jb)
        assert_parity(ja, oracle_apply(N_EVENTS, N_KEYS, seed=SEED,
                                       include_snapshot=False))


class TestStopConditions:
    def test_max_duration_soft_bound(self, tmp_path):
        """ST7 maxDuration: the wall budget stops the ON_EACH_BATCH loop
        between commits (always ≥1 group, like the reference's soft
        1-second-granularity bound); a later run resumes from the
        ledger."""
        from plugin_debezium_ray.config import OffsetCommitMode

        groups = [binlog(300, 60, seed=SEED, base_lsn=1 + i * 1000)
                  for i in range(3)]
        job = ReplayJob(
            CaptureConfig(
                num_buckets=4,
                offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH,
                max_duration_seconds=0.0,
            ),
            str(tmp_path),
        )
        results = job.run_segments(groups)
        assert len(results) == 1  # budget exhausted after the first commit
        # resume without the budget: remaining segments apply
        job2 = ReplayJob(
            CaptureConfig(num_buckets=4,
                          offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH),
            str(tmp_path),
        )
        rest = job2.run_segments(groups)
        assert sum(r.events_seen for r in rest) == 600


class _SnapshotModeCases:
    """The snapshot-mode rules, on plain merge tasks or, with ``PUSH``,
    a session's shards: both merge homes share them (a snapshot is
    passed in every case)."""

    #: run with a shard pool open on the job
    PUSH = False

    def _apply(self, job, env, snap):
        if not self.PUSH:
            return job.run(env, snapshot=snap)
        if job.cfg.snapshot_mode is SnapshotMode.NO_DATA:  # routes nothing
            with job.streaming_session():
                return job.run(env, snapshot=snap)
        return pushed(job, job.run, env, snapshot=snap)

    def test_never_tail_only(self, tmp_path, env, snap):
        job = ReplayJob(
            CaptureConfig(num_buckets=8, snapshot_mode=SnapshotMode.NEVER),
            str(tmp_path),
        )
        res = self._apply(job, env, snap)  # NEVER ignores the snapshot
        assert res.events_seen == N_EVENTS
        assert_parity(
            job, oracle_apply(N_EVENTS, N_KEYS, seed=SEED, include_snapshot=False)
        )

    def test_initial_only_load_only(self, tmp_path, env, snap):
        job = ReplayJob(
            CaptureConfig(num_buckets=8, snapshot_mode=SnapshotMode.INITIAL_ONLY),
            str(tmp_path),
        )
        res = self._apply(job, env, snap)
        assert res.events_seen == N_KEYS
        assert_parity(job, oracle_apply(0, N_KEYS, seed=SEED))

    def test_no_data_schema_only(self, tmp_path, env, snap):
        job = ReplayJob(
            CaptureConfig(num_buckets=8, snapshot_mode=SnapshotMode.NO_DATA),
            str(tmp_path),
        )
        res = self._apply(job, env, snap)
        assert res.events_seen == 0
        assert job.ckpt.restore()["schema"] is not None
        with pytest.raises(FileNotFoundError):
            job.read_table()


class TestSnapshotModes(_SnapshotModeCases):
    def test_snapshot_mode_aliases(self):
        assert SnapshotMode.from_string("schema_only") is SnapshotMode.NO_DATA
        assert SnapshotMode.from_string("SCHEMA_ONLY_RECOVERY") is SnapshotMode.RECOVERY
        assert SnapshotMode.from_string("initial") is SnapshotMode.INITIAL


class TestSnapshotModesPushRoute(_SnapshotModeCases):
    """The same cases over parquet WAL reads, merged on a session's
    shards."""

    PUSH = True

    @pytest.fixture()
    def env(self, tmp_path):
        return wal_read(tmp_path, binlog(N_EVENTS, N_KEYS, seed=SEED))

    @pytest.fixture()
    def snap(self, tmp_path):
        return wal_read(tmp_path, snapshot_envelopes(N_KEYS, seed=SEED))


class TestSchemaEvolution:
    def test_additive_and_rename_e2e(self, tmp_path, env, snap):
        """DDL events in the stream: add `license` (default 'unknown'),
        rename `lang`→`language`; final table carries the evolved schema,
        old rows read under it (F6 fixture semantics)."""
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
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        job.run(env.union(ddl), snapshot=snap)
        tab = job.read_table().to_pandas()
        assert "language" in tab.columns and "lang" not in tab.columns
        assert set(tab["license"]) == {"unknown"}
        oracle = oracle_apply(N_EVENTS, N_KEYS, seed=SEED)
        eng = {(r.repo, r.path): r.content for r in tab.itertuples()}
        assert set(eng) == set(oracle)

    def test_registry_snapshot_persisted_and_reused(self, tmp_path, env, snap):
        ddl = ray.data.from_arrow(
            ddl_events_table(
                [(0, {"action": "add_column", "name": "stars", "type": "int64"})]
            )
        )
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        job.run(env.union(ddl), snapshot=snap)
        snap_m = job.ckpt.restore()["schema"]
        assert ["stars", "int64"] in [list(f) for f in snap_m["fields"]]
        # incremental run without the DDL events: view still applied
        more = binlog(200, N_KEYS, seed=SEED + 1, base_lsn=10_000)
        job.run(more)
        tab = job.read_table().to_pandas()
        assert "stars" in tab.columns


class TestTriggerSurfaces:
    def test_poll_gate(self, tmp_path, env, snap):
        """Polling trigger returns a result only when size > 0
        (Trigger.java:99-112)."""
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        assert job.poll(env, snapshot=snap) is not None
        assert job.poll(env, snapshot=snap) is None  # nothing new

    def test_iter_events_streaming(self, env):
        """Realtime surface: per-record {stream, data} emission (K2)."""
        job = ReplayJob(CaptureConfig(num_buckets=8), "/tmp/unused-lake")
        it = job.iter_events(env.limit(50))
        first = next(it)
        assert first["stream"] == "lake.files"
        assert {"repo", "path", "content", "deleted", "metadata"} <= set(
            first["data"]
        )
        assert sum(1 for _ in it) == 49

    def test_max_records_soft_limit(self, tmp_path, snap):
        """maxRecords bounds the tail but NEVER the snapshot phase
        (AbstractDebeziumTask.java:617-621); a streaming session bounds
        each of its commits the same way: the limited read is
        materialized, and its blocks merge on the session's shards."""
        env = binlog(N_EVENTS, N_KEYS, seed=SEED)
        cfg = CaptureConfig(num_buckets=8, max_records=100)
        job = ReplayJob(cfg, str(tmp_path / "sort"))
        res = job.run(env, snapshot=snap)
        assert res.events_seen == N_KEYS + 100
        session = ReplayJob(cfg, str(tmp_path / "push")).streaming_session()
        with session:
            res = session.apply_segment(wal_read(tmp_path, env))
        assert res.events_seen == 100 and res.metrics["streaming_apply"]


class TestLineageMetrics:
    def test_manifest_lineage(self, tmp_path, env, snap):
        """Per-partition lineage: source offset, event count, apply
        latency (the north-star metrics contract)."""
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
        job.run(env, snapshot=snap)
        m = job.ckpt.restore()
        assert len(m["buckets"]) == 8
        for b in m["buckets"].values():
            assert b["rows"] > 0 and b["events_seen"] > 0
            assert b["apply_seconds"] >= 0 and len(b["fingerprint"]) == 64
        assert m["metrics"]["events_seen"] == N_EVENTS + N_KEYS
        last = max(tuple(v) for v in m["ledger"].values())
        assert last[0] == (N_EVENTS - 1) // 4 + 1


class TestAllSixOps:
    """op=t (truncate) and op=m (message) through the FULL apply path
    and the format path — VERDICT r2 next-round #2.  The reference lets
    both flow through format/filter like any envelope
    (`ChangeConsumer.java:196-213`); truncate marks deleted
    (`AbstractDebeziumTask.java:813-817`); keyless messages mutate no
    table row."""

    KW = dict(seed=SEED, p_truncate=0.05, p_message=0.05)

    def _env(self):
        return binlog(N_EVENTS, N_KEYS, **self.KW)

    def test_apply_parity_with_truncate_and_message(self, tmp_path):
        oracle = oracle_apply(N_EVENTS, N_KEYS, **self.KW)
        env = wal_read(tmp_path, self._env())
        snap = wal_read(tmp_path, snapshot_envelopes(N_KEYS, seed=SEED))
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        res_a = a.run(env, snapshot=snap)
        assert_parity(a, oracle)
        # streaming engine: same oracle, byte-identical lake
        b = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "b"))
        res_b = pushed(b, b.run, env, snapshot=snap)
        assert_parity(b, oracle)
        assert data_file_hashes(str(tmp_path / "a")) == data_file_hashes(
            str(tmp_path / "b")
        )
        # keyless op=m events are not data mutations: both engines agree
        # on consumed-event accounting (snapshot + all non-m data ops)
        from plugin_debezium_ray.sources.binlog import _ops_of
        import numpy as np

        ops = _ops_of(SEED, np.arange(N_EVENTS), 0.05, 0.05)
        n_msg = int((ops == "m").sum())
        assert n_msg > 0 and (ops == "t").sum() > 0  # stream really has them
        assert res_a.events_seen == N_EVENTS + N_KEYS - n_msg
        assert res_b.events_seen == res_a.events_seen

    def test_message_flows_through_format_truncate_sets_deleted(self):
        """Decode parity for the two ops: op=m rows survive INLINE
        formatting (null image, null key fields, deleted=false); op=t
        rows come out deleted=true."""
        import numpy as np
        import pyarrow.compute as pc
        from plugin_debezium_ray.sources.binlog import _gen_batch
        from plugin_debezium_ray.stages.decode import EnvelopeDecoder
        from plugin_debezium_ray.config import MetadataHandling

        t = _gen_batch(
            np.arange(2000), seed=SEED, n_keys=100, n_repos=4, txn_size=4,
            base_lsn=1, key_skew=False, p_truncate=0.05, p_message=0.05,
        )
        in_ops = t["op"].to_pylist()
        dec = EnvelopeDecoder(
            CaptureConfig(key_cols=("repo", "path"),
                          metadata=MetadataHandling.ADD_FIELD)
        )
        out = dec(t)
        assert len(out) == len(t)  # every envelope (incl. m/t) flows
        out_ops = out["metadata"].combine_chunks().field("op").to_pylist()
        assert out_ops == in_ops
        deleted = np.array(out["deleted"].to_pylist())
        want_deleted = np.isin(in_ops, ["d", "t"])
        assert (deleted == want_deleted).all()
        # message rows: keyless and imageless after formatting
        is_msg = np.array(in_ops) == "m"
        assert is_msg.sum() > 0
        repo = np.array(out["repo"].to_pylist(), dtype=object)
        content = np.array(out["content"].to_pylist(), dtype=object)
        assert all(v is None for v in repo[is_msg])
        assert all(v is None for v in content[is_msg])
        # truncate rows keep their key (per-key truncate == delete here)
        is_tr = np.array(in_ops) == "t"
        assert all(v is not None for v in repo[is_tr])
