"""Stop conditions (ST7): maxWait idle stop on the streaming surface,
maxSnapshotDuration on the snapshot phase, maxDuration wall bound —
the soft-limit contract of `AbstractDebeziumTask.java:138-152,611-634`.
"""

import time

import pytest

from conftest import pushed, wal_read
from plugin_debezium_ray.config import (
    REFERENCE_DEFAULT_MAX_SNAPSHOT_DURATION_SECONDS,
    REFERENCE_DEFAULT_MAX_WAIT_SECONDS,
    CaptureConfig,
)
from plugin_debezium_ray.pipelines.replay import ReplayJob, _idle_bounded
from plugin_debezium_ray.sources.binlog import (
    binlog,
    oracle_apply,
    snapshot_envelopes,
)

SEED = 23
N_EVENTS, N_KEYS = 1200, 120


def test_reference_defaults_mirrored():
    # AbstractDebeziumTask.java:138-152: maxWait 10 s, maxSnapshotDuration 1 h
    assert REFERENCE_DEFAULT_MAX_WAIT_SECONDS == 10.0
    assert REFERENCE_DEFAULT_MAX_SNAPSHOT_DURATION_SECONDS == 3600.0
    # bounded replays default to no idle stop
    cfg = CaptureConfig()
    assert cfg.max_wait_seconds is None
    assert cfg.max_snapshot_duration_seconds is None


class TestSnapshotBudget:
    def test_within_budget_matches_unbudgeted_run(self, tmp_path):
        """Budget set but not exceeded: snapshot commits as its own
        phase, then the stream applies — final state identical to the
        single-phase union run."""
        a = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "a"))
        res_a = a.run(
            binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        b = ReplayJob(
            CaptureConfig(num_buckets=8, max_snapshot_duration_seconds=3600),
            str(tmp_path / "b"),
        )
        res_b = b.run(
            binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        assert res_b.stopped_reason is None
        assert res_b.events_seen == res_a.events_seen
        assert res_b.metrics["snapshot_events"] == N_KEYS
        ta = a.read_table().to_pandas().sort_values(["repo", "path"])
        tb = b.read_table().to_pandas().sort_values(["repo", "path"])
        assert ta.reset_index(drop=True).equals(tb.reset_index(drop=True))

    def test_over_budget_stops_before_stream_phase(self, tmp_path):
        """Budget exceeded: the committed snapshot state stands, the
        streaming phase is NOT applied, stopped_reason says why — and a
        later run resumes from the snapshot commit (the reference's
        stop-then-resume contract)."""
        job = ReplayJob(
            CaptureConfig(num_buckets=8, max_snapshot_duration_seconds=0.0),
            str(tmp_path),
        )
        res = job.run(
            binlog(N_EVENTS, N_KEYS, seed=SEED),
            snapshot=snapshot_envelopes(N_KEYS, seed=SEED),
        )
        assert res.stopped_reason == "max_snapshot_duration"
        assert res.events_seen == N_KEYS  # only the snapshot consumed
        # snapshot state only: every key present, no deletes applied yet
        assert job.read_table().count() == N_KEYS

        # resume: the stream applies on the next run, reaching parity
        res2 = job.run(binlog(N_EVENTS, N_KEYS, seed=SEED))
        assert res2.events_seen == N_EVENTS
        oracle = oracle_apply(N_EVENTS, N_KEYS, seed=SEED)
        got = {
            (r.repo, r.path)
            for r in job.read_table().to_pandas().itertuples()
        }
        assert got == set(oracle)


class TestIdleBounded:
    def _slow_gen(self, delays):
        def gen():
            for i, d in enumerate(delays):
                time.sleep(d)
                yield i

        return gen()

    def test_max_wait_stops_on_idle(self):
        got = list(_idle_bounded(self._slow_gen([0, 0, 0.6, 0]), 0.2, None))
        assert got == [0, 1]  # stops waiting for the 0.6 s-late batch

    def test_idle_stop_returns_promptly(self):
        """An idle stop must not stall on joining a producer that is, by
        definition of the idle case, blocked inside batch_iter.__next__
        (the old join(timeout=5.0) made EVERY maxWait stop pay 5 s)."""
        t0 = time.monotonic()
        got = list(_idle_bounded(self._slow_gen([0, 30.0]), 0.3, None))
        elapsed = time.monotonic() - t0
        assert got == [0]
        assert elapsed < 2.0, f"idle stop took {elapsed:.2f}s"

    def test_max_wait_drains_fast_stream(self):
        got = list(_idle_bounded(self._slow_gen([0, 0, 0]), 5.0, None))
        assert got == [0, 1, 2]

    def test_max_duration_bounds_wall(self):
        got = list(
            _idle_bounded(self._slow_gen([0.15] * 10), None, 0.4)
        )
        assert 1 <= len(got) < 10

    def test_stop_event_cancels_and_joins_producer(self):
        """External cancel (`AbstractDebeziumRealtimeTrigger.java:215-256`):
        setting the stop handle ends iteration promptly AND shuts the
        producer thread down (no daemon thread left blocked on q.put
        holding the stream — the round-2 leak)."""
        import threading

        before = {t.ident for t in threading.enumerate()}
        stop = threading.Event()
        got = []
        # infinite-ish fast stream: only the stop_event can end it
        for item in _idle_bounded(self._slow_gen([0.01] * 1000), None, None, stop):
            got.append(item)
            if len(got) == 3:
                stop.set()
        assert 3 <= len(got) <= 4  # at most one in-flight item after stop
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = {t.ident for t in threading.enumerate()} - before
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked

    def test_abandoned_generator_joins_producer(self):
        """A consumer that stops iterating (GeneratorExit) also releases
        the producer — long-lived processes calling iter_events
        repeatedly must not accumulate blocked threads."""
        import threading

        before = {t.ident for t in threading.enumerate()}
        gen = _idle_bounded(self._slow_gen([0.01] * 1000), 5.0, None)
        assert next(gen) == 0
        gen.close()  # GeneratorExit → finally → producer_stop + join
        leaked = {t.ident for t in threading.enumerate()} - before
        assert not leaked

    def test_iter_events_stop_event_mid_stream(self, tmp_path):
        """Cancelling the realtime surface mid-stream stops cleanly and
        leaves NO committed state (iter_events never writes the ledger)."""
        import threading

        job = ReplayJob(
            CaptureConfig(num_buckets=4, max_wait_seconds=30.0),
            str(tmp_path),
        )
        stop = threading.Event()
        seen = 0
        for _ in job.iter_events(binlog(500, 40, seed=SEED), stop_event=stop):
            seen += 1
            if seen == 25:
                stop.set()
        assert 25 <= seen < 500
        assert job.ckpt.restore() is None  # ledger untouched by cancel

    def test_iter_events_idle_stop(self, tmp_path):
        """The realtime surface honors cfg.max_wait_seconds: a generous
        idle budget drains the bounded stream fully (the reference's
        CaptureTest maxWait≤30 s pattern)."""
        job = ReplayJob(
            CaptureConfig(num_buckets=4, max_wait_seconds=30.0),
            str(tmp_path),
        )
        n = sum(1 for _ in job.iter_events(binlog(200, 40, seed=SEED)))
        assert n == 200


class TestMaxDurationSegments:
    def test_segment_budget_stops_early(self, tmp_path):
        segs = [wal_read(tmp_path, binlog(300, 60, seed=SEED, base_lsn=1 + 300 * i))
                for i in range(3)]
        from plugin_debezium_ray.config import OffsetCommitMode

        job = ReplayJob(
            CaptureConfig(
                num_buckets=4,
                offset_commit_mode=OffsetCommitMode.ON_EACH_BATCH,
                max_duration_seconds=0.0,
            ),
            str(tmp_path / "sort"),
        )
        out = job.run_segments(segs)
        assert len(out) == 1  # budget hit after the first commit
        # a session's segment commits keep the same budget
        push = ReplayJob(job.cfg, str(tmp_path / "push"))
        assert len(pushed(push, push.run_segments, segs)) == 1

