"""Follow mode (unbounded realtime surfaces): ``follow_events`` watches
a WAL directory and publishes records from newly arriving segments —
the reference realtime trigger's run-until-stopped loop
(`AbstractDebeziumRealtimeTrigger.java:141-213`) driven by segment
arrival; ``follow_apply`` is the same watch loop committing each
arrival batch atomically (ON_EACH_BATCH over an endless stream).
"""

import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import binlog

SEED = 31
N_KEYS = 50


def _write_segment(dir_path: str, idx: int, n_events: int, base_lsn: int):
    """Publish one WAL segment with the atomic write-then-rename
    contract follow mode documents."""
    df = binlog(n_events, N_KEYS, seed=SEED, base_lsn=base_lsn).to_pandas()
    tmp = os.path.join(dir_path, f".seg-{idx:04d}.parquet.tmp")
    final = os.path.join(dir_path, f"seg-{idx:04d}.parquet")
    # no pandas schema metadata: the WAL files hold what a producer writes
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False)
                   .replace_schema_metadata(None), tmp)
    os.rename(tmp, final)
    return final


class TestFollowEvents:
    def test_picks_up_segments_as_they_arrive(self, tmp_path):
        wal = tmp_path / "wal"
        wal.mkdir()
        _write_segment(str(wal), 0, 200, base_lsn=1)

        def later():
            time.sleep(0.6)
            _write_segment(str(wal), 1, 150, base_lsn=201)

        t = threading.Thread(target=later)
        t.start()
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        events = list(
            job.follow_events(str(wal), poll_interval=0.1,
                              max_wait_seconds=2.0)
        )
        t.join()
        assert len(events) == 350
        # arrival order respected: segment 0's lsns all precede segment 1's
        lsns = [e["data"]["metadata"]["lsn"] for e in events]
        assert max(lsns[:200]) < min(lsns[200:])
        # publish-only: nothing committed
        assert job.ckpt.restore() is None

    def test_idle_stop_on_empty_dir(self, tmp_path):
        wal = tmp_path / "wal"
        wal.mkdir()
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        t0 = time.monotonic()
        events = list(
            job.follow_events(str(wal), poll_interval=0.05,
                              max_wait_seconds=0.3)
        )
        assert events == []
        assert time.monotonic() - t0 < 5.0

    def test_stop_event_halts_promptly(self, tmp_path):
        wal = tmp_path / "wal"
        wal.mkdir()
        _write_segment(str(wal), 0, 400, base_lsn=1)
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        stop = threading.Event()
        seen = 0
        for _ in job.follow_events(str(wal), poll_interval=0.05,
                                   max_wait_seconds=10.0, stop_event=stop):
            seen += 1
            if seen == 30:
                stop.set()
        assert 30 <= seen < 400

    def test_drain_time_is_not_idle_time(self, tmp_path):
        """A drain slower than max_wait must NOT trip the idle stop: the
        idle clock starts after the drain ends, so a segment arriving
        during the slow drain (but within max_wait of its end) is still
        picked up."""
        wal = tmp_path / "wal"
        wal.mkdir()
        _write_segment(str(wal), 0, 100, base_lsn=1)

        def later():
            time.sleep(2.0)  # lands while segment 0 is still draining
            _write_segment(str(wal), 1, 50, base_lsn=101)

        t = threading.Thread(target=later)
        t.start()
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        events = []
        for e in job.follow_events(str(wal), poll_interval=0.1,
                                   max_wait_seconds=1.2):
            events.append(e)
            if len(events) <= 100:
                time.sleep(0.025)  # drain of segment 0 takes ~2.5 s
        t.join()
        assert len(events) == 150  # segment 1 was not missed

    def test_tmp_and_dotfiles_ignored(self, tmp_path):
        wal = tmp_path / "wal"
        wal.mkdir()
        # an in-flight (un-renamed) publish must not be read
        (wal / ".seg-0000.parquet.tmp").write_bytes(b"partial")
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        events = list(
            job.follow_events(str(wal), poll_interval=0.05,
                              max_wait_seconds=0.2)
        )
        assert events == []


class TestFollowApply:
    def test_converges_to_oracle_and_resumes_zero(self, tmp_path):
        wal = tmp_path / "wal"
        wal.mkdir()
        _write_segment(str(wal), 0, 300, base_lsn=1)

        def later():
            time.sleep(0.5)
            _write_segment(str(wal), 1, 300, base_lsn=301)

        t = threading.Thread(target=later)
        t.start()
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        results = list(
            job.follow_apply(str(wal), poll_interval=0.1,
                             max_wait_seconds=2.0)
        )
        t.join()
        assert len(results) == 2  # one atomic commit per arrival batch
        assert sum(r.events_seen for r in results) == 600

        got = job.read_table().to_pandas()
        got_map = {(r.repo, r.path): r.content
                   for r in got.itertuples(index=False)}
        # reference lake: ONE monolithic run over the same two segments
        ref = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "ref"))
        ref.run(
            binlog(300, N_KEYS, seed=SEED, base_lsn=1).union(
                binlog(300, N_KEYS, seed=SEED, base_lsn=301)
            )
        )
        want = ref.read_table().to_pandas()
        want_map = {(r.repo, r.path): r.content
                    for r in want.itertuples(index=False)}
        assert got_map == want_map

        # restart: a fresh follower rescans from zero; the ledger makes
        # every already-committed segment a no-op
        job2 = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        results2 = list(
            job2.follow_apply(str(wal), poll_interval=0.05,
                              max_wait_seconds=0.3)
        )
        assert sum(r.events_seen for r in results2) == 0

    def test_streaming_follower_mid_stream_ddl(self, tmp_path):
        """A DDL-bearing segment arriving mid-watch evolves the lake
        schema through the persistent session (each commit's
        ``run_from_paths`` scans the new segments' ddl column)."""
        import pandas as pd

        from plugin_debezium_ray.sources.binlog import ddl_events_table

        wal = tmp_path / "wal"
        wal.mkdir()
        _write_segment(str(wal), 0, 200, base_lsn=1)

        def later():
            time.sleep(0.5)
            ddl = ddl_events_table(
                [(10_001, {"action": "add_column", "name": "license",
                           "type": "string", "default": "unknown"})]
            ).to_pandas()
            data = binlog(200, N_KEYS, seed=SEED,
                          base_lsn=10_001).to_pandas()
            df = pd.concat([ddl, data], ignore_index=True)
            tmp = str(wal / ".seg-0001.parquet.tmp")
            pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                           tmp)
            os.rename(tmp, str(wal / "seg-0001.parquet"))

        t = threading.Thread(target=later)
        t.start()
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
        results = list(
            job.follow_apply(str(wal), poll_interval=0.1,
                             max_wait_seconds=2.0)
        )
        t.join()
        assert sum(r.events_seen for r in results) == 400
        tab = job.read_table().to_pandas()
        assert "license" in tab.columns
        assert set(tab["license"]) == {"unknown"}

    def test_streaming_follower_one_pool_same_lake(self, tmp_path):
        """follow_apply holds ONE persistent shard pool across arrival
        commits and produces the same lake as a sessionless run."""
        wal = tmp_path / "wal"
        wal.mkdir()
        _write_segment(str(wal), 0, 250, base_lsn=1)

        def later():
            time.sleep(0.5)
            _write_segment(str(wal), 1, 250, base_lsn=251)

        t = threading.Thread(target=later)
        t.start()
        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "s"))
        results = list(
            job.follow_apply(str(wal), poll_interval=0.1,
                             max_wait_seconds=2.0)
        )
        t.join()
        assert len(results) == 2
        assert sum(r.events_seen for r in results) == 500
        # the session pool persisted: second commit carries the session
        # commit counter, not a fresh pool's 1
        assert results[1].metrics["streaming_session_commit"] == 2

        ref = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "ref"))
        ref.run(binlog(250, N_KEYS, seed=SEED, base_lsn=1).union(
            binlog(250, N_KEYS, seed=SEED, base_lsn=251)))
        a = {(r.repo, r.path): r.content for r in
             job.read_table().to_pandas().itertuples(index=False)}
        b = {(r.repo, r.path): r.content for r in
             ref.read_table().to_pandas().itertuples(index=False)}
        assert a == b
