"""Source protocol (§2.8): any envelope producer plugs into ReplayJob."""

import time

import ray.data

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import (
    binlog, ddl_events_table, oracle_apply, write_binlog_segments,
)
from plugin_debezium_ray.sources.protocol import (
    ParquetWalSource,
    Source,
    SyntheticBinlogSource,
    TableSource,
)


def test_protocol_conformance():
    for src in (
        ParquetWalSource("/tmp/nowhere"),
        SyntheticBinlogSource(10, 5),
        TableSource("/tmp/nowhere.parquet", key_cols=("id",), lsn_col="id",
                    payload_cols=["id"]),
    ):
        assert isinstance(src, Source)


def test_source_needs_no_ddl_declaration(tmp_path):
    """A Source is ``envelopes``, ``snapshot`` and
    ``needs_schema_history``: ``run_source`` asks it nothing else."""

    class Minimal:
        needs_schema_history = True

        def envelopes(self):
            return binlog(300, 40, seed=9)

        def snapshot(self):
            return None

    assert isinstance(Minimal(), Source)
    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
    res = job.run_source(Minimal())
    assert res.events_seen == 300
    oracle = oracle_apply(300, 40, seed=9, include_snapshot=False)
    assert job.read_table().count() == len(oracle)


def test_ddl_rows_in_a_sources_envelopes_evolve_the_schema(tmp_path):
    """A source's DDL rides in its change stream: a rename unioned into
    a generated binlog reaches the lake and the schema log."""
    rename = {"action": "rename_column", "from": "lang", "to": "language"}

    class Renaming(SyntheticBinlogSource):
        def envelopes(self):
            return super().envelopes().union(
                ray.data.from_arrow(ddl_events_table([(0, rename)])))

    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
    res = job.run_source(Renaming(300, 40, seed=9, include_snapshot=False))
    assert res.events_seen == 300
    assert job.ckpt.restore()["schema"]["log"] == [rename]
    names = job.read_table().schema().names
    assert "language" in names and "lang" not in names


def test_synthetic_source_replay(tmp_path):
    src = SyntheticBinlogSource(1000, 80, seed=9)
    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
    res = job.run_source(src)
    assert res.events_seen == 1000 + 80
    oracle = oracle_apply(1000, 80, seed=9)
    assert job.read_table().count() == len(oracle)


def test_parquet_wal_source(tmp_path):
    wal = str(tmp_path / "wal")
    write_binlog_segments(wal, 500, 50, seed=8, num_segments=2)
    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "lake"))
    res = job.run_source(ParquetWalSource(wal))
    assert res.events_seen == 500


def test_wall_seconds_count_building_the_inputs(tmp_path):
    """A commit's clock starts before the source builds its inputs: a
    source whose ``envelopes()`` takes 0.5 s records at least that."""

    class SlowSource(SyntheticBinlogSource):
        def envelopes(self):
            time.sleep(0.5)
            return super().envelopes()

    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
    res = job.run_source(SlowSource(200, 20, seed=9, include_snapshot=False))
    assert res.events_seen == 200
    assert res.metrics["wall_seconds"] >= 0.5
    assert res.elapsed_seconds >= res.metrics["wall_seconds"]


def test_table_source(tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    p = str(tmp_path / "t.parquet")
    pq.write_table(
        pa.Table.from_pandas(
            pd.DataFrame({"id": [1, 2, 1], "seq_no": [1, 2, 3], "v": [5, 6, 7]})
        ),
        p,
    )
    src = TableSource(p, key_cols=("id",), lsn_col="seq_no",
                      payload_cols=["id", "v"])
    job = ReplayJob(
        CaptureConfig(key_cols=("id",), num_buckets=2),
        str(tmp_path / "lake"),
        needs_schema_history=src.needs_schema_history,
        fingerprint_col="v",
    )
    res = job.run_source(src)
    assert res.events_seen == 3
    got = job.read_table().to_pandas().sort_values("id")
    assert list(got["v"]) == [7, 6]  # id=1 LWW → v=7
