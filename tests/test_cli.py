"""The ``python -m plugin_debezium_ray`` job entrypoint and the
per-partition lineage accessor (the north-star ``ray job submit`` run
mode: each command prints one JSON line; lineage carries per-bucket
offsets / counts / latency)."""

import json

import pytest

import ray.data

from plugin_debezium_ray.__main__ import main
from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import (
    oracle_apply,
    snapshot_envelopes,
    write_binlog_segments,
)


@pytest.fixture(scope="module")
def wal_and_snap(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    wal = str(base / "wal")
    snap = str(base / "snap")
    write_binlog_segments(wal, 3000, 300, seed=11, num_segments=3)
    snapshot_envelopes(300, seed=11).write_parquet(snap)
    return wal, snap


def _reject_constants(name):
    raise AssertionError(f"non-strict JSON token in CLI output: {name}")


def run_cli(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    # strict parse: pandas NaN/Infinity tokens are NOT valid JSON and
    # break non-Python consumers (jq etc.)
    return json.loads(out, parse_constant=_reject_constants)


class TestCli:
    def test_replay_then_lineage_then_vacuum(self, capsys, tmp_path,
                                             wal_and_snap):
        wal, snap = wal_and_snap
        lake = str(tmp_path / "lake")
        res = run_cli(capsys, "replay", "--wal", wal, "--lake", lake,
                      "--snapshot", snap, "--num-buckets", "16")
        assert res["events_seen"] == 3300
        assert res["version"] == 1

        # final state parity vs the sequential oracle
        job = ReplayJob(CaptureConfig(num_buckets=16), lake)
        got = job.read_table().to_pandas()
        exp = oracle_apply(3000, 300, seed=11)
        assert len(got) == len(exp)

        lin = run_cli(capsys, "lineage", "--lake", lake)
        assert lin["version"] == 1
        buckets = lin["buckets"]
        assert sum(b["rows"] for b in buckets) == len(exp)
        # machine-parseable contract: numbers arrive as JSON numbers,
        # not default=str'd numpy scalars
        assert all(isinstance(b["rows"], int) for b in buckets)
        assert all(isinstance(b["last_lsn"], (int, type(None)))
                   for b in buckets)
        assert all(b["last_lsn"] is not None for b in buckets
                   if b["events_seen"])
        assert all(b["fingerprint"] for b in buckets)
        # the commit's merge time, wall and process CPU, summed over its
        # buckets' stats rows
        m = lin["metrics"]
        assert m["merge_seconds"] > 0 and m["merge_cpu_seconds"] > 0
        assert m["merge_seconds"] == pytest.approx(
            sum(b["apply_seconds"] for b in buckets), abs=1e-3)

        vac = run_cli(capsys, "vacuum", "--lake", lake, "--dry-run")
        assert vac["deleted_files"] == 0  # single commit: nothing to GC

    def test_replay_idempotent_rerun(self, capsys, tmp_path, wal_and_snap):
        wal, snap = wal_and_snap
        lake = str(tmp_path / "lake2")
        run_cli(capsys, "replay", "--wal", wal, "--lake", lake,
                "--snapshot", snap)
        res2 = run_cli(capsys, "replay", "--wal", wal, "--lake", lake,
                       "--snapshot", snap)
        assert res2["events_seen"] == 0

    def test_follow_drains_dir_then_idles_out(self, capsys, tmp_path,
                                              wal_and_snap):
        wal, _ = wal_and_snap
        lake = str(tmp_path / "lake_follow")
        res = run_cli(capsys, "follow", "--wal-dir", wal, "--lake", lake,
                      "--num-buckets", "8", "--poll-interval", "0.1",
                      "--max-wait", "0.5")
        assert res["events_seen"] == 3000
        assert res["commits"] >= 1
        assert res["last_version"] == res["commits"]
        # idempotent rerun: the ledger filters everything
        res2 = run_cli(capsys, "follow", "--wal-dir", wal, "--lake", lake,
                       "--num-buckets", "8", "--poll-interval", "0.1",
                       "--max-wait", "0.5")
        assert res2["events_seen"] == 0

    def test_capture_jsonl(self, capsys, tmp_path, wal_and_snap):
        wal, _ = wal_and_snap
        out_dir = str(tmp_path / "cap")
        res = run_cli(capsys, "capture", "--wal", wal, "--out", out_dir,
                      "--format", "jsonl")
        assert res["size"] == 3000
        assert sum(res["streams"].values()) == 3000

    def test_lineage_accessor_dataframe(self, tmp_path, wal_and_snap):
        wal, snap = wal_and_snap
        lake = str(tmp_path / "lake3")
        job = ReplayJob(CaptureConfig(num_buckets=8), lake)
        job.run_from_paths(wal, snapshot_paths=snap)
        df = job.lineage()
        assert df.attrs["version"] == 1
        assert set(df.columns) >= {
            "bucket", "last_lsn", "last_seq", "rows", "events_seen",
            "events_applied", "apply_seconds", "fingerprint", "path",
        }
        assert df["bucket"].is_monotonic_increasing
        # offsets are high-water marks: max last_lsn == max WAL lsn seen
        assert df["last_lsn"].max() >= 1


def test_history_command(capsys, tmp_path, wal_and_snap):
    wal, snap = wal_and_snap
    lake = str(tmp_path / "lake_hist")
    run_cli(capsys, "replay", "--wal", wal, "--lake", lake,
            "--snapshot", snap, "--num-buckets", "8")
    hist = run_cli(capsys, "history", "--lake", lake)
    assert [v["version"] for v in hist["versions"]] == [1]
    assert hist["versions"][0]["buckets"] > 0


def test_cli_mv_refresh(capsys, tmp_path, wal_and_snap):
    wal, snap = wal_and_snap
    lake = str(tmp_path / "mvlake")
    run_cli(capsys, "replay", "--wal", wal, "--lake", lake,
            "--snapshot", snap, "--num-buckets", "8")
    out = run_cli(capsys, "mv", "--lake", lake, "--group", "lang",
                  "--sum", "lsn")
    assert out["command"] == "mv" and out["groups"] > 0
    assert out["buckets_recomputed"] > 0
    total_rows = sum(r["n_rows"] for r in out["rows"])
    assert total_rows > 0
    # second refresh with no new commit touches nothing
    again = run_cli(capsys, "mv", "--lake", lake, "--group", "lang",
                    "--sum", "lsn")
    assert again["buckets_recomputed"] == 0
    assert again["rows"] == out["rows"]


def test_cli_scd2(capsys, tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(tmp_path / "log.parquet")
    out = str(tmp_path / "scd2")
    pq.write_table(pa.table({
        "lsn": pa.array([1, 2, 3, 4], pa.int64()),
        "k": pa.array([1, 1, 2, 1], pa.int64()),
        "deleted": pa.array([False, False, False, True]),
    }), src)
    res = run_cli(
        capsys, "scd2", "--input", src, "--out", out,
        "--key-cols", "k", "--order-col", "lsn",
        "--deleted-col", "deleted", "--num-partitions", "4",
    )
    assert res["rows"] == 3  # the delete closes without emitting
    got = pq.read_table(out).to_pandas().sort_values("lsn")
    # k=1: lsn1 closed by lsn2; lsn2 closed by the DELETE at lsn4
    # (no row emitted for it); k=2's lsn3 stays open
    assert got["is_current"].tolist() == [False, False, True]


def test_cli_profile(capsys, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({
        "x": pa.array([1.0, 2.0, None]),
        "s": pa.array(["a", "b", "b"]),
    }), src)
    res = run_cli(capsys, "profile", "--input", src)
    rows = {r["column"]: r for r in res["rows"]}
    assert rows["x"]["count"] == 3 and rows["x"]["nulls"] == 1
    assert rows["x"]["mean"] == 1.5
    assert rows["s"]["mean"] is None  # strict JSON: null, not NaN


def test_cli_index_roundtrip(capsys, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    corpus = str(tmp_path / "corpus.parquet")
    shard = str(tmp_path / "shard.parquet")
    idx = str(tmp_path / "cidx")
    kept = str(tmp_path / "kept")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["alpha", "beta"]),
    }), corpus)
    pq.write_table(pa.table({
        "doc_id": pa.array([2, 3], pa.int64()),
        "text": pa.array(["alpha", "gamma"]),
    }), shard)
    b = run_cli(capsys, "index", "build", "--input", corpus,
                "--path", idx, "--num-buckets", "4")
    assert b["num_buckets"] == 4
    pr = run_cli(capsys, "index", "probe", "--input", shard,
                 "--path", idx, "--out", kept)
    assert pr["kept_rows"] == 1  # "alpha" already indexed
    ex = run_cli(capsys, "index", "extend", "--input", kept,
                 "--path", idx)
    assert ex["num_buckets"] == 4
    pr2 = run_cli(capsys, "index", "probe", "--input", shard,
                  "--path", idx, "--out", str(tmp_path / "kept2"))
    assert pr2["kept_rows"] == 0
