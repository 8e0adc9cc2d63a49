"""Vacuum (safe GC of old commit versions) and manifest history."""

import os

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import binlog
from plugin_debezium_ray.state.vacuum import list_history, vacuum


def _three_commits(tmp_path):
    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
    for i, seed in enumerate((1, 2, 3)):
        job.run(binlog(400, 60, seed=seed, base_lsn=1 + i * 10_000),
                ddl_source=False)
    return job


def test_history(tmp_path):
    job = _three_commits(tmp_path)
    h = list_history(str(tmp_path))
    assert [x["version"] for x in h] == [1, 2, 3]
    assert h[2]["parent"] == 2


def test_vacuum_keeps_live_data(tmp_path):
    job = _three_commits(tmp_path)
    before = job.read_table().to_pandas().sort_values(["repo", "path"])
    live_paths = set(job.ckpt.bucket_paths().values())

    stats = vacuum(str(tmp_path), keep_manifests=1)
    assert stats["deleted_files"] > 0 and stats["freed_bytes"] > 0
    # live files untouched, table readable and identical
    for p in live_paths:
        assert os.path.exists(p)
    after = job.read_table().to_pandas().sort_values(["repo", "path"])
    assert before.reset_index(drop=True).equals(after.reset_index(drop=True))
    # old manifests gone, the newest still restores
    assert [x["version"] for x in list_history(str(tmp_path))] == [3]
    assert job.ckpt.current_version() == 3


def test_vacuum_dry_run_and_empty(tmp_path):
    job = _three_commits(tmp_path)
    n_before = sum(
        len(files)
        for _, _, files in os.walk(os.path.join(str(tmp_path), "data"))
    )
    stats = vacuum(str(tmp_path), dry_run=True)
    n_after = sum(
        len(files)
        for _, _, files in os.walk(os.path.join(str(tmp_path), "data"))
    )
    assert n_before == n_after and stats["deleted_files"] > 0
    assert vacuum(str(tmp_path / "nope")) == {
        "deleted_files": 0, "freed_bytes": 0, "kept_files": 0}


class TestTimeTravel:
    """read_table(version=N): every retained commit reads back exactly."""

    def test_each_version_reads_back_exactly(self, tmp_path):
        import pandas as pd
        import pytest

        job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
        snapshots: dict[int, pd.DataFrame] = {}
        for i, seed in enumerate((1, 2, 3)):
            res = job.run(binlog(400, 60, seed=seed, base_lsn=1 + i * 10_000),
                          ddl_source=False)
            snapshots[res.version] = (
                job.read_table().to_pandas()
                .sort_values(["repo", "path"]).reset_index(drop=True)
            )
        assert job.versions() == [1, 2, 3]
        # time travel: every historical version equals its as-of snapshot
        for v, want in snapshots.items():
            got = (job.read_table(version=v).to_pandas()
                   .sort_values(["repo", "path"]).reset_index(drop=True))
            assert got.equals(want), f"version {v} drifted"
        # the middle version genuinely differs from the tip
        assert not snapshots[1].equals(snapshots[3])
        # default read == newest version
        assert (job.read_table().to_pandas()
                .sort_values(["repo", "path"]).reset_index(drop=True)
                .equals(snapshots[3]))
        with pytest.raises(FileNotFoundError, match="version 9"):
            job.read_table(version=9)

    def test_vacuum_bounds_travel(self, tmp_path):
        import pytest

        job = _three_commits(tmp_path)
        assert job.versions() == [1, 2, 3]
        vacuum(str(tmp_path), keep_manifests=2)
        assert job.versions() == [2, 3]
        # retained version still reads (its files were kept)...
        assert job.read_table(version=2).count() > 0
        # ...the vacuumed one raises with the recovery hint
        with pytest.raises(FileNotFoundError, match="vacuumed"):
            job.read_table(version=1)


def test_retention_policy_bounds_long_streams(tmp_path):
    """10 commits (a long follow-mode session), then
    vacuum(keep_manifests=2, keep_every=4): retained history is exactly
    the sparse checkpoints {4, 8} + the newest two {9, 10}; file count
    is bounded; time travel to every retained version is intact and
    pruned versions raise."""
    import pandas as pd
    import pytest

    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
    snapshots: dict[int, pd.DataFrame] = {}
    for i in range(10):
        res = job.run(binlog(200, 60, seed=i + 1, base_lsn=1 + i * 10_000),
                      ddl_source=False)
        snapshots[res.version] = (
            job.read_table().to_pandas()
            .sort_values(["repo", "path"]).reset_index(drop=True)
        )
    assert job.versions() == list(range(1, 11))

    def n_data_files():
        return sum(
            len(files)
            for _, _, files in os.walk(os.path.join(str(tmp_path), "data"))
        )

    before = n_data_files()
    stats = vacuum(str(tmp_path), keep_manifests=2, keep_every=4)
    assert stats["deleted_files"] > 0
    assert job.versions() == [4, 8, 9, 10]
    # bounded: at most num_buckets files per retained version
    assert n_data_files() < before
    assert n_data_files() <= 4 * 4
    # retained versions read back exactly; pruned ones raise
    for v in (4, 8, 9, 10):
        got = (job.read_table(version=v).to_pandas()
               .sort_values(["repo", "path"]).reset_index(drop=True))
        assert got.equals(snapshots[v]), f"retained version {v} drifted"
    for v in (1, 2, 3, 5, 6, 7):
        with pytest.raises(FileNotFoundError, match="vacuumed"):
            job.read_table(version=v)
    # a second vacuum with the same policy is a no-op (idempotent GC)
    again = vacuum(str(tmp_path), keep_manifests=2, keep_every=4)
    assert again["deleted_files"] == 0
    assert job.versions() == [4, 8, 9, 10]
    with pytest.raises(ValueError):
        vacuum(str(tmp_path), keep_every=0)


def test_temp_manifest_is_not_history(tmp_path):
    """A manifest temp file left by a crash before its link (the one
    window of save()) is not a commit: invisible to versions()/
    list_history, read_table(version=4) raises, and the next commit
    is v4."""
    import json

    import pytest

    job = _three_commits(tmp_path)
    meta = os.path.join(str(tmp_path), "_meta")
    with open(os.path.join(meta, "manifest-v000004.json.k3j2l1x_"), "w") as f:
        json.dump({"version": 4, "parent": 3, "buckets": {}}, f)
    assert job.versions() == [1, 2, 3]
    assert [h["version"] for h in list_history(str(tmp_path))] == [1, 2, 3]
    with pytest.raises(FileNotFoundError, match="version 4"):
        job.read_table(version=4)
    assert job.ckpt.current_version() == 3
    res = job.run(binlog(400, 60, seed=4, base_lsn=30_001), ddl_source=False)
    assert res.version == 4 and job.versions() == [1, 2, 3, 4]


def test_vacuum_spares_an_in_flight_commit(tmp_path):
    """A writer has written its v4 bucket files but not yet its
    manifest.  Vacuum must leave them: the v4 manifest will point at
    them, and the next commit merges them as its prior state."""
    import time

    import pandas as pd

    from plugin_debezium_ray.pipelines.replay import _sort_route

    job = _three_commits(tmp_path)
    prep = job._prepare(binlog(400, 60, seed=4, base_lsn=30_001), None, False)
    rows, metrics = _sort_route(prep)
    vacuum(str(tmp_path), keep_manifests=1)
    assert job._commit(prep, rows, metrics, time.monotonic()).version == 4
    res = job.run(binlog(400, 60, seed=5, base_lsn=40_001), ddl_source=False)
    assert res.version == 5

    ref = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path / "ref"))
    for i, seed in enumerate((1, 2, 3, 4, 5)):
        ref.run(binlog(400, 60, seed=seed, base_lsn=1 + i * 10_000),
                ddl_source=False)

    def table(j):
        return (j.read_table().to_pandas().sort_values(["repo", "path"])
                .reset_index(drop=True))

    pd.testing.assert_frame_equal(table(job), table(ref))


def test_missing_committed_file_raises(tmp_path):
    """A bucket file the manifest references but the disk lacks fails
    the next merge of that bucket instead of merging it as empty."""
    import pytest

    job = _three_commits(tmp_path)
    gone = job.ckpt.bucket_paths()[0]
    os.remove(gone)
    with pytest.raises(Exception, match="bucket=00000"):
        job.run(binlog(400, 60, seed=4, base_lsn=30_001), ddl_source=False)
    assert job.ckpt.current_version() == 3


def test_vacuum_sweeps_crash_debris_up_to_its_version(tmp_path):
    """Partial bucket files and manifest temp files of versions up to
    the restored one are crash debris and go; those of a newer version
    belong to a writer still in flight and stay."""
    _three_commits(tmp_path)
    meta = os.path.join(str(tmp_path), "_meta")
    data = os.path.join(str(tmp_path), "data")
    old = [
        os.path.join(meta, "manifest-v000003.json.k3j2l1x_"),
        os.path.join(data, "v000003-0badf00d", "bucket=00001.parquet.tmp"),
    ]
    new = [
        os.path.join(meta, "manifest-v000004.json.k3j2l1x_"),
        os.path.join(data, "v000004-0badf00d", "bucket=00000.parquet"),
        os.path.join(data, "v000004-0badf00d", "bucket=00001.parquet.tmp"),
    ]
    for p in old + new:
        os.makedirs(os.path.dirname(p), exist_ok=True)
        with open(p, "wb") as f:
            f.write(b"x")
    stats = vacuum(str(tmp_path))
    assert stats["deleted_files"] >= len(old)
    assert not any(os.path.exists(p) for p in old)
    assert all(os.path.exists(p) for p in new)
    assert not os.path.exists(os.path.join(data, "v000003-0badf00d"))
