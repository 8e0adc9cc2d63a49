"""Crash recovery and incremental-fingerprint consistency.

The atomic-commit contract: bucket data files may exist on disk without
a manifest pointing at them (crash between data write and commit) — they
must be invisible, and a rerun must converge to the same committed state
(AtomicStateTest semantics applied end-to-end)."""

import glob
import hashlib
import json
import os
import shutil

import pytest

from conftest import pushed
from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import binlog, oracle_apply


def _fp_of(job):
    m = job.ckpt.restore()
    return {b: v["fingerprint"] for b, v in m["buckets"].items()}


def test_incremental_fingerprint_equals_full(tmp_path):
    """fp after (apply A; apply B) == fp after apply(A ∪ B) — the XOR
    algebra must agree with a from-scratch digest of the same state."""
    a = binlog(1500, 120, seed=31)
    b = binlog(800, 120, seed=32, base_lsn=10_000)
    j1 = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "inc"))
    j1.run(a, ddl_source=False)
    j1.run(b, ddl_source=False)  # incremental XOR path

    j2 = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "full"))
    j2.run(a.union(b), ddl_source=False)  # full digest path
    assert _fp_of(j1) == _fp_of(j2)

    # and final tables match row-for-row
    t1 = j1.read_table().to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    t2 = j2.read_table().to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    assert t1.equals(t2)


def test_crash_between_data_write_and_commit(tmp_path):
    """Simulate: v2 bucket files written, manifest commit lost. The lake
    must still serve v1; rerunning the same tail must converge to the
    correct v2 with byte-identical deterministic files."""
    lake = str(tmp_path)
    base = binlog(1200, 100, seed=41)
    tail = binlog(600, 100, seed=42, base_lsn=50_000)
    job = ReplayJob(CaptureConfig(num_buckets=8), lake)
    job.run(base, ddl_source=False)
    v1_rows = job.read_table().count()

    # run v2 normally, then roll the COMMIT back (leave v2 data orphaned)
    job.run(tail, ddl_source=False)
    v2_hashes = {
        b: hashlib.sha256(open(p, "rb").read()).hexdigest()
        for b, p in job.ckpt.bucket_paths().items()
    }
    meta = os.path.join(lake, "_meta")
    os.remove(os.path.join(meta, "manifest-v000002.json"))
    with open(os.path.join(meta, "CURRENT"), "w") as f:
        f.write("1")

    # crashed state: v1 visible, v2 files orphaned on disk
    job_after = ReplayJob(CaptureConfig(num_buckets=8), lake)
    assert job_after.ckpt.current_version() == 1
    assert job_after.read_table().count() == v1_rows

    # recovery: rerun the same tail → identical v2, byte-for-byte
    res = job_after.run(tail, ddl_source=False)
    assert res.version == 2 and res.events_seen == 600
    new_hashes = {
        b: hashlib.sha256(open(p, "rb").read()).hexdigest()
        for b, p in job_after.ckpt.bucket_paths().items()
    }
    assert new_hashes == v2_hashes

    # parity with the oracle over the full log
    oracle = {}
    oracle.update(oracle_apply(1200, 100, seed=41, include_snapshot=False))
    # second segment has a different seed: replay it on top
    tail_state = oracle_apply(600, 100, seed=42, include_snapshot=False,
                              base_lsn=50_000)
    oracle.update(tail_state)
    # deletions in the tail remove keys from the base state
    import numpy as np

    from plugin_debezium_ray.sources.binlog import _keys_of, _ops_of
    from plugin_debezium_ray.sources.source_table import key_of_index

    ev = np.arange(600, dtype=np.int64)
    ops = _ops_of(42, ev)
    kidx = _keys_of(42, ev, 100, False)
    krepo, kpath = key_of_index(42, kidx, max(1, 100 // 50))
    for i in range(600):
        if ops[i] == "d":
            k = (krepo[i], kpath[i])
            if k not in tail_state:
                oracle.pop(k, None)
    got = job_after.read_table().to_pandas()
    eng = {(r.repo, r.path): r.content for r in got.itertuples()}
    assert set(eng) == set(oracle)


def test_streaming_crash_between_data_write_and_commit(tmp_path):
    """Same crash contract on the STREAMING apply: orphaned v2 bucket
    files are invisible (manifest-gated), and a streaming rerun of the
    same tail converges to byte-identical v2 files."""
    lake = str(tmp_path)
    base = binlog(1200, 100, seed=41)
    tail = binlog(600, 100, seed=42, base_lsn=50_000)
    job = ReplayJob(CaptureConfig(num_buckets=8), lake)
    pushed(job, job.run, base)
    v1_rows = job.read_table().count()

    pushed(job, job.run, tail)
    v2_hashes = {
        b: hashlib.sha256(open(p, "rb").read()).hexdigest()
        for b, p in job.ckpt.bucket_paths().items()
    }
    meta = os.path.join(lake, "_meta")
    os.remove(os.path.join(meta, "manifest-v000002.json"))
    with open(os.path.join(meta, "CURRENT"), "w") as f:
        f.write("1")

    job_after = ReplayJob(CaptureConfig(num_buckets=8), lake)
    assert job_after.ckpt.current_version() == 1
    assert job_after.read_table().count() == v1_rows

    res = pushed(job_after, job_after.run, tail)
    assert res.version == 2 and res.events_seen == 600
    new_hashes = {
        b: hashlib.sha256(open(p, "rb").read()).hexdigest()
        for b, p in job_after.ckpt.bucket_paths().items()
    }
    assert new_hashes == v2_hashes


# One log of 1200 events (lsn 1..300) cut into lsn ranges: the state
# after the ranges up to ``hi`` is oracle_apply(..., max_lsn=hi).
N, K, SEED = 1200, 100, 51


def _segment(lo, hi, seed=SEED):
    return binlog(N, K, seed=seed).filter(lambda r: lo < r["lsn"] <= hi)


def _oracle(hi):
    return {k: r["content"] for k, r in oracle_apply(
        N, K, seed=SEED, include_snapshot=False, max_lsn=hi).items()}


def _state(lake):
    tab = ReplayJob(CaptureConfig(), lake).read_table().to_pandas()
    return {(r.repo, r.path): r.content for r in tab.itertuples()}


def _sha(paths):
    return {b: hashlib.sha256(open(p, "rb").read()).hexdigest()
            for b, p in paths.items()}


def test_corrupt_pointer_does_not_reset_the_lake(tmp_path):
    """Garbage in CURRENT after two commits: the third run still commits
    v3 on top of v2 (the pointer is a hint nothing reads) and leaves the
    earlier manifests byte-identical."""
    lake = str(tmp_path)
    cfg = CaptureConfig(num_buckets=8)
    for lo, hi in ((0, 100), (100, 200)):
        ReplayJob(cfg, lake).run(_segment(lo, hi), ddl_source=False)
    meta = os.path.join(lake, "_meta")
    names = ("manifest-v000001.json", "manifest-v000002.json")
    before = [open(os.path.join(meta, n), "rb").read() for n in names]
    with open(os.path.join(meta, "CURRENT"), "w") as f:
        f.write("garbage")

    res = ReplayJob(cfg, lake).run(_segment(200, 300), ddl_source=False)
    assert res.version == 3
    assert [open(os.path.join(meta, n), "rb").read() for n in names] == before
    assert _state(lake) == _oracle(300)


def test_two_writers_one_commit_wins(tmp_path):
    """Two writers prepared on the same parent: the first commit wins
    v2, the second raises CommitConflict without touching the winner's
    bucket files (it wrote its own attempt directory)."""
    import time

    from plugin_debezium_ray.pipelines.replay import _sort_route
    from plugin_debezium_ray.state.checkpoint import CommitConflict

    lake = str(tmp_path)
    cfg = CaptureConfig(num_buckets=8)
    ReplayJob(cfg, lake).run(_segment(0, 150), ddl_source=False)
    a, b = ReplayJob(cfg, lake), ReplayJob(cfg, lake)
    prep_a = a._prepare(_segment(150, 300), None, False)
    prep_b = b._prepare(binlog(N, K, seed=SEED + 1), None, False)
    assert prep_a.version == prep_b.version == 2

    rows, _ = _sort_route(prep_a)
    assert a._commit(prep_a, rows, {}, time.monotonic()).version == 2
    won = a.ckpt.bucket_paths()
    won_sha = _sha(won)
    rows, _ = _sort_route(prep_b)
    with pytest.raises(CommitConflict):
        b._commit(prep_b, rows, {}, time.monotonic())
    assert _sha(won) == won_sha
    assert a.ckpt.current_version() == 2 and a.ckpt.bucket_paths() == won
    assert _state(lake) == _oracle(300)


@pytest.mark.parametrize("first", ["filtered", "generated"])
def test_string_widths_mix_on_one_lake(tmp_path, first):
    """The generator emits ``content`` as ``large_string`` and a Ray row
    ``filter`` hands it back as ``string``: a lake written from either
    kind of input merges the other, and the state is the oracle's."""
    lake = str(tmp_path)
    cfg = CaptureConfig(num_buckets=8)
    # binlog(600) is the first 600 events of the log: lsn 1..150
    head = _segment(0, 150) if first == "filtered" else binlog(600, K, seed=SEED)
    tail = binlog(N, K, seed=SEED) if first == "filtered" else _segment(150, 300)
    ReplayJob(cfg, lake).run(head, ddl_source=False)
    res = ReplayJob(cfg, lake).run(tail, ddl_source=False)
    assert res.version == 2 and res.events_seen == 600
    assert _state(lake) == _oracle(300)


def _commit_on(route, lake, ds):
    job = ReplayJob(CaptureConfig(num_buckets=8), lake)
    if route == "sort":
        return job.run(ds, ddl_source=False)
    with job.streaming_session(num_shards=2) as session:
        return session.apply_segment(ds)


@pytest.mark.parametrize("route", ["sort", "push"])
def test_crash_at_every_commit_write(tmp_path, route):
    """A process crash at each filesystem write of commit 2, on both
    routes.  Each crash state is built from a completed commit by
    deleting the writes after the crash point (shard actors write from
    other processes, so the crash cannot be injected in place).  After
    each, restore() is exactly v1 or v2, and rerunning commit 2's input
    yields the oracle."""
    lake, saved = str(tmp_path / "lake"), str(tmp_path / "saved")
    meta = os.path.join(lake, "_meta")
    _commit_on(route, lake, _segment(0, 150))
    _commit_on(route, lake, _segment(150, 300))
    shutil.copytree(lake, saved)
    ckpt = ReplayJob(CaptureConfig(), lake).ckpt
    v1, v2 = ckpt.restore_version(1), ckpt.restore_version(2)
    files = sorted(glob.glob(os.path.join(lake, "data", "v000002-*", "*.parquet")))
    assert len({os.path.dirname(p) for p in files}) == 1 and len(files) == 8
    manifest = os.path.join(meta, "manifest-v000002.json")

    # crash point -> (bucket files written, manifest state)
    points = {
        "no bucket files": (0, None),
        "some bucket files": (3, None),
        "all bucket files": (8, None),
        "manifest temp file": (8, "temp"),
        "manifest linked": (8, "linked"),
    }
    for point, (kept, state) in points.items():
        shutil.rmtree(lake)
        shutil.copytree(saved, lake)
        for p in files[kept:]:
            os.remove(p)
        if 0 < kept < len(files):  # the next file's write was cut short
            with open(files[kept] + ".tmp", "wb") as f:
                f.write(open(os.path.join(saved, os.path.relpath(
                    files[kept], lake)), "rb").read()[:100])
        if state is None:
            os.remove(manifest)
        elif state == "temp":
            os.rename(manifest, manifest + ".k3j2l1x_")

        want = v2 if state == "linked" else v1
        assert ckpt.restore() == want, point
        res = _commit_on(route, lake, _segment(150, 300))
        assert res.version == want["version"] + 1, point
        assert res.events_seen == (0 if want is v2 else 600), point
        assert _state(lake) == _oracle(300), point
