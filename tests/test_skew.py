"""Hot-key / hot-repo skew handling (the salting story, SURVEY.md §4).

Two mechanisms under test:
1. Hot REPOS spread across buckets because the bucket hash includes
   ``path`` (ordering is only needed per (repo, path)) — the 'salted
   splits for hot repo keys' requirement of BASELINE.json.
2. A hot KEY's event volume collapses in the per-batch LWW pre-reduce
   (≤1 winner row per key per batch crosses the shuffle), so a skewed
   stream cannot overload one merge group with raw events.
"""

import numpy as np
import pyarrow as pa

from conftest import pushed, wal_read
from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.functions.hashing import bucket_of
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import binlog, oracle_apply
from plugin_debezium_ray.sources.source_table import key_of_index
from plugin_debezium_ray.stages.apply import WEIGHT_COL, project_for_apply


def test_hot_repo_spreads_across_buckets():
    """A Zipf-hot repo's keys land in many buckets (hash includes path)."""
    n_keys, n_repos, n_buckets = 5000, 40, 32
    idx = np.arange(n_keys, dtype=np.int64)
    repos, paths = key_of_index(7, idx, n_repos)
    t = pa.table({"repo": repos, "path": paths})
    buckets = bucket_of(t, ("repo", "path"), n_buckets).to_numpy()
    # hottest repo (zipf rank 0) must hit (nearly) every bucket
    hot = repos == sorted(set(repos), key=lambda r: -(repos == r).sum())[0]
    assert len(set(buckets[hot].tolist())) >= n_buckets - 2
    # and overall bucket sizes stay balanced despite repo skew
    counts = np.bincount(buckets, minlength=n_buckets)
    assert counts.max() < 3 * counts.mean()


def test_preduce_collapses_hot_key():
    """90% of a batch hitting ONE key → exactly one winner row (with the
    full weight) crosses the shuffle for it."""
    import ray

    env = binlog(2000, 5, seed=5, key_skew=True)  # 5 keys, zipf-hot
    proj = project_for_apply(("repo", "path"), 8)
    tables = [ray.get(r) for r in env.to_arrow_refs()]
    t = pa.concat_tables([t for t in tables if len(t)])
    out = proj(t)
    # ≤ distinct keys rows survive the pre-reduce
    assert len(out) <= 5
    assert int(pa.compute.sum(out[WEIGHT_COL]).as_py()) == 2000


def test_skewed_replay_parity(tmp_path):
    """End-to-end parity under Zipf key skew."""
    import hashlib

    n_ev, n_keys = 3000, 50
    env = binlog(n_ev, n_keys, seed=13, key_skew=True)
    job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
    job.run(env)
    oracle = oracle_apply(n_ev, n_keys, seed=13, include_snapshot=False,
                          key_skew=True)
    tab = job.read_table().to_pandas()
    eng = {(r.repo, r.path): r.content for r in tab.itertuples()}
    assert set(eng) == set(oracle)
    for k in eng:
        assert (
            hashlib.sha256(eng[k].encode()).hexdigest()
            == hashlib.sha256(oracle[k]["content"].encode()).hexdigest()
        )


def test_streaming_apply_under_key_skew(tmp_path):
    """The barrier-free actor-pool apply handles a Zipf-hot key stream:
    the per-batch pre-reduce bounds what any shard receives, and the
    final state matches the single-threaded oracle exactly."""
    import hashlib
    import shutil
    import tempfile

    d = tempfile.mkdtemp(prefix="skewstream_", dir="/tmp")
    try:
        job = ReplayJob(CaptureConfig(num_buckets=8), d)
        pushed(job, job.run,
               wal_read(tmp_path, binlog(6000, 300, seed=31, key_skew=True)))
        oracle = oracle_apply(6000, 300, seed=31, key_skew=True,
                              include_snapshot=False)
        got = {
            (r.repo, r.path): hashlib.sha256(r.content.encode()).hexdigest()
            for r in job.read_table().to_pandas().itertuples()
        }
        want = {
            k: hashlib.sha256(v["content"].encode()).hexdigest()
            for k, v in oracle.items()
        }
        assert got == want
    finally:
        shutil.rmtree(d, ignore_errors=True)


def test_hot_key_wal_parity(tmp_path):
    """The bench --skew soak's WAL shape — ONE key receiving 50% of all
    events — applies to exactly the oracle state through the streaming
    engine (the pathological path is correctness-neutral, not just
    survivable)."""
    import hashlib
    import shutil
    import tempfile

    from plugin_debezium_ray.sources.binlog import _keys_of

    # the skew is real: key 0 takes ~half the stream
    counts = np.bincount(
        _keys_of(21, np.arange(4000, dtype=np.int64), 300, False, 0.5),
        minlength=300,
    )
    assert counts[0] > 1500 and counts[0] < 2500

    d = tempfile.mkdtemp(prefix="hotkey_", dir="/tmp")
    try:
        job = ReplayJob(CaptureConfig(num_buckets=8), d)
        pushed(job, job.run,
               wal_read(tmp_path, binlog(4000, 300, seed=21, hot_key_frac=0.5)))
        oracle = oracle_apply(4000, 300, seed=21, hot_key_frac=0.5,
                              include_snapshot=False)
        got = {
            (r.repo, r.path): hashlib.sha256(r.content.encode()).hexdigest()
            for r in job.read_table().to_pandas().itertuples()
        }
        want = {
            k: hashlib.sha256(v["content"].encode()).hexdigest()
            for k, v in oracle.items()
        }
        assert got == want
    finally:
        shutil.rmtree(d, ignore_errors=True)
