"""Tests of the benchmark's own code: fixtures, parity, staged replay.

    python3 -m pytest cdcbench/tests -q
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq

from cdcbench.harness import QUIET_STEAL, Tally, copy_lake, quiet


def _make_job(small):
    from plugin_debezium_ray.config import CaptureConfig
    from plugin_debezium_ray.pipelines.replay import ReplayJob

    return lambda d: ReplayJob(CaptureConfig(num_buckets=small.NUM_BUCKETS), d)


def _files(root):
    out = {}
    for d, _, names in os.walk(root):
        for n in names:
            if n.endswith(".parquet"):
                p = os.path.join(d, n)
                with open(p, "rb") as f:
                    out[os.path.relpath(p, root)] = f.read()
    return out


def test_fixtures_byte_identical_per_seed(tmp_path, small):
    a = small.Fixtures(str(tmp_path / "a"), 7, tail_segments=2).ensure()
    b = small.Fixtures(str(tmp_path / "b"), 7, tail_segments=2).ensure()
    other = small.Fixtures(str(tmp_path / "c"), 8, tail_segments=2).ensure()
    fa, fb = _files(a.root), _files(b.root)
    assert len(fa) == 1 + 1 + 2 + 2  # snapshot, DDL, 2 WAL, 2 tail
    assert fa == fb
    assert a.oracle(2) == b.oracle(2)
    assert _files(other.root) != fa


def test_parity_fails_on_one_flipped_row(tmp_path, small):
    fx = small.Fixtures(str(tmp_path / "cache"), 3).ensure()
    lake = str(tmp_path / "lake")
    _make_job(small)(lake).run_from_paths(
        fx.wal_paths, snapshot_paths=fx.snapshot_paths
    )
    assert small.parity_ok(lake, fx.oracle(0))

    flipped = copy_lake(lake, str(tmp_path / "flipped"))
    from plugin_debezium_ray.state.checkpoint import CheckpointManager

    path = sorted(
        v["path"] for v in CheckpointManager(flipped).restore()["buckets"].values()
    )[0]
    t = pq.read_table(path)
    content = t["content"].to_pylist()
    content[0] += " flipped"
    i = t.column_names.index("content")
    pq.write_table(t.set_column(i, t.field(i), pa.array(content, t.field(i).type)),
                   path)
    assert not small.parity_ok(flipped, fx.oracle(0))
    assert small.parity_ok(lake, fx.oracle(0))  # the copy left it alone


def _traced(tmp_path, small, workload, tail_segments=0):
    from cdcbench import workloads
    from cdcbench.staged import PER_LAYER, Tracer, traced_run

    fx = small.Fixtures(str(tmp_path / "cache"), 5, tail_segments).ensure()
    tally = Tally()
    runner = workloads.Workloads(fx, tally, str(tmp_path / "work"), 1.0)
    layer = traced_run(workload, runner, Tracer())
    assert tally.failed == 0, tally.notes
    assert set(layer) == set(PER_LAYER)
    real = os.path.join(runner.work_dir, "lakes", "trace-real")
    staged = os.path.join(runner.work_dir, "lakes", "trace-staged")
    assert small.lake_fingerprint(real) == small.lake_fingerprint(staged)
    return layer


def test_staged_bootstrap_matches_real_entry_point(tmp_path, small, monkeypatch):
    from cdcbench import workloads

    monkeypatch.setattr(workloads, "NUM_BUCKETS", small.NUM_BUCKETS)
    layer = _traced(tmp_path, small, "bootstrap")
    assert layer["merge.buckets"] == small.NUM_BUCKETS
    assert layer["registry.rows_scanned"] == small.BASE_EVENTS + 2


def test_staged_tail_and_restart_match_real_entry_point(tmp_path, small,
                                                        monkeypatch):
    from cdcbench import workloads

    monkeypatch.setattr(workloads, "NUM_BUCKETS", small.NUM_BUCKETS)
    layer = _traced(tmp_path / "tail", small, "tail", tail_segments=2)
    assert layer["checkpoint.manifest_reads"] == 4  # one staged commit
    layer = _traced(tmp_path / "restart", small, "restart")
    assert layer["project.rows_out"] == 0
    assert layer["project.ledger_skipped"] == small.BASE_EVENTS


def test_quiet_keeps_every_sample_on_a_quiet_host():
    assert quiet([3, 1, 2], [0.0, QUIET_STEAL, 0.001]) == [3, 1, 2]


def test_quiet_drops_noisy_samples_down_to_the_quietest_quarter():
    steals = [0.2, 0.0, 0.1, 0.3, 0.001]
    assert quiet(["a", "b", "c", "d", "e"], steals) == ["b", "e"]
    assert quiet(["a", "b", "c", "d"], [0.5, 0.5, 0.001, 0.5]) == ["c"]
