import os
import sys
import tempfile

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


def pushed(job, call, *args, **kw):
    """``call(*args, **kw)`` — a bound method of ``job`` — with a shard
    pool open on ``job``; every commit it returns must have merged on
    the session's shards, so a test whose commit misses the session
    fails instead of quietly testing plain merge tasks."""
    with job.streaming_session():
        out = call(*args, **kw)
    for res in out if isinstance(out, list) else [out]:
        assert res.metrics.get("streaming_apply"), "commit missed the session's shards"
    return out


def wal_read(tmp_path, ds):
    """Write ``ds`` — a generated envelope Dataset — to a new parquet WAL
    directory under ``tmp_path`` and return its read as a follower makes
    it, ``read_parquet(columns=APPLY_COLUMNS)``: a file read, whose
    decode units are its own read tasks."""
    import ray.data

    from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

    wal = tempfile.mkdtemp(prefix="wal-", dir=tmp_path)
    ds.write_parquet(wal)
    return ray.data.read_parquet(wal, columns=list(APPLY_COLUMNS))
