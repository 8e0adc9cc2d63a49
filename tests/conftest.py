import os
import sys

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
    pool open on ``job``, so its commits take the push route."""
    with job.streaming_session():
        return call(*args, **kw)
