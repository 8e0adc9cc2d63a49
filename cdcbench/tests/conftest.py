import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    from ray.data import DataContext

    # workers import the engine and the benchmark from the repository root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def small(monkeypatch):
    """Shrink the fixture sizes so a test builds its inputs in seconds."""
    from cdcbench import fixtures

    monkeypatch.setattr(fixtures, "N_KEYS", 200)
    monkeypatch.setattr(fixtures, "BASE_EVENTS", 2_000)
    monkeypatch.setattr(fixtures, "BASE_SEGMENTS", 2)
    monkeypatch.setattr(fixtures, "TAIL_SEGMENT_EVENTS", 100)
    monkeypatch.setattr(fixtures, "NUM_BUCKETS", 8)
    return fixtures
