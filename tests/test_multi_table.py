"""Multi-table capture (per-stream lake tables) and the for_task
lifecycle (identity derivation + in-place legacy-state migration)."""

import json
import os

import pandas as pd

import ray.data

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.multi_table import (
    discover_streams,
    replay_multi_table,
)
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.from_table import envelopes_from_table
from plugin_debezium_ray.state.identity import connector_id


def _mixed_env():
    """Two logical tables in one stream: route by the `tbl` column."""
    df = pd.DataFrame(
        {
            "id": [1, 2, 3, 4, 5, 6],
            "tbl": ["users", "users", "orders", "orders", "users", "orders"],
            "v": [10, 20, 30, 40, 50, 60],
        }
    )
    return envelopes_from_table(
        ray.data.from_pandas(df),
        key_cols=("id",),
        lsn_col="id",
        payload_cols=["id", "v"],
        db="db1",
        table_col="tbl",
    )


class TestMultiTable:
    def test_discover_streams(self):
        assert discover_streams(_mixed_env()) == ["db1.orders", "db1.users"]
        assert discover_streams(_mixed_env(), included=["users"]) == ["db1.users"]
        assert discover_streams(_mixed_env(), excluded=["users"]) == ["db1.orders"]

    def test_per_table_lakes(self, tmp_path):
        cfg = CaptureConfig(key_cols=("id",), num_buckets=4)
        results = replay_multi_table(
            _mixed_env(), str(tmp_path), cfg, connector_id="kestra_00000001"
        )
        assert set(results) == {"db1.users", "db1.orders"}
        assert results["db1.users"].events_seen == 3
        users = ReplayJob(cfg, str(tmp_path / "db1.users")).read_table().to_pandas()
        assert sorted(users["v"]) == [10, 20, 50]
        orders = ReplayJob(cfg, str(tmp_path / "db1.orders")).read_table().to_pandas()
        assert sorted(orders["v"]) == [30, 40, 60]
        # independent manifests with the shared connector identity
        m = json.load(open(os.path.join(
            str(tmp_path / "db1.users"), "_meta", "manifest-v000001.json")))
        assert m["connector_id"] == "kestra_00000001"


class TestStreamingMultiTable:
    def test_streaming_equals_per_stream(self, tmp_path):
        from plugin_debezium_ray.pipelines.multi_table import (
            replay_multi_table_streaming,
        )

        cfg = CaptureConfig(key_cols=("id",), num_buckets=4)
        ra = replay_multi_table(_mixed_env(), str(tmp_path / "a"), cfg)
        rb = replay_multi_table_streaming(
            _mixed_env(), str(tmp_path / "b"), cfg, fingerprint_col="v"
        )
        assert {k: v.events_seen for k, v in ra.items()} == {
            k: v.events_seen for k, v in rb.items()
        }
        for s in ra:
            ta = (ReplayJob(cfg, str(tmp_path / "a" / s)).read_table()
                  .to_pandas().sort_values("id").reset_index(drop=True))
            tb = (ReplayJob(cfg, str(tmp_path / "b" / s)).read_table()
                  .to_pandas().sort_values("id").reset_index(drop=True))
            assert ta.equals(tb)

    def test_streaming_rerun_zero(self, tmp_path):
        from plugin_debezium_ray.pipelines.multi_table import (
            replay_multi_table_streaming,
        )

        cfg = CaptureConfig(key_cols=("id",), num_buckets=4)
        replay_multi_table_streaming(
            _mixed_env(), str(tmp_path), cfg, fingerprint_col="v"
        )
        again = replay_multi_table_streaming(
            _mixed_env(), str(tmp_path), cfg, fingerprint_col="v"
        )
        assert all(r.events_seen == 0 for r in again.values())


class TestForTask:
    def test_identity_derivation_and_migration(self, tmp_path):
        # seed a legacy checkpoint ("engine" identity, v1 offsets layout)
        meta = tmp_path / "_meta"
        meta.mkdir()
        (meta / "CURRENT").write_text("1")
        (meta / "manifest-v000001.json").write_text(
            json.dumps({
                "version": 1, "connector_id": "engine",
                "offsets": {"2@old": [9, 1]},
                "buckets": {}, "schema": {"fields": [], "log": [],
                                          "defaults": {}},
            })
        )
        job = ReplayJob.for_task(
            CaptureConfig(key_cols=("id",), num_buckets=4),
            str(tmp_path),
            namespace="ns", flow="f", task="t",
        )
        expected = connector_id("ns", "f", "t")
        assert job.connector_id == expected
        m = job.ckpt.restore()
        assert m["connector_id"] == expected  # migrated in place
        assert m["ledger"] == {"2": [9, 1]} and "offsets" not in m

    def test_iterations_get_distinct_identities(self, tmp_path):
        cfg = CaptureConfig(key_cols=("id",))
        a = ReplayJob.for_task(cfg, str(tmp_path / "a"),
                               namespace="n", flow="f", task="t", iteration=1)
        b = ReplayJob.for_task(cfg, str(tmp_path / "b"),
                               namespace="n", flow="f", task="t", iteration=2)
        assert a.connector_id != b.connector_id
