"""Multi-table capture (per-stream lake tables) and the for_task
lifecycle (identity derivation + in-place legacy-state migration)."""

import json
import os

import pandas as pd
import pyarrow as pa

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


def _with_db(env, db_of: dict):
    """Rewrite ``source.db`` per source table (``None`` → null db)."""

    def fix(t: pa.Table) -> pa.Table:
        src = t["source"].combine_chunks()
        db = pa.array([db_of[x] for x in src.field("table").to_pylist()],
                      pa.string())
        fields = list(src.type)
        src = pa.StructArray.from_arrays(
            [db if f.name == "db" else src.field(f.name) for f in fields],
            fields=fields,
        )
        return t.set_column(t.schema.get_field_index("source"), "source", src)

    return env.map_batches(fix, batch_format="pyarrow")


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

    def test_null_and_dotted_db_streams(self, tmp_path):
        """A null ``db`` names its stream ``.users``; a dotted ``db``
        names it ``my.db.orders``.  Each stream's lake gets exactly its
        own events."""
        env = _with_db(_mixed_env(), {"users": None, "orders": "my.db"})
        cfg = CaptureConfig(key_cols=("id",), num_buckets=4)
        results = replay_multi_table(env, str(tmp_path), cfg)
        assert {s: r.events_seen for s, r in results.items()} == {
            ".users": 3, "my.db.orders": 3}
        users = ReplayJob(cfg, str(tmp_path / ".users")).read_table()
        assert sorted(users.to_pandas()["v"]) == [10, 20, 50]
        orders = ReplayJob(cfg, str(tmp_path / "my.db.orders")).read_table()
        assert sorted(orders.to_pandas()["v"]) == [30, 40, 60]

    def test_rerun_applies_zero(self, tmp_path):
        cfg = CaptureConfig(key_cols=("id",), num_buckets=4)
        replay_multi_table(_mixed_env(), str(tmp_path), cfg)
        again = replay_multi_table(_mixed_env(), str(tmp_path), cfg)
        assert set(again) == {"db1.users", "db1.orders"}
        assert all(r.events_seen == 0 for r in again.values())
        users = ReplayJob(cfg, str(tmp_path / "db1.users")).read_table()
        assert sorted(users.to_pandas()["v"]) == [10, 20, 50]


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
