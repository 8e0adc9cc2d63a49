"""State-layer contracts: atomic checkpoint save/restore, legacy fallback,
refuse-incomplete-save, migration idempotence, connector identity.
Ports the semantics of AtomicStateTest.java:71-256,
OffsetMigrationTest.java:30-403 and ConnectorIdTest.java:8-79."""

import argparse
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from plugin_debezium_ray.__main__ import cmd_lineage
from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob, _file_reads
from plugin_debezium_ray.sources.binlog import binlog, ddl_events_table
from plugin_debezium_ray.state.checkpoint import (
    CheckpointManager,
    CommitConflict,
    build_manifest,
)
from plugin_debezium_ray.state.identity import connector_id, is_current_format
from plugin_debezium_ray.state.migration import migrate_manifest, migrate_table_dir
from plugin_debezium_ray.state.schema_registry import (
    SchemaRegistry,
    ddl_rows_from_parquet,
    registry_from_envelopes,
)


def _manifest(version=1, schema={"fields": []}):
    return {
        "version": version,
        "connector_id": "kestra_deadbeef",
        "ledger": {"0": [5, 2]},
        "buckets": {"0": {"path": "/x/b0.parquet", "rows": 3, "fingerprint": "ff"}},
        "schema": schema,
    }


class TestCheckpoint:
    def test_save_restore_roundtrip(self, tmp_path):
        ck = CheckpointManager(str(tmp_path))
        p = ck.save(_manifest())
        assert p and os.path.exists(p)
        m = ck.restore()
        assert m["ledger"] == {"0": [5, 2]}
        assert ck.current_version() == 1
        assert ck.ledger() == {0: (5, 2)}
        assert ck.bucket_paths() == {0: "/x/b0.parquet"}

    def test_refuse_incomplete_save(self, tmp_path):
        """Offsets without schema history → refuse, write NOTHING
        (AtomicStateTest 'refuse-incomplete-save')."""
        ck = CheckpointManager(str(tmp_path), needs_schema_history=True)
        assert ck.save(_manifest(schema=None)) is None
        assert ck.restore() is None
        assert not os.path.exists(os.path.join(str(tmp_path), "_meta", "CURRENT"))
        # without the history requirement the same save succeeds
        ck2 = CheckpointManager(str(tmp_path), needs_schema_history=False)
        assert ck2.save(_manifest(schema=None)) is not None

    def test_temp_manifest_before_link_is_not_a_commit(self, tmp_path):
        """A crash after the manifest temp file is written but before its
        link leaves ``manifest-v000002.json.XXXX`` → v1 still visible, and
        the next save of v2 succeeds (the link is the commit)."""
        ck = CheckpointManager(str(tmp_path))
        ck.save(_manifest(1))
        tmp = os.path.join(str(tmp_path), "_meta", "manifest-v000002.json.k3j2l1x_")
        with open(tmp, "w") as f:
            json.dump(_manifest(2), f)
        assert ck.restore()["version"] == 1
        assert ck.save(_manifest(2)) and ck.restore()["version"] == 2

    def test_second_save_of_a_version_conflicts(self, tmp_path):
        """Manifests are created put-if-absent: a second writer of v1
        raises and leaves the committed manifest and no temp file."""
        ck = CheckpointManager(str(tmp_path))
        p = ck.save(_manifest(1))
        before = open(p).read()
        other = {**_manifest(1), "ledger": {"0": [9, 9]}}
        with pytest.raises(CommitConflict):
            CheckpointManager(str(tmp_path)).save(other)
        assert open(p).read() == before
        assert sorted(os.listdir(os.path.dirname(p))) == ["manifest-v000001.json"]

    def test_unreadable_manifest_raises(self, tmp_path):
        """A manifest that does not parse is an error, never a silent
        restart from an empty lake."""
        ck = CheckpointManager(str(tmp_path))
        ck.save(_manifest(1))
        with open(os.path.join(str(tmp_path), "_meta", "manifest-v000002.json"), "w") as f:
            f.write("{torn")
        with pytest.raises(ValueError, match="manifest-v000002"):
            ck.restore()

    def test_corrupt_current_falls_back_legacy_then_none(self, tmp_path):
        ck = CheckpointManager(str(tmp_path))
        meta = os.path.join(str(tmp_path), "_meta")
        os.makedirs(meta)
        with open(os.path.join(meta, "CURRENT"), "w") as f:
            f.write("not-a-number")
        assert ck.restore() is None  # corrupt → non-fatal None

    def test_legacy_two_file_fallback_and_precedence(self, tmp_path):
        ck = CheckpointManager(str(tmp_path))
        meta = os.path.join(str(tmp_path), "_meta")
        os.makedirs(meta)
        with open(os.path.join(meta, "offsets.json"), "w") as f:
            json.dump({"version": 3, "ledger": {"1": [9, 9]}}, f)
        with open(os.path.join(meta, "history.json"), "w") as f:
            json.dump({"fields": [["repo", "string"]]}, f)
        m = ck.restore()
        assert m["legacy"] and m["version"] == 3 and m["ledger"] == {"1": [9, 9]}
        # combined state takes precedence once present
        ck.save(_manifest(5))
        assert ck.restore()["version"] == 5 and "legacy" not in ck.restore()

    def test_legacy_offsets_without_required_history(self, tmp_path):
        ck = CheckpointManager(str(tmp_path), needs_schema_history=True)
        meta = os.path.join(str(tmp_path), "_meta")
        os.makedirs(meta)
        with open(os.path.join(meta, "offsets.json"), "w") as f:
            json.dump({"version": 1, "ledger": {}}, f)
        assert ck.restore() is None  # unusable → re-snapshot
        ck2 = CheckpointManager(str(tmp_path), needs_schema_history=False)
        assert ck2.restore()["version"] == 1

    def test_build_manifest_carries_forward(self):
        parent = _manifest(1)
        stats = [
            {
                "bucket": 1,
                "rows": 10,
                "events_seen": 7,
                "events_applied": 5,
                "last_lsn": 8,
                "last_seq": 0,
                "fingerprint": "ab",
                "path": "/x/b1.parquet",
                "apply_seconds": 0.1,
            }
        ]
        m = build_manifest(
            version=2,
            connector_id="kestra_deadbeef",
            stats_rows=stats,
            parent=parent,
            schema_snapshot={"fields": []},
        )
        assert m["buckets"]["0"]["path"] == "/x/b0.parquet"  # untouched bucket kept
        assert m["buckets"]["1"]["rows"] == 10
        assert m["ledger"] == {"0": [5, 2], "1": [8, 0]}
        assert m["metrics"]["events_applied"] == 5
        assert m["metrics"]["events_seen"] == 7
        assert m["parent"] == 1

    def test_fingerprint_scheme_gates_incremental_xor(self, tmp_path):
        # A manifest committed under a different (or pre-versioned)
        # fingerprint scheme must NOT feed the incremental XOR update —
        # bucket_fingerprints() returns {} so touched buckets recompute
        # their digest in full; paths/ledger are still usable.
        from plugin_debezium_ray.stages.apply import FINGERPRINT_SCHEME

        ck = CheckpointManager(str(tmp_path), needs_schema_history=False)
        m = build_manifest(
            version=1, connector_id=None,
            stats_rows=[{"bucket": 0, "rows": 1, "events_seen": 1,
                         "events_applied": 1, "last_lsn": 5, "last_seq": 2,
                         "fingerprint": "ab", "path": "/x/b0.parquet",
                         "apply_seconds": 0.0}],
            parent=None, schema_snapshot={},
        )
        assert m["fingerprint_scheme"] == FINGERPRINT_SCHEME
        ck.save(m)
        assert ck.bucket_fingerprints() == {0: "ab"}
        assert ck.bucket_paths() == {0: "/x/b0.parquet"}

        # same manifest stamped by an older code version
        m_old = dict(m, version=2, fingerprint_scheme="sha256-rowloop-v1")
        ck.save(m_old)
        assert ck.bucket_fingerprints() == {}
        assert ck.bucket_paths() == {0: "/x/b0.parquet"}

        # pre-versioning manifest: no scheme key at all
        m_pre = {k: v for k, v in m.items() if k != "fingerprint_scheme"}
        m_pre["version"] = 3
        ck.save(m_pre)
        assert ck.bucket_fingerprints() == {}

        # carry-forward laundering guard: a child built over an
        # old-scheme parent must NOT re-stamp the parent's untouched
        # fingerprints under the new scheme (they'd feed the incremental
        # XOR one commit later)
        child = build_manifest(
            version=4, connector_id=None,
            stats_rows=[{"bucket": 1, "rows": 2, "events_seen": 2,
                         "events_applied": 2, "last_lsn": 9, "last_seq": 0,
                         "fingerprint": "cd", "path": "/x/b1.parquet",
                         "apply_seconds": 0.0}],
            parent=m_old, schema_snapshot={},
        )
        assert child["fingerprint_scheme"] == FINGERPRINT_SCHEME
        assert child["buckets"]["0"]["fingerprint"] is None  # inherited, wiped
        assert child["buckets"]["0"]["path"] == "/x/b0.parquet"  # still usable
        assert child["buckets"]["1"]["fingerprint"] == "cd"  # fresh, kept
        ck.save(child)
        assert ck.bucket_fingerprints() == {1: "cd"}

    def test_ledger_never_regresses(self):
        parent = _manifest(1)  # bucket 0 at (5, 2)
        stats = [
            {"bucket": 0, "rows": 1, "events_seen": 1, "events_applied": 1,
             "last_lsn": 4, "last_seq": 9, "fingerprint": "x", "path": "/p",
             "apply_seconds": 0.0}
        ]
        m = build_manifest(version=2, connector_id=None, stats_rows=stats,
                           parent=parent, schema_snapshot={})
        assert m["ledger"]["0"] == [5, 2]


class TestIdentity:
    def test_format_and_determinism(self):
        a = connector_id("ns", "flow", "task")
        assert is_current_format(a)
        assert a == connector_id("ns", "flow", "task")

    def test_distinctness(self):
        ids = {
            connector_id("ns", "flow", "task"),
            connector_id("ns", "flow", "task2"),
            connector_id("ns2", "flow", "task"),
            connector_id("ns", "flow", "task", 1),
            connector_id("ns", "flow", "task", 2),
        }
        assert len(ids) == 5


class TestMigration:
    def _legacy(self, tmp_path, body):
        p = str(tmp_path / "manifest-v000001.json")
        with open(p, "w") as f:
            f.write(body if isinstance(body, str) else json.dumps(body))
        return p

    def test_happy_path_and_idempotence(self, tmp_path):
        p = self._legacy(
            tmp_path,
            {"connector_id": "engine", "offsets": {"3@old": [7, 1]},
             "schema": {"server": "engine", "fields": []}},
        )
        new_id = connector_id("ns", "f", "t")
        assert migrate_manifest(p, new_id) is True
        m = json.load(open(p))
        assert m["connector_id"] == new_id
        assert m["ledger"] == {"3": [7, 1]} and "offsets" not in m
        assert m["schema"]["server"] == new_id
        # second run: no-op (OffsetMigrationTest idempotent twice-run)
        assert migrate_manifest(p, new_id) is False
        assert json.load(open(p)) == m

    def test_absent_empty_corrupt_no_throw(self, tmp_path):
        assert migrate_manifest(str(tmp_path / "nope.json"), "kestra_00000000") is False
        p = self._legacy(tmp_path, "")
        assert migrate_manifest(p, "kestra_00000000") is False
        p2 = self._legacy(tmp_path, "{not json")
        assert migrate_manifest(p2, "kestra_00000000") is False
        assert open(p2).read() == "{not json"  # untouched

    def test_no_legacy_key_no_op(self, tmp_path):
        cid = connector_id("a", "b", "c")
        p = self._legacy(tmp_path, {"connector_id": cid, "ledger": {}})
        assert migrate_manifest(p, cid) is False

    def test_user_override_wins(self, tmp_path):
        p = self._legacy(tmp_path, {"connector_id": "engine", "ledger": {}})
        migrate_manifest(p, "kestra_11111111", override_id="kestra_22222222")
        assert json.load(open(p))["connector_id"] == "kestra_22222222"

    def test_migrate_table_dir(self, tmp_path):
        meta = tmp_path / "_meta"
        meta.mkdir()
        (meta / "CURRENT").write_text("1")
        (meta / "manifest-v000001.json").write_text(
            json.dumps({"connector_id": "engine", "ledger": {}})
        )
        assert migrate_table_dir(str(tmp_path), "kestra_33333333") is True
        assert migrate_table_dir(str(tmp_path), "kestra_33333333") is False


class TestSchemaRegistry:
    def test_add_rename_and_views(self):
        reg = SchemaRegistry([("repo", "string"), ("lang", "string")])
        reg.apply_ddl({"action": "add_column", "name": "license",
                       "type": "string", "default": "mit"})
        reg.apply_ddl({"action": "rename_column", "from": "lang", "to": "language"})
        assert [n for n, _ in reg.fields] == ["repo", "language", "license"]
        assert reg.rename_map() == {"lang": "language"}
        assert reg.added_columns() == [("license", "string", "mit")]

    def test_rename_chain(self):
        reg = SchemaRegistry([("a", "string")])
        reg.apply_ddl({"action": "rename_column", "from": "a", "to": "b"})
        reg.apply_ddl({"action": "rename_column", "from": "b", "to": "c"})
        assert reg.rename_map() == {"a": "c", "b": "c"}

    def test_add_is_idempotent(self):
        reg = SchemaRegistry([])
        ddl = {"action": "add_column", "name": "x", "type": "int64"}
        reg.apply_ddl(ddl)
        reg.apply_ddl(ddl)
        assert len(reg.log) == 1

    def test_snapshot_roundtrip(self):
        reg = SchemaRegistry([("repo", "string")])
        reg.apply_ddl({"action": "add_column", "name": "x", "type": "int64"})
        reg2 = SchemaRegistry.from_snapshot(reg.snapshot())
        assert reg2.fields == reg.fields and reg2.log == reg.log
        assert str(reg2.current_schema().field("x").type) == "int64"


ADD = {"action": "add_column", "name": "license", "type": "string",
       "default": "unknown"}
REN = {"action": "rename_column", "from": "lang", "to": "language"}
BASE = [("repo", "string"), ("path", "string"), ("lang", "string")]


def _ddl(lsn, *events) -> pa.Table:
    """Envelope rows carrying DDL ``events``, all at ``lsn``."""
    return ddl_events_table([(lsn, e) for e in events])


def _data(lsns) -> pa.Table:
    """Envelope data rows (op=c, no DDL) at ``lsns``."""
    t = ddl_events_table([(l, ADD) for l in lsns])
    n = len(t)
    for name, col in (("seq", pa.array(range(n), pa.int64())),
                      ("op", pa.array(["c"] * n)),
                      ("ddl", pa.nulls(n, pa.string()))):
        t = t.set_column(t.schema.get_field_index(name), name, col)
    return t


def _write(t, path, **kw) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path, **kw)
    return path


class TestDdlPlanner:
    """``ddl_rows_from_parquet`` plans the schema-history replay of a
    ``read_parquet`` input from the footers of the files Ray Data
    resolved for it; every case gives the registry the Dataset scan
    gives."""

    @staticmethod
    def _plan(paths, max_lsn=None) -> pa.Table:
        """The DDL rows a commit of ``read_parquet(paths)`` plans."""
        [read] = _file_reads(ray.data.read_parquet(paths))
        return ddl_rows_from_parquet(*read.parquet, max_lsn=max_lsn).ddl

    def _registry(self, paths, scan_paths=None, max_lsn=None):
        """(registry snapshot, planned table); asserts the footer-planned
        registry equals the Dataset scan's over ``scan_paths``."""
        planned = self._plan(paths, max_lsn=max_lsn)
        got = registry_from_envelopes(planned, BASE, max_lsn=max_lsn)
        want = registry_from_envelopes(
            ray.data.read_parquet(scan_paths or paths), BASE, max_lsn=max_lsn
        )
        assert got.snapshot() == want.snapshot()
        return got.snapshot(), planned

    def _two_files(self, d):
        a = _write(_data(range(1, 51)), str(d / "a.parquet"))
        b = _write(pa.concat_tables([_ddl(60, ADD, REN),
                                     _data(range(61, 100))]),
                   str(d / "b.parquet"))
        return a, b

    def test_file_list(self, tmp_path):
        snap, planned = self._registry(list(self._two_files(tmp_path)))
        assert [e["action"] for e in snap["log"]] == ["add_column",
                                                      "rename_column"]
        assert planned.num_rows == 41  # b's one row group; a is all null

    def test_directory(self, tmp_path):
        self._two_files(tmp_path / "wal")
        _write(_ddl(70, {**ADD, "name": "hidden"}),
               str(tmp_path / "wal" / ".tmp.parquet"))  # skipped, as Ray does
        snap, _ = self._registry(str(tmp_path / "wal"))
        assert [n for n, _ in snap["fields"]] == [
            "repo", "path", "language", "license"]

    def test_ddl_in_a_middle_row_group(self, tmp_path):
        t = pa.concat_tables([_data(range(1, 101)),
                              _ddl(150, ADD, REN),
                              _data(range(151, 249)),
                              _data(range(300, 400))])
        p = _write(t, str(tmp_path / "w.parquet"), row_group_size=100)
        snap, planned = self._registry(p)
        assert len(snap["log"]) == 2
        assert planned.num_rows == 100  # row group 1 of 3

    def test_row_group_without_statistics_is_read(self, tmp_path):
        t = pa.concat_tables([_data(range(1, 20)),
                              _ddl(30, ADD)])
        p = _write(t, str(tmp_path / "w.parquet"), write_statistics=False)
        snap, planned = self._registry(p)
        assert len(snap["log"]) == 1 and planned.num_rows == 20

    def test_file_without_ddl_column_contributes_nothing(self, tmp_path):
        plain = _write(_data(range(1, 10)).drop_columns(["ddl"]),
                       str(tmp_path / "plain.parquet"))
        assert self._plan(plain).num_rows == 0
        _, b = self._two_files(tmp_path)
        snap, planned = self._registry([plain, b], scan_paths=[b])
        assert len(snap["log"]) == 2 and planned.num_rows == 41

    def test_ddl_across_files_out_of_order(self, tmp_path):
        """The later rename sits in the file that sorts first: replay
        must follow (lsn, seq), not file order."""
        later = {"action": "rename_column", "from": "language", "to": "lingua"}
        a = _write(_ddl(20, later), str(tmp_path / "a.parquet"))
        b = _write(_ddl(10, REN), str(tmp_path / "b.parquet"))
        snap, _ = self._registry([a, b])
        assert [n for n, _ in snap["fields"]] == ["repo", "path", "lingua"]

    def test_max_lsn_below_the_ddl(self, tmp_path):
        a, b = self._two_files(tmp_path)
        snap, planned = self._registry([a, b], max_lsn=55)
        assert snap["log"] == [] and planned.num_rows == 0

    def test_untouched_row_groups_never_read(self, tmp_path, monkeypatch):
        """The bootstrap WAL's shape — one 2-row DDL segment and eight
        data segments: the commit reads 1 row group of 9 for its schema
        history, and its manifest says so."""
        wal = tmp_path / "wal"
        _write(_ddl(0, ADD, REN), str(wal / "seg-00000-ddl.parquet"))
        data = pa.concat_tables(
            ray.get(binlog(1600, 100, seed=3).to_arrow_refs())
        ).sort_by([("lsn", "ascending"), ("seq", "ascending")])
        for i in range(8):
            _write(data.slice(200 * i, 200),
                   str(wal / f"seg-{i + 1:05d}.parquet"))

        reads = []
        real = pq.ParquetFile.read_row_groups

        def spy(self, row_groups, *a, **kw):
            reads.append(len(row_groups))
            return real(self, row_groups, *a, **kw)

        monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        res = job.run_from_paths(str(wal))
        assert reads == [1]  # 1 row group of 9
        assert res.metrics["registry_rows_read"] == 2
        assert {"language", "license"} <= set(job.read_table().schema().names)
        lineage = cmd_lineage(argparse.Namespace(lake=str(tmp_path / "lake")))
        assert lineage["metrics"]["registry_rows_read"] == 2

