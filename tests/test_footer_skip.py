"""Restart in O(footers): a commit drops the read tasks of the WAL files
whose footers prove the ledger filter drops every data row
(``ddl_rows_from_parquet(mark=...)``), with or without a session, and a
session's shard pool starts only at the first row that needs it
(``StreamingSession.shards``).  Every case ends in the state
``oracle_apply`` gives."""

import argparse
import hashlib
import os
import types

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from plugin_debezium_ray.__main__ import cmd_lineage
from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines import streaming_apply as sa
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import (
    binlog, ddl_events_table, oracle_apply,
)
from plugin_debezium_ray.stages.apply import APPLY_COLUMNS, project_for_apply

SEED, N, K, SEGS = 11, 1600, 100, 8
KEYS = ("repo", "path")
DDL = [(0, {"action": "add_column", "name": "license", "type": "string",
            "default": "unknown"}),
       (0, {"action": "rename_column", "from": "lang", "to": "language"})]


def _events() -> pa.Table:
    return pa.concat_tables(ray.get(binlog(N, K, seed=SEED).to_arrow_refs())
                            ).sort_by([("lsn", "ascending"), ("seq", "ascending")])


def _wal(d, data: pa.Table | None = None) -> list[str]:
    """The benchmark's WAL shape: one DDL file, then ``SEGS`` segments of
    the (lsn, seq)-ordered events."""
    data = _events() if data is None else data
    os.makedirs(d)
    paths = [os.path.join(d, "seg-00000-ddl.parquet")]
    pq.write_table(ddl_events_table(DDL), paths[0])
    per = -(-data.num_rows // SEGS)
    for i in range(SEGS):
        paths.append(os.path.join(d, f"seg-{i + 1:05d}.parquet"))
        pq.write_table(data.slice(i * per, per), paths[-1])
    return paths


def _read(paths, **kw):
    return ray.data.read_parquet(paths, columns=list(APPLY_COLUMNS), **kw)


def _oracle() -> dict:
    return {k: r["content"] for k, r in oracle_apply(
        N, K, seed=SEED, include_snapshot=False).items()}


def _state(job) -> dict:
    return {(r.repo, r.path): r.content
            for r in job.read_table().to_pandas().itertuples()}


def _bucket_hashes(job) -> dict:
    return {b: hashlib.sha256(open(p, "rb").read()).hexdigest()
            for b, p in job.ckpt.bucket_paths().items()}


def _base(tmp_path, data=None) -> tuple[ReplayJob, list[str]]:
    """A lake that committed the whole WAL (v1, plain merge tasks)."""
    paths = _wal(str(tmp_path / "wal"), data)
    job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
    assert job.run(_read(paths)).version == 1
    # a ``submitted`` spy lists the units of the commits after this one
    getattr(sa._decode_unit, "units", []).clear()
    return job, paths


@pytest.fixture
def submitted(monkeypatch):
    """The input files of every unit of the decode tasks the driver
    submits, in order, as lists of file basenames: a task decodes a
    lane of units."""
    units = []
    real = sa._decode_unit

    class Spy:
        def options(self, **kw):
            opts = real.options(**kw)

            def remote(*args):
                # the lane's units follow the six fixed arguments
                units.extend([os.path.basename(f)
                              for f in task.metadata.input_files]
                             for task in args[6:])
                return opts.remote(*args)

            return types.SimpleNamespace(remote=remote)

    spy = Spy()
    spy.units = units
    monkeypatch.setattr(sa, "_decode_unit", spy)
    return units


def _restart(job, ds):
    """A fresh session's one commit of ``ds``; (result, session)."""
    with job.streaming_session(num_shards=2) as session:
        res = job.run(ds)
    assert res.metrics["streaming_apply"]
    return res, session


class TestFooterSkip:
    def test_covered_segments_are_never_read(self, tmp_path, submitted):
        """The benchmark's restart: the DDL file and segments 1-7 lie
        at or below every bucket's mark, so only segment 8's read task
        runs; the commit applies nothing and starts no shard."""
        job, paths = _base(tmp_path)
        before = _bucket_hashes(job)
        res, session = _restart(job, _read(paths))
        assert submitted == [["seg-00008.parquet"]]
        want = {"decode_tasks": 1, "files_skipped": 8,
                "rows_skipped": 2 + 7 * N // SEGS, "num_shards": 0,
                "events_seen": 0, "events_applied": 0}
        assert {k: res.metrics[k] for k in want} == want
        # the committed manifest, as ``lineage`` prints it
        lineage = cmd_lineage(argparse.Namespace(lake=job.table_dir))
        assert {k: lineage["metrics"][k] for k in want} == want
        assert session._shards is None
        assert res.version == 2 and _bucket_hashes(job) == before
        assert _state(job) == _oracle()
        assert {"language", "license"} <= set(job.read_table().schema().names)

    def test_sessionless_rerun_skips_covered_files(self, tmp_path, submitted):
        """Without a session the rerun of a covered WAL skips the same
        files: only segment 8's read task runs, nothing is applied, and
        the lake is unchanged."""
        job, paths = _base(tmp_path)
        before = _bucket_hashes(job)
        res = job.run_from_paths(paths)
        assert submitted == [["seg-00008.parquet"]]
        assert res.metrics["files_skipped"] == 8 and res.events_seen == 0
        assert "streaming_apply" not in res.metrics
        assert res.version == 2 and _bucket_hashes(job) == before
        assert _state(job) == _oracle()

    def test_ledger_missing_a_bucket_skips_nothing(self, tmp_path, submitted):
        """Without a mark for bucket 0 the ledger proves nothing about
        its rows, so every file's read task runs."""
        data = _events()
        rows = project_for_apply(KEYS, 8)(data)
        rows = rows.filter(pc.equal(rows["_bucket"], 0))
        gone = set(zip(rows["repo"].to_pylist(), rows["path"].to_pylist()))
        # every event of a key that hashes to bucket 0 leaves the WAL
        keys = zip(*(pc.struct_field(data["key"], c).to_pylist() for c in KEYS))
        data = data.filter(pa.array([k not in gone for k in keys]))
        job, paths = _base(tmp_path, data)
        assert 0 not in job.ckpt.restore()["ledger"]
        res, session = _restart(job, _read(paths))
        assert submitted == [[os.path.basename(p)] for p in paths]
        assert (res.metrics["files_skipped"], res.metrics["rows_skipped"],
                res.metrics["decode_tasks"]) == (0, 0, SEGS + 1)
        assert res.events_seen == 0 and session._shards is None
        assert _state(job) == {k: v for k, v in _oracle().items()
                               if k not in gone}

    def test_equal_lsn_with_a_later_seq_is_kept(self, tmp_path, submitted):
        """A file whose ``lsn`` max equals the smallest mark's lsn but
        whose ``seq`` max is above its seq may hold a row past that
        bucket's mark: it is read.  Its one row re-sends the event at
        the mark with the next seq, so it is applied."""
        job, paths = _base(tmp_path)
        mark = min(tuple(v) for v in job.ckpt.restore()["ledger"].values())
        data = _events()
        at = data.filter(pc.and_(pc.equal(data["lsn"], mark[0]),
                                 pc.equal(data["seq"], mark[1])))
        later = at.set_column(at.schema.get_field_index("seq"), "seq",
                              pa.array([mark[1] + 1], pa.int64()))
        extra = str(tmp_path / "wal" / "seg-00009.parquet")
        pq.write_table(later, extra)
        res, _ = _restart(job, _read([*paths, extra]))
        # segment 9's task returned its row, so the driver started the
        # pool; no unit ran twice
        assert submitted == [["seg-00008.parquet"], ["seg-00009.parquet"]]
        assert (res.metrics["files_skipped"], res.metrics["decode_tasks"],
                res.metrics["num_shards"]) == (8, 2, 2)
        assert res.events_seen == 1 and res.events_applied == 1
        assert _state(job) == _oracle()

    @pytest.mark.parametrize("form", ["no_statistics", "null_lsn"])
    def test_file_without_exact_statistics_is_kept(self, tmp_path, submitted,
                                                   form):
        """Segment 1's rows lie below every mark, but a copy written
        without statistics, or with an ``op=m`` row whose ``lsn`` is
        null, proves nothing from its footer: it is read."""
        job, paths = _base(tmp_path)
        seg1 = pq.read_table(paths[1])
        extra = str(tmp_path / "wal" / "copy.parquet")
        if form == "no_statistics":
            pq.write_table(seg1, extra, write_statistics=False)
        else:
            msg = seg1.slice(0, 1)
            msg = msg.set_column(msg.schema.get_field_index("op"), "op",
                                 pa.array(["m"]))
            msg = msg.set_column(msg.schema.get_field_index("lsn"), "lsn",
                                 pa.nulls(1, pa.int64()))
            pq.write_table(pa.concat_tables([seg1, msg]), extra)
        res, session = _restart(job, _read([*paths, extra]))
        assert submitted == [["seg-00008.parquet"], ["copy.parquet"]]
        assert res.metrics["files_skipped"] == 8
        assert res.metrics["decode_tasks"] == 2
        assert res.events_seen == 0 and session._shards is None
        assert _state(job) == _oracle()

    def test_filtered_read_is_never_skipped(self, tmp_path, submitted):
        """A row ``filter=`` read is not planned from its footers, so no
        file of it is skipped."""
        import pyarrow.dataset as pds

        job, paths = _base(tmp_path)
        res, _ = _restart(job, _read(paths, filter=pds.field("lsn") >= 0))
        assert len(submitted) == SEGS + 1
        assert (res.metrics["files_skipped"], res.metrics["decode_tasks"]) \
            == (0, SEGS + 1)
        assert res.events_seen == 0
        assert _state(job) == _oracle()


class TestLazyPool:
    def test_applied_commit_starts_no_pool(self, tmp_path, monkeypatch):
        """A session whose one commit the ledger wholly drops never
        starts a shard, and ``close()`` waits for nothing."""
        job, paths = _base(tmp_path)
        session = job.streaming_session(num_shards=2)
        try:
            res = session.apply_segment(_read(paths[-1:]))
            assert res.events_seen == 0 and res.metrics["num_shards"] == 0
            assert session._shards is None
        finally:
            waits = []
            monkeypatch.setattr(ray, "wait", lambda *a, **kw: waits.append(a))
            session.close()
            monkeypatch.undo()
        assert waits == []
        with pytest.raises(RuntimeError, match="closed"):
            session.shards

    def test_first_commit_decodes_each_unit_once(self, tmp_path, submitted):
        """A fresh lake's first commit: a window of units is split by
        shard before the pool exists, the driver starts the pool at the
        first task that kept rows, and every unit is decoded once; each
        event counts once and the lake is a sessionless commit's."""
        paths = _wal(str(tmp_path / "wal"))
        sort = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "sort"))
        want = sort.run(_read(paths))
        submitted.clear()  # the sessionless commit's own units
        job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path / "lake"))
        with job.streaming_session(num_shards=2) as session:
            assert session._window >= 2 and session._shards is None
            res = job.run(_read(paths))
        assert submitted == [[os.path.basename(p)] for p in paths]
        assert res.metrics["decode_tasks"] == SEGS + 1
        assert res.metrics["num_shards"] == 2
        assert res.events_seen == want.events_seen == N
        assert _bucket_hashes(job) == _bucket_hashes(sort)
        assert _state(job) == _oracle()
