"""``ParquetFiles``, the engine's own parquet datasource: it expands paths
as Ray's ``read_parquet`` does, still runs as a Dataset, and a
``run_from_paths`` commit planned through it writes the lake and the
counters a ``read_parquet`` commit of the same files writes."""

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob, _file_reads
from plugin_debezium_ray.sources.binlog import (
    binlog, ddl_events_table, oracle_apply, snapshot_envelopes,
)
from plugin_debezium_ray.sources.parquet_files import ParquetFiles
from plugin_debezium_ray.sources.protocol import ParquetWalSource
from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

SEED, N, K, SEGS = 13, 1600, 100, 4
DDL = [(0, {"action": "add_column", "name": "license", "type": "string",
            "default": "unknown"}),
       (0, {"action": "rename_column", "from": "lang", "to": "language"})]


def _sorted(ds) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by(
        [("lsn", "ascending"), ("seq", "ascending")])


def _inputs(root) -> tuple[list[str], str]:
    """A WAL directory (one DDL file, then ``SEGS`` event segments) and
    a snapshot file, as the benchmark lays them out."""
    wal, snap = os.path.join(root, "wal"), os.path.join(root, "snap.parquet")
    os.makedirs(wal)
    paths = [os.path.join(wal, "seg-00000-ddl.parquet")]
    pq.write_table(ddl_events_table(DDL), paths[0])
    data = _sorted(binlog(N, K, seed=SEED))
    per = -(-data.num_rows // SEGS)
    for i in range(SEGS):
        paths.append(os.path.join(wal, f"seg-{i + 1:05d}.parquet"))
        pq.write_table(data.slice(i * per, per), paths[-1])
    pq.write_table(_sorted(snapshot_envelopes(K, seed=SEED)), snap)
    return paths, snap


def _bucket_hashes(job) -> dict:
    return {b: hashlib.sha256(open(p, "rb").read()).hexdigest()
            for b, p in job.ckpt.bucket_paths().items()}


def _ray_files(paths) -> list[str]:
    """The files of Ray's ``read_parquet(paths)`` in its plan's order."""
    ds = ray.data.read_parquet(paths)
    [read] = _file_reads(ds)
    assert sorted(read.files) == sorted(ds.input_files())
    return read.files


class TestPathExpansion:
    """The file list and its order are those of Ray's ``read_parquet``."""

    @pytest.fixture
    def tree(self, tmp_path):
        t = pa.table({"a": [1, 2]})
        root = tmp_path / "tree"
        for rel in ("z.parquet", "a.parquet", "sub/m.parquet",
                    "sub/a.parquet", "b/c.parquet", "sub/_tmp/q.parquet",
                    ".hidden.parquet"):
            os.makedirs((root / rel).parent, exist_ok=True)
            pq.write_table(t, str(root / rel))
        (root / "_SUCCESS").write_text("")
        return str(root)

    def test_single_file(self, tree):
        f = os.path.join(tree, "sub", "m.parquet")
        assert ParquetFiles(f, columns=["a"]).paths == _ray_files(f) == [f]

    def test_list_keeps_its_order(self, tree):
        files = [os.path.join(tree, p)
                 for p in ("z.parquet", "b/c.parquet", "a.parquet")]
        got = ParquetFiles(files, columns=["a"]).paths
        assert got == _ray_files(files) == files

    def test_nested_directory_skips_hidden_names(self, tree):
        got = ParquetFiles(tree, columns=["a"]).paths
        assert got == _ray_files(tree)
        assert [os.path.relpath(p, tree) for p in got] == [
            "a.parquet", "b/c.parquet", "sub/a.parquet", "sub/m.parquet",
            "z.parquet"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ParquetFiles(str(tmp_path / "nowhere"), columns=["a"])


def test_wal_source_reads_as_a_dataset(tmp_path):
    """``ParquetWalSource(...).envelopes()`` is a Dataset Ray Data can
    run: its rows are the files' rows, narrowed to ``APPLY_COLUMNS``."""
    paths, _ = _inputs(str(tmp_path))
    ds = ParquetWalSource(os.path.dirname(paths[0])).envelopes()
    rows = sum(pq.read_metadata(p).num_rows for p in paths)
    assert ds.count() == rows
    assert ds.schema().names == list(APPLY_COLUMNS)
    got = ds.materialize()
    assert got.count() == rows
    assert pa.concat_tables(ray.get(got.to_arrow_refs())).column_names == list(
        APPLY_COLUMNS)


class TestPathCommitParity:
    """``run_from_paths(wal, snapshot_paths=snap)`` and ``run`` over
    ``read_parquet`` reads of the same files write byte-identical bucket
    files and the same plan counters, on a fresh lake and on a rerun the
    ledger fully covers."""

    COUNTERS = ("events_seen", "registry_rows_read", "files_skipped",
                "rows_skipped", "decode_tasks")

    @staticmethod
    def _read(paths):
        return ray.data.read_parquet(paths, columns=list(APPLY_COLUMNS))

    def _counters(self, res) -> dict:
        return {k: res.metrics[k] for k in self.COUNTERS}

    def test_fresh_lake_and_covered_rerun(self, tmp_path):
        paths, snap = _inputs(str(tmp_path / "in"))
        wal = os.path.dirname(paths[0])
        cfg = CaptureConfig(num_buckets=8)
        by_paths = ReplayJob(cfg, str(tmp_path / "paths"))
        by_reads = ReplayJob(cfg, str(tmp_path / "reads"))
        for _ in range(2):  # a fresh lake, then a rerun the ledger covers
            got = by_paths.run_from_paths(wal, snapshot_paths=snap)
            want = by_reads.run(self._read(wal), snapshot=self._read(snap))
            assert self._counters(got) == self._counters(want)
            assert got.version == want.version
            assert _bucket_hashes(by_paths) == _bucket_hashes(by_reads)
        # the rerun applies nothing and skips every file but those above
        # the smallest ledger mark
        m = got.metrics
        assert (m["events_seen"], m["registry_rows_read"]) == (0, 2)
        assert m["files_skipped"] > 0 and m["rows_skipped"] > 0
        assert m["files_skipped"] + m["decode_tasks"] == len(paths)
        want_state = {k: r["content"]
                      for k, r in oracle_apply(N, K, seed=SEED).items()}
        state = {(r.repo, r.path): r.content
                 for r in by_paths.read_table().to_pandas().itertuples()}
        assert state == want_state
