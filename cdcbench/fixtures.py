"""Seeded, cached benchmark inputs and the parity oracle.

Every input is a pure function of the seed and the sizes below:

- ``snapshot/``: the initial snapshot, one op=r row per key
  (``snapshot_envelopes``);
- ``wal/``: a DDL segment at lsn 0 (add ``license`` default "unknown",
  rename ``lang`` -> ``language``, as in the schema-evolution e2e test)
  followed by the first ``BASE_EVENTS`` events of the ``binlog`` stream;
- ``tail/``: the next events of the same stream, cut into
  ``TAIL_SEGMENT_EVENTS``-event segments (tail workload only).

Files are written with fixed names and writer options, so one seed gives
byte-identical files.  The oracle digest (key -> sha256 of ``content``,
from ``oracle_apply``) is computed once per seed and size and cached next
to the inputs; it never runs inside a timed region.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

N_KEYS = 4_000
BASE_EVENTS = 40_000
BASE_SEGMENTS = 8
TAIL_SEGMENT_EVENTS = 500
NUM_BUCKETS = 64

DDL_EVENTS = [
    (0, {"action": "add_column", "name": "license", "type": "string",
         "default": "unknown"}),
    (0, {"action": "rename_column", "from": "lang", "to": "language"}),
]
#: columns the lake must carry after the DDL segment has applied
LAKE_COLUMNS = {"repo", "path", "commit", "language", "content", "license"}

#: fixture sets kept in the cache; older ones are deleted
_KEEP_CACHED = 4


def _write(tab: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(tab, tmp, compression="snappy", row_group_size=1 << 20)
    os.replace(tmp, path)


def _fetch_sorted(ds) -> pa.Table:
    """A generated Dataset as one table in (lsn, seq) order, so the
    slicing into segments does not depend on block completion order."""
    import ray

    tab = pa.concat_tables(ray.get(ds.materialize().to_arrow_refs()))
    order = pc.sort_indices(
        tab, sort_keys=[("lsn", "ascending"), ("seq", "ascending")]
    )
    return tab.take(order)


def parquet_rows(paths: list[str]) -> int:
    """Rows in parquet files, from their footers."""
    return sum(pq.ParquetFile(p).metadata.num_rows for p in paths)


def _digest(state: dict) -> dict[str, str]:
    return {
        f"{repo}\x1f{path}": hashlib.sha256(
            row["content"].encode()
        ).hexdigest()
        for (repo, path), row in state.items()
    }


class Fixtures:
    """Paths of one seed's inputs plus their oracle digests.

    ``tail_segments`` is 0 for workloads that do not tail."""

    def __init__(self, cache_dir: str, seed: int, tail_segments: int = 0):
        self.seed = seed
        self.tail_segments = tail_segments
        self.root = os.path.join(
            cache_dir, f"s{seed}-k{N_KEYS}-e{BASE_EVENTS}"
            f"-t{tail_segments}x{TAIL_SEGMENT_EVENTS}",
        )
        self.snapshot_dir = os.path.join(self.root, "snapshot")
        self.wal_dir = os.path.join(self.root, "wal")
        self.tail_dir = os.path.join(self.root, "tail")
        self.base_lake = os.path.join(self.root, "base_lake")

    # ---------------------------------------------------------- paths

    @property
    def wal_paths(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.wal_dir, "*.parquet")))

    @property
    def snapshot_paths(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.snapshot_dir, "*.parquet")))

    @property
    def tail_paths(self) -> list[str]:
        return sorted(glob.glob(os.path.join(self.tail_dir, "*.parquet")))

    def oracle(self, tail_applied: int = 0) -> dict[str, str]:
        """Oracle digest after the base WAL plus ``tail_applied`` tail
        segments."""
        with open(self._oracle_path(tail_applied)) as f:
            return json.load(f)

    def _oracle_path(self, tail_applied: int) -> str:
        return os.path.join(self.root, f"oracle-t{tail_applied}.json")

    # ------------------------------------------------------- building

    def ensure(self, make_job=None) -> "Fixtures":
        """Generate the inputs and oracle digests unless cached; with
        ``make_job``, also commit the base lake (``ensure_base_lake``)
        while the oracle runs.  Needs a live Ray session (generation runs
        as Ray Data jobs)."""
        done = os.path.join(self.root, "DONE")
        if os.path.exists(done):
            os.utime(self.root)  # most recently used
            return self
        shutil.rmtree(self.root, ignore_errors=True)
        from plugin_debezium_ray.sources.binlog import oracle_apply

        n_events = BASE_EVENTS + self.tail_segments * TAIL_SEGMENT_EVENTS
        # the oracle is pure Python and the generation runs in Ray workers,
        # so the two overlap
        with ThreadPoolExecutor(1) as pool:
            oracle = pool.submit(oracle_apply, n_events, N_KEYS, seed=self.seed)
            self._write_inputs(n_events)
            if make_job is not None:
                self.ensure_base_lake(make_job)
            digest = _digest(oracle.result())
        with open(self._oracle_path(self.tail_segments), "w") as f:
            json.dump(digest, f)
        with open(done, "w") as f:
            f.write("ok\n")
        self._evict_old()
        return self

    def _write_inputs(self, n_events: int) -> None:
        from plugin_debezium_ray.sources.binlog import (
            binlog,
            ddl_events_table,
            snapshot_envelopes,
        )

        stream = _fetch_sorted(binlog(n_events, N_KEYS, seed=self.seed))
        _write(_fetch_sorted(snapshot_envelopes(N_KEYS, seed=self.seed)),
               os.path.join(self.snapshot_dir, "snapshot.parquet"))
        _write(ddl_events_table(DDL_EVENTS),
               os.path.join(self.wal_dir, "seg-00000-ddl.parquet"))
        per = -(-BASE_EVENTS // BASE_SEGMENTS)
        for i in range(BASE_SEGMENTS):
            _write(stream.slice(i * per, min(per, BASE_EVENTS - i * per)),
                   os.path.join(self.wal_dir, f"seg-{i + 1:05d}.parquet"))
        for i in range(self.tail_segments):
            _write(
                stream.slice(BASE_EVENTS + i * TAIL_SEGMENT_EVENTS,
                             TAIL_SEGMENT_EVENTS),
                os.path.join(self.tail_dir, f"tail-{i:05d}.parquet"),
            )

    def ensure_base_lake(self, make_job) -> str:
        """The committed base lake (snapshot + base WAL through the
        default ``run_from_paths``), built once per fixture set."""
        done = os.path.join(self.root, "BASE_DONE")
        if not os.path.exists(done):
            shutil.rmtree(self.base_lake, ignore_errors=True)
            make_job(self.base_lake).run_from_paths(
                self.wal_paths, snapshot_paths=self.snapshot_paths
            )
            with open(done, "w") as f:
                f.write("ok\n")
        return self.base_lake

    def _evict_old(self) -> None:
        parent = os.path.dirname(self.root)
        sets = sorted(
            (d for d in glob.glob(os.path.join(parent, "s*")) if d != self.root),
            key=os.path.getmtime,
        )
        for d in sets[: max(0, len(sets) - (_KEEP_CACHED - 1))]:
            shutil.rmtree(d, ignore_errors=True)


# ------------------------------------------------------------- lake side


def lake_digest(table_dir: str) -> tuple[dict[str, str], list[str]]:
    """Read the committed lake back with pyarrow: key -> sha256(content),
    plus its column names."""
    from plugin_debezium_ray.state.checkpoint import CheckpointManager

    manifest = CheckpointManager(table_dir).restore() or {}
    out: dict[str, str] = {}
    cols: set[str] = set()
    for info in manifest.get("buckets", {}).values():
        t = pq.read_table(info["path"])
        cols.update(t.column_names)
        for repo, path, content in zip(
            t["repo"].to_pylist(), t["path"].to_pylist(),
            t["content"].to_pylist(),
        ):
            out[f"{repo}\x1f{path}"] = hashlib.sha256(content.encode()).hexdigest()
    return out, sorted(cols)


def parity_ok(table_dir: str, oracle: dict[str, str]) -> bool:
    """The lake equals the oracle: same key set, same content per key,
    and the evolved schema (``language`` and ``license``, no ``lang``)."""
    digest, cols = lake_digest(table_dir)
    return digest == oracle and LAKE_COLUMNS <= set(cols) and "lang" not in cols


def lake_fingerprint(table_dir: str) -> str:
    """One hash of a lake's committed state, independent of commit
    numbering: per bucket its row count, content fingerprint and the
    sha256 of the file bytes."""
    from plugin_debezium_ray.state.checkpoint import CheckpointManager

    manifest = CheckpointManager(table_dir).restore() or {}
    h = hashlib.sha256()
    for b, info in sorted(manifest.get("buckets", {}).items(),
                          key=lambda kv: int(kv[0])):
        with open(info["path"], "rb") as f:
            body = hashlib.sha256(f.read()).hexdigest()
        h.update(f"{b}:{info['rows']}:{info['fingerprint']}:{body}\n".encode())
    return h.hexdigest()
