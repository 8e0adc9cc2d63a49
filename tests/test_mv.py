"""Incremental materialized aggregates (pipelines/mv.py): correctness
vs a direct aggregate of the lake, and the incrementality property —
a refresh after a commit re-reads ONLY the buckets that commit touched.
"""

import os

import pandas as pd

from conftest import pushed, wal_read
from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.mv import MaterializedAggregate
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.binlog import binlog


def _direct(job) -> dict:
    df = job.read_table().to_pandas()
    g = df.groupby("lang", dropna=False)["lsn"].agg(["count", "sum"])
    return {
        (k if isinstance(k, str) else None): (int(c), int(s))
        for k, (c, s) in g.iterrows()
    }


def _as_map(rows) -> dict:
    return {r["lang"]: (r["n_rows"], r["total"]) for r in rows}


def test_mv_matches_direct_and_is_incremental(tmp_path):
    job = ReplayJob(CaptureConfig(num_buckets=8), str(tmp_path))
    mv = MaterializedAggregate(str(tmp_path), group_col="lang",
                               sum_col="lsn")

    job.run(binlog(2000, 300, seed=4))
    rows1 = mv.refresh()
    first_recomputed = mv.last_recomputed
    assert first_recomputed > 0  # cold cache: everything computed
    assert _as_map(rows1) == _direct(job)

    # a SMALL second commit (few keys → few touched buckets)
    before = job.ckpt.bucket_paths()
    job.run(binlog(40, 5, seed=9, base_lsn=1_000_000))
    touched = sum(1 for b, p in job.ckpt.bucket_paths().items()
                  if before.get(b) != p)
    rows2 = mv.refresh()
    assert _as_map(rows2) == _direct(job)
    # incrementality: only the rewritten buckets were re-read
    assert mv.last_recomputed == touched
    assert mv.last_recomputed < first_recomputed

    # a refresh with NO new commit reads nothing at all
    rows3 = mv.refresh()
    assert mv.last_recomputed == 0
    assert _as_map(rows3) == _as_map(rows2)


def test_mv_cache_loss_degrades_to_full_recompute(tmp_path):
    job = ReplayJob(CaptureConfig(num_buckets=4), str(tmp_path))
    job.run(binlog(500, 80, seed=7))
    mv = MaterializedAggregate(str(tmp_path), group_col="lang")
    rows = mv.refresh()
    os.unlink(mv.cache_path)  # torn/lost cache is advisory, not state
    mv2 = MaterializedAggregate(str(tmp_path), group_col="lang")
    assert _as_map2(mv2.refresh()) == _as_map2(rows)
    assert mv2.last_recomputed > 0


def _as_map2(rows) -> dict:
    return {r["lang"]: r["n_rows"] for r in rows}


def test_mv_empty_lake(tmp_path):
    mv = MaterializedAggregate(str(tmp_path), group_col="lang")
    assert mv.refresh() == []
    assert mv.last_recomputed == 0


def test_mv_streaming_engine(tmp_path):
    """The actor-pool (streaming) apply writes the same manifest
    contract, so the MV maintains over it identically."""
    lake = str(tmp_path / "lake")
    job = ReplayJob(CaptureConfig(num_buckets=8), lake)
    pushed(job, job.run, wal_read(tmp_path, binlog(3000, 300, seed=13)))
    mv = MaterializedAggregate(lake, group_col="lang", sum_col="lsn")
    assert _as_map(mv.refresh()) == _direct(job)


def test_mv_typed_int_groups_null_sums_and_decimal_guard(tmp_path):
    """Round-4 review pins: int group keys stay ints through the JSON
    cache; an all-null sum group reports total=None (SQL SUM semantics,
    not 0); decimal sum columns are rejected loudly."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray

    from plugin_debezium_ray.pipelines.mv import _bucket_partial

    t = pa.table({
        "g": pa.array([1, 1, 2, 10], pa.int64()),
        "x": pa.array([5, None, None, 7], pa.int64()),
    })
    pq_path = str(tmp_path / "b.parquet")
    import pyarrow.parquet as pq
    pq.write_table(t, pq_path)
    part = ray.get(_bucket_partial.remote(pq_path, "g", "x"))
    got = {e[0]: tuple(e[1:]) for e in part}
    assert got == {1: (2, 5, 1), 2: (1, 0, 0), 10: (1, 7, 1)}
    assert all(isinstance(e[0], int) for e in part)  # typed, not '10'

    # fold through the class: group 2's total must be None, not 0
    from plugin_debezium_ray.pipelines.mv import MaterializedAggregate
    job = ReplayJob(CaptureConfig(num_buckets=2), str(tmp_path / "lake"))
    job.run(binlog(100, 20, seed=3))
    mv = MaterializedAggregate(str(tmp_path / "lake"), group_col="lang",
                               sum_col="lsn")
    assert mv.refresh()  # smoke: normal path still folds

    dec = pa.table({
        "g": pa.array(["a"]),
        "x": pa.array([__import__("decimal").Decimal("1.5")],
                      pa.decimal128(10, 2)),
    })
    pq.write_table(dec, str(tmp_path / "d.parquet"))
    with pytest.raises(TypeError, match="integer or float"):
        ray.get(_bucket_partial.remote(str(tmp_path / "d.parquet"),
                                       "g", "x"))


def test_mv_minmax_exact_under_deletes(tmp_path):
    """min/max partials stay EXACT under deletes: a commit rewrites the
    touched bucket whole, so the recomputed partial reflects the
    post-delete contents — deleting a group's current max must LOWER
    vmax on the next refresh (no retraction logic, no staleness)."""
    import pyarrow as pa
    import ray.data

    from plugin_debezium_ray.sources.from_table import envelopes_from_table

    def env(table, lsns):
        t = table.append_column("lsn", pa.array(lsns, pa.int64()))
        return envelopes_from_table(
            ray.data.from_arrow(t), key_cols=("k",), lsn_col="lsn",
            payload_cols=["k", "lang", "val"], op_col="op",
            op_map={"c": "c", "d": "d"}, table="t",
        )

    job = ReplayJob(CaptureConfig(key_cols=("k",), num_buckets=4),
                    str(tmp_path))
    n = 40
    t1 = pa.table({
        "k": pa.array(range(n), pa.int64()),
        "lang": pa.array(["a" if i % 2 == 0 else "b" for i in range(n)]),
        "val": pa.array(range(n), pa.int64()),
        "op": pa.array(["c"] * n),
    })
    job.run(env(t1, range(1, n + 1)))
    mv = MaterializedAggregate(str(tmp_path), group_col="lang",
                               sum_col="val", minmax_col="val")
    r1 = {r["lang"]: r for r in mv.refresh()}
    assert (r1["a"]["vmin"], r1["a"]["vmax"]) == (0, 38)
    assert (r1["b"]["vmin"], r1["b"]["vmax"]) == (1, 39)

    # delete a's max (k=38), b's max (k=39), and a's min (k=0)
    t2 = pa.table({
        "k": pa.array([38, 39, 0], pa.int64()),
        "lang": pa.array(["a", "b", "a"]),
        "val": pa.array([38, 39, 0], pa.int64()),
        "op": pa.array(["d"] * 3),
    })
    job.run(env(t2, [n + 1, n + 2, n + 3]))
    r2 = {r["lang"]: r for r in mv.refresh()}
    assert mv.last_recomputed <= 4  # only touched buckets re-read
    assert (r2["a"]["vmin"], r2["a"]["vmax"]) == (2, 36)
    assert (r2["b"]["vmin"], r2["b"]["vmax"]) == (1, 37)
    # full parity with a direct aggregate of the current lake
    df = job.read_table().to_pandas()
    g = df.groupby("lang")["val"].agg(["count", "sum", "min", "max"])
    for lang, row in g.iterrows():
        assert r2[lang]["n_rows"] == int(row["count"])
        assert r2[lang]["total"] == int(row["sum"])
        assert r2[lang]["vmin"] == int(row["min"])
        assert r2[lang]["vmax"] == int(row["max"])


def test_mv_minmax_string_and_null_groups(tmp_path):
    """min/max over strings (JSON-native) and an all-null value group."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from plugin_debezium_ray.pipelines.mv import _bucket_partial

    t = pa.table({
        "g": pa.array([1, 1, 2], pa.int64()),
        "s": pa.array(["beta", "alpha", None]),
    })
    p = str(tmp_path / "b.parquet")
    pq.write_table(t, p)
    part = ray.get(_bucket_partial.remote(p, "g", None, "s"))
    got = {e[0]: tuple(e[1:]) for e in part}
    assert got == {1: (2, "alpha", "beta"), 2: (1, None, None)}


def test_mv_minmax_decimal_guard(tmp_path):
    """Decimal min/max would fold lexicographically through the JSON
    cache ("12" < "9") — must refuse loudly, like the sum guard."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    import ray

    from plugin_debezium_ray.pipelines.mv import _bucket_partial

    t = pa.table({
        "g": pa.array([1, 1], pa.int64()),
        "d": pa.array([None, None], pa.decimal128(10, 2)),
    })
    p = str(tmp_path / "b.parquet")
    pq.write_table(t, p)
    with pytest.raises(TypeError, match="decimal"):
        ray.get(_bucket_partial.remote(p, "g", None, "d"))
