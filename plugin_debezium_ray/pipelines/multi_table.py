"""Multi-table capture: one envelope stream → one lake table per source
table (the reference's per-table output streams, `ChangeConsumer.java:162-177`,
applied to the lake-upsert sink instead of files).

The reference holds one open file per stream and appends as events
arrive; our equivalent maintains one bucketed lake table per
``db.table`` stream, each with its own manifest/ledger/schema registry —
so per-table schema evolution and per-table resume stay independent
(mirroring Debezium's per-table topic model).

Two physical plans, both discovering streams with ONE column-pruned pass:

- ``replay_multi_table``: a filtered ``ReplayJob.run`` per stream — the
  correctness-first reference layout (few tables per job is the common
  case — the reference defaults to table include-lists).
- ``replay_multi_table_streaming``: ONE pass over the WAL for all tables
  on the push route, shard actors keyed on (stream, bucket); each
  stream's restore and manifest commit are ``ReplayJob``'s own
  ``_prepare`` / ``_commit``.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

import numpy as np
import pandas as pd

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob, ReplayResult
from plugin_debezium_ray.stages.apply import (
    APPLY_COLUMNS,
    BUCKET_COL,
    _one_chunk,
    WEIGHT_COL,
    _composite_key,
    _winners_and_weights,
)

STREAM_COL = "_stream"

# the envelope columns the multi-table apply touches: the keyed apply's
# APPLY_COLUMNS plus the source struct (db/table stream routing) and ddl
# (per-stream schema registries).  Pass
# ``read_parquet(wal, columns=list(MULTI_TABLE_COLUMNS))`` when replaying
# by path — before-images / transaction / ts_ms never leave the footers.
MULTI_TABLE_COLUMNS = (*APPLY_COLUMNS, "source", "ddl")


def discover_streams(
    envelopes: "ray.data.Dataset",
    *,
    included: list[str] | None = None,
    excluded: list[str] | None = None,
) -> list[str]:
    """Distinct ``db.table`` streams, via a pruned scan + tiny distinct.

    include/exclude regex semantics match the capture-time lists
    (`AbstractDebeziumTask.java:583-589`)."""

    def streams(t: pa.Table) -> pa.Table:
        src = t["source"].combine_chunks()
        full = pc.binary_join_element_wise(
            pc.fill_null(src.field("db"), ""),
            pc.fill_null(src.field("table"), ""),
            ".",
        )
        keep = pc.is_valid(t["op"].combine_chunks())
        return pa.table({"stream": full.filter(keep)})

    got = (
        envelopes.select_columns(["op", "source"])
        .map_batches(streams, batch_format="pyarrow")
        .unique("stream")
    )
    names = sorted(x for x in got if x and x != ".")
    inc = [re.compile(p) for p in included or []]
    exc = [re.compile(p) for p in excluded or []]
    return [
        s
        for s in names
        if (not inc or any(r.search(s) for r in inc))
        and not any(r.search(s) for r in exc)
    ]


def replay_multi_table(
    envelopes: "ray.data.Dataset",
    base_dir: str,
    config: CaptureConfig,
    *,
    connector_id: str | None = None,
    snapshot_by_stream: dict[str, "ray.data.Dataset"] | None = None,
) -> dict[str, ReplayResult]:
    """Apply the stream into one lake table per ``db.table``.

    Returns {stream: ReplayResult}.  Each table dir is
    ``{base_dir}/{db}.{table}/`` with its own manifest lineage."""
    streams = discover_streams(
        envelopes,
        included=config.included_tables,
        excluded=config.excluded_tables,
    )
    results: dict[str, ReplayResult] = {}
    for stream in streams:
        db, _, table = stream.partition(".")

        def only_this(t: pa.Table, db=db, table=table) -> pa.Table:
            src = t["source"].combine_chunks()
            keep = pc.and_(
                pc.fill_null(pc.equal(src.field("db"), db), False),
                pc.fill_null(pc.equal(src.field("table"), table), False),
            )
            # DDL rows carry no source; keep them for the schema registry
            keep = pc.or_(keep, pc.is_null(src))
            return t.filter(keep)

        filtered = envelopes.map_batches(only_this, batch_format="pyarrow")
        job = ReplayJob(
            config,
            os.path.join(base_dir, stream),
            connector_id=connector_id,
        )
        snap = (snapshot_by_stream or {}).get(stream)
        results[stream] = job.run(filtered, snapshot=snap)
    return results


# --------------------------------------------------- streaming variant


def make_project_multi(
    config: CaptureConfig,
    stream_set: set[str],
    ledgers: dict[str, dict],
):
    """Shared multi-table projection: envelope batch → rows with
    ``_stream``, payload, ``_bucket``, ``_weight`` — stream filter,
    per-(stream, bucket) ledger filter and per-(stream, key) LWW
    pre-reduce included — the projection of the streaming pass."""
    key_cols = config.key_cols
    num_buckets = config.num_buckets

    def project_multi(t: pa.Table) -> pa.Table:
        op = t["op"]
        # same op contract as project_for_apply: DDL and keyless op=m
        # message events never reach the keyed apply
        keep = pc.and_(pc.is_valid(op), pc.and_(
            pc.invert(pc.fill_null(pc.equal(op, "ddl"), False)),
            pc.invert(pc.fill_null(pc.equal(op, "m"), False))))
        if config.max_lsn is not None:
            keep = pc.and_(keep, pc.less_equal(t["lsn"], config.max_lsn))
        t = t.filter(keep)
        n = len(t)
        src = _one_chunk(t["source"])
        stream = pc.binary_join_element_wise(
            pc.fill_null(src.field("db"), ""),
            pc.fill_null(src.field("table"), ""),
            ".",
        )
        after = _one_chunk(t["after"])
        ptype = after.type
        cols = dict(
            zip([ptype.field(i).name for i in range(ptype.num_fields)],
                after.flatten())
        )
        key_struct = _one_chunk(t["key"])
        kt = key_struct.type
        kflat = key_struct.flatten()  # honors null key structs (op=m)
        for i in range(kt.num_fields):
            kn = kt.field(i).name
            cols[kn] = (
                pc.coalesce(cols[kn], kflat[i])
                if kn in cols
                else kflat[i]
            )
        out = pa.table(
            {
                STREAM_COL: stream,
                "lsn": _one_chunk(t["lsn"]),
                "seq": _one_chunk(t["seq"]),
                "deleted": pc.fill_null(
                    pc.is_in(t["op"], value_set=pa.array(["d", "t"])), False
                ).combine_chunks()
                if n
                else pa.nulls(0, pa.bool_()),
                **cols,
            }
        )
        # drop rows of non-selected streams (include/exclude lists)
        s_np = stream.to_numpy(zero_copy_only=False)
        sel = np.array([x in stream_set for x in s_np])
        if not sel.all():
            out = out.filter(pa.array(sel))
            s_np = s_np[sel]
        if len(out) == 0:
            return out.append_column(BUCKET_COL, pa.array([], pa.int32())) \
                      .append_column(WEIGHT_COL, pa.array([], pa.int64()))
        key = _composite_key(out, key_cols)
        h = pd.util.hash_array(key.astype(object, copy=False))
        bucket = (h % np.uint64(num_buckets)).astype(np.int32)
        out = out.append_column(BUCKET_COL, pa.array(bucket))

        # per-(stream, bucket) ledger filter
        lsn = out["lsn"].to_numpy()
        seq = out["seq"].to_numpy()
        led = pd.Series([ledgers.get(s, {}).get(int(b)) for s, b in
                         zip(s_np, bucket)])
        led_lsn = led.map(lambda x: -1 if x is None else x[0]).to_numpy()
        led_seq = led.map(lambda x: -1 if x is None else x[1]).to_numpy()
        keep2 = (lsn > led_lsn) | ((lsn == led_lsn) & (seq > led_seq))
        if not keep2.all():
            out = out.filter(pa.array(keep2))
            key = key[keep2]
            s_np = s_np[keep2]
        if len(out) == 0:
            return out.append_column(WEIGHT_COL, pa.array([], pa.int64()))

        # pre-reduce per (stream, key)
        skey = np.char.add(np.char.add(s_np.astype(str), "\x1e"),
                           key.astype(str))
        win, weights = _winners_and_weights(
            skey, out["lsn"].to_numpy(), out["seq"].to_numpy()
        )
        out = out.take(pa.array(win))
        return out.append_column(WEIGHT_COL, pa.array(weights, type=pa.int64()))

    return project_multi


def replay_multi_table_streaming(
    envelopes: "ray.data.Dataset",
    base_dir: str,
    config: CaptureConfig,
    *,
    connector_id: str | None = None,
    fingerprint_col: str = "content",
    num_shards: int | None = None,
    compact_rows: int = 400_000,
) -> dict[str, ReplayResult]:
    """All tables in ONE streaming pass with NO shuffle barrier: the
    multi-table analogue of ``ReplayJob.run_streaming``.

    Decode tasks run the shared multi-table projection and push each
    bucket-range slice (rows of ANY stream) to its ``MergeShard`` actor
    while the scan flows; shards LWW-reduce on (stream, key) and at
    finalize group by (stream, bucket), merging into each stream's OWN
    lake with its own ledger/prior state.  Per-stream manifests commit
    independently (same layout as ``replay_multi_table``,
    interchangeable).

    Constraint: all tables share one payload
    struct schema; DDL is not replayed in-pass (prior registry snapshots
    carry forward)."""
    import time

    import ray

    from plugin_debezium_ray.pipelines.streaming_apply import (
        _make_shard_pool,
        make_decode_push,
    )

    t0 = time.monotonic()
    streams = discover_streams(
        envelopes,
        included=config.included_tables,
        excluded=config.excluded_tables,
    )
    jobs = {
        s: ReplayJob(
            config,
            os.path.join(base_dir, s),
            connector_id=connector_id,
            fingerprint_col=fingerprint_col,
        )
        for s in streams
    }
    # DDL is not replayed in-pass: each stream's registry carries forward
    preps = {s: job._prepare(envelopes, None, False) for s, job in jobs.items()}
    project_multi = make_project_multi(
        config, set(streams), {s: p.ledger for s, p in preps.items()}
    )

    shards, shard_of = _make_shard_pool(
        config, num_shards, compact_rows, stream_col=STREAM_COL
    )
    try:
        envelopes.map_batches(
            make_decode_push(project_multi, shards, shard_of),
            batch_format="pyarrow",
            batch_size=config.batch_size,
        ).sum("n")
        per_stream = {s: p.merge_kw() for s, p in preps.items()}
        stats_rows = [
            r
            for rows in ray.get(
                [sh.finalize_multi.remote(per_stream) for sh in shards]
            )
            for r in rows
        ]
    finally:
        for sh in shards:
            ray.kill(sh)

    return {
        s: jobs[s]._commit(
            preps[s],
            [r for r in stats_rows if r.get("stream") == s],
            {"streaming_multi": True},
            t0,
        )
        for s in streams
    }
