"""Multi-table capture: one envelope stream → one lake table per source
table (the reference's per-table output streams, `ChangeConsumer.java:162-177`,
applied to the lake-upsert sink instead of files).

The reference holds one open file per stream and appends as events
arrive; our equivalent maintains one bucketed lake table per
``db.table`` stream, each with its own manifest/ledger/schema registry —
so per-table schema evolution and per-table resume stay independent
(Debezium's per-table topic model; Delta Lake's one log per table).

``discover_streams`` finds the streams with ONE column-pruned pass;
``replay_multi_table`` then runs each stream, filtered on its name,
through the one apply core (``ReplayJob.run``).
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob, ReplayResult
from plugin_debezium_ray.stages.decode import stream_names


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
        full = stream_names(t["source"].combine_chunks())
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

        def only_this(t: pa.Table, stream=stream) -> pa.Table:
            src = t["source"].combine_chunks()
            # DDL rows carry no source; keep them for the schema registry
            keep = pc.or_(pc.equal(stream_names(src), stream), pc.is_null(src))
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
