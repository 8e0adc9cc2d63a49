"""``ray job submit`` entrypoint: ``python -m plugin_debezium_ray <cmd>``.

The north-star run mode is a fixed-size multi-node Ray cluster driven by
``ray job submit -- python -m plugin_debezium_ray replay --wal ... --lake
...``.  The CLI owns the Ray session (``ray.init()`` with no address
picks up ``RAY_ADDRESS`` — the job-server-injected cluster address —
falling back to a local session for dev runs); the library itself never
calls ``ray.init``.

Each command prints ONE JSON line with its result metrics so job logs
are machine-parseable (mirrors ``bench.py``'s contract).

Commands:
  replay   WAL parquet segments → lake upsert, one commit (plain merge
           tasks)
  follow   watch a WAL directory, commit each arrival batch until idle
           (one shard pool for the whole run merges every commit)
  capture  WAL parquet segments → per-stream files (parquet/jsonl/ion)
  lineage  committed per-bucket lineage of a lake table
  history  retained commit versions of a lake (time-travel horizon)
  vacuum   GC old commit versions / unreferenced data files
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(include_dashboard=False, ignore_reinit_error=True)


def _config_from_args(args) -> "object":
    from plugin_debezium_ray.config import CaptureConfig

    kw = {}
    if args.key_cols:
        kw["key_cols"] = tuple(args.key_cols.split(","))
    if args.num_buckets:
        kw["num_buckets"] = args.num_buckets
    if getattr(args, "max_records", None):
        kw["max_records"] = args.max_records
    if getattr(args, "max_lsn", None):
        kw["max_lsn"] = args.max_lsn
    return CaptureConfig(**kw)


def cmd_replay(args) -> dict:
    from plugin_debezium_ray.pipelines.replay import ReplayJob

    _init_ray()
    job = ReplayJob(_config_from_args(args), args.lake)
    res = job.run_from_paths(args.wal, snapshot_paths=args.snapshot)
    return {
        "command": "replay",
        "version": res.version,
        "events_seen": res.events_seen,
        "events_applied": res.events_applied,
        "buckets_touched": res.buckets_touched,
        "wall_seconds": round(res.elapsed_seconds, 3),
        "lake": args.lake,
        "stopped_reason": res.stopped_reason,
    }


def cmd_follow(args) -> dict:
    """Continuous ingest: watch ``--wal-dir`` and commit every newly
    arriving segment batch atomically until ``--max-wait`` seconds pass
    with no new segment (or ``--max-duration`` total wall)."""
    from plugin_debezium_ray.pipelines.replay import ReplayJob

    _init_ray()
    job = ReplayJob(_config_from_args(args), args.lake)
    commits = []
    for res in job.follow_apply(
        args.wal_dir,
        poll_interval=args.poll_interval,
        max_wait_seconds=args.max_wait,
        max_duration_seconds=args.max_duration,
    ):
        commits.append(res)
    return {
        "command": "follow",
        "commits": len(commits),
        "events_seen": sum(r.events_seen for r in commits),
        "events_applied": sum(r.events_applied for r in commits),
        "last_version": commits[-1].version if commits else None,
        "lake": args.lake,
    }


def cmd_capture(args) -> dict:
    import ray.data

    from plugin_debezium_ray.pipelines.capture import capture_to_files

    _init_ray()
    env = ray.data.read_parquet(args.wal)
    out = capture_to_files(
        env, _config_from_args(args), args.out, file_format=args.format
    )
    return {
        "command": "capture",
        "size": out.size,
        "streams": {k: v for k, v in sorted(out.counts.items())},
        "out": args.out,
    }


def _jsonable(o):
    """Keep the one-line JSON machine-parseable: numpy scalars emit as
    numbers, everything else falls back to its string form."""
    import numpy as np

    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    return str(o)


def cmd_lineage(args) -> dict:
    from plugin_debezium_ray.pipelines.replay import ReplayJob
    from plugin_debezium_ray.config import CaptureConfig

    # manifest read only — no Ray session needed
    job = ReplayJob(CaptureConfig(), args.lake)
    df = job.lineage()
    # df.to_json (not to_dict) so missing offsets become JSON null —
    # pandas' None→NaN coercion would otherwise emit the bare NaN token
    # (invalid JSON) — and numpy ints stay numbers instead of hitting
    # json.dumps' default=str
    return {
        "command": "lineage",
        "version": df.attrs.get("version"),
        "metrics": df.attrs.get("metrics", {}),
        "buckets": json.loads(df.to_json(orient="records")),
    }


def cmd_history(args) -> dict:
    """Committed versions still readable for time travel (one line per
    retained manifest) — pair with ``read_table(version=N)``."""
    from plugin_debezium_ray.state.vacuum import list_history

    # manifest reads only — no Ray session needed
    return {
        "command": "history",
        "lake": args.lake,
        "versions": [
            {k: h[k] for k in
             ("version", "parent", "events_applied", "buckets")}
            for h in list_history(args.lake)
        ],
    }


def cmd_vacuum(args) -> dict:
    from plugin_debezium_ray.state.vacuum import vacuum

    out = vacuum(args.lake, keep_manifests=args.keep,
                 keep_every=args.keep_every, dry_run=args.dry_run)
    return {"command": "vacuum", **out}


def cmd_mv(args) -> dict:
    """Refresh (or cold-build) an incremental materialized aggregate of
    the lake — re-reads only buckets rewritten since the last refresh."""
    from plugin_debezium_ray.pipelines.mv import MaterializedAggregate

    _init_ray()
    mv = MaterializedAggregate(
        args.lake, group_col=args.group, sum_col=args.sum
    )
    rows = mv.refresh()
    return {
        "command": "mv",
        "lake": args.lake,
        "group_col": args.group,
        "sum_col": args.sum,
        "buckets_recomputed": mv.last_recomputed,
        "groups": len(rows),
        "rows": rows,
    }


def cmd_scd2(args) -> dict:
    """Materialize SCD2 version rows from a parquet changelog and write
    them as partitioned parquet."""
    import ray.data

    from plugin_debezium_ray.functions.history import scd2_history

    _init_ray()
    ds = ray.data.read_parquet(args.input)
    out = scd2_history(
        ds,
        key_cols=args.key_cols.split(","),
        order_col=args.order_col,
        deleted_col=args.deleted_col,
        num_partitions=args.num_partitions,
    ).materialize()  # one execution feeds BOTH the write and the count
    out.write_parquet(args.out)
    return {
        "command": "scd2",
        "input": args.input,
        "out": args.out,
        "rows": out.count(),
    }


def cmd_profile(args) -> dict:
    """One-pass per-column profile of a parquet table (exact
    count/nulls/min/max/mean + HLL distinct + KLL quantiles)."""
    import ray.data

    from plugin_debezium_ray.functions.profile import profile

    _init_ray()
    ds = ray.data.read_parquet(args.input)
    cols = args.columns.split(",") if args.columns else None
    df = profile(ds, cols)
    import pandas as pd

    # strict JSON: NaN tokens (non-numeric means/quantiles) break
    # non-Python consumers — emit null
    df = df.astype(object).where(pd.notna(df), None)
    return {
        "command": "profile",
        "input": args.input,
        "rows": df.to_dict(orient="records"),
    }


def cmd_index(args) -> dict:
    """Content-hash index maintenance: build it from a corpus, probe a
    new shard against it (kept rows written to --out), or extend it
    with a kept shard."""
    import ray.data

    from plugin_debezium_ray.functions.dedup import (
        build_content_index, dedup_against_index, extend_content_index,
    )

    _init_ray()
    ds = ray.data.read_parquet(args.input)
    if args.action == "build":
        meta = build_content_index(
            ds, args.path, text_col=args.text_col,
            normalize=args.normalize, num_buckets=args.num_buckets,
        )
        return {"command": "index", "action": "build", **meta}
    if args.action == "probe":
        kept = dedup_against_index(
            ds, args.path, text_col=args.text_col
        ).materialize()  # one execution for write + count
        kept.write_parquet(args.out)
        return {
            "command": "index", "action": "probe",
            "kept_rows": kept.count(), "out": args.out,
        }
    meta = extend_content_index(ds, args.path, text_col=args.text_col)
    return {"command": "index", "action": "extend", **meta}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m plugin_debezium_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    rp = sub.add_parser(
        "replay", help="WAL segments -> lake upsert (one commit)"
    )
    rp.add_argument("--wal", required=True, help="WAL parquet dir/file(s)")
    rp.add_argument("--lake", required=True, help="lake table dir")
    rp.add_argument("--snapshot", default=None, help="snapshot parquet dir")
    rp.add_argument("--key-cols", default=None, help="comma-separated PK")
    rp.add_argument("--num-buckets", type=int, default=None)
    rp.add_argument("--max-records", type=int, default=None)
    rp.add_argument("--max-lsn", type=int, default=None)
    rp.set_defaults(fn=cmd_replay)

    fp = sub.add_parser(
        "follow",
        help="watch a WAL dir, commit each arrival batch through one "
             "persistent shard pool",
    )
    fp.add_argument("--wal-dir", required=True, help="directory to watch")
    fp.add_argument("--lake", required=True, help="lake table dir")
    fp.add_argument("--key-cols", default=None, help="comma-separated PK")
    fp.add_argument("--num-buckets", type=int, default=None)
    fp.add_argument("--poll-interval", type=float, default=0.5)
    fp.add_argument("--max-wait", type=float, default=10.0,
                    help="idle stop: seconds with no new segment")
    fp.add_argument("--max-duration", type=float, default=None,
                    help="total wall bound in seconds")
    fp.set_defaults(fn=cmd_follow)

    cp = sub.add_parser("capture", help="WAL segments -> per-stream files")
    cp.add_argument("--wal", required=True)
    cp.add_argument("--out", required=True)
    cp.add_argument("--format", default="parquet",
                    choices=["parquet", "jsonl", "ion"])
    cp.add_argument("--key-cols", default=None)
    cp.add_argument("--num-buckets", type=int, default=None)
    cp.add_argument("--max-records", type=int, default=None)
    cp.add_argument("--max-lsn", type=int, default=None)
    cp.set_defaults(fn=cmd_capture)

    lp = sub.add_parser("lineage", help="per-bucket lineage of a lake")
    lp.add_argument("--lake", required=True)
    lp.set_defaults(fn=cmd_lineage)

    hp = sub.add_parser("history", help="retained commit versions of a lake")
    hp.add_argument("--lake", required=True)
    hp.set_defaults(fn=cmd_history)

    vp = sub.add_parser("vacuum", help="GC old commits of a lake")
    vp.add_argument("--lake", required=True)
    vp.add_argument("--keep", type=int, default=1)
    vp.add_argument("--keep-every", type=int, default=None,
                    help="also retain every Mth version (sparse history)")
    vp.add_argument("--dry-run", action="store_true")
    vp.set_defaults(fn=cmd_vacuum)

    mp = sub.add_parser(
        "mv", help="refresh an incremental materialized aggregate"
    )
    mp.add_argument("--lake", required=True)
    mp.add_argument("--group", required=True, help="group-by column")
    mp.add_argument("--sum", default=None, help="optional sum column")
    mp.set_defaults(fn=cmd_mv)

    sp = sub.add_parser(
        "scd2", help="parquet changelog -> SCD2 version rows"
    )
    sp.add_argument("--input", required=True, help="changelog parquet")
    sp.add_argument("--out", required=True, help="output parquet dir")
    sp.add_argument("--key-cols", required=True, help="comma-separated key")
    sp.add_argument("--order-col", required=True, help="LSN/version column")
    sp.add_argument("--deleted-col", default=None,
                    help="bool column marking deletes")
    sp.add_argument("--num-partitions", type=int, default=64)
    sp.set_defaults(fn=cmd_scd2)

    pp = sub.add_parser("profile", help="one-pass per-column profile")
    pp.add_argument("--input", required=True, help="parquet file/dir")
    pp.add_argument("--columns", default=None, help="comma-separated subset")
    pp.set_defaults(fn=cmd_profile)

    ip = sub.add_parser(
        "index", help="content-hash dedup index: build / probe / extend"
    )
    ip.add_argument("action", choices=["build", "probe", "extend"])
    ip.add_argument("--input", required=True, help="corpus/shard parquet")
    ip.add_argument("--path", required=True, help="index directory")
    ip.add_argument("--out", default=None,
                    help="kept-rows parquet dir (probe)")
    ip.add_argument("--text-col", default="text")
    ip.add_argument("--normalize", action="store_true")
    ip.add_argument("--num-buckets", type=int, default=256)
    ip.set_defaults(fn=cmd_index)

    args = p.parse_args(argv)
    if getattr(args, "cmd", None) == "index" \
            and args.action == "probe" and not args.out:
        p.error("index probe requires --out")
    out = args.fn(args)
    print(json.dumps(out, default=_jsonable))
    return 0


if __name__ == "__main__":
    sys.exit(main())
