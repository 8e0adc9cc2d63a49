#!/usr/bin/env python
"""Time the merge kernel in-process on a ``tail``-shaped shard.

Builds one shard's finalize input from the benchmark's cached fixtures:
the first ``tail`` segment, projected as a decode task projects it
against the base lake's ledger and schema, cut to the lower half of the
buckets (one shard of the benchmark's two), with the base lake's bucket
tables held as a shard holds the tables it wrote.  Then it times
``BucketMerge.merge`` over that input, each round into a fresh
directory.  No Ray runs, so the number is the kernel's alone.

Fill the cache once with ``python3 cdcbench/run.py --workload tail
--seed N --seconds 26``, then run from the repository root:

    python tools/merge_kernel.py [--seed N] [--rounds R] [--digest]

It prints one JSON line.  ``--digest`` adds each written file's sha256,
to compare the files two checkouts write for the same input.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def shard_input(cache: str, num_buckets: int = 64):
    """``(merge keyword arguments, shard rows)`` of the first tail
    segment's commit onto the base lake, for buckets below half."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from plugin_debezium_ray.config import CaptureConfig
    from plugin_debezium_ray.pipelines.replay import ReplayJob
    from plugin_debezium_ray.stages.apply import APPLY_COLUMNS, project_for_apply
    from plugin_debezium_ray.state.checkpoint import (
        bucket_fingerprints_of, bucket_paths_of, ledger_of,
    )
    from plugin_debezium_ray.state.schema_registry import SchemaRegistry

    cfg = CaptureConfig(num_buckets=num_buckets)
    m = ReplayJob(cfg, os.path.join(cache, "base_lake")).ckpt.restore()
    reg = SchemaRegistry.from_snapshot(m["schema"])
    ledger, paths = ledger_of(m), bucket_paths_of(m)
    seg = pq.read_table(sorted(glob.glob(os.path.join(cache, "tail", "*.parquet")))[0],
                        columns=list(APPLY_COLUMNS))
    rows = project_for_apply(
        cfg.key_cols, num_buckets, ledger=ledger,
        renames=reg.rename_map(), added_columns=reg.added_columns(),
    )(seg)
    rows = rows.filter(pc.less(rows["_bucket"], num_buckets // 2))
    merge_kw = dict(
        prior_paths=paths, prior_fingerprints=bucket_fingerprints_of(m),
        ledger=ledger, renames=reg.rename_map(),
        held={b: (p, pq.read_table(p)) for b, p in paths.items()},
    )
    return cfg.key_cols, merge_kw, rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=4)
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--digest", action="store_true")
    args = p.parse_args(argv)
    caches = sorted(glob.glob(os.path.join(
        REPO, ".cdcbench", "cache", f"s{args.seed}-*", "tail")))
    if not caches:
        sys.exit(f"no cached tail fixtures for seed {args.seed}: "
                 "run cdcbench/run.py --workload tail first")
    from plugin_debezium_ray.stages.apply import BucketMerge

    key_cols, merge_kw, rows = shard_input(os.path.dirname(caches[-1]))
    work = tempfile.mkdtemp(prefix="merge_kernel-")
    wall, cpu = [], []
    try:
        for r in range(args.rounds + 1):
            merge = BucketMerge(key_cols, work, f"v{r:06d}", **merge_kw)
            t0, c0 = time.perf_counter(), time.process_time()
            stats, _ = merge.merge(rows)
            if r:  # round 0 warms imports and caches
                wall.append(time.perf_counter() - t0)
                cpu.append(time.process_time() - c0)
        out = {
            "rows": rows.num_rows,
            "buckets": stats.num_rows,
            "rounds": args.rounds,
            "wall_ms_median": round(1e3 * statistics.median(wall), 2),
            "wall_ms_min": round(1e3 * min(wall), 2),
            "cpu_ms_median": round(1e3 * statistics.median(cpu), 2),
        }
        if args.digest:
            out["sha256"] = {
                b: hashlib.sha256(open(path, "rb").read()).hexdigest()
                for b, path in zip(stats["bucket"].to_pylist(),
                                   stats["path"].to_pylist())
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
