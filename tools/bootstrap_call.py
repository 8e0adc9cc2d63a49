#!/usr/bin/env python
"""Time the benchmark's ``bootstrap`` call in-process.

Starts Ray as the benchmark does (``cdcbench.harness.start_ray``: 2
CPUs), warms it up, then calls ``ReplayJob.run_from_paths(wal,
snapshot_paths=snap)`` over one seed's cached fixtures, each round on a
fresh lake.  No harness sampling runs around the call, so rounds of two
checkouts can be alternated call by call.

Fill the cache once with ``python3 cdcbench/run.py --workload bootstrap
--seed N --seconds 26``, then run from the repository root:

    python tools/bootstrap_call.py [--seed N] [--rounds R] [--digest]

It prints one JSON line: the medians of the call's wall time and of its
manifest's ``decode_seconds``, ``finalize_seconds`` and
``merge_seconds``, and its ``decode_tasks`` and ``decode_lanes``.
``--digest`` adds one sha256 over every bucket file, in bucket order, so
two checkouts can be compared byte for byte.
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
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
os.chdir(REPO)  # Ray workers import the package from the working directory


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--digest", action="store_true")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    caches = sorted(glob.glob(os.path.join(
        REPO, ".cdcbench", "cache", f"s{args.seed}-*-t0x*", "wal")))
    if not caches:
        sys.exit(f"no cached bootstrap fixtures for seed {args.seed}: "
                 "run cdcbench/run.py --workload bootstrap first")
    import ray

    from cdcbench.harness import start_ray, warm_up
    from cdcbench.workloads import make_job

    root = os.path.dirname(caches[-1])
    wal = sorted(glob.glob(os.path.join(root, "wal", "*.parquet")))
    snap = sorted(glob.glob(os.path.join(root, "snapshot", "*.parquet")))
    work = os.path.join(REPO, ".cdcbench", "bootstrap_call")
    lake = os.path.join(work, "lake")
    start_ray(work)
    try:
        warm_up(work)
        calls, metrics = [], []
        for r in range(args.rounds + 1):
            shutil.rmtree(lake, ignore_errors=True)
            job = make_job(lake)
            t0 = time.perf_counter()
            res = job.run_from_paths(wal, snapshot_paths=snap)
            if r:  # round 0 warms the workers' imports
                calls.append(time.perf_counter() - t0)
                metrics.append(res.metrics)
        out = {"seed": args.seed, "rounds": args.rounds,
               "events_seen": res.events_seen,
               "call_ms_median": round(1e3 * statistics.median(calls), 1)}
        for k in ("decode_seconds", "finalize_seconds", "merge_seconds"):
            out[f"{k}_median"] = round(statistics.median(
                m[k] for m in metrics), 4)
        for k in ("decode_tasks", "decode_lanes"):
            out[k] = res.metrics.get(k)
        if args.digest:
            h = hashlib.sha256()
            for _, path in sorted(job.ckpt.bucket_paths().items()):
                with open(path, "rb") as f:
                    h.update(f.read())
            out["sha256"] = h.hexdigest()
    finally:
        ray.shutdown()
        shutil.rmtree(lake, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
