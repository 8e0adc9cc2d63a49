#!/usr/bin/env python
"""Benchmark harness: headline CDC replay throughput + operator suite.

Prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "events_per_sec": ..., "replay_events": ...}

``--scaling`` runs the headline replay in two fresh processes
(num_cpus=8 vs 32) on the same cached WAL and reports both throughputs
plus efficiency = (t8/t32)/4 (the N→4N stand-in from BASELINE.md).

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS
(default 32).  The synthetic WAL is cached under /tmp keyed by its
parameters; generation time is excluded from the measured replay.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CACHE = "/tmp/graft_bench_cache"

# WAL scale: ~20 change events per events-table row (sf0.1 → 2M events);
# the scaling run uses 24× that (50.4M events) so per-commit compute
# dominates the ~1.8 s/commit stage-barrier latency floor (measured:
# sort+schedule+fold latency is constant in CPU count, so small jobs
# understate scaling — the 10^10-event regime has minutes of compute per
# commit, which this approximates; 8.4M → 25.2M events moved measured
# efficiency 0.38 → 0.55 with no code change)
EVENTS_PER_ROW = 20
SCALING_EVENTS_PER_ROW = 480
WAL_SEED = 42
# identical bucket count at every parallelism level (comparable work)
NUM_BUCKETS = int(os.environ.get("GRAFT_NUM_BUCKETS", "128"))
REPLAY_BATCH = 131072  # measured sweet spot (262144 degrades: buffering)
# 32 MB blocks: the shuffle's map-side parallelism = input block count,
# so small blocks keep all slots busy (512 MB starved the sort at 1-2
# blocks per 1M-event segment; measured 27.4s -> 18.5s at 32 cpus)
TARGET_BLOCK_MB = int(os.environ.get("GRAFT_BLOCK_MB", "32"))
# the replay merges on a session's long-lived shard actors (a
# ``streaming_session`` around ``run``): 8.4M
# WAL 45.6 -> 7.8 s at 32 cpus vs one sort-shuffle run; 50.4M WAL 36 s at
# 32 / 119 s at 8 -> scaling efficiency 0.83
_WAL_READ_BLOCKS_ENV = os.environ.get("GRAFT_WAL_READ_BLOCKS")


def wal_read_blocks(n_events: int) -> int:
    """Read parallelism for the streaming replay, scaled to WAL size:
    ~65k events per block, clamped to [32, 256].  The read itself has a
    measured cliff on this 480-file WAL: ≤64 blocks ≈ 0.9 s, ≥80 ≈
    1.7 s for a count-only scan, and the full sf0.1 replay measured
    3.14 / 3.53 / 4.26 s best-of-3 interleaved at 32 / 64 / 128 blocks
    (the old flat 256 meant 8k-row blocks, pure task overhead).  The
    50.4M scaling WAL still lands on 256 (≈200k rows/block), so the
    published scaling-protocol shape is unchanged."""
    if _WAL_READ_BLOCKS_ENV is not None:
        return int(_WAL_READ_BLOCKS_ENV)
    return max(32, min(256, n_events // 65_536))


def _events_rows(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(os.path.join(sf_dir, "events.parquet")).num_rows


def wal_params(sf_dir: str, events_per_row: int = EVENTS_PER_ROW) -> tuple[int, int]:
    n = _events_rows(sf_dir)
    n_events = n * events_per_row
    n_keys = max(1000, n_events // 20)
    return n_events, n_keys


def ensure_wal(
    sf_dir: str, events_per_row: int = EVENTS_PER_ROW, **gen_kw
) -> tuple[str, int, int]:
    """Generate (once) and cache the synthetic WAL segments + snapshot.
    Extra ``gen_kw`` (e.g. ``hot_key_frac``) reach the generator and
    become part of the cache tag."""
    n_events, n_keys = wal_params(sf_dir, events_per_row)
    suffix = "".join(
        f"_{k}{v}" for k, v in sorted(gen_kw.items())
    ).replace("/", "_")
    tag = f"wal_e{n_events}_k{n_keys}_s{WAL_SEED}{suffix}"
    wal_dir = os.path.join(CACHE, tag, "wal")
    snap_dir = os.path.join(CACHE, tag, "snapshot")
    done = os.path.join(CACHE, tag, "_DONE")
    if not os.path.exists(done):
        from plugin_debezium_ray.sources.binlog import (
            snapshot_envelopes,
            write_binlog_segments,
        )

        shutil.rmtree(os.path.join(CACHE, tag), ignore_errors=True)
        write_binlog_segments(
            wal_dir, n_events, n_keys, seed=WAL_SEED, num_segments=64,
            **gen_kw,
        )
        snapshot_envelopes(n_keys, seed=WAL_SEED, override_num_blocks=16).write_parquet(
            snap_dir
        )
        with open(done, "w") as f:
            f.write("ok")
    return wal_dir, n_events, n_keys


def bench_cdc_replay(
    sf_dir: str, events_per_row: int = EVENTS_PER_ROW, **gen_kw
) -> dict:
    """Headline: full replay (snapshot + WAL) into a fresh lake — the
    end-to-end events/sec metric of BASELINE.json."""
    import pyarrow as pa

    import ray.data

    from plugin_debezium_ray.config import CaptureConfig
    from plugin_debezium_ray.pipelines.replay import ReplayJob

    wal_dir, n_events, n_keys = ensure_wal(sf_dir, events_per_row, **gen_kw)
    snap_dir = os.path.join(os.path.dirname(wal_dir), "snapshot")
    lake = f"/tmp/bench_lake_{os.getpid()}"
    shutil.rmtree(lake, ignore_errors=True)
    # warm the page cache with a REAL read (count() is metadata-only)
    ray.data.read_parquet(wal_dir).map_batches(
        lambda t: pa.table({"n": [len(t)]}), batch_format="pyarrow"
    ).count()
    t0 = time.monotonic()
    job = ReplayJob(
        CaptureConfig(num_buckets=NUM_BUCKETS, batch_size=REPLAY_BATCH),
        lake,
    )
    from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

    with job.streaming_session():
        seen = job.run(
            ray.data.read_parquet(
                wal_dir,
                columns=list(APPLY_COLUMNS),
                override_num_blocks=wal_read_blocks(n_events),
            ),
            snapshot=ray.data.read_parquet(
                snap_dir, columns=list(APPLY_COLUMNS)
            ),
        ).events_seen
    dt = time.monotonic() - t0
    shutil.rmtree(lake, ignore_errors=True)
    return {"sec": dt, "events": seen, "eps": seen / dt}


def bench_cdc_decode(sf_dir: str) -> dict:
    """Streaming decode (INLINE + enrichments) of the WAL, no shuffle."""
    import ray.data

    from plugin_debezium_ray.config import CaptureConfig
    from plugin_debezium_ray.stages.decode import EnvelopeDecoder

    wal_dir, n_events, _ = ensure_wal(sf_dir)
    # one task wave: blocks ≈ cpus (65k rows/task at sf0.1) — the
    # unmanaged read produced hundreds of 4k-row blocks whose task
    # overhead dominated the 100 ms of decode compute (2.7 → 0.7 s)
    cpus = int(ray.cluster_resources().get("CPU", NUM_CPUS))
    t0 = time.monotonic()
    n = (
        ray.data.read_parquet(
            wal_dir, override_num_blocks=max(cpus, n_events // 65_536)
        )
        .map_batches(EnvelopeDecoder(CaptureConfig()), batch_format="pyarrow")
        .count()
    )
    dt = time.monotonic() - t0
    return {"sec": dt, "events": n, "eps": n / dt}


def ensure_doc_corpus(n_docs: int = 50_000, seed: int = 9) -> str:
    """Deterministic document corpus with planted near-dup clusters
    (every 5th doc pair differs by 3 tokens) — the testdata documents
    table is only 500 rows, too small to exercise the distributed dedup
    path; this gives it real work."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(CACHE, f"docs_{n_docs}_s{seed}.parquet")
    if os.path.exists(path):
        return path
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i}" for i in range(20_000)], dtype=object)
    texts = []
    base_tokens = None
    for d in range(n_docs):
        if d % 5 == 1 and base_tokens is not None:
            toks = base_tokens.copy()
            idx = rng.integers(0, len(toks), size=3)
            toks[idx] = vocab[rng.integers(0, len(vocab), size=3)]
        else:
            toks = vocab[rng.integers(0, len(vocab), size=int(rng.integers(80, 200)))]
            base_tokens = toks
        texts.append(" ".join(toks))
    os.makedirs(CACHE, exist_ok=True)
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n_docs), pa.int64()),
                  "text": pa.array(texts)}),
        path,
    )
    return path


def bench_dedup_minhash_large(n_docs: int = 50_000) -> dict:
    """MinHash near-dedup on a 50k-doc corpus, FORCED onto the fully
    distributed tail (small_path_max_pairs=0: verify joins + distributed
    connected components + left_anti drop — no driver shortcuts)."""
    import ray.data

    from plugin_debezium_ray.functions.dedup import minhash_dedup

    path = ensure_doc_corpus(n_docs)
    ds = ray.data.read_parquet(path)
    t0 = time.monotonic()
    kept = minhash_dedup(
        ds, threshold=0.7, num_perm=64, bands=16, k=3,
        small_path_max_pairs=0,
    )
    survivors = kept.count()
    dt = time.monotonic() - t0
    return {"sec": dt, "docs": n_docs, "survivors": survivors,
            "docs_per_sec": n_docs / dt}


def _suite(sf_dir: str) -> dict[str, float]:
    import __ray_entry__ as E

    timings: dict[str, float] = {}
    picks = [
        "cdc_lww_apply",
        "dedup_exact",
        "dedup_minhash",
        "corpus_prep",
        "pack_sequences",
        "join_enrich",
        "text_quality",
        "text_token_count",
        "ann_brute_force",
        "agg_event_stats",
        # round-4 additions
        "asof_join",
        "asof_join_big",
        "interval_join",
        "quantiles",
        "text_tfidf",
        "dedup_semantic",
        "sample_weighted",
        # round-5 additions
        "quantiles_distributed",
        "sample_mixture",
        "chunk_documents",
        "cdc_scd2",
        "heavy_hitters",
        "window_join_events",
        "dedup_incremental",
        "profile_events",
        "dedup_substring",
        "select_budget",
    ]
    import ray.data as _rd

    qs = E.queries()
    for name in picks:
        t0 = time.monotonic()
        out = qs[name](sf_dir)
        # consume lazily-built datasets so we time real execution.
        # (Round-5 measurement FIX: the old duck-type guard `not
        # hasattr(out, "columns")` never fired — ray.data.Dataset HAS a
        # .columns() method — so Dataset-returning queries were timed at
        # plan construction + their eager parts only.  Rounds ≤ 4
        # under-measured the lazy tail of those queries; round-over-
        # round comparisons of the affected rows need BENCH_r05's
        # re-based numbers, noted in BASELINE.md.)
        if isinstance(out, _rd.Dataset):
            out.count()
        timings[name] = round(time.monotonic() - t0, 3)
    return timings


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.target_max_block_size = TARGET_BLOCK_MB * 1024 * 1024

    queries: dict[str, float] = {}
    replay = bench_cdc_replay(SF_DIR)
    queries["cdc_replay"] = round(replay["sec"], 3)
    decode = bench_cdc_decode(SF_DIR)
    queries["cdc_decode"] = round(decode["sec"], 3)
    queries.update(_suite(SF_DIR))
    # reported separately (new in round 2 — not part of the r1-comparable
    # suite total): the 50k-doc FORCED-distributed near-dedup
    dml = bench_dedup_minhash_large()

    result = {
        "metric": "cdc-replay-and-operator-suite wall time",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "replay_events": replay["events"],
        "events_per_sec": round(replay["eps"], 1),
        "decode_events_per_sec": round(decode["eps"], 1),
        "dedup_minhash_50k_distributed": {
            "sec": round(dml["sec"], 3),
            "docs": dml["docs"],
            "survivors": dml["survivors"],
            "docs_per_sec": round(dml["docs_per_sec"], 1),
        },
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Same replay at num_cpus=8 and 32 in fresh processes, best of two
    runs per level (the sandbox is a noisy shared box), on the larger
    scaling WAL so compute dominates fixed pipeline latency."""
    # pre-generate the WAL once (at full parallelism) so both runs read
    # the same cached input
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    ensure_wal(SF_DIR, SCALING_EVENTS_PER_ROW)
    ray.shutdown()

    def one(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=SF_DIR,
            # cap per-worker Arrow IO threads at both levels: on a real
            # N-node cluster a task cannot borrow idle cores from
            # elsewhere, so the small-session side must not either
            ARROW_IO_THREADS="2",
        )
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py"),
             "--replay-only", "--scaling-wal"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # interleave the levels (8,32,8,32,8,32) so bursts of co-tenant CPU
    # steal on this shared host hit both sides; take best-of-3 per level
    lo = hi = None
    for _ in range(3):
        r8, r32 = one(8), one(32)
        if lo is None or r8["sec"] < lo["sec"]:
            lo = r8
        if hi is None or r32["sec"] < hi["sec"]:
            hi = r32
    eff = (lo["sec"] / hi["sec"]) / (32 / 8)
    ceiling = _host_ceiling_eff()
    bw_ceiling = _host_bw_ceiling_eff()
    return {
        "metric": "replay scaling efficiency (num_cpus 8 vs 32, N→4N stand-in)",
        "sec_8": round(lo["sec"], 3),
        "sec_32": round(hi["sec"], 3),
        "eps_8": round(lo["eps"], 1),
        "eps_32": round(hi["eps"], 1),
        "replay_events": lo["events"],
        "scaling_efficiency": round(eff, 3),
        # same-window pure-multiprocessing 8→32 ceiling of THIS shared
        # host (co-tenant CPU steal): the attainable maximum for ANY
        # workload in this measurement window — contextualizes runs taken
        # in a degraded phase (observed ceiling range 0.73–0.92 same-day)
        "host_ceiling_eff": ceiling,
        "efficiency_vs_ceiling": (
            round(eff / ceiling, 3) if ceiling else None
        ),
        # same-window MEMORY-BANDWIDTH 8→32 ceiling: co-tenant bandwidth
        # contention can leave the CPU-burn ceiling at ~1.0 while a
        # bandwidth-heavy wide job runs 2× slower (measured via a
        # worktree A/B, BASELINE.md) — a replay-shaped workload needs
        # BOTH probes near 1.0 before a low efficiency means anything
        "host_bw_ceiling_eff": bw_ceiling,
        "sf": SF_DIR,
    }


def _host_ceiling_eff() -> float | None:
    """Measured 8→32-process CPU-burn speedup / 4 in the CURRENT window
    (pure multiprocessing, no Ray) — the host's attainable parallel
    efficiency under whatever co-tenant steal exists right now."""
    import multiprocessing as mp

    def burn(q, dur):
        t0 = time.monotonic()
        n = 0
        x = 1.0
        while time.monotonic() - t0 < dur:
            for _ in range(10000):
                x = x * 1.0000001 + 0.5
            n += 10000
        q.put(n)

    def level(nproc, dur=5.0):
        q = mp.Queue()
        ps = [mp.Process(target=burn, args=(q, dur)) for _ in range(nproc)]
        for p in ps:
            p.start()
        total = sum(q.get() for _ in ps)
        for p in ps:
            p.join()
        return total / dur

    try:
        best8 = best32 = 0.0
        for _ in range(2):  # interleaved best-of-2 (adds ~20 s)
            best8 = max(best8, level(8))
            best32 = max(best32, level(32))
        return round(best32 / best8 / 4.0, 3)
    except Exception:
        return None


def _host_bw_ceiling_eff() -> float | None:
    """Measured 8→32-process MEMORY-BANDWIDTH speedup / 4 in the
    CURRENT window: each process streams copies of a cache-busting
    buffer; the aggregate byte rate is what a shuffle/decode-heavy wide
    job actually competes for.  Co-tenant bandwidth pressure shows here
    when the CPU-burn probe still reads ~1.0."""
    import multiprocessing as mp

    import numpy as np

    def stream(q, dur):
        src = np.ones(32 * 1024 * 1024 // 8, dtype=np.float64)  # 32 MB
        dst = np.empty_like(src)
        t0 = time.monotonic()
        n = 0
        while time.monotonic() - t0 < dur:
            np.copyto(dst, src)
            n += src.nbytes
        q.put(n)

    def level(nproc, dur=4.0):
        q = mp.Queue()
        ps = [mp.Process(target=stream, args=(q, dur)) for _ in range(nproc)]
        for p in ps:
            p.start()
        total = sum(q.get() for _ in ps)
        for p in ps:
            p.join()
        return total / dur

    try:
        best8 = best32 = 0.0
        for _ in range(2):
            best8 = max(best8, level(8))
            best32 = max(best32, level(32))
        return round(best32 / best8 / 4.0, 3)
    except Exception:
        return None


def run_replay_only(events_per_row: int | None = None) -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.target_max_block_size = TARGET_BLOCK_MB * 1024 * 1024
    out = bench_cdc_replay(SF_DIR, events_per_row or EVENTS_PER_ROW)
    ray.shutdown()
    return out


def run_skew() -> dict:
    """Pathological-skew soak: the SAME replay over a uniform WAL vs a
    WAL where ONE (repo, path) key receives 50% of all events — the
    worst case for a key-partitioned apply (a hot repo spreads across
    buckets via the (repo, path) hash; a single hot key cannot spread,
    only the per-batch LWW pre-reduce saves it).  Interleaved best-of-2
    per variant (noisy shared host); reports events/s both ways plus
    the hot/uniform throughput ratio."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.target_max_block_size = TARGET_BLOCK_MB * 1024 * 1024

    variants = {"uniform": {}, "hot_key_50pct": {"hot_key_frac": 0.5}}
    for kw in variants.values():  # generate + page-cache both first
        ensure_wal(SF_DIR, **kw)
    runs: dict[str, list[dict]] = {k: [] for k in variants}
    for _ in range(2):  # interleave so host drift hits both equally
        for name, kw in variants.items():
            runs[name].append(bench_cdc_replay(SF_DIR, **kw))
    best = {k: max(rs, key=lambda r: r["eps"]) for k, rs in runs.items()}
    result = {
        "metric": "skew-soak replay events/sec (uniform vs one-key-50pct)",
        "value": round(best["hot_key_50pct"]["eps"], 1),
        "unit": "events/sec",
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "events": best["uniform"]["events"],
        "eps_uniform": round(best["uniform"]["eps"], 1),
        "eps_hot_key_50pct": round(best["hot_key_50pct"]["eps"], 1),
        "hot_over_uniform": round(
            best["hot_key_50pct"]["eps"] / best["uniform"]["eps"], 3
        ),
    }
    ray.shutdown()
    return result


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--skew" in sys.argv:
        print(json.dumps(run_skew()))
    elif "--replay-only" in sys.argv:
        epr = SCALING_EVENTS_PER_ROW if "--scaling-wal" in sys.argv else None
        print(json.dumps(run_replay_only(epr)))
    else:
        print(json.dumps(run_bench()))
