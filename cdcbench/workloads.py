"""The three workloads, untraced: each drives the engine's own entry point
and returns the run's end-to-end metrics.

- ``bootstrap``: ``ReplayJob.run_from_paths(wal, snapshot_paths=snap)``
  on a fresh lake (the Python API default, the sort ``groupby`` route),
  repeated for the run length.
- ``tail``: one ``StreamingSession`` over a copy of the committed base
  lake, fed by an open loop: a segment falls due every
  ``TAIL_INTERVAL_S`` and each commit takes every segment already due.
- ``restart``: a fresh ``StreamingSession`` over a copy of the base lake
  and one ``apply_segment`` over all base WAL files, which must apply 0
  events; repeated for the run length.
"""

from __future__ import annotations

import bisect
import os
import shutil
import statistics
import time

import numpy as np

from cdcbench.fixtures import (
    NUM_BUCKETS, TAIL_SEGMENT_EVENTS, lake_fingerprint, parity_ok,
    parquet_rows,
)
from cdcbench.harness import (
    RssSampler, clock, copy_lake, cpu_ticks, quiet, steal_share,
)

#: one ``TAIL_SEGMENT_EVENTS``-event segment falls due every 0.65 s, about
#: half the follower's commit capacity: a one-segment commit costs ~0.35 s
#: on a quiet 4-vCPU VM, nearly all of it fixed cost.  The headroom keeps
#: commits below the interval when a noisy host slows them by 1.8x; past
#: that point segments queue and freshness jumps.
TAIL_INTERVAL_S = 0.65
#: the freshness p75 needs ten samples beyond it
TAIL_MIN_SEGMENTS = 40
#: batch workloads repeat their call at least this often
MIN_REPS = 3


def fixture_tail_segments(workload: str, seconds: float) -> int:
    """Tail segments a workload's fixtures need: one per
    ``TAIL_INTERVAL_S`` of the run, at least ``TAIL_MIN_SEGMENTS``, plus
    one for the warm-up commit."""
    if workload != "tail":
        return 0
    return max(TAIL_MIN_SEGMENTS, int(seconds / TAIL_INTERVAL_S)) + 1


def make_job(table_dir: str):
    from plugin_debezium_ray.config import CaptureConfig
    from plugin_debezium_ray.pipelines.replay import ReplayJob

    return ReplayJob(CaptureConfig(num_buckets=NUM_BUCKETS), table_dir)


def read_segment(paths: list[str]):
    """A WAL segment as ``follow_apply(streaming=True)`` reads it."""
    import ray.data
    from plugin_debezium_ray.stages.apply import APPLY_COLUMNS

    return ray.data.read_parquet(paths, columns=list(APPLY_COLUMNS))


def commit_segments(session, paths: list[str]):
    return session.apply_segment(read_segment(paths))


def restart_once(table_dir: str, wal_paths: list[str]):
    """What a restarted streaming follower does: a new session, then the
    whole WAL again through ``apply_segment``."""
    with make_job(table_dir).streaming_session() as session:
        return session.apply_segment(read_segment(wal_paths))


class Workloads:
    """Runs one workload; ``work_dir`` holds the lakes it writes."""

    def __init__(self, fixtures, tally, work_dir: str, seconds: float):
        self.fx = fixtures
        self.tally = tally
        self.work_dir = work_dir
        self.seconds = seconds
        self.context: dict = {}

    def lake(self, name: str) -> str:
        path = os.path.join(self.work_dir, "lakes", name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    # ----------------------------------------------------- batch ones

    def bootstrap(self) -> dict:
        fx = self.fx
        return self._repeat(
            lambda: self.lake("bootstrap"),
            lambda lake: make_job(lake).run_from_paths(
                fx.wal_paths, snapshot_paths=fx.snapshot_paths),
            lambda res: None,
        )

    def restart(self) -> dict:
        base = self.fx.ensure_base_lake(make_job)

        def no_events(res) -> None:
            self.tally.check(res.events_applied == 0,
                             f"restart applied {res.events_applied} events")

        return self._repeat(
            lambda: copy_lake(base, self.lake("restart")),
            lambda lake: restart_once(lake, self.fx.wal_paths),
            no_events,
        )

    def _repeat(self, fresh_lake, call, check) -> dict:
        """Call the engine on a fresh lake until the run length is spent
        (at least ``MIN_REPS`` times); each call's input is all due when
        it starts.  The timings come from the calls made while the host
        was quiet (``harness.quiet``).  Every resulting lake must match
        the base oracle; the parity result is kept per lake fingerprint,
        since the engine writes byte-identical lakes for the same input."""
        fx, tally = self.fx, self.tally
        oracle = fx.oracle(0)
        rows = parquet_rows(fx.wal_paths)
        walls: list[float] = []
        steals: list[float] = []
        parity: dict[str, bool] = {}
        window, reps = 0.0, 0
        with RssSampler() as rss:
            while (reps < MIN_REPS or window < self.seconds) \
                    and not tally.timed_out:
                reps += 1
                t0 = clock()
                lake = fresh_lake()
                t1, ticks = clock(), cpu_ticks()
                res = tally.call(call, lake)
                t2 = clock()
                window += t2 - t0
                if res is None:
                    continue
                walls.append(t2 - t1)
                steals.append(steal_share(ticks, cpu_ticks()))
                check(res)
                fp = lake_fingerprint(lake)
                if fp not in parity:
                    parity[fp] = parity_ok(lake, oracle)
                tally.check(parity[fp], "lake differs from the oracle")
        kept = quiet(walls, steals)
        self.context.update(reps=len(walls), quiet_reps=len(kept),
                            wal_rows=rows,
                            call_s=[round(w, 3) for w in walls],
                            call_steal=[round(s, 3) for s in steals])
        if not walls:
            return {"peak_rss_mb": rss.peak_mb}
        return {
            "events_per_s": rows / statistics.median(kept),
            "freshness_p50_s": float(np.percentile(kept, 50)),
            "freshness_p75_s": float(np.percentile(kept, 75)),
            "busy_share": sum(walls) / window,
            "peak_rss_mb": rss.peak_mb,
        }

    # ------------------------------------------------------------ tail

    def tail_setup(self):
        """Copy the base lake, open the session and make its first
        (warm-up) commit, which pays shard start-up.  Part of set-up."""
        base = self.fx.ensure_base_lake(make_job)
        t0 = clock()
        lake = copy_lake(base, self.lake("tail"))
        session = make_job(lake).streaming_session()
        self.tally.call(commit_segments, session, self.fx.tail_paths[:1])
        return lake, session, clock() - t0

    def tail(self, lake: str, session) -> dict:
        """The open loop.  Freshness and commit times come from the
        segments and commits timed while the host was quiet
        (``harness.quiet``); a segment's steal share covers its whole wait,
        from the start of the commit running when it fell due."""
        fx, tally = self.fx, self.tally
        segs = fx.tail_paths[1:]
        n = len(segs)
        starts: list[float] = []  # commit start times, with their
        ends: list[float] = []    # end times and CPU ticks at the start
        start_ticks: list[tuple[int, int]] = []
        fresh: list[float] = []
        fresh_steal: list[float] = []
        commits: list[tuple[float, int]] = []  # (seconds, rows)
        commit_steal: list[float] = []
        late = 0.0
        with RssSampler() as rss:
            t0 = clock()
            due = [t0 + i * TAIL_INTERVAL_S for i in range(n)]
            nxt, slept = 0, False
            while nxt < n and not tally.timed_out:
                now = clock()
                if due[nxt] > now:
                    time.sleep(due[nxt] - now)
                    slept = True
                    continue
                k = nxt + 1
                while k < n and due[k] <= now:
                    k += 1
                c0 = clock()
                starts.append(c0)
                start_ticks.append(cpu_ticks())
                if slept:  # the follower was idle: how late the loop woke
                    late = max(late, c0 - due[nxt])
                    slept = False
                res = tally.call(commit_segments, session, segs[nxt:k])
                c1, ticks = clock(), cpu_ticks()
                ends.append(c1)
                if res is not None:
                    commits.append((c1 - c0, (k - nxt) * TAIL_SEGMENT_EVENTS))
                    commit_steal.append(steal_share(start_ticks[-1], ticks))
                    for d in due[nxt:k]:
                        j = bisect.bisect_right(starts, d) - 1
                        if j < 0 or ends[j] <= d:  # fell due while idle
                            j = len(starts) - 1
                        fresh.append(c1 - d)
                        fresh_steal.append(steal_share(start_ticks[j], ticks))
                nxt = k
            session.close()
        tally.check(parity_ok(lake, fx.oracle(fx.tail_segments)),
                    "tailed lake differs from the oracle")
        run_length = n * TAIL_INTERVAL_S
        kept_fresh = quiet(fresh, fresh_steal)
        kept_commits = quiet(commits, commit_steal)
        self.context.update(
            segments=n, commits=len(ends), interval_s=TAIL_INTERVAL_S,
            quiet_segments=len(kept_fresh), quiet_commits=len(kept_commits),
            commit_p50_s=round(statistics.median(s for s, _ in commits), 4)
            if commits else None,
            commit_steal=[round(s, 3) for s in commit_steal],
            schedule_late_max_s=round(late, 4))
        if not commits:
            return {"peak_rss_mb": rss.peak_mb}
        busy = [s for s, _ in kept_commits]
        return {
            "events_per_s": sum(r for _, r in kept_commits) / sum(busy),
            "freshness_p50_s": float(np.percentile(kept_fresh, 50)),
            "freshness_p75_s": float(np.percentile(kept_fresh, 75)),
            "busy_share": statistics.fmean(busy) * len(commits) / run_length,
            "peak_rss_mb": rss.peak_mb,
        }
