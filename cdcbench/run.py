"""CDC apply benchmark: one command, three seeded workloads.

    python3 cdcbench/run.py --workload bootstrap|tail|restart \
        --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the last stdout line is
the end-to-end result; with ``--trace 1`` it holds the per-layer metrics
of a staged, traced replay.  The line before it records the run's context
(cores, Ray's logical CPUs, sample counts, failure notes).  Everything the
run writes goes under ``.cdcbench/`` in the repository root.  See
``cdcbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".cdcbench")
#: a run that has not finished by then is stopped without a result
DEADLINE_S = 170.0

UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "freshness_p50_s": "s",
    "freshness_p75_s": "s",
    "busy_share": "ratio",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("bootstrap", "tail", "restart"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _nproc() -> str:
    """What ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    import subprocess

    try:
        return subprocess.run(["nproc"], capture_output=True, text=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _watchdog() -> None:
    """Stop a run that would overrun its time limit: kill every process
    it started, then exit without a result."""
    from cdcbench.harness import kill_children

    print(f"cdcbench: no result after {DEADLINE_S:.0f}s, stopping",
          file=sys.stderr, flush=True)
    kill_children(os.getpid())
    os._exit(3)


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # Ray workers import the engine and the benchmark from the root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    try:
        import ray

        import plugin_debezium_ray.pipelines.replay  # noqa: F401
        import plugin_debezium_ray.pipelines.streaming_apply  # noqa: F401
    except ImportError as e:
        print(f"cdcbench: cannot import the engine: {e}", file=sys.stderr)
        return 2
    from cdcbench.fixtures import Fixtures
    from cdcbench.harness import (
        NUM_CPUS, Tally, clock, cpu_ticks, start_ray, steal_share, warm_up,
    )
    from cdcbench.staged import PER_LAYER, Tracer, traced_run
    from cdcbench.workloads import Workloads, fixture_tail_segments, make_job

    timer = threading.Timer(DEADLINE_S - (clock() - T_START), _watchdog)
    timer.daemon = True
    timer.start()

    tally = Tally()
    context = {"workload": args.workload, "seed": args.seed,
               "nproc": _nproc(), "cpus": len(os.sched_getaffinity(0)),
               "ray_num_cpus": NUM_CPUS}
    try:
        start_ray(WORK)
        warm_up(WORK)
        setup_s = clock() - T_START
        fx = Fixtures(os.path.join(WORK, "cache"), args.seed,
                      fixture_tail_segments(args.workload, args.seconds))
        # tail and restart start from the committed base lake
        fx.ensure(None if args.workload == "bootstrap" else make_job)
        context["fixtures_s"] = round(clock() - T_START - setup_s, 3)
        runner = Workloads(fx, tally, WORK, args.seconds)
        ticks = cpu_ticks()
        if args.trace:
            tracer = Tracer()
            layer = traced_run(args.workload, runner, tracer)
            tracer.dump(os.path.join(
                WORK, "traces", f"{args.workload}-s{args.seed}.json"))
            metrics = {k: {"value": layer[k], "unit": unit}
                       for k, unit in PER_LAYER.items()}
        else:
            if args.workload == "tail":
                lake, session, tail_setup_s = runner.tail_setup()
                setup_s += tail_setup_s
                e2e = runner.tail(lake, session)
            else:
                e2e = getattr(runner, args.workload)()
            e2e["setup_s"] = setup_s
            e2e["ok_share"] = tally.ok_share
            missing = [k for k in UNITS if k not in e2e]
            if missing:
                tally.fail(f"no samples for {', '.join(missing)}")
                return 1
            metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in UNITS}
        # host noise shows as CPU time stolen from this VM
        context["steal_share"] = round(steal_share(ticks, cpu_ticks()), 4)
        context.update(runner.context)
    finally:
        ray.shutdown()
        timer.cancel()
        context.update(attempted=tally.attempted, failed=tally.failed,
                       notes=tally.notes[:10])
        print(json.dumps({"context": context}), flush=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
