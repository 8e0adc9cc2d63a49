"""Run-time pieces shared by the workloads: the Ray session, operation
bounds and failure accounting, RSS sampling and lake copies."""

from __future__ import annotations

import os
import shutil
import threading
import time

#: Ray's logical CPU slots.  Fixed at >= 2: with ``num_cpus=1`` the
#: streaming engine's two 0.5-CPU shards take every slot and its decode
#: tasks never run (a known hang, not worked around here).
NUM_CPUS = 2
#: plasma store size; the inputs are tens of MB
OBJECT_STORE_BYTES = 512 << 20
#: upper bound on any single engine call
OP_TIMEOUT_S = 60.0
#: a timed sample during which the hypervisor stole more than this share
#: of the VM's CPU ticks measures other tenants more than the engine: such
#: a sample made a 1.4 s replay call take 1.8-2.7 s
QUIET_STEAL = 0.015
#: AF_UNIX socket paths are limited to 107 bytes on Linux; Ray puts its
#: sockets about 80 characters below its temp dir
_SOCKET_SUFFIX_LEN = 80


def ray_temp_dir(work_dir: str) -> str:
    """Ray's temp dir inside the work dir.  When the absolute path leaves
    no room for Ray's socket names, the same directory is named through
    ``/proc/self/cwd`` (every Ray process inherits the working dir)."""
    path = os.path.abspath(os.path.join(work_dir, "ray"))
    if len(path) + _SOCKET_SUFFIX_LEN > 107:
        path = os.path.join("/proc/self/cwd", os.path.relpath(path))
    return path


def start_ray(work_dir: str) -> None:
    import ray
    from ray.data import DataContext

    os.makedirs(work_dir, exist_ok=True)
    # earlier sessions' logs are not needed; keep the temp dir bounded
    shutil.rmtree(os.path.join(work_dir, "ray"), ignore_errors=True)
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_temp_dir(work_dir),
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def warm_up(work_dir: str) -> None:
    """A small replay through the engine (generate, project, shuffle,
    merge, write): pays Ray worker start-up and the workers' first
    imports and Ray Data jobs before anything is timed."""
    from plugin_debezium_ray.config import CaptureConfig
    from plugin_debezium_ray.pipelines.replay import ReplayJob
    from plugin_debezium_ray.sources.binlog import binlog, snapshot_envelopes

    lake = os.path.join(work_dir, "lakes", "warm-up")
    shutil.rmtree(lake, ignore_errors=True)
    ReplayJob(CaptureConfig(num_buckets=8), lake).run(
        binlog(4_000, 400, seed=0, override_num_blocks=NUM_CPUS),
        snapshot=snapshot_envelopes(400, seed=0),
    )


class Tally:
    """Attempted and failed operations of one run.  An exception, a
    timeout or a parity miss is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.timed_out = False

    def call(self, fn, *args, **kw):
        """Run one operation under ``OP_TIMEOUT_S``; returns its result,
        or None after counting it failed."""
        self.attempted += 1
        box: dict = {}

        def target():
            try:
                box["value"] = fn(*args, **kw)
            except Exception as e:  # reported by the caller's thread
                box["error"] = e

        t = threading.Thread(target=target, daemon=True)
        t.start()
        t.join(OP_TIMEOUT_S)
        if t.is_alive():
            self.timed_out = True
            return self.fail(f"timeout after {OP_TIMEOUT_S:.0f}s in {fn.__name__}")
        if "error" in box:
            return self.fail(f"{type(box['error']).__name__}: {box['error']}")
        return box["value"]

    def check(self, ok: bool, what: str) -> None:
        """Record a correctness check of an operation already counted."""
        if not ok:
            self.fail(what)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)
        return None

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


# ---------------------------------------------------------------- memory


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def tree_rss_bytes(root_pid: int) -> int:
    """Summed resident set of ``root_pid`` and all its descendants (the
    benchmark process, raylet, GCS and every Ray worker it started)."""
    kids = _children_map()
    page = os.sysconf("SC_PAGE_SIZE")
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, []))
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except OSError:
            continue
    return total


def kill_children(root_pid: int) -> None:
    """SIGKILL every descendant of ``root_pid``."""
    import signal

    kids, todo = _children_map(), [root_pid]
    while todo:
        for pid in kids.get(todo.pop(), []):
            todo.append(pid)
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


class RssSampler:
    """Samples the process tree's RSS in a thread; ``peak_mb`` after
    ``stop()``."""

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pid = os.getpid()
        while True:
            self.peak = max(self.peak, tree_rss_bytes(pid))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, tree_rss_bytes(os.getpid()))

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


# ------------------------------------------------------------------ lakes


def copy_lake(src: str, dst: str) -> str:
    """A fresh, self-contained copy of a committed lake: the files, with
    the manifests' absolute bucket paths moved to the copy."""
    src, dst = os.path.abspath(src), os.path.abspath(dst)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    meta = os.path.join(dst, "_meta")
    for name in os.listdir(meta):
        if name.startswith("manifest-") and name.endswith(".json"):
            p = os.path.join(meta, name)
            with open(p) as f:
                body = f.read()
            with open(p, "w") as f:
                f.write(body.replace(src + os.sep, dst + os.sep))
    return dst


def clock() -> float:
    return time.perf_counter()


def cpu_ticks() -> tuple[int, int]:
    """(all CPU ticks, ticks stolen by the hypervisor) since boot."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return sum(ticks), ticks[7]


def steal_share(t0: tuple[int, int], t1: tuple[int, int]) -> float:
    """Share of CPU ticks between two ``cpu_ticks()`` readings that the
    hypervisor gave to other tenants: host noise."""
    return (t1[1] - t0[1]) / max(1, t1[0] - t0[0])


def quiet(samples: list, steals: list[float]) -> list:
    """The samples taken while the host was quiet: those whose steal share
    is at most ``QUIET_STEAL``, but never fewer than the quietest quarter.
    On a quiet host every sample is kept."""
    order = sorted(range(len(samples)), key=steals.__getitem__)
    keep = max(-(-len(samples) // 4),
               sum(s <= QUIET_STEAL for s in steals))
    return [samples[i] for i in sorted(order[:keep])]
