"""Atomic checkpoint manifests (ST1/ST2/ST4 of SURVEY.md §2.3).

The reference persists offsets + schema history as ONE atomic KV entry so
the two can never desync on crash, refuses to save offsets without
history, and falls back to legacy two-key state on restore
(`AbstractDebeziumTask.java:63-73,640-753`).  Our equivalent:

- a **manifest** JSON per commit: ``{version, connector_id, ledger
  {bucket: [last_lsn, last_seq]}, buckets {bucket: {path, rows,
  fingerprint, ...}}, schema (registry snapshot), metrics}``
- the manifest log IS the commit (Delta Lake's protocol): ``save()``
  fsyncs a temp file and ``os.link``s it to ``manifest-vNNNNNN.json`` —
  put-if-absent, so a second writer of vN gets ``CommitConflict`` — then
  fsyncs ``_meta``; ``restore()`` returns the highest-numbered manifest.
  There is no pointer file: a ``_meta/CURRENT`` left by older writers
  is never read.
- ``save()`` REFUSES an inconsistent save (ledger without schema when the
  source needs schema history) by returning None and writing nothing —
  the AtomicStateTest.java:71-256 contract.
- restore prefers the combined manifest; legacy split state
  (``offsets.json`` + ``history.json``) is a read-only fallback.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile

from plugin_debezium_ray.stages.apply import FINGERPRINT_SCHEME

LEGACY_OFFSETS = "offsets.json"
LEGACY_HISTORY = "history.json"


class CommitConflict(Exception):
    """Another writer already committed this manifest version."""


def _atomic_write(path: str, data: str, place=os.replace) -> None:
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        place(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class CheckpointManager:
    """Owns the manifest directory of one lake table."""

    def __init__(self, table_dir: str, *, needs_schema_history: bool = True):
        self.table_dir = table_dir
        self.meta_dir = os.path.join(table_dir, "_meta")
        self.needs_schema_history = needs_schema_history

    # ------------------------------------------------------------ save

    def save(self, manifest: dict) -> str | None:
        """Atomically commit a manifest; returns its path, or **None
        (writing nothing)** if the save would be inconsistent — offsets
        (ledger) present but schema snapshot missing while the source
        needs schema history (`AbstractDebeziumTask.java:700-732`)."""
        if (
            self.needs_schema_history
            and manifest.get("ledger")
            and manifest.get("schema") is None
        ):
            return None
        version = int(manifest["version"])
        path = self.manifest_path(version)
        try:  # put-if-absent: the link IS the commit
            _atomic_write(path, json.dumps(manifest, sort_keys=True, indent=1), os.link)
        except FileExistsError:
            raise CommitConflict(f"{path} is already committed") from None
        fd = os.open(self.meta_dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        return path

    # --------------------------------------------------------- restore

    def manifest_path(self, version: int) -> str:
        return os.path.join(self.meta_dir, f"manifest-v{int(version):06d}.json")

    def latest_path(self) -> str | None:
        """The highest-numbered manifest, or None.  A crash before the link
        leaves ``manifest-vN.json.XXXX``, which the pattern does not match."""
        paths = glob.glob(os.path.join(glob.escape(self.meta_dir), "manifest-v*.json"))
        return max(paths, key=lambda p: int(p[p.rindex("-v") + 2:-5]), default=None)

    def restore(self) -> dict | None:
        """The highest-numbered manifest; legacy two-file state only when
        there is none (combined takes precedence — AtomicStateTest
        'combined-takes-precedence'), else None (fresh lake).  A manifest
        that does not parse raises: silently starting over would
        re-snapshot a lake that has commits."""
        path = self.latest_path()
        if path is None:
            return self._restore_legacy()
        with open(path) as f:
            try:
                return json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"unreadable manifest {path}: {e}") from e

    def restore_version(self, version: int) -> dict:
        """Time-travel restore: the manifest of an EXPLICIT committed
        version (``restore()`` returns the newest).  Unlike ``restore()``'s
        None for a fresh lake, an explicitly requested version that is
        absent — never committed, or GC'd by ``vacuum`` — raises, because
        the caller named a commit they expect to exist.
        ``vacuum(keep_manifests=K)`` bounds how far back travel reaches."""
        try:
            with open(self.manifest_path(version)) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise FileNotFoundError(
                f"no readable manifest for version {version} under "
                f"{self.meta_dir} (never committed, or vacuumed — keep "
                "more history via vacuum(keep_manifests=...))"
            ) from e

    def _restore_legacy(self) -> dict | None:
        off_p = os.path.join(self.meta_dir, LEGACY_OFFSETS)
        hist_p = os.path.join(self.meta_dir, LEGACY_HISTORY)
        try:
            with open(off_p) as f:
                offsets = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        schema = None
        try:
            with open(hist_p) as f:
                schema = json.load(f)
        except (OSError, json.JSONDecodeError):
            if self.needs_schema_history:
                # offsets without required history → unusable; re-snapshot
                return None
        return {
            "version": int(offsets.get("version", 0)),
            "connector_id": offsets.get("connector_id"),
            "ledger": offsets.get("ledger", {}),
            "buckets": offsets.get("buckets", {}),
            "schema": schema,
            "legacy": True,
        }

    # --------------------------------------------------------- helpers

    def current_version(self) -> int:
        m = self.restore()
        return int(m["version"]) if m else 0

    def ledger(self) -> dict[int, tuple[int, int]]:
        return ledger_of(self.restore())

    def bucket_paths(self) -> dict[int, str]:
        return bucket_paths_of(self.restore())

    def bucket_fingerprints(self) -> dict[int, str]:
        return bucket_fingerprints_of(self.restore())


def ledger_of(m: dict | None) -> dict[int, tuple[int, int]]:
    ledger = (m or {}).get("ledger", {})
    return {int(k): (int(v[0]), int(v[1])) for k, v in ledger.items()}


def bucket_paths_of(m: dict | None) -> dict[int, str]:
    return {int(k): v["path"] for k, v in (m or {}).get("buckets", {}).items()}


def bucket_fingerprints_of(m: dict | None) -> dict[int, str]:
    """Prior bucket digests usable for the incremental XOR update.

    Returns ``{}`` when the manifest was committed under a different (or
    missing, pre-versioned) fingerprint scheme: XOR-ing new-scheme
    removed/added digests into an old-scheme value would silently break
    the incremental-equals-full invariant, so touched buckets fall back
    to a full digest recompute instead."""
    if not m or m.get("fingerprint_scheme") != FINGERPRINT_SCHEME:
        return {}
    return {
        int(k): v["fingerprint"]
        for k, v in m.get("buckets", {}).items()
        if v.get("fingerprint")
    }


def build_manifest(
    *,
    version: int,
    connector_id: str | None,
    stats_rows: list[dict],
    parent: dict | None,
    schema_snapshot: dict | None,
    extra_metrics: dict | None = None,
) -> dict:
    """Fold per-bucket apply stats into the next manifest, carrying
    forward untouched buckets from the parent (so unchanged partitions
    are never rewritten — the resumable-output layout)."""
    ledger: dict[str, list[int]] = dict((parent or {}).get("ledger", {}))
    buckets: dict[str, dict] = dict((parent or {}).get("buckets", {}))
    if parent and parent.get("fingerprint_scheme") != FINGERPRINT_SCHEME:
        # the new manifest is stamped with the CURRENT scheme, so any
        # old-scheme digest carried forward verbatim would masquerade as
        # current one commit later and feed the incremental XOR with
        # garbage.  Untouched buckets keep path/rows but drop their
        # fingerprint — they recompute in full when next touched.
        buckets = {
            k: {**v, "fingerprint": None} for k, v in buckets.items()
        }
    total_applied = 0
    total_seen = 0
    prior_files_read = 0
    merge_seconds = merge_cpu_seconds = 0.0
    for r in stats_rows:
        if r.get("bucket") is None:
            continue
        b = str(int(r["bucket"]))
        if r.get("last_lsn") is not None:
            prev = ledger.get(b)
            cand = [int(r["last_lsn"]), int(r["last_seq"])]
            if prev is None or cand > list(prev):
                ledger[b] = cand
        buckets[b] = {
            "path": r["path"],
            "rows": int(r["rows"]),
            "fingerprint": r["fingerprint"],
            "events_applied": int(r["events_applied"] or 0),
            "events_seen": int(r["events_seen"] or 0),
            "apply_seconds": float(r["apply_seconds"] or 0.0),
        }
        total_applied += int(r["events_applied"] or 0)
        total_seen += int(r["events_seen"] or 0)
        prior_files_read += int(r.get("prior_files_read") or 0)
        merge_seconds += float(r["apply_seconds"] or 0.0)
        merge_cpu_seconds += float(r.get("apply_cpu_seconds") or 0.0)
    return {
        "version": version,
        "connector_id": connector_id,
        "parent": (parent or {}).get("version"),
        "fingerprint_scheme": FINGERPRINT_SCHEME,
        "ledger": ledger,
        "buckets": buckets,
        "schema": schema_snapshot,
        "metrics": {
            "events_applied": total_applied,
            "events_seen": total_seen,
            "buckets_touched": sum(1 for r in stats_rows if r.get("bucket") is not None),
            # prior bucket files the merge read from disk (a push-route
            # shard merges over the tables it wrote the commit before)
            "prior_files_read": prior_files_read,
            # wall and process CPU time of the merge calls, summed over
            # the merge homes: CPU well under wall is a merge that waited
            # (its two writer threads can lift CPU above wall)
            "merge_seconds": round(merge_seconds, 4),
            "merge_cpu_seconds": round(merge_cpu_seconds, 4),
            **(extra_metrics or {}),
        },
    }
