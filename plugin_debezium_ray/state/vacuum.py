"""Lake maintenance: vacuum old commit versions, inspect history.

Every commit attempt writes fresh bucket files under its own
``data/v{N}-{hex}/`` and the manifest carries forward pointers to
untouched buckets from older versions — so old version dirs accumulate a
mix of still-referenced and orphaned files (an attempt that lost a
commit race, or crashed before its manifest, references nothing).
``vacuum`` deletes files not referenced by the newest manifest (and
optionally keeps the last K manifests for time travel), never touching
anything the live manifest points at — the safe-GC contract of
manifest-gated visibility.  Attempt directories of versions newer than
the one it restored belong to a writer still in flight and are left
alone.
"""

from __future__ import annotations

import glob
import json
import os
import re

from plugin_debezium_ray.state.checkpoint import CheckpointManager


#: the commit version in a lake path: ``data/v000003-1a2b3c4d`` or
#: ``_meta/manifest-v000003.json.k3j2l1x_``
_VERSION = re.compile(r"v(\d+)")


def list_history(table_dir: str) -> list[dict]:
    """All committed manifests, oldest first: version, events, buckets.
    A manifest temp file left by a crash before its link is not a commit
    and does not match the pattern."""
    out = []
    for p in sorted(glob.glob(os.path.join(table_dir, "_meta", "manifest-v*.json"))):
        try:
            with open(p) as f:
                m = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        out.append(
            {
                "version": int(m.get("version", 0)),
                "parent": m.get("parent"),
                "events_applied": (m.get("metrics") or {}).get("events_applied"),
                "buckets": len(m.get("buckets", {})),
                "path": p,
            }
        )
    return out


def vacuum(
    table_dir: str,
    *,
    keep_manifests: int = 1,
    keep_every: int | None = None,
    dry_run: bool = False,
) -> dict:
    """Delete data files and manifests not needed by the retained
    commits.  Returns {deleted_files, freed_bytes, kept_files}.  A file
    referenced by ANY kept manifest survives.

    Retention policy: the newest ``keep_manifests`` commits always
    survive; ``keep_every=M`` additionally retains every Mth version
    (v % M == 0) as a sparse long-horizon history.  This is the
    compaction knob for long follow-mode sessions — a stream committing
    every arrival wave accumulates one manifest (plus one rewritten
    file per touched bucket) per commit, so periodic
    ``vacuum(keep_manifests=K, keep_every=M)`` bounds retained state at
    K + versions/M manifests while keeping time travel to the sparse
    checkpoints exact.

    Only versions up to the newest commit are swept: a ``data/vN-*``
    directory with N above it is a running writer's next commit, whose
    files no manifest references YET.  At or below it, crash debris goes
    too: partial ``*.parquet.tmp`` bucket files and manifest temp files
    ``_meta/manifest-vN.json.*`` left before their link."""
    ck = CheckpointManager(table_dir)
    current = ck.restore()
    if current is None:
        return {"deleted_files": 0, "freed_bytes": 0, "kept_files": 0}

    history = list_history(table_dir)
    keep_versions = {h["version"] for h in history[-max(1, keep_manifests):]}
    if keep_every is not None:
        if keep_every < 1:
            raise ValueError("keep_every must be >= 1")
        keep_versions |= {
            h["version"] for h in history if h["version"] % keep_every == 0
        }
    keep_versions.add(int(current["version"]))

    referenced: set[str] = set()
    for h in history:
        if h["version"] not in keep_versions:
            continue
        with open(h["path"]) as f:
            m = json.load(f)
        for b in m.get("buckets", {}).values():
            referenced.add(os.path.realpath(b["path"]))

    def swept(pattern: str) -> list[str]:
        """Paths matching ``pattern`` whose version is at most the
        restored one (the ``vN`` in their name)."""
        out = []
        for p in glob.glob(os.path.join(table_dir, pattern)):
            m = _VERSION.search(os.path.relpath(p, table_dir))
            if m and int(m.group(1)) <= int(current["version"]):
                out.append(p)
        return out

    dirs = swept(os.path.join("data", "v*"))
    # bucket files (``*.parquet``), partial ones (``*.parquet.tmp``) and
    # manifest temp files
    files = [f for d in dirs for f in glob.glob(os.path.join(d, "*.parquet*"))]
    files += swept(os.path.join("_meta", "manifest-v*.json.*"))
    deleted = freed = kept = 0
    for p in files:
        if os.path.realpath(p) in referenced:
            kept += 1
            continue
        freed += os.path.getsize(p)
        deleted += 1
        if not dry_run:
            os.unlink(p)
    if not dry_run:
        # drop manifests of vacuumed versions; never the newest one
        for h in history:
            if h["version"] not in keep_versions:
                os.unlink(h["path"])
        # remove now-empty version dirs
        for d in dirs:
            if not os.listdir(d):
                os.rmdir(d)
    return {"deleted_files": deleted, "freed_bytes": freed, "kept_files": kept}
