"""Lake maintenance: vacuum old commit versions, inspect history.

Every commit attempt writes fresh bucket files under its own
``data/v{N}-{hex}/`` and the manifest carries forward pointers to
untouched buckets from older versions — so old version dirs accumulate a
mix of still-referenced and orphaned files (an attempt that lost a
commit race, or crashed before its manifest, references nothing).
``vacuum`` deletes files not referenced by the newest manifest (and
optionally keeps the last K manifests for time travel), never touching
anything the live manifest points at — the safe-GC contract of
manifest-gated visibility.
"""

from __future__ import annotations

import glob
import json
import os

from plugin_debezium_ray.state.checkpoint import CheckpointManager


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
    checkpoints exact."""
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

    deleted = freed = kept = 0
    for p in glob.glob(os.path.join(table_dir, "data", "v*", "*.parquet")):
        rp = os.path.realpath(p)
        if rp in referenced:
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
        for d in glob.glob(os.path.join(table_dir, "data", "v*")):
            if not os.listdir(d):
                os.rmdir(d)
    return {"deleted_files": deleted, "freed_bytes": freed, "kept_files": kept}
