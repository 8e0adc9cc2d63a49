"""Legacy-state migration (ST5) — idempotent, best-effort, never corrupts.

The reference rewrites legacy offset keys (``engine`` / old ``kestra_``
prefixes) and schema-history ``source.server`` fields in place,
idempotently; any failure leaves the file untouched (worst case:
re-snapshot) — `AbstractDebeziumTask.java:399-518`, tested by
`OffsetMigrationTest.java:30-403`.  Ours migrates v1 manifests (legacy
``connector`` key naming, string-keyed ledger under ``offsets``) to the
current layout with the same contract:

- absent / empty / corrupt file → no-op, no exception
- no legacy key present → no-op
- running twice → identical result (idempotent)
- user-supplied connector-id override is honored
"""

from __future__ import annotations

import json

from plugin_debezium_ray.state.checkpoint import CheckpointManager, _atomic_write
from plugin_debezium_ray.state.identity import is_current_format

LEGACY_IDS = ("engine",)


def migrate_manifest(
    path: str,
    new_connector_id: str,
    *,
    override_id: str | None = None,
) -> bool:
    """Rewrite a legacy manifest file in place. Returns True if changed.

    Mirrors the reference's offset-key migration semantics
    (`AbstractDebeziumTask.java:399-451`): only known-legacy identities are
    rewritten; an explicit user override wins; corruption is non-fatal.
    """
    target = override_id or new_connector_id
    try:
        with open(path) as f:
            raw = f.read()
        if not raw.strip():
            return False
        m = json.load(open(path))
    except (OSError, json.JSONDecodeError):
        return False  # absent/corrupt → leave untouched
    if not isinstance(m, dict):
        return False

    changed = False
    cid = m.get("connector_id")
    if cid != target and (
        cid is None or cid in LEGACY_IDS or not is_current_format(cid)
    ):
        m["connector_id"] = target
        changed = True

    # v1 layout: ledger nested under "offsets" keyed "<bucket>@<server>"
    if "offsets" in m and "ledger" not in m:
        ledger = {}
        for k, v in m.get("offsets", {}).items():
            b = k.split("@", 1)[0]
            ledger[str(int(b))] = [int(v[0]), int(v[1])]
        m["ledger"] = ledger
        del m["offsets"]
        changed = True

    # schema-history server field rewrite (AbstractDebeziumTask.java:465-518)
    schema = m.get("schema")
    if isinstance(schema, dict) and schema.get("server") not in (None, target):
        if schema.get("server") in LEGACY_IDS or not is_current_format(
            schema.get("server", "")
        ):
            schema["server"] = target
            changed = True

    if changed:
        try:
            _atomic_write(path, json.dumps(m, sort_keys=True, indent=1))
        except OSError:
            return False  # best-effort: failure leaves original intact
    return changed


def migrate_table_dir(table_dir: str, new_connector_id: str, **kw) -> bool:
    """Migrate the newest manifest of a lake table dir, if any."""
    path = CheckpointManager(table_dir).latest_path()
    return path is not None and migrate_manifest(path, new_connector_id, **kw)
