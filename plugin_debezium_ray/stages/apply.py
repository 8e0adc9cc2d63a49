"""Keyed last-write-wins apply — the upsert merge (SURVEY.md §2.5/§2.6).

The reference gets ordering/idempotence from a single consumer thread +
offset restore (`ChangeConsumer.java:70-95`, `AbstractDebeziumTask.java:640-693`).
We shard it: ordering is only required per primary key, so

  1. ``project_for_apply`` (map_batches, Arrow): envelope → narrow apply
     rows (bucket, key, lsn, seq, deleted, payload) — drops DDL/tombstones.
  2. **per-batch pre-reduce**: within each batch keep only the winning
     (max (lsn, seq)) event per key.  LWW is a semigroup, so this partial
     reduce is lossless and shrinks the ONE hash shuffle that follows.
  3. ``groupby("_bucket").map_groups(merge)``: per bucket — ledger-filter
     already-applied events, final LWW dedup, merge with the bucket's
     prior Parquet state, write a deterministic new bucket file, return a
     stats/lineage row (ST6 metrics).

Exactly-once under retries (SURVEY.md §7.4 #1): events ≤ ledger are
skipped (idempotent replay) and bucket files have deterministic names
gated by the manifest commit (idempotent task retry).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from plugin_debezium_ray.envelope import DELETED_OPS, OP_DDL, OP_MESSAGE

BUCKET_COL = "_bucket"
WEIGHT_COL = "_weight"
_KEY_SEP = "\x1f"

# Version tag of BucketMerge's bucket-fingerprint algorithm, stamped into
# every manifest.  The incremental XOR update (prior_fp ^ removed ^ added)
# is only sound against a prior digest computed by the SAME scheme; a lake
# committed under a different (or unversioned, pre-r3) scheme must fall
# back to a full digest recompute for touched buckets.  Bump this whenever
# _xor_rows changes hash keys, lane count, or value canonicalization.
FINGERPRINT_SCHEME = "xor256-siphash4-str-v2"

# the ONLY envelope columns the keyed apply reads (project_for_apply):
# pass ``read_parquet(wal, columns=list(APPLY_COLUMNS))`` so before-images,
# source/transaction structs and ts_ms never leave the Parquet footer —
# measured 0.70 → 0.45 s for the count-only scan of the 2.1M-event bench
# WAL (before/after both carry full row images, so this halves read bytes).
# Capture/iter_events surfaces need the full envelope; apply does not.
APPLY_COLUMNS = ("lsn", "seq", "op", "after", "key")

APPLY_STATS_FIELDS = [
    ("bucket", pa.int32()),
    ("rows", pa.int64()),
    ("events_seen", pa.int64()),
    ("events_applied", pa.int64()),
    ("upserts", pa.int64()),
    ("deletes", pa.int64()),
    ("last_lsn", pa.int64()),
    ("last_seq", pa.int64()),
    ("fingerprint", pa.string()),
    ("path", pa.string()),
    ("apply_seconds", pa.float64()),
]


def _one_chunk(col) -> pa.Array:
    """ChunkedArray → Array without copying when there is one chunk.
    ``combine_chunks()`` always concatenates — measured 43 ms per
    131k-row batch on the wide ``after`` struct (content strings copied)
    even when the input has a single chunk, which is the normal
    map_batches case."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def _composite_key(t: pa.Table | dict, key_cols: tuple[str, ...]) -> np.ndarray:
    cols = [
        pc.cast(t[c] if isinstance(t, pa.Table) else t[c], pa.string())
        for c in key_cols
    ]
    joined = cols[0] if len(cols) == 1 else pc.binary_join_element_wise(*cols, _KEY_SEP)
    joined = _one_chunk(joined)
    return joined.to_numpy(zero_copy_only=False)


def _evolve_cols(
    cols: dict[str, pa.Array],
    n: int,
    renames: dict[str, str] | None,
    added: list[tuple[str, str, object]] | None,
) -> dict[str, pa.Array]:
    """Schema-registry view on the flattened image: rename old columns,
    add new ones with defaults (ST3 — the schema-history role)."""
    if renames:
        cols = {renames.get(k, k): v for k, v in cols.items()}
    for name, typ, default in added or []:
        if name not in cols:
            at = pa.type_for_alias(typ) if isinstance(typ, str) else typ
            cols[name] = (
                pa.nulls(n, at) if default is None else pa.array([default] * n, type=at)
            )
    return cols


def project_for_apply(
    key_cols: tuple[str, ...],
    num_buckets: int,
    *,
    ledger: dict[int, tuple[int, int]] | None = None,
    max_lsn: int | None = None,
    renames: dict[str, str] | None = None,
    added_columns: list[tuple[str, str, object]] | None = None,
):
    """Build the map_batches fn: envelope batch → pre-reduced apply rows.

    Output columns: ``lsn, seq, deleted, <payload cols>, _bucket`` with key
    columns coalesced from the key struct (present even on deletes, whose
    after-image is null).
    """

    def project(t: pa.Table) -> pa.Table:
        n = len(t)
        deleted = (
            pc.fill_null(
                pc.is_in(t["op"], value_set=pa.array(list(DELETED_OPS))), False
            ).combine_chunks()
            if n
            else pa.nulls(0, pa.bool_())
        )
        after = _one_chunk(t["after"])
        ptype = after.type
        names = [ptype.field(i).name for i in range(ptype.num_fields)]
        cols = dict(zip(names, after.flatten()))
        cols = _evolve_cols(cols, n, renames, added_columns)
        key = _one_chunk(t["key"])
        kt = key.type
        kflat = key.flatten()  # honors a null key struct (.field leaks values)
        for i in range(kt.num_fields):
            kname = kt.field(i).name
            cols[kname] = (
                pc.coalesce(cols[kname], kflat[i])
                if kname in cols
                else kflat[i]
            )
        out = pa.table(
            {
                "lsn": _one_chunk(t["lsn"]),
                "seq": _one_chunk(t["seq"]),
                "deleted": deleted,
                **cols,
            }
        )
        # composite key computed ONCE, reused for bucket hash + pre-reduce
        key = _composite_key(out, key_cols)
        h = pd.util.hash_array(key.astype(object, copy=False))
        bucket = pa.array((h % np.uint64(num_buckets)).astype(np.int32))
        return out.append_column(BUCKET_COL, bucket), key

    def fn(t: pa.Table) -> pa.Table:
        # drop non-envelope rows (DDL / tombstones): op must be a data op.
        # op=m (logical decoding message, `ChangeConsumer.java:196-213`)
        # flows through format/filter like any envelope but carries no
        # key or row image — it is not a data mutation, so the keyed
        # apply skips it (op=t truncate DOES apply: DELETED_OPS marks it
        # deleted, `AbstractDebeziumTask.java:813-817`).
        op = t["op"]
        keep = pc.and_(
            pc.is_valid(op),
            pc.and_(
                pc.invert(pc.fill_null(pc.equal(op, OP_DDL), False)),
                pc.invert(pc.fill_null(pc.equal(op, OP_MESSAGE), False)),
            ),
        )
        if max_lsn is not None:
            keep = pc.and_(keep, pc.less_equal(t["lsn"], max_lsn))
        # data batches rarely contain DDL: skip the whole-table copy
        # when the mask keeps every row (~75 ms per 131k-row batch)
        if len(t) and not bool(pc.all(pc.fill_null(keep, False)).as_py()):
            t = t.filter(keep)
        out, key = project(t)
        if len(out) == 0:
            return out

        # ledger filter: skip events at-or-before the per-bucket high-water
        # mark (ST1 idempotent replay, AbstractDebeziumTask.java:640-693)
        if ledger:
            n_before = len(out)
            out = _ledger_filter(out, ledger)
            if len(out) == 0:
                return out
            if len(out) != n_before:
                key = _composite_key(out, key_cols)

        # per-batch pre-reduce: last event per key wins (lossless for LWW).
        # `_weight` = raw events each winner represents, so consumed-record
        # accounting (the reference Output.size) survives the reduce with
        # no second pass over the stream.
        win, weights = _winners_and_weights(
            key, out["lsn"].to_numpy(), out["seq"].to_numpy()
        )
        if len(win) < len(out):
            out = out.take(pa.array(win))
        else:
            # no intra-batch duplicate keys: every row is its own winner
            # (weights all 1) — skip the gather of the wide content cols
            weights = np.ones(len(out), dtype=np.int64)
        return out.append_column(WEIGHT_COL, pa.array(weights, type=pa.int64()))

    return fn


def _ledger_filter(t: pa.Table, ledger: dict[int, tuple[int, int]]) -> pa.Table:
    b = t[BUCKET_COL].to_numpy()
    lsn = t["lsn"].to_numpy()
    seq = t["seq"].to_numpy()
    led_lsn = np.full(len(t), -1, dtype=np.int64)
    led_seq = np.full(len(t), -1, dtype=np.int64)
    if ledger:
        buckets = np.fromiter(ledger.keys(), dtype=np.int64)
        vals = np.array([ledger[int(x)] for x in buckets], dtype=np.int64)
        lut_lsn = np.full(int(buckets.max()) + 1, -1, dtype=np.int64)
        lut_seq = np.full(int(buckets.max()) + 1, -1, dtype=np.int64)
        lut_lsn[buckets] = vals[:, 0]
        lut_seq[buckets] = vals[:, 1]
        in_range = b < len(lut_lsn)
        led_lsn[in_range] = lut_lsn[b[in_range]]
        led_seq[in_range] = lut_seq[b[in_range]]
    keep = (lsn > led_lsn) | ((lsn == led_lsn) & (seq > led_seq))
    if keep.all():  # resume batches past the high-water mark: no copy
        return t
    return t.filter(pa.array(keep))


def _winners_and_weights(
    key: np.ndarray, lsn: np.ndarray, seq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Winner index (the max-(lsn, seq) row) per key plus the count of
    rows it subsumes — pure numpy after a single factorize pass, no
    object-dtype groupby in the hot path.

    factorize → lexsort by (lsn, seq) → reversed-order np.unique gives
    the LAST occurrence per key code (= LWW winner), all vectorized."""
    codes, _ = pd.factorize(key, use_na_sentinel=False)
    order = np.lexsort((seq, lsn))  # ascending by (lsn, seq)
    rev = order[::-1]
    _, first_in_rev = np.unique(codes[rev], return_index=True)
    win = rev[first_in_rev]
    weights = np.bincount(codes)[codes[win]]
    return win, weights


class BucketMerge:
    """``map_groups`` callable: merge one bucket's winning events into the
    bucket's prior lake state and write the new bucket file.

    The Ray-native analogue of the reference's single-writer sink + offset
    store: state lives in Parquet keyed by deterministic bucket file names;
    visibility is gated by the manifest commit (state/checkpoint.py).
    """

    def __init__(
        self,
        key_cols: tuple[str, ...],
        out_dir: str,
        commit_id: str,
        *,
        prior_paths: dict[int, str] | None = None,
        prior_fingerprints: dict[int, str] | None = None,
        ledger: dict[int, tuple[int, int]] | None = None,
        fingerprint_col: str | None = "content",
        renames: dict[str, str] | None = None,
    ):
        self.key_cols = key_cols
        self.out_dir = out_dir
        self.commit_id = commit_id
        self.prior_paths = prior_paths or {}
        self.prior_fingerprints = prior_fingerprints or {}
        self.ledger = ledger or {}
        self.fingerprint_col = fingerprint_col
        # schema-registry rename map (old→new): prior bucket files
        # written under a pre-rename epoch read back under the CURRENT
        # column names, so a concat with renamed new rows doesn't fork
        # the column into two (ST3 cross-commit evolution).  Key-column
        # renames are out of scope (they'd change the bucket hash).
        self.renames = renames or {}

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        if len(group) == 0:
            return pa.table({k: pa.nulls(0, v) for k, v in APPLY_STATS_FIELDS})
        bucket = int(group[BUCKET_COL][0].as_py())
        events_seen = (
            int(pc.sum(group[WEIGHT_COL]).as_py() or 0)
            if WEIGHT_COL in group.column_names
            else len(group)
        )

        # defense-in-depth ledger check (pre-filter already ran upstream;
        # a retried upstream task may resend — skipping here keeps apply
        # idempotent per event, SURVEY.md §7.4 #1)
        led = self.ledger.get(bucket)
        if led is not None:
            lsn = group["lsn"].to_numpy()
            seq = group["seq"].to_numpy()
            keep = (lsn > led[0]) | ((lsn == led[0]) & (seq > led[1]))
            group = group.filter(pa.array(keep))

        stats = {k: None for k, _ in APPLY_STATS_FIELDS}
        stats["bucket"] = bucket
        stats["events_seen"] = events_seen

        # final LWW dedup across batches
        key = _composite_key(group, self.key_cols)
        win, _ = _winners_and_weights(
            key, group["lsn"].to_numpy(), group["seq"].to_numpy()
        )
        group = group.take(pa.array(win))
        key = key[win]

        last_i = int(np.lexsort((group["seq"].to_numpy(), group["lsn"].to_numpy()))[-1])
        stats["last_lsn"] = int(group["lsn"][last_i].as_py())
        stats["last_seq"] = int(group["seq"][last_i].as_py())
        stats["events_applied"] = len(group)

        deleted = group["deleted"].to_numpy(zero_copy_only=False).astype(bool)
        stats["deletes"] = int(deleted.sum())
        stats["upserts"] = int(len(group) - deleted.sum())

        data_cols = [
            c
            for c in group.column_names
            if c not in ("deleted", BUCKET_COL, WEIGHT_COL)
        ]
        upserts = group.filter(pa.array(~deleted)).select(data_cols)

        prior_path = self.prior_paths.get(bucket)
        prior_fp = self.prior_fingerprints.get(bucket)
        fp: str | None = None
        if prior_path is not None and os.path.exists(prior_path):
            prior = pq.read_table(prior_path)
            if self.renames:
                new_names = [self.renames.get(c, c) for c in prior.column_names]
                if new_names != prior.column_names:
                    prior = prior.rename_columns(new_names)
            prior_key = _composite_key(prior, self.key_cols)
            dead = pd.Index(prior_key).isin(key)  # replaced or deleted keys
            # promote unifies schemas across evolution epochs: columns
            # added since the prior commit read back as null in old rows
            merged = pa.concat_tables(
                [prior.filter(pa.array(~dead)), upserts],
                promote_options="default",
            )
            if prior_fp is not None:
                # incremental fingerprint: XOR algebra lets us update the
                # partition digest touching ONLY removed + added rows —
                # never re-hashing the unchanged bulk (10^10-row scale)
                removed = self._xor_rows(
                    prior.filter(pa.array(dead)), prior_key[dead]
                )
                added = self._xor_rows(upserts, key[~deleted])
                fp = f"{int(prior_fp, 16) ^ removed ^ added:064x}"
        else:
            merged = upserts

        # deterministic row order → byte-stable files for the rerun test.
        # Arrow's multi-key sort (C++ kernels) sorts each key column in
        # its NATIVE type order — integers numerically, not as strings —
        # which intentionally differs from the pre-r3 argsort on
        # \x1f-joined key strings.  Only within-version byte-stability is
        # guaranteed; files written by older code are value-equal but not
        # byte-comparable.  Keys are unique post-merge, so the order (and
        # the order-independent fingerprint) is total and deterministic.
        order = pc.sort_indices(
            merged, sort_keys=[(c, "ascending") for c in self.key_cols]
        )
        merged = merged.take(order)

        path = os.path.join(self.out_dir, self.commit_id, f"bucket={bucket:05d}.parquet")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        pq.write_table(merged, tmp, compression="zstd")
        os.replace(tmp, path)  # idempotent retry: same name, same bytes

        stats["rows"] = len(merged)
        stats["path"] = path
        if fp is None:
            # full digest needed only on a bucket's first commit — the
            # incremental path above never builds the composite key
            fp = f"{self._xor_rows(merged, _composite_key(merged, self.key_cols)):064x}"
        stats["fingerprint"] = fp
        stats["apply_seconds"] = time.monotonic() - t0
        return pa.table(
            {k: pa.array([stats[k]], type=typ) for k, typ in APPLY_STATS_FIELDS}
        )

    # four fixed 16-byte SipHash keys → four independent 64-bit lanes per
    # row = one 256-bit per-row digest, fully vectorized
    _FP_LANE_KEYS = ("fp-lane-0-------", "fp-lane-1-------",
                     "fp-lane-2-------", "fp-lane-3-------")

    def _xor_rows(self, t: pa.Table, keys: np.ndarray) -> int:
        """Order-independent row-set digest: XOR of a vectorized 256-bit
        keyed hash of (key || content-ish column) per row — the
        distributed parity primitive (never collects rows to the driver),
        and a commutative group under XOR so removals/additions update it
        incrementally.  Vectorized: one ``pd.util.hash_array`` (keyed
        SipHash, deterministic across processes) per 64-bit lane instead
        of a per-row Python ``hashlib`` loop."""
        n = len(t)
        if n == 0:
            return 0
        col = self.fingerprint_col if self.fingerprint_col in t.column_names else None
        key_arr = pa.array(keys.astype(str))
        if col:
            vals = pc.fill_null(pc.cast(_one_chunk(t[col]), pa.string()), "")
            joined = pc.binary_join_element_wise(key_arr, vals, "\x00")
        else:
            joined = pc.binary_join_element_wise(key_arr, pa.scalar(""),
                                                 pa.scalar("\x00"))
        obj = joined.to_numpy(zero_copy_only=False)
        acc = 0
        for lane, hk in enumerate(self._FP_LANE_KEYS):
            lane_acc = np.bitwise_xor.reduce(pd.util.hash_array(obj, hash_key=hk))
            acc ^= int(lane_acc) << (64 * lane)
        return acc
