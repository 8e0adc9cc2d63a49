"""Keyed last-write-wins apply — the upsert merge (SURVEY.md §2.5/§2.6).

The reference gets ordering/idempotence from a single consumer thread +
offset restore (`ChangeConsumer.java:70-95`, `AbstractDebeziumTask.java:640-693`).
We shard it: ordering is only required per primary key, so

  1. ``project_for_apply`` (a decode task's fn, Arrow): envelope → narrow
     apply rows (bucket, key, lsn, seq, deleted, payload) — drops
     DDL/tombstones.
  2. **per-batch pre-reduce**: within each batch keep only the winning
     (max (lsn, seq)) event per key.  LWW is a semigroup, so this partial
     reduce is lossless and shrinks the slices a decode task returns.
  3. ``BucketMerge`` over a bucket range — one call per range and
     commit, in a plain merge task or a session's ``MergeShard``:
     ledger-filter already-applied events, final LWW dedup, merge each
     bucket with its prior Parquet state, write a deterministic new
     bucket file per bucket, return one stats/lineage row per bucket
     (ST6 metrics).

Exactly-once under retries (SURVEY.md §7.4 #1): events ≤ ledger are
skipped (idempotent replay) and bucket files have deterministic names
gated by the manifest commit (idempotent task retry).
"""

from __future__ import annotations

import functools
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
# BucketMerge._row_lanes changes hash keys, lane count, or value
# canonicalization.
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
    # 1 when the bucket's prior file was read from disk, 0 when it had
    # none or its writer still held it (``BucketMerge(held=...)``)
    ("prior_files_read", pa.int64()),
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


def _large_strings(t: pa.Table) -> pa.Table:
    """``t`` with its ``string`` columns widened to ``large_string``: one
    string width in the lake, whichever width an input arrived in (a
    generated WAL carries ``large_string``, a row-level Ray ``filter``
    hands back ``string``)."""
    if not any(pa.types.is_string(f.type) for f in t.schema):
        return t
    return t.cast(pa.schema(
        [f.with_type(pa.large_string()) if pa.types.is_string(f.type) else f
         for f in t.schema],
        metadata=t.schema.metadata,
    ))


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

    The fn is a ``functools.partial`` of the module-level
    ``_project_batch``: it pickles by reference, so a decode task
    unpickles its arguments instead of rebuilding a closure.
    """
    return functools.partial(
        _project_batch, tuple(key_cols), num_buckets, ledger, max_lsn,
        renames, added_columns,
    )


def _image_rows(t: pa.Table, key_cols: tuple[str, ...], num_buckets: int,
                renames: dict[str, str] | None,
                added_columns: list[tuple[str, str, object]] | None,
                ) -> tuple[pa.Table, np.ndarray]:
    """The data envelopes ``t`` as apply rows with their bucket, and
    their composite keys."""
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


def _project_batch(
    key_cols: tuple[str, ...],
    num_buckets: int,
    ledger: dict[int, tuple[int, int]] | None,
    max_lsn: int | None,
    renames: dict[str, str] | None,
    added_columns: list[tuple[str, str, object]] | None,
    t: pa.Table,
) -> pa.Table:
    """``project_for_apply``'s fn over one envelope batch ``t``."""
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
    out, key = _image_rows(t, key_cols, num_buckets, renames, added_columns)
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
    key: np.ndarray, lsn: np.ndarray, seq: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Winner index (the max-(lsn, seq) row) per key plus the events it
    subsumes: the count of its key's rows, or the sum of their
    ``weights`` when the rows are already pre-reduced — pure numpy after
    a single factorize pass, no object-dtype groupby in the hot path.

    factorize → lexsort by (lsn, seq) → reversed-order np.unique gives
    the LAST occurrence per key code (= LWW winner), all vectorized."""
    codes, _ = pd.factorize(key, use_na_sentinel=False)
    order = np.lexsort((seq, lsn))  # ascending by (lsn, seq)
    rev = order[::-1]
    _, first_in_rev = np.unique(codes[rev], return_index=True)
    win = rev[first_in_rev]
    return win, np.bincount(codes, weights)[codes[win]].astype(np.int64)


# four fixed 16-byte SipHash keys → four independent 64-bit lanes per
# row = one 256-bit per-row digest, fully vectorized
_FP_LANE_KEYS = ("fp-lane-0-------", "fp-lane-1-------",
                 "fp-lane-2-------", "fp-lane-3-------")
# column name of the fingerprinted content in the prior key table
_FP_VALS = "\x00content"


def _xor_fold(lanes: np.ndarray, counts: np.ndarray) -> list[int]:
    """Segmented XOR: fold the ``(4, n)`` lane matrix of bucket-contiguous
    rows into one 256-bit digest per segment of ``counts[i]`` rows (an
    empty segment folds to 0)."""
    out = np.zeros((len(_FP_LANE_KEYS), len(counts)), dtype=np.uint64)
    nz = counts > 0
    if nz.any():
        # reduceat over the non-empty segments only: an empty segment
        # would otherwise yield the row at its start instead of 0
        starts = (np.cumsum(counts) - counts)[nz]
        out[:, nz] = np.bitwise_xor.reduceat(lanes, starts, axis=1)
    return [
        sum(int(out[lane, i]) << (64 * lane) for lane in range(len(out)))
        for i in range(len(counts))
    ]


class BucketMerge:
    """Merge the winning events of one or more buckets into each bucket's
    prior lake state and write the new bucket files.  A merge task hands
    it every bucket of its range, and a ``MergeShard`` every bucket it
    drained, once per commit.  Ledger check, LWW,
    per-bucket counters, the prior-key ``isin`` and the fingerprint hashes
    run once over all rows; only the per-file work (read the prior file,
    concatenate, sort, write) runs per bucket, so a file's bytes do not
    depend on which buckets shared its call.

    Returns one stats row per bucket written.  A row's ``apply_seconds``
    is the call's wall time split evenly over the buckets it wrote, so
    per-bucket sums still equal merge time.  A bucket whose rows all sit
    at or below the ledger writes nothing and returns no row: the
    manifest carries its prior entry forward.

    ``held`` maps a bucket to a ``(path, table)`` its caller wrote in an
    earlier call (``merge``'s second result).  When the manifest still
    pins that path, the held table is the bucket's prior state and its
    file is not read: bucket files are immutable and each attempt's path
    is unique (``data/v{N}-{hex}/``), so the held table is the file's
    content.  A plain merge task holds nothing and reads every prior
    file.

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
        held: dict[int, tuple[str, pa.Table]] | None = None,
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
        self.held = held or {}

    def __call__(self, group: pa.Table) -> pa.Table:
        return self.merge(group)[0]

    def merge(
        self, group: pa.Table
    ) -> tuple[pa.Table, dict[int, tuple[str, pa.Table]]]:
        """The stats rows, plus ``{bucket: (path, table)}`` of every file
        written, each table exactly as written (a later call's ``held``)."""
        t0 = time.monotonic()
        # defense-in-depth ledger check (pre-filter already ran upstream;
        # a retried upstream task may resend — skipping here keeps apply
        # idempotent per event, SURVEY.md §7.4 #1).  Dropped rows are not
        # counted as seen, as in project_for_apply.
        if len(group) and self.ledger:
            group = _ledger_filter(group, self.ledger)
        if len(group) == 0:
            return pa.table({k: pa.nulls(0, v) for k, v in APPLY_STATS_FIELDS}), {}

        buckets, b_idx = np.unique(group[BUCKET_COL].to_numpy(), return_inverse=True)
        nb = len(buckets)
        weights = (
            group[WEIGHT_COL].to_numpy()
            if WEIGHT_COL in group.column_names
            else None
        )
        events_seen = np.bincount(b_idx, weights=weights, minlength=nb)

        # final LWW dedup across batches.  A key hashes to exactly one
        # bucket, so one winner pass over all buckets equals one per
        # bucket.  Winners are then ordered by (bucket, lsn, seq): each
        # bucket's rows are contiguous and its last row is its high-water
        # mark.
        key = _composite_key(group, self.key_cols)
        lsn = group["lsn"].to_numpy()
        seq = group["seq"].to_numpy()
        win, _ = _winners_and_weights(key, lsn, seq)
        win = win[np.lexsort((seq[win], lsn[win], b_idx[win]))]
        applied = np.bincount(b_idx[win], minlength=nb)
        last = win[np.cumsum(applied) - 1]
        deleted = group["deleted"].to_numpy(zero_copy_only=False).astype(bool)[win]
        deletes = np.bincount(b_idx[win], weights=deleted, minlength=nb).astype(np.int64)
        n_up = applied - deletes
        key = key[win]

        data_cols = [
            c
            for c in group.column_names
            if c not in ("deleted", BUCKET_COL, WEIGHT_COL)
        ]
        upserts = group.select(data_cols).take(pa.array(win[~deleted]))
        up_key = key[~deleted]

        # prior state: each touched bucket's own file (it is the base of
        # that bucket's output), plus one concatenation of just the key
        # and fingerprint columns for the one-pass isin and hashing
        blist = buckets.tolist()
        priors, from_disk = {}, []
        for b in blist:
            t, read = self._read_prior(b)
            from_disk.append(int(read))
            if t is not None:
                priors[b] = t
        n_prior = np.array([len(priors[b]) if b in priors else 0 for b in blist])
        # (the empty upserts slice gives the concatenation its schema
        # when no bucket has a prior file)
        narrow = pa.concat_tables(
            [self._key_and_content(t) for t in (upserts.slice(0, 0), *priors.values())]
        )
        prior_key = _composite_key(narrow, self.key_cols)
        prior_vals = _one_chunk(narrow[_FP_VALS])
        dead = pd.Index(prior_key).isin(key)  # replaced or deleted keys

        # fingerprints by XOR algebra: with a prior digest, update it by
        # the removed (dead) prior rows and the added upserts — never
        # re-hashing the unchanged bulk (10^10-row scale); without one,
        # digest the surviving prior rows plus the upserts in full
        prior_fp = [
            self.prior_fingerprints.get(b) if b in priors else None for b in blist
        ]
        has_fp = np.array([fp is not None for fp in prior_fp])
        row_b = np.repeat(np.arange(nb), n_prior)
        hashed = dead == has_fp[row_b]
        lanes = self._row_lanes(
            np.concatenate([prior_key[hashed], up_key]),
            pa.concat_arrays([prior_vals.filter(pa.array(hashed)),
                              self._content(upserts)]),
        )
        n_hashed = int(hashed.sum())
        prior_x = _xor_fold(
            lanes[:, :n_hashed], np.bincount(row_b[hashed], minlength=nb)
        )
        added_x = _xor_fold(lanes[:, n_hashed:], n_up)

        rows, paths, written = [], [], {}
        p_off = np.cumsum(n_prior) - n_prior
        u_off = np.cumsum(n_up) - n_up
        for i, b in enumerate(blist):
            parts = [upserts.slice(int(u_off[i]), int(n_up[i]))]
            if b in priors:
                keep = ~dead[p_off[i] : p_off[i] + n_prior[i]]
                parts.insert(0, priors[b].filter(pa.array(keep)))
            # promote unifies schemas across evolution epochs: columns
            # added since the prior commit read back as null in old rows
            merged = pa.concat_tables(
                [_large_strings(t) for t in parts], promote_options="default"
            )
            rows.append(len(merged))
            written[b] = self._write(b, merged)
            paths.append(written[b][0])
        fps = [
            f"{(int(fp, 16) if fp is not None else 0) ^ px ^ ax:064x}"
            for fp, px, ax in zip(prior_fp, prior_x, added_x)
        ]
        stats = {
            "bucket": buckets,
            "rows": rows,
            "events_seen": events_seen.astype(np.int64),
            "events_applied": applied,
            "upserts": n_up,
            "deletes": deletes,
            "last_lsn": lsn[last],
            "last_seq": seq[last],
            "fingerprint": fps,
            "path": paths,
            "apply_seconds": np.full(nb, (time.monotonic() - t0) / nb),
            "prior_files_read": from_disk,
        }
        return pa.table(
            {k: pa.array(stats[k], type=typ) for k, typ in APPLY_STATS_FIELDS}
        ), written

    def _read_prior(self, bucket: int) -> tuple[pa.Table | None, bool]:
        """The bucket's committed file under the current column names (None
        for a bucket without one), and whether it was read from disk.  A
        held table written at the very path the manifest pins stands in
        for the read; any other path is read.  A committed file that is
        missing raises (``FileNotFoundError``) either way, since the held
        route still stats the path: merging the bucket as empty would
        silently drop its rows."""
        path = self.prior_paths.get(bucket)
        if path is None:
            return None, False
        held = self.held.get(bucket)
        if held is not None and held[0] == path:
            os.stat(path)
            prior, read = held[1], False
        else:
            prior, read = pq.read_table(path), True
        if self.renames:
            new_names = [self.renames.get(c, c) for c in prior.column_names]
            if new_names != prior.column_names:
                prior = prior.rename_columns(new_names)
        return prior, read

    def _write(self, bucket: int, merged: pa.Table) -> tuple[str, pa.Table]:
        """Write one bucket file, rows sorted by key; returns its path and
        the table exactly as written (one chunk per column).

        Deterministic row order → byte-stable files for the rerun test.
        Arrow's multi-key sort (C++ kernels) sorts each key column in
        its NATIVE type order — integers numerically, not as strings —
        which intentionally differs from the pre-r3 argsort on
        \\x1f-joined key strings.  Only within-version byte-stability is
        guaranteed; files written by older code are value-equal but not
        byte-comparable.  Keys are unique post-merge, so the order (and
        the order-independent fingerprint) is total and deterministic."""
        order = pc.sort_indices(
            merged, sort_keys=[(c, "ascending") for c in self.key_cols]
        )
        path = os.path.join(self.out_dir, self.commit_id, f"bucket={bucket:05d}.parquet")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        out = merged.take(order).combine_chunks()
        pq.write_table(out, tmp, compression="zstd")
        os.replace(tmp, path)  # idempotent retry: same name, same bytes
        return path, out

    def _content(self, t: pa.Table) -> pa.Array:
        """The fingerprinted content column as strings ("" for null or a
        table without the column)."""
        col = self.fingerprint_col
        if col and col in t.column_names:
            return pc.fill_null(pc.cast(_one_chunk(t[col]), pa.string()), "")
        return pa.array([""] * len(t), pa.string())

    def _key_and_content(self, t: pa.Table) -> pa.Table:
        """The key columns (as strings) and fingerprinted content of one
        prior file: one schema for every epoch, so they concatenate."""
        return pa.table(
            {
                **{c: pc.cast(t[c], pa.string()) for c in self.key_cols},
                _FP_VALS: self._content(t),
            }
        )

    @staticmethod
    def _row_lanes(keys: np.ndarray, vals: pa.Array) -> np.ndarray:
        """Per-row 256-bit digest as a ``(4, n)`` uint64 lane matrix: a
        keyed hash of key || content per row.  XOR-folded
        (``_xor_fold``) it is an order-independent row-set digest — the
        distributed parity primitive (never collects rows to the driver),
        and a commutative group under XOR so removals/additions update it
        incrementally.  Vectorized: one ``pd.util.hash_array`` (keyed
        SipHash, deterministic across processes) per 64-bit lane instead
        of a per-row Python ``hashlib`` loop.

        ``categorize=False`` is required, not a speed choice: the default
        factorizes first and treats strings equal up to the embedded NUL
        separator as one value, so a removed and an added version of the
        same key hashed in one call would share a digest."""
        if len(keys) == 0:
            return np.zeros((len(_FP_LANE_KEYS), 0), dtype=np.uint64)
        joined = pc.binary_join_element_wise(pa.array(keys.astype(str)), vals, "\x00")
        obj = joined.to_numpy(zero_copy_only=False)
        return np.stack([
            pd.util.hash_array(obj, hash_key=hk, categorize=False)
            for hk in _FP_LANE_KEYS
        ])
