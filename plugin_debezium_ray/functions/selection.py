"""Corpus selection for training-data pipelines: deterministic splits
and benchmark decontamination.

Both ops are embarrassingly parallel ``map_batches`` stages — no
shuffle at all:

* ``hash_split`` assigns every row to a named split from a vectorized
  64-bit hash of its id — deterministic, order-independent, and
  mirrored EXACTLY by SQL ``hash(col) % buckets`` (the hash is DuckDB's
  own integer finalizer, re-implemented in numpy).
* ``decontaminate`` drops documents sharing word-k-grams with a
  benchmark set — the standard eval-contamination guard.  The benchmark
  side is SMALL by contract (an eval set, not a corpus): its gram
  hashes are collected once, ``ray.put`` once, and every filter task
  reads the broadcast — the canonical small-side-broadcast pattern, so
  the corpus streams through untouched by any shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_WORD_RE = None  # set lazily from dedup to share one compiled regex


def _word_re():
    global _WORD_RE
    if _WORD_RE is None:
        from plugin_debezium_ray.functions.dedup import _WORD_RE as r

        _WORD_RE = r
    return _WORD_RE


# -------------------------------------------------------------- splits

_DUCK_MULT = np.uint64(0xD6E8FEB86659FD93)


def duckdb_hash64(x: np.ndarray) -> np.ndarray:
    """DuckDB's 64-bit integer hash (``murmurhash64`` finalizer from
    duckdb ``common/types/hash.hpp``), vectorized over a numpy array —
    so a split predicate written here is mirrored bit-for-bit by SQL
    ``hash(col)`` (verified against duckdb 1.0).  Avalanching finalizer:
    consecutive ids land in uncorrelated buckets."""
    x = np.ascontiguousarray(x).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(32)
        x *= _DUCK_MULT
        x ^= x >> np.uint64(32)
        x *= _DUCK_MULT
        x ^= x >> np.uint64(32)
    return x


def group_key_hash64(col) -> np.ndarray:
    """Partition hash over a group-key column that is STABLE across
    blocks regardless of null presence.  The naive
    ``hash_array(to_numpy().astype(object))`` is type-UNstable for
    nullable numerics: a block containing one null converts int64 →
    float64 (``np.float64(16.0)`` objects) while a null-free block
    yields ``np.int64(16)``, pandas hashes the two differently, and the
    same group lands in two partitions (downstream "top k per group"
    then emits up to 2k rows).  Fix: int/float keys canonicalize to
    float64 (nulls → one NaN bit pattern, −0.0 → +0.0) and hash their
    BIT patterns through the vectorized ``duckdb_hash64`` — no per-key
    boxing.  Strings use pandas' vectorized object hash; exotic types
    fall back to boxed ``to_pylist`` values (boxing there does not
    depend on null presence, so it is block-stable too).  A collision
    between distinct keys only co-locates two groups — every caller
    re-groups within the partition."""
    ca = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = ca.type
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        x = ca.to_numpy(zero_copy_only=False).astype(np.float64)
        x[x == 0.0] = 0.0  # −0.0 == 0.0 as a key → one bit pattern
        x[np.isnan(x)] = np.nan  # null/NaN payloads → canonical NaN
        return duckdb_hash64(x.view(np.uint64))
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pd.util.hash_array(
            ca.to_numpy(zero_copy_only=False).astype(object)
        )
    vals = np.empty(len(ca), dtype=object)
    for i, v in enumerate(ca.to_pylist()):
        vals[i] = v
    return pd.util.hash_array(vals)


def hash_split(
    ds: "ray.data.Dataset",
    splits: "dict[str, float]",
    *,
    id_col: str = "doc_id",
    buckets: int = 10_000,
    split_col: str = "split",
) -> "ray.data.Dataset":
    """Deterministic, reshuffle-proof train/val/test assignment: row →
    ``hash(id) % buckets`` → the split whose cumulative fraction range
    contains the bucket.  Fractions must sum to 1 (± float eps).

    Properties a 100-TB pipeline needs: assignment depends only on the
    id (stable across reruns, repartitions and cluster sizes), the op is
    a pure per-batch map (no shuffle, no state), and the exact same
    assignment is expressible in SQL as
    ``CASE WHEN hash(id) % buckets < f1*buckets THEN ... END``."""
    total = sum(splits.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {total}")
    bad = {k: f for k, f in splits.items() if not 0.0 <= f <= 1.0}
    if bad:
        # a negative fraction would make the edges non-monotonic and
        # searchsorted silently garbage
        raise ValueError(f"split fractions must be in [0, 1]: {bad}")
    names = list(splits)
    # integer bucket thresholds, identical to what the SQL CASE uses
    edges = np.cumsum([int(round(splits[n] * buckets)) for n in names])
    edges[-1] = buckets  # rounding never orphans the last bucket

    def assign(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        b = (duckdb_hash64(ids) % np.uint64(buckets)).astype(np.int64)
        idx = np.searchsorted(edges, b, side="right")
        lab = np.asarray(names, dtype=object)[idx]
        return t.append_column(split_col, pa.array(lab, type=pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def stratified_sample(
    ds: "ray.data.Dataset",
    fractions: "dict[object, float]",
    *,
    key_col: str = "lang",
    id_col: str = "doc_id",
    default_fraction: float = 1.0,
    buckets: int = 10_000,
) -> "ray.data.Dataset":
    """Deterministic per-group downsampling (the language/source
    rebalancing step of a pretraining mixture): a row survives iff
    ``hash(id) % buckets < fraction[key] * buckets``.  Groups not in
    ``fractions`` use ``default_fraction``.

    Same guarantees as ``hash_split``: pure per-batch map (no shuffle),
    membership depends only on the row id (stable across reruns and
    cluster sizes, and a row kept at fraction f is also kept at every
    fraction > f — nested samples for ablations), and the exact rule is
    SQL-mirrorable via ``hash(id) % buckets < CASE key ... END``."""
    thresholds = {
        k: int(round(f * buckets)) for k, f in fractions.items()
    }
    default_thr = int(round(default_fraction * buckets))

    def pick(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        b = (duckdb_hash64(ids) % np.uint64(buckets)).astype(np.int64)
        keys = pd.Series(t[key_col].to_pandas())
        thr = keys.map(thresholds).fillna(default_thr).to_numpy(np.int64)
        return t.filter(pa.array(b < thr))

    return ds.map_batches(pick, batch_format="pyarrow")


def threshold_sample(
    ds: "ray.data.Dataset",
    *,
    thr_col: str,
    id_col: str = "doc_id",
    buckets: int = 10_000,
) -> "ray.data.Dataset":
    """Weight-proportional deterministic sampling — the importance-
    resampling primitive (keep each row with probability ∝ a per-row
    quality/domain weight, as in DSIR-style data selection): a row
    survives iff ``hash(id) % buckets < thr`` where ``thr_col`` is an
    INTEGER per-row threshold in [0, buckets] computed upstream (e.g.
    ``min(n_tokens * 100, buckets)`` for p = min(n_tokens/100, 1)).
    Keeping thresholds integral makes the rule exact — no float
    rounding to disagree with the SQL mirror ``hash(id) % buckets <
    LEAST(...)``.

    Same guarantees as ``hash_split``/``stratified_sample``: pure
    per-batch map, membership depends only on (id, weight) — stable
    across reruns and cluster sizes, and monotone in the weight (a row
    kept at weight w is kept at every weight ≥ w).  Null thresholds
    drop the row."""

    def pick(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        b = (duckdb_hash64(ids) % np.uint64(buckets)).astype(np.int64)
        # cast first: an all-null column arrives as Arrow's null type,
        # which fill_null can't target
        thr = pc.fill_null(
            pc.cast(t[thr_col], pa.int64()), 0
        ).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(b < thr.astype(np.int64)))

    return ds.map_batches(pick, batch_format="pyarrow")


# ------------------------------------------------------ decontamination

_DECON_HASH_KEY = "decontaminate-l1"  # 16 bytes — second independent lane


def positional_gram_lanes(
    texts: "list[str | None]", k: int, *, hash_key: str = _DECON_HASH_KEY
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EVERY word-k-gram occurrence of the batch, two independent
    64-bit hash lanes: returns (doc_index, position, h0, h1), doc-major
    with 0-based token positions ascending within each doc.
    Tokenization mirrors the SQL oracles (lowercase, split on
    whitespace runs); docs with < k words contribute nothing.

    Vectorized like ``dedup._batch_shingles``: every TOKEN of the batch
    is hashed in two ``pd.util.hash_array`` calls (two independent
    SipHash keys — true 128-bit lanes), then k-gram hashes are ROLLED
    over the token-hash arrays with splitmix64 (O(k) vector ops per
    batch) instead of materializing per-position gram-string sets.
    Equal gram word-sequences hash equal, unequal ones collide only at
    2⁻¹²⁸ scale.  The shared core of ``_doc_gram_lanes``
    (decontaminate — distinct grams per doc) and
    ``substring._positional_gram_lanes`` (exact substring dedup — all
    occurrences); ``hash_key`` selects the op's lane-1 key."""
    from plugin_debezium_ray.sources.rand import splitmix64

    tokens: list[str] = []
    rows: list[int] = []
    tok_counts: list[int] = []
    wre = _word_re()
    for i, tx in enumerate(texts):
        if tx is None:
            continue
        toks = wre.findall(tx.lower())
        if len(toks) < k:
            continue
        tokens.extend(toks)
        rows.append(i)
        tok_counts.append(len(toks))
    if not rows:
        e = np.empty(0, dtype=np.uint64)
        z = np.empty(0, dtype=np.int64)
        return z, z.copy(), e, e.copy()
    obj = np.array(tokens, dtype=object)
    th0 = pd.util.hash_array(obj)
    th1 = pd.util.hash_array(obj, hash_key=hash_key)

    tc = np.asarray(tok_counts, dtype=np.int64)
    gcounts = tc - k + 1  # ≥ 1 by the len(toks) >= k filter above
    toff = np.concatenate([[0], np.cumsum(tc)[:-1]])
    goff = np.concatenate([[0], np.cumsum(gcounts)[:-1]])
    total = int(gcounts.sum())
    # gram j of doc d starts at token toff[d] + j — segmented arange
    local = np.arange(total, dtype=np.int64) - np.repeat(goff, gcounts)
    gpos = np.repeat(toff, gcounts) + local
    # mix the FIRST token before rolling: starting from the raw token
    # hash would make step one sm64(t1 ^ t2) — symmetric in the first
    # two tokens, so "a b c d e" and "b a c d e" would collide in BOTH
    # lanes (found as a real sf0.001 false positive, doc 147)
    h0 = splitmix64(th0[gpos])
    h1 = splitmix64(th1[gpos])
    for j in range(1, k):
        h0 = splitmix64(h0 ^ th0[gpos + j])
        h1 = splitmix64(h1 ^ th1[gpos + j])
    doc_idx = np.repeat(np.asarray(rows, dtype=np.int64), gcounts)
    return doc_idx, local, h0, h1


def _doc_gram_lanes(
    texts: "list[str | None]", k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-batch DISTINCT word-k-grams, two independent 64-bit hash
    lanes: returns (doc_index_repeat, h0, h1) — the set-overlap view of
    ``positional_gram_lanes`` (decontamination counts distinct shared
    grams, not occurrences)."""
    doc_idx, _, h0, h1 = positional_gram_lanes(texts, k)
    if len(h0) == 0:
        return doc_idx, h0, h1

    # DISTINCT grams per doc (overlap counting is set-based): lexsort by
    # (doc, h0, h1), keep run heads
    order = np.lexsort((h1, h0, doc_idx))
    di, s0, s1 = doc_idx[order], h0[order], h1[order]
    keep = np.empty(len(order), dtype=bool)
    keep[0] = True
    keep[1:] = (di[1:] != di[:-1]) | (s0[1:] != s0[:-1]) | (s1[1:] != s1[:-1])
    return di[keep], s0[keep], s1[keep]


def benchmark_gram_hashes(
    bench_ds: "ray.data.Dataset", *, k: int = 5, text_col: str = "text"
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct k-gram hash pairs of a (small) benchmark set, sorted by
    lane 0 — the broadcast side of ``decontaminate``.  Driver
    materialization by design: an eval benchmark is bounded (thousands
    of rows), the corpus is not."""
    from plugin_debezium_ray.smallfetch import fetch_small_table

    def grams(t: pa.Table) -> pa.Table:
        _, h0, h1 = _doc_gram_lanes(t[text_col].to_pylist(), k)
        return pa.table({"h0": pa.array(h0), "h1": pa.array(h1)})

    t = fetch_small_table(
        bench_ds.map_batches(grams, batch_format="pyarrow")
    )
    if t.num_rows == 0:
        e = np.empty(0, dtype=np.uint64)
        return e, e
    # np.unique(axis=0) output is already lexicographically sorted —
    # exactly the (h0-major) order the searchsorted probe needs
    pairs = np.unique(
        np.stack(
            [t["h0"].to_numpy(zero_copy_only=False),
             t["h1"].to_numpy(zero_copy_only=False)],
            axis=1,
        ),
        axis=0,
    )
    return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])


def two_lane_hits(
    b0: np.ndarray, b1: np.ndarray, h0: np.ndarray, h1: np.ndarray
) -> np.ndarray:
    """Vectorized exact membership of (h0, h1) hash pairs in a
    reference set sorted by (b0, b1): searchsorted on lane 0, confirm
    lane 1.  A false positive needs a simultaneous 128-bit collision.

    Two DISTINCT reference pairs colliding on the h0 lane sit adjacent
    in the sorted order; checking only position ``lo`` would hide the
    later ones (a false NEGATIVE).  Runs > 1 are 2⁻⁶⁴-scale rare: scan
    them.  Shared by ``decontaminate`` (gram probe) and
    ``dedup_against_index`` (content-hash probe) — the collision-math
    invariants live HERE only."""
    if len(b0) == 0:
        return np.zeros(len(h0), dtype=bool)
    lo = np.searchsorted(b0, h0, side="left")
    hi = np.searchsorted(b0, h0, side="right")
    runs = hi - lo
    hit = np.zeros(len(h0), dtype=bool)
    one = runs == 1  # the overwhelmingly common case, vectorized
    safe = np.minimum(lo, len(b0) - 1)
    hit[one] = b1[safe[one]] == h1[one]
    for i in np.flatnonzero(runs > 1):
        hit[i] = bool(np.any(b1[lo[i]:hi[i]] == h1[i]))
    return hit


class _Decontaminator:
    """Actor-pool filter: the broadcast benchmark gram table is fetched
    ONCE per actor in ``__init__``; each batch is a vectorized
    two-lane membership probe (searchsorted on lane 0, confirm lane 1).

    A lane-0 collision between two DISTINCT benchmark grams would hide
    the second entry from the probe — a 2⁻⁶⁴-scale event; both lanes
    must match for a doc gram to count as contaminated, so false
    positives need a simultaneous 128-bit collision."""

    def __init__(self, bench_ref, k: int, min_overlaps: int,
                 text_col: str, keep_contaminated: bool):
        payload = ray.get(bench_ref)
        if len(payload) == 2:  # exact: two sorted hash lanes
            self.b0, self.b1 = payload
            self.bloom = None
            self.has_grams = len(self.b0) > 0
        else:  # bloom: (bit array, n_bits, n_probes, non_empty flag)
            self.bloom, self.bits, self.probes, nonempty = payload
            self.b0 = self.b1 = None
            self.has_grams = bool(nonempty)
        self.k = k
        self.min_overlaps = min_overlaps
        self.text_col = text_col
        self.keep_contaminated = keep_contaminated

    def _hits(self, h0: np.ndarray, h1: np.ndarray) -> np.ndarray:
        if self.bloom is None:
            return two_lane_hits(self.b0, self.b1, h0, h1)
        hit = np.ones(len(h0), dtype=bool)
        bits = np.uint64(self.bits)
        for i in range(self.probes):  # Kirsch–Mitzenmacher double hashing
            idx = (h0 + np.uint64(i) * h1) % bits
            hit &= (
                (self.bloom[(idx >> np.uint64(3)).astype(np.int64)]
                 >> (idx & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
            ).astype(bool)
        return hit

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        overlaps = np.zeros(n, dtype=np.int64)
        if self.has_grams:
            doc_idx, h0, h1 = _doc_gram_lanes(
                t[self.text_col].to_pylist(), self.k
            )
            if len(h0):
                hit = self._hits(h0, h1)
                np.add.at(overlaps, doc_idx[hit], 1)
        contaminated = overlaps >= self.min_overlaps
        keep = contaminated if self.keep_contaminated else ~contaminated
        return t.filter(pa.array(keep))


def build_gram_bloom(
    b0: np.ndarray, b1: np.ndarray, *, n_bits: int, n_probes: int
) -> np.ndarray:
    """Bloom bit array over the benchmark gram lanes; probe i addresses
    bit ``(h0 + i·h1) % n_bits`` (double hashing — the two independent
    lanes already exist, no extra hashing pass)."""
    arr = np.zeros(n_bits // 8, dtype=np.uint8)
    bits = np.uint64(n_bits)
    for i in range(n_probes):
        idx = (b0 + np.uint64(i) * b1) % bits
        np.bitwise_or.at(
            arr,
            (idx >> np.uint64(3)).astype(np.int64),
            (np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8)),
        )
    return arr


def decontaminate(
    docs_ds: "ray.data.Dataset",
    bench_ds: "ray.data.Dataset",
    *,
    k: int = 5,
    min_overlaps: int = 1,
    text_col: str = "text",
    keep_contaminated: bool = False,
    gram_filter: str = "exact",
    bloom_bits: int = 1 << 24,
    bloom_probes: int = 4,
    concurrency=(1, 8),
) -> "ray.data.Dataset":
    """Benchmark decontamination: drop every document whose text shares
    ≥ ``min_overlaps`` DISTINCT word-``k``-grams with any document in
    ``bench_ds`` (set ``keep_contaminated=True`` to get the flagged rows
    instead — the audit view).  Returns surviving rows, original
    columns.

    Shape at 100 TB: the benchmark side is collected + broadcast once
    (``ray.put``; eval sets are ~10³–10⁵ rows), the corpus side is one
    shuffle-free actor-pool ``map_batches`` whose per-batch work is a
    vectorized sorted-array membership probe.  Gram semantics match
    ``ngram_jaccard_pairs_exact`` (lowercase, whitespace tokens,
    distinct grams), so the op is SQL-mirrorable via a gram join.

    ``gram_filter="bloom"`` swaps the sorted-lane probe for a Bloom bit
    array of fixed size ``bloom_bits`` — the broadcast no longer grows
    with the benchmark's gram count (a huge multi-benchmark union still
    ships as ``bloom_bits/8`` bytes).  One-sided error by construction:
    every contaminated gram still hits (no false negatives — nothing
    contaminated survives), a false-positive bit pattern can only
    over-drop; size ``bloom_bits ≳ 16 × grams`` to keep the per-gram FP
    rate negligible."""
    b0, b1 = benchmark_gram_hashes(bench_ds, k=k, text_col=text_col)
    if gram_filter == "exact":
        payload = (b0, b1)
    elif gram_filter == "bloom":
        if bloom_bits % 8:
            raise ValueError("bloom_bits must be a multiple of 8")
        payload = (
            build_gram_bloom(b0, b1, n_bits=bloom_bits,
                             n_probes=bloom_probes),
            bloom_bits, bloom_probes, int(len(b0) > 0),
        )
    else:
        raise ValueError(f"gram_filter must be 'exact' or 'bloom'")
    bench_ref = ray.put(payload)
    return docs_ds.map_batches(
        _Decontaminator,
        fn_constructor_kwargs={
            "bench_ref": bench_ref,
            "k": k,
            "min_overlaps": min_overlaps,
            "text_col": text_col,
            "keep_contaminated": keep_contaminated,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def mixture_resample(
    ds: "ray.data.Dataset",
    *,
    group_col: str,
    ratios: "dict[object, int]",
    id_col: str = "doc_id",
    buckets: int = 10_000,
) -> "ray.data.Dataset":
    """Deterministic mixture rebalancing — the domain/language mixture-
    control step of a training-data pipeline: subsample each group so
    the OUTPUT approaches the target proportions ``ratios`` (integer
    ratios, e.g. ``{'en': 2, 'de': 1, 'fr': 1}`` → a 50/25/25 mix),
    never upsampling.  Groups not in ``ratios`` are dropped.

    All threshold arithmetic is INTEGER end-to-end so a SQL oracle is
    bit-exact (the round-4 weighted-sampling lesson — float thresholds
    drift at bucket boundaries): with ``R = sum(ratios)``, the largest
    feasible sample is ``T = min_g(n_g·R // r_g)``, each group's target
    is ``T·r_g // R``, and a row survives iff ``duckdb_hash64(id) %
    buckets < target_g·buckets // n_g`` — mirrored by DuckDB
    ``hash(id) % buckets < cut`` with ``//`` integer division.

    Scale shape: ONE pre-combined ``groupby(group_col).count()`` (tiny
    result fetched to the driver — O(groups) scalars), thresholds
    broadcast in the task closure, then a pure per-batch hash filter —
    no data shuffle, assignment independent of partitioning and cluster
    size (rerun-stable like ``hash_split``).  Quantization error is
    ≤ n_g/buckets rows per group; raise ``buckets`` for finer targets."""
    if not ratios:
        raise ValueError("ratios must be non-empty")
    bad = {g: r for g, r in ratios.items()
           if not isinstance(r, (int, np.integer)) or r <= 0}
    if bad:
        raise ValueError(f"ratios must be positive integers: {bad}")
    from plugin_debezium_ray.smallfetch import fetch_small_rows

    big_r = int(sum(int(r) for r in ratios.values()))
    cnt_rows = fetch_small_rows(
        ds.map_batches(
            lambda t: t.select([group_col]), batch_format="pyarrow"
        ).groupby(group_col).count()
    )
    counts = {r[group_col]: int(r["count()"]) for r in cnt_rows
              if r[group_col] in ratios}
    missing = sorted(str(g) for g in ratios if g not in counts)
    if missing:
        raise ValueError(
            f"ratio groups absent from the data: {missing} — a zero-row "
            "group makes every target zero; drop it from ratios"
        )
    total = min(counts[g] * big_r // int(r) for g, r in ratios.items())
    cut_map = {
        g: (total * int(r) // big_r) * buckets // counts[g]
        for g, r in ratios.items()
    }

    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        g = t[group_col].to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(g, use_na_sentinel=True)
        # one dict lookup per DISTINCT group per batch; the sentinel -1
        # indexes the appended 0 → null/unlisted groups never survive
        cuts = np.array(
            [cut_map.get(u, 0) for u in uniq] + [0], dtype=np.int64
        )
        row_cut = cuts[codes]
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = (duckdb_hash64(ids) % np.uint64(buckets)).astype(np.int64)
        return t.filter(pa.array(h < row_cut))

    return ds.map_batches(pick, batch_format="pyarrow")


# ---------------------------------------------------- budget selection


class _AssignBudget:
    """Second scan pass of ``budget_select``: fetch sorted block i,
    keep the prefix of rows whose running token total (seeded with the
    block's exclusive base) stays within the budget."""

    def __init__(self, refs, token_col: str, budget: int):
        self.refs = refs
        self.token_col = token_col
        self.budget = int(budget)

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        fallback = None  # a typed block to derive an empty result from
        for i, base in zip(batch["i"].to_pylist(),
                           batch["base"].to_pylist()):
            t = ray.get(self.refs[i])
            if t.num_rows == 0:
                continue
            fallback = t
            n = t[self.token_col].to_numpy(zero_copy_only=False)
            cum = np.int64(base) + np.cumsum(n.astype(np.int64))
            keep = cum <= self.budget
            if not keep.any():
                continue
            outs.append(t.filter(pa.array(keep)))
        if not outs:
            # typed empty (the pack_sequences convention): slicing a
            # real sorted block keeps the ACTUAL output schema, so an
            # all-filtered run never emits schema-less markers
            if fallback is not None:
                return fallback.slice(0, 0)
            return pa.table({})
        return pa.concat_tables(outs)


@ray.remote
def _block_rows_and_min(tbl: pa.Table, token_col: str) -> tuple[int, int | None]:
    """(rows, smallest token count) of one sorted block."""
    if tbl.num_rows == 0:  # Ray 2.49 sort emits schema-less empty blocks
        return 0, None
    return tbl.num_rows, pc.min(tbl[token_col]).as_py()


def budget_select(
    ds: "ray.data.Dataset",
    *,
    budget: int,
    score_col: str,
    id_col: str = "doc_id",
    token_col: "str | None" = None,
    text_col: str = "text",
    descending: bool = True,
    concurrency: "int | None" = None,
) -> "ray.data.Dataset":
    """Deterministic token-budget curation: order the corpus by
    ``(score_col`` desc (or asc), ``id_col`` asc) — a TOTAL order, so
    ties are stable — and keep the maximal prefix whose cumulative
    token count stays ≤ ``budget`` (the first row that would cross the
    budget is excluded, SQL ``sum(...) OVER (ORDER BY ...) <= budget``
    semantics).  The "fill a training-token budget with the best
    documents" primitive.

    Returns ``(id_col, score_col, n_tokens)`` rows of the selected
    prefix (``token_col``'s own name when given).  Null scores are
    dropped before the sort (they have no defined rank); null
    text/token counts cost 0 tokens (``pack_sequences`` convention).

    Scale shape — the ``pack_sequences``/``global_order_rank`` scan:
    ONE range sort of 24-byte (id, score, n) triples (text never rides
    the shuffle), a parallel per-block token-total pass, an O(blocks)
    driver fold into exclusive prefix bases, then a parallel filtered
    fetch that reads ONLY blocks whose base is still under budget —
    with budget ≪ corpus the tail blocks are never fetched at all."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    from plugin_debezium_ray.functions.packing import _block_token_total
    from plugin_debezium_ray.functions.text import token_count_batch

    if token_col is None:
        token_col = "n_tokens"

        def count(t: pa.Table) -> pa.Table:
            # drop null-score rows BEFORE tokenizing (no regex work on
            # rows that cannot rank), and tokenize a single-column view
            # so a pre-existing n_tokens column cannot collide
            t = t.filter(pc.is_valid(t[score_col]))
            c = token_count_batch(t.select([text_col]), text_col=text_col)
            n = pc.fill_null(c["n_tokens"], 0)
            return pa.table({
                id_col: t[id_col], score_col: t[score_col],
                "n_tokens": n,
            })

        counted = ds.map_batches(count, batch_format="pyarrow")
    else:
        def project(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t[score_col]))
            return pa.table({
                id_col: t[id_col], score_col: t[score_col],
                token_col: pc.fill_null(t[token_col], 0),
            })

        counted = ds.map_batches(project, batch_format="pyarrow")

    # the seed is used ONLY for a zero-block (empty-corpus) input —
    # every non-empty run derives empties from real sorted blocks.
    # pack_sequences' guards: schema() may be None, and pandas-block
    # datasets report Python types → fall back to int64 (the computed
    # n_tokens column is always int64 by token_count_batch's cast)
    sch = ds.schema()
    types = dict(zip(sch.names, sch.types)) if sch is not None else {}

    def _typ(c, default=pa.int64()):
        t = types.get(c)
        return t if isinstance(t, pa.DataType) else default

    seed = pa.table({
        id_col: pa.array([], _typ(id_col)),
        score_col: pa.array([], _typ(score_col)),
        token_col: pa.array([], _typ(token_col)),
    })

    refs = (
        counted.sort([score_col, id_col], descending=[descending, False])
        .materialize()
        .to_arrow_refs()
    )
    totals = ray.get(
        [_block_token_total.remote(r, token_col) for r in refs]
    )
    rows_low = ray.get([_block_rows_and_min.remote(r, token_col) for r in refs])
    rows = [n for n, _ in rows_low]
    # the prune below needs a monotone running sum
    low = min((m for _, m in rows_low if m is not None), default=0)
    if low < 0:
        raise ValueError(f"{token_col} holds a negative token count ({low})")
    bases = np.concatenate([[0], np.cumsum(totals[:-1], dtype=np.int64)]) \
        if totals else np.zeros(0, dtype=np.int64)
    # block-level pruning: a block whose exclusive base already EXCEEDS
    # the budget contributes nothing — never fetch it.  `<=`, not `<`:
    # a zero-token row whose cumulative total lands exactly ON the
    # budget is selected (`cum <= budget`), and its block's base may
    # equal the budget — the in-block mask decides, the prune must not
    # zero-ROW blocks are pruned too (Ray sort emits schema-less empty
    # blocks; a probe task holding only one would emit a schema-less
    # marker into the output stream)
    items = [
        {"i": i, "base": int(b)}
        for i, b in enumerate(bases) if b <= budget and rows[i] > 0
    ]
    if not items:
        return ray.data.from_arrow(seed)  # zero-block (empty) corpus
    out = ray.data.from_items(
        items, override_num_blocks=len(items)
    ).map_batches(
        _AssignBudget,
        fn_constructor_kwargs={
            "refs": refs, "token_col": token_col, "budget": budget,
        },
        batch_format="pyarrow",
        batch_size=1,
        concurrency=concurrency or max(1, min(len(items), 16)),
    )
    return out
