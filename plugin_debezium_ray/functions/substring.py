"""Corpus-wide exact substring duplication (ExactSubstr-style).

Doc-level dedup (``exact_dedup``/MinHash/SimHash) misses the other
failure mode of web corpora: boilerplate, licence headers and quoted
passages repeated VERBATIM inside otherwise-distinct documents.  This
module finds every word-``k``-gram that occurs at ≥ ``min_count``
positions across the ENTIRE corpus and reports (or removes) the merged
duplicated token spans per document — the distributed counterpart of
the single-machine suffix-array dedup of Lee et al. 2022
("Deduplicating Training Data Makes Language Models Better"): the
suffix array is replaced by a k-gram fingerprint exchange, which is
the shape that survives 100 TB (a suffix array needs the corpus in one
address space; a fingerprint groupby streams).

Two passes over the corpus, both shuffle-light:

1. **Count**: per batch, roll two independent 64-bit hash lanes over
   every k-gram POSITION (the rolled splitmix64 scheme shared with
   ``decontaminate``; O(k) vector ops per batch), pre-combine repeats
   within the batch, then ONE coarse-partition groupby (the
   ``exact_dedup`` idiom — group count = ``num_partitions``, never one
   group per gram) sums counts and keeps pairs with total ≥
   ``min_count``.  Only 24-byte (h0, h1, n) rows ride the shuffle —
   never text.
2. **Mark**: the surviving duplicated-gram pairs are fetched to the
   driver under an explicit raising bound (``dup_max_grams``, the
   ``small_max_rows`` contract), broadcast once via ``ray.put``, and a
   stateless cached-probe ``map_batches`` pass re-rolls each document's
   gram hashes and marks positions by vectorized two-lane membership
   (``selection.two_lane_hits``: searchsorted on lane 0, confirm lane
   1 — a wrong mark needs a simultaneous 128-bit collision).  Marked
   positions merge into maximal covered token runs per document
   entirely in numpy (all intervals have length k, so two positions
   p1 < p2 merge iff ``p2 - p1 <= k``).

The two corpus scans are inherent to the exact two-pass algorithm
(count first, mark second); each is a shuffle-free streaming pass.

Reference parity: no counterpart in kestra-io/plugin-debezium — part
of the training-data extension surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow as pa

if TYPE_CHECKING:  # pragma: no cover
    import ray.data

import ray

from plugin_debezium_ray.functions.selection import (
    positional_gram_lanes, two_lane_hits,
)

_SUB_HASH_KEY = "substring-lane-1"  # 16 bytes — the second hash lane


def _positional_gram_lanes(
    texts: "list[str | None]", k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EVERY word-k-gram position of the batch — the shared rolled
    two-lane core (``selection.positional_gram_lanes``) under this
    op's own lane-1 key.  Here every OCCURRENCE counts, including
    repeats inside one document, so within-doc boilerplate is found
    too (decontaminate's ``_doc_gram_lanes`` dedups instead)."""
    return positional_gram_lanes(texts, k, hash_key=_SUB_HASH_KEY)


def _unique_pairs(
    h0: np.ndarray, h1: np.ndarray, weights: "np.ndarray | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (h0, h1) pairs in (h0, h1)-sorted order plus each
    pair's occurrence count (or ``weights`` sum) — the run-head
    segmented reduction shared by both count stages.  Empty input gives
    three empty arrays."""
    if len(h0) == 0:
        tot = np.zeros(0, np.int64) if weights is None else weights[:0]
        return h0[:0], h1[:0], tot
    order = np.lexsort((h1, h0))
    s0, s1 = h0[order], h1[order]
    head = np.empty(len(s0), dtype=bool)
    head[0] = True
    head[1:] = (s0[1:] != s0[:-1]) | (s1[1:] != s1[:-1])
    idx = np.flatnonzero(head)
    if weights is None:
        tot = np.diff(np.append(idx, len(s0)))
    else:
        tot = np.add.reduceat(weights[order], idx)
    return s0[idx], s1[idx], tot


def _merged_spans(
    di: np.ndarray, pos: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge marked gram positions (doc-major, ascending) into maximal
    covered token runs: returns (span_doc, start, end) with end
    INCLUSIVE.  All intervals have length k, so p2 merges into p1's
    span iff ``p2 - p1 <= k`` (coverage [p1, p1+k-1] ∪ [p2, p2+k-1] is
    one contiguous run).  Empty input gives three empty arrays."""
    if len(di) == 0:
        return di[:0], pos[:0], pos[:0]
    newdoc = np.empty(len(di), dtype=bool)
    newdoc[0] = True
    newdoc[1:] = di[1:] != di[:-1]
    brk = newdoc.copy()
    brk[1:] |= (pos[1:] - pos[:-1]) > k
    heads = np.flatnonzero(brk)
    tails = np.append(heads[1:], len(di)) - 1
    return di[heads], pos[heads], pos[tails] + k - 1


def gram_count_sketch(
    ds: "ray.data.Dataset",
    *,
    text_col: str = "text",
    k: int = 12,
    counters: int = 1 << 24,
) -> np.ndarray:
    """ONE shuffle-free pass building a saturating {0, 1, 2+} counting
    sketch over the corpus' gram hashes: each gram occurrence bumps TWO
    cells (``h0 % m`` and ``h1 % m``, capped at 2); per-block partial
    sketches fold through Ray's aggregation tree by saturating add —
    only ``counters`` bytes per block move, never a gram row.

    A gram with total count ≥ 2 ALWAYS ends with both its cells ≥ 2
    (increments are non-negative and saturating) — so filtering on
    ``min(cell0, cell1) >= 2`` yields a SUPERSET of the true duplicated
    grams: false positives only (two colliding unique grams), never
    false negatives.  Exactness survives because the exact groupby
    count downstream discards the false candidates."""
    from ray.data.aggregate import AggregateFn

    m = np.uint64(counters)

    def _acc(sk: np.ndarray, block) -> np.ndarray:
        if not isinstance(block, pa.Table):
            block = pa.Table.from_pandas(block)
        _, _, h0, h1 = _positional_gram_lanes(
            block[text_col].to_pylist(), k
        )
        if len(h0) == 0:
            return sk
        if not sk.flags.writeable:
            # copy ONLY when the accumulator is a read-only plasma view
            # (post-merge); the fresh np.zeros from init is writable —
            # an unconditional copy would memcpy `counters` bytes per
            # block for nothing
            sk = sk.copy()
        for lane in (h0, h1):
            # per-cell increments via unique+counts (capped at 2):
            # plain np.add.at on uint8 could wrap past 255 when many
            # colliding grams share a cell, silently UNDER-counting —
            # which would break the no-false-negative guarantee
            uidx, ucnt = np.unique(
                (lane % m).astype(np.int64), return_counts=True
            )
            inc = np.minimum(ucnt, 2).astype(np.uint8)
            sk[uidx] = np.minimum(sk[uidx] + inc, 2)
        return sk

    agg = AggregateFn(
        init=lambda _: np.zeros(counters, dtype=np.uint8),
        accumulate_block=_acc,
        merge=lambda a, b: np.minimum(
            a.astype(np.uint8) + b.astype(np.uint8), 2
        ),
        name="gram_sketch",
    )
    out = ds.aggregate(agg)
    if out is None:  # Ray 2.49: aggregate over an empty dataset
        return np.zeros(counters, dtype=np.uint8)
    return np.asarray(out["gram_sketch"], dtype=np.uint8)


_SKETCH_CACHE: dict = {}


def _sketch_view(ref) -> np.ndarray:
    """Once-per-worker fetch of the broadcast sketch (the
    ``_cached_probe`` idiom for a plain function): the cached value is
    a zero-copy view into plasma, so the retained heap is ~0.  One
    entry is enough — concurrent substring jobs are rare, and a rebuild
    after eviction is a local plasma lookup, not a rebuild."""
    key = ref.hex()
    sk = _SKETCH_CACHE.get(key)
    if sk is None:
        _SKETCH_CACHE.clear()
        sk = ray.get(ref)
        _SKETCH_CACHE[key] = sk
    return sk


def duplicated_grams(
    ds: "ray.data.Dataset",
    *,
    text_col: str = "text",
    k: int = 12,
    min_count: int = 2,
    num_partitions: int = 64,
    batch_size: int = 4096,
    gram_filter: str = "exact",
    sketch_counters: int = 1 << 24,
) -> "ray.data.Dataset":
    """Pass 1: Dataset of (h0, h1) hash pairs of every k-gram occurring
    at ≥ ``min_count`` positions corpus-wide.  Per-batch pre-combine →
    one coarse-partition groupby → weighted per-partition count (pure
    numpy segmented reduce — no per-gram pandas groups).

    ``batch_size`` matters twice: bigger batches pre-combine more
    repeated grams before the shuffle AND produce fewer shuffle input
    blocks (the sort-based groupby's task count tracks block count —
    default-sized 1k-row batches measured 6.7 s of pure scheduling on
    a 215k-gram corpus vs ~1 s at 4096).

    ``gram_filter="sketch"`` prepends a ``gram_count_sketch`` pass and
    ships ONLY candidate grams (sketch count ≥ 2 in both cells — a
    strict superset of the true dups, so results are IDENTICAL to the
    exact lane) into the count groupby.  Trade: one extra tokenize scan
    buys an exchange of ~|duplicated grams| rows instead of ~|tokens|
    rows — the win whenever dups are a small fraction (natural text:
    typically a few %).  Honest bound: the dense sketch works while
    distinct grams ≲ ``sketch_counters``/8 (size it ≥ 8–16× distinct
    grams) and its per-block fold traffic is ``counters`` bytes/block —
    beyond ~10^10 distinct grams prefer the exact exchange (range
    sort-shuffles stream and spill) or shard the sketch across a
    stateful actor pool (the ``streaming_apply`` pattern)."""
    if min_count < 2:
        raise ValueError(f"min_count must be >= 2, got {min_count}")
    if k < 1:
        # fail fast at the driver — k<=0 would otherwise surface as an
        # opaque IndexError inside a Ray map task mid-job
        raise ValueError(f"k must be >= 1, got {k}")
    if gram_filter not in ("exact", "sketch"):
        raise ValueError(
            f"gram_filter must be 'exact' or 'sketch', got {gram_filter!r}"
        )
    if gram_filter == "sketch" and sketch_counters < 1:
        # fail fast at the driver (the k-guard convention): a
        # non-positive size would otherwise die as an opaque modulo /
        # IndexError inside a remote aggregate task
        raise ValueError(
            f"sketch_counters must be >= 1, got {sketch_counters}"
        )
    sketch_ref = None
    if gram_filter == "sketch":
        sk = gram_count_sketch(
            ds, text_col=text_col, k=k, counters=sketch_counters,
        )
        sketch_ref = ray.put(sk)
        sm = np.uint64(sketch_counters)

    def gram_counts(t: pa.Table) -> pa.Table:
        _, _, h0, h1 = _positional_gram_lanes(t[text_col].to_pylist(), k)
        if sketch_ref is not None and len(h0):
            sk = _sketch_view(sketch_ref)  # once-per-worker plasma view
            cand = (sk[(h0 % sm).astype(np.int64)] >= 2) \
                & (sk[(h1 % sm).astype(np.int64)] >= 2)
            h0, h1 = h0[cand], h1[cand]
        if len(h0) == 0:
            return pa.table({
                "h0": pa.array([], pa.uint64()),
                "h1": pa.array([], pa.uint64()),
                "n": pa.array([], pa.int64()),
                "_part": pa.array([], pa.int32()),
            })
        u0, u1, n = _unique_pairs(h0, h1)
        part = (u0 % np.uint64(num_partitions)).astype(np.int32)
        return pa.table({
            "h0": pa.array(u0), "h1": pa.array(u1),
            "n": pa.array(n.astype(np.int64)), "_part": pa.array(part),
        })

    def keep_dups(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({
                "h0": pd.array([], dtype=np.uint64),
                "h1": pd.array([], dtype=np.uint64),
            })
        u0, u1, tot = _unique_pairs(
            g["h0"].to_numpy(), g["h1"].to_numpy(), g["n"].to_numpy()
        )
        keep = tot >= min_count
        return pd.DataFrame({"h0": u0[keep], "h1": u1[keep]})

    return (
        ds.map_batches(gram_counts, batch_format="pyarrow",
                       batch_size=batch_size)
        .groupby("_part")
        .map_groups(keep_dups, batch_format="pandas")
    )


class _SpanProbe:
    """Per-worker-cached pass-2 probe: the broadcast duplicated-gram
    lanes are fetched once per worker; each batch re-rolls its gram
    hashes, marks positions by two-lane membership and folds marked
    positions into merged spans with segmented numpy reductions."""

    def __init__(self, dup_ref, *, k: int, id_col: str, text_col: str,
                 mode: str):
        self.b0, self.b1 = ray.get(dup_ref)
        self.k = k
        self.id_col = id_col
        self.text_col = text_col
        self.mode = mode

    def _marks(self, texts) -> tuple[np.ndarray, np.ndarray]:
        di, pos, h0, h1 = _positional_gram_lanes(texts, self.k)
        if len(h0) == 0 or len(self.b0) == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z.copy()
        hit = two_lane_hits(self.b0, self.b1, h0, h1)
        return di[hit], pos[hit]

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.mode == "stats":
            return self._stats(t)
        return self._strip(t)

    def _stats(self, t: pa.Table) -> pa.Table:
        ids_type = t.schema.field(self.id_col).type
        di, pos = self._marks(t[self.text_col].to_pylist())
        if len(di) == 0:
            return pa.table({
                self.id_col: pa.array([], ids_type),
                "n_dup_positions": pa.array([], pa.int64()),
                "n_spans": pa.array([], pa.int64()),
                "n_tokens_dup": pa.array([], pa.int64()),
            })
        span_doc, starts, ends = _merged_spans(di, pos, self.k)
        span_tokens = ends - starts + 1
        newdoc = np.empty(len(di), dtype=bool)
        newdoc[0] = True
        newdoc[1:] = di[1:] != di[:-1]
        dheads = np.flatnonzero(newdoc)
        n_positions = np.diff(np.append(dheads, len(di)))
        sd_new = np.empty(len(span_doc), dtype=bool)
        sd_new[0] = True
        sd_new[1:] = span_doc[1:] != span_doc[:-1]
        sdh = np.flatnonzero(sd_new)
        n_spans = np.diff(np.append(sdh, len(span_doc)))
        n_tok = np.add.reduceat(span_tokens, sdh)
        doc_rows = di[dheads]
        ids = t[self.id_col].take(pa.array(doc_rows, pa.int64()))
        return pa.table({
            self.id_col: ids,
            "n_dup_positions": pa.array(n_positions.astype(np.int64)),
            "n_spans": pa.array(n_spans.astype(np.int64)),
            "n_tokens_dup": pa.array(n_tok.astype(np.int64)),
        })

    def _strip(self, t: pa.Table) -> pa.Table:
        texts = t[self.text_col].to_pylist()
        di, pos = self._marks(texts)
        if len(di) == 0:
            return t
        col = list(texts)
        # merged spans first — one slice write per SPAN, not per marked
        # position (a duplicated L-token passage has L-k+1 positions
        # but only one span; boilerplate-heavy docs are the hot case)
        span_doc, starts, ends = _merged_spans(di, pos, self.k)
        dheads = np.flatnonzero(
            np.concatenate([[True], span_doc[1:] != span_doc[:-1]])
        )
        bounds = np.append(dheads, len(span_doc))
        for a, b in zip(bounds[:-1], bounds[1:]):
            row = int(span_doc[a])
            toks = col[row].split()
            covered = np.zeros(len(toks), dtype=bool)
            for s, e in zip(starts[a:b], ends[a:b]):
                covered[s:e + 1] = True
            col[row] = " ".join(
                tok for tok, c in zip(toks, covered) if not c
            )
        idx = t.column_names.index(self.text_col)
        # keep the INPUT column type (string vs large_string): mixed
        # block schemas in one stream confuse downstream unify steps
        return t.set_column(
            idx, self.text_col,
            pa.array(col, t.schema.field(self.text_col).type),
        )


def find_duplicate_spans(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 12,
    min_count: int = 2,
    num_partitions: int = 64,
    dup_max_grams: int = 4_000_000,
    batch_size: int = 4096,
    mode: str = "stats",
    gram_filter: str = "exact",
    sketch_counters: int = 1 << 24,
) -> "ray.data.Dataset":
    """Corpus-wide duplicated-span report or removal (module docstring
    has the full two-pass shape).

    ``mode="stats"`` → one row per document that contains ≥ 1
    duplicated k-gram: ``(id_col, n_dup_positions, n_spans,
    n_tokens_dup)`` where spans are maximal merged covered token runs.
    ``mode="strip"`` → the input rows with every duplicated span
    removed from ``text_col``.  Only a row that lost a span is re-joined,
    its surviving tokens with single spaces (tokens come from
    ``str.split()``, which equals the ``\\S+`` tokenization); every other
    row keeps its whitespace.  Removal is the aggressive ExactSubstr
    variant: ALL occurrences of a duplicated span are dropped, not
    all-but-one — keep-one needs a global occurrence ranking that costs
    a second shuffle and is rarely what corpus prep wants.

    ``dup_max_grams`` bounds the broadcast dup-gram table and RAISES
    when exceeded (the ``small_max_rows`` contract): 4M pairs ≈ 64 MB.
    Partitioning assumption: one coarse hash partition of pass 1 must
    fit a task — raise ``num_partitions`` with the corpus.  The input
    schema is resolved eagerly (for the typed empty-result seed) —
    materialize a lazy input whose upstream is expensive first, the
    ``window_join`` contract.  ``gram_filter="sketch"`` prepends a
    fixed-size counting-sketch prefilter so only candidate grams ride
    the count exchange — identical results, see ``duplicated_grams``
    for the trade and its honest scale bound."""
    if mode not in ("stats", "strip"):
        raise ValueError(f"mode must be 'stats' or 'strip', got {mode!r}")
    from plugin_debezium_ray.smallfetch import fetch_small_table

    # resolve the output schema eagerly: Ray 2.49 forwards schema-less
    # empty blocks around the UDF, so an all-empty result would lose
    # its columns without a typed seed union (dedup_against_index's
    # empty_out pattern).  schema() is None for a zero-block input (the
    # id type then falls back to int64, as in budget_select); a
    # pandas-block input reports a Python type for an object column,
    # which gives the seed no type to take
    in_schema = ds.schema()
    types = (dict(zip(in_schema.names, in_schema.types))
             if in_schema is not None else {})
    untyped = [
        c for c in ([id_col] if mode == "stats" else types)
        if c in types and not isinstance(types[c], pa.DataType)
    ]
    if untyped:
        raise ValueError(
            f"find_duplicate_spans needs Arrow-typed columns; {untyped} "
            "report Python types (a pandas-block input): convert first, "
            "e.g. ds.map_batches(lambda t: t, batch_format='pyarrow')"
        )
    if mode == "stats":
        seed = pa.table({
            id_col: pa.array(
                [], types[id_col] if in_schema is not None else pa.int64()),
            "n_dup_positions": pa.array([], pa.int64()),
            "n_spans": pa.array([], pa.int64()),
            "n_tokens_dup": pa.array([], pa.int64()),
        })
    else:
        seed = pa.table({n: pa.array([], t) for n, t in types.items()})

    dups = duplicated_grams(
        ds, text_col=text_col, k=k, min_count=min_count,
        num_partitions=num_partitions, batch_size=batch_size,
        gram_filter=gram_filter, sketch_counters=sketch_counters,
    ).materialize()
    n_dups = dups.count()
    if n_dups > dup_max_grams:
        raise ValueError(
            f"{n_dups} duplicated grams exceed dup_max_grams="
            f"{dup_max_grams}; raise the bound (64 MB per 4M pairs) or "
            f"raise k/min_count to shrink the dup set"
        )
    if n_dups == 0:
        # short-circuit: no duplicated gram exists, so no doc can have
        # a span — return the typed contract directly (also sidesteps
        # Ray 2.49 forwarding schema-less input empties around the
        # probe, which would leave an all-empty result column-less)
        return ds if mode == "strip" else ray.data.from_arrow(seed)
    t = fetch_small_table(dups)
    h0 = t["h0"].to_numpy(zero_copy_only=False)
    h1 = t["h1"].to_numpy(zero_copy_only=False)
    order = np.lexsort((h1, h0))
    payload = (
        np.ascontiguousarray(h0[order]),
        np.ascontiguousarray(h1[order]),
    )
    dup_ref = ray.put(payload)

    kwargs = {"k": k, "id_col": id_col, "text_col": text_col,
              "mode": mode}
    from plugin_debezium_ray.functions.joins import _cached_probe

    def probe(t: pa.Table) -> pa.Table:
        return _cached_probe(
            t, cls=_SpanProbe, small_ref=dup_ref,
            params=(k, id_col, text_col, mode), kwargs=kwargs,
        )

    out = ds.map_batches(probe, batch_format="pyarrow",
                         batch_size=batch_size)
    return out.union(ray.data.from_arrow(seed))
