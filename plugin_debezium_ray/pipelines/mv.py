"""Incremental materialized aggregates over the CDC lake.

A long-running CDC stream usually feeds dashboards or mixture
controllers that want an aggregate of the CURRENT table after every
commit.  Recomputing from scratch reads the whole lake each time; this
module maintains the aggregate INCREMENTALLY using the commit protocol
the engine already has:

* every commit rewrites ONLY the buckets it touched (untouched buckets
  carry their prior file path forward in the manifest — see
  ``state/checkpoint.py``), and
* per-bucket partial aggregates are associative (count / sum fold).

So ``refresh()`` diffs the newest manifest against the cached
per-bucket partials, re-reads only the buckets whose file changed (one
Ray task per changed bucket, column-pruned), folds all partials on the
driver (O(buckets × groups) scalars), and persists the new cache
atomically next to the lake's own metadata (write-then-rename, keyed
by manifest version).  Steady-state cost per commit is proportional to
the buckets the commit touched — not to the table.

Crash-safe by construction: the cache is advisory (derived data) — a
missing or torn cache file just degrades the next refresh to a full
recompute of whatever partials are absent.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

import ray

from plugin_debezium_ray.state.checkpoint import CheckpointManager


@ray.remote
def _bucket_partial(path: str, group_col: str, sum_col: "str | None",
                    minmax_col: "str | None" = None):
    """One bucket file → ``[[group, count, (sum, n_sum)?, (min, max)?],
    ...]`` — the optional field pairs appear exactly when the matching
    column is configured, in that order.  Column-pruned read; the fold
    itself is ONE Arrow group_by aggregate (vectorized — never a Python
    loop over rows); runs as an ordinary Ray task so changed buckets
    recompute in parallel across the cluster.

    min/max partials are exact under DELETES too, not just inserts: the
    lake's commit protocol rewrites a touched bucket WHOLE, so a changed
    bucket's partial is always recomputed from its full current
    contents — there is no "subtract the deleted row" step where
    min/max would lose associativity.

    Group keys (and min/max values) keep their native JSON-scalar types
    (str/int/float/bool/null); other types (dates, ...) round-trip
    through the JSON cache as strings — documented on the class."""
    import pyarrow.parquet as pq

    cols = [group_col]
    if sum_col:
        cols.append(sum_col)
    if minmax_col and minmax_col not in cols:
        cols.append(minmax_col)
    t = pq.read_table(path, columns=cols)
    if t.num_rows == 0:
        return []
    aggs = [([], "count_all")]
    if sum_col:
        styp = t[sum_col].type
        if not (pa.types.is_integer(styp) or pa.types.is_floating(styp)):
            raise TypeError(
                f"sum_col must be integer or float, got {styp} — exact "
                "decimal aggregation belongs in a full query, not the "
                "float-folding MV cache"
            )
        aggs += [(sum_col, "sum"), (sum_col, "count")]
    if minmax_col:
        mtyp = t[minmax_col].type
        if pa.types.is_decimal(mtyp):
            # decimal min/max degrade to strings in the JSON cache and
            # the cross-bucket fold would compare them LEXICOGRAPHICALLY
            # ("12" < "9") — refuse rather than silently mis-fold.
            # (ints/floats stay typed; date/timestamp degrade to ISO
            # strings, whose lexicographic order IS chronological.)
            raise TypeError(
                f"minmax_col must not be decimal (got {mtyp}) — exact "
                "decimal aggregation belongs in a full query, not the "
                "JSON-cached MV fold"
            )
        aggs += [(minmax_col, "min"), (minmax_col, "max")]
    agg = t.group_by([group_col]).aggregate(aggs)
    out = []
    n_col = agg["count_all"].to_pylist()
    g_col = agg[group_col].to_pylist()
    s_col = agg[f"{sum_col}_sum"].to_pylist() if sum_col else None
    sn_col = agg[f"{sum_col}_count"].to_pylist() if sum_col else None
    mn_col = agg[f"{minmax_col}_min"].to_pylist() if minmax_col else None
    mx_col = agg[f"{minmax_col}_max"].to_pylist() if minmax_col else None
    for i, g in enumerate(g_col):
        entry = [_key(g), int(n_col[i])]
        if sum_col:
            s = s_col[i]
            entry += [(0 if s is None else s), int(sn_col[i])]
        if minmax_col:
            entry += [_key(mn_col[i]), _key(mx_col[i])]
        out.append(entry)
    return out


def _key(k):
    """JSON-cache-safe group key: native JSON scalars pass through
    TYPED; anything else (dates, decimals) degrades to str."""
    if k is None or isinstance(k, (str, int, float, bool)):
        return k
    return str(k)


class MaterializedAggregate:
    """Per-group ``count(*)`` (+ optional ``sum(sum_col)``, optional
    ``min``/``max`` of ``minmax_col``) over the lake table, maintained
    incrementally across commits.  All three folds are associative over
    bucket partials, and since a commit rewrites touched buckets WHOLE,
    min/max stay exact under deletes (the changed bucket's partial is
    recomputed from scratch — no retraction logic needed).

    ``refresh()`` returns the aggregate of the newest committed
    version as ``[{group, n_rows[, total][, vmin, vmax]}]`` rows and
    records how many buckets were re-read (``last_recomputed`` — the
    observable that the maintenance really is incremental)."""

    def __init__(self, table_dir: str, *, group_col: str,
                 sum_col: "str | None" = None,
                 minmax_col: "str | None" = None, name: str = "mv"):
        self.table_dir = table_dir
        self.group_col = group_col
        self.sum_col = sum_col
        self.minmax_col = minmax_col
        self.ckpt = CheckpointManager(table_dir)
        self.cache_path = os.path.join(
            table_dir, "_meta",
            f"{name}-{group_col}-{sum_col or 'count'}"
            + (f"-mm_{minmax_col}" if minmax_col else "")
            + ".json",
        )
        self.last_recomputed: int | None = None

    # ------------------------------------------------------------ cache

    def _load_cache(self) -> dict:
        try:
            with open(self.cache_path) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return {"partials": {}}

    def _save_cache(self, cache: dict) -> None:
        tmp = self.cache_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(cache, f)
        os.replace(tmp, self.cache_path)  # atomic publish

    # ---------------------------------------------------------- refresh

    def refresh(self) -> "list[dict]":
        manifest = self.ckpt.restore()
        if manifest is None:
            self.last_recomputed = 0
            return []
        buckets = manifest.get("buckets", {})
        prior = self._load_cache()["partials"]

        # cache key = (path, fingerprint): untouched buckets carry the
        # same path forward; a rewritten bucket gets a new version dir
        todo: dict[str, str] = {}
        keep: dict[str, dict] = {}
        for info in buckets.values():
            ck = f"{info['path']}#{info.get('fingerprint')}"
            if ck in prior:
                keep[ck] = prior[ck]
            else:
                todo[ck] = info["path"]

        if todo:
            fresh = ray.get([
                _bucket_partial.remote(
                    p, self.group_col, self.sum_col, self.minmax_col
                )
                for p in todo.values()
            ])
            keep.update(zip(todo.keys(), fresh))
        self.last_recomputed = len(todo)

        self._save_cache({
            "version": int(manifest.get("version", 0)),
            "group_col": self.group_col,
            "sum_col": self.sum_col,
            "minmax_col": self.minmax_col,
            "partials": keep,
        })

        # folded[k] = [n, sum, n_sum, vmin, vmax] (fields present per
        # config; additive fields fold by +, min/max by comparison —
        # None means "all null so far" for both)
        folded: dict = {}
        mm_at = 3 if self.sum_col else 1  # index of vmin within acc
        for part in keep.values():
            for entry in part:
                k, acc = entry[0], entry[1:]
                tgt = folded.get(k)
                if tgt is None:
                    folded[k] = list(acc)
                    continue
                tgt[0] += acc[0]
                if self.sum_col:
                    tgt[1] += acc[1]
                    tgt[2] += acc[2]
                if self.minmax_col:
                    for j, pickfn in ((mm_at, min), (mm_at + 1, max)):
                        a, b = tgt[j], acc[j]
                        tgt[j] = (a if b is None else
                                  b if a is None else pickfn(a, b))
        rows = []
        for k in sorted(folded, key=lambda g: (g is None, str(g))):
            row = {self.group_col: k, "n_rows": folded[k][0]}
            if self.sum_col:
                # SQL SUM over an all-null group is NULL, not 0
                row["total"] = folded[k][1] if folded[k][2] else None
            if self.minmax_col:
                row["vmin"] = folded[k][mm_at]
                row["vmax"] = folded[k][mm_at + 1]
            rows.append(row)
        return rows
