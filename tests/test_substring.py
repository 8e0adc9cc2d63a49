"""Corpus-wide exact substring duplication
(functions/substring.py:find_duplicate_spans) vs a DuckDB gram join —
the distributed ExactSubstr-style fingerprint exchange must match the
string-exact SQL on counts, span merging and min_count semantics."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from plugin_debezium_ray.functions.substring import find_duplicate_spans


def _corpus(seed=7, n_docs=60, n_vocab=40, planted=3):
    """Random corpus with a planted shared passage in `planted` docs
    and one doc with internal repetition."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(n_vocab)]
    passage = "lorem ipsum dolor sit amet consectetur adipiscing elit"
    texts = []
    for d in range(n_docs):
        toks = list(rng.choice(vocab, size=int(rng.integers(5, 40))))
        if d % (n_docs // planted) == 0:
            at = int(rng.integers(0, len(toks) + 1))
            toks[at:at] = passage.split()
        texts.append(" ".join(toks))
    texts.append("rep rep " + "cycle one two three " * 4)  # self-repeat
    texts.append("shorty")                                 # < k tokens
    texts.append(None)
    ids = list(range(len(texts)))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def _oracle(docs: pa.Table, k: int, min_count: int) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("documents", docs)
    return con.sql(f"""
        WITH w AS (
          SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\\s+') AS a
          FROM documents WHERE text IS NOT NULL AND trim(text) <> ''
        ), g AS (
          SELECT doc_id, i, array_to_string(a[i:i+{k - 1}], ' ') AS gram
          FROM w, LATERAL unnest(range(1, len(a) - {k - 2})) AS t(i)
          WHERE len(a) >= {k}
        ), d AS (
          SELECT gram FROM g GROUP BY gram HAVING count(*) >= {min_count}
        ), m AS (
          SELECT g.doc_id, g.i FROM g JOIN d USING (gram)
        ), isl AS (
          SELECT doc_id, i,
                 CASE WHEN i - lag(i) OVER (PARTITION BY doc_id ORDER BY i)
                          <= {k}
                      THEN 0 ELSE 1 END AS brk
          FROM m
        ), grp AS (
          SELECT doc_id, i,
                 sum(brk) OVER (PARTITION BY doc_id ORDER BY i) AS s
          FROM isl
        ), sp AS (
          SELECT doc_id, s, min(i) AS st, max(i) + {k - 1} AS en,
                 count(*) AS npos
          FROM grp GROUP BY doc_id, s
        )
        SELECT doc_id, CAST(sum(npos) AS BIGINT) AS n_dup_positions,
               CAST(count(*) AS BIGINT) AS n_spans,
               CAST(sum(en - st + 1) AS BIGINT) AS n_tokens_dup
        FROM sp GROUP BY doc_id ORDER BY doc_id
    """).df()


def _run(docs, k, min_count, **kw):
    out = find_duplicate_spans(
        ray.data.from_arrow(docs).repartition(5),
        k=k, min_count=min_count, **kw,
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


class TestDuplicateSpanStats:
    def test_matches_duckdb(self, ray_session):
        docs = _corpus()
        for k, mc in ((3, 2), (5, 2), (4, 3)):
            got = _run(docs, k, mc)
            exp = _oracle(docs, k, mc)
            pd.testing.assert_frame_equal(got, exp.astype(got.dtypes))

    def test_adjacency_merge_boundary(self, ray_session):
        # k=3: dup positions 0 and 3 merge (gap == k → contiguous
        # coverage); dup positions 0 and 4 stay two spans (gap > k)
        docs = pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [
                "a b c a b c x y z",       # dup "a b c" at 0 and 3
                "a b c q1 q2 q3 q4 a b c z",  # dup at 0 and 7 → 2 spans
                "a b c frog",              # supplies corpus-wide count
                "a b c toad",
            ],
        })
        got = _run(docs, 3, 2).set_index("doc_id")
        assert got.loc[1, "n_spans"] == 1
        assert got.loc[1, "n_tokens_dup"] == 6  # tokens 0..5
        assert got.loc[2, "n_spans"] == 2
        assert got.loc[2, "n_tokens_dup"] == 6
        exp = _oracle(docs, 3, 2).set_index("doc_id")
        pd.testing.assert_frame_equal(got, exp.astype(got.dtypes))

    def test_no_duplicates_empty_result(self, ray_session):
        docs = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": ["completely unique words here",
                     "other distinct phrasing there"],
        })
        out = find_duplicate_spans(
            ray.data.from_arrow(docs).repartition(5), k=3, min_count=2,
        )
        # Dataset-level contract: typed schema, zero rows.  (to_pandas
        # on an EMPTY Ray dataset drops columns — a Ray 2.49 quirk that
        # affects every empty Dataset, so the schema is the assertable
        # surface here.)
        assert out.schema().names == [
            "doc_id", "n_dup_positions", "n_spans", "n_tokens_dup",
        ]
        assert out.count() == 0

    def test_zero_block_input_gets_the_typed_empty_result(self, ray_session):
        """A zero-block input has no schema; the empty result still
        comes back with the stats columns instead of an AttributeError."""
        empty = ray.data.from_items([{"doc_id": 1, "text": "a b c"}]).filter(
            lambda r: False
        )
        for mode in ("stats", "strip"):
            assert find_duplicate_spans(empty, k=2, mode=mode).count() == 0
        out = find_duplicate_spans(empty, k=2)
        assert out.schema().names == [
            "doc_id", "n_dup_positions", "n_spans", "n_tokens_dup",
        ]

    def test_pandas_blocks(self, ray_session):
        """A pandas-block input reports Python types for object columns:
        an Arrow-typed id still gives the stats, an untyped column the
        seed needs raises a ValueError saying how to convert."""
        df = pd.DataFrame({"doc_id": [1, 2],
                           "text": ["a b c d", "a b c e"]})
        stats = find_duplicate_spans(ray.data.from_pandas(df), k=2)
        assert stats.to_pandas()["n_tokens_dup"].tolist() == [3, 3]
        with pytest.raises(ValueError, match=r"\['doc_id', 'text'\]"):
            find_duplicate_spans(
                ray.data.from_pandas(df.astype({"doc_id": str})), k=2,
                mode="strip",
            )

    def test_bounds_raise(self, ray_session):
        docs = _corpus(n_docs=20)
        with pytest.raises(ValueError, match="dup_max_grams"):
            _run(docs, 3, 2, dup_max_grams=1)
        with pytest.raises(ValueError, match="min_count"):
            _run(docs, 3, 1)
        with pytest.raises(ValueError, match="mode"):
            _run(docs, 3, 2, mode="bogus")
        with pytest.raises(ValueError, match="k must be"):
            _run(docs, 0, 2)


class TestSketchPrefilter:
    def test_sketch_lane_identical_to_exact(self, ray_session):
        docs = _corpus()
        for k, mc in ((3, 2), (4, 3)):
            exact = _run(docs, k, mc)
            sketched = _run(docs, k, mc, gram_filter="sketch",
                            sketch_counters=1 << 16)
            pd.testing.assert_frame_equal(exact, sketched)

    def test_tiny_sketch_still_exact(self, ray_session):
        # a deliberately undersized sketch (massive collision rate =
        # many false candidates) must STILL give exact results — the
        # downstream exact count discards every false positive
        docs = _corpus()
        exact = _run(docs, 3, 2)
        sketched = _run(docs, 3, 2, gram_filter="sketch",
                        sketch_counters=64)
        pd.testing.assert_frame_equal(exact, sketched)

    def test_bad_filter_name_raises(self, ray_session):
        docs = _corpus(n_docs=10)
        with pytest.raises(ValueError, match="gram_filter"):
            _run(docs, 3, 2, gram_filter="bogus")
        with pytest.raises(ValueError, match="sketch_counters"):
            _run(docs, 3, 2, gram_filter="sketch", sketch_counters=0)


class TestStrip:
    def test_strip_removes_exactly_covered_tokens(self, ray_session):
        docs = _corpus()
        k = 4
        stats = _run(docs, k, 2).set_index("doc_id")
        stripped = find_duplicate_spans(
            ray.data.from_arrow(docs).repartition(5), k=k, min_count=2,
            mode="strip",
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        orig = docs.to_pandas()
        assert list(stripped["doc_id"]) == list(orig["doc_id"])
        for _, row in stripped.iterrows():
            d = row["doc_id"]
            src = orig.loc[orig.doc_id == d, "text"].iloc[0]
            if src is None:
                assert row["text"] is None
                continue
            n_before = len(src.split())
            n_after = len(row["text"].split())
            if d in stats.index:
                assert n_after == n_before - stats.loc[d, "n_tokens_dup"]
            else:
                assert row["text"] == src  # untouched rows byte-equal

    def test_strip_keeps_schema_and_other_columns(self, ray_session):
        docs = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "lang": ["en", "fr"],
            "text": ["a b c d common tail", "x y z w common tail"],
        })
        out = find_duplicate_spans(
            ray.data.from_arrow(docs), k=2, min_count=2, mode="strip",
        ).to_pandas().sort_values("doc_id")
        assert list(out.columns) == ["doc_id", "lang", "text"]
        assert list(out["lang"]) == ["en", "fr"]
        assert "common tail" not in out["text"].iloc[0]

    def test_strip_preserves_large_string_type(self, ray_session):
        docs = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                ["p q shared bit here", "r s shared bit there"],
                pa.large_string(),
            ),
        })
        out = find_duplicate_spans(
            ray.data.from_arrow(docs), k=2, min_count=2, mode="strip",
        )
        # modified AND untouched blocks must keep the input column type
        assert out.schema().types[1] == pa.large_string()
        got = out.to_pandas().sort_values("doc_id")
        assert "shared bit" not in got["text"].iloc[0]


class TestEmptyHelpers:
    """The count and span helpers take empty input without raising."""

    def test_unique_pairs_of_nothing(self):
        from plugin_debezium_ray.functions.substring import _unique_pairs

        h = np.zeros(0, np.uint64)
        u0, u1, n = _unique_pairs(h, h)
        assert len(u0) == len(u1) == len(n) == 0
        u0, u1, w = _unique_pairs(h, h, np.zeros(0, np.float64))
        assert len(u0) == len(u1) == len(w) == 0 and w.dtype == np.float64

    def test_merged_spans_of_nothing(self):
        from plugin_debezium_ray.functions.substring import _merged_spans

        docs, starts, ends = _merged_spans(
            np.zeros(0, np.int64), np.zeros(0, np.int64), k=5
        )
        assert len(docs) == len(starts) == len(ends) == 0
