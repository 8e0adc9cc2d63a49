"""Token-budget curation (functions/selection.py:budget_select) vs the
DuckDB running-sum window oracle: total-order determinism, budget-edge
exclusion, block pruning, null handling."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from plugin_debezium_ray.functions.selection import budget_select


def _docs(seed=11, n=300):
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n):
        texts.append(" ".join(
            f"t{j}" for j in range(int(rng.integers(1, 30)))
        ))
    texts[5] = None
    texts[6] = "   "
    scores = rng.integers(0, 40, size=n)  # deliberately many ties
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "score": pa.array(scores, pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def _oracle(docs: pa.Table, budget: int, descending=True) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("docs", docs)
    direction = "DESC" if descending else "ASC"
    return con.sql(f"""
        WITH m AS (
          SELECT doc_id, score,
                 CASE WHEN text IS NULL OR trim(text) = '' THEN 0
                      ELSE len(regexp_split_to_array(trim(text), '\\s+'))
                 END AS n_tokens
          FROM docs WHERE score IS NOT NULL
        ), c AS (
          SELECT doc_id, score, n_tokens,
                 sum(n_tokens) OVER (ORDER BY score {direction}, doc_id
                                     ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND CURRENT ROW) AS cum
          FROM m
        )
        SELECT doc_id, score, CAST(n_tokens AS BIGINT) AS n_tokens
        FROM c WHERE cum <= {budget} ORDER BY doc_id
    """).df()


def _run(docs, budget, **kw):
    out = budget_select(
        ray.data.from_arrow(docs).repartition(7),
        budget=budget, score_col="score", id_col="doc_id", **kw,
    ).to_pandas()
    if len(out) == 0:
        return out  # empty Ray→pandas drops columns (Ray 2.49 quirk)
    return out.sort_values("doc_id").reset_index(drop=True)


class TestBudgetSelect:
    def test_matches_duckdb_running_sum(self, ray_session):
        docs = _docs()
        for budget in (0, 137, 900, 10**9):
            got = _run(docs, budget)
            exp = _oracle(docs, budget)
            if budget == 0:
                assert len(got) == 0
                continue
            pd.testing.assert_frame_equal(
                got[exp.columns.tolist()], exp.astype(got.dtypes)
            )

    def test_ascending(self, ray_session):
        docs = _docs()
        got = _run(docs, 400, descending=False)
        exp = _oracle(docs, 400, descending=False)
        pd.testing.assert_frame_equal(
            got[exp.columns.tolist()], exp.astype(got.dtypes)
        )

    def test_boundary_row_excluded(self, ray_session):
        # three docs of 5 tokens each, budget 12: exactly two fit; the
        # third would cross the budget and must be excluded
        docs = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "score": pa.array([9, 8, 7], pa.int64()),
            "text": ["a b c d e"] * 3,
        })
        got = _run(docs, 12)
        assert got["doc_id"].tolist() == [1, 2]

    def test_null_scores_dropped(self, ray_session):
        docs = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "score": pa.array([None, 3], pa.int64()),
            "text": ["x y z", "p q r"],
        })
        got = _run(docs, 100)
        assert got["doc_id"].tolist() == [2]

    def test_precomputed_token_col(self, ray_session):
        docs = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "score": pa.array([3, 2, 1], pa.int64()),
            "my_toks": pa.array([4, 4, None], pa.int64()),  # null -> 0
        })
        got = budget_select(
            ray.data.from_arrow(docs), budget=8, score_col="score",
            token_col="my_toks",
        ).to_pandas().sort_values("doc_id")
        # doc3 has 0 tokens but sits AFTER doc2 in score order and the
        # prefix 4+4 == 8 <= 8, 8+0 <= 8 too: all three selected
        assert got["doc_id"].tolist() == [1, 2, 3]
        assert list(got.columns) == ["doc_id", "score", "my_toks"]

    def test_zero_token_row_at_exact_budget_kept(self, ray_session):
        # cum after doc2 == budget exactly; doc3 has 0 tokens so its
        # cum is ALSO == budget -> the oracle keeps it (cum <= budget).
        # Regression: `base < budget` block pruning dropped it whenever
        # a block boundary landed exactly on the budget
        docs = pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "score": pa.array([9, 8, 7], pa.int64()),
            "text": ["a b c d", "e f g h", None],
        })
        for parts in (1, 2, 3):
            got = budget_select(
                ray.data.from_arrow(docs).repartition(parts),
                budget=8, score_col="score",
            ).to_pandas().sort_values("doc_id")
            assert got["doc_id"].tolist() == [1, 2, 3], parts
        exp = _oracle(docs, 8)
        assert exp["doc_id"].tolist() == [1, 2, 3]

    def test_existing_n_tokens_column_no_collision(self, ray_session):
        # token_col=None computes its own n_tokens; a pre-existing
        # column of that name in the input must not break the count map
        docs = pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "score": pa.array([2, 1], pa.int64()),
            "n_tokens": pa.array([999, 999], pa.int64()),  # bogus
            "text": ["a b c", "d e f"],
        })
        got = budget_select(
            ray.data.from_arrow(docs), budget=6, score_col="score",
        ).to_pandas().sort_values("doc_id")
        assert got["doc_id"].tolist() == [1, 2]
        assert got["n_tokens"].tolist() == [3, 3]  # computed, not 999

    def test_budget_validation(self, ray_session):
        docs = _docs(n=10)
        with pytest.raises(ValueError, match="budget"):
            _run(docs, -1)

    def test_negative_token_count_raises(self, ray_session):
        """The block prune assumes a monotone running sum; a negative
        count in a given ``token_col`` must fail, not skip rows."""
        docs = pa.table({
            "doc_id": pa.array(range(6), pa.int64()),
            "score": pa.array([6, 5, 4, 3, 2, 1], pa.int64()),
            "n": pa.array([2, 2, 2, -5, 2, 2], pa.int64()),
        })
        with pytest.raises(ValueError, match="negative token count"):
            budget_select(
                ray.data.from_arrow(docs).repartition(3), budget=3,
                score_col="score", token_col="n",
            )

    def test_zero_budget_keeps_schema(self, ray_session):
        docs = _docs(n=10)
        out = budget_select(
            ray.data.from_arrow(docs), budget=0, score_col="score",
        )
        assert out.schema().names == ["doc_id", "score", "n_tokens"]
        assert out.count() == 0
