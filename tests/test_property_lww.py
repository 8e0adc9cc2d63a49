"""Property-based LWW apply: random op sequences vs a dict oracle.

Hypothesis generates small event logs over a tiny key space; the engine's
distributed apply must match a sequential dict replay exactly — the
generalization of the CaptureTest golden-rows contract to arbitrary
interleavings of c/u/d ops, duplicate LSN replays, and delete-then-
recreate sequences.
"""

import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ray.data

from plugin_debezium_ray.config import CaptureConfig
from plugin_debezium_ray.pipelines.replay import ReplayJob
from plugin_debezium_ray.sources.from_table import envelopes_from_table

KEYS = ["k0", "k1", "k2", "k3"]

event_st = st.tuples(
    st.sampled_from(KEYS),
    st.sampled_from(["c", "u", "d"]),
    st.integers(0, 999),  # value payload
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(events=st.lists(event_st, min_size=1, max_size=40))
def test_lww_apply_matches_dict_oracle(events, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lww")
    df = pd.DataFrame(
        {
            "lsn": range(len(events)),
            "key": [e[0] for e in events],
            "op_raw": [e[1] for e in events],
            "val": [e[2] for e in events],
        }
    )
    env = envelopes_from_table(
        ray.data.from_pandas(df),
        key_cols=("key",),
        lsn_col="lsn",
        payload_cols=["key", "val"],
        op_col="op_raw",
        op_map={"c": "c", "u": "u", "d": "d"},
    )
    job = ReplayJob(
        CaptureConfig(key_cols=("key",), num_buckets=4),
        str(tmp / "lake"),
        fingerprint_col="val",
    )
    job.run(env)

    oracle: dict[str, int] = {}
    for i, (k, op, v) in enumerate(events):
        if op == "d":
            oracle.pop(k, None)
        else:
            oracle[k] = v

    if not oracle:
        # all keys deleted → empty lake (bucket files exist but no rows)
        try:
            got = job.read_table().to_pandas()
            assert len(got) == 0
        except FileNotFoundError:
            pass
        return
    got = job.read_table().to_pandas()
    eng = dict(zip(got["key"], got["val"]))
    assert eng == oracle
    # lsn column must carry each key's winning event lsn
    last_lsn = {}
    for i, (k, op, v) in enumerate(events):
        last_lsn[k] = i
    for k in eng:
        assert int(got[got.key == k]["lsn"].iloc[0]) == last_lsn[k]
