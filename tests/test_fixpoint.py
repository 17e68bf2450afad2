"""The shared fixpoint loop and static-index ownership.

Every recursive workload (Datalog tc/sg, seeded top-down queries, ``reach``,
``sssp``) runs on :func:`repro.core.iterate.fixpoint`; a differential test
checks them all against pure-Python references on random small graphs.
"""
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from pyspark.sql import functions as F

from repro.core import iterate
from repro.core.iterate import NoFixpoint, fixpoint_min, semi_naive
from repro.datalog.queries import build_indexes, sg_from, sg_full, tc_from, tc_full, tc_to
from repro.graphs import baselines
from repro.graphs.gen import tree_graph
from tests.test_datalog import py_sg, py_tc, rows
from tests.test_memory import settled_rdd_bytes


def reach(spark, e, source):
    init = spark.createDataFrame(pd.DataFrame({"node": [source]}))

    def expand(d):
        return d.join(e, d["node"] == e["src"]).select(F.col("dst").alias("node"))

    return semi_naive(spark, init, expand, ["node"])


def sssp(spark, e, source):
    init = spark.createDataFrame(pd.DataFrame({"node": [source], "dist": [0]}))

    def expand(d):
        return d.join(e, d["node"] == e["src"]).select(
            F.col("dst").alias("node"), (F.col("dist") + F.col("w")).alias("dist")
        )

    return fixpoint_min(spark, init, expand, "node", "dist")


class TestIndexOwnership:
    def test_unpersisted_index_frees_its_blocks(self, spark):
        # Measured by the index's own RDD ids, not by total bytes: the
        # ContextCleaner may free blocks that earlier tests left unreachable
        # in the middle of this test.
        jsc = spark.sparkContext._jsc.sc()  # noqa: SLF001

        def cached():
            return {i.id() for i in jsc.getRDDStorageInfo()}

        before = settled_rdd_bytes(spark)
        idx = build_indexes(spark, tree_graph(5, 2))
        ours = cached() - set(before)
        assert ours
        idx["e"].unpersist(blocking=True)
        assert not cached() & ours

    def test_evaluator_releases_only_its_own_indexes(self, spark):
        tree = tree_graph(3, 2)
        idx = build_indexes(spark, tree)
        _, shared = tc_full(spark, tree, indexes=idx)
        _, owner = tc_full(spark, tree)
        shared.unpersist_edb()
        owner.unpersist_edb()
        assert idx["e"].storageLevel.useMemory
        assert not owner.edb["e"].storageLevel.useMemory
        assert rows(tc_from(spark, idx, 1)) == {(1, 1)} | {(s, t) for s, t in py_tc(tree) if s == 1}
        idx["e"].unpersist()


def test_no_fixpoint_is_a_named_error(spark, monkeypatch):
    e = spark.createDataFrame(pd.DataFrame({"src": [0, 1], "dst": [1, 2]}))
    monkeypatch.setattr(iterate, "MAX_STEPS", 1)
    with pytest.raises(NoFixpoint):
        reach(spark, e, 0)


edge_lists = st.integers(1, 10).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5)),
        min_size=1,
        max_size=2 * n,
    )
)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edge_list=edge_lists, pick=st.integers(0, 99))
def test_shared_loop_matches_references(spark, edge_list, pick):
    edges = pd.DataFrame(edge_list, columns=["src", "dst", "w"])
    x = int(edges["src"].iloc[pick % len(edges)])
    tc, sg = py_tc(edges), py_sg(edges)
    idx = build_indexes(spark, edges)

    assert rows(tc_full(spark, edges, indexes=idx)[0]) == tc
    got_sg, ev = sg_full(spark, edges)
    assert rows(got_sg) == sg
    ev.unpersist_edb()
    assert rows(tc_from(spark, idx, x)) == {(x, x)} | {(s, t) for s, t in tc if s == x}
    assert rows(tc_to(spark, idx, x)) == {(x, x)} | {(t, s) for s, t in tc if t == x}
    assert rows(sg_from(spark, idx, x)) == {(a, b) for a, b in sg if a == x}
    idx["e"].unpersist()

    e = spark.createDataFrame(edges)
    reached = {r["node"] for r in reach(spark, e, x).collect()}
    assert reached == {x} | {t for s, t in tc if s == x}
    assert len(reached) == baselines.reach_hashmap(edges, x)
    dist = {r["node"]: r["dist"] for r in sssp(spark, e, x).collect()}
    assert dist == baselines.sssp_hashmap(edges, x)
