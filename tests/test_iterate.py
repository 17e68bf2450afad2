"""Fixpoint helpers and static indexes against pure-Python references."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.iterate import StaticIndex, fixpoint_min, semi_naive
from repro.graphs import baselines
from repro.graphs.gen import grid_graph, random_graph, tree_graph


@pytest.fixture(scope="module")
def chain_edges():
    return pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4]})


class TestStaticIndex:
    def test_build_counts_and_times(self, spark, chain_edges):
        idx = StaticIndex(spark.createDataFrame(chain_edges), ["src"])
        assert idx.rows == 4
        assert idx.build_secs > 0
        idx.unpersist()

    def test_key_partitioned(self, spark, chain_edges):
        idx = StaticIndex(spark.createDataFrame(chain_edges), ["src"])
        assert idx.df.rdd.getNumPartitions() == 8
        idx.unpersist()


class TestSemiNaive:
    def test_chain_reachability(self, spark, chain_edges):
        e = StaticIndex(spark.createDataFrame(chain_edges), ["src"])
        init = spark.createDataFrame(pd.DataFrame({"node": [0]}))

        def expand(d):
            return d.join(e.df, d["node"] == e.df["src"]).select(
                F.col("dst").alias("node")
            )

        total = semi_naive(spark, init, expand, ["node"])
        assert {r["node"] for r in total.collect()} == {0, 1, 2, 3, 4}

    def test_cycle_terminates(self, spark):
        edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0]})
        e = StaticIndex(spark.createDataFrame(edges), ["src"])
        init = spark.createDataFrame(pd.DataFrame({"node": [0]}))

        def expand(d):
            return d.join(e.df, d["node"] == e.df["src"]).select(
                F.col("dst").alias("node")
            )

        total = semi_naive(spark, init, expand, ["node"])
        assert total.count() == 3

    def test_matches_bfs_on_random_graph(self, spark):
        edges = random_graph(200, 600, seed=3)
        e = StaticIndex(spark.createDataFrame(edges), ["src"])
        src = int(edges["src"].min())
        init = spark.createDataFrame(pd.DataFrame({"node": [src]}))

        def expand(d):
            return d.join(e.df, d["node"] == e.df["src"]).select(
                F.col("dst").alias("node")
            )

        total = semi_naive(spark, init, expand, ["node"])
        assert total.count() == baselines.reach_hashmap(edges, src)


class TestFixpointMin:
    def test_sssp_matches_dijkstra(self, spark):
        edges = random_graph(150, 500, seed=5, weights=True)
        e = StaticIndex(spark.createDataFrame(edges), ["src"])
        src = int(edges["src"].min())
        init = spark.createDataFrame(pd.DataFrame({"node": [src], "dist": [0]}))

        def expand(d):
            return d.join(e.df, d["node"] == e.df["src"]).select(
                F.col("dst").alias("node"), (F.col("dist") + F.col("w")).alias("dist")
            )

        got = {r["node"]: r["dist"] for r in fixpoint_min(spark, init, expand, "node", "dist").collect()}
        ref = baselines.sssp_hashmap(edges, src)
        assert got == {k: v for k, v in ref.items()}


class TestGenerators:
    def test_tree(self):
        t = tree_graph(3, 2)
        assert len(t) == 2 + 4 + 8

    def test_grid(self):
        g = grid_graph(4)
        assert len(g) == 2 * 4 * 3

    def test_random_graph_deterministic(self):
        a, b = random_graph(50, 100, seed=9), random_graph(50, 100, seed=9)
        pd.testing.assert_frame_equal(a, b)
