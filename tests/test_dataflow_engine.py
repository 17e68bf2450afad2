"""End-to-end engine semantics: incremental == batch, sharing == no sharing."""
import time
from collections import Counter

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.arrange import DeltaNotKept
from repro.core.dataflow import Dataflow, NegativeMultiplicity
from repro.core.reduce import PandasAgg, SqlAgg, w_count, w_min, w_sum
from tests.test_memory import bytes_cached_since, settled_rdd_bytes


def kv(rows):
    return pd.DataFrame(rows, columns=["k", "v"])


def sorted_records(pdf):
    if len(pdf) == 0:
        return []
    return sorted(map(tuple, pdf.to_numpy().tolist()))


@pytest.fixture
def flow(spark):
    df = Dataflow(spark, shared=True)
    df.input("a", ["k", "v"])
    df.input("b", ["k", "w"])
    return df


class TestInputsAndStateless:
    def test_input_flows_to_sink(self, flow):
        q = flow.install("q", lambda ctx: ctx.stream("a"))
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.step()
        assert sorted_records(q.result()) == [(1, 10), (2, 20)]

    def test_retraction_cancels(self, flow):
        q = flow.install("q", lambda ctx: ctx.stream("a"))
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.step()
        flow.feed("a", kv([(1, 10)]), diff=-1)
        flow.step()
        assert sorted_records(q.result()) == [(2, 20)]

    def test_retracting_an_absent_row_is_a_named_error(self, flow):
        q = flow.install("q", lambda ctx: ctx.stream("a"))
        flow.feed("a", kv([(1, 10)]))
        flow.feed("a", kv([(2, 20)]), diff=-1)
        flow.step()
        with pytest.raises(NegativeMultiplicity):
            q.result()

    def test_filter_and_map(self, flow):
        def build(ctx):
            return (
                ctx.stream("a")
                .filter(F.col("v") > 10)
                .map(lambda df: df.withColumn("v", F.col("v") * 2), ["k", "v"])
            )

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.step()
        assert sorted_records(q.result()) == [(2, 40)]

    def test_concat_and_negate_except(self, flow):
        def build(ctx):
            a = ctx.stream("a").select("k")
            b = ctx.stream("b").select("k")
            return a.concat(b.negate())

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 0), (2, 0)]))
        flow.feed("b", pd.DataFrame([(2, 0)], columns=["k", "w"]))
        flow.step()
        assert sorted_records(q.result()) == [(1,)]

    def test_multiplicity_expansion(self, flow):
        q = flow.install("q", lambda ctx: ctx.stream("a").select("k"))
        flow.feed("a", kv([(1, 10), (1, 20)]))
        flow.step()
        assert sorted_records(q.result()) == [(1,), (1,)]


class TestJoin:
    def build_join(self, ctx):
        a = ctx.arranged("a", ["k"])
        b = ctx.arranged("b", ["k"]).rename({"k": "k2"})
        return ctx.join(a, b, (["k"], ["k2"]), select=["k", "v", "w"])

    def test_basic_join(self, flow):
        q = flow.install("q", self.build_join)
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.feed("b", pd.DataFrame([(1, 100), (3, 300)], columns=["k", "w"]))
        flow.step()
        assert sorted_records(q.result()) == [(1, 10, 100)]

    def test_join_incremental_matches_batch(self, flow, spark):
        q = flow.install("q", self.build_join)
        flow.feed("a", kv([(1, 10)]))
        flow.step()
        flow.feed("b", pd.DataFrame([(1, 100)], columns=["k", "w"]))
        flow.step()
        flow.feed("a", kv([(1, 11)]))
        flow.feed("b", pd.DataFrame([(1, 101)], columns=["k", "w"]))
        flow.step()
        flow.feed("a", kv([(1, 10)]), diff=-1)
        flow.step()
        # batch equivalent
        assert sorted_records(q.result()) == [
            (1, 11, 100),
            (1, 11, 101),
        ]

    def test_join_multiplicities_multiply(self, flow):
        q = flow.install("q", self.build_join)
        flow.feed("a", kv([(1, 10), (1, 10)]))
        flow.feed("b", pd.DataFrame([(1, 100), (1, 100)], columns=["k", "w"]))
        flow.step()
        assert len(q.result()) == 4

    def test_key_renaming_required_on_collision(self, flow):
        def bad(ctx):
            a = ctx.arranged("a", ["k"])
            b = ctx.arranged("a", ["k"])
            return ctx.join(a, b, (["k"], ["k"]))

        with pytest.raises(ValueError, match="share column names"):
            flow.install("bad", bad)


class TestReduce:
    def test_sql_agg_count_sum(self, flow):
        def build(ctx):
            return ctx.reduce(
                ctx.stream("a"),
                ["k"],
                SqlAgg([w_count().alias("n"), w_sum("v").alias("s")], ["n", "s"]),
            )

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10), (1, 20), (2, 5)]))
        flow.step()
        assert sorted_records(q.result()) == [(1, 2, 30.0), (2, 1, 5.0)]
        flow.feed("a", kv([(1, 10)]), diff=-1)
        flow.step()
        assert sorted_records(q.result()) == [(1, 1, 20.0), (2, 1, 5.0)]

    def test_group_disappears_when_empty(self, flow):
        def build(ctx):
            return ctx.reduce(ctx.stream("a"), ["k"], SqlAgg([w_count().alias("n")], ["n"]))

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10)]))
        flow.step()
        flow.feed("a", kv([(1, 10)]), diff=-1)
        flow.step()
        assert len(q.result()) == 0

    def test_global_reduce(self, flow):
        def build(ctx):
            return ctx.reduce(ctx.stream("a"), [], SqlAgg([w_sum("v").alias("s")], ["s"]))

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.step()
        assert sorted_records(q.result()) == [(30.0,)]
        flow.feed("a", kv([(3, 5)]))
        flow.step()
        assert sorted_records(q.result()) == [(35.0,)]

    def test_pandas_agg_topk(self, flow):
        def top2(pdf):
            expanded = pdf.loc[pdf.index.repeat(pdf["__diff"])]
            return expanded.nlargest(2, "v")[["k", "v"]].rename(
                columns={"k": "kk", "v": "vv"}
            )

        def build(ctx):
            return ctx.reduce(
                ctx.stream("a"), [], PandasAgg(top2, "kk long, vv long", ["kk", "vv"])
            )

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10), (2, 30), (3, 20)]))
        flow.step()
        assert sorted_records(q.result()) == [(2, 30), (3, 20)]
        flow.feed("a", kv([(4, 99)]))
        flow.step()
        assert sorted_records(q.result()) == [(2, 30), (4, 99)]

    def test_reduce_output_is_joinable_reader(self, flow):
        """§5.3.2: a downstream join consumes the group's output arrangement."""

        def build(ctx):
            counts = ctx.reduce(
                ctx.stream("a"), ["k"], SqlAgg([w_count().alias("n")], ["n"])
            )
            b = ctx.arranged("b", ["k"]).rename({"k": "k2"})
            return ctx.join(counts, b, (["k"], ["k2"]), select=["k", "n", "w"])

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10), (1, 20)]))
        flow.feed("b", pd.DataFrame([(1, 100)], columns=["k", "w"]))
        flow.step()
        assert sorted_records(q.result()) == [(1, 2, 100)]


class TestSemiAntiJoin:
    def test_semi_join(self, flow):
        def build(ctx):
            return ctx.semi_join(
                ctx.arranged("a", ["k"]), ctx.stream("b"), (["k"], ["k"])
            )

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.feed("b", pd.DataFrame([(1, 0), (1, 1)], columns=["k", "w"]))
        flow.step()
        assert sorted_records(q.result()) == [(1, 10)]  # not duplicated

    def test_anti_join(self, flow):
        def build(ctx):
            return ctx.anti_join(
                ctx.arranged("a", ["k"]), ctx.stream("b"), (["k"], ["k"])
            )

        q = flow.install("q", build)
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.feed("b", pd.DataFrame([(1, 0)], columns=["k", "w"]))
        flow.step()
        assert sorted_records(q.result()) == [(2, 20)]
        flow.feed("b", pd.DataFrame([(1, 0)], columns=["k", "w"]), diff=-1)
        flow.step()
        assert sorted_records(q.result()) == [(1, 10), (2, 20)]


class TestInstallImport:
    def test_late_query_sees_history(self, flow):
        """§4.3 import: a new query immediately reflects all prior events."""
        flow.install("early", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        flow.feed("a", kv([(1, 10), (2, 20)]))
        flow.step()
        late = flow.install("late", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        assert sorted_records(late.result()) == [(1, 10), (2, 20)]

    def test_windowed_stream_does_not_see_history(self, flow):
        flow.install("early", lambda ctx: ctx.stream("a"))
        flow.feed("a", kv([(1, 10)]))
        flow.step()
        late = flow.install("late", lambda ctx: ctx.stream("a"))
        assert len(late.result()) == 0
        flow.feed("a", kv([(2, 20)]))
        flow.step()
        assert sorted_records(late.result()) == [(2, 20)]

    def test_late_join_over_shared_arrangements(self, flow):
        flow.install("early", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        flow.feed("a", kv([(1, 10)]))
        flow.feed("b", pd.DataFrame([(1, 100)], columns=["k", "w"]))
        flow.step()
        late = flow.install("late", TestJoin().build_join)
        assert sorted_records(late.result()) == [(1, 10, 100)]
        flow.feed("a", kv([(2, 2)]))
        flow.feed("b", pd.DataFrame([(2, 200)], columns=["k", "w"]))
        flow.step()
        assert sorted_records(late.result()) == [(1, 10, 100), (2, 2, 200)]

    @staticmethod
    def join_ab(ctx):
        a = ctx.arranged("a", ["k"])
        b = ctx.arranged("b", ["k"]).rename({"k": "kb"})
        return ctx.join(a, b, (["k"], ["kb"]), select=["k", "v", "w"])

    @classmethod
    def join_of_join(cls, ctx):
        c = ctx.arranged("c", ["w"]).rename({"w": "wc"})
        return ctx.join(cls.join_ab(ctx), c, (["w"], ["wc"]), select=["k", "v", "w", "x"])

    @classmethod
    def count_over_join(cls, ctx):
        return ctx.reduce(cls.join_ab(ctx), ["k"], SqlAgg([w_count().alias("n")], ["n"]))

    @pytest.mark.parametrize("shared", [True, False])
    def test_late_queries_over_derived_arrangements(self, spark, shared):
        """A query installed mid-stream that arranges a derived collection
        (a join's output, arranged again to join or reduce it) reflects every
        prior event at install, and stays correct the round after."""
        flow = Dataflow(spark, shared=shared)
        live = {
            "a": kv([(1, 10), (2, 20), (2, 21)]),
            "b": pd.DataFrame([(1, 100), (2, 200)], columns=["k", "w"]),
            "c": pd.DataFrame([(100, 7), (200, 8)], columns=["w", "x"]),
        }
        for name, pdf in live.items():
            flow.input(name, list(pdf.columns))
        queries = {"join_early": flow.install("join_early", self.join_of_join)}

        def check():
            ab = live["a"].merge(live["b"], on="k")
            want = {
                "join": sorted_records(ab.merge(live["c"], on="w")[["k", "v", "w", "x"]]),
                "count": sorted_records(ab.groupby("k", as_index=False).size()),
            }
            for name, q in queries.items():
                assert sorted_records(q.result()) == want[name.split("_")[0]], name

        for name, pdf in live.items():
            flow.feed(name, pdf)
        flow.step()
        queries["join_late"] = flow.install("join_late", self.join_of_join)
        queries["count_late"] = flow.install("count_late", self.count_over_join)
        check()

        flow.feed("a", kv([(1, 11)]))
        flow.feed("b", pd.DataFrame([(2, 200)], columns=["k", "w"]), diff=-1)
        flow.feed("c", pd.DataFrame([(100, 9)], columns=["w", "x"]))
        live["a"] = pd.concat([live["a"], kv([(1, 11)])])
        live["b"] = live["b"][live["b"]["k"] != 2]
        live["c"] = pd.concat([live["c"], pd.DataFrame([(100, 9)], columns=["w", "x"])])
        flow.step()
        check()

    def test_shared_arrangement_reused(self, flow):
        flow.install("q1", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        n1 = flow.store.arrangement_count()
        flow.install("q2", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        assert flow.store.arrangement_count() == n1  # no new index built

    def test_unshared_builds_duplicates(self, spark):
        df = Dataflow(spark, shared=False)
        df.input("a", ["k", "v"])
        df.install("q1", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        df.install("q2", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        assert df.store.arrangement_count() == 2

    def test_only_the_newest_delta_is_kept(self, flow):
        flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        for r in (1, 2):
            flow.feed("a", kv([(r, r)]))
            flow.step()
        (arrangement,) = [n.arrangement for n in flow.store.nodes]
        assert [tuple(x) for x in arrangement.delta(2).select("k", "v").collect()] == [(2, 2)]
        with pytest.raises(DeltaNotKept):
            arrangement.delta(1)


class TestRetire:
    def test_retire_releases_private_state(self, spark):
        df = Dataflow(spark, shared=False)
        df.input("a", ["k", "v"])
        df.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        df.feed("a", kv([(1, 10)]))
        df.step()
        assert df.memory_bytes() > 0
        df.retire("q")
        assert df.memory_bytes() == 0

    def test_retire_frees_blocks_before_it_returns(self, spark):
        """The blocks are freed by ``retire`` itself, not once garbage
        collection reaches them: here the retired query is still referenced."""
        jsc = spark.sparkContext._jsc.sc()  # noqa: SLF001

        def cached():
            return {i.id() for i in jsc.getRDDStorageInfo()}

        before = cached()
        flow = Dataflow(spark, shared=True)
        flow.input("a", ["k", "v"])
        flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        flow.feed("a", kv([(1, 10)]))
        flow.step()
        ours = cached() - before
        assert ours
        q = flow.retire("q")
        assert not cached() & ours
        assert sorted_records(q.result()) == [(1, 10)]

    def test_shared_state_survives_retire(self, flow):
        flow.install("q1", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        flow.install("q2", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        flow.feed("a", kv([(1, 10)]))
        flow.step()
        flow.retire("q1")
        assert flow.memory_bytes() > 0
        flow.feed("a", kv([(2, 20)]))
        flow.step()
        assert sorted_records(flow.queries["q2"].result()) == [(1, 10), (2, 20)]

    @pytest.mark.parametrize("shared", [True, False])
    def test_last_reader_releases_and_rebuild_is_correct(self, spark, shared):
        """Retiring the last readers of ``a[k]`` releases it, blocks and all,
        in either mode; a later query on ``a[k]`` re-indexes the input's
        history and stays correct."""
        flow = Dataflow(spark, shared=shared)
        flow.input("a", ["k", "v"])
        live = Counter({(1, 10): 1, (2, 20): 1, (3, 30): 1})
        before = settled_rdd_bytes(spark)
        for name in ("q1", "q2"):
            flow.install(name, lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        flow.feed("a", kv(list(live)))
        flow.step()
        assert bytes_cached_since(spark, before) > 0
        flow.retire("q1")
        flow.retire("q2")
        assert flow.store.arrangement_count() == 0
        assert flow.memory_bytes() == 0
        # the ContextCleaner frees unreachable blocks asynchronously
        deadline = time.monotonic() + 30
        while bytes_cached_since(spark, before) and time.monotonic() < deadline:
            time.sleep(0.2)
        assert bytes_cached_since(spark, before) == 0

        def churn(insert, retract):
            flow.feed("a", kv([insert]))
            flow.feed("a", kv([retract]), diff=-1)
            live[insert] += 1
            live[retract] -= 1
            flow.step()

        def check(q):
            rows = pd.DataFrame(list(live.elements()), columns=["k", "v"])
            want = rows.groupby("k", as_index=False)["v"].sum()
            assert sorted_records(q.result()) == sorted_records(want)

        churn((1, 11), (2, 20))
        q3 = flow.install(
            "q3",
            lambda ctx: ctx.reduce(
                ctx.arranged("a", ["k"]), ["k"], SqlAgg([w_sum("v").alias("s")], ["s"])
            ),
        )
        check(q3)
        churn((4, 40), (1, 10))
        check(q3)


class TestSharedUnsharedEquivalence:
    def _run(self, spark, shared):
        df = Dataflow(spark, shared=shared)
        df.input("a", ["k", "v"])
        df.input("b", ["k", "w"])
        q1 = df.install("q1", TestJoin().build_join)

        def q2_build(ctx):
            return ctx.reduce(
                ctx.arranged("a", ["k"]), ["k"], SqlAgg([w_sum("v").alias("s")], ["s"])
            )

        df.feed("a", kv([(1, 10), (2, 20)]))
        df.feed("b", pd.DataFrame([(1, 100)], columns=["k", "w"]))
        df.step()
        q2 = df.install("q2", q2_build)
        df.feed("a", kv([(1, 30)]))
        df.feed("b", pd.DataFrame([(2, 200)], columns=["k", "w"]))
        df.step()
        df.feed("a", kv([(2, 20)]), diff=-1)
        df.step()
        return sorted_records(q1.result()), sorted_records(q2.result())

    def test_results_identical(self, spark):
        assert self._run(spark, True) == self._run(spark, False)


class TestUnconsolidatedReads:
    """Reducers read the input arrangement as the union of its batches.

    With lazy merging, a key asserted in a large first batch and retracted
    in a later one-row batch stays in two batches, as a +1 row and a -1 row.
    ``distinct`` and ``min`` must see it as absent, so the reduce has to
    consolidate the rows it reads; every round is checked against pandas,
    including queries installed after the retraction (the §4.3 import).
    """

    @staticmethod
    def distinct_kv(ctx):
        return ctx.distinct(ctx.arranged("a", ["k"]), ["k", "v"])

    @staticmethod
    def min_v(ctx):
        return ctx.reduce(
            ctx.arranged("a", ["k"]), ["k"], SqlAgg([w_min("v").alias("mn")], ["mn"])
        )

    @staticmethod
    def check(queries, live: Counter) -> None:
        rows = pd.DataFrame(list(live.elements()), columns=["k", "v"])
        want_distinct = sorted_records(rows.drop_duplicates())
        want_min = sorted_records(rows.groupby("k", as_index=False)["v"].min())
        for name, q in queries.items():
            want = want_distinct if name.startswith("distinct") else want_min
            assert sorted_records(q.result()) == want, name

    @pytest.mark.parametrize("shared", [True, False])
    def test_reduce_consolidates_split_retraction(self, spark, shared):
        flow = Dataflow(spark, shared=shared, merge_effort="lazy")
        flow.input("a", ["k", "v"])
        queries = {
            "distinct": flow.install("distinct", self.distinct_kv),
            "min": flow.install("min", self.min_v),
        }
        live = Counter((k % 50, k) for k in range(200))
        live.update([(0, -5), (0, -7)])
        flow.feed("a", kv(list(live.elements())))
        flow.step()
        self.check(queries, live)

        flow.feed("a", kv([(0, -5)]), diff=-1)
        live.subtract([(0, -5)])
        flow.step()
        inputs = [n.arrangement for n in flow.store.nodes if n.arrangement.name.startswith("a[")]
        assert all(len(a.trace.batches) == 2 for a in inputs)
        self.check(queries, live)

        queries["distinct_late"] = flow.install("distinct_late", self.distinct_kv)
        queries["min_late"] = flow.install("min_late", self.min_v)
        self.check(queries, live)

        flow.feed("a", kv([(0, -7)]), diff=-1)
        flow.feed("a", kv([(1, -1)]))
        live.subtract([(0, -7)])
        live.update([(1, -1)])
        flow.step()
        self.check(queries, live)
