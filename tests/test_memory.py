"""Memory accounting: estimates and the Spark block-manager meter."""
import gc
import time

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.dataflow import Dataflow
from repro.core.memory import cached_rdd_count, spark_cached_bytes
from repro.core.reduce import SqlAgg, w_sum
from repro.core.trace import DIFF_COL, T_COL, materialize

#: most block-manager bytes an arranged input may hold, as a multiple of
#: one materialized copy of its rows.  Measured at 0.99 with the trace
#: batches as the only state; keeping a consolidated snapshot beside the
#: trace measured 4.6 (snapshots still referenced by memoized plans count).
MAX_COPIES = 1.25

#: most trace rows an arrangement may hold per live record after long
#: churn.  Measured at 7.0 for the input, derived and reduce-output
#: arrangements of the churn test below (a 350-row trace over 50 records,
#: compaction frontier one round behind); a reduce output that never
#: compacted grew by 100 rows a round.
MAX_TRACE_ROWS_PER_LIVE_ROW = 8
CHURN_KEYS, CHURN_ROUNDS = 50, 40

#: the input-log test's live rows, and the rows it inserts (and as many it
#: retracts) in each of its rounds after the first
LOG_LIVE, LOG_CHURN, LOG_ROUNDS = 200, 10, 101


def test_spark_cached_bytes_reflects_arrangement_state(spark):
    before = spark_cached_bytes(spark)
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.feed("a", pd.DataFrame({"k": range(20000), "v": range(20000)}))
    flow.step()
    after = spark_cached_bytes(spark)
    assert after > before
    assert cached_rdd_count(spark) > 0


def test_estimate_tracks_growth(spark):
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.feed("a", pd.DataFrame({"k": range(1000), "v": range(1000)}))
    flow.step()
    m1 = flow.memory_bytes()
    flow.feed("a", pd.DataFrame({"k": range(1000, 3000), "v": range(2000)}))
    flow.step()
    assert flow.memory_bytes() > m1


def test_estimate_zero_when_empty(spark):
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    assert flow.memory_bytes() == 0


#: a settled reading is one that held this many seconds, each read after a
#: Python and a JVM GC; the ContextCleaner drops unreachable blocks
#: asynchronously, so two reads that agree 50 ms apart can both precede it.
SETTLE_S, SETTLE_MAX_S = 0.5, 10.0


def settled_rdd_bytes(spark) -> dict:
    """Block-manager bytes per cached RDD id, read after a Python and a JVM
    GC until the reading has held for :data:`SETTLE_S` (at most
    :data:`SETTLE_MAX_S` in all)."""
    jsc = spark.sparkContext._jsc.sc()  # noqa: SLF001

    def read():
        gc.collect()
        spark._jvm.System.gc()  # noqa: SLF001
        return {i.id(): i.memSize() + i.diskSize() for i in jsc.getRDDStorageInfo()}

    start = held_since = time.monotonic()
    now = read()
    while time.monotonic() - held_since < SETTLE_S and time.monotonic() - start < SETTLE_MAX_S:
        time.sleep(0.1)
        latest = read()
        if latest != now:
            now, held_since = latest, time.monotonic()
    return now


def bytes_cached_since(spark, before: dict) -> int:
    """Settled bytes of the RDDs cached after the ``before`` reading."""
    return sum(b for i, b in settled_rdd_bytes(spark).items() if i not in before)


def test_state_is_kept_once(spark):
    """An arrangement holds its trace batches and no second copy of them."""
    rows = pd.DataFrame({"k": range(20000), "v": range(20000)})
    before = settled_rdd_bytes(spark)
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.feed("a", rows)
    flow.step()
    for r in range(3):
        flow.feed("a", rows.iloc[[r]], diff=-1)
        flow.step()
    flow_bytes = bytes_cached_since(spark, before)

    before = settled_rdd_bytes(spark)
    copy = spark.createDataFrame(rows).withColumn(T_COL, F.lit(1)).withColumn(DIFF_COL, F.lit(1))
    copy, _ = materialize(copy)
    copy_bytes = bytes_cached_since(spark, before)
    assert flow_bytes <= MAX_COPIES * copy_bytes, (flow_bytes, copy_bytes)


def test_state_stays_bounded_under_churn(spark):
    """Every arrangement compacts under insert+retract churn: the input's,
    a derived collection's and a reduce output's traces stay within a
    constant factor of their live records, and the store (so
    ``memory_bytes()``) holds all three."""
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])

    def build(ctx):
        derived = ctx.arrange(ctx.arranged("a", ["k"]).as_stream(), ["k"], "a_copy")
        return ctx.reduce(derived, ["k"], SqlAgg([w_sum("v").alias("s")], ["s"]), "sums")

    q = flow.install("q", build)
    keys = list(range(CHURN_KEYS))
    for r in range(1, CHURN_ROUNDS + 1):
        flow.feed("a", pd.DataFrame({"k": keys, "v": [r] * CHURN_KEYS}))
        if r > 1:
            flow.feed("a", pd.DataFrame({"k": keys, "v": [r - 1] * CHURN_KEYS}), diff=-1)
        flow.step()
    assert sorted(q.result().itertuples(index=False)) == [(k, CHURN_ROUNDS) for k in keys]

    arrangements = {n.arrangement.name: n.arrangement for n in flow.store.nodes}
    assert set(arrangements) == {"a[k]", "a_copy", "sums"}
    for name, a in arrangements.items():
        live = a.trace.read_at(a.current_time).count()
        assert a.trace.total_rows() <= MAX_TRACE_ROWS_PER_LIVE_ROW * live, (
            name, a.trace.total_rows(), live)


@pytest.mark.parametrize("shared", [True, False])
def test_input_log_keeps_live_rows(spark, shared):
    """Under churn with no query live, an input's log stays within twice its
    live rows plus one round, its history is one frame of the live rows
    (one plan leaf, not one per round fed), and an arrangement built at the
    last round re-indexes exactly those rows, as one batch at that round."""
    flow = Dataflow(spark, shared=shared)
    a = flow.input("a", ["k", "v"])
    live = pd.DataFrame({"k": range(LOG_LIVE), "v": range(LOG_LIVE)})
    flow.feed("a", live)
    flow.step()
    for r in range(2, LOG_ROUNDS + 1):
        added = pd.DataFrame({"k": range(r * LOG_LIVE, r * LOG_LIVE + LOG_CHURN), "v": r})
        flow.feed("a", live.iloc[:LOG_CHURN], diff=-1)
        flow.feed("a", added)
        live = pd.concat([live.iloc[LOG_CHURN:], added], ignore_index=True)
        flow.step()
        assert sum(map(len, a._log)) <= 2 * LOG_LIVE + 2 * LOG_CHURN, r

    want = sorted(live.itertuples(index=False))
    history = a.history()
    assert sorted(history.select("k", "v").collect()) == want
    assert {tuple(x) for x in history.select(DIFF_COL).distinct().collect()} == {(1,)}
    assert history._jdf.queryExecution().analyzed().collectLeaves().size() == 1

    q = flow.install("q", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    assert sorted(q.result().itertuples(index=False)) == want
    [node] = flow.store.nodes
    sealed = node.arrangement.trace.updates().select(T_COL, DIFF_COL).distinct().collect()
    assert {tuple(x) for x in sealed} == {(LOG_ROUNDS, 1)}
