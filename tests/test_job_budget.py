"""Spark-job budget of a round: guards against extra jobs per materialization.

In local mode every Spark job costs a fixed overhead, and that overhead, not
the row work, sets a round's latency floor.  A trailing ``.count()`` after a
materialization or a second exchange in a consolidation shows up here as a
higher job count per ``Dataflow.step()``.
"""
import pandas as pd

from repro.core.dataflow import Dataflow

#: most Spark jobs any of the three rounds below may start.  Measured at
#: 22/31/29 jobs per round with the single-exchange consolidation and
#: observed row counts; the previous engine (groupBy then repartition, a
#: ``.count()`` after every checkpoint) started 45/66/61.
MAX_JOBS_PER_STEP = 31


def test_jobs_per_step_within_budget(spark, spark_jobs):
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.input("b", ["k", "w"])

    def build(ctx):
        a = ctx.arranged("a", ["k"])
        b = ctx.arranged("b", ["k"]).rename({"k": "k2"})
        j = ctx.join(a, b, (["k"], ["k2"]), select=["k", "v", "w"])
        return ctx.distinct(j, ["k"])

    q = flow.install("q", build)
    assert flow.store.arrangement_count() >= 2
    jobs = []
    for r in range(1, 4):
        flow.feed("a", pd.DataFrame({"k": [r, r + 1], "v": [10 * r, 10 * r + 1]}))
        flow.feed("b", pd.DataFrame({"k": [r, r + 2], "w": [100 * r, 100 * r + 2]}))
        jobs.append(spark_jobs(flow.step)[1])
    assert sorted(q.result()["k"]) == [1, 2, 3, 4]
    assert max(jobs) <= MAX_JOBS_PER_STEP, f"Spark jobs per step {jobs}"
