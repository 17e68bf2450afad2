"""Spark-job budget of a round: guards against extra jobs per materialization.

In local mode every Spark job costs a fixed overhead, and that overhead, not
the row work, sets a round's latency floor.  A trailing ``.count()`` after a
materialization or a second exchange in a consolidation shows up here as a
higher job count per ``Dataflow.step()``.
"""
import pandas as pd

from repro.core.dataflow import Dataflow
from repro.datalog.queries import build_indexes, sg_from
from repro.graphs.gen import tree_graph

#: most Spark jobs any of the three rounds below may start.  Measured at
#: 7/9/9 jobs per round with adaptive query execution off (a shuffle stage
#: is no longer a job of its own) and due merges folded into each seal (one
#: materialization per arrangement per round).  It was 11/21/19 with the
#: reduce consolidating its changed keys
#: once, sharded by its key, and leaving its output's consolidation to the
#: output arrangement's seal.  It was 13/23/21 with a second consolidation
#: helper, a ``groupBy`` over the corrections and a ``distinct`` on the
#: changed keys; 22/31/29 with a consolidated snapshot re-checkpointed per
#: arrangement every round; and 45/66/61 before the single-exchange
#: consolidation and observed row counts (groupBy then repartition, a
#: ``.count()`` after every checkpoint).
MAX_JOBS_PER_STEP = 9


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


def test_steady_churn_costs_the_same_every_step(spark, spark_jobs):
    """Each arrangement materializes once a round, merges folded in, so a
    round's job count does not depend on which merges fall due."""
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.input("b", ["k", "w"])

    def build(ctx):
        a = ctx.arranged("a", ["k"])
        b = ctx.arranged("b", ["k"]).rename({"k": "k2"})
        return ctx.distinct(ctx.join(a, b, (["k"], ["k2"]), select=["k", "v", "w"]), ["k"])

    q = flow.install("q", build)
    flow.feed("a", pd.DataFrame({"k": range(10), "v": range(10)}))
    flow.feed("b", pd.DataFrame({"k": range(10), "w": range(10)}))
    flow.step()
    jobs = []
    for r in range(10):
        flow.feed("a", pd.DataFrame({"k": [r + 10], "v": [r + 10]}))
        flow.feed("a", pd.DataFrame({"k": [r], "v": [r]}), diff=-1)
        flow.feed("b", pd.DataFrame({"k": [r + 10], "w": [r + 10]}))
        flow.feed("b", pd.DataFrame({"k": [r], "w": [r]}), diff=-1)
        jobs.append(spark_jobs(flow.step)[1])
    assert sorted(q.result()["k"]) == list(range(10, 20))
    assert len(set(jobs)) == 1, f"Spark jobs per step {jobs}"


#: most Spark jobs installing ``a[k] ⋈ b[k]`` mid-stream over two shared
#: arrangements that already hold two rounds may start: a broadcast of one
#: side's import and the collect.  Measured at 2 with the join reading the
#: other side as of the previous round, which is empty before the import;
#: the three-term join (``dA ⋈ B(r) + A(r) ⋈ dB − dA ⋈ dB``) joined the
#: histories three times and started 3.
MAX_JOBS_INSTALL_JOIN = 2


def test_install_join_jobs_within_budget(spark, spark_jobs):
    flow = Dataflow(spark, shared=True)
    flow.input("a", ["k", "v"])
    flow.input("b", ["k", "w"])
    flow.install("hold_a", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
    flow.install("hold_b", lambda ctx: ctx.arranged("b", ["k"]).as_stream())
    for r in range(1, 3):
        flow.feed("a", pd.DataFrame({"k": [r, r + 1], "v": [10 * r, 10 * r + 1]}))
        flow.feed("b", pd.DataFrame({"k": [r, r + 2], "w": [100 * r, 100 * r + 2]}))
        flow.step()

    def build(ctx):
        a = ctx.arranged("a", ["k"])
        b = ctx.arranged("b", ["k"]).rename({"k": "k2"})
        return ctx.join(a, b, (["k"], ["k2"]), select=["k", "v", "w"])

    q, jobs = spark_jobs(lambda: flow.install("q", build))
    assert flow.store.arrangement_count() == 2
    assert sorted(q.result().itertuples(index=False)) == [
        (1, 10, 100), (2, 11, 200), (2, 20, 200), (3, 21, 102)]
    assert jobs <= MAX_JOBS_INSTALL_JOIN, f"Spark jobs of the install {jobs}"


#: most Spark jobs ``sg_from`` (two IDB relations, ``sg`` and ``sg_t1``,
#: after a ``tc_to`` for its magic set) may start on a depth-4 binary tree.
#: Measured at 15 jobs with adaptive query execution off, which ran each
#: shuffle stage as a job of its own; 40 with it on and the one fixpoint
#: loop, which fires EDB-only rules once and only recursive rules per step;
#: the previous evaluator, with its own loop and an ``initial`` flag,
#: started 44.
MAX_JOBS_SG_FROM = 15


def test_sg_from_jobs_within_budget(spark, spark_jobs):
    indexes = build_indexes(spark, tree_graph(4, 2))
    sg, jobs = spark_jobs(lambda: sg_from(spark, indexes, 5).collect())
    indexes["e"].unpersist()
    # node 5's sibling is 6; its parent 2 is of one generation with 1,
    # whose children are 3 and 4
    assert {(r["src"], r["dst"]) for r in sg} == {(5, 3), (5, 4), (5, 6)}
    assert jobs <= MAX_JOBS_SG_FROM, f"Spark jobs of sg_from {jobs}"
