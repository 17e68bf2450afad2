"""Round-cost probe: what one ``Dataflow.step()`` costs, step by step.

    PYTHONPATH=src python jobs/round_cost.py [--rounds 12] [--nodes 5000] [--edges 20000] [--churn 100]

Builds a graph dataflow with edges arranged by ``src`` and by ``dst`` (a
point look-up and a distinct 1-hop in-neighbourhood over them, with their
argument rows churning), then steps it with ``--churn`` edge inserts and as
many deletes per round.  For each step it prints the wall seconds, the Spark
jobs it started, the materializations (``trace.materialize`` calls), the
trace folds (seals that merged older batches in), the whole-stage codegen
compiles and the seconds spent inside Spark jobs, as read from Spark's
status store.  The rest of a step's wall time is driver-side planning and
py4j round trips.
"""
from __future__ import annotations

import argparse
import time

import numpy as np
import pandas as pd

from repro.core import trace
from repro.core.dataflow import Dataflow
from repro.session import get_session


def _lookup(ctx):
    args = ctx.arranged("args_lookup", ["node"])
    return ctx.join(args, ctx.arranged("edges", ["src"]), (["node"], ["src"]),
                    select=["qid", "node", "dst"])


def _inhop(ctx):
    args = ctx.arranged("args_inhop", ["node"])
    j = ctx.join(args, ctx.arranged("edges", ["dst"]), (["node"], ["dst"]),
                 select=["qid", "src"])
    return ctx.distinct(j, ["qid", "src"])


def _in_job_seconds(sc, job_ids) -> float:
    """Length of the union of the jobs' submission-to-completion intervals."""
    store = sc._jsc.sc().statusStore()  # noqa: SLF001
    spans = []
    for j in job_ids:
        data = store.job(j)
        if data.submissionTime().isDefined() and data.completionTime().isDefined():
            spans.append((data.submissionTime().get().getTime(),
                          data.completionTime().get().getTime()))
    total, end = 0, None
    for a, b in sorted(spans):
        if end is None or a > end:
            total, end = total + b - a, b
        elif b > end:
            total, end = total + b - end, b
    return total / 1000


def measure(spark, rounds: int, nodes: int, edges: int, churn: int, seed: int = 0) -> pd.DataFrame:
    """Step the dataflow ``rounds`` times; one row of costs per step."""
    rng = np.random.default_rng(seed)
    sc = spark.sparkContext
    codegen = sc._jvm.org.apache.spark.metrics.source.CodegenMetrics  # noqa: SLF001
    materializations = [0]
    plain = trace.materialize

    def counted(*args, **kwargs):
        materializations[0] += 1
        return plain(*args, **kwargs)

    def new_edges(n):
        return pd.DataFrame({"src": rng.integers(0, nodes, n), "dst": rng.integers(0, nodes, n)})

    def new_args(r):
        return pd.DataFrame({"qid": np.arange(r * 10, r * 10 + 10), "node": rng.integers(0, nodes, 10)})

    flow = Dataflow(spark, shared=True)
    flow.input("edges", ["src", "dst"])
    kinds = ("lookup", "inhop")
    for kind in kinds:
        flow.input(f"args_{kind}", ["qid", "node"])
    flow.install("lookup", _lookup)
    flow.install("inhop", _inhop)
    live = new_edges(edges)
    flow.feed("edges", live)
    args = {kind: {0: new_args(0)} for kind in kinds}
    for kind in kinds:
        flow.feed(f"args_{kind}", args[kind][0])
    flow.step()

    rows = []
    trace.materialize = counted
    try:
        for r in range(1, rounds + 1):
            doomed = live.sample(n=churn, random_state=int(rng.integers(2**31)))
            added = new_edges(churn)
            flow.feed("edges", added)
            flow.feed("edges", doomed, diff=-1)
            live = pd.concat([live.drop(doomed.index), added], ignore_index=True)
            kind = kinds[r % 2]
            args[kind][r] = new_args(r)
            flow.feed(f"args_{kind}", args[kind][r])
            old = args[kind].pop(r - 4, None)
            if old is not None:
                flow.feed(f"args_{kind}", old, diff=-1)

            group = f"round-cost-{r}"
            folds = sum(n.arrangement.trace.merge_count for n in flow.store.nodes)
            compiles = codegen.METRIC_COMPILATION_TIME().getCount()
            materializations[0] = 0
            sc.setJobGroup(group, group)
            t0 = time.perf_counter()
            try:
                flow.step()
            finally:
                wall = time.perf_counter() - t0
                sc.setLocalProperty("spark.jobGroup.id", None)
            job_ids = list(sc.statusTracker().getJobIdsForGroup(group))
            rows.append({
                "step": r,
                "wall_s": round(wall, 3),
                "jobs": len(job_ids),
                "materializations": materializations[0],
                "folds": sum(n.arrangement.trace.merge_count for n in flow.store.nodes) - folds,
                "codegen_compiles": codegen.METRIC_COMPILATION_TIME().getCount() - compiles,
                "in_job_s": round(_in_job_seconds(sc, job_ids), 3),
            })
    finally:
        trace.materialize = plain
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--nodes", type=int, default=5_000)
    ap.add_argument("--edges", type=int, default=20_000)
    ap.add_argument("--churn", type=int, default=100)
    args = ap.parse_args()
    spark = get_session("round-cost")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        df = measure(spark, args.rounds, args.nodes, args.edges, args.churn)
    finally:
        spark.stop()
    print(df.to_string(index=False))
    print(df.drop(columns="step").median().rename("median").to_string())


if __name__ == "__main__":
    main()
