"""Fixpoint iteration (§5.4) and static arrangements for batch workloads.

The paper's ``iterate`` runs a differential dataflow to fixpoint inside a
nested timestamp scope.  The batch workloads of §6.3 (graphs, Datalog,
program analysis) use iteration over *static* inputs, which we implement as
semi-naive fixpoints over Spark DataFrames:

* :class:`StaticIndex` — the batch-world arrangement: a collection cached and
  hash-partitioned by key, built once and shared by every rule/query that
  needs it (its build time is the "index-f/index-r" column of Fig. 11/14/15,
  and re-building it per query is the "no shared arrangements" baseline of
  Fig. 8).  It is the one builder of long-lived indexes; per-step and
  per-query frames use :func:`repro.core.trace.materialize`.
* :func:`fixpoint` — the one semi-naive loop, over named relations; its
  callers supply a step and a merge.  :func:`semi_naive` (set semantics:
  anti-join then union), :func:`fixpoint_min` (keep the per-key minimum,
  for sssp and wcc) and the Datalog ``Evaluator`` (fire the recursive
  rules) are its callers.
"""
from __future__ import annotations

import itertools
import time as _time
from typing import Callable, Dict, Sequence, Tuple

from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.trace import N_SHARDS, materialize

_index_ids = itertools.count()


class StaticIndex:
    """A batch-mode arrangement: cached, key-partitioned, shareable, counted.

    Only its owner releases it, with :meth:`unpersist`.  Spark keys cached
    data by plan, so a per-index literal filter (folded away before
    execution) keeps equal plans from sharing, and dropping, one entry.
    """

    def __init__(self, df: DataFrame, key_cols: Sequence[str], name: str = "") -> None:
        t0 = _time.perf_counter()
        self.name = name
        self.df = (
            df.repartition(N_SHARDS, *[F.col(c) for c in key_cols])
            .where(F.lit(next(_index_ids)) >= 0)
            .persist(StorageLevel.MEMORY_ONLY)
        )
        self.rows = self.df.count()
        self.build_secs = _time.perf_counter() - t0

    def unpersist(self) -> None:
        self.df.unpersist(blocking=False)


#: steps after which a fixpoint loop gives up (raises :class:`NoFixpoint`)
MAX_STEPS = 100_000

Relations = Dict[str, DataFrame]


class NoFixpoint(RuntimeError):
    """A fixpoint loop still derived new rows after :data:`MAX_STEPS` steps."""


def fixpoint(
    init: Relations,
    step: Callable[[Relations, Relations], Relations],
    merge: Callable[[DataFrame, DataFrame], DataFrame] = DataFrame.unionByName,
) -> Tuple[Relations, int]:
    """The one semi-naive loop: iterate ``step`` until no relation grows.

    ``init`` maps every relation to its initial rows, the first deltas.
    ``step(deltas, totals)`` returns lazy plans of *fresh* rows (candidates
    from the deltas that the totals lack) for some relations; once
    materialized, ``merge(total, fresh)`` folds them into the totals and
    they become the next deltas.  Returns the totals and the steps run.
    """
    totals: Relations = {}
    deltas: Relations = {}
    for name, df in init.items():
        totals[name], rows = materialize(df)
        if rows:
            deltas[name] = totals[name]
    steps = 0
    while deltas:
        if steps == MAX_STEPS:
            raise NoFixpoint(f"no fixpoint within {MAX_STEPS} steps")
        steps += 1
        fresh = {}
        for name, cand in step(deltas, totals).items():
            new, rows = materialize(cand)
            if rows:
                fresh[name] = new
        for name, new in fresh.items():
            totals[name] = materialize(merge(totals[name], new))[0]
        deltas = fresh
    return totals, steps


def semi_naive(
    spark: SparkSession,
    init: DataFrame,
    expand: Callable[[DataFrame], DataFrame],
    key_cols: Sequence[str],
) -> DataFrame:
    """Set-semantics fixpoint: ``total = init ∪ expand(delta) − total``.

    ``expand`` maps the iteration's *delta* rows to candidate new rows (it
    typically joins the delta against one or more :class:`StaticIndex`
    arrangements — work proportional to the frontier, not the total).
    Returns the cached fixpoint with columns ``key_cols``.
    """
    cols = list(key_cols)

    def step(deltas: Relations, totals: Relations) -> Relations:
        cand = expand(deltas["r"]).select(*cols).distinct()
        return {"r": cand.join(totals["r"], cols, "left_anti")}

    return fixpoint({"r": init.select(*cols).distinct()}, step)[0]["r"]


def fixpoint_min(
    spark: SparkSession,
    init: DataFrame,
    expand: Callable[[DataFrame], DataFrame],
    key_col: str,
    val_col: str,
) -> DataFrame:
    """Fixpoint of per-key minimization (sssp distances, wcc labels).

    ``init`` and ``expand`` produce ``(key_col, val_col)`` rows; each round
    keeps the minimum value per key and iterates on keys whose minimum
    improved.  Returns the cached fixpoint.
    """

    def best(df: DataFrame) -> DataFrame:
        return df.groupBy(key_col).agg(F.min(val_col).alias(val_col))

    def step(deltas: Relations, totals: Relations) -> Relations:
        cand = best(expand(deltas["v"])).alias("c")
        improved = cand.join(totals["v"].alias("b"), key_col, "left").where(
            F.col(f"b.{val_col}").isNull() | (F.col(f"c.{val_col}") < F.col(f"b.{val_col}"))
        )
        return {"v": improved.select(key_col, f"c.{val_col}")}

    return fixpoint({"v": best(init)}, step, lambda b, new: best(b.unionByName(new)))[0]["v"]
