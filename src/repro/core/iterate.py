"""Fixpoint iteration (§5.4) and static arrangements for batch workloads.

The paper's ``iterate`` runs a differential dataflow to fixpoint inside a
nested timestamp scope.  The batch workloads of §6.3 (graphs, Datalog,
program analysis) use iteration over *static* inputs, which we implement as
semi-naive fixpoints over Spark DataFrames:

* :class:`StaticIndex` — the batch-world arrangement: a collection cached and
  hash-partitioned by key, built once and shared by every rule/query that
  needs it (its build time is the "index-f/index-r" column of Fig. 11/14/15,
  and re-building it per query is the "no shared arrangements" baseline of
  Fig. 8).
* :func:`semi_naive` — set-semantics fixpoint (reachability-style recursion):
  repeatedly expand the *delta* (the paper's arrangement-aware join keys off
  the small side), de-duplicate against the accumulated total, stop when dry.
* :func:`fixpoint_min` — fixpoint of a per-key ``min`` aggregation (sssp,
  wcc-by-label-propagation): keep the best value per key, iterate on keys
  that improved.

Incremental maintenance of recursive results (additions re-derive from the
delta; deletions use DRed) lives with the Datalog engine
(:mod:`repro.datalog.engine`) — see DESIGN.md §2.4 for the substitution.
"""
from __future__ import annotations

import time as _time
from typing import Callable, Sequence

from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.trace import N_SHARDS, materialize


class StaticIndex:
    """A batch-mode arrangement: cached, key-partitioned, shareable, counted."""

    def __init__(self, df: DataFrame, key_cols: Sequence[str], name: str = "") -> None:
        t0 = _time.perf_counter()
        self.key_cols = list(key_cols)
        self.name = name
        self.df = df.repartition(N_SHARDS, *[F.col(c) for c in key_cols]).persist(
            StorageLevel.MEMORY_ONLY
        )
        self.rows = self.df.count()
        self.build_secs = _time.perf_counter() - t0

    def estimated_bytes(self) -> int:
        return self.rows * len(self.df.columns) * 16

    def unpersist(self) -> None:
        self.df.unpersist(blocking=False)


def semi_naive(
    spark: SparkSession,
    init: DataFrame,
    expand: Callable[[DataFrame], DataFrame],
    key_cols: Sequence[str],
    max_iters: int = 100_000,
) -> DataFrame:
    """Set-semantics fixpoint: ``total = init ∪ expand(delta) − total``.

    ``expand`` maps the iteration's *delta* rows to candidate new rows (it
    typically joins the delta against one or more :class:`StaticIndex`
    arrangements — work proportional to the frontier, not the total).
    Returns the cached fixpoint with columns ``key_cols``.
    """
    cols = list(key_cols)
    total, _ = materialize(init.select(*cols).distinct())
    delta = total
    for _ in range(max_iters):
        cand = expand(delta).select(*cols).distinct()
        new, rows = materialize(cand.join(total, cols, "left_anti"))
        if rows == 0:
            return total
        nxt, _ = materialize(total.unionByName(new))
        total.unpersist(blocking=False)
        delta, total = new, nxt
    raise RuntimeError(f"semi_naive did not converge within {max_iters} iterations")


def fixpoint_min(
    spark: SparkSession,
    init: DataFrame,
    expand: Callable[[DataFrame], DataFrame],
    key_col: str,
    val_col: str,
    max_iters: int = 100_000,
) -> DataFrame:
    """Fixpoint of per-key minimization (sssp distances, wcc labels).

    ``init`` and ``expand`` produce ``(key_col, val_col)`` rows; each round
    keeps the minimum value per key and iterates on keys whose minimum
    improved.  Returns the cached fixpoint.
    """
    best, _ = materialize(init.groupBy(key_col).agg(F.min(val_col).alias(val_col)))
    delta = best
    for _ in range(max_iters):
        cand = expand(delta).groupBy(key_col).agg(F.min(val_col).alias(val_col))
        improved, rows = materialize(
            cand.alias("c")
            .join(best.alias("b"), key_col, "left")
            .where(F.col(f"b.{val_col}").isNull() | (F.col(f"c.{val_col}") < F.col(f"b.{val_col}")))
            .select(key_col, f"c.{val_col}")
        )
        if rows == 0:
            return best
        nxt, _ = materialize(
            best.unionByName(improved).groupBy(key_col).agg(F.min(val_col).alias(val_col))
        )
        best.unpersist(blocking=False)
        delta, best = improved, nxt
    raise RuntimeError(f"fixpoint_min did not converge within {max_iters} iterations")
