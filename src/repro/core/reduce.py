"""The group/reduce operator with a shared output arrangement (§5.3.2).

Per round, :class:`ReduceNode` identifies the keys touched by its input
delta, semi-joins exactly those keys out of the input arrangement's batches,
consolidates that subset (the batches are not consolidated with each other),
applies the reduction, and subtracts the previously produced output — read
from its own **output arrangement** as ``snap(r - 1)`` — to emit corrective
updates: retraction/assertion pairs as negative/positive diffs, which the
output arrangement's seal consolidates like any batch (§4.2).

The output arrangement serves double duty, as in the paper: it lets the
operator diff against its prior output without re-invoking user logic over
history, and it *is* the reduce's result: ``QueryContext.reduce`` returns
its :class:`~repro.core.store.ArrangementReader`, so a downstream join
consumes the reduction's index directly — the group-then-join idiom §5.3.2
calls out.  It is an ordinary private arrangement in the query's
:class:`~repro.core.store.ArrangementStore` whose source stream is the
:class:`ReduceNode`: its reader's frontier advances every round so it
compacts like any other arrangement, and it is released when the query
retires its reader.

Aggregate helpers weight by multiplicity, and floating-point aggregates are
rounded (4 dp) *inside the operator* so that a later retraction reproduces
bit-identical values and cancels exactly; the DuckDB oracle queries apply the
same rounding.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import pandas as pd
from pyspark.sql import Column, DataFrame, functions as F

from repro.core.collection import Reader, Stream
from repro.core.trace import DIFF_COL, consolidate, union_all

_GROUP = "__g"

#: decimal places all floating-point aggregates are rounded to, engine-wide.
AGG_ROUND = 4


def w_sum(col) -> Column:
    """Multiplicity-weighted SUM, rounded for deterministic retraction."""
    return F.round(F.sum(_c(col) * F.col(DIFF_COL)), AGG_ROUND)


def w_count() -> Column:
    """Multiplicity-weighted COUNT(*) (i.e. the multiset cardinality)."""
    return F.sum(F.col(DIFF_COL))


def w_avg(col) -> Column:
    """Multiplicity-weighted AVG, rounded like :func:`w_sum`."""
    return F.round(F.sum(_c(col) * F.col(DIFF_COL)) / F.sum(F.col(DIFF_COL)), AGG_ROUND)


def w_min(col) -> Column:
    """MIN over present records (requires non-negative multiplicities)."""
    return F.min(_c(col))


def w_max(col) -> Column:
    """MAX over present records (requires non-negative multiplicities)."""
    return F.max(_c(col))


def _c(col) -> Column:
    return F.col(col) if isinstance(col, str) else col


class SqlAgg:
    """Whole-stage-SQL reduction: a list of pre-aliased aggregate Columns."""

    def __init__(self, exprs: Sequence[Column], out_cols: Sequence[str]) -> None:
        self.exprs = list(exprs)
        self.out_cols = list(out_cols)

    def apply(self, cur: DataFrame, key_cols: Sequence[str]) -> DataFrame:
        keys = list(key_cols) or [_GROUP]
        if not key_cols:
            cur = cur.withColumn(_GROUP, F.lit(1))
        out = cur.groupBy(*keys).agg(*self.exprs)
        return out.drop(_GROUP) if not key_cols else out


class DistinctAgg(SqlAgg):
    """``distinct``: reduce every present key group to multiplicity one.

    This is the indicator collection behind semi-joins (``A ⋉ B`` =
    ``A ⋈ distinct(π_key B)``) and, with negation, anti-joins.
    """

    def __init__(self) -> None:
        super().__init__([], [])

    def apply(self, cur: DataFrame, key_cols: Sequence[str]) -> DataFrame:
        return cur.filter(F.col(DIFF_COL) > 0).select(*key_cols).distinct()


class PandasAgg:
    """Arbitrary per-group reduction via ``applyInPandas`` (the paper's
    user-supplied reduction function from key + values to output values).

    ``fn`` receives the group's rows (data columns + ``__diff``, one row per
    record with its multiplicity) and returns a DataFrame of output columns
    (no key columns); ``out_schema`` is the Spark schema snippet for those
    output columns, e.g. ``"revenue double"``.
    """

    def __init__(self, fn: Callable[[pd.DataFrame], pd.DataFrame], out_schema: str, out_cols: Sequence[str]) -> None:
        self.fn = fn
        self.out_schema = out_schema
        self.out_cols = list(out_cols)

    def apply(self, cur: DataFrame, key_cols: Sequence[str]) -> DataFrame:
        keys = list(key_cols) or [_GROUP]
        if not key_cols:
            cur = cur.withColumn(_GROUP, F.lit(1))
        key_schema = ", ".join(
            f"{f.name} {f.dataType.simpleString()}" for f in cur.schema if f.name in keys
        )
        schema = f"{key_schema}, {self.out_schema}"
        fn, out_cols = self.fn, self.out_cols

        def wrapped(key, pdf: pd.DataFrame) -> pd.DataFrame:
            out = fn(pdf).copy()
            for i, k in enumerate(keys):
                out[k] = key[i]
            return out[keys + out_cols]

        out = cur.groupBy(*keys).applyInPandas(wrapped, schema=schema)
        return out.drop(_GROUP) if not key_cols else out


class ReduceNode(Stream):
    """Stateful group/reduce over an arranged input: its output updates per
    round, as a lazy plan — the reduction of the keys the input delta
    touched, minus their output as of the previous round.

    The reduce's result is ``output``, the reader of the private arrangement
    these updates are sealed into (set by
    :meth:`~repro.core.dataflow.QueryContext.reduce`); the old output is
    read through it as ``output.snap(r - 1)``.  The updates are not
    consolidated here (an unchanged record is both retracted and
    reasserted): sealing them sums and materializes them, cutting their
    lineage to the old output batches they reference.
    """

    def __init__(self, in_reader: Reader, key_cols: Sequence[str], agg) -> None:
        super().__init__(list(key_cols) + list(agg.out_cols))
        self.in_reader = in_reader
        self.key_cols = list(key_cols)
        self.agg = agg
        self.output: Optional[Reader] = None

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        din = self.in_reader.delta(round_)
        if din is None:
            return None
        keys = self.key_cols
        # Duplicate keys on a left-semi join's right side never duplicate
        # its left rows, so the changed keys need no ``distinct``.
        changed = F.broadcast(din.select(*keys)) if keys else None
        cur = self.in_reader.snap(round_)
        new_out = None
        if cur is not None:
            if changed is not None:
                cur = cur.join(changed, keys, "left_semi")
            # distinct, min, max and pandas reducers need one row per record
            # with a positive multiplicity; the input batches only sum to
            # that.  Sharding by the reduce key clusters every group the
            # aggregation forms, so it adds no second exchange.
            cur = consolidate(cur, self.in_reader.data_cols, keys)
            new_out = self.agg.apply(cur, keys)
        # The old output needs no consolidation, nor does the difference:
        # the output arrangement's seal sums both.
        old = self.output.snap(round_ - 1)
        if old is not None and changed is not None:
            old = old.join(changed, keys, "left_semi")
        terms: List[DataFrame] = []
        if new_out is not None:
            terms.append(new_out.withColumn(DIFF_COL, F.lit(1)))
        if old is not None:
            terms.append(old.withColumn(DIFF_COL, -F.col(DIFF_COL)))
        return union_all(terms)
