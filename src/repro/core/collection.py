"""Collections as streams of updates, and their stateless operators.

A :class:`Stream` is a dataflow node producing, for each logical round ``r``,
the DataFrame of updates ``(data…, __diff)`` that occurred at ``r`` (``None``
when the round is empty — the engine's fast path for untouched relations).
Like a Timely batch at its capability, a delta's time is the round it was
asked for, so no frame between operators carries one: times live only in
trace batches, stamped by :meth:`~repro.core.trace.Trace.seal`.  Deltas are
memoized per round so shared sub-dataflows evaluate once.  An
:class:`InputStream` owns its input's updates: it stages them, and logs them
on the driver, so a new arrangement re-indexes live rows.

A :class:`Reader` is a stream that is also arranged: besides its deltas it
offers :meth:`Reader.snap`, the collection as that reader sees it at round
``r`` (``data… + __diff`` rows whose multiplicities sum per record, not
consolidated), backed by a shared or private
:class:`~repro.core.arrange.Arrangement`.  Operators that need an input's
prior state read it one way, as ``snap(r - 1)``.  Key-preserving stateless
operators (§5.1: ``filter``, ``rename``, column maps that keep the key) wrap
a reader as another reader that transforms both its deltas and its view row
by row without re-arranging — exactly the paper's filter-as-wrapper design.
Key-altering operators (§5.2: general ``map``, ``select``) give plain
streams.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.trace import DIFF_COL, consolidate_pdf, union_all


class Stream:
    """Base dataflow node: a per-round stream of ``data… + __diff`` updates."""

    def __init__(self, data_cols: Sequence[str]) -> None:
        self.data_cols = list(data_cols)
        self._memo: Dict[int, Optional[DataFrame]] = {}

    def delta(self, round_: int) -> Optional[DataFrame]:
        """This node's updates for round ``round_`` (memoized)."""
        if round_ not in self._memo:
            self._memo[round_] = self._compute_delta(round_)
            for r in [r for r in self._memo if r < round_ - 1]:
                del self._memo[r]
        return self._memo[round_]

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        raise NotImplementedError

    # -- stateless operators (streams of updates, §5.1–5.2) ----------------

    def map(self, fn: Callable[[DataFrame], DataFrame], data_cols: Sequence[str]) -> "Stream":
        """Key-altering record transform; ``fn`` must preserve __diff."""
        return _Mapped(self, fn, data_cols)

    def filter(self, cond) -> "Stream":
        """Filter by a Column predicate (or SQL string) over data columns."""
        return self.map(lambda df: df.filter(cond), self.data_cols)

    def select(self, *cols: str) -> "Stream":
        """Project to a subset of data columns (consolidation is deferred)."""
        return self.map(lambda df: df.select(*cols, DIFF_COL), list(cols))

    def negate(self) -> "Stream":
        """Negate all diffs (with :meth:`concat`, gives anti-join/except)."""
        return self.map(lambda df: df.withColumn(DIFF_COL, -F.col(DIFF_COL)), self.data_cols)

    def concat(self, other: "Stream") -> "Stream":
        """Multiset union of two streams with identical data columns."""
        return _Concat(self, other)


class _Mapped(Stream):
    def __init__(self, source: Stream, fn, data_cols: Sequence[str]) -> None:
        super().__init__(data_cols)
        self.source, self.fn = source, fn

    def _apply(self, df: Optional[DataFrame]) -> Optional[DataFrame]:
        return None if df is None else self.fn(df).select(*self.data_cols, DIFF_COL)

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        return self._apply(self.source.delta(round_))


class _Concat(Stream):
    def __init__(self, a: Stream, b: Stream) -> None:
        if set(a.data_cols) != set(b.data_cols):
            raise ValueError(f"concat schema mismatch: {a.data_cols} vs {b.data_cols}")
        super().__init__(a.data_cols)
        self.a, self.b = a, b

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        sides = [s.delta(round_) for s in (self.a, self.b)]
        return union_all([d.select(*self.data_cols, DIFF_COL) for d in sides if d is not None])


class InputStream(Stream):
    """A dataflow input (§3.1): the one owner of the updates fed to it.

    :meth:`advance` makes the staged updates the round's one Spark frame (the
    only delta kept) and appends them to a pandas log, re-consolidated once
    the rows appended to it reach its consolidated rows: at most about twice
    the live rows plus one round, which a new arrangement re-indexes."""

    def __init__(self, spark: SparkSession, name: str, data_cols: Sequence[str]) -> None:
        super().__init__(data_cols)
        self.spark, self.name = spark, name
        self._staged: List[pd.DataFrame] = []
        self._newest: Tuple[int, Optional[DataFrame]] = (-1, None)
        #: the frame the log last consolidated to (at first, the first round
        #: fed), then the rounds appended since
        self._log: List[pd.DataFrame] = []

    def feed(self, pdf: pd.DataFrame, diff: int = 1) -> None:
        """Stage ``pdf``'s data columns for the next round, each with ``diff``
        (``-1`` retracts) unless ``pdf`` has a ``__diff`` column."""
        missing = set(self.data_cols) - set(pdf.columns)
        if missing:
            raise ValueError(f"feed({self.name}): missing columns {sorted(missing)}")
        if len(pdf):
            self._staged.append(pdf[self.data_cols].assign(**{DIFF_COL: pdf.get(DIFF_COL, diff)}))

    def advance(self, round_: int) -> None:
        """Make the staged updates round ``round_``'s delta, and log them."""
        if not self._staged:
            return
        pdf = pd.concat(self._staged, ignore_index=True)
        self._staged = []
        self._newest = (round_, self.spark.createDataFrame(pdf))
        self._log.append(pdf)
        if sum(map(len, self._log[1:])) >= len(self._log[0]):
            self._consolidate()

    def _consolidate(self) -> None:
        log = consolidate_pdf(pd.concat(self._log, ignore_index=True), self.data_cols)
        self._log = [log] if len(log) else []

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        return self._newest[1] if self._newest[0] == round_ else None

    def history(self) -> Optional[DataFrame]:
        """The live rows as one frame (None if none)."""
        if not self._log:
            return None
        self._consolidate()
        return self.spark.createDataFrame(self._log[0])


class Reader(Stream):
    """An arranged collection: a stream that can also be read through a
    trace handle (§4.3).

    :meth:`snap` is the collection as *this reader* sees it at round ``r``:
    ``data… + __diff`` rows whose multiplicities sum per record (not
    consolidated).  The view is empty before the reader's import round (its
    first delta), and the import delta is its view at the import round, so
    the deltas a reader emits always sum to its view.  ``snap`` never
    advances the arrangement: pull ``delta(r)`` before reading ``snap`` at
    ``r``.
    ``key_cols`` is the arrangement's index key.
    """

    key_cols: List[str]

    def snap(self, round_: int) -> Optional[DataFrame]:
        raise NotImplementedError

    # -- key-preserving wrappers (§5.1) -------------------------------------

    def filter(self, cond) -> "Reader":
        return _MappedReader(self, lambda df: df.filter(cond), self.data_cols, self.key_cols)

    def map_data(self, fn: Callable[[DataFrame], DataFrame], data_cols: Sequence[str]) -> "Reader":
        """Column-level transform that must keep the key columns intact."""
        missing = set(self.key_cols) - set(data_cols)
        if missing:
            raise ValueError(f"map_data must preserve key columns, lost {missing}")
        return _MappedReader(self, fn, data_cols, self.key_cols)

    def rename(self, mapping: Dict[str, str]) -> "Reader":
        """Rename data columns (key renames allowed: contents are unchanged,
        so the arrangement's index remains valid under the new names)."""

        def fn(df: DataFrame) -> DataFrame:
            for old, new in mapping.items():
                df = df.withColumnRenamed(old, new)
            return df

        return _MappedReader(
            self,
            fn,
            [mapping.get(c, c) for c in self.data_cols],
            [mapping.get(c, c) for c in self.key_cols],
        )

    def as_stream(self) -> Stream:
        """Demote to a plain stream of updates (drops index access)."""
        return self.map(lambda df: df, self.data_cols)


class _MappedReader(_Mapped, Reader):
    """§5.1: a row-wise transform (a filter, or a column map that keeps the
    key) applied while navigating the wrapped arrangement, without
    re-indexing."""

    def __init__(
        self, source: Reader, fn, data_cols: Sequence[str], key_cols: Sequence[str]
    ) -> None:
        super().__init__(source, fn, data_cols)
        self.key_cols = list(key_cols)

    def snap(self, round_: int) -> Optional[DataFrame]:
        return self._apply(self.source.snap(round_))
