"""Collections as streams of update triples, and their stateless operators.

A :class:`Stream` is a dataflow node producing, for each logical round ``r``,
the DataFrame of update triples ``(data…, __t, __diff)`` that occurred at
``r`` (``None`` when the round is empty — the engine's fast path for
untouched relations).  Deltas are memoized per round so shared sub-dataflows
evaluate once.

A :class:`Reader` is a stream that is also arranged: besides its deltas it
offers :meth:`Reader.snap`, the collection as that reader sees it at round
``r`` (``data… + __mult`` rows whose multiplicities sum per record, not
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

from typing import Callable, Dict, List, Optional, Sequence  # noqa: F401

from pyspark.sql import DataFrame, functions as F

from repro.core.trace import DIFF_COL, MULT_COL, T_COL, union_all


class Stream:
    """Base dataflow node: a per-round stream of update triples."""

    def __init__(self, data_cols: Sequence[str]) -> None:
        self.data_cols = list(data_cols)
        self._memo: Dict[int, Optional[DataFrame]] = {}

    def delta(self, round_: int) -> Optional[DataFrame]:
        """This node's update triples for round ``round_`` (memoized)."""
        if round_ not in self._memo:
            self._memo[round_] = self._compute_delta(round_)
            for r in [r for r in self._memo if r < round_ - 1]:
                del self._memo[r]
        return self._memo[round_]

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        raise NotImplementedError

    # -- stateless operators (streams of update triples, §5.1–5.2) ---------

    def map(self, fn: Callable[[DataFrame], DataFrame], data_cols: Sequence[str]) -> "Stream":
        """Key-altering record transform; ``fn`` must preserve __t/__diff."""
        return _Mapped(self, fn, data_cols)

    def filter(self, cond) -> "Stream":
        """Filter by a Column predicate (or SQL string) over data columns."""
        return _Filtered(self, cond)

    def select(self, *cols: str) -> "Stream":
        """Project to a subset of data columns (consolidation is deferred)."""
        return self.map(lambda df: df.select(*cols, T_COL, DIFF_COL), list(cols))

    def negate(self) -> "Stream":
        """Negate all diffs (with :meth:`concat`, gives anti-join/except)."""
        return _Mapped(
            self,
            lambda df: df.withColumn(DIFF_COL, -F.col(DIFF_COL)),
            self.data_cols,
        )

    def concat(self, other: "Stream") -> "Stream":
        """Multiset union of two streams with identical data columns."""
        return _Concat(self, other)


class _Mapped(Stream):
    def __init__(self, source: Stream, fn, data_cols: Sequence[str]) -> None:
        super().__init__(data_cols)
        self.source, self.fn = source, fn

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        d = self.source.delta(round_)
        return None if d is None else self.fn(d).select(*self.data_cols, T_COL, DIFF_COL)


class _Filtered(Stream):
    def __init__(self, source: Stream, cond) -> None:
        super().__init__(source.data_cols)
        self.source, self.cond = source, cond

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        d = self.source.delta(round_)
        return None if d is None else d.filter(self.cond)


class _Concat(Stream):
    def __init__(self, a: Stream, b: Stream) -> None:
        if set(a.data_cols) != set(b.data_cols):
            raise ValueError(f"concat schema mismatch: {a.data_cols} vs {b.data_cols}")
        super().__init__(a.data_cols)
        self.a, self.b = a, b

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        cols = self.data_cols + [T_COL, DIFF_COL]
        da, db = self.a.delta(round_), self.b.delta(round_)
        if da is None:
            return None if db is None else db.select(*cols)
        if db is None:
            return da.select(*cols)
        return da.select(*cols).unionByName(db.select(*cols))


class InputStream(Stream):
    """A dataflow input: the root of update streams (§3.1).

    The owning :class:`~repro.core.dataflow.Dataflow` stages fed updates and
    assigns them to rounds; the full per-round history is retained so that
    late-created arrangements (a new shared index, or every private index of
    the unshared baseline) can bootstrap by re-indexing it — the work shared
    arrangements exist to avoid.
    """

    def __init__(self, name: str, data_cols: Sequence[str]) -> None:
        super().__init__(data_cols)
        self.name = name
        self._rounds: Dict[int, DataFrame] = {}

    def assign(self, round_: int, df: Optional[DataFrame]) -> None:
        if df is not None:
            self._rounds[round_] = df

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        return self._rounds.get(round_)

    def history(self) -> Optional[DataFrame]:
        """Union of every update ever fed (bootstrap source for re-indexing)."""
        return union_all(list(self._rounds.values()))


class Reader(Stream):
    """An arranged collection: a stream that can also be read through a
    trace handle (§4.3).

    :meth:`snap` is the collection as *this reader* sees it at round ``r``:
    ``data… + __mult`` rows whose multiplicities sum per record (not
    consolidated).  The view is empty before the reader's import round (its
    first delta), and the import delta is the whole trace, so the deltas a
    reader emits always sum to its view.  ``snap`` never advances the
    arrangement: pull ``delta(r)`` before reading ``snap`` at ``r``.
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
        """Demote to a stream of update triples (drops index access)."""
        return _Mapped(self, lambda df: df, self.data_cols)


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
        s = self.source.snap(round_)
        return None if s is None else self.fn(s).select(*self.data_cols, MULT_COL)
