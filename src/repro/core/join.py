"""Arrangement-aware join (§5.3.1).

The join operator is bilinear; with both inputs arranged, the output delta at
round ``r`` is computed from the inputs' deltas and their readers' views:

    d(A ⋈ B) = dA ⋈ B(r)  +  A(r-1) ⋈ dB

(``B(r) = B(r-1) + dB``, so the two terms expand ``(A + dA)(B + dB) − AB``;
§5.3.1 reads each trace as of the previous time the same way).  The views are
those of :meth:`~repro.core.collection.Reader.snap`: at a query's install
round both deltas are the §4.3 imports and ``A(r-1)`` is empty, so the
histories are joined once.  ``B(r)`` is read as the union of B's trace
batches, not consolidated: by bilinearity, joining a delta against the union
is the sum of its joins against each batch, so no batch is merged or copied
for a read.  Deltas are explicitly broadcast: this is the Spark rendition of
the paper's "move the (small) update batch to the pre-sharded arranged state"
— the arranged side is never re-shuffled or re-indexed, which is what makes
installing a new query against existing arrangements cheap (Fig. 1a) and
per-update work track the delta rather than the state (Fig. 7f).  Unlike the
paper's alternating-seek cursors, probing a cached Spark partition is a scan,
not a log-time seek; see DESIGN.md §2.3.

A cross join (``on=([], [])``) gives the scalar-comparison idiom used by
TPC-H Q11/Q15/Q22: when the scalar side changes, bilinearity retracts and
re-asserts every dependent pair — reproducing the paper's observation that
inequality-join queries respond slowly to updates regardless of sharing.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from pyspark.sql import DataFrame, functions as F

from repro.core.collection import Reader, Stream
from repro.core.trace import DIFF_COL, union_all

_DL, _DR = "__dl", "__dr"


class JoinNode(Stream):
    """Binary equi-join (or cross join) of two arranged collections."""

    def __init__(
        self,
        left: Reader,
        right: Reader,
        on: Tuple[Sequence[str], Sequence[str]],
        select: Optional[Sequence[str]] = None,
    ) -> None:
        self.left, self.right = left, right
        self.left_on, self.right_on = list(on[0]), list(on[1])
        if len(self.left_on) != len(self.right_on):
            raise ValueError("join key lists must have equal length")
        overlap = set(left.data_cols) & set(right.data_cols)
        if overlap:
            raise ValueError(
                f"join sides share column names {sorted(overlap)}; rename one side "
                "(e.g. reader.map_data) before joining"
            )
        out_cols = list(select) if select is not None else left.data_cols + right.data_cols
        unknown = set(out_cols) - set(left.data_cols) - set(right.data_cols)
        if unknown:
            raise ValueError(f"select refers to unknown columns {sorted(unknown)}")
        super().__init__(out_cols)

    def _cond(self):
        if not self.left_on:
            return None  # cross join
        return [F.col(a) == F.col(b) for a, b in zip(self.left_on, self.right_on)]

    def _join(self, l: DataFrame, r: DataFrame) -> DataFrame:
        """``l ⋈ r`` whose ``__diff`` is the product of the sides' ``__diff``."""
        cond = self._cond()
        l, r = l.withColumnRenamed(DIFF_COL, _DL), r.withColumnRenamed(DIFF_COL, _DR)
        joined = l.crossJoin(r) if cond is None else l.join(r, cond, "inner")
        return joined.select(*self.data_cols, (F.col(_DL) * F.col(_DR)).alias(DIFF_COL))

    def _compute_delta(self, round_: int) -> Optional[DataFrame]:
        # both deltas first: a reader's view at r needs its delta at r pulled
        dl, dr = self.left.delta(round_), self.right.delta(round_)
        terms: List[DataFrame] = []
        if dl is not None:
            sr = self.right.snap(round_)
            if sr is not None:
                terms.append(self._join(F.broadcast(dl), sr))
        if dr is not None:
            sl = self.left.snap(round_ - 1)
            if sl is not None:
                terms.append(self._join(sl, F.broadcast(dr)))
        return union_all(terms)
