"""Differential-dataflow-style incremental engine with shared arrangements.

Layering (bottom → top):

* ``lattice``    — logical timestamps, frontiers, compaction math (App. A).
* ``trace``      — multiversioned collection traces over Spark DataFrames.
* ``arrange``    — the arrange operator and ``Arrangement``.
* ``store``      — the sharing registry (shared vs. per-query private state),
  the readers that are the arrangements' trace handles, and their release.
* ``collection`` — streams of ``(data…, __diff)`` updates, readers (streams
  that are also arranged) and stateless operators.
* ``join``/``reduce`` — arrangement-aware stateful operators.
* ``iterate``    — the semi-naive fixpoint loop and static indexes.
* ``dataflow``   — query wiring, rounds, install/retire of live queries.
"""

from repro.core.lattice import Frontier, rep_f  # noqa: F401
from repro.core.store import ArrangementStore  # noqa: F401
from repro.core.dataflow import Dataflow  # noqa: F401
