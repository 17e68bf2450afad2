"""Datalog benchmark programs: transitive closure and same generation.

Programs follow the Datalog-benchmark formulations used by the paper's
comparison set (BigDatalog et al., Fig. 17):

* ``tc(X,Y)  :- e(X,Y).``  ``tc(X,Z) :- tc(X,Y), e(Y,Z).``
* ``sg(X,Y)  :- e(P,X), e(P,Y), X != Y.``
  ``sg(X,Y)  :- e(A,X), sg(A,B), e(B,Y).``  (3-atom body split via ``sg_t1``)

Top-down (interactive) variants implement the magic-set transformation of
§6.3.1: the query argument seeds a bottom-up derivation over *shared* static
arrangements of the edge relation, so ``tc(x,?)`` costs work proportional to
the answer rather than to the full closure.  ``*_full`` with ``indexes=None``
is the "full evaluation (no shared arrangements)" baseline of Fig. 8 — it
must re-index the edges and compute the whole relation.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.iterate import StaticIndex
from repro.core.trace import materialize
from repro.datalog.engine import Atom, Evaluator, Program, Rule

TC_PROGRAM = Program(
    [
        Rule("tc", (Atom("e"),)),
        Rule("tc", (Atom("tc"), Atom("e"))),
    ]
)

SG_PROGRAM = Program(
    [
        Rule("sg", (Atom("e", inverted=True), Atom("e")), neq=True),
        Rule("sg_t1", (Atom("e", inverted=True), Atom("sg"))),
        Rule("sg", (Atom("sg_t1"), Atom("e"))),
    ]
)

#: seeded forward reachability: tc_from(S, Z) :- tc_from(S, Y), e(Y, Z)
TC_FROM = Program([Rule("tc_from", (Atom("tc_from"), Atom("e")))])
#: seeded backward reachability: tc_to(S, Z) :- tc_to(S, Y), e(Z, Y)
TC_TO = Program([Rule("tc_to", (Atom("tc_to"), Atom("e", inverted=True)))])
#: magic-set sg: edges restricted to the ancestor-closed magic set ``erm``
SG_MAGIC = Program(
    [
        Rule("sg", (Atom("erm"), Atom("e")), neq=True),
        Rule("sg_t1", (Atom("erm"), Atom("sg"))),
        Rule("sg", (Atom("sg_t1"), Atom("e"))),
    ]
)


def edges_df(spark: SparkSession, edges: pd.DataFrame) -> DataFrame:
    return spark.createDataFrame(edges[["src", "dst"]])


def build_indexes(spark: SparkSession, edges: pd.DataFrame) -> Dict[str, DataFrame]:
    """Shared static arrangement of the edge relation (built once; the
    caller releases it with ``indexes["e"].unpersist()``)."""
    return {"e": StaticIndex(edges_df(spark, edges), ["src"], "e").df}


def tc_full(
    spark: SparkSession, edges: pd.DataFrame, indexes: Optional[Dict[str, DataFrame]] = None
) -> Tuple[DataFrame, Evaluator]:
    """Full transitive closure (bottom-up); re-indexes when unshared."""
    ev = Evaluator(spark, TC_PROGRAM, {"e": edges_df(spark, edges)}, indexes=indexes)
    return ev.run()["tc"], ev


def sg_full(
    spark: SparkSession, edges: pd.DataFrame, indexes: Optional[Dict[str, DataFrame]] = None
) -> Tuple[DataFrame, Evaluator]:
    """Full same-generation relation (bottom-up)."""
    ev = Evaluator(spark, SG_PROGRAM, {"e": edges_df(spark, edges)}, indexes=indexes)
    return ev.run()["sg"], ev


def _seed(spark: SparkSession, node: int) -> DataFrame:
    return spark.createDataFrame(pd.DataFrame({"src": [node], "dst": [node]}))


def tc_from(spark: SparkSession, indexes: Dict[str, DataFrame], node: int) -> DataFrame:
    """``tc(x, ?)``: nodes reachable from ``node`` via shared arrangements.

    Returns ``(src=node, dst)`` rows including the artificial seed pair
    ``(node, node)``; callers that care subtract it.
    """
    ev = Evaluator(spark, TC_FROM, indexes, indexes=indexes)
    return ev.run(seeds={"tc_from": _seed(spark, node)})["tc_from"]


def tc_to(spark: SparkSession, indexes: Dict[str, DataFrame], node: int) -> DataFrame:
    """``tc(?, x)``: nodes that reach ``node``, via shared arrangements."""
    ev = Evaluator(spark, TC_TO, indexes, indexes=indexes)
    return ev.run(seeds={"tc_to": _seed(spark, node)})["tc_to"]


def sg_from(spark: SparkSession, indexes: Dict[str, DataFrame], node: int) -> DataFrame:
    """``sg(x, ?)`` by magic sets: seed the ancestor set, evaluate restricted.

    The magic set ``m`` is the ancestor closure of ``node`` (computed over
    the shared arrangement); the sg rules then run with their first-argument
    atom restricted to ``erm = e^-1 |_{src ∈ m}``, which is ancestor-closed,
    so the bottom-up derivation only touches relevant facts.
    """
    e = indexes["e"]
    anc = tc_to(spark, indexes, node)
    magic = anc.select(F.col("dst").alias("m")).distinct()
    erm = (
        e.join(magic, e["dst"] == magic["m"], "left_semi")
        .select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )  # erm(X, P) = e(P, X) with X in the magic set
    restricted = {"erm": materialize(erm)[0], "e": e}
    sg = Evaluator(spark, SG_MAGIC, restricted, indexes=restricted).run()["sg"]
    return sg.filter(F.col("src") == node)
