"""A positive Datalog engine over binary relations, built on Spark.

Rules are restricted to the shape the paper's workloads need (tc, sg, and
Graspan's CFL-reachability grammars): heads are binary, bodies are one or two
binary atoms chained on shared variables, atoms may be *inverted* (read
``rel(Y, X)``), and an optional ``X != Y`` constraint is supported.

Evaluation is semi-naive, on the one fixpoint loop of
:func:`repro.core.iterate.fixpoint`.  The EDB relations are arranged once as
:class:`~repro.core.iterate.StaticIndex` indexes (or taken shared from the
caller).  Rules with no IDB atom fire once, into the initial totals with any
seeds; each step then fires only the recursive rules, joining per-relation
*deltas* against the full arranged relations, and keeps the rows the totals
lack — the arrangement-aware join pattern of §5.3.1 in batch form.  Each IDB
relation is its own frame.  All recursive relations reach a joint fixpoint
(mutual recursion is supported; Graspan's points-to needs it).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.core.iterate import Relations, StaticIndex, fixpoint
from repro.core.trace import union_all


@dataclass(frozen=True)
class Atom:
    """One body atom: relation name, and whether its columns are swapped.

    An atom binds (left_var, right_var); ``inverted=True`` reads the stored
    relation with src/dst swapped (e.g. ``VF(Z, X)`` probed by ``X``).
    """

    rel: str
    inverted: bool = False


@dataclass(frozen=True)
class Rule:
    """``head(X, Z) :- body[0](X, Y), body[1](Y, Z) [, X != Z]``.

    With a single body atom the rule is a (possibly inverted) copy:
    ``head(X, Y) :- body[0](X, Y)``.
    """

    head: str
    body: Tuple[Atom, ...]
    neq: bool = False  # require head's two variables to differ

    def __post_init__(self):
        if not 1 <= len(self.body) <= 2:
            raise ValueError("rules must have one or two body atoms")


@dataclass
class Program:
    """A set of rules over EDB (base) and IDB (derived) binary relations."""

    rules: List[Rule]

    def idb_relations(self) -> List[str]:
        return sorted({r.head for r in self.rules})

    def edb_relations(self) -> List[str]:
        heads = set(self.idb_relations())
        return sorted(
            {a.rel for r in self.rules for a in r.body if a.rel not in heads}
        )


def _orient(df: DataFrame, atom: Atom) -> DataFrame:
    """Read an atom's relation as columns (a, b) honouring inversion."""
    if atom.inverted:
        return df.select(F.col("dst").alias("a"), F.col("src").alias("b"))
    return df.select(F.col("src").alias("a"), F.col("dst").alias("b"))


class Evaluator:
    """Semi-naive bottom-up evaluation of a :class:`Program`.

    ``edb`` maps base relation names to (src, dst) DataFrames; each is
    arranged once and shared by all rules, unless ``indexes`` holds it —
    pass ``indexes`` to reuse arrangements across evaluator instances (the
    shared arrangements of Fig. 8's incremental column).  Building them
    fresh per query is the "full evaluation (no SA)" baseline.
    """

    def __init__(
        self,
        spark: SparkSession,
        program: Program,
        edb: Dict[str, DataFrame],
        indexes: Optional[Dict[str, DataFrame]] = None,
    ) -> None:
        self.spark = spark
        self.program = program
        missing = set(program.edb_relations()) - set(edb)
        if missing:
            raise ValueError(f"missing EDB relations: {sorted(missing)}")
        shared = indexes or {}
        self._owned = [
            StaticIndex(df.select("src", "dst"), ["src"], name)
            for name, df in edb.items()
            if name not in shared
        ]
        self.edb = {**shared, **{idx.name: idx.df for idx in self._owned}}
        self.index_build_secs = sum(idx.build_secs for idx in self._owned)
        self.idb = set(program.idb_relations())
        self.iterations = 0

    def _fire(self, rule: Rule, totals: Relations, deltas: Relations) -> List[DataFrame]:
        """All semi-naive instantiations of one rule.

        A rule with an IDB atom reads at least one IDB atom from ``deltas``
        per instantiation; an EDB-only rule has one, over full relations.
        The delta x delta term is required for correctness when both atoms
        are recursive; de-duplication absorbs its overlap with the
        delta x full terms.
        """
        choices = [(False, True) if a.rel in self.idb else (False,) for a in rule.body]
        recursive = any(a.rel in self.idb for a in rule.body)
        out: List[DataFrame] = []
        for use_delta in itertools.product(*choices):
            if recursive and not any(use_delta):
                continue
            sides = [
                deltas.get(a.rel) if d else self.edb.get(a.rel, totals.get(a.rel))
                for a, d in zip(rule.body, use_delta)
            ]
            if any(df is None for df in sides):
                continue
            facts = _orient(sides[0], rule.body[0])
            if len(sides) == 2:
                r = _orient(sides[1], rule.body[1])
                facts = facts.join(
                    r.select(F.col("a").alias("b"), F.col("b").alias("c")), "b", "inner"
                ).select("a", F.col("c").alias("b"))
            out.append(facts.select(F.col("a").alias("src"), F.col("b").alias("dst")))
        if rule.neq:
            out = [df.filter(F.col("src") != F.col("dst")) for df in out]
        return out

    def _derive(self, rules: List[Rule], totals: Relations, deltas: Relations) -> Relations:
        """Per IDB relation, the distinct rows its ``rules`` derive."""
        out = {}
        for rel in sorted(self.idb):
            cands = [df for r in rules if r.head == rel for df in self._fire(r, totals, deltas)]
            if cands:
                out[rel] = union_all(cands).distinct()
        return out

    def run(self, seeds: Optional[Dict[str, DataFrame]] = None) -> Dict[str, DataFrame]:
        """Evaluate to fixpoint; returns cached totals per IDB relation.

        ``seeds`` optionally pre-populates IDB relations (the magic-set seeded
        entry point used by top-down queries and by incremental re-derivation).
        ``iterations`` counts the loop's steps.
        """
        once = [r for r in self.program.rules if not any(a.rel in self.idb for a in r.body)]
        recursive = [r for r in self.program.rules if r not in once]
        init = self._derive(once, {}, {})
        for rel, df in (seeds or {}).items():
            df = df.select("src", "dst")
            init[rel] = init[rel].unionByName(df).distinct() if rel in init else df.distinct()
        for rel in self.idb - set(init):
            init[rel] = self.spark.createDataFrame([], "src long, dst long")

        def step(deltas: Relations, totals: Relations) -> Relations:
            fresh = self._derive(recursive, totals, deltas)
            return {rel: df.join(totals[rel], ["src", "dst"], "left_anti") for rel, df in fresh.items()}

        totals, self.iterations = fixpoint(init, step)
        return totals

    def unpersist_edb(self) -> None:
        """Release the indexes this evaluator built, never shared ones."""
        for idx in self._owned:
            idx.unpersist()
