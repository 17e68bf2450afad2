"""Per-round differential check: incremental results equal a pandas
recomputation from the accumulated inputs after *every* round.

Random insert/retract streams over two inputs feed one dataflow in which
each query shape is installed at its own random round (so most are
installed mid-stream through the §4.3 import), in shared and unshared mode.
``hold`` keeps readers on ``a[k]`` and ``b[k]`` from round 0, so in shared
mode late queries attach to arrangements that already hold history.  Each
shape, ``hold`` included, is also retired at its own random round and, if
rounds remain, installed again under a new name: a retire releases every
arrangement left without a reader, and the new install re-indexes a
released ``(input, key)`` from the input's log.

Every round also checks the one update format: each sink frame and each
reader's ``snap`` has exactly its data columns and ``__diff``.
"""
from collections import Counter
from typing import Callable, Dict, Tuple

import pandas as pd
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st
from pyspark.sql import functions as F

from repro.core.dataflow import Dataflow, Query
from repro.core.reduce import SqlAgg, w_count, w_min, w_sum

ROUNDS = 4
KEYS = VALUES = 4

#: one round's updates to one input: (key, value, +1 insert / -1 retract);
#: a retraction of a row that is not live is skipped, so multiplicities
#: stay non-negative (``min`` requires it).
updates = st.lists(
    st.tuples(st.integers(0, KEYS - 1), st.integers(0, VALUES - 1), st.sampled_from([1, -1])),
    max_size=4,
)


def _a(ctx):
    return ctx.arranged("a", ["k"])


def _b(ctx):
    return ctx.arranged("b", ["k"]).rename({"k": "kb"})


def _ab(ctx):
    return ctx.join(_a(ctx), _b(ctx), (["k"], ["kb"]), select=["k", "v", "w"])


def _hold(ctx):
    return _a(ctx).as_stream().concat(
        ctx.arranged("b", ["k"]).rename({"w": "v"}).as_stream()
    )


def _wrappers(ctx):
    a = _a(ctx).filter(F.col("v") >= 1).map_data(
        lambda df: df.withColumn("v", F.col("v") + 10), ["k", "v"]
    )
    return ctx.join(a, _b(ctx), (["k"], ["kb"]), select=["k", "v", "w"])


def _count_then_join(ctx):
    n = ctx.reduce(_a(ctx), ["k"], SqlAgg([w_count().alias("n")], ["n"]))
    return ctx.join(n, _b(ctx), (["k"], ["kb"]), select=["k", "n", "w"])


def _swapped_join(ctx):
    """A key-altering ``map`` (swap ``k`` and ``v``), arranged by the join."""
    swapped = _a(ctx).map(
        lambda df: df.select(F.col("v").alias("k"), F.col("k").alias("v"), "__diff"), ["k", "v"]
    )
    return ctx.join(swapped, _b(ctx), (["k"], ["kb"]), select=["k", "v", "w"])


def _concat_negate(ctx):
    """``a + b − b[w ≥ 1]``: the concat's sides change in different rounds."""
    bv = ctx.arranged("b", ["k"]).rename({"w": "v"})
    return _a(ctx).concat(bv).concat(bv.filter(F.col("v") >= 1).negate())


#: query builders by name
BUILDERS: Dict[str, Callable] = {
    "join": _ab,
    "semi": lambda ctx: ctx.semi_join(_a(ctx), ctx.arranged("b", ["k"]), (["k"], ["k"])),
    "anti": lambda ctx: ctx.anti_join(_a(ctx), ctx.arranged("b", ["k"]), (["k"], ["k"])),
    "count": lambda ctx: ctx.reduce(_ab(ctx), ["k"], SqlAgg([w_count().alias("n")], ["n"])),
    "sum": lambda ctx: ctx.reduce(_ab(ctx), ["k"], SqlAgg([w_sum("w").alias("s")], ["s"])),
    "min": lambda ctx: ctx.reduce(_ab(ctx), ["k"], SqlAgg([w_min("v").alias("mn")], ["mn"])),
    "wrappers": _wrappers,
    "count_then_join": _count_then_join,
    "map": _swapped_join,
    "select": lambda ctx: ctx.reduce(
        _a(ctx).select("v"), ["v"], SqlAgg([w_count().alias("n")], ["n"])
    ),
    "concat": _concat_negate,
    # a windowed input sees only the updates fed after its install, so it
    # may see a retraction of an older row: its output is checked signed
    "window": lambda ctx: ctx.join(
        ctx.stream("a"), _b(ctx), (["k"], ["kb"]), select=["k", "v", "w"]
    ),
}

#: every query the harness installs, by shape (``hold``'s output is not checked)
SHAPES: Dict[str, Callable] = {"hold": _hold, **BUILDERS}


def _expected(name: str, a: Counter, b: Counter) -> Counter:
    """The query's output multiset, recomputed from the live inputs."""
    ab = Counter()
    for (k, v), m in a.items():
        for (kb, w), n in b.items():
            if k == kb:
                ab[(k, v, w)] += m * n
    groups: Dict[int, list] = {}
    for (k, v, w), m in ab.items():
        groups.setdefault(k, []).append((v, w, m))
    if name in ("join", "window"):
        return ab
    keys_b = {k for k, _ in b}
    if name == "semi":
        return Counter({r: m for r, m in a.items() if r[0] in keys_b})
    if name == "anti":
        return Counter({r: m for r, m in a.items() if r[0] not in keys_b})
    if name == "count":
        return Counter({(k, sum(m for _, _, m in g)): 1 for k, g in groups.items()})
    if name == "sum":
        return Counter({(k, sum(w * m for _, w, m in g)): 1 for k, g in groups.items()})
    if name == "min":
        return Counter({(k, min(v for v, _, _ in g)): 1 for k, g in groups.items()})
    if name == "wrappers":
        a10 = Counter({(k, v + 10): m for (k, v), m in a.items() if v >= 1})
        return _expected("join", a10, b)
    if name == "count_then_join":
        counts = Counter()
        for (k, _), m in a.items():
            counts[k] += m
        return Counter({(k, counts[k], w): n for (k, w), n in b.items() if counts[k] > 0})
    if name == "map":
        return _expected("join", Counter({(v, k): m for (k, v), m in a.items()}), b)
    if name == "select":
        counts = Counter()
        for (_, v), m in a.items():
            counts[v] += m
        return Counter({(v, n): 1 for v, n in counts.items() if n > 0})
    if name == "concat":
        return a + Counter({(k, w): n for (k, w), n in b.items() if w < 1})
    raise KeyError(name)


def _records(pdf: pd.DataFrame) -> Counter:
    return Counter(map(tuple, pdf.to_numpy().tolist()))


def _nonzero(c: Counter) -> Counter:
    return Counter({r: m for r, m in c.items() if m})


def _signed(q) -> Counter:
    """A query's output with signed multiplicities: its sink frames summed."""
    out = Counter()
    for pdf in q.sink.frames:
        for *row, d in pdf.to_numpy().tolist():
            out[tuple(row)] += d
    return _nonzero(out)


def _apply(flow: Dataflow, name: str, live: Counter, ups) -> None:
    """Feed one round's updates to input ``name`` and apply them to ``live``."""
    change = Counter()
    for k, v, sign in ups:
        if sign < 0 and live[(k, v)] + change[(k, v)] <= 0:
            continue
        change[(k, v)] += sign
    rows = [(k, v, d) for (k, v), d in change.items() if d != 0]
    if rows:
        col = "v" if name == "a" else "w"
        flow.feed(name, pd.DataFrame(rows, columns=["k", col, "__diff"]))
    live.update(change)


@pytest.mark.parametrize("shared", [True, False])
# No shrinking: each example runs a dataflow for seconds, and a shrink can
# try hundreds; the falsifying example is reported as drawn.
@settings(
    max_examples=3,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    stream=st.lists(st.tuples(updates, updates), min_size=ROUNDS, max_size=ROUNDS),
    install=st.fixed_dictionaries({name: st.integers(0, ROUNDS - 1) for name in BUILDERS}),
    retire=st.fixed_dictionaries({name: st.integers(1, ROUNDS) for name in SHAPES}),
)
def test_every_round_matches_recomputation(spark, shared, stream, install, retire):
    flow = Dataflow(spark, shared=shared)
    flow.input("a", ["k", "v"])
    flow.input("b", ["k", "w"])
    a, b = Counter(), Counter()
    queries: Dict[str, Query] = {}
    #: ``a`` as each query's install saw it
    a_at_install: Dict[str, Counter] = {}

    def deploy(name: str, query: str) -> None:
        queries[name] = flow.install(query, SHAPES[name])
        a_at_install[name] = Counter(a)

    def check(when: Tuple[int, str]) -> None:
        for name, q in queries.items():
            frame = q.sink.stream.data_cols + ["__diff"]
            assert all(list(pdf.columns) == frame for pdf in q.sink.frames), (when, name)
            for reader in q.context.readers:
                view = reader.snap(flow.round)
                assert view is None or view.columns == reader.data_cols + ["__diff"], (
                    when, name, reader.node.arrangement.name)
            if name == "window":
                fed = Counter(a)
                fed.subtract(a_at_install[name])
                assert _signed(q) == _nonzero(_expected(name, fed, +b)), (when, name)
            elif name in BUILDERS:
                want = +_expected(name, +a, +b)
                assert _records(q.result()) == want, (when, name)

    deploy("hold", "hold")

    for r in range(ROUNDS + 1):
        for name, at in retire.items():
            if at == r and name in queries:
                flow.retire(queries.pop(name).name)
                assert all(n.arrangement.reader_count() for n in flow.store.nodes), (r, name)
                if r < ROUNDS:
                    deploy(name, f"{name}@{r}")
        if r == ROUNDS:
            break
        for name, at in install.items():
            if at == r:
                deploy(name, name)
        check((r, "install"))
        ups_a, ups_b = stream[r]
        _apply(flow, "a", a, ups_a)
        _apply(flow, "b", b, ups_b)
        flow.step()
        check((r + 1, "step"))
