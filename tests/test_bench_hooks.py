"""The engine entry points the benchmark's tracer wraps still exist and work.

``perfbench/tracer.py`` instruments the engine from outside by replacing
methods by name (``Arrangement.ingest``, ``ArrangementStore.input_reader``,
``ArrangementReader.delta``, ``materialize`` in ``arrange``/``trace``) and by
shadowing the ``delta`` that ``JoinNode`` and ``ReduceNode`` inherit from
``Stream``; it reads the store's arrangements and their ``reader_count()``,
and ``perfbench/workloads.py`` releases a flow with ``node.destroy()``.  A
refactor that renames or moves one of them breaks the benchmark, not the
engine's own tests; this test catches that first.
"""
import importlib.util
import os
import sys

import pandas as pd

from repro.core.dataflow import Dataflow
from repro.core.reduce import ReduceNode

_TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_engine(spark):
    # shadowed by the tracer and deleted on removal, so it must be inherited
    assert "delta" not in ReduceNode.__dict__
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer(spark)
    inst = tracer_mod.instrument(tracer)
    try:
        flow = Dataflow(spark, shared=True)
        flow.input("a", ["k", "v"])
        flow.input("b", ["k", "w"])

        def build(ctx):
            a = ctx.arranged("a", ["k"])
            b = ctx.arranged("b", ["k"]).rename({"k": "k2"})
            return ctx.distinct(ctx.join(a, b, (["k"], ["k2"]), select=["k", "w"]), ["k", "w"])

        q = flow.install("q", build)
        flow.feed("a", pd.DataFrame({"k": [1, 2], "v": [10, 20]}))
        flow.feed("b", pd.DataFrame({"k": [1, 1], "w": [100, 100]}))
        flow.step()
        assert sorted(q.result().itertuples(index=False)) == [(1, 100)]
        names = {s.name for s in tracer.spans}
        assert {"arrange.ingest", "reduce.delta", "store.input_reader"} <= names, names
        state = tracer_mod._state_metrics(flow, 0)
        assert state["store.arrangements"] == len(flow.store.nodes)

        # retiring a query releases what only it read; a[k] keeps a reader
        flow.install("keep", lambda ctx: ctx.arranged("a", ["k"]).as_stream())
        flow.retire("q")
        state = tracer_mod._state_metrics(flow, 0)
        assert state["store.idle_arrangements"] == 0
        assert [n.arrangement.name for n in flow.store.nodes] == ["a[k]"]
        for node in flow.store.nodes:  # the benchmark's _release_flow
            node.destroy()
    finally:
        inst.remove()
    assert "delta" not in ReduceNode.__dict__
