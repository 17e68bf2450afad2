"""Tests of the benchmark itself: its contract, its tracer, and its self-checks.

Run from the repository root with ``python -m pytest perfbench -q``.  The
self-check tests start one short traced run per workload (about a minute
each); select the fast ones with ``-k "not traced"``.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END_UNITS  # noqa: E402
from tracer import PER_LAYER, Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_what_the_code_reports():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


class _FakeTracker:
    def getJobIdsForGroup(self, group):  # noqa: N802 — Spark's name
        return {"perfbench-1": [7, 8]}.get(group, [])

    def getJobInfo(self, jid):  # noqa: N802
        return None


class _FakeContext:
    def __init__(self):
        self.groups = []

    def statusTracker(self):  # noqa: N802
        return _FakeTracker()

    def setLocalProperty(self, key, value):  # noqa: N802
        self.groups.append(value)


class _FakeSpark:
    def __init__(self):
        self.sparkContext = _FakeContext()


def test_tracer_self_times_and_job_attribution():
    spark = _FakeSpark()
    t = Tracer(spark)
    op = t.enter("op")
    a = t.enter("a")
    t.exit(t.enter("b"))
    t.exit(a)
    t.exit(t.enter("a"))
    t.exit(op)
    spans = t.spans
    assert [s.name for s in spans] == ["op", "a", "b", "a"]
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    # self times of the subtree add up to the root's wall time
    assert sum(s.self_s for s in spans) == pytest.approx(spans[0].secs)
    # jobs of group perfbench-1 belong to the first "a", the innermost span then
    assert spans[1].jobs == {7, 8} and not spans[2].jobs
    # leaving a span restores its parent's job group; the root clears it
    assert spark.sparkContext.groups[-1] is None
    agg = aggregate(t, [0])
    assert agg["a"].calls == 2 and agg["a"].jobs == 2


def _run(workload: str, cwd: str, seconds: str = "2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run("graph_churn", str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_self_checks(workload):
    """Each workload still exercises what it was chosen for (see README.md)."""
    out = _run(workload, ROOT)
    assert out.returncode == 0, out.stderr[-3000:]
    details, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}
    checks = details["self_checks"]
    expected = {
        "tpch_mix": "creates_and_reuses_arrangements",
        "graph_churn": "two_shared_edge_arrangements",
        "join_install": "input_reader_always_reuses",
        "datalog_topdown": "enters_semi_naive_and_evaluator",
    }[workload]
    assert expected in checks
    assert all(checks.values()), checks
