"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload graph_churn --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` wraps each engine layer's public functions in spans (see
``tracer.py``) and reports the per-layer metrics instead.  ``--threads N``
runs Spark as ``local[N]`` (default: one task thread per core).

Standard output carries one JSON line of run details (provenance, input
sizes, each operation's seconds, self-checks) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  Spark's own log goes to
standard error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for Spark and Python temporaries, inside the checkout
WORK = os.path.join(ROOT, ".perfbench_work")
DRIVER_MEMORY = "2g"

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "rows_per_s": "rows/s", "state_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="Spark task threads (local[N]); default local[*]")
    return p.parse_args(argv)


def _configure_environment(args, work: str) -> None:
    """Everything the JVM reads at launch, set before pyspark is imported."""
    os.makedirs(work, exist_ok=True)
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["SPARK_LOCAL_DIRS"] = work
    os.environ["TMPDIR"] = work
    os.environ["SPARK_MASTER"] = f"local[{args.threads}]" if args.threads else "local[*]"
    # every JVM (the launcher and the driver) keeps its temporaries in ``work``
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--driver-memory {DRIVER_MEMORY} --conf spark.ui.showConsoleProgress=false pyspark-shell"
    )


def _source_digest() -> str:
    """sha256 over the engine's sources (the checkout carries no git metadata)."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _stop(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    gateway = spark.sparkContext._gateway  # noqa: SLF001
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 — make sure nothing outlives the run
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "dataflow.py")):
        print(f"perfbench: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # noqa: E402 — needs no Spark

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    work = os.path.join(WORK, str(os.getpid()))
    _configure_environment(args, work)
    try:
        return _run(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass


def _run(args) -> int:
    import warnings

    warnings.filterwarnings("ignore")
    from workloads import WORKLOADS, Run, op_summary

    t0 = time.perf_counter()
    from repro.session import get_session

    spark = get_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    session_s = time.perf_counter() - t0
    try:
        tracer = inst = None
        if args.trace:
            from tracer import Tracer, instrument

            tracer = Tracer(spark)
            inst = instrument(tracer)
        run = Run(spark=spark, seed=args.seed, seconds=args.seconds, tracer=tracer)
        try:
            flow = WORKLOADS[args.workload](run)
        finally:
            if inst is not None:
                inst.remove()
        if not any(o.primary for o in run.ops):
            print("perfbench: no operation completed in the measured window", file=sys.stderr)
            return 1
        summary = op_summary(run.ops)
        checks = {}
        if args.trace:
            from repro.core.memory import spark_cached_bytes
            from tracer import PER_LAYER, layer_metrics, self_checks

            run.sample_state()

            overhead = tracer.overhead_s - run.info.pop("tracer_overhead_at_start_s")
            metrics = layer_metrics(tracer, run.ops, summary["op_p50_s"], overhead, flow,
                                    spark_cached_bytes(spark))
            checks = self_checks(tracer, run.ops, args.workload, flow)
            units = dict(PER_LAYER)
        else:
            metrics = {
                "setup_s": session_s + statistics.median(run.prepare_s) + run.warmup_s,
                "op_p50_s": summary["op_p50_s"],
                "rows_per_s": summary["rows_per_s"],
                "state_mb": run.peak_cached_bytes / 1e6,
            }
            units = END_TO_END_UNITS
        sc = spark.sparkContext
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "source_sha256": _source_digest(),
            "nproc": os.cpu_count(),
            "master": sc.master,
            "default_parallelism": sc.defaultParallelism,
            "spark": spark.version,
            "python": platform.python_version(),
            "driver_memory": DRIVER_MEMORY,
            "session_s": session_s,
            "prepare_s": run.prepare_s,
            "warmup_s": run.warmup_s,
            "error_rate": run.failed / max(run.attempted, 1),
            "ops": {k: v for k, v in summary.items() if k not in ("op_p50_s", "rows_per_s")},
            "self_checks": checks,
            **run.info,
        }
        print(json.dumps(details, default=str))
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        _stop(spark)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
