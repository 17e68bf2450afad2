import itertools
import os
import sys

# Offline-editable install: the container lacks the `wheel` module and
# network access, so `pip install -e .` (PEP 660) cannot run.  Put src/ on
# sys.path here and on PYTHONPATH so PySpark's Python workers (separate
# processes that unpickle repro.* functions by reference) can import it too.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half of MemTotal in /proc/meminfo, clamped to [2g, 8g] (the
    rule of the tier-1 command in ROADMAP.md). spark.driver.memory is read
    at JVM launch, not from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS
    before pyspark is imported anywhere — this runs at conftest import,
    which pytest loads before any test module.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "meminfo"
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError, IndexError):
        return "2g"
    return f"{min(8, max(2, kib // (2 << 20)))}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
# Only what the JVM reads at launch; every other setting (master included)
# comes from repro.session.get_session.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS", f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} pyspark-shell"
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

from repro.session import get_session  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Driver memory comes from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch); every other setting comes from
    :func:`repro.session.get_session`, the one session config shared with
    jobs and benchmarks.
    """
    s = get_session("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()


_job_groups = itertools.count()


@pytest.fixture
def spark_jobs(spark):
    """``spark_jobs(fn)`` runs ``fn`` under a fresh Spark job group and
    returns ``(fn's result, number of Spark jobs it started)``."""
    sc = spark.sparkContext

    def run(fn):
        group = f"spark-jobs-{next(_job_groups)}"
        sc.setJobGroup(group, group)
        try:
            out = fn()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        return out, len(sc.statusTracker().getJobIdsForGroup(group))

    return run
