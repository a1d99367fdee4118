"""Shared spark-submit plumbing for jobs/*.py.

Each job exposes ``run(spark, **params) -> list[dict]`` (the table rows)
plus a ``main()`` that builds a local session and prints them — so the
same code serves ``spark-submit jobs/<name>.py`` and the tests.
"""
from __future__ import annotations

import os
import sys
from typing import Dict, List

# allow running straight from a checkout without installation: the driver
# imports ``repro`` from ``src/``, and so must the Python workers, which
# inherit PYTHONPATH when the JVM starts them
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)
_old = os.environ.get("PYTHONPATH")
os.environ["PYTHONPATH"] = SRC + (os.pathsep + _old if _old else "")


def _driver_memory() -> str:
    """Half of the host's MemTotal in GiB, clamped to 2..8, as the tier-1
    tests and the benchmark size it."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kb // 2097152))}g"


# driver memory is read at JVM launch: it must be in PYSPARK_SUBMIT_ARGS
# before pyspark is imported (same approach as conftest.py)
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM') or _driver_memory()} "
    "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession

# wall-clock widths are sized to the host; widths 16 and 64 belong to pipesim
NPROC = os.cpu_count() or 1
HOST_WIDTHS = list(dict.fromkeys([1, 2, NPROC]))


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.maxResultSize", "0")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def print_table(rows: List[Dict], title: str) -> None:
    if not rows:
        print(f"== {title}: no rows ==")
        return
    cols = list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    print(f"\n== {title} ==")
    print(" | ".join(str(c).ljust(widths[c]) for c in cols))
    print("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        print(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
