"""Shared spark-submit plumbing for jobs/*.py.

Each job exposes ``run(spark, **params) -> list[dict]`` (the table rows)
plus a ``main()`` that builds a local session — so the same code serves
``spark-submit jobs/<name>.py`` and the pytest benchmarks.
"""
from __future__ import annotations

import os
import sys
from typing import Dict, List

# allow running straight from a checkout without installation
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

# driver memory is read at JVM launch: it must be in PYSPARK_SUBMIT_ARGS
# before pyspark is imported (same approach as conftest.py)
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '24g')} "
    "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
        .config("spark.driver.maxResultSize", "0")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
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
