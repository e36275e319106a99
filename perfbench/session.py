"""Process and SparkSession set-up for the benchmark.

Everything the benchmark or Spark writes stays inside the checkout:
temporary files, Spark's local dirs and the warehouse dir all live under
``perfbench/out/``. The driver JVM's options (memory, master, temp dir) are
read at JVM launch, so :func:`prepare_process` must run before pyspark is
imported.
"""
from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

DRIVER_MEM = "2g"
MASTER = "local[*]"


def prepare_process() -> None:
    """Point imports, Python workers and every temp/scratch path at the
    checkout. Raises ``FileNotFoundError`` when the program's sources are
    missing, so a bare copy of the benchmark fails before doing anything."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"program sources not found under {SRC}")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Spark's Python workers inherit PYTHONPATH from the JVM's environment
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEM} "
        f'--driver-java-options "{java_opts}" '
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell")


def launch_jvm() -> float:
    """Start the py4j gateway (the JVM) without a SparkContext; returns the
    seconds it took. Session start-ups timed afterwards exclude it."""
    from pyspark import SparkContext

    t0 = time.perf_counter()
    SparkContext._ensure_initialized()
    return time.perf_counter() - t0


def start_session():
    """A fresh SparkSession with the settings of the repo's job harness
    (``jobs/_common.get_spark``), plus scratch paths inside the checkout."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(MASTER)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.driver.maxResultSize", "0")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(OUT / "spark-local"))
        .config("spark.sql.warehouse.dir", str(OUT / "spark-warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown() -> None:
    """Stop the JVM this process launched and wait until it has exited."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait()
