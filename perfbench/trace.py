"""Spans and counters for the traced run, recorded from the benchmark's side
of each layer boundary.

:class:`Tracer` monkeypatches, in this process only and only while
installed, the public functions each layer of the program exposes:

* ``shell``              — ``parse`` as bound in ``repro.compiler.frontend``
* ``compiler.frontend``  — ``compile_script`` (package and ``pash`` bindings)
* ``dfg.transform``      — ``parallelize``
* ``runtime.stream``     — ``SparkStream.from_lines/split/collect_lines/
  collect_parts``
* driver width sinks     — ``exec_node`` as bound in ``backend_spark``
* map stage, aggregators — the functions handed to ``SparkStream.per_chunk``
  and ``aggregate`` are wrapped with a CPU timer and line counters that
  report through Spark accumulators, so executor-side work is counted
* Spark scheduler        — jobs, stages and tasks of each traced call, read
  from the status tracker by job group

Spans (name, start, end, parent, call) stay in memory until :meth:`dump`.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

# accumulator-backed counters: name -> zero value (int counts, float seconds)
_ACCUMULATED = {
    "map.busy_s": 0.0, "map.chunks": 0, "map.lines_in": 0, "map.lines_out": 0,
    "agg.busy_s": 0.0, "agg.calls": 0, "agg.lines_in": 0, "agg.lines_out": 0,
}


def _counted(fn, busy, calls, lines_in, lines_out, nested: bool):
    """Wrap a chunk or aggregator function shipped to executors. Built as a
    closure so it is pickled by value and needs nothing from this package
    on the executor side."""

    def run(arg):
        n_in = sum(len(part) for part in arg) if nested else len(arg)
        t0 = time.thread_time()
        out = fn(arg)
        busy.add(time.thread_time() - t0)
        calls.add(1)
        lines_in.add(n_in)
        lines_out.add(len(out))
        return out

    return run


class _DriverExecNode:
    """``exec_node`` seen from ``run_dfg_spark``'s width-sink branch: timed
    on the driver. The same global is captured by the per-chunk closures
    ``backend_spark`` ships to executors; unpickling there yields the
    original function, so executors run unmodified code."""

    def __init__(self, tracer: "Tracer", orig):
        self.tracer = tracer
        self.orig = orig

    def __call__(self, *args, **kwargs):
        self.tracer.counts["driver.exec_node_calls"] += 1
        with self.tracer.span("driver.exec_node"):
            return self.orig(*args, **kwargs)

    def __reduce__(self):
        return getattr, (sys.modules[self.orig.__module__], self.orig.__name__)


class Tracer:
    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.call_counts: Dict[Optional[str], Counter] = {None: Counter()}
        self.counts = self.call_counts[None]
        self.call: Optional[str] = None
        self._acc = {k: self.sc.accumulator(z) for k, z in _ACCUMULATED.items()}
        self._saved: List[tuple] = []

    # -- spans ---------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "call": self.call,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def accumulated(self) -> Dict[str, float]:
        return {k: a.value for k, a in self._acc.items()}

    @contextlib.contextmanager
    def call_scope(self, call_id: str):
        """Label the spans, counters and Spark jobs of one traced call."""
        self.call = call_id
        self.counts = self.call_counts.setdefault(call_id, Counter())
        self.sc.setJobGroup(call_id, f"perfbench {call_id}")
        try:
            yield
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
            self.call = None
            self.counts = self.call_counts[None]

    def scheduler_counts(self, call_id: str) -> Dict[str, int]:
        """Jobs, stages that ran, tasks and failed tasks of one job group.
        Waits for the listener bus first: the status tracker is fed
        asynchronously, after the actions have returned."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(call_id)
        stage_ids = sorted({s for j in jobs for s in st.getJobInfo(j).stageIds})
        stages = tasks = failed = 0
        for sid in stage_ids:
            info = st.getStageInfo(sid)
            if info is None or info.numCompletedTasks + info.numFailedTasks == 0:
                continue  # skipped: its shuffle output was reused
            stages += 1
            tasks += info.numCompletedTasks
            failed += info.numFailedTasks
        return {"spark.jobs": len(jobs), "spark.stages": stages,
                "spark.tasks": tasks, "spark.tasks_failed": failed}

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import repro.compiler as compiler
        from pyspark import cloudpickle

        from repro.compiler import backend_spark, frontend, pash
        from repro.dfg import transform
        from repro.runtime.stream import SparkStream

        t = self
        parse, compile_script = frontend.parse, frontend.compile_script
        parallelize = transform.parallelize
        from_lines = SparkStream.from_lines
        split, collect_lines = SparkStream.split, SparkStream.collect_lines
        collect_parts = SparkStream.collect_parts
        per_chunk, aggregate = SparkStream.per_chunk, SparkStream.aggregate
        acc = self._acc

        def traced_parse(*args, **kwargs):
            with t.span("shell.parse"):
                return parse(*args, **kwargs)

        def traced_compile(*args, **kwargs):
            with t.span("frontend.compile"):
                cs = compile_script(*args, **kwargs)
            t.counts["frontend.regions"] += sum(s.kind == "dfg" for s in cs.steps)
            return cs

        def traced_parallelize(g, width, **kwargs):
            with t.span("transform.parallelize"):
                out = parallelize(g, width, **kwargs)
            t.counts["transform.nodes"] += len(out.nodes)
            return out

        def traced_from_lines(spark, lines, width=1):
            t.counts["stream.from_lines_calls"] += 1
            t.counts["stream.ingest_lines"] += len(lines)
            with t.span("stream.from_lines"):
                return from_lines(spark, lines, width)

        def traced_split(st, width):
            t.counts["stream.split_calls"] += 1
            with t.span("stream.split"):
                return split(st, width)

        # a collect with a deferred aggregate collects its map outputs
        # through a nested call; only calls without one pull lines from Spark
        def traced_collect_lines(st):
            with t.span("stream.collect"):
                out = collect_lines(st)
            if st.agg is None:
                t.counts["stream.collect_calls"] += 1
                t.counts["stream.egress_lines"] += len(out)
            return out

        def traced_collect_parts(st):
            with t.span("stream.collect"):
                parts = collect_parts(st)
            if st.agg is None:
                t.counts["stream.collect_calls"] += 1
                t.counts["stream.egress_lines"] += sum(len(p) for p in parts)
            return parts

        def traced_per_chunk(st, fn):
            t.counts["map.closure_bytes"] += len(cloudpickle.dumps(fn))
            return per_chunk(st, _counted(
                fn, acc["map.busy_s"], acc["map.chunks"], acc["map.lines_in"],
                acc["map.lines_out"], nested=False))

        def traced_aggregate(st, fn):
            return aggregate(st, _counted(
                fn, acc["agg.busy_s"], acc["agg.calls"], acc["agg.lines_in"],
                acc["agg.lines_out"], nested=True))

        self._patch(frontend, "parse", traced_parse)
        self._patch(compiler, "compile_script", traced_compile)
        self._patch(pash, "compile_script", traced_compile)
        self._patch(transform, "parallelize", traced_parallelize)
        self._patch(SparkStream, "from_lines", staticmethod(traced_from_lines))
        self._patch(SparkStream, "split", traced_split)
        self._patch(SparkStream, "collect_lines", traced_collect_lines)
        self._patch(SparkStream, "collect_parts", traced_collect_parts)
        self._patch(SparkStream, "per_chunk", traced_per_chunk)
        self._patch(SparkStream, "aggregate", traced_aggregate)
        self._patch(backend_spark, "exec_node",
                    _DriverExecNode(self, backend_spark.exec_node))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}, indent=1))


def span_seconds(spans: List[dict], call: str, name: str,
                 top_level: bool = False) -> float:
    """Total duration of the spans called ``name`` in one call; with
    ``top_level``, spans nested inside a span of the same name are skipped."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["call"] != call or s["name"] != name:
            continue
        if top_level and s["parent"] is not None and \
                by_id[s["parent"]]["name"] == name:
            continue
        total += s["end"] - s["start"]
    return total


def self_seconds(spans: List[dict], span_id: int) -> float:
    """A span's duration minus the time its direct children cover (children
    of one span run one after another on the driver thread)."""
    s = next(x for x in spans if x["id"] == span_id)
    children = sum(c["end"] - c["start"] for c in spans if c["parent"] == span_id)
    return (s["end"] - s["start"]) - children
