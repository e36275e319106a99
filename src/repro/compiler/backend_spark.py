"""Spark backend: data-parallel interpretation of a dataflow region.

This backend interprets the *original* DFG with the parallelization
semantics of the transformed one (§4.3): because transformation T is
behaviour-preserving by construction, "n replicated nodes fed by a split"
and "one per-chunk operator over an n-chunk stream" denote the same
function — the former is what PaSh materializes as processes (and what our
expanded DFG, pipe simulator, and node-count accounting use), the latter is
the idiomatic Spark plan (fused ``mapInPandas`` stages over a chunked
DataFrame). The equivalence between the two executions is
asserted test-by-test against ``run_dfg_seq(parallelize(g, w))``.

Width-sink behaviour matches the paper exactly: ⓝ/ⓔ/ⓟ-without-aggregator
nodes run sequentially (driver-side), and a following parallelizable node
re-splits only when ``enable_split`` — disabling split therefore leaves
everything after the first aggregator sequential (§6.1's "No Split").
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Union

from pyspark.sql import SparkSession

from repro.annotations.model import CLASS_P, CLASS_S, Resolved
from repro.commands.base import ExecEnv
from repro.dfg.graph import DFG, Node
from repro.runtime.aggregators import AGGREGATORS
from repro.runtime.stream import SparkStream

from .backend_seq import exec_node, stream_concat_variant

# commands that read the simulated environment (vfs / network / file types)
# at runtime and therefore need it captured into their task closures
_ENV_READERS = {"xargs", "curl", "file"}

Value = Union[List[str], SparkStream]


def _node_fn(node: Node, statics: List[List[str]], env_files: Dict[str, List[str]],
             ftypes: Dict[str, str]):
    """Build a picklable chunk function running ``node`` on a line chunk."""

    def fn(lines: List[str]) -> List[str]:
        env = ExecEnv(files=env_files, ftypes=ftypes)
        return exec_node(node, [lines], statics, env)

    return fn


def run_dfg_spark(
    spark: SparkSession,
    g: DFG,
    env: ExecEnv,
    *,
    width: int,
    enable_split: bool = True,
    enable_eager: bool = False,
    stdin: Optional[List[str]] = None,
) -> List[str]:
    values: Dict[int, Value] = {}
    made: List[SparkStream] = []  # streams whose resources this call owns

    def keep(st: SparkStream) -> SparkStream:
        made.append(st)
        return st

    def edge_value(eid: int) -> Value:
        if eid in values:
            return values[eid]
        e = g.edges[eid]
        assert e.src is None
        v = list(stdin or []) if e.label == "<stdin>" else env.read(e.label or "")
        values[eid] = v
        return v

    def ensure_stream(v: Value, w: int = 1) -> SparkStream:
        return v if isinstance(v, SparkStream) \
            else keep(SparkStream.from_lines(spark, v, w))

    def ensure_lines(v: Value) -> List[str]:
        return v.collect_lines() if isinstance(v, SparkStream) else v

    def env_capture(node: Node) -> Dict[str, List[str]]:
        return dict(env.files) if node.cmd in _ENV_READERS else {}

    def distribute(ins: List[Value], may_split: bool) -> SparkStream:
        # driver-resident inputs are distributed pre-chunked when
        # splitting is allowed (static file chunking / cheap split)
        w0 = width if may_split and not isinstance(ins[0], SparkStream) else 1
        st = SparkStream.cat([ensure_stream(v) for v in ins]) if len(ins) > 1 \
            else ensure_stream(ins[0], w0)
        if st.n_parts == 1 and enable_split and width > 1:
            st = keep(st.split(width))
        return st

    try:
        for nid in g.topo_order():
            n = g.nodes[nid]
            assert n.kind == "cmd", "spark backend interprets frontend DFGs"
            res: Resolved = n.resolved  # type: ignore[assignment]
            statics = [ensure_lines(edge_value(e)) for e in n.statics]
            ins = [edge_value(e) for e in n.inputs]

            is_plain_cat = (n.cmd == "cat" and n.cls == CLASS_S
                           and (res is None or not res.opts))
            multi_stream = res is not None and len(res.inputs) > 1
            # graph-input *files* are statically chunkable even without the
            # runtime split primitive (§6.1: "w/o split" still parallelizes
            # the first pipeline segment); intermediate pipes need enable_split
            file_backed = all(
                g.edges[e].src is None and g.edges[e].kind == "file"
                for e in n.inputs
            ) if n.inputs else False
            may_split = enable_split or file_backed

            if n.inputs and n.cls == CLASS_S:
                st = distribute(ins, may_split)
                if is_plain_cat:
                    out: Value = st  # T commutes the concatenation downstream
                else:
                    chunk_node = stream_concat_variant(n) if multi_stream else n
                    out = st.per_chunk(
                        _node_fn(chunk_node, statics, env_capture(n), env.ftypes))
                    if enable_eager:
                        out = keep(out.eager())
            elif n.inputs and n.cls == CLASS_P and res is not None and res.aggregator:
                st = distribute(ins, may_split)
                if st.n_parts == 1:
                    out = st.per_chunk(_node_fn(n, statics, env_capture(n), env.ftypes))
                else:
                    if res.map_argv:
                        map_node = dataclasses.replace(
                            n, cmd=res.map_argv[0], argv=tuple(res.map_argv[1:]),
                            via_stdin=True)
                    elif multi_stream:
                        map_node = stream_concat_variant(n)
                    else:
                        map_node = n
                    mapped = st.per_chunk(
                        _node_fn(map_node, statics, env_capture(map_node), env.ftypes))
                    if enable_eager:
                        mapped = keep(mapped.eager())
                    # the aggregator is PaSh's width-1 stage: one executor task
                    agg_fn = AGGREGATORS[res.aggregator]
                    out = mapped.aggregate(lambda parts, _r=res, _f=agg_fn: _f(parts, _r))
            else:
                # sources, ⓝ, ⓔ, ⓟ-without-aggregator, multi-stream inputs:
                # sequential execution (the width sink of §6.1)
                out = exec_node(n, [ensure_lines(v) for v in ins], statics, env)
            values[n.outputs[0]] = out

        result: List[str] = []
        for eid in g.graph_outputs():
            e = g.edges[eid]
            lines = ensure_lines(values[eid])
            if e.kind == "file" and e.label:
                env.files[e.label] = lines
            else:
                result.extend(lines)
        return result
    finally:
        # the broadcasts and persisted DataFrames of ingest, split and eager
        SparkStream.release(made)
