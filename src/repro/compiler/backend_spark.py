"""Spark backend: lowers the DFG transformation T produced (§4.3, §5).

``run_dfg_spark`` runs ``parallelize(g, width)`` — the graph that node
counts, ``pipesim``, ``emit_script`` and the equivalence tests use — and
lowers it node kind by node kind onto :class:`SparkStream`, deciding
nothing itself. The ``map`` copies of one command (``Node.origin``) become
one per-chunk operator over their bundle's stream (fused ``mapInPandas``
stages: PaSh's process chain per width lane), and its ``agg`` tree one
width-1 ``aggregate``. ``split`` ingests driver lines chunked, or collects
a stream and ingests its lines again; ``cat`` joins its sources; ``eager``
and ``relay`` pass their input on, since Spark stages hand off
materialized outputs (pipe laziness is modelled in :mod:`repro.pipesim`);
``cmd`` nodes — sources and width sinks — run on the driver. A bundle is
one stream: consecutive lanes of one stream are that stream, and several
sources are joined by ``SparkStream.cat``. A command failing in a Spark
task raises :class:`CommandError` with its message, as in the sequential
backend.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Union

from pyspark.errors import PythonException
from pyspark.sql import SparkSession

from repro.commands.base import CommandError, ExecEnv
from repro.dfg import transform  # looked up per call: tracers wrap parallelize
from repro.dfg.graph import DFG, Node
from repro.runtime.aggregators import AGGREGATORS
from repro.runtime.stream import SparkStream

from .backend_seq import exec_node

# commands that read the simulated environment (vfs / network / file types)
# at runtime and therefore need it captured into their task closures
_ENV_READERS = {"xargs", "curl", "file"}

# how a CommandError raised in a Python worker ends its traceback
_COMMAND_ERROR = f"{CommandError.__module__}.{CommandError.__qualname__}: "


class _Lane(NamedTuple):
    """Edge value for lane ``k`` of a bundle that is one stream; lane 0
    holds the stream as ``whole``."""

    whole: Optional[SparkStream]
    k: int


Value = Union[List[str], SparkStream, _Lane]


def _node_fn(node: Node, statics: List[List[str]], env: ExecEnv):
    """Build a picklable chunk function running ``node`` on a line chunk."""
    files = dict(env.files) if node.cmd in _ENV_READERS else {}
    ftypes = env.ftypes

    def fn(lines: List[str]) -> List[str]:
        return exec_node(node, [lines], statics, ExecEnv(files=files, ftypes=ftypes))

    return fn


def run_dfg_spark(
    spark: SparkSession,
    g: DFG,
    env: ExecEnv,
    *,
    width: int,
    enable_split: bool = True,
    stdin: Optional[List[str]] = None,
) -> List[str]:
    pg = transform.parallelize(g, width, enable_split=enable_split,
                               enable_eager=False)
    values: Dict[int, Value] = {}
    made: List[SparkStream] = []  # streams whose resources this call owns

    def keep(st: SparkStream) -> SparkStream:
        made.append(st)
        return st

    def value(eid: int) -> Value:
        if eid not in values:  # a graph input
            e = pg.edges[eid]
            lines = list(stdin or []) if e.label == "<stdin>" else env.read(e.label or "")
            if e.chunk is None:
                values[eid] = lines
            else:  # a file chunked statically into n lanes: lane 0 ingests it
                k, n = e.chunk
                values[eid] = _Lane(
                    keep(SparkStream.from_lines(spark, lines, n)) if k == 0 else None, k)
        return values[eid]

    def sources(eids: List[int]) -> list:
        """A bundle's sources: the lanes of one stream are that stream."""
        vals = [value(e) for e in eids]
        return [v.whole if isinstance(v, _Lane) else v for v in vals
                if not isinstance(v, _Lane) or v.k == 0]

    def stream(srcs: list) -> SparkStream:
        """One stream over ``srcs``; driver-resident lines are one chunk."""
        sts = [v if isinstance(v, SparkStream)
               else keep(SparkStream.from_lines(spark, v)) for v in srcs]
        return sts[0] if len(sts) == 1 else keep(SparkStream.cat(sts))

    def lines(v) -> List[str]:
        return v.collect_lines() if isinstance(v, SparkStream) else v

    # the copies of one command, in lane order, are lowered at the last one
    groups: Dict[tuple, List[Node]] = {}
    for n in pg.nodes.values():
        if n.origin is not None:
            groups.setdefault((n.kind, n.origin), []).append(n)
    left = {key: len(copies) for key, copies in groups.items()}

    try:
        for nid in pg.topo_order():
            n = pg.nodes[nid]
            key = (n.kind, n.origin)
            if key in left:
                left[key] -= 1
                if left[key]:
                    continue
                group = groups[key]
            if n.kind == "map":
                node = group[0]
                fn = _node_fn(node, [lines(value(e)) for e in node.statics], env)
                out = stream(sources([m.inputs[0] for m in group])).per_chunk(fn)
                values.update((m.outputs[0], _Lane(out, k)) for k, m in enumerate(group))
            elif n.kind == "agg":
                # n is the root: the tree's leaves are the map outputs, in order
                inner = {e for a in group for e in a.outputs}
                leaves = [e for a in group for e in a.inputs if e not in inner]
                agg_fn = AGGREGATORS[n.agg_name]
                values[n.outputs[0]] = stream(sources(leaves)).aggregate(
                    lambda parts, _f=agg_fn, _r=n.agg_spec: _f(parts, _r))
            elif n.kind == "split":
                v = value(n.inputs[0])
                w = len(n.outputs)
                st = keep(v.split(w) if isinstance(v, SparkStream)
                          else SparkStream.from_lines(spark, v, w))
                values.update((o, _Lane(st, k)) for k, o in enumerate(n.outputs))
            elif n.kind == "cat":
                srcs = sources(n.inputs)
                values[n.outputs[0]] = stream(srcs) \
                    if any(isinstance(v, SparkStream) for v in srcs) \
                    else [l for v in srcs for l in v]
            elif n.kind in ("eager", "relay"):
                values.update((o, value(n.inputs[0])) for o in n.outputs)
            else:
                values[n.outputs[0]] = exec_node(
                    n, [lines(value(e)) for e in n.inputs],
                    [lines(value(e)) for e in n.statics], env)

        result: List[str] = []
        for eid in pg.graph_outputs():
            e = pg.edges[eid]
            out_lines = lines(value(eid))
            if e.kind == "file" and e.label:
                env.files[e.label] = out_lines
            else:
                result.extend(out_lines)
        return result
    except PythonException as err:
        # a command failed inside a Spark task: raise its own error
        msgs = [l[len(_COMMAND_ERROR):] for l in str(err).splitlines()
                if l.startswith(_COMMAND_ERROR)]
        if not msgs:
            raise
        raise CommandError(msgs[-1]) from err
    finally:
        # the ingest broadcasts, including those of streams ingested again
        SparkStream.release(made)
