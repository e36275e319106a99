"""Parallelization-exposing graph transformations (§4.3).

``parallelize`` applies, in one topological pass, the paper's
transformations:

* **t1** (implicit): a parallelizable node with several ordered streaming
  inputs treats them as the concatenation of its input *bundle* — the
  explicit ``cat`` is commuted away immediately by T, so plain ``cat`` nodes
  dissolve into bundles;
* **t2**: a parallelizable node whose bundle has width 1 gets a ``split``
  node (with eager relays on all outputs but the last, §5) to raise the
  width to ``--width``;
* **T**: a ⓢ node preceded by a width-n bundle is replaced by n copies and
  the concatenation is commuted after them; a ⓟ node becomes n ``map``
  nodes followed by an aggregator (a balanced binary tree for associative
  aggregators — matching the paper's process counts, e.g. sort at width 8 =
  8 maps + 7 aggregators + 14 eager relays — or a single n-ary node
  otherwise);
* **t3**: ``eager`` relay nodes inserted on aggregator inputs and split
  outputs (§5, Fig. 3).

Non-parallelizable nodes (ⓝ, ⓔ, ⓟ without an aggregator) act as width
sinks: their input bundles are merged back with explicit ``cat`` nodes and
they run sequentially — exactly why "no-split" configurations stay
sequential after the first such node (§6.1).
"""
from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.annotations.model import CLASS_P, CLASS_S, Resolved

from .graph import DFG, Edge, Node

# aggregators that are associative and closed under composition -> binary
# tree; the rest get one n-ary aggregator node
BINARY_AGGS = {"sort_m", "uniq", "uniq_c", "wc", "sum", "head", "tail", "tac"}


def stream_concat_variant(node: Node) -> Node:
    """A copy of ``node`` that consumes the *concatenation* of its streaming
    inputs via stdin: streaming file operands are stripped from argv. Used
    for the replicated copies T creates from a multi-input node — each copy
    sees one chunk of the concatenated stream (static operands stay)."""
    res = node.resolved
    assert res is not None
    drop = {res.operand_pos[i] for i in res.inputs if i != "stdin"}
    argv = tuple(a for j, a in enumerate(node.argv) if j not in drop)
    return dataclasses.replace(node, argv=argv, via_stdin=True)


def parallelize(
    src: DFG,
    width: int,
    *,
    enable_split: bool = True,
    enable_eager: bool = True,
) -> DFG:
    g = DFG()
    bundle: Dict[int, List[int]] = {}  # orig streaming edge -> new edges
    static_new: Dict[int, int] = {}  # orig static-feeding edge -> new edge
    out_map: Dict[int, List[int]] = {}  # orig node -> its orig output eids

    def new_input_edge(orig: Edge) -> int:
        e = g.add_edge(kind=orig.kind, label=orig.label)
        return e.eid

    def in_bundle(orig_eid: int) -> List[int]:
        if orig_eid not in bundle:
            orig = src.edges[orig_eid]
            assert orig.src is None, "non-input edge consumed before produced"
            bundle[orig_eid] = [new_input_edge(orig)]
        return bundle[orig_eid]

    def statics_for(n: Node, copies: int) -> List[List[int]]:
        """One list of static edges per copy (replication duplicates
        configuration inputs; pipe-fed statics are teed via a relay)."""
        per_copy: List[List[int]] = [[] for _ in range(copies)]
        for orig_eid in n.statics:
            orig = src.edges[orig_eid]
            if orig.src is None:  # graph-input file: one fresh edge per copy
                for c in range(copies):
                    per_copy[c].append(new_input_edge(orig))
            else:
                produced = static_new.pop(orig_eid, None)
                if produced is None:
                    raise ValueError("static input reused or not produced")
                if copies == 1:
                    per_copy[0].append(produced)
                else:
                    outs = [g.add_edge().eid for _ in range(copies)]
                    g.add_node(kind="relay", cmd="tee", inputs=[produced], outputs=outs)
                    for c in range(copies):
                        per_copy[c].append(outs[c])
        return per_copy

    def eager_wrap(eid: int) -> int:
        if not enable_eager:
            return eid
        out = g.add_edge().eid
        g.add_node(kind="eager", cmd="eager", inputs=[eid], outputs=[out])
        return out

    def do_split(eid: int) -> List[int]:
        outs = [g.add_edge().eid for _ in range(width)]
        g.add_node(kind="split", cmd="split", inputs=[eid], outputs=outs)
        # eager on all split outputs except the last (§5 "Splitting")
        return [eager_wrap(e) for e in outs[:-1]] + [outs[-1]]

    def widen(ib: List[int]) -> List[int]:
        """Raise a width-1 bundle to ``width``: graph-input files are
        chunked statically (free — no runtime node); anything else needs
        the runtime split primitive, gated on ``enable_split``."""
        if len(ib) != 1 or width <= 1:
            return ib
        e0 = g.edges[ib[0]]
        if e0.src is None and e0.kind == "file" and e0.label and e0.chunk is None:
            del g.edges[ib[0]]  # replace the un-chunked file edge
            return [
                g.add_edge(kind="file", label=e0.label, chunk=(k, width)).eid
                for k in range(width)
            ]
        if enable_split:
            return do_split(ib[0])
        return ib

    def merge(b: List[int], *, kind: str = "pipe", label: Optional[str] = None,
              sink: bool = False) -> int:
        # a graph output must come from a node, even for a plain ``cat file``
        if len(b) == 1 and kind == "pipe" and not (sink and g.edges[b[0]].src is None):
            return b[0]
        out = g.add_edge(kind=kind, label=label).eid
        g.add_node(kind="cat", cmd="cat", inputs=list(b), outputs=[out])
        return out

    def agg_tree(inputs: List[int], agg_name: str, spec: Resolved, origin: int) -> int:
        """Aggregator stage over ordered map outputs; eager on every
        aggregator input (Fig. 3 places eager before sort -m)."""
        if agg_name in BINARY_AGGS:
            level = inputs
            while len(level) > 1:
                nxt: List[int] = []
                for i in range(0, len(level) - 1, 2):
                    out = g.add_edge().eid
                    g.add_node(
                        kind="agg", cmd=f"agg:{agg_name}", agg_name=agg_name,
                        agg_spec=spec, origin=origin,
                        inputs=[eager_wrap(level[i]), eager_wrap(level[i + 1])],
                        outputs=[out],
                    )
                    nxt.append(out)
                if len(level) % 2:
                    nxt.append(level[-1])
                level = nxt
            return level[0]
        out = g.add_edge().eid
        g.add_node(
            kind="agg", cmd=f"agg:{agg_name}", agg_name=agg_name, agg_spec=spec,
            origin=origin, inputs=[eager_wrap(e) for e in inputs], outputs=[out],
        )
        return out

    order = src.topo_order()
    for nid in order:
        n = src.nodes[nid]
        in_bs = [in_bundle(e) for e in n.inputs]
        flat = [e for b in in_bs for e in b]
        res = n.resolved
        is_plain_cat = (n.cmd == "cat" and n.cls == CLASS_S
                       and (res is None or not res.opts))

        if is_plain_cat and n.inputs:
            out_b = flat  # T commutes the concatenation downstream
        elif n.cls == CLASS_S and n.inputs:
            ib = widen(flat)
            # replicated copies of a multi-input node consume chunks of the
            # concatenation via stdin (streaming operands stripped)
            proto = n if (res is None or len(res.inputs) <= 1 or len(ib) == 1) \
                else stream_concat_variant(n)
            sts = statics_for(n, len(ib))
            outs: List[int] = []
            for i, e in enumerate(ib):
                o = g.add_edge().eid
                g.add_node(
                    kind="map" if len(ib) > 1 else "cmd", cmd=proto.cmd,
                    argv=proto.argv, cls=n.cls, resolved=res,
                    inputs=[e], statics=sts[i], outputs=[o],
                    via_stdin=proto.via_stdin, origin=n.nid if len(ib) > 1 else None,
                )
                outs.append(o)
            out_b = outs
        elif n.cls == CLASS_P and res is not None and res.aggregator and n.inputs:
            ib = widen(flat)
            if len(ib) == 1:
                sts = statics_for(n, 1)
                o = g.add_edge().eid
                g.add_node(kind="cmd", cmd=n.cmd, argv=n.argv, cls=n.cls,
                           resolved=res, inputs=ib, statics=sts[0],
                           outputs=[o], via_stdin=n.via_stdin)
                out_b = [o]
            else:
                if res.map_argv:
                    m_cmd, m_argv, via_stdin = res.map_argv[0], tuple(res.map_argv[1:]), True
                elif len(res.inputs) > 1:
                    proto = stream_concat_variant(n)
                    m_cmd, m_argv, via_stdin = proto.cmd, proto.argv, True
                else:
                    m_cmd, m_argv, via_stdin = n.cmd, n.argv, n.via_stdin
                sts = statics_for(n, len(ib))
                m_outs: List[int] = []
                for i, e in enumerate(ib):
                    o = g.add_edge().eid
                    g.add_node(kind="map", cmd=m_cmd, argv=m_argv, cls=n.cls,
                               resolved=res, inputs=[e], statics=sts[i],
                               outputs=[o], via_stdin=via_stdin, origin=n.nid)
                    m_outs.append(o)
                out_b = [agg_tree(m_outs, res.aggregator, res, n.nid)]
        else:
            # N, E, P-without-aggregator, or sources: sequential; width sink
            new_ins = [merge(b) for b in in_bs]
            sts = statics_for(n, 1)
            o = g.add_edge().eid
            g.add_node(kind=n.kind if n.kind != "cmd" else "cmd", cmd=n.cmd,
                       argv=n.argv, cls=n.cls, resolved=res,
                       inputs=new_ins, statics=sts[0] if sts else [],
                       outputs=[o], via_stdin=n.via_stdin)
            out_b = [o]

        # register output bundles; a node in our model has one stdout edge
        for out_eid in n.outputs:
            orig_out = src.edges[out_eid]
            consumer = src.nodes[orig_out.dst] if orig_out.dst is not None else None
            feeds_static = consumer is not None and out_eid in consumer.statics
            if orig_out.dst is None or orig_out.kind == "file":
                # graph output or file sink: merge to one edge, keep identity
                merged = merge(out_b, kind=orig_out.kind, label=orig_out.label,
                               sink=orig_out.dst is None)
                if orig_out.kind == "file" and orig_out.dst is not None:
                    bundle[out_eid] = [merged]
                if feeds_static:
                    static_new[out_eid] = merged
                elif orig_out.dst is not None:
                    bundle[out_eid] = [merged]
            elif feeds_static:
                static_new[out_eid] = merge(out_b)
            else:
                bundle[out_eid] = out_b
    return g
