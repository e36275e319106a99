"""Sequential backend: the reference semantics of the user's script.

``run_seq`` interprets a compiled script exactly as a POSIX shell would
(modulo exit codes — our commands don't have them, so ``&&`` always
continues, which is also what happens on the benchmarks' success paths).
It doubles as the sequential-baseline timer and as the correctness oracle
for the parallel backends.

``run_dfg_seq`` executes *any* DFG — original or transformed — on Python
line lists; the metamorphic tests assert ``run_dfg_seq(parallelize(g, w))
== run_dfg_seq(g)`` for every benchmark script and width.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.annotations.model import Resolved
from repro.commands.base import CommandError, ExecEnv, run_cli
from repro.dfg.graph import DFG, Node
from repro.runtime import split_chunks
from repro.runtime.aggregators import aggregate
from repro.shell.ast import AndOr, ForLoop, Pipeline, Script, SimpleCommand, Subshell
from repro.shell.expand import expand_word

from .frontend import CompiledScript, Step, compile_script


class _Overlay(ExecEnv):
    """ExecEnv view with per-node file bindings shadowing the base env."""

    def __init__(self, base: ExecEnv, overlay: Dict[str, List[str]]):
        self.base = base
        self.overlay = overlay
        self.ftypes = base.ftypes

    @property
    def files(self):  # type: ignore[override]
        return self  # minimal mapping protocol via read()

    def read(self, name: str) -> List[str]:
        if name in self.overlay:
            return self.overlay[name]
        return self.base.read(name)


def exec_node(node: Node, in_streams: List[List[str]],
              static_streams: List[List[str]], env: ExecEnv) -> List[str]:
    """Execute one cmd/map node with its input edges bound."""
    res: Resolved = node.resolved  # type: ignore[assignment]
    overlay: Dict[str, List[str]] = {}
    stdin: List[str] = []
    if node.via_stdin:
        for lines in in_streams:
            stdin.extend(lines)
    else:
        assert len(res.inputs) == len(in_streams), (node.cmd, res.inputs, len(in_streams))
        for spec, lines in zip(res.inputs, in_streams):
            if spec == "stdin" or res.operands[spec] == "-":
                stdin.extend(lines)
            else:
                overlay[res.operands[spec]] = lines
    for idx, lines in zip(res.static_inputs, static_streams):
        overlay[res.operands[idx]] = lines
    env2 = _Overlay(env, overlay) if overlay else env
    return run_cli(node.cmd, list(node.argv), stdin, env2)


def run_dfg_seq(g: DFG, env: ExecEnv, stdin: Optional[List[str]] = None,
                record: Optional[Dict[int, int]] = None) -> List[str]:
    """Execute a DFG on line lists; returns the graph's (merged) output.

    When ``record`` is given, it is filled with per-edge line counts — the
    volume calibration the pipe simulator uses (pipesim docstring).
    """
    values: Dict[int, List[str]] = {}

    def edge_value(eid: int) -> List[str]:
        if eid in values:
            return values[eid]
        e = g.edges[eid]
        assert e.src is None, f"edge {eid} consumed before produced"
        if e.label == "<stdin>":
            v = list(stdin or [])
        else:
            v = env.read(e.label or "")
        if e.chunk is not None:  # static file chunking (see Edge.chunk)
            k, w = e.chunk
            v = split_chunks(v, w)[k]
        values[eid] = v
        return v

    for nid in g.topo_order():
        n = g.nodes[nid]
        ins = [edge_value(e) for e in n.inputs]
        sts = [edge_value(e) for e in n.statics]
        if n.kind in ("cmd", "map"):
            out = exec_node(n, ins, sts, env)
            values[n.outputs[0]] = out
        elif n.kind == "cat":
            values[n.outputs[0]] = [l for s in ins for l in s]
        elif n.kind == "split":
            for eid, chunk in zip(n.outputs, split_chunks(ins[0], len(n.outputs))):
                values[eid] = chunk
        elif n.kind in ("eager", "relay"):
            for eid in n.outputs:  # relay may tee to several outputs
                values[eid] = list(ins[0])
        elif n.kind == "agg":
            values[n.outputs[0]] = aggregate(n.agg_name, ins, n.agg_spec)  # type: ignore[arg-type]
        else:
            raise ValueError(f"unknown node kind {n.kind}")

    if record is not None:
        for eid, v in values.items():
            record[eid] = len(v)
    outs = g.graph_outputs()
    result: List[str] = []
    for eid in outs:
        e = g.edges[eid]
        if e.kind == "file" and e.label:
            env.files[e.label] = values[eid]
        else:
            result.extend(values[eid])
    return result


# --------------------------------------------------------------------------
# opaque-step interpreter (plain sequential shell semantics)
# --------------------------------------------------------------------------


def _run_simple(cmd: SimpleCommand, stdin: List[str], env: ExecEnv,
                shell_env: Dict[str, str]) -> Tuple[List[str], Optional[str]]:
    words = []
    for w in cmd.words:
        t = expand_word(w, shell_env)
        if t is None:
            raise CommandError(f"cannot expand {w!r} at runtime")
        words.append(t)
    in_file = out_file = None
    for r in cmd.redirects:
        t = expand_word(r.target, shell_env)
        if r.op == "<":
            in_file = t
        elif r.op == ">":
            out_file = t
    if in_file:
        stdin = env.read(in_file)
    out = run_cli(words[0], words[1:], stdin, env)
    return out, out_file


def _run_ast(node, stdin: List[str], env: ExecEnv, shell_env: Dict[str, str]) -> List[str]:
    if isinstance(node, Pipeline):
        cur = stdin
        for i, c in enumerate(node.commands):
            if isinstance(c, Subshell):
                cur = _run_ast(c.body, cur, env, shell_env)
                continue
            cur, out_file = _run_simple(c, cur, env, shell_env)
            if out_file:
                env.files[out_file] = cur
                cur = []
        return cur
    if isinstance(node, AndOr):  # no exit codes: run all parts in order
        out: List[str] = []
        for p in node.parts:
            out.extend(_run_ast(p, stdin, env, shell_env))
        return out
    if isinstance(node, Script):
        out = []
        for item in node.items:
            out.extend(_run_ast(item, stdin, env, shell_env))
        return out
    if isinstance(node, ForLoop):
        from repro.shell.expand import brace_expand

        out = []
        for w in node.items:
            t = expand_word(w, shell_env)
            if t is None:
                raise CommandError("cannot expand for items")
            for v in brace_expand(t):
                shell_env[node.var] = v
                out.extend(_run_ast(node.body, stdin, env, shell_env))
        return out
    raise CommandError(f"cannot interpret {type(node).__name__}")


def run_seq(script, env: ExecEnv, *, stdin: Optional[List[str]] = None,
            shell_env: Optional[Dict[str, str]] = None) -> List[str]:
    """Run a script (source text or CompiledScript) sequentially.

    DFG steps are executed by the DFG interpreter on the *untransformed*
    graph (provably identical to direct interpretation); opaque steps go
    through the AST interpreter. Output is the concatenated stdout of all
    steps; file sinks land in ``env.files``.
    """
    cs = script if isinstance(script, CompiledScript) else compile_script(script, shell_env)
    out: List[str] = []
    for step in cs.steps:
        if step.kind == "dfg":
            r = run_dfg_seq(step.dfg, env, stdin=stdin)
            out.extend(r)
        else:
            out.extend(_run_ast(step.ast, list(stdin or []), env, cs.env))
    return out
