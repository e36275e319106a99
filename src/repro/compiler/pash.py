"""Top-level PaSh entry points.

``pash_seq``   — the user's script, sequential shell semantics (baseline).
``pash_spark`` — the PaSh pipeline of Fig. 1: compile to DFGs, apply the
parallelizing transformations up to ``--width``, execute on the Spark
substrate; opaque (non-dataflow) fragments run through the sequential
interpreter unchanged, exactly like PaSh hands untranslated AST subtrees
back to the shell.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from pyspark.sql import SparkSession

from repro.commands.base import ExecEnv

from .backend_seq import _run_ast, run_seq
from .backend_spark import run_dfg_spark
from .frontend import CompiledScript, compile_script


def pash_seq(script, env: ExecEnv, *, stdin: Optional[List[str]] = None,
             shell_env: Optional[Dict[str, str]] = None) -> List[str]:
    return run_seq(script, env, stdin=stdin, shell_env=shell_env)


def pash_spark(
    spark: SparkSession,
    script,
    env: ExecEnv,
    *,
    width: int,
    enable_split: bool = True,
    stdin: Optional[List[str]] = None,
    shell_env: Optional[Dict[str, str]] = None,
) -> List[str]:
    cs = script if isinstance(script, CompiledScript) else compile_script(script, shell_env)
    out: List[str] = []
    for step in cs.steps:
        if step.kind == "dfg":
            # each region frees its own ingest broadcasts; the caller's
            # cache and conf stay as they were
            out.extend(run_dfg_spark(
                spark, step.dfg, env, width=width,
                enable_split=enable_split, stdin=stdin))
        else:
            out.extend(_run_ast(step.ast, list(stdin or []), env, cs.env))
    return out
