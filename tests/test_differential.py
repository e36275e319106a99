"""Differential property test of the one-plan claim: for random pipelines
of annotated S and P commands, random adversarial inputs and widths
1, 2, 3 and 7, PaSh-on-Spark, the transformed DFG run sequentially, and the
user's script all produce the same lines.

The first command reads the input file as an operand or from ``cat``.
Inputs are built from runs of repeated lines, so duplicates straddle chunk
boundaries (``uniq``, ``uniq -c``, ``sort -u``); they may be empty, shorter
than the width, and contain empty lines and non-ASCII text.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commands.base import ExecEnv
from repro.compiler import compile_script, pash_seq, pash_spark, run_dfg_seq
from repro.dfg.transform import parallelize

COMMANDS = [
    "grep a", "grep -v b", "grep -c a",
    "tr a-z A-Z", "tr -d b", 'tr -s " "',
    'cut -d " " -f 1', "cut -c 1-2",
    "sort", "sort -r", "sort -n", "sort -u",
    "uniq", "uniq -c",
    "wc -l", "head -n 3", "tac",
]

LINES = ["a", "b", "a b", "b a", "", "10", "9", "  a", "A", "bb b", "é ü"]

inputs = st.lists(
    st.tuples(st.sampled_from(LINES), st.integers(1, 4)), max_size=8,
).map(lambda runs: [line for line, n in runs for _ in range(n)])
pipelines = st.lists(st.sampled_from(COMMANDS), min_size=1, max_size=4)


@pytest.mark.parametrize("width", [1, 2, 3, 7])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(cmds=pipelines, lines=inputs, operand=st.booleans())
def test_spark_equals_transformed_equals_seq(spark, width, cmds, lines, operand):
    if operand and not cmds[0].startswith("tr "):
        script = " | ".join([f"{cmds[0]} in.txt"] + cmds[1:])
    else:
        script = " | ".join(["cat in.txt"] + cmds)

    def env():
        return ExecEnv(files={"in.txt": list(lines)})

    seq = pash_seq(script, env())
    [step] = compile_script(script).steps
    assert step.kind == "dfg", script
    transformed = run_dfg_seq(parallelize(step.dfg, width), env())
    par = pash_spark(spark, script, env(), width=width)
    assert par == transformed == seq, script
