"""The benchmark's own checks, at tiny scale (about two minutes):

    python3 perfbench/selftest.py

1. At each workload's default seed and scale, the generated input equals
   the repo's own environment for that script byte for byte, except for
   the time stamp in each gzip member's header.
2. ``nfa-regex`` on a small input with planted matching lines: Spark and
   sequential outputs are equal and not empty (the benchmark's corpus never
   contains ``xyzzy``, so there the check is vacuous).
3. The traced run on every workload: traced outputs equal untraced ones,
   counters repeat exactly across two traced calls, and the per-layer
   metrics are exactly those ``BENCHMARK.json`` lists.
4. A short timed run reports exactly the end-to-end metrics of
   ``BENCHMARK.json``, with their units.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import session  # noqa: E402

# tiny inputs: 2000 corpus lines; the NOAA generator's minimum size
TINY_LINES = 2000
TINY_SCALE = {"sort-transport": TINY_LINES / 3_000_000,
              "nfa-map": TINY_LINES / 600_000, "noaa-regions": 0.1}


def _check(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _files_without_gzip_mtime(env) -> dict:
    """The environment's files with each gzip member's MTIME header field
    zeroed: ``gzip.compress`` stamps it with the current time, so it is the
    one part of the repo's NOAA input that no seed fixes."""
    import base64

    def strip(line: str) -> str:
        raw = base64.b64decode(line)
        return base64.b64encode(raw[:4] + bytes(4) + raw[8:]).decode()

    return {name: [strip(x) for x in lines] if name.endswith(".gz") else lines
            for name, lines in env.files.items()}


def _planted_nfa(failures: list, spark) -> None:
    from repro.commands.base import ExecEnv
    from repro.compiler import pash_seq, pash_spark
    from repro.workloads import ONELINERS
    from repro.workloads.inputs import text_corpus

    lines = text_corpus(TINY_LINES, seed=0)
    planted = ["The end and then xyzzy", "a hat xyzzy", "then xyzzy!"]
    for k, line in enumerate(planted):
        lines.insert((k + 1) * len(lines) // (len(planted) + 1), line)
    script = ONELINERS["nfa-regex"].script
    seq = pash_seq(script, ExecEnv(files={"in.txt": list(lines)}))
    par = pash_spark(spark, script, ExecEnv(files={"in.txt": list(lines)}),
                     width=spark.sparkContext.defaultParallelism)
    _check(len(seq) == len(planted) and par == seq,
           f"nfa-regex on planted input: {len(seq)} matching lines, spark == seq",
           failures)


def main() -> int:
    session.prepare_process()
    try:
        return _run_checks()
    finally:
        session.shutdown()


def _run_checks() -> int:
    from perfbench.measure import Bench, result, timed_run, traced_run
    from perfbench.workloads import WORKLOADS

    spec = json.loads((session.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list = []

    for w in WORKLOADS.values():
        ours = w.make_env(w.default_seed, w.scale)
        repo = w.repo_env(w.scale)
        _check(_files_without_gzip_mtime(ours) == _files_without_gzip_mtime(repo)
               and ours.ftypes == repo.ftypes,
               f"{w.name}: input at seed {w.default_seed} equals the repo's "
               f"environment at scale {w.scale} (gzip MTIME aside)", failures)

    for w in WORKLOADS.values():
        b = Bench(w, w.default_seed, TINY_SCALE[w.name])
        try:
            res = traced_run(b, session.OUT / f"selftest-spans-{w.name}.json")
            if w.name == "nfa-map":
                _planted_nfa(failures, b.spark)
        finally:
            b.close()
        verdict = result(b, res)
        _check(verdict["correct"] and verdict["attempted"] > 0,
               f"{w.name}: traced outputs equal seq, counters repeat "
               f"({res['checks']})", failures)
        units = {k: m["unit"] for k, m in verdict["metrics"].items()}
        _check(units == per_layer,
               f"{w.name}: per-layer metrics match BENCHMARK.json", failures)

    w = WORKLOADS["sort-transport"]
    b = Bench(w, w.default_seed, TINY_SCALE[w.name])
    try:
        res = timed_run(b, 0.5)
    finally:
        b.close()
    verdict = result(b, res)
    units = {k: m["unit"] for k, m in verdict["metrics"].items()}
    _check(verdict["correct"] and units == e2e,
           "timed run: correct, end-to-end metrics match BENCHMARK.json", failures)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
