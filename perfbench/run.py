"""Benchmark of PaSh-on-Spark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sort-transport --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` makes the traced run and reports the per-layer metrics. The last line
of standard output is the result as one JSON object; a run's context and
samples also go to ``perfbench/out/``. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import session  # noqa: E402


def _print_report(name: str, res: dict, ctx: dict) -> None:
    from perfbench.measure import summary

    print(f"== perfbench {name} (seed {ctx['seed']}, width {ctx['width']}, "
          f"{ctx['input_lines']} input lines) ==")
    for k, (v, unit) in res["metrics"].items():
        print(f"{k:28s} {v:14.6g} {unit}")
    for k, xs in res["samples"].items():
        print(f"  {k}: {summary(xs)}")
    m = res["metrics"]
    if "pash_s" in m:
        print(f"speedup seq_s/pash_s = {m['seq_s'][0] / m['pash_s'][0]:.3f}x "
              f"(seq_s={m['seq_s'][0]:.4f} s, pash_s={m['pash_s'][0]:.4f} s)")
    print("context: " + json.dumps(ctx, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the repo's own for the workload)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        session.prepare_process()
    except FileNotFoundError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    from perfbench.measure import Bench, result, timed_run, traced_run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    b = None
    try:
        b = Bench(w, seed)
        if args.trace:
            spans = session.OUT / f"spans-{w.name}-seed{seed}.json"
            res = traced_run(b, spans)
        else:
            res = timed_run(b, args.seconds)
        ctx = b.context()
    finally:
        if b is not None:
            b.close()
        session.shutdown()
    ctx["checks"] = res["checks"]
    verdict = result(b, res)
    out = session.OUT / f"result-{w.name}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": verdict, "context": ctx,
                               "samples": res["samples"]}, indent=1))
    _print_report(w.name, res, ctx)
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
