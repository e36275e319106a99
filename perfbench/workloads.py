"""The benchmark's workloads: the repo's own scripts on inputs generated
from a seed.

Each workload loads a different layer of PaSh-on-Spark (``why``, and
README.md). Inputs come from :mod:`repro.workloads.inputs` sized exactly as
the repo's own environments: at a workload's default seed the input equals
that environment byte for byte (checked by ``selftest.py``). The program
receives only the generated inputs. Import this module after
``session.prepare_process()``, which puts the program on the path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.commands.base import ExecEnv
from repro.workloads import ONELINERS, noaa
from repro.workloads.inputs import noaa_env, text_corpus


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    script: str
    scale: float
    default_seed: int
    make_env: Callable[[int, float], ExecEnv]  # (seed, scale) -> inputs
    repo_env: Callable[[float], ExecEnv]  # the repo's environment at a scale
    why: str


def _corpus(base_lines: int) -> Callable[[int, float], ExecEnv]:
    # the size rule of repro.workloads.oneliners._corpus_env
    def make(seed: int, scale: float) -> ExecEnv:
        n = max(200, int(base_lines * scale))
        return ExecEnv(files={"in.txt": text_corpus(n, seed=seed)})

    return make


def _noaa(seed: int, scale: float) -> ExecEnv:
    # the size rule of repro.workloads.noaa.make_env
    return noaa_env(noaa.YEARS, files_per_year=max(2, int(16 * scale)),
                    records_per_file=max(200, int(8000 * scale)), seed=seed)


def _two_years(script: str) -> str:
    loop = "{2015..2019}"
    if loop not in script:
        raise ValueError("NOAA script no longer loops over {2015..2019}")
    return script.replace(loop, "{2015..2016}")


WORKLOADS: Dict[str, BenchWorkload] = {w.name: w for w in (
    BenchWorkload(
        "sort-transport", ONELINERS["sort"].script, 0.03, 0,
        _corpus(3_000_000), ONELINERS["sort"].make_env,
        "sort on 90k lines: driver-side ingest and egress of every line"
        " dominate; the map stage is small"),
    BenchWorkload(
        "nfa-map", ONELINERS["nfa-regex"].script, 0.05, 0,
        _corpus(600_000), ONELINERS["nfa-regex"].make_env,
        "nfa-regex on 30k lines: CPU-bound map stage, no aggregator or"
        " split, nothing egressed; Spark beats sequential"),
    BenchWorkload(
        "noaa-regions", _two_years(noaa.FULL), 0.5, 3,
        _noaa, noaa.make_env,
        "NOAA Fig. 2 over two years: two regions, 24 small Spark jobs,"
        " aggregators, re-splits, driver-side sinks and env-carrying closures"),
)}
