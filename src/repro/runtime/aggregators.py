"""Aggregator library (§5 "Aggregator Implementations").

Each aggregator combines the ordered outputs of n map invocations of a ⓟ
command into what the sequential command would have produced on the
concatenated input: ``agg(m(x1), ..., m(xn)) == f(x1 · ... · xn)`` — the
§3.2 invariant, property-tested in ``tests/test_aggregators.py``.

Signature: ``agg(parts, spec) -> lines`` where ``parts`` are the map
outputs in stream order and ``spec`` is the original command's
:class:`~repro.annotations.model.Resolved` (aggregators need the flags:
sort's comparator, head's count, wc's selected columns...).

The paper's highlights all appear here: sort's merge (``sort -m``), uniq
and ``uniq -c``'s boundary repair, tac's reverse-order stream consumption,
and wc's column addition for arbitrary flag combinations.
"""
from __future__ import annotations

import re
from typing import Callable, Dict, List

from repro.annotations.model import Resolved
from repro.commands.custom import ngrams_agg
from repro.commands.sortcmds import make_sort_key, merge_sorted


def _agg_sort_m(parts: List[List[str]], spec: Resolved) -> List[str]:
    key = make_sort_key(spec.opts)
    rev = bool(spec.opts.get("r"))
    # stable sort of concatenated sorted runs == their k-way merge, and
    # Timsort's run detection makes it near-linear at C speed — matching
    # `sort -m`'s "cheap merge" cost profile (§6.5)
    flat = [l for part in parts for l in part]
    if spec.opts.get("u"):
        # match sort -u: no last-resort compare; stable keeps the earliest
        merged = sorted(flat, key=lambda l: key(l)[:-1], reverse=rev)
        out: List[str] = []
        prev: object = object()
        for l in merged:
            k = key(l)[:-1]
            if k != prev:
                out.append(l)
                prev = k
        return out
    if not spec.opts.get("n") and not spec.opts.get("k"):
        return sorted(flat, reverse=rev)
    if spec.opts.get("n") and not spec.opts.get("k"):
        # vectorized numeric merge — the paper's point that PaSh ships a
        # library of *highly-optimized* aggregators (§5): the merge stage
        # need not pay the command's per-line key cost
        import numpy as np
        import pandas as pd

        s = pd.Series(flat, dtype="object")
        tok = s.str.extract(r"^[ \t]*(-?\d*\.?\d*)", expand=False)
        nums = pd.to_numeric(
            tok.replace({"": None, "-": None, ".": None, "-.": None}),
            errors="coerce",
        ).fillna(0.0).to_numpy()
        order = np.lexsort((np.asarray(flat, dtype=object), nums))
        if rev:
            order = order[::-1]
        arr = np.asarray(flat, dtype=object)
        return arr[order].tolist()
    return sorted(flat, key=key, reverse=rev)


def _agg_uniq(parts: List[List[str]], spec: Resolved) -> List[str]:
    fold = bool(spec.opts.get("i"))
    out: List[str] = []
    for part in parts:
        for l in part:
            if out and ((out[-1].lower() == l.lower()) if fold else out[-1] == l):
                continue  # duplicate across a chunk boundary
            out.append(l)
    return out


_UNIQ_C = re.compile(r"^\s*(\d+) (.*)$", re.S)


def _agg_uniq_c(parts: List[List[str]], spec: Resolved) -> List[str]:
    groups: List[List[object]] = []  # [text, count]
    for part in parts:
        for l in part:
            m = _UNIQ_C.match(l)
            if not m:
                raise ValueError(f"uniq -c aggregator: bad line {l!r}")
            n, text = int(m.group(1)), m.group(2)
            if groups and groups[-1][0] == text:
                groups[-1][1] += n  # type: ignore[operator]
            else:
                groups.append([text, n])
    return [f"{n:7d} {text}" for text, n in groups]


def _agg_wc(parts: List[List[str]], spec: Resolved) -> List[str]:
    # an empty part is an empty chunk the map never saw (a Spark chunk with
    # no lines has no rows to run it on): it counts zero
    cols = sum(1 for f in "lwcm" if spec.opts.get(f)) or 3
    sums = [0] * cols
    for part in parts:
        if len(part) > 1:
            raise ValueError("wc aggregator: expected one line per map")
        if part:  # the counts, then the file operand's name if any
            sums = [a + int(tok) for a, tok in zip(sums, part[0].split()[:cols])]
    body = str(sums[0]) if cols == 1 else " ".join(f"{c:7d}" for c in sums)
    names = [op for op in spec.operands if op != "-"]
    return [f"{body} {names[0]}" if names else body]


def _agg_sum(parts: List[List[str]], spec: Resolved) -> List[str]:
    return [str(sum(int(p[0]) for p in parts if p))]


def _agg_head(parts: List[List[str]], spec: Resolved) -> List[str]:
    n = int(str(spec.opts.get("n", "10")))
    out: List[str] = []
    for part in parts:
        for l in part:
            if len(out) >= n:
                return out
            out.append(l)
    return out


def _agg_tail(parts: List[List[str]], spec: Resolved) -> List[str]:
    n = int(str(spec.opts.get("n", "10")))
    flat = [l for part in parts for l in part]
    return flat[-n:] if n > 0 else []


def _agg_tac(parts: List[List[str]], spec: Resolved) -> List[str]:
    """tac's aggregator "consumes stream descriptors in reverse order" —
    each map output is already reversed, so concatenate right-to-left."""
    out: List[str] = []
    for part in reversed(parts):
        out.extend(part)
    return out


def _agg_cat_n(parts: List[List[str]], spec: Resolved) -> List[str]:
    flat = [l for part in parts for l in part]
    return [f"{i + 1:6d}\t{l}" for i, l in enumerate(flat)]


def _agg_nl(parts: List[List[str]], spec: Resolved) -> List[str]:
    out: List[str] = []
    n = 0
    for part in parts:
        for l in part:
            if l:
                n += 1
                out.append(f"{n:6d}\t{l}")
            else:
                out.append(" " * 7 + l)
    return out


def _agg_ngrams2(parts: List[List[str]], spec: Resolved) -> List[str]:
    return ngrams_agg(parts, 2)


def _agg_ngrams3(parts: List[List[str]], spec: Resolved) -> List[str]:
    return ngrams_agg(parts, 3)


AGGREGATORS: Dict[str, Callable[[List[List[str]], Resolved], List[str]]] = {
    "sort_m": _agg_sort_m,
    "uniq": _agg_uniq,
    "uniq_c": _agg_uniq_c,
    "wc": _agg_wc,
    "sum": _agg_sum,
    "head": _agg_head,
    "tail": _agg_tail,
    "tac": _agg_tac,
    "cat_n": _agg_cat_n,
    "nl": _agg_nl,
    "ngrams2": _agg_ngrams2,
    "ngrams3": _agg_ngrams3,
}


def aggregate(name: str, parts: List[List[str]], spec: Resolved) -> List[str]:
    return AGGREGATORS[name](parts, spec)
