"""PaSh runtime component (§5): the aggregator library, split semantics,
and the Spark realization of streams."""
from typing import List

from .aggregators import AGGREGATORS, aggregate


def split_chunks(lines: List[str], width: int) -> List[List[str]]:
    """PaSh's split: count the input, then cut it into ``width`` contiguous
    chunks whose sizes differ by at most one. Spark ingest cuts here, after
    clamping ``width`` to the line count, so an ingested stream has no
    empty chunk unless it has no lines."""
    n = len(lines)
    return [lines[i * n // width : (i + 1) * n // width] for i in range(width)]


__all__ = ["AGGREGATORS", "aggregate", "split_chunks"]
