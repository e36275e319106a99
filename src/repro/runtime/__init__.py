"""PaSh runtime component (§5): the aggregator library, split semantics,
and the Spark realization of streams."""
from typing import List

from .aggregators import AGGREGATORS, aggregate


def split_chunks(lines: List[str], width: int) -> List[List[str]]:
    """PaSh's split: count the input, then cut into contiguous equal chunks."""
    n = len(lines)
    return [lines[i * n // width : (i + 1) * n // width] for i in range(width)]


__all__ = ["AGGREGATORS", "aggregate", "split_chunks"]
