"""Spark realization of PaSh streams.

A Unix stream (ordered lines) is a DataFrame with columns ``p`` (contiguous
chunk id — the DFG edge's position in its parallel bundle), ``s``
(contiguous 0-based sequence number within ``p``) and ``line``. Total
stream order is lexicographic ``(p, s)``.

**Ingest** (driver-resident lines: graph-input files, width-sink outputs,
re-split streams) cuts the lines at :func:`~repro.runtime.split_chunks`
boundaries and sends each chunk as its own broadcast variable. The stream's
DataFrame is then just the chunk ids, ``spark.range(width)`` in ``width``
partitions, and the first ``mapInPandas`` stage fuses the load with the
pending chain: task ``k`` reads chunk ``k`` and runs the chain on it.
Python workers unpickle a broadcast lazily from its file, so each task
loads only its own chunk — one job and one stage, no shuffle, and no
session conf is touched.

Mapping of PaSh runtime primitives (§5) onto Spark:

* map stage  -> fused ``mapInPandas`` over chunk-aligned partitions running
  the black-box command chain per chunk (the n replicated nodes of
  transformation T; consecutive per-chunk stages fuse into one Spark stage
  — exactly PaSh's process-chain-per-width-lane execution),
* aggregate  -> a *deferred* width-1 step (PaSh's aggregator process). It
  runs on the driver over the collected map outputs, in chunk order,
  wherever its output is needed: at a sink, or before a ``split`` or a
  ``cat`` re-ingests that output,
* ``split``  -> collect on the driver and ingest again into ``width``
  chunks — PaSh's split counts its input, then disperses it,
* ``cat``    -> union with bundle-offset on ``p`` (order-preserving); a
  stream with a pending aggregate joins it as one re-ingested chunk.

Every stream is *aligned*: chunk ``p`` lives entirely in one DataFrame
partition, since ingest puts chunk ``k`` in partition ``k`` and both
``mapInPandas`` and ``unionAll`` keep partitions whole. So every Spark job
is one map stage over ingested chunks, with no shuffle.

**Resources.** A stream lists in ``owned`` the ingest broadcasts its plan
reads, including those its upstream read. The caller that built the
streams frees exactly those with :meth:`SparkStream.release` once their
outputs are collected; the session's cache is left alone.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.runtime import split_chunks

SCHEMA = "p long, s long, line string"

ChunkFn = Callable[[List[str]], List[str]]
AggFn = Callable[[List[List[str]]], List[str]]


def _chunk_pdf(p: int, lines: List[str]) -> pd.DataFrame:
    return pd.DataFrame(
        {"p": pd.Series([p] * len(lines), dtype="int64"),
         "s": pd.Series(range(len(lines)), dtype="int64"),
         "line": pd.Series(lines, dtype="object")}
    )


def _gather(batches) -> Optional[pd.DataFrame]:
    frames = [b for b in batches if len(b)]
    if not frames:
        return None
    return pd.concat(frames, ignore_index=True) if len(frames) > 1 else frames[0]


def _apply_chain(fns: List[ChunkFn], source: Optional[List[Broadcast]] = None):
    """mapInPandas fn: run the fused chunk-function chain on every chunk
    present in this partition — grouped by ``p``, or, for an ingested
    stream (``source``), read from chunk ``p``'s broadcast."""

    def apply(batches):
        pdf = _gather(batches)
        if pdf is None:
            return
        if source is not None:
            # a copy: the worker caches the value for later tasks
            chunks = ((p, list(source[p].value)) for p in sorted(pdf["p"].tolist()))
        else:
            chunks = ((int(p), sub.sort_values("s")["line"].tolist())
                      for p, sub in pdf.groupby("p", sort=True))
        for p, lines in chunks:
            for f in fns:
                lines = f(lines)
            yield _chunk_pdf(p, lines)

    return apply


def _ordered_pandas(df: DataFrame) -> pd.DataFrame:
    pdf = df.toPandas()
    if len(pdf) == 0:
        return pdf
    order = np.lexsort((pdf["s"].to_numpy(), pdf["p"].to_numpy()))
    return pdf.iloc[order]


@dataclasses.dataclass(eq=False)
class SparkStream:
    """An ordered line stream distributed over ``n_parts`` contiguous
    chunks, with a lazily-fused plan: chunk functions and an optional
    deferred aggregator after them."""

    df: DataFrame
    n_parts: int  # 1 when agg is set
    pending: List[ChunkFn] = dataclasses.field(default_factory=list)
    agg: Optional[Tuple[AggFn, int]] = None  # (agg_fn, pre_agg_n_parts)
    # ingest broadcasts, one per chunk; ``df`` then holds only the chunk ids
    source: Optional[List[Broadcast]] = None
    owned: Tuple[Broadcast, ...] = ()

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_lines(spark: SparkSession, lines: List[str], width: int = 1) -> "SparkStream":
        """Distribute ``lines`` pre-chunked into ``width`` contiguous chunks
        (static file chunking — no runtime split needed for file inputs),
        one broadcast per chunk."""
        lines = list(lines)
        if not lines:
            return SparkStream(spark.createDataFrame([], schema=SCHEMA), 1)
        width = max(1, min(width, len(lines)))
        bcs = [spark.sparkContext.broadcast(chunk)
               for chunk in split_chunks(lines, width)]
        df = spark.range(0, width, 1, width).toDF("p")
        return SparkStream(df, width, source=bcs, owned=tuple(bcs))

    @staticmethod
    def release(streams: Iterable["SparkStream"]) -> None:
        """Destroy the ingest broadcasts ``streams`` own, each once."""
        owned = {id(bc): bc for st in streams for bc in st.owned}
        for bc in owned.values():
            bc.destroy()

    # -- internal plan materialization ----------------------------------------
    def _pre_df(self) -> DataFrame:
        """The wide (pre-aggregate) stage as a DataFrame; for an ingested
        stream, the load fused with the pending chain."""
        if not self.pending and self.source is None:
            return self.df
        return self.df.mapInPandas(_apply_chain(list(self.pending), self.source), SCHEMA)

    def _mat_stream(self) -> "SparkStream":
        """This stream with no deferred aggregate: a pending one runs on
        the driver and its output is ingested again as one chunk."""
        return self if self.agg is None else self.split(1)

    # -- structural ops --------------------------------------------------------
    @staticmethod
    def cat(streams: List["SparkStream"]) -> "SparkStream":
        """Ordered concatenation: shift each stream's chunk ids by the
        total number of chunks before it (union keeps chunks whole)."""
        assert streams
        df = None
        off = 0
        owned: Tuple[Broadcast, ...] = ()
        for st in streams:
            m = st._mat_stream()
            owned += m.owned
            part = m._pre_df().select((F.col("p") + F.lit(off)).alias("p"), "s", "line")
            df = part if df is None else df.unionAll(part)
            off += m.n_parts
        return SparkStream(df, off, owned=owned)

    def split(self, width: int) -> "SparkStream":
        """Re-chunk into ``width`` contiguous pieces (PaSh split): collect
        on the driver, running a deferred aggregator there, and ingest the
        lines again. Like ingest, fewer lines than ``width`` make one chunk
        per line, and no lines one empty chunk."""
        st = SparkStream.from_lines(self.df.sparkSession, self.collect_lines(), width)
        return dataclasses.replace(st, owned=self.owned + st.owned)

    # -- compute ops -----------------------------------------------------------
    def per_chunk(self, fn: ChunkFn) -> "SparkStream":
        """Run the black-box ``fn`` independently on every chunk — the n
        replicated nodes of transformation T. Lazy and fused."""
        base = self._mat_stream()
        return dataclasses.replace(base, pending=base.pending + [fn])

    def aggregate(self, fn: AggFn) -> "SparkStream":
        """Collapse all chunks, in order, through an aggregator — PaSh's
        width-1 aggregate stage. Deferred until its output is collected."""
        base = self._mat_stream()
        return dataclasses.replace(base, n_parts=1, agg=(fn, base.n_parts))

    def collect_parts(self) -> List[List[str]]:
        """Collect the ordered chunks — the aggregator's input streams."""
        if self.agg is not None:
            return [self.collect_lines()]
        pdf = _ordered_pandas(self._pre_df())
        if len(pdf) == 0:
            return [[] for _ in range(self.n_parts)]
        lines = pdf["line"].tolist()
        ps = pdf["p"].to_numpy()
        bounds = np.searchsorted(ps, range(self.n_parts + 1))
        return [lines[bounds[p]: bounds[p + 1]] for p in range(self.n_parts)]

    # -- sinks -----------------------------------------------------------------
    def collect_lines(self) -> List[str]:
        if self.agg is not None:
            agg_fn, pre_parts = self.agg
            return agg_fn(dataclasses.replace(self, n_parts=pre_parts, agg=None)
                          .collect_parts())
        return _ordered_pandas(self._pre_df())["line"].tolist()

    def count(self) -> int:
        return len(self.collect_lines())
