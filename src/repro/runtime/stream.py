"""Spark realization of PaSh streams.

A Unix stream (ordered lines) is a DataFrame with columns ``p`` (contiguous
chunk id — the DFG edge's position in its parallel bundle), ``s``
(contiguous 0-based sequence number within ``p``) and ``line``. Total
stream order is lexicographic ``(p, s)``.

**Ingest** (driver-resident lines: graph-input files, width-sink outputs)
cuts the lines at :func:`~repro.runtime.split_chunks` boundaries and sends
each chunk as its own broadcast variable. The stream's DataFrame is then
just the chunk ids, ``spark.range(width)`` in ``width`` partitions, and the
first ``mapInPandas`` stage fuses the load with the pending chain: task
``k`` reads chunk ``k`` and runs the chain on it. Python workers unpickle a
broadcast lazily from its file, so each task loads only its own chunk — one
job and one stage, no shuffle, and no session conf is touched.

Mapping of PaSh runtime primitives (§5) onto Spark:

* map stage  -> fused ``mapInPandas`` over chunk-aligned partitions running
  the black-box command chain per chunk (the n replicated nodes of
  transformation T; consecutive per-chunk stages fuse into one Spark stage
  — exactly PaSh's process-chain-per-width-lane execution),
* aggregate  -> a *deferred* width-1 stage (PaSh's aggregator process).
  When a split follows (the P-after-P pattern of §6.1's sort-sort), the
  aggregate and the re-chunking run in one single-partition task — PaSh
  pipes its aggregator straight into split, so fusing them mirrors the
  process structure while saving a full pass;
* ``split``  -> re-chunking into ``width`` contiguous pieces (count, then
  disperse, like PaSh's split),
* ``cat``    -> union with bundle-offset on ``p`` (order-preserving).

**Alignment.** A stream is *aligned* when every chunk ``p`` lives entirely
in one DataFrame partition. Ingested streams are aligned by construction
and run map chains with no shuffle; split output pays one
``repartitionByRange(p)`` — range, not hash: hash partitioning collides
chunks onto one core while others idle.

**Resources.** A stream lists in ``owned`` the broadcasts and persisted
DataFrames its plan reads (made by ingest and ``split``). The
caller that built the streams frees exactly those with
:meth:`SparkStream.release` once their outputs are collected; the
session's cache is otherwise left alone.

**Spark trap encoded here:** ``coalesce(1)`` would collapse upstream maps
into the single task (use ``repartition(1)``).
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


def _agg_stage(agg: AggFn, pre_parts: int, post: List[ChunkFn], width: int):
    """mapInPandas fn for the fused aggregate(+post chain)(+re-chunk) stage
    — one single-partition task, like PaSh's aggregator process."""

    def apply(batches):
        pdf = _gather(batches)
        if pdf is None:
            parts: List[List[str]] = [[] for _ in range(pre_parts)]
        else:
            order = np.lexsort((pdf["s"].to_numpy(), pdf["p"].to_numpy()))
            pdf = pdf.iloc[order]
            lines_all = pdf["line"].tolist()
            ps = pdf["p"].to_numpy()
            bounds = np.searchsorted(ps, range(pre_parts + 1))
            parts = [lines_all[bounds[k]: bounds[k + 1]] for k in range(pre_parts)]
        lines = agg(parts)
        for f in post:
            lines = f(lines)
        for k, chunk in enumerate(split_chunks(lines, width)):
            yield _chunk_pdf(k, chunk)

    return apply


def _rechunk(width: int):
    def apply(batches):
        pdf = _gather(batches)
        if pdf is None:
            return
        order = np.lexsort((pdf["s"].to_numpy(), pdf["p"].to_numpy()))
        lines = pdf["line"].to_numpy()[order]
        for k, chunk in enumerate(split_chunks(lines, width)):
            yield _chunk_pdf(k, list(chunk))

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
    chunks, with a lazily-fused plan: pre-aggregate chunk functions, an
    optional deferred aggregator, and post-aggregate chunk functions."""

    df: DataFrame
    n_parts: int  # post-aggregate view: 1 when agg is set
    pending: List[ChunkFn] = dataclasses.field(default_factory=list)
    aligned: bool = False
    agg: Optional[Tuple[AggFn, int]] = None  # (agg_fn, pre_agg_n_parts)
    post: List[ChunkFn] = dataclasses.field(default_factory=list)
    # ingest broadcasts, one per chunk; ``df`` then holds only the chunk ids
    source: Optional[List[Broadcast]] = None
    owned: Tuple[object, ...] = ()  # broadcasts and persisted DataFrames

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_lines(spark: SparkSession, lines: List[str], width: int = 1) -> "SparkStream":
        """Distribute ``lines`` pre-chunked into ``width`` contiguous chunks
        (static file chunking — no runtime split needed for file inputs),
        one broadcast per chunk."""
        lines = list(lines)
        if not lines:
            return SparkStream(spark.createDataFrame([], schema=SCHEMA), 1,
                               aligned=True)
        width = max(1, min(width, len(lines)))
        bcs = [spark.sparkContext.broadcast(chunk)
               for chunk in split_chunks(lines, width)]
        df = spark.range(0, width, 1, width).toDF("p")
        return SparkStream(df, width, aligned=True, source=bcs, owned=tuple(bcs))

    @staticmethod
    def release(streams: Iterable["SparkStream"]) -> None:
        """Free what ``streams`` own, each object once: destroy the ingest
        broadcasts, unpersist the DataFrames ``split`` persisted."""
        owned = {id(r): r for st in streams for r in st.owned}
        for r in owned.values():
            if isinstance(r, DataFrame):
                r.unpersist()
            else:
                r.destroy()

    # -- internal plan materialization ----------------------------------------
    def _pre_df(self) -> DataFrame:
        """The wide (pre-aggregate) stage as a DataFrame; for an ingested
        stream, the load fused with the pending chain."""
        if not self.pending and self.source is None:
            return self.df
        pre_parts = self.agg[1] if self.agg else self.n_parts
        df = self.df if self.aligned else \
            self.df.repartitionByRange(max(pre_parts, 1), "p")
        return df.mapInPandas(_apply_chain(list(self.pending), self.source), SCHEMA)

    def _materialized(self, rechunk_width: int = 1) -> DataFrame:
        """Materialize the whole plan. With a deferred aggregate, the
        aggregator (+post chain +re-chunk) runs as one single-partition
        task behind a stage boundary so the maps keep their width."""
        if self.agg is not None:
            agg_fn, pre_parts = self.agg
            return self._pre_df().repartition(1).mapInPandas(
                _agg_stage(agg_fn, pre_parts, list(self.post), rechunk_width),
                SCHEMA)
        assert not self.post
        return self._pre_df()

    def _mat_stream(self) -> "SparkStream":
        if not self.pending and self.agg is None and self.source is None:
            return self
        return SparkStream(self._materialized(), self.n_parts, aligned=True,
                           owned=self.owned)

    # -- structural ops --------------------------------------------------------
    @staticmethod
    def cat(streams: List["SparkStream"]) -> "SparkStream":
        """Ordered concatenation: shift each stream's chunk ids by the
        total number of chunks before it (union preserves alignment)."""
        assert streams
        df = None
        off = 0
        aligned = True
        owned: Tuple[object, ...] = ()
        for st in streams:
            m = st._mat_stream()
            aligned = aligned and m.aligned
            owned += m.owned
            part = m.df.select((F.col("p") + F.lit(off)).alias("p"), "s", "line")
            df = part if df is None else df.unionAll(part)
            off += st.n_parts
        return SparkStream(df, off, aligned=aligned, owned=owned)

    def split(self, width: int) -> "SparkStream":
        """Re-chunk into ``width`` contiguous pieces (PaSh split). Fused
        with a deferred aggregate when one is pending — PaSh's agg | split
        process pair in a single task."""
        if self.agg is not None or self.n_parts == 1:
            df = self._materialized(rechunk_width=width) if self.agg is not None \
                else self._pre_df().repartition(1).mapInPandas(_rechunk(width), SCHEMA)
            # persist: the consumer's range partitioner samples first, which
            # would otherwise recompute this single-task stage
            df = df.persist()
            return SparkStream(df, width, aligned=False, owned=self.owned + (df,))
        mdf = self._materialized().persist()
        owned = self.owned + (mdf,)
        try:
            counts = {r["p"]: r["count"] for r in mdf.groupBy("p").count().collect()}
        except BaseException:
            mdf.unpersist()
            raise
        total = sum(counts.values())
        if total == 0:
            return SparkStream(mdf.select(F.lit(0).alias("p"), "s", "line"), 1,
                               owned=owned)
        offs: List[int] = []
        acc = 0
        for p in range(self.n_parts):
            offs.append(acc)
            acc += counts.get(p, 0)
        off_expr = F.element_at(
            F.create_map(*[F.lit(x) for pair in enumerate(offs) for x in pair]),
            F.col("p").cast("int"),
        )
        # chunk k = {g : floor(g*width/total) == k}, starting at
        # ceil(k*total/width) — start map must use the same boundaries
        bounds = [(k * total + width - 1) // width for k in range(width)]
        start_expr = F.element_at(
            F.create_map(*[F.lit(x) for pair in enumerate(bounds) for x in pair]),
            F.col("np").cast("int"),
        )
        df = (
            mdf.withColumn("g", off_expr + F.col("s"))
            .withColumn("np", F.floor(F.col("g") * width / total).cast("long"))
            .withColumn("np", F.least(F.col("np"), F.lit(width - 1)))
            .select(F.col("np").alias("p"), (F.col("g") - start_expr).alias("s"),
                    "line")
        )
        return SparkStream(df, width, aligned=False, owned=owned)

    # -- compute ops -----------------------------------------------------------
    def per_chunk(self, fn: ChunkFn) -> "SparkStream":
        """Run the black-box ``fn`` independently on every chunk — the n
        replicated nodes of transformation T. Lazy and fused."""
        if self.agg is not None:
            return dataclasses.replace(self, post=self.post + [fn])
        return dataclasses.replace(self, pending=self.pending + [fn])

    def aggregate(self, fn: AggFn) -> "SparkStream":
        """Collapse all chunks, in order, through an aggregator — PaSh's
        width-1 aggregate stage. Deferred: fuses with a following split or
        runs driver-side at a sink."""
        base = self._mat_stream() if self.agg is not None else self
        return dataclasses.replace(base, n_parts=1, agg=(fn, base.n_parts), post=[])

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
            # run the deferred aggregator on the driver: one transfer of the
            # map outputs instead of an executor round-trip
            agg_fn, pre_parts = self.agg
            wide = dataclasses.replace(self, n_parts=pre_parts, agg=None, post=[])
            lines = agg_fn(wide.collect_parts())
            for f in self.post:
                lines = f(lines)
            return lines
        return _ordered_pandas(self._materialized())["line"].tolist()

    def count(self) -> int:
        return len(self.collect_lines()) if self.agg is not None \
            else self._materialized().count()
