"""Spark realization of PaSh streams.

A Unix stream (ordered lines) is a DataFrame with columns ``p`` (contiguous
chunk id — the DFG edge's position in its parallel bundle), ``s``
(contiguous 0-based sequence number within ``p``) and ``line``. Total
stream order is lexicographic ``(p, s)``. Every chunk also has one header
row (``s = -1``, no line), so a chunk with no lines still exists and still
runs its map chain — ``wc -l`` or ``grep -c`` print ``0`` for it, as the
replicated command would.

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
* ``split``  -> re-chunking into ``width`` contiguous pieces in one task
  (count, then disperse, like PaSh's split process),
* ``cat``    -> union with bundle-offset on ``p`` (order-preserving).

There is no ``eager``: Spark's scheduler has no pipe laziness (those
pathologies are studied in :mod:`repro.pipesim`).

**Alignment.** A stream is *aligned* when every chunk ``p`` lives entirely
in one DataFrame partition. Aligned streams run map chains with no shuffle;
split output pays one ``repartitionByRange(p)`` — range, not hash: hash
partitioning collides chunks onto one core while others idle.

**Spark traps encoded here:** ``coalesce(1)`` would collapse upstream maps
into the single task (use ``repartition(1)``); ``Union(coalesce(1), ...)``
is collapsed by Catalyst (ingest uses one range shuffle instead).

**Per-task cost.** Before every task, Spark's Python worker calls
``importlib.invalidate_caches()``. Under CPython < 3.12 that makes each
``zipimporter`` re-read its whole archive directory, and the worker's path
holds three archives (``pyspark.zip``, the py4j zip, the spark-core jar):
about 0.2 s per task, more than a 5k-line ``tr | sort`` chunk costs. Both
``mapInPandas`` functions therefore start with :func:`_keep_zip_directories`,
which makes the re-read a no-op for the rest of that worker's life. The
archives do not change while a worker lives; directory finders are still
invalidated, and a zip newly put on the path (``addPyFile``) gets a new
importer that reads it.

**Caching and session state.** ``from_lines`` and ``split`` persist one
DataFrame each; :meth:`SparkStream.unpersist` releases it, and whoever
builds the stream calls it once the stream's results are collected. No
session setting outlives a call.
"""
from __future__ import annotations

import zipimport
from typing import Callable, List, Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

SCHEMA = "p long, s long, line string"
# ingest sends up to 250k lines per Arrow batch (Spark's default is 10k)
_INGEST_BATCH_KEY = "spark.sql.execution.arrow.maxRecordsPerBatch"

ChunkFn = Callable[[List[str]], List[str]]
AggFn = Callable[[List[List[str]]], List[str]]


def _chunk_pdf(p: int, lines: List[str]) -> pd.DataFrame:
    """The rows of chunk ``p``: its header row, then its lines."""
    return pd.DataFrame(
        {"p": pd.Series([p] * (len(lines) + 1), dtype="int64"),
         "s": pd.Series(range(-1, len(lines)), dtype="int64"),
         "line": pd.Series([None, *lines], dtype="object")}
    )


def _gather(batches) -> Optional[pd.DataFrame]:
    frames = [b for b in batches if len(b)]
    if not frames:
        return None
    return pd.concat(frames, ignore_index=True) if len(frames) > 1 else frames[0]


def _parts(pdf: Optional[pd.DataFrame], n_parts: int) -> List[List[str]]:
    """The ordered lines of chunks ``0 .. n_parts-1`` of ``pdf``."""
    if pdf is None or len(pdf) == 0:
        return [[] for _ in range(n_parts)]
    pdf = pdf[pdf["s"].to_numpy() >= 0]
    order = np.lexsort((pdf["s"].to_numpy(), pdf["p"].to_numpy()))
    lines = pdf["line"].to_numpy()[order].tolist()
    bounds = np.searchsorted(pdf["p"].to_numpy()[order], range(n_parts + 1))
    return [lines[bounds[k]: bounds[k + 1]] for k in range(n_parts)]


def _concat(parts: List[List[str]]) -> List[str]:
    return [line for part in parts for line in part]


def _archive_unchanged(self) -> None:
    """``zipimporter.invalidate_caches`` for archives that never change."""


def _keep_zip_directories() -> None:
    """Stop ``importlib.invalidate_caches()`` from re-reading every zip on
    ``sys.path`` in this (worker) process; see the module docstring."""
    zipimport.zipimporter.invalidate_caches = _archive_unchanged


def _apply_chain(fns: List[ChunkFn]):
    """mapInPandas fn: run the fused chunk-function chain on every chunk
    (grouped by ``p``) in this partition, empty chunks included."""

    def apply(batches):
        _keep_zip_directories()
        pdf = _gather(batches)
        if pdf is None:
            return
        for p, sub in pdf.groupby("p", sort=True):
            lines = sub.sort_values("s")["line"].tolist()[1:]  # drop the header
            for f in fns:
                lines = f(lines)
            yield _chunk_pdf(int(p), lines)

    return apply


def _agg_stage(agg: AggFn, pre_parts: int, post: List[ChunkFn], width: int):
    """mapInPandas fn for the fused aggregate(+post chain)(+re-chunk) stage
    — one single-partition task, like PaSh's aggregator process."""

    def apply(batches):
        _keep_zip_directories()
        lines = agg(_parts(_gather(batches), pre_parts))
        for f in post:
            lines = f(lines)
        n = len(lines)
        for k in range(width):
            lo, hi = k * n // width, (k + 1) * n // width
            yield _chunk_pdf(k, lines[lo:hi])

    return apply


class SparkStream:
    """An ordered line stream distributed over ``n_parts`` contiguous
    chunks, with a lazily-fused plan: pre-aggregate chunk functions, an
    optional deferred aggregator, and post-aggregate chunk functions."""

    def __init__(self, df: DataFrame, n_parts: int,
                 pending: Optional[List[ChunkFn]] = None,
                 aligned: bool = False,
                 agg: Optional[Tuple[AggFn, int]] = None,
                 post: Optional[List[ChunkFn]] = None,
                 persisted: Optional[DataFrame] = None):
        self.df = df
        self.n_parts = n_parts  # post-aggregate view: 1 when agg is set
        self.pending = pending or []
        self.aligned = aligned
        self.agg = agg  # (agg_fn, pre_agg_n_parts)
        self.post = post or []
        self.persisted = persisted  # the DataFrame this stream cached, if any

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_lines(spark: SparkSession, lines: List[str], width: int = 1) -> "SparkStream":
        """Distribute ``lines`` pre-chunked into ``width`` contiguous chunks
        (static file chunking — no runtime split needed for file inputs).
        Chunk ``k`` holds ``lines[k*n//width : (k+1)*n//width]``, so with
        fewer lines than chunks some chunks are empty."""
        n = len(lines)
        pdf = pd.concat([
            _chunk_pdf(k, lines[k * n // width : (k + 1) * n // width])
            for k in range(width)
        ], ignore_index=True)
        # exact-width range partitioning gives one whole chunk per task
        # (hash collides chunks onto one core; surplus hash buckets drown
        # in empty-task overhead). The persist matters: the range
        # partitioner's sampling job would otherwise re-run the driver-side
        # Arrow conversion once more per action.
        # createDataFrame reads the batch size eagerly: restore it right after
        prev = spark.conf.get(_INGEST_BATCH_KEY, None)
        spark.conf.set(_INGEST_BATCH_KEY, "250000")
        try:
            base = spark.createDataFrame(pdf, schema=SCHEMA).persist()
        finally:
            if prev is None:
                spark.conf.unset(_INGEST_BATCH_KEY)
            else:
                spark.conf.set(_INGEST_BATCH_KEY, prev)
        df = base.repartitionByRange(width, "p")
        return SparkStream(df, width, aligned=True, persisted=base)

    # -- internal plan materialization ----------------------------------------
    def _pre_df(self) -> DataFrame:
        """The wide (pre-aggregate) stage as a DataFrame."""
        if not self.pending:
            return self.df
        pre_parts = self.agg[1] if self.agg else self.n_parts
        df = self.df if self.aligned else \
            self.df.repartitionByRange(max(pre_parts, 1), "p")
        return df.mapInPandas(_apply_chain(list(self.pending)), SCHEMA)

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
        if not self.pending and self.agg is None:
            return self
        return SparkStream(self._materialized(), self.n_parts, aligned=True)

    # -- structural ops --------------------------------------------------------
    @staticmethod
    def cat(streams: List["SparkStream"]) -> "SparkStream":
        """Ordered concatenation: shift each stream's chunk ids by the
        total number of chunks before it (union preserves alignment)."""
        assert streams
        df = None
        off = 0
        aligned = True
        for st in streams:
            m = st._mat_stream()
            aligned = aligned and m.aligned
            part = m.df.select((F.col("p") + F.lit(off)).alias("p"), "s", "line")
            df = part if df is None else df.unionAll(part)
            off += st.n_parts
        return SparkStream(df, off, aligned=aligned)

    def split(self, width: int) -> "SparkStream":
        """Re-chunk into ``width`` contiguous pieces in one single-partition
        task (PaSh's split counts, then disperses). Fused with a deferred
        aggregate when one is pending — PaSh's agg | split process pair."""
        st = self if self.agg is not None else self.aggregate(_concat)
        # persist: the consumer's range partitioner samples first, which
        # would otherwise recompute this single-task stage
        df = st._materialized(rechunk_width=width).persist()
        return SparkStream(df, width, persisted=df)

    def unpersist(self) -> None:
        """Release the DataFrame ``from_lines`` or ``split`` cached for this
        stream (and nothing else in the session)."""
        if self.persisted is not None:
            self.persisted.unpersist()

    # -- compute ops -----------------------------------------------------------
    def per_chunk(self, fn: ChunkFn) -> "SparkStream":
        """Run the black-box ``fn`` independently on every chunk — the n
        replicated nodes of transformation T. Lazy and fused."""
        if self.agg is not None:
            return SparkStream(self.df, self.n_parts, self.pending, self.aligned,
                               self.agg, self.post + [fn])
        return SparkStream(self.df, self.n_parts, self.pending + [fn], self.aligned)

    def aggregate(self, fn: AggFn) -> "SparkStream":
        """Collapse all chunks, in order, through an aggregator — PaSh's
        width-1 aggregate stage. Deferred: fuses with a following split or
        runs driver-side at a sink."""
        base = self._mat_stream() if self.agg is not None else self
        return SparkStream(base.df, 1, base.pending, base.aligned,
                           (fn, base.n_parts), [])

    def collect_parts(self) -> List[List[str]]:
        """Collect the ordered chunks — the aggregator's input streams."""
        if self.agg is not None:
            return [self.collect_lines()]
        return _parts(self._pre_df().toPandas(), self.n_parts)

    # -- sinks -----------------------------------------------------------------
    def collect_lines(self) -> List[str]:
        if self.agg is not None:
            # run the deferred aggregator on the driver: one transfer of the
            # map outputs instead of an executor round-trip
            agg_fn, pre_parts = self.agg
            wide = SparkStream(self.df, pre_parts, self.pending, self.aligned)
            lines = agg_fn(wide.collect_parts())
            for f in self.post:
                lines = f(lines)
            return lines
        return _concat(self.collect_parts())

    def count(self) -> int:
        return len(self.collect_lines())
