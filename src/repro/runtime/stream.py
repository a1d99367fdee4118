"""Spark realization of PaSh streams.

A Unix stream (ordered lines) is a PySpark RDD of chunk records
``(p, lines)``: ``p`` is the contiguous chunk id (the DFG edge's position
in its parallel bundle) and ``lines`` the chunk's lines, in order, as a
Python list. Total stream order is the lines of chunk 0, then of chunk 1,
and so on. A record is always a whole chunk, so no partitioning can split
one, and a chunk with no lines is an empty list that still runs its map
chain: ``wc -l`` or ``grep -c`` print ``0`` for it, as the replicated
command would. Records travel pickled, as PaSh's chunks travel as bytes in
a pipe; no query plan is built and no row format is converted.

Mapping of PaSh runtime primitives (§5) onto Spark:

* map stage  -> one ``mapPartitions`` running the black-box command chain
  on every chunk record (the n replicated nodes of transformation T;
  consecutive per-chunk stages fuse into one Python function, exactly
  PaSh's process-chain-per-width-lane execution),
* ``split``  -> PaSh's aggregator piped into its split, in one
  single-partition task: ``partitionBy(1)`` gathers the chunks behind a
  stage boundary (so the maps keep their width), the aggregator (plain
  concatenation by default) runs over them in chunk order and its output
  is re-chunked into ``width`` contiguous pieces (count, then disperse,
  like PaSh's split process), then ``partitionBy(width)`` places chunk
  ``k`` in partition ``k``. An aggregator with a range form
  (``aggregators.range_form``; only sort's ``rerun`` has one) runs
  instead in ``width`` tasks after one shuffle: each map task pickles its
  chunk once and sends the bytes to every range id, and task ``k``
  computes chunk ``k`` of the aggregator's output from all the chunks.
  The stream is the same and only its chunk sizes differ; the price is
  ``width`` times the shuffle volume of the single task,
* sink       -> ``collect_lines`` collects the chunk records and runs the
  aggregator on the driver (plain concatenation),
* ``cat``    -> ``union`` after a bundle offset on ``p`` (order-preserving).

**Placement.** Chunk ``k`` runs in partition ``k``. Ingest is one
``parallelize`` with one slice per chunk, so a width-``w`` stream is ``w``
tasks whatever ``defaultParallelism`` is, and the shuffles of a ``split``
(one or two) are the only exchanges. Order never comes from partition order:
the sink and the aggregator of a ``split`` place every record by ``p``.
Every action is one Spark job, however many shuffles it crosses.

**Per-task cost.** Before every task, Spark's Python worker calls
``importlib.invalidate_caches()``. Under CPython < 3.12 that makes each
``zipimporter`` re-read its whole archive directory, and the worker's path
holds three archives (``pyspark.zip``, the py4j zip, the spark-core jar):
about 0.2 s per task, more than a 5k-line ``tr | sort`` chunk costs. Every
task function therefore starts with :func:`_keep_zip_directories`, which
makes the re-read a no-op for the rest of that worker's life. The archives
do not change while a worker lives; directory finders are still
invalidated, and a zip newly put on the path (``addPyFile``) gets a new
importer that reads it.

**Limit.** PySpark frames pickled records with a 32-bit length and refuses
a frame larger than 2 GiB (``FramedSerializer``). A frame holds one chunk,
except that a ``split``'s tasks may group records after a frame under
64 KiB (``AutoBatchedSerializer``), so one chunk must pickle to under
2 GiB. A sink's records together must also stay under
``spark.driver.maxResultSize`` (1 GiB unless the session sets it).

**Session.** The stream needs the session's ``SparkContext``, so it runs
on a classic session, not a Spark Connect one.
"""
from __future__ import annotations

import pickle
import zipimport
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from pyspark import RDD
from pyspark.sql import SparkSession

from repro.dfg.graph import split_chunks
from repro.runtime.aggregators import RangeFn

ChunkFn = Callable[[List[str]], List[str]]
AggFn = Callable[[List[List[str]]], List[str]]
Chunk = Tuple[int, List[str]]


def _chunk_id(p: int) -> int:
    """Partition function: chunk ``p`` goes to partition ``p``."""
    return p


def _parts(chunks: Iterable[Chunk], n_parts: int) -> List[List[str]]:
    """The lines of chunks ``0 .. n_parts-1``, placed by chunk id."""
    parts: List[List[str]] = [[] for _ in range(n_parts)]
    for p, lines in chunks:
        parts[p] = lines
    return parts


def _concat(parts: List[List[str]]) -> List[str]:
    return [line for part in parts for line in part]


def _archive_unchanged(self) -> None:
    """``zipimporter.invalidate_caches`` for archives that never change."""


def _keep_zip_directories() -> None:
    """Stop ``importlib.invalidate_caches()`` from re-reading every zip on
    ``sys.path`` in this (worker) process; see the module docstring."""
    zipimport.zipimporter.invalidate_caches = _archive_unchanged


def _apply_chain(fns: List[ChunkFn], offset: int = 0):
    """mapPartitions fn: run the fused chunk-function chain on every chunk
    record of this partition, empty chunks included, and shift its id by
    ``offset``."""

    def apply(chunks: Iterable[Chunk]) -> Iterator[Chunk]:
        _keep_zip_directories()
        for p, lines in chunks:
            for f in fns:
                lines = f(lines)
            yield p + offset, lines

    return apply


def _to_every_range(width: int):
    """mapPartitions fn of a range ``split``'s map side: pickle each chunk
    once and key the same bytes by every range id."""

    def apply(chunks: Iterable[Chunk]) -> Iterator[Tuple[int, Tuple[int, bytes]]]:
        _keep_zip_directories()
        for p, lines in chunks:
            blob = pickle.dumps(lines, pickle.HIGHEST_PROTOCOL)
            for r in range(width):
                yield r, (p, blob)

    return apply


def _range_task(ranges: RangeFn, n_parts: int, width: int):
    """mapPartitionsWithIndex fn of a range ``split``: task ``r`` reads every
    chunk and computes chunk ``r`` of the aggregator's output, which it
    emits even when empty."""

    def apply(r: int, records: Iterable[Tuple[int, Tuple[int, bytes]]]) -> Iterator[Chunk]:
        _keep_zip_directories()
        chunks = ((p, pickle.loads(blob)) for _, (p, blob) in records)
        yield r, ranges(_parts(chunks, n_parts), r, width)

    return apply


def _agg_split(agg: AggFn, n_parts: int, width: int):
    """mapPartitions fn of a ``split``: the aggregator over all ``n_parts``
    chunks, re-chunked into ``width`` — one single-partition task, like
    PaSh's aggregator process piped into its split."""

    def apply(chunks: Iterable[Chunk]) -> Iterator[Chunk]:
        _keep_zip_directories()
        return enumerate(split_chunks(agg(_parts(chunks, n_parts)), width))

    return apply


class SparkStream:
    """An ordered line stream distributed over ``n_parts`` contiguous
    chunks, with the chunk functions still pending, which fuse into the
    stage that next reads it."""

    def __init__(self, rdd: RDD, n_parts: int,
                 pending: Optional[List[ChunkFn]] = None):
        self.rdd = rdd
        self.n_parts = n_parts
        self.pending = pending or []

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_lines(spark: SparkSession, lines: List[str], width: int = 1) -> "SparkStream":
        """Distribute ``lines`` pre-chunked into ``width`` contiguous chunks
        (static file chunking — no runtime split needed for file inputs),
        as ``split_chunks`` cuts them, chunk ``k`` in partition ``k``."""
        chunks = list(enumerate(split_chunks(lines, width)))
        return SparkStream(spark.sparkContext.parallelize(chunks, width), width)

    def _pre_rdd(self) -> RDD:
        """The chunk records with the pending chunk functions applied."""
        if not self.pending:
            return self.rdd
        return self.rdd.mapPartitions(_apply_chain(list(self.pending)),
                                      preservesPartitioning=True)

    # -- structural ops --------------------------------------------------------
    @staticmethod
    def cat(streams: List["SparkStream"]) -> "SparkStream":
        """Ordered concatenation: shift each stream's chunk ids by the
        total number of chunks before it."""
        assert streams
        rdds = []
        off = 0
        for st in streams:
            # a new p breaks any partitioner, so the union keeps every
            # partition of every input: chunk k still runs in partition k
            rdds.append(st.rdd.mapPartitions(_apply_chain(list(st.pending), off)))
            off += st.n_parts
        return SparkStream(rdds[0].context.union(rdds), off)

    def split(self, width: int, agg: AggFn = _concat,
              ranges: Optional[RangeFn] = None) -> "SparkStream":
        """Run ``agg`` over the ordered chunks and re-chunk its output into
        ``width`` contiguous pieces — PaSh's agg | split process pair — with
        chunk ``k`` in partition ``k``. Given ``agg``'s range form
        ``ranges``, every chunk is sent to all ``width`` tasks of one
        shuffle and task ``k`` computes chunk ``k``. Otherwise ``agg`` runs
        in one single-partition task behind a stage boundary (so the maps
        keep their width) and a second shuffle places its chunks."""
        if ranges is not None:
            rdd = self._pre_rdd().mapPartitions(_to_every_range(width)) \
                .partitionBy(width, _chunk_id) \
                .mapPartitionsWithIndex(_range_task(ranges, self.n_parts, width),
                                        preservesPartitioning=True)
            return SparkStream(rdd, width)
        rdd = self._pre_rdd().partitionBy(1, _chunk_id) \
            .mapPartitions(_agg_split(agg, self.n_parts, width)) \
            .partitionBy(width, _chunk_id)
        return SparkStream(rdd, width)

    # -- compute ops -----------------------------------------------------------
    def per_chunk(self, fn: ChunkFn) -> "SparkStream":
        """Run the black-box ``fn`` independently on every chunk — the n
        replicated nodes of transformation T. Lazy and fused."""
        return SparkStream(self.rdd, self.n_parts, self.pending + [fn])

    # -- sinks -----------------------------------------------------------------
    def collect_parts(self) -> List[List[str]]:
        """Collect the ordered chunks — the aggregator's input streams."""
        return _parts(self._pre_rdd().collect(), self.n_parts)

    def collect_lines(self, agg: AggFn = _concat) -> List[str]:
        """The ordered chunks through ``agg`` on the driver: PaSh's
        aggregator at a sink, one transfer of the map outputs."""
        return agg(self.collect_parts())
