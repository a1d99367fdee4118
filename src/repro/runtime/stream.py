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
  aggregator on the driver (plain concatenation); ``read_together`` reads
  several streams in one action, each through its own aggregator,
* ``cat``    -> ``union`` after a bundle offset on ``p`` (order-preserving).

**Ingest is lazy.** ``from_lines`` keeps the chunks on the driver with the
pending chunk functions: such a *narrow* stream becomes an RDD only when a
``split`` or a sink needs it. A source is parallelized at most once, one
element per slice: slice ``k`` holds chunk ``k`` of every source shipped
with it, however many streams derive from it.

**Placement.** Lane ``k`` of every input read together runs in task ``k``:
a read of narrow streams ships their sources in one ``parallelize`` and
runs each stream's chain on its chunk of slice ``k`` in one
``mapPartitionsWithIndex``, so n inputs of width w are w tasks, not n·w.
A stream read alone is the same with one input: chunk ``k`` in partition
``k``, ``w`` tasks whatever ``defaultParallelism`` is. Streams that have
passed a shuffle join the read by ``union``, and so do a ``cat``'s inputs,
each keeping its own tasks. The shuffles of a ``split`` (one or two) are
the only exchanges. Order never comes from partition order: the sink and
the aggregator of a ``split`` place every record by ``p``. Every action is
one Spark job, however many shuffles it crosses.

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
a frame larger than 2 GiB (``FramedSerializer``). An ingest frame is one
slice, which batches chunk ``k`` of every source shipped together (one
chunk when a source is shipped alone), so those chunks together must
pickle to under 2 GiB. After ingest a frame holds one chunk, except that a
``split``'s tasks may group records after a frame under 64 KiB
(``AutoBatchedSerializer``). A sink's records together must also stay
under ``spark.driver.maxResultSize`` (1 GiB unless the session sets it).

**Session.** The stream needs the session's ``SparkContext``, so it runs
on a classic session, not a Spark Connect one.
"""
from __future__ import annotations

import pickle
import zipimport
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from pyspark import RDD, SparkContext
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


def concat(parts: List[List[str]]) -> List[str]:
    return [line for part in parts for line in part]


def _archive_unchanged(self) -> None:
    """``zipimporter.invalidate_caches`` for archives that never change."""


def _keep_zip_directories() -> None:
    """Stop ``importlib.invalidate_caches()`` from re-reading every zip on
    ``sys.path`` in this (worker) process; see the module docstring."""
    zipimport.zipimporter.invalidate_caches = _archive_unchanged


def _run(fns: List[ChunkFn], lines: List[str]) -> List[str]:
    for f in fns:
        lines = f(lines)
    return lines


def _apply_chain(fns: List[ChunkFn], offset: int = 0):
    """mapPartitions fn: run the fused chunk-function chain on every chunk
    record of this partition, empty chunks included, and shift its id by
    ``offset``."""

    def apply(chunks: Iterable[Chunk]) -> Iterator[Chunk]:
        _keep_zip_directories()
        for p, lines in chunks:
            yield p + offset, _run(fns, lines)

    return apply


def _run_lanes(lanes: Dict[int, List[Tuple[int, List[ChunkFn]]]]):
    """mapPartitionsWithIndex fn over ingest slices: slice ``k`` holds chunk
    ``k`` of every source shipped with it, as ``(s, lines)``; each lane
    ``(offset, fns)`` that reads source ``s`` runs its chain on that chunk
    and emits it as chunk ``offset + k``."""

    def apply(k: int, slices: Iterable[List[Tuple[int, List[str]]]]) -> Iterator[Chunk]:
        _keep_zip_directories()
        for chunks in slices:
            for s, lines in chunks:
                for offset, fns in lanes.get(s, ()):
                    yield offset + k, _run(fns, lines)

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


class _Source:
    """Ingested chunks, kept on the driver until an action needs them.
    ``shipped`` is the slice RDD that holds them once parallelized, and
    their index ``s`` in its slices."""

    def __init__(self, sc: SparkContext, chunks: List[List[str]]):
        self.sc = sc
        self.chunks = chunks
        self.shipped: Optional[Tuple[RDD, int]] = None


def _ship(sources: List[_Source]) -> None:
    """Parallelize every source not shipped yet in one ``parallelize``:
    slice ``k`` is one element, chunk ``k`` of each of them."""
    new = list({id(src): src for src in sources if src.shipped is None}.values())
    if not new:
        return
    n = max(len(src.chunks) for src in new)
    slices = [[(s, src.chunks[k]) for s, src in enumerate(new) if k < len(src.chunks)]
              for k in range(n)]
    rdd = new[0].sc.parallelize(slices, n)
    for s, src in enumerate(new):
        src.shipped = (rdd, s)


def _records(leaves: List["SparkStream"]) -> RDD:
    """The chunk records of the ``leaves`` (streams with a shipped source
    or an RDD) in order, each leaf's chunk ids shifted by the chunks
    before it, with the pending functions applied. Leaves whose sources
    share a slice RDD run in one ``mapPartitionsWithIndex`` over it; the
    others join by ``union``."""
    # slice RDD -> source index in its slices -> (offset, chain) per lane
    lanes: Dict[RDD, Dict[int, List[Tuple[int, List[ChunkFn]]]]] = {}
    rdds: List[RDD] = []
    off = 0
    for st in leaves:
        if st._source is not None:
            slices, s = st._source.shipped
            lanes.setdefault(slices, {}).setdefault(s, []).append((off, list(st.pending)))
        elif st.pending or off:
            # a new p breaks any partitioner, so a union keeps every
            # partition of every input
            rdds.append(st._rdd.mapPartitions(_apply_chain(list(st.pending), off),
                                              preservesPartitioning=not off))
        else:
            rdds.append(st._rdd)
        off += st.n_parts
    rdds = [slices.mapPartitionsWithIndex(_run_lanes(by_source))
            for slices, by_source in lanes.items()] + rdds
    return rdds[0] if len(rdds) == 1 else rdds[0].context.union(rdds)


class SparkStream:
    """An ordered line stream distributed over ``n_parts`` contiguous
    chunks, in one of three forms: an RDD of chunk records; a *narrow*
    stream, still its ingested source on the driver; or the concatenation
    of ``members`` in these two forms, built when it is read. The first
    two carry the chunk functions still pending, which fuse into the stage
    that next reads them."""

    def __init__(self, n_parts: int, *, rdd: Optional[RDD] = None,
                 source: Optional[_Source] = None,
                 members: Optional[List["SparkStream"]] = None,
                 pending: Optional[List[ChunkFn]] = None):
        assert [rdd, source, members].count(None) == 2
        self.n_parts = n_parts
        self._rdd = rdd
        self._source = source
        self._members = members
        self.pending = pending or []

    def _leaves(self) -> List["SparkStream"]:
        return [self] if self._members is None else self._members

    @staticmethod
    def _concat(streams: List["SparkStream"]) -> "SparkStream":
        members = [m for st in streams for m in st._leaves()]
        return SparkStream(sum(m.n_parts for m in members), members=members)

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_lines(spark: SparkSession, lines: List[str], width: int = 1) -> "SparkStream":
        """``lines`` pre-chunked into ``width`` contiguous chunks (static file
        chunking — no runtime split needed for file inputs), as
        ``split_chunks`` cuts them. Lazy: the chunks stay on the driver
        until a ``split`` or a sink needs them, and are then parallelized
        once, chunk ``k`` in partition ``k``."""
        return SparkStream(width, source=_Source(spark.sparkContext, split_chunks(lines, width)))

    @property
    def rdd(self) -> RDD:
        """The chunk records with the pending chunk functions applied. The
        sources not shipped yet are shipped here, in one ``parallelize``."""
        leaves = self._leaves()
        _ship([st._source for st in leaves if st._source is not None])
        return _records(leaves)

    # -- structural ops --------------------------------------------------------
    @staticmethod
    def cat(streams: List["SparkStream"]) -> "SparkStream":
        """Ordered concatenation: shift each stream's chunk ids by the
        total number of chunks before it. Sources are shipped one by one,
        as a read of each input alone would ship them, so inputs from
        different sources keep their own tasks."""
        assert streams
        if len(streams) == 1:
            return streams[0]
        joint = SparkStream._concat(streams)
        for st in joint._members:
            if st._source is not None:
                _ship([st._source])
        return joint

    def split(self, width: int, agg: AggFn = concat,
              ranges: Optional[RangeFn] = None) -> "SparkStream":
        """Run ``agg`` over the ordered chunks and re-chunk its output into
        ``width`` contiguous pieces — PaSh's agg | split process pair — with
        chunk ``k`` in partition ``k``. Given ``agg``'s range form
        ``ranges``, every chunk is sent to all ``width`` tasks of one
        shuffle and task ``k`` computes chunk ``k``. Otherwise ``agg`` runs
        in one single-partition task behind a stage boundary (so the maps
        keep their width) and a second shuffle places its chunks."""
        if ranges is not None:
            rdd = self.rdd.mapPartitions(_to_every_range(width)) \
                .partitionBy(width, _chunk_id) \
                .mapPartitionsWithIndex(_range_task(ranges, self.n_parts, width),
                                        preservesPartitioning=True)
            return SparkStream(width, rdd=rdd)
        rdd = self.rdd.partitionBy(1, _chunk_id) \
            .mapPartitions(_agg_split(agg, self.n_parts, width)) \
            .partitionBy(width, _chunk_id)
        return SparkStream(width, rdd=rdd)

    # -- compute ops -----------------------------------------------------------
    def per_chunk(self, fn: ChunkFn) -> "SparkStream":
        """Run the black-box ``fn`` independently on every chunk — the n
        replicated nodes of transformation T. Lazy and fused."""
        if self._members is not None:
            return SparkStream(self.n_parts,
                               members=[m.per_chunk(fn) for m in self._members])
        return SparkStream(self.n_parts, rdd=self._rdd, source=self._source,
                           pending=self.pending + [fn])

    # -- sinks -----------------------------------------------------------------
    def collect_parts(self) -> List[List[str]]:
        """Collect the ordered chunks — the aggregator's input streams."""
        return _parts(self.rdd.collect(), self.n_parts)

    def collect_lines(self, agg: AggFn = concat) -> List[str]:
        """The ordered chunks through ``agg`` on the driver: PaSh's
        aggregator at a sink, one transfer of the map outputs."""
        return agg(self.collect_parts())

    @staticmethod
    def read_together(reads: List[Tuple["SparkStream", AggFn]]) -> List[List[str]]:
        """Each stream's ordered chunks through its own aggregator on the
        driver, all read in one action: one ``collect_lines`` of the
        streams' concatenation, whose aggregator runs each read's own over
        that stream's chunks. Unlike ``cat``, the concatenation ships the
        sources not shipped yet together, in one ``parallelize``, so lane
        ``k`` of every input runs in task ``k``: n inputs of width w are w
        tasks."""
        if len(reads) < 2:
            return [st.collect_lines(agg) for st, agg in reads]
        outs: List[List[str]] = []

        def each(parts: List[List[str]]) -> List[str]:
            off = 0
            for st, agg in reads:
                outs.append(agg(parts[off:off + st.n_parts]))
                off += st.n_parts
            return concat(outs)

        SparkStream._concat([st for st, _ in reads]).collect_lines(each)
        return outs
