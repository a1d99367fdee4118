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
* ``split``  -> PaSh's aggregator piped into its split, in ``width`` tasks
  after one shuffle: each map task pickles its chunk once and sends the
  bytes to every range id, and task ``k`` computes chunk ``k`` of the
  aggregator's output from all the chunks. An aggregator with a range form
  (``aggregators.range_form``; only sort's ``rerun`` has one) computes just
  that chunk; any other (plain concatenation by default) runs whole in
  every task, which keeps chunk ``k`` of its output as ``split_chunks``
  cuts it (count, then disperse, like PaSh's split process). The shuffle
  volume is ``width`` times the map output,
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
each keeping its own tasks. A ``split``'s one shuffle is the only
exchange. Order never comes from partition order: the sink and
the aggregator of a ``split`` place every record by ``p``. Every action is
one Spark job, however many shuffles it crosses.

**Per-task cost.** Every task function starts with :func:`_prepare_worker`,
which sets the worker up on its first task; three fixed per-task costs of
Spark's Python worker go with it.

* Before every task the worker calls ``importlib.invalidate_caches()``.
  Under CPython < 3.12 that makes each ``zipimporter`` re-read its whole
  archive directory, and the worker's path holds three archives
  (``pyspark.zip``, the py4j zip, the spark-core jar): about 0.2 s per task,
  more than a 5k-line ``tr | sort`` chunk costs. The hook makes the re-read
  a no-op for the rest of the worker's life. The archives do not change
  while a worker lives; directory finders are still invalidated, and a zip
  newly put on the path (``addPyFile``) gets a new importer that reads it.
* After every task PySpark's daemon runs a full ``gc.collect()``. A warm
  worker holds ~40k objects from its imports, so each collection took
  14-33 ms, in all workers at once when a stage ends. The hook calls
  ``gc.freeze()``, after which a collection scans only what later tasks
  make (0.03-0.06 ms); cycles among those are still found. What the first
  task holds at entry stays frozen too, and is still freed by reference
  counting.
* The worker's TCP socket to the executor runs Nagle's algorithm, and the
  peer delays its ACKs (RFC 896, RFC 1122 §4.2.3.2), so the last small
  write of a task's output waited for an ACK. The hook finds the
  worker's open ``AF_INET``/``AF_INET6`` sockets once and sets
  ``TCP_NODELAY`` on them; ``AF_UNIX`` sockets
  (``spark.python.unix.domain.socket.enabled``) are left alone. Where the
  platform has ``TCP_QUICKACK`` (Linux), every task entry sets it too,
  since the kernel clears it again, so the worker ACKs the executor's
  writes of the task's input at once. A one-stage job of 4 tasks with
  0-100 lines each took 96-103 ms, 79-82 ms with the freeze and
  ``TCP_NODELAY``, and 42-44 ms with ``TCP_QUICKACK`` as well; at 5k lines
  a task the freeze and ``TCP_NODELAY`` took it from 58 to 40 ms and
  ``TCP_QUICKACK`` changed nothing.

**Limit.** PySpark frames pickled records with a 32-bit length and refuses
a frame larger than 2 GiB (``FramedSerializer``). An ingest frame is one
slice, which batches chunk ``k`` of every source shipped together (one
chunk when a source is shipped alone), so those chunks together must
pickle to under 2 GiB. After ingest a frame holds one chunk, except that a
``split``'s shuffle frames together the chunks that one map task sends to
one range: several only when that task runs several lanes, as for a stream
that reads one source twice. A sink's records together must also stay
under ``spark.driver.maxResultSize`` (1 GiB unless the session sets it).

**Session.** The stream needs the session's ``SparkContext``, so it runs
on a classic session, not a Spark Connect one.
"""
from __future__ import annotations

import gc
import pickle
import socket
import zipimport
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from pyspark import RDD, SparkContext
from pyspark.sql import SparkSession

from repro.dfg.graph import split_chunks
from repro.runtime.aggregators import RangeFn, whole_range

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


# the worker's open TCP sockets, found on its first task
_tcp_sockets: Optional[List[socket.socket]] = None
_QUICKACK: Optional[int] = getattr(socket, "TCP_QUICKACK", None)


def _set_tcp_option(option: int) -> None:
    for sock in _tcp_sockets:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, option, 1)
        except OSError:  # closed since the first task
            pass


def _prepare_worker() -> None:
    """Set up this (worker) process on its first task: no zip re-reads, the
    import-time heap frozen, ``TCP_NODELAY`` on its TCP sockets; and ACK at
    once on every task. See the module docstring."""
    global _tcp_sockets
    if _tcp_sockets is None:
        zipimport.zipimporter.invalidate_caches = _archive_unchanged
        # before the freeze: gc.get_objects() does not list frozen objects
        _tcp_sockets = [obj for obj in gc.get_objects() if isinstance(obj, socket.socket)
                        and obj.fileno() != -1
                        and obj.family in (socket.AF_INET, socket.AF_INET6)]
        _set_tcp_option(socket.TCP_NODELAY)
        gc.freeze()
    if _QUICKACK is not None:
        _set_tcp_option(_QUICKACK)


def _run(fns: List[ChunkFn], lines: List[str]) -> List[str]:
    for f in fns:
        lines = f(lines)
    return lines


def _apply_chain(fns: List[ChunkFn], offset: int = 0):
    """mapPartitions fn: run the fused chunk-function chain on every chunk
    record of this partition, empty chunks included, and shift its id by
    ``offset``."""

    def apply(chunks: Iterable[Chunk]) -> Iterator[Chunk]:
        _prepare_worker()
        for p, lines in chunks:
            yield p + offset, _run(fns, lines)

    return apply


def _run_lanes(lanes: Dict[int, List[Tuple[int, List[ChunkFn]]]]):
    """mapPartitionsWithIndex fn over ingest slices: slice ``k`` holds chunk
    ``k`` of every source shipped with it, as ``(s, lines)``; each lane
    ``(offset, fns)`` that reads source ``s`` runs its chain on that chunk
    and emits it as chunk ``offset + k``."""

    def apply(k: int, slices: Iterable[List[Tuple[int, List[str]]]]) -> Iterator[Chunk]:
        _prepare_worker()
        for chunks in slices:
            for s, lines in chunks:
                for offset, fns in lanes.get(s, ()):
                    yield offset + k, _run(fns, lines)

    return apply


def _to_every_range(width: int):
    """mapPartitions fn of a ``split``'s map side: pickle each chunk
    once and key the same bytes by every range id."""

    def apply(chunks: Iterable[Chunk]) -> Iterator[Tuple[int, Tuple[int, bytes]]]:
        _prepare_worker()
        for p, lines in chunks:
            blob = pickle.dumps(lines, pickle.HIGHEST_PROTOCOL)
            for r in range(width):
                yield r, (p, blob)

    return apply


def _range_task(ranges: RangeFn, n_parts: int, width: int):
    """mapPartitionsWithIndex fn of a ``split``: task ``r`` reads every
    chunk and computes chunk ``r`` of the aggregator's output, which it
    emits even when empty."""

    def apply(r: int, records: Iterable[Tuple[int, Tuple[int, bytes]]]) -> Iterator[Chunk]:
        _prepare_worker()
        chunks = ((p, pickle.loads(blob)) for _, (p, blob) in records)
        yield r, ranges(_parts(chunks, n_parts), r, width)

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


class _Leaf(NamedTuple):
    """``n_parts`` consecutive chunks of a stream: the chunk records of
    ``base``, an RDD or a source still on the driver, with the chunk
    functions ``pending`` still to run on each."""
    n_parts: int
    base: Union[RDD, _Source]
    pending: Tuple[ChunkFn, ...] = ()


def _records(leaves: List[_Leaf]) -> RDD:
    """The chunk records of the ``leaves`` (their sources shipped) in order,
    each leaf's chunk ids shifted by the chunks before it, with the pending
    functions applied. Leaves whose sources share a slice RDD run in one
    ``mapPartitionsWithIndex`` over it; the others join by ``union``."""
    # slice RDD -> source index in its slices -> (offset, chain) per lane
    lanes: Dict[RDD, Dict[int, List[Tuple[int, List[ChunkFn]]]]] = {}
    rdds: List[RDD] = []
    off = 0
    for leaf in leaves:
        if isinstance(leaf.base, _Source):
            slices, s = leaf.base.shipped
            lanes.setdefault(slices, {}).setdefault(s, []).append((off, list(leaf.pending)))
        elif leaf.pending or off:
            # a new p breaks any partitioner, so a union keeps every
            # partition of every input
            rdds.append(leaf.base.mapPartitions(_apply_chain(list(leaf.pending), off),
                                                preservesPartitioning=not off))
        else:
            rdds.append(leaf.base)
        off += leaf.n_parts
    rdds = [slices.mapPartitionsWithIndex(_run_lanes(by_source))
            for slices, by_source in lanes.items()] + rdds
    return rdds[0] if len(rdds) == 1 else rdds[0].context.union(rdds)


class SparkStream:
    """An ordered line stream distributed over ``n_parts`` contiguous
    chunks: its ``leaves`` one after another. A leaf whose base is a source
    is *narrow*; the chunk functions pending on a leaf fuse into the stage
    that next reads it."""

    def __init__(self, leaves: List[_Leaf]):
        self.leaves = leaves
        self.n_parts = sum(leaf.n_parts for leaf in leaves)

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_lines(spark: SparkSession, lines: List[str], width: int = 1) -> "SparkStream":
        """``lines`` pre-chunked into ``width`` contiguous chunks (static file
        chunking — no runtime split needed for file inputs), as
        ``split_chunks`` cuts them. Lazy: the chunks stay on the driver
        until a ``split`` or a sink needs them, and are then parallelized
        once, chunk ``k`` in partition ``k``."""
        return SparkStream([_Leaf(width, _Source(spark.sparkContext, split_chunks(lines, width)))])

    @property
    def rdd(self) -> RDD:
        """The chunk records with the pending chunk functions applied. The
        sources not shipped yet are shipped here, in one ``parallelize``."""
        _ship([leaf.base for leaf in self.leaves if isinstance(leaf.base, _Source)])
        return _records(self.leaves)

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
        leaves = [leaf for st in streams for leaf in st.leaves]
        for leaf in leaves:
            if isinstance(leaf.base, _Source):
                _ship([leaf.base])
        return SparkStream(leaves)

    def split(self, width: int, agg: AggFn = concat,
              ranges: Optional[RangeFn] = None) -> "SparkStream":
        """Run ``agg`` over the ordered chunks and re-chunk its output into
        ``width`` contiguous pieces — PaSh's agg | split process pair — with
        chunk ``k`` in partition ``k``. Every chunk is sent to all ``width``
        tasks of one shuffle, and task ``k`` computes chunk ``k``: with
        ``agg``'s range form ``ranges`` when given, else from the whole
        output of ``agg``."""
        ranges = ranges or whole_range(agg)
        rdd = self.rdd.mapPartitions(_to_every_range(width)) \
            .partitionBy(width, _chunk_id) \
            .mapPartitionsWithIndex(_range_task(ranges, self.n_parts, width),
                                    preservesPartitioning=True)
        return SparkStream([_Leaf(width, rdd)])

    # -- compute ops -----------------------------------------------------------
    def per_chunk(self, fn: ChunkFn) -> "SparkStream":
        """Run the black-box ``fn`` independently on every chunk — the n
        replicated nodes of transformation T. Lazy and fused."""
        return SparkStream([leaf._replace(pending=leaf.pending + (fn,)) for leaf in self.leaves])

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
        if not reads:
            return []
        outs: List[List[str]] = []

        def each(parts: List[List[str]]) -> List[str]:
            off = 0
            for st, agg in reads:
                outs.append(agg(parts[off:off + st.n_parts]))
                off += st.n_parts
            # the sink's lines: one read's own list, or the reads' in order
            return outs[0] if len(outs) == 1 else concat(outs)

        SparkStream([leaf for st, _ in reads for leaf in st.leaves]).collect_lines(each)
        return outs
