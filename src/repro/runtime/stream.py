"""Spark realization of PaSh streams.

A Unix stream (ordered lines) is a DataFrame with one row per chunk:
``p`` (contiguous chunk id — the DFG edge's position in its parallel
bundle) and ``lines`` (the chunk's lines, in order). Total stream order is
the lines of chunk 0, then of chunk 1, and so on. A row is always a whole
chunk, so no partitioning can split one, and a chunk with no lines is an
empty array that still runs its map chain — ``wc -l`` or ``grep -c`` print
``0`` for it, as the replicated command would.

**One format.** In Python a chunk is only ever a one-row Arrow record
batch, as PaSh's is only ever bytes in a pipe: :func:`_batch` builds every
chunk and :func:`_chunks` reads every chunk, from ingest through the map
and ``split`` tasks to the sink's ``toArrow``. No session setting picks the
path: ``arrow.pyspark.enabled`` only switches ``toPandas``.

Mapping of PaSh runtime primitives (§5) onto Spark:

* map stage  -> fused ``mapInArrow`` running the black-box command chain
  on every chunk row (the n replicated nodes of transformation T;
  consecutive per-chunk stages fuse into one Spark stage — exactly PaSh's
  process-chain-per-width-lane execution),
* ``split``  -> PaSh's aggregator piped into its split, in one
  single-partition task: the aggregator (plain concatenation by default)
  runs over the ordered chunks and its output is re-chunked into ``width``
  contiguous pieces (count, then disperse, like PaSh's split process), then
  ``repartitionById(width, "p")`` places chunk ``k`` in partition ``k``,
* sink       -> ``collect_lines`` collects the ordered chunks with
  ``toArrow`` and runs the aggregator on the driver (plain concatenation),
* ``cat``    -> union with bundle-offset on ``p`` (order-preserving).

**Placement.** Ingest is one ``createDataFrame`` of an Arrow table with one
record batch per chunk, with no shuffle, sampling or cache. Below
``spark.sql.execution.arrow.localRelationThreshold`` (48 MiB) Spark spreads
the rows over up to ``defaultParallelism`` partitions; above it, each batch
becomes a partition. Either way a map task holds at most
``ceil(width / defaultParallelism)`` chunks. The one-partition output of
``split`` moves to ``width`` partitions by chunk id, with no sampling
either: that and the ``repartition(1)`` in front of an aggregator are the
only exchanges. ``coalesce(1)`` in place of ``repartition(1)`` would
collapse the upstream maps into the aggregator's single task.

**No** ``Column`` **objects.** Every PySpark ``Column`` method and ``F.*``
function captures its call site, and the first capture in a process imports
IPython (~540 modules, ~26 MB of driver memory). Column names are passed as
strings and arithmetic goes through ``selectExpr``.

**Per-task cost.** Before every task, Spark's Python worker calls
``importlib.invalidate_caches()``. Under CPython < 3.12 that makes each
``zipimporter`` re-read its whole archive directory, and the worker's path
holds three archives (``pyspark.zip``, the py4j zip, the spark-core jar):
about 0.2 s per task, more than a 5k-line ``tr | sort`` chunk costs. Both
``mapInArrow`` functions therefore start with :func:`_keep_zip_directories`,
which makes the re-read a no-op for the rest of that worker's life. The
archives do not change while a worker lives; directory finders are still
invalidated, and a zip newly put on the path (``addPyFile``) gets a new
importer that reads it.

**Limit.** Arrow's 32-bit offsets cap one record batch at 2 GiB of text.
Spark cuts the batches it sends a Python task at ``arrow.maxBytesPerBatch``
(64 MiB) and those ``toArrow`` sends the driver at
``arrow.maxRecordsPerBatch`` (10000 rows), never inside a row. So a chunk
must stay under 2 GiB, and so must the rows one partition sends the sink
in one batch: chunks share a partition only after a local-relation ingest.
"""
from __future__ import annotations

import zipimport
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import ArrayType, IntegerType, StringType, StructField, StructType

from repro.dfg.graph import split_chunks

# a StructType, not a DDL string: each DDL string is a py4j parse round trip
SCHEMA = StructType([StructField("p", IntegerType()),
                     StructField("lines", ArrayType(StringType()))])
_ARROW_SCHEMA = pa.schema([("p", pa.int32()), ("lines", pa.list_(pa.string()))])

ChunkFn = Callable[[List[str]], List[str]]
AggFn = Callable[[List[List[str]]], List[str]]


def _batch(p: int, lines: List[str]) -> pa.RecordBatch:
    """Chunk ``p`` as a one-row Arrow record batch, the one chunk format."""
    return pa.record_batch([[p], [lines]], schema=_ARROW_SCHEMA)


def _chunks(batches: Iterable[pa.RecordBatch]) -> Iterator[Tuple[int, List[str]]]:
    """``(p, lines)`` of every chunk row in ``batches``."""
    for b in batches:
        for p, lines in zip(b.column("p").to_pylist(), b.column("lines")):
            yield p, lines.values.to_numpy(zero_copy_only=False).tolist()


def _parts(batches: Iterable[pa.RecordBatch], n_parts: int) -> List[List[str]]:
    """The lines of chunks ``0 .. n_parts-1`` from their rows in ``batches``."""
    parts: List[List[str]] = [[] for _ in range(n_parts)]
    for p, lines in _chunks(batches):
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


def _apply_chain(fns: List[ChunkFn]):
    """mapInArrow fn: run the fused chunk-function chain on every chunk
    row of this partition, empty chunks included, one output batch each."""

    def apply(batches):
        _keep_zip_directories()
        for p, lines in _chunks(batches):
            for f in fns:
                lines = f(lines)
            yield _batch(p, lines)

    return apply


def _agg_split(agg: AggFn, n_parts: int, width: int):
    """mapInArrow fn of a ``split``: the aggregator over all ``n_parts``
    chunks, re-chunked into ``width`` — one single-partition task, like
    PaSh's aggregator process piped into its split."""

    def apply(batches):
        _keep_zip_directories()
        for k, part in enumerate(split_chunks(agg(_parts(batches, n_parts)), width)):
            yield _batch(k, part)

    return apply


class SparkStream:
    """An ordered line stream distributed over ``n_parts`` contiguous
    chunks, with the chunk functions still pending, which fuse into the
    stage that next reads it."""

    def __init__(self, df: DataFrame, n_parts: int,
                 pending: Optional[List[ChunkFn]] = None):
        self.df = df
        self.n_parts = n_parts
        self.pending = pending or []

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_lines(spark: SparkSession, lines: List[str], width: int = 1) -> "SparkStream":
        """Distribute ``lines`` pre-chunked into ``width`` contiguous chunks
        (static file chunking — no runtime split needed for file inputs),
        as ``split_chunks`` cuts them."""
        table = pa.Table.from_batches(
            [_batch(k, part) for k, part in enumerate(split_chunks(lines, width))])
        return SparkStream(spark.createDataFrame(table, schema=SCHEMA), width)

    def _pre_df(self) -> DataFrame:
        """The chunk rows with the pending chunk functions applied."""
        if not self.pending:
            return self.df
        return self.df.mapInArrow(_apply_chain(list(self.pending)), SCHEMA)

    # -- structural ops --------------------------------------------------------
    @staticmethod
    def cat(streams: List["SparkStream"]) -> "SparkStream":
        """Ordered concatenation: shift each stream's chunk ids by the
        total number of chunks before it."""
        assert streams
        df = None
        off = 0
        for st in streams:
            part = st._pre_df().selectExpr(f"p + {off} AS p", "lines")
            df = part if df is None else df.unionAll(part)
            off += st.n_parts
        return SparkStream(df, off)

    def split(self, width: int, agg: AggFn = _concat) -> "SparkStream":
        """Run ``agg`` over the ordered chunks and re-chunk its output into
        ``width`` contiguous pieces, in one single-partition task behind a
        stage boundary (so the maps keep their width) — PaSh's agg | split
        process pair — then place chunk ``k`` in partition ``k``."""
        df = self._pre_df().repartition(1) \
            .mapInArrow(_agg_split(agg, self.n_parts, width), SCHEMA) \
            .repartitionById(width, "p")
        return SparkStream(df, width)

    # -- compute ops -----------------------------------------------------------
    def per_chunk(self, fn: ChunkFn) -> "SparkStream":
        """Run the black-box ``fn`` independently on every chunk — the n
        replicated nodes of transformation T. Lazy and fused."""
        return SparkStream(self.df, self.n_parts, self.pending + [fn])

    # -- sinks -----------------------------------------------------------------
    def collect_parts(self) -> List[List[str]]:
        """Collect the ordered chunks — the aggregator's input streams."""
        return _parts(self._pre_df().toArrow().to_batches(), self.n_parts)

    def collect_lines(self, agg: AggFn = _concat) -> List[str]:
        """The ordered chunks through ``agg`` on the driver: PaSh's
        aggregator at a sink, one transfer of the map outputs."""
        return agg(self.collect_parts())
