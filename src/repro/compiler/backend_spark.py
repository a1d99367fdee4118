"""Spark backend: executes the transformed dataflow graph of a region.

``run_dfg_spark`` lowers ``parallelize(g, width)`` — the graph
``run_dfg_seq`` runs in the metamorphic tests — node by node onto
:class:`~repro.runtime.stream.SparkStream` operations, without eager relays
(Spark's scheduler has no pipe laziness). Every parallelization decision
(commuting plain ``cat``, static file chunking vs ``split``, ``map_argv``,
width sinks, §6.1's "No Split") is made once, in ``parallelize``:

* the ``(k, w)`` chunk edges of one input are the lanes of one stream;
* ``map`` copies over the lanes of one stream fuse into one ``per_chunk``;
* an ``agg`` tree collapses to one aggregator over its leaves, held until
  the node that reads its output places it: in the ``split`` it feeds
  (PaSh's ``agg | split``: ``width`` tasks after one shuffle, each
  computing its chunk of the output, through the range form when the
  aggregator has one, sort's ``rerun``, else from its whole output), else
  on the driver, after the read that fetches its stream;
* a ``split`` fed by no aggregator distributes a driver-side list;
* ``cat`` concatenates streams, or lists on the driver when all its inputs
  are driver-side;
* ``cmd`` and ``relay`` nodes run on the driver.

Driver reads — ``cmd`` and ``relay`` nodes, list ``cat``s and the graph's
outputs — fetch every stream input and static of the node in one Spark job
(``SparkStream.read_together``), where lane ``k`` of every input runs in
task ``k``: ``diff <(… | sort) <(… | sort)`` is one job of ``width`` tasks.

Streams are chunk records, one per chunk. They stay on the driver until a
read ships them, and are an RDD after that. So a region samples and caches
nothing, and leaves no state in the session. Streams need a classic
session, not a Spark Connect one. A ``CommandError`` raised in a
Spark task reaches the caller as ``CommandError``, as on the sequential
backend.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from py4j.protocol import Py4JJavaError
from pyspark.sql import SparkSession

from repro.commands.base import CommandError, ExecEnv
from repro.dfg.graph import DFG, Node
from repro.dfg.transform import parallelize
from repro.runtime.aggregators import AGGREGATORS, RangeFn, range_form
from repro.runtime.stream import AggFn, SparkStream, concat

from .backend_seq import exec_node, read_input, write_outputs

# commands that read the simulated environment (vfs / network / file types)
# at runtime and therefore need it captured into their task closures
_ENV_READERS = {"xargs", "curl", "file"}

# the last line of a task's Python traceback when a command rejected its
# input; in a failed job's text the Java stack follows that traceback
_TASK_COMMAND_ERROR = re.compile(
    rf"^{re.escape(CommandError.__module__)}\.CommandError: (.*)\s*\Z", re.M)
_JAVA_FRAME = "\n\tat "


def _node_fn(node: Node, statics: List[List[str]], env_files: Dict[str, List[str]],
             ftypes: Dict[str, str]):
    """Build a picklable chunk function running ``node`` on a line chunk."""

    def fn(lines: List[str]) -> List[str]:
        env = ExecEnv(files=env_files, ftypes=ftypes)
        return exec_node(node, [lines], statics, env)

    return fn


@contextmanager
def _command_errors():
    """Re-raise a ``CommandError`` that a Spark task raised as itself."""
    try:
        yield
    except Py4JJavaError as e:
        m = _TASK_COMMAND_ERROR.search(str(e).split(_JAVA_FRAME, 1)[0])
        if m is None:
            raise
        raise CommandError(m.group(1)) from e


@dataclass(frozen=True)
class _Held:
    """An aggregator root not run yet: the node that reads its output
    places it — a ``split`` runs it in its own tasks, any other reader on
    the driver, in the action that reads the reader's other inputs."""
    stream: SparkStream
    agg: AggFn
    ranges: Optional[RangeFn]


# an edge's value: lines on the driver, a whole stream, lane k of a stream,
# or an aggregator over a stream
Value = Union[List[str], SparkStream, Tuple[SparkStream, int], _Held]


@_command_errors()
def run_dfg_spark(
    spark: SparkSession,
    g: DFG,
    env: ExecEnv,
    *,
    width: int,
    enable_split: bool = True,
    stdin: Optional[List[str]] = None,
) -> List[str]:
    pg = parallelize(g, width, enable_split=enable_split, enable_eager=False)
    values: Dict[int, Value] = {}
    ingested: Dict[Tuple[Optional[str], int], SparkStream] = {}
    fused: Dict[Tuple[SparkStream, int], SparkStream] = {}
    trees: Dict[int, List[Value]] = {}  # inner edge of an agg tree -> its leaves

    def value(eid: int) -> Value:
        if eid not in values:
            e = pg.edges[eid]
            v = read_input(e, env, stdin)
            if e.chunk is not None:
                k, w = e.chunk
                if (e.label, w) not in ingested:
                    ingested[e.label, w] = SparkStream.from_lines(spark, v, w)
                v = (ingested[e.label, w], k)
            values[eid] = v
        return values[eid]

    def stream_of(vals: List[Value]) -> SparkStream:
        """The stream whose chunks are ``vals`` in order: all the lanes of
        one stream are that stream, anything else is concatenated."""
        runs: List[SparkStream] = []
        n_lanes = 0
        for v in vals:
            if isinstance(v, tuple):
                st, k = v
                n_lanes += 1
                if k:
                    assert runs and runs[-1] is st, "lanes are consumed in order"
                else:
                    runs.append(st)
            else:
                runs.append(v if isinstance(v, SparkStream)
                            else SparkStream.from_lines(spark, v))
                n_lanes += runs[-1].n_parts
        assert sum(st.n_parts for st in runs) == n_lanes, "lanes are consumed whole"
        return SparkStream.cat(runs)

    def on_driver(vals: List[Value]) -> List[List[str]]:
        """The lines of every value, all of its streams read in one action."""
        reads = [(v.stream, v.agg) if isinstance(v, _Held) else (stream_of([v]), concat)
                 for v in vals if not isinstance(v, list)]
        got = iter(SparkStream.read_together(reads))
        return [v if isinstance(v, list) else next(got) for v in vals]

    def unhold(vals: List[Value]) -> List[Value]:
        """``vals`` with every held aggregator run on the driver."""
        held = [v for v in vals if isinstance(v, _Held)]
        got = iter(on_driver(held))
        return [next(got) if isinstance(v, _Held) else v for v in vals]

    for nid in pg.topo_order():
        n = pg.nodes[nid]
        ins = [value(e) for e in n.inputs if e not in trees]
        if n.kind == "map":
            st, k = ins[0] if isinstance(ins[0], tuple) else (stream_of(unhold(ins)), 0)
            # copies of one command share its Resolved: the first one builds
            # the stage for all the lanes of ``st``
            key = (st, id(n.resolved))
            if key not in fused:
                env_files = dict(env.files) if n.cmd in _ENV_READERS else {}
                statics = on_driver([value(e) for e in n.statics])
                fused[key] = st.per_chunk(_node_fn(n, statics, env_files, env.ftypes))
            outs: List[Value] = [(fused[key], k)]
        elif n.kind == "agg":
            leaves = [v for e in n.inputs for v in trees.pop(e, None) or [value(e)]]
            dst = pg.edges[n.outputs[0]].dst
            if dst is not None and pg.nodes[dst].kind == "agg":
                trees[n.outputs[0]] = leaves  # lowered with the root of its tree
                continue
            fn = AGGREGATORS[n.agg_name]
            agg = lambda parts, _f=fn, _s=n.resolved: _f(parts, _s)
            outs = [_Held(stream_of(leaves), agg, range_form(n.agg_name, n.resolved))]
        elif n.kind == "split":
            w = len(n.outputs)
            if isinstance(ins[0], _Held):
                st = ins[0].stream.split(w, ins[0].agg, ins[0].ranges)
            else:
                st = SparkStream.from_lines(spark, on_driver(ins)[0], w)
            outs = [(st, k) for k in range(w)]
        elif n.kind == "cat":
            if all(isinstance(v, (list, _Held)) for v in ins):
                outs = [concat(on_driver(ins))]
            else:
                outs = [stream_of(unhold(ins))]
        elif n.kind == "relay":
            outs = on_driver(ins) * len(n.outputs)
        elif n.kind == "cmd":
            got = on_driver(ins + [value(e) for e in n.statics])
            outs = [exec_node(n, got[:len(ins)], got[len(ins):], env)]
        else:
            raise ValueError(f"unknown node kind {n.kind}")
        values.update(zip(n.outputs, outs))
    # the graph's outputs are one driver read
    sinks = pg.graph_outputs()
    sink_lines = dict(zip(sinks, on_driver([values[e] for e in sinks])))
    return write_outputs(pg, sink_lines.__getitem__, env)
