"""Outside-in layer tracing for the benchmark.

The program has no tracing of its own, so the traced run wraps the public
functions at each layer boundary from here: ``install`` swaps each module
attribute for a recording wrapper and ``uninstall`` puts the originals back.
Spans record name, start, end, parent and invocation id, stay in memory and
are dumped as JSON when the run ends. A span's self time is its duration
minus the time its children cover.

Wrapped boundaries (layer name -> public function):

* ``frontend.compile_script``   - ``compile_script`` as bound in ``pash`` and
  ``backend_seq``;
* ``backend_spark.run_dfg_spark`` - one DFG region on Spark;
* ``backend_spark.driver_exec`` - ``backend_spark.exec_node``: width-sink
  nodes that run on the driver;
* ``seq.exec_node``             - ``backend_seq.exec_node``: every command of
  a ``pash_seq`` call, with lines in and out;
* ``stream.ingest`` / ``stream.split`` / ``stream.sink`` -
  ``SparkStream.from_lines`` / ``split`` / ``collect_lines``;
* ``agg.driver``                - the ``AGGREGATORS`` entries, when they run
  on the driver.
"""
from __future__ import annotations

import copy
import statistics
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.compiler import backend_seq, backend_spark, pash
from repro.runtime import aggregators
from repro.runtime.stream import SparkStream

# span names whose self time is reported as a layer of a pash_spark call
SPARK_LAYERS = (
    "pash.pash_spark", "frontend.compile_script", "backend_spark.run_dfg_spark",
    "backend_spark.driver_exec", "stream.ingest", "stream.split", "stream.sink",
    "agg.driver",
)
SEQ_LAYERS = ("pash.pash_seq", "frontend.compile_script", "seq.exec_node")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    inv: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span store. Spans are recorded only while an invocation is
    open (``invocation``), so warm-up calls and untraced phases cost one
    attribute test per wrapped call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._inv: Optional[str] = None

    @contextmanager
    def invocation(self, inv: str, root: str) -> Iterator[None]:
        self._inv = inv
        try:
            with self.span(root):
                yield
        finally:
            self._inv = None

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if self._inv is None:
            yield None
            return
        sp = Span(name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self._inv)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_ms(self) -> List[float]:
        """Self time of every span, index-aligned with ``spans``."""
        out = [sp.ms for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.ms
        return out

    def to_json(self) -> List[Dict[str, object]]:
        return [dict(name=sp.name, start=sp.start, end=sp.end, parent=sp.parent,
                     inv=sp.inv, **sp.attrs) for sp in self.spans]


class _Wrapped:
    """A recording stand-in for one function.

    Pickles as the function it wraps: Spark ships ``exec_node`` and the
    aggregators to executors inside task closures, and spans are only
    recorded on the driver. ``__get__`` lets it stand in for a method."""

    def __init__(self, tracer: Tracer, name: str, fn: Callable,
                 attrs: Optional[Callable[..., Dict[str, object]]] = None):
        self.tracer, self.name, self.fn, self.attrs = tracer, name, fn, attrs

    def __call__(self, *args, **kwargs):
        with self.tracer.span(self.name) as sp:
            out = self.fn(*args, **kwargs)
            if sp is not None and self.attrs is not None:
                sp.attrs.update(self.attrs(args, out))
            return out

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)

    def __reduce__(self):
        # copy.copy returns a function unchanged: executors get the original
        return copy.copy, (self.fn,)


def _mb(lines: List[str]) -> float:
    return sum(len(line) + 1 for line in lines) / 1e6


def _node_attrs(args, out) -> Dict[str, object]:
    node, in_streams = args[0], args[1]
    return {"cmd": node.cmd, "lines_in": sum(len(s) for s in in_streams),
            "lines_out": len(out)}


def _ingest_attrs(args, out) -> Dict[str, object]:
    lines = args[1]
    return {"lines": len(lines), "mb": _mb(lines)}


def _egress_attrs(args, out) -> Dict[str, object]:
    return {"lines": len(out), "mb": _mb(out)}


def _agg_attrs(args, out) -> Dict[str, object]:
    return {"lines_in": sum(len(p) for p in args[0])}


class Layers:
    """Installs and removes the wrappers of one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[tuple] = []

    def _patch(self, owner, attr: str, name: str, attrs=None, *, static=False) -> None:
        raw = vars(owner)[attr]  # for a staticmethod, the descriptor itself
        fn = raw.__func__ if static else raw
        w = _Wrapped(self.tracer, name, fn, attrs)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(w) if static else w)

    def _patch_entry(self, d: dict, key: str, name: str, attrs=None) -> None:
        self._saved.append((d, key, d[key]))
        d[key] = _Wrapped(self.tracer, name, d[key], attrs)

    def install(self) -> None:
        self._patch(pash, "compile_script", "frontend.compile_script")
        self._patch(backend_seq, "compile_script", "frontend.compile_script")
        self._patch(pash, "run_dfg_spark", "backend_spark.run_dfg_spark")
        self._patch(backend_spark, "exec_node", "backend_spark.driver_exec", _node_attrs)
        self._patch(backend_seq, "exec_node", "seq.exec_node", _node_attrs)
        self._patch(SparkStream, "from_lines", "stream.ingest", _ingest_attrs, static=True)
        self._patch(SparkStream, "split", "stream.split")
        self._patch(SparkStream, "collect_lines", "stream.sink", _egress_attrs)
        for key in list(aggregators.AGGREGATORS):
            self._patch_entry(aggregators.AGGREGATORS, key, "agg.driver", _agg_attrs)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._saved.clear()


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def spark_layer_metrics(tracer: Tracer, invs: List[str]) -> Dict[str, float]:
    """Per-invocation sums at the Spark-side boundaries, median over ``invs``."""
    selfs = tracer.self_ms()
    per: Dict[str, List[float]] = {}
    for inv in invs:
        m = dict.fromkeys((
            "backend_spark.driver_exec_ms", "backend_spark.driver_exec_nodes",
            "backend_spark.self_ms", "stream.ingest_ms", "stream.ingest_calls",
            "stream.ingest_lines", "stream.ingest_mb", "stream.split_ms",
            "stream.split_calls", "stream.sink_ms", "stream.sink_calls",
            "stream.egress_lines", "stream.egress_mb", "agg.driver_ms",
            "agg.driver_calls", "agg.driver_lines_in"), 0.0)
        for i, sp in enumerate(tracer.spans):
            if sp.inv != inv:
                continue
            if sp.name == "backend_spark.driver_exec":
                m["backend_spark.driver_exec_ms"] += sp.ms
                m["backend_spark.driver_exec_nodes"] += 1
            elif sp.name == "backend_spark.run_dfg_spark":
                m["backend_spark.self_ms"] += selfs[i]
            elif sp.name == "stream.ingest":
                m["stream.ingest_ms"] += sp.ms
                m["stream.ingest_calls"] += 1
                m["stream.ingest_lines"] += sp.attrs.get("lines", 0)
                m["stream.ingest_mb"] += sp.attrs.get("mb", 0.0)
            elif sp.name == "stream.split":
                m["stream.split_ms"] += sp.ms
                m["stream.split_calls"] += 1
            elif sp.name == "stream.sink":
                m["stream.sink_ms"] += sp.ms
                m["stream.sink_calls"] += 1
                m["stream.egress_lines"] += sp.attrs.get("lines", 0)
                m["stream.egress_mb"] += sp.attrs.get("mb", 0.0)
            elif sp.name == "agg.driver":
                m["agg.driver_ms"] += sp.ms
                m["agg.driver_calls"] += 1
                m["agg.driver_lines_in"] += sp.attrs.get("lines_in", 0)
        for k, v in m.items():
            per.setdefault(k, []).append(v)
    return {k: _median(v) for k, v in per.items()}


def seq_command_metrics(tracer: Tracer, invs: List[str],
                        commands: List[str]) -> Dict[str, float]:
    """``seq.cmd.<cmd>.{ms,lines_in,lines_out}`` summed per invocation over
    every ``exec_node`` call of that command, median over ``invs``."""
    per: Dict[str, List[float]] = {}
    for inv in invs:
        m = {f"seq.cmd.{c}.{k}": 0.0 for c in commands
             for k in ("ms", "lines_in", "lines_out")}
        for sp in tracer.spans:
            if sp.inv == inv and sp.name == "seq.exec_node":
                c = sp.attrs.get("cmd")  # absent when the command raised
                if c not in commands:
                    continue
                m[f"seq.cmd.{c}.ms"] += sp.ms
                m[f"seq.cmd.{c}.lines_in"] += sp.attrs["lines_in"]
                m[f"seq.cmd.{c}.lines_out"] += sp.attrs["lines_out"]
        for k, v in m.items():
            per.setdefault(k, []).append(v)
    return {k: _median(v) for k, v in per.items()}


def layer_self_ms(tracer: Tracer, invs: List[str],
                  layers: tuple) -> Dict[str, float]:
    """Median over ``invs`` of each layer's summed self time."""
    selfs = tracer.self_ms()
    per: Dict[str, List[float]] = {name: [] for name in layers}
    for inv in invs:
        tot = dict.fromkeys(layers, 0.0)
        for i, sp in enumerate(tracer.spans):
            if sp.inv == inv and sp.name in tot:
                tot[sp.name] += selfs[i]
        for k, v in tot.items():
            per[k].append(v)
    return {k: _median(v) for k, v in per.items()}
