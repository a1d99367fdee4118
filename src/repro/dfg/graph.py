"""The dataflow-graph model of §4.2.

Nodes are commands (functions ``[D*] -> [D*]``); edges are streams (files or
pipes). The model's distinguishing feature — the one the paper calls out
against other DFG models — is that a node's *input consumption order* is
encoded: ``Node.inputs`` is an ordered list, and streaming commands consume
the concatenation of those streams in that order (static/configuration
inputs are held separately in ``Node.statics``).

Node kinds:

* ``cmd``   — an original command node (annotated class S/P/N/E),
* ``map``   — a parallel copy produced by transformation T (its argv may be
  the clause's ``map_argv`` override),
* ``agg``   — an aggregate node merging map outputs (names a function in
  :mod:`repro.runtime.aggregators`),
* ``cat``/``split``/``relay``/``eager`` — auxiliary nodes of §4.3/§5.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.annotations.model import Resolved


@dataclass
class Edge:
    eid: int
    kind: str = "pipe"  # "pipe" | "file"
    label: Optional[str] = None  # file name for kind == "file"
    src: Optional[int] = None  # producing node (None: graph input)
    dst: Optional[int] = None  # consuming node (None: graph output)
    # static file chunking: (k, w) serves the k-th of w contiguous line
    # ranges of the input file — how PaSh parallelizes *file* inputs without
    # a runtime split node (the "w/o split" configs of §6.1 still
    # parallelize the first pipeline segment)
    chunk: Optional[Tuple[int, int]] = None


def split_chunks(lines: List[str], width: int) -> List[List[str]]:
    """PaSh's split: count the input, then cut it into ``width`` contiguous
    chunks; chunk ``k`` (the ``(k, width)`` of ``Edge.chunk``) is
    ``lines[k*n//width : (k+1)*n//width]``, so with fewer lines than chunks
    some chunks are empty."""
    n = len(lines)
    return [lines[k * n // width: (k + 1) * n // width] for k in range(width)]


@dataclass
class Node:
    nid: int
    kind: str  # cmd | map | agg | cat | split | relay | eager
    cmd: str = ""  # command name for cmd/map nodes
    argv: Tuple[str, ...] = ()
    cls: str = "stateless"
    inputs: List[int] = field(default_factory=list)  # ordered streaming edges
    statics: List[int] = field(default_factory=list)  # config input edges
    outputs: List[int] = field(default_factory=list)
    # the command's resolution; an agg node carries the one of the command
    # whose outputs it merges
    resolved: Optional[Resolved] = None
    agg_name: Optional[str] = None  # for kind == "agg"
    # a copy with a map-argv override (e.g. cat -n's map is plain cat), or of
    # a node with several streaming inputs, reads its chunk from stdin
    # rather than the original file operands
    via_stdin: bool = False


class DFG:
    """A mutable dataflow graph with helpers for building and rewriting."""

    def __init__(self) -> None:
        self.nodes: Dict[int, Node] = {}
        self.edges: Dict[int, Edge] = {}
        self._next_n = 0
        self._next_e = 0

    # -- construction ------------------------------------------------------
    def add_edge(self, *, kind: str = "pipe", label: Optional[str] = None,
                 chunk: Optional[Tuple[int, int]] = None) -> Edge:
        e = Edge(self._next_e, kind, label, chunk=chunk)
        self.edges[e.eid] = e
        self._next_e += 1
        return e

    def add_node(self, **kw) -> Node:
        n = Node(self._next_n, **kw)
        self.nodes[n.nid] = n
        self._next_n += 1
        for eid in n.inputs + n.statics:
            self.edges[eid].dst = n.nid
        for eid in n.outputs:
            self.edges[eid].src = n.nid
        return n

    # -- queries -------------------------------------------------------------
    def graph_outputs(self) -> List[int]:
        return [e.eid for e in self.edges.values() if e.dst is None and e.src is not None]

    def topo_order(self) -> List[int]:
        """Kahn topological order over nodes (streaming + static edges)."""
        indeg = {nid: 0 for nid in self.nodes}
        for e in self.edges.values():
            if e.src is not None and e.dst is not None:
                indeg[e.dst] += 1
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: List[int] = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for eid in self.nodes[nid].outputs:
                dst = self.edges[eid].dst
                if dst is not None:
                    indeg[dst] -= 1
                    if indeg[dst] == 0:
                        ready.append(dst)
        if len(order) != len(self.nodes):
            raise ValueError("DFG has a cycle")
        return order

    def node_count(self, kinds: Optional[Iterable[str]] = None) -> int:
        if kinds is None:
            return len(self.nodes)
        ks = set(kinds)
        return sum(1 for n in self.nodes.values() if n.kind in ks)

    def kind_histogram(self) -> Dict[str, int]:
        h: Dict[str, int] = {}
        for n in self.nodes.values():
            h[n.kind] = h.get(n.kind, 0) + 1
        return h

    def class_structure(self) -> Dict[str, int]:
        """Count of original command nodes per parallelizability class —
        the "Structure" column of Tab. 2."""
        from repro.annotations.model import SHORT

        h: Dict[str, int] = {}
        for n in self.nodes.values():
            if n.kind == "cmd":
                c = SHORT[n.cls]
                h[c] = h.get(c, 0) + 1
        return h
