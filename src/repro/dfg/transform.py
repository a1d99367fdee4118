"""Parallelization-exposing graph transformations (§4.3).

``parallelize`` applies, in one topological pass, the paper's
transformations:

* **t1** (implicit): a parallelizable node with several ordered streaming
  inputs treats them as the concatenation of its input *bundle* — the
  explicit ``cat`` is commuted away immediately by T, so plain ``cat`` nodes
  dissolve into bundles;
* **t2**: a parallelizable node whose bundle has width 1 gets a ``split``
  node (with eager relays on all outputs but the last, §5) to raise the
  width to ``--width``;
* **T**: a ⓢ or ⓟ node fed by a width-n bundle is replaced by n copies.
  For a ⓢ node the concatenation then commutes past the copies; a ⓟ
  node's copies are ``map`` nodes feeding its aggregator (a balanced binary
  tree for associative aggregators — matching the paper's process counts,
  e.g. sort at width 8 = 8 maps + 7 aggregators + 14 eager relays — or a
  single n-ary node otherwise);
* **t3**: ``eager`` relay nodes inserted on aggregator inputs, split
  outputs and the outputs of the ``tee`` that copies a pipe-fed static
  input to every replica (§5, Fig. 3).

Non-parallelizable nodes (ⓝ, ⓔ, ⓟ without an aggregator) act as width
sinks: their input bundles are merged back with explicit ``cat`` nodes and
they run sequentially — exactly why "no-split" configurations stay
sequential after the first such node (§6.1).
"""
from __future__ import annotations

from typing import Dict, List, Optional

from repro.annotations.model import CLASS_P, CLASS_S, Resolved

from .graph import DFG, Edge, Node

# aggregators that compose pairwise -> balanced binary tree; the rest get
# one n-ary aggregator node. Pairwise composition feeds an aggregator's
# output back in as a part, so it needs parts the command itself produced:
# a clause with a ``map_argv`` (cat -n and nl map with plain cat) gets the
# n-ary node whatever its aggregator.
BINARY_AGGS = {"rerun", "uniq_c", "wc", "sum", "tac"}


def parallelize(
    src: DFG,
    width: int,
    *,
    enable_split: bool = True,
    enable_eager: bool = True,
) -> DFG:
    g = DFG()
    bundle: Dict[int, List[int]] = {}  # orig streaming edge -> new edges
    static_new: Dict[int, int] = {}  # orig static-feeding edge -> new edge

    def new_input_edge(orig: Edge) -> int:
        e = g.add_edge(kind=orig.kind, label=orig.label)
        return e.eid

    def in_bundle(orig_eid: int) -> List[int]:
        if orig_eid not in bundle:
            orig = src.edges[orig_eid]
            assert orig.src is None, "non-input edge consumed before produced"
            bundle[orig_eid] = [new_input_edge(orig)]
        return bundle[orig_eid]

    def statics_for(n: Node, copies: int) -> List[List[int]]:
        """One list of static edges per copy (replication duplicates
        configuration inputs; pipe-fed statics are teed via a relay)."""
        per_copy: List[List[int]] = [[] for _ in range(copies)]
        for orig_eid in n.statics:
            orig = src.edges[orig_eid]
            if orig.src is None:  # graph-input file: one fresh edge per copy
                for c in range(copies):
                    per_copy[c].append(new_input_edge(orig))
            else:
                produced = static_new.pop(orig_eid, None)
                if produced is None:
                    raise ValueError("static input reused or not produced")
                if copies == 1:
                    per_copy[0].append(produced)
                else:
                    outs = [g.add_edge().eid for _ in range(copies)]
                    g.add_node(kind="relay", cmd="tee", inputs=[produced], outputs=outs)
                    # eager on every tee output: a copy reads its streaming
                    # input before its static one, and a full pipe to any
                    # copy would stall the tee for all of them (§5)
                    outs = [eager_wrap(e) for e in outs]
                    for c in range(copies):
                        per_copy[c].append(outs[c])
        return per_copy

    def eager_wrap(eid: int) -> int:
        if not enable_eager:
            return eid
        out = g.add_edge().eid
        g.add_node(kind="eager", cmd="eager", inputs=[eid], outputs=[out])
        return out

    def do_split(eid: int) -> List[int]:
        outs = [g.add_edge().eid for _ in range(width)]
        g.add_node(kind="split", cmd="split", inputs=[eid], outputs=outs)
        # eager on all split outputs except the last (§5 "Splitting")
        return [eager_wrap(e) for e in outs[:-1]] + [outs[-1]]

    def widen(ib: List[int]) -> List[int]:
        """Raise a width-1 bundle to ``width``: graph-input files are
        chunked statically (free — no runtime node); anything else needs
        the runtime split primitive, gated on ``enable_split``."""
        if len(ib) != 1 or width <= 1:
            return ib
        e0 = g.edges[ib[0]]
        if e0.src is None and e0.kind == "file" and e0.label and e0.chunk is None:
            del g.edges[ib[0]]  # replace the un-chunked file edge
            return [
                g.add_edge(kind="file", label=e0.label, chunk=(k, width)).eid
                for k in range(width)
            ]
        if enable_split:
            return do_split(ib[0])
        return ib

    def merge(b: List[int], *, kind: str = "pipe", label: Optional[str] = None,
              output: bool = False) -> int:
        """One edge carrying the concatenation of ``b``. A graph ``output``
        needs a node to produce it, even when ``b`` is one graph input (a
        script of plain ``cat``s)."""
        if len(b) == 1 and kind == "pipe" and not (output and g.edges[b[0]].src is None):
            return b[0]
        out = g.add_edge(kind=kind, label=label).eid
        g.add_node(kind="cat", cmd="cat", inputs=list(b), outputs=[out])
        return out

    def agg_tree(inputs: List[int], agg_name: str, spec: Resolved) -> int:
        """Aggregator stage over ordered map outputs; eager on every
        aggregator input (Fig. 3 places eager before sort -m). A node's
        ``cmd`` names the command it merges, e.g. ``agg:sort`` for rerun."""
        label = f"agg:{spec.command if agg_name == 'rerun' else agg_name}"
        if agg_name in BINARY_AGGS and not spec.map_argv:
            level = inputs
            while len(level) > 1:
                nxt: List[int] = []
                for i in range(0, len(level) - 1, 2):
                    out = g.add_edge().eid
                    g.add_node(
                        kind="agg", cmd=label, agg_name=agg_name, resolved=spec,
                        inputs=[eager_wrap(level[i]), eager_wrap(level[i + 1])],
                        outputs=[out],
                    )
                    nxt.append(out)
                if len(level) % 2:
                    nxt.append(level[-1])
                level = nxt
            return level[0]
        out = g.add_edge().eid
        g.add_node(
            kind="agg", cmd=label, agg_name=agg_name, resolved=spec,
            inputs=[eager_wrap(e) for e in inputs], outputs=[out],
        )
        return out

    order = src.topo_order()
    for nid in order:
        n = src.nodes[nid]
        in_bs = [in_bundle(e) for e in n.inputs]
        flat = [e for b in in_bs for e in b]
        res = n.resolved

        if n.cmd == "cat" and n.cls == CLASS_S and not res.opts and n.inputs:
            out_b = flat  # T commutes the concatenation downstream
        elif n.inputs and (n.cls == CLASS_S or (n.cls == CLASS_P and res.aggregator)):
            ib = widen(flat)
            cmd, argv, via_stdin = n.cmd, n.argv, n.via_stdin
            if len(ib) > 1 and res.map_argv:
                cmd, argv, via_stdin = res.map_argv[0], tuple(res.map_argv[1:]), True
            elif len(ib) > 1 and len(res.inputs) > 1:
                # each copy of a multi-input node reads one chunk of the
                # concatenation via stdin (streaming operands stripped)
                argv, via_stdin = tuple(res.stdin_argv), True
            outs: List[int] = []
            for e, sts in zip(ib, statics_for(n, len(ib))):
                o = g.add_edge().eid
                g.add_node(kind="map" if len(ib) > 1 else "cmd", cmd=cmd, argv=argv,
                           cls=n.cls, resolved=res, inputs=[e], statics=sts,
                           outputs=[o], via_stdin=via_stdin)
                outs.append(o)
            out_b = ([agg_tree(outs, res.aggregator, res)]
                     if n.cls == CLASS_P and len(outs) > 1 else outs)
        else:
            # N, E, P-without-aggregator, or sources: sequential; width sink
            new_ins = [merge(b) for b in in_bs]
            sts = statics_for(n, 1)[0]
            o = g.add_edge().eid
            g.add_node(kind=n.kind, cmd=n.cmd, argv=n.argv, cls=n.cls, resolved=res,
                       inputs=new_ins, statics=sts, outputs=[o], via_stdin=n.via_stdin)
            out_b = [o]

        # register output bundles; a node in our model has one stdout edge.
        # A file sink is always a graph output: the frontend allows ``>``
        # only on a pipeline's last command.
        for out_eid in n.outputs:
            orig_out = src.edges[out_eid]
            if orig_out.dst is None:  # merge to one edge, keep identity
                merge(out_b, kind=orig_out.kind, label=orig_out.label, output=True)
            elif out_eid in src.nodes[orig_out.dst].statics:
                static_new[out_eid] = merge(out_b)
            else:
                bundle[out_eid] = out_b
    return g
