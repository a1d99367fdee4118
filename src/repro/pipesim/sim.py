"""Fixed-step fluid simulation of a pipeline of processes.

Model (faithful to §5's discussion):

* a **node** processes lines at ``rate`` lines/sec; *streaming* nodes
  consume their input edges strictly **in order** (the paper's ordered
  consumption: ``cat t1 t2`` reads t2 only after t1 hits EOF) and emit as
  they go; *blocking* nodes (sort, split) buffer everything, then emit;
* an **edge** buffers lines under one of three disciplines:
  ``fifo``  — bounded (64 KiB ≙ ``FIFO_CAP`` lines): writers block when
  full (Fig. 8a); ``file`` — unbounded, but the reader waits for the
  writer's EOF before reading (Fig. 8c, "blocking eager"); ``eager`` —
  unbounded and readable while being written (Fig. 8d, PaSh's eager relay);
* **PIPE signals**: a writer to a pipe whose reader has exited is killed at
  its next write — *only if the reader had opened the pipe*. A reader that
  exits before ever opening a FIFO leaves its writer blocked forever: the
  dangling-FIFO deadlock of §5, which ``pash_cleanup`` (the emitted
  wait-then-kill epilogue) resolves.

Rates are calibrated per command family (relative costs measured on this
machine's command implementations; see RATES) and per-edge line volumes are
taken from an instrumented sequential run at sample scale, so the simulator
reproduces *shapes*, not absolute seconds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

FIFO_CAP = 512.0  # lines; ~64KiB pipes at ~128B/line

# lines/second per command family on one core — relative magnitudes matter
RATES: Dict[str, float] = {
    "cat": 5e6, "eager": 8e6, "relay": 8e6, "split": 4e6,
    "tr": 1.2e6, "cut": 1.0e6, "sed": 8e5, "grep": 8e5, "col": 2e6,
    "grep-nfa": 5e4,  # expensive backtracking regex (§6.1 NFA-Regex)
    "sort-base": 6e6,  # comparison-based: rate = sort-base / log2(n)
    "uniq": 1.5e6, "wc": 2.5e6, "comm": 1.2e6,
    "head": 1e7, "tail": 1e7, "tac": 2e6, "nl": 2e6,
    "sha1sum": 9e5, "diff": 3e5, "awk": 6e5, "xargs": 2e5, "drain": 5e6,
    "bigrams_aux": 8e5, "trigrams_aux": 8e5, "bigrams_aux_map": 8e5,
    "trigrams_aux_map": 8e5, "strip_html": 6e5, "word_stem": 7e5,
    "url_extract": 7e5, "cutadapt_sim": 1.5e5, "curl": 3e5, "gunzip": 6e5,
    "agg": 1.5e6,
    "default": 5e5,
}


@dataclass
class SimNode:
    name: str
    rate: float
    inputs: List[int] = field(default_factory=list)  # consumed in order
    outputs: List[int] = field(default_factory=list)
    blocking: bool = False
    source_lines: float = 0.0  # >0: source node
    early_exit: Optional[float] = None  # exit after emitting N lines (head)
    split_even: bool = False  # emit outputs sequentially in equal chunks
    emit_rate: float = 0.0  # blocking nodes: drain rate after EOF (0: = rate)
    # expected output volume (for streaming ratio); set by builder
    out_volume: float = 0.0
    in_volume: float = 0.0


@dataclass
class SimEdge:
    kind: str = "fifo"  # fifo | file | eager
    src: Optional[int] = None
    dst: Optional[int] = None
    preloaded: float = 0.0  # graph-input files: contents present at t=0


@dataclass
class SimResult:
    time: float
    deadlocked: bool
    finished: Dict[str, float]  # node name -> completion time


class _EdgeState:
    __slots__ = ("produced", "consumed", "closed", "opened")

    def __init__(self) -> None:
        self.produced = 0.0
        self.consumed = 0.0
        self.closed = False
        self.opened = False  # reader has started on this edge


class _NodeState:
    __slots__ = ("in_idx", "stash", "emitted", "done", "killed", "finish_t")

    def __init__(self) -> None:
        self.in_idx = 0
        self.stash = 0.0  # blocking nodes: buffered-but-unemitted input
        self.emitted = 0.0
        self.done = False
        self.killed = False
        self.finish_t = 0.0


def simulate(
    nodes: List[SimNode],
    edges: List[SimEdge],
    *,
    pash_cleanup: bool = False,
    dt: Optional[float] = None,
    max_steps: int = 200_000,
) -> SimResult:
    """Run the concurrent schedule; returns completion time or deadlock."""
    ns = [_NodeState() for _ in nodes]
    es = [_EdgeState() for _ in edges]
    for e, st in zip(edges, es):
        if e.src is None:  # input files: fully present and EOF-terminated
            st.produced = e.preloaded
            st.closed = True
    order = list(range(len(nodes)))  # builder supplies topological order

    total_work = sum(max(n.in_volume, n.source_lines) / n.rate for n in nodes)
    if dt is None:
        dt = max(total_work, 1e-6) / 2000.0
    # The FIFO cap must stay above the per-step budget, or the step
    # granularity (not the pipe) becomes the throughput limit; a bounded
    # cap still stalls writers whose reader is busy on another input,
    # which is the semantics the cap exists to model (Fig. 8a).
    fifo_cap = max(FIFO_CAP, 2.0 * dt * max(n.rate for n in nodes))

    sinks = [i for i, n in enumerate(nodes)
             if all(edges[e].dst is None for e in n.outputs) or not n.outputs]

    def reader_exited(eid: int) -> bool:
        d = edges[eid].dst
        return d is not None and ns[d].done

    t = 0.0
    for _ in range(max_steps):
        progress = False
        all_done = all(s.done for s in ns)
        if all_done:
            return SimResult(t, False, {nodes[i].name: ns[i].finish_t for i in range(len(nodes))})

        if pash_cleanup and all(ns[i].done for i in sinks):
            # PaSh's epilogue: wait for the DFG's output producers, then
            # SIGPIPE everything still upstream (§5)
            for i, s in enumerate(ns):
                if not s.done:
                    s.done, s.killed, s.finish_t = True, True, t
            continue

        for i in order:
            n, s = nodes[i], ns[i]
            if s.done:
                continue
            budget = n.rate * dt

            # -- write-side PIPE semantics ---------------------------------
            blocked_on_pipe = False
            for eid in n.outputs:
                if reader_exited(eid):
                    if es[eid].opened:
                        s.done, s.killed, s.finish_t = True, True, t
                        for oe in n.outputs:
                            es[oe].closed = True
                        progress = True
                    else:
                        blocked_on_pipe = True  # dangling FIFO: stuck forever
                    break
            if s.done or blocked_on_pipe:
                continue

            # -- sources -----------------------------------------------------
            if n.source_lines > 0:
                space = _out_space(n, s, es, edges, fifo_cap)
                amt = min(budget, n.source_lines - s.emitted, space)
                if amt > 1e-12:
                    _emit(n, s, es, amt)
                    progress = True
                if n.source_lines - s.emitted <= 1e-9:
                    _finish(n, s, es, t)
                    progress = True
                continue

            # -- consume from the current input edge (strictly in order) ----
            if n.early_exit is not None:
                ratio = 1.0  # head streams 1:1 until it exits
            else:
                ratio = (n.out_volume / n.in_volume) if n.in_volume else 0.0
            if not (n.blocking or n.split_even):
                # streaming: writes block when the output pipe is full, so
                # consumption is capped by downstream space too
                space = _out_space(n, s, es, edges, fifo_cap)
                if ratio > 1e-12:
                    budget = min(budget, space / ratio)
            consumed_now = 0.0
            while budget > 1e-12 and s.in_idx < len(n.inputs):
                eid = n.inputs[s.in_idx]
                e, st = edges[eid], es[eid]
                st.opened = True
                avail = st.produced - st.consumed
                if e.kind == "file" and not st.closed:
                    avail = 0.0  # reader waits for writer EOF (Fig. 8c)
                take = min(budget, avail)
                if take > 1e-12:
                    st.consumed += take
                    budget -= take
                    consumed_now += take
                    s.stash += take
                    progress = True
                if st.closed and st.produced - st.consumed <= 1e-9:
                    s.in_idx += 1
                    progress = True
                    continue
                break

            in_done = s.in_idx >= len(n.inputs)

            # -- emit --------------------------------------------------------
            if n.blocking or n.split_even:
                if in_done:
                    pending = n.out_volume - s.emitted
                    space = _out_space(n, s, es, edges, fifo_cap)
                    amt = min((n.emit_rate or n.rate) * dt, pending, space)
                    if amt > 1e-12:
                        _emit(n, s, es, amt)
                        progress = True
                    if n.out_volume - s.emitted <= 1e-9:
                        _finish(n, s, es, t)
                        progress = True
            else:
                amt = consumed_now * ratio
                if amt > 1e-12:
                    _emit(n, s, es, amt)
                    progress = True
                if n.early_exit is not None and s.emitted >= n.early_exit - 1e-9:
                    _finish(n, s, es, t)
                    progress = True
                elif in_done:
                    if ratio == 0.0 and n.out_volume > 0 and s.emitted < n.out_volume:
                        _emit(n, s, es, n.out_volume - s.emitted)  # e.g. wc's line
                    _finish(n, s, es, t)
                    progress = True
        t += dt
        if not progress:
            return SimResult(t, True, {nodes[i].name: ns[i].finish_t for i in range(len(nodes))})
    raise RuntimeError("pipesim: step budget exhausted")


def _out_space(n: SimNode, s: _NodeState, es, edges, fifo_cap: float) -> float:
    space = float("inf")
    for eid in n.outputs:
        e, st = edges[eid], es[eid]
        if e.dst is None:
            continue  # terminal sink consumes at infinite rate
        if e.kind == "fifo":
            space = min(space, fifo_cap - (st.produced - st.consumed))
    return max(space, 0.0)


def _emit(n: SimNode, s: _NodeState, es, amt: float) -> None:
    if n.split_even and n.outputs:
        # fill output chunks sequentially: chunk k holds out_volume / w lines
        w = len(n.outputs)
        chunk = n.out_volume / w if n.out_volume else 0.0
        left = amt
        while left > 1e-12 and chunk > 0:
            k = min(int(s.emitted / chunk), w - 1)
            room = (k + 1) * chunk - s.emitted
            step = min(left, room) if k < w - 1 else left
            es[n.outputs[k]].produced += step
            s.emitted += step
            left -= step
            if k < w - 1 and s.emitted >= (k + 1) * chunk - 1e-9:
                es[n.outputs[k]].closed = True  # chunk k is whole: EOF
        return
    for eid in n.outputs:  # tee / single output: every line to every edge
        es[eid].produced += amt
    s.emitted += amt


def _finish(n: SimNode, s: _NodeState, es, t: float) -> None:
    s.done = True
    s.finish_t = t
    for eid in n.outputs:
        es[eid].closed = True


# --------------------------------------------------------------------------
# building a simulation from a transformed DFG
# --------------------------------------------------------------------------


def _rate_for(cmd: str, argv: Tuple[str, ...], kind: str,
              in_vol: float = 1.0, n_inputs: int = 1) -> float:
    import math

    if cmd in ("sort", "agg:sort"):
        # comparison-based: a full sort of n lines costs ~n log2 n; a k-way
        # merge costs ~n log2 k — this asymmetry is exactly why the paper's
        # map/aggregate sort scales (§6.5) while staying sub-linear
        factor = math.log2(max(n_inputs + 1, 2)) if kind == "agg" \
            else math.log2(max(in_vol, 2.0))
        return RATES["sort-base"] / max(factor, 1.0)
    if kind == "agg":
        return RATES.get(cmd, RATES["agg"])
    if cmd == "grep" and any(("(" in a or "*" in a) and len(a) > 8 for a in argv):
        return RATES["grep-nfa"]
    return RATES.get(cmd, RATES["default"])


def sim_from_dfg(g, volumes: Dict[int, int], *, edge_discipline: str = "eager",
                 scale: float = 1.0) -> Tuple[List[SimNode], List[SimEdge], Dict[int, int]]:
    """Build a simulation from a (transformed) DFG.

    ``volumes`` maps DFG edge id -> line count from an instrumented
    sequential run (scaled by ``scale``). ``edge_discipline`` applies to the
    output edges of eager nodes: "eager" (PaSh) or "file" (blocking eager);
    eager nodes are plain relays either way. All other pipes are bounded
    FIFOs; file-kind DFG edges at the graph boundary are unbounded sources.
    """
    order = g.topo_order()
    nid_to_idx = {nid: i for i, nid in enumerate(order)}
    eid_to_idx: Dict[int, int] = {}
    edges: List[SimEdge] = []
    for eid, e in g.edges.items():
        kind = "fifo"
        if e.src is None or e.dst is None:
            kind = "eager"  # boundary files: always readable / writable
        elif e.src is not None and g.nodes[e.src].kind == "eager":
            kind = edge_discipline
        eid_to_idx[eid] = len(edges)
        edges.append(SimEdge(
            kind=kind,
            src=None if e.src is None else nid_to_idx[e.src],
            dst=None if e.dst is None else nid_to_idx[e.dst],
            preloaded=volumes.get(eid, 0) * scale if e.src is None else 0.0,
        ))

    nodes: List[SimNode] = []
    for nid in order:
        n = g.nodes[nid]
        in_v = sum(volumes.get(e, 0) for e in n.inputs + n.statics) * scale
        # a tee writes every line to each output: its volume is one output's
        out_vols = [volumes.get(e, 0) for e in n.outputs]
        out_v = (max(out_vols, default=0) if n.kind == "relay" else sum(out_vols)) * scale
        blocking = n.cmd in ("sort", "tac", "sha1sum", "diff", "shuf") \
            or n.kind == "split" or (n.kind == "agg" and n.agg_name == "tac")
        early = None
        if n.cmd == "head":
            early = out_v
        sn = SimNode(
            name=f"{n.kind}:{n.cmd}:{nid}",
            rate=_rate_for(n.cmd, n.argv, n.kind, in_v, len(n.inputs)),
            emit_rate=RATES["drain"],
            inputs=[eid_to_idx[e] for e in n.inputs + n.statics],
            outputs=[eid_to_idx[e] for e in n.outputs],
            blocking=blocking and n.kind != "split",
            split_even=n.kind == "split",
            early_exit=early,
            in_volume=max(in_v, 1e-9),
            out_volume=out_v,
        )
        if not n.inputs and not n.statics:  # source command (e.g. curl)
            sn.source_lines = max(out_v, 1e-9)
        nodes.append(sn)
    return nodes, edges, eid_to_idx


def sequential_time(g, volumes: Dict[int, int], *, scale: float = 1.0) -> float:
    """Sequential schedule: one node at a time, in topological order."""
    total = 0.0
    for nid in g.topo_order():
        n = g.nodes[nid]
        in_v = sum(volumes.get(e, 0) for e in n.inputs + n.statics) * scale
        out_v = sum(volumes.get(e, 0) for e in n.outputs) * scale
        work = max(in_v, out_v)
        total += work / _rate_for(n.cmd, n.argv, n.kind, in_v, len(n.inputs))
    return total
