"""Sequential backend: the reference semantics of the user's script.

``run_seq`` interprets a compiled script exactly as a POSIX shell would
(modulo exit codes — our commands don't have them, so ``&&`` always
continues, which is also what happens on the benchmarks' success paths).
It doubles as the sequential-baseline timer and as the correctness oracle
for the parallel backends.

``run_steps`` is every backend's loop over a script's steps: the backend
runs each DFG, ``_run_pipeline`` each opaque pipeline, whose subshells,
``for`` loops and ``<(…)`` bodies the frontend compiles at their place.

``run_dfg_seq`` executes *any* DFG — original or transformed — on Python
line lists; the metamorphic tests assert ``run_dfg_seq(parallelize(g, w))
== run_dfg_seq(g)`` for every benchmark script and width.
"""
from __future__ import annotations

from collections import ChainMap
from typing import Callable, Dict, List, Optional

from repro.annotations.model import Resolved
from repro.commands.base import CommandError, ExecEnv, run_cli
from repro.dfg.graph import DFG, Edge, Node, split_chunks
from repro.runtime.aggregators import aggregate
from repro.shell.ast import Pipeline, Script, SimpleCommand, Word
from repro.shell.expand import expand_word

from .frontend import CompiledScript, assign, compile_script

# a backend's executor of one DFG step on the script's stdin
RunDfg = Callable[[DFG, List[str]], List[str]]


def exec_node(node: Node, in_streams: List[List[str]],
              static_streams: List[List[str]], env: ExecEnv) -> List[str]:
    """Execute one cmd/map node with its input edges bound."""
    res: Resolved = node.resolved  # type: ignore[assignment]
    overlay: Dict[str, List[str]] = {}
    stdin: List[str] = []
    if node.via_stdin:
        for lines in in_streams:
            stdin.extend(lines)
    else:
        assert len(res.inputs) == len(in_streams), (node.cmd, res.inputs, len(in_streams))
        for spec, lines in zip(res.inputs, in_streams):
            if spec == "stdin" or res.operands[spec] == "-":
                stdin.extend(lines)
            else:
                overlay[res.operands[spec]] = lines
    for idx, lines in zip(res.static_inputs, static_streams):
        overlay[res.operands[idx]] = lines
    if overlay:
        env = ExecEnv(files={**env.files, **overlay}, ftypes=env.ftypes)
    return run_cli(node.cmd, list(node.argv), stdin, env)


def read_input(e: Edge, env: ExecEnv, stdin: Optional[List[str]]) -> List[str]:
    """The lines of graph input ``e``: the ``stdin`` argument for the
    ``"<stdin>"`` label, else the file the label names."""
    assert e.src is None, f"edge {e.eid} consumed before produced"
    return list(stdin or []) if e.label == "<stdin>" else env.read(e.label or "")


def write_outputs(g: DFG, lines_of: Callable[[int], List[str]], env: ExecEnv) -> List[str]:
    """Route the graph's output edges in order: a ``file`` edge's lines
    go to ``env.files``, the others are concatenated and returned (stdout)."""
    out: List[str] = []
    for eid in g.graph_outputs():
        e = g.edges[eid]
        if e.kind == "file" and e.label:
            env.files[e.label] = lines_of(eid)
        else:
            out.extend(lines_of(eid))
    return out


def run_dfg_seq(g: DFG, env: ExecEnv, stdin: Optional[List[str]] = None,
                record: Optional[Dict[int, int]] = None) -> List[str]:
    """Execute a DFG on line lists; returns the graph's (merged) output.

    When ``record`` is given, it is filled with per-edge line counts — the
    volume calibration the pipe simulator uses (pipesim docstring).
    """
    values: Dict[int, List[str]] = {}

    def edge_value(eid: int) -> List[str]:
        if eid in values:
            return values[eid]
        e = g.edges[eid]
        v = read_input(e, env, stdin)
        if e.chunk is not None:  # static file chunking (see Edge.chunk)
            k, w = e.chunk
            v = split_chunks(v, w)[k]
        values[eid] = v
        return v

    for nid in g.topo_order():
        n = g.nodes[nid]
        ins = [edge_value(e) for e in n.inputs]
        sts = [edge_value(e) for e in n.statics]
        if n.kind in ("cmd", "map"):
            values[n.outputs[0]] = exec_node(n, ins, sts, env)
        elif n.kind == "cat":
            values[n.outputs[0]] = [l for s in ins for l in s]
        elif n.kind == "split":
            for eid, chunk in zip(n.outputs, split_chunks(ins[0], len(n.outputs))):
                values[eid] = chunk
        elif n.kind in ("eager", "relay"):
            for eid in n.outputs:  # relay may tee to several outputs
                values[eid] = list(ins[0])
        elif n.kind == "agg":
            values[n.outputs[0]] = aggregate(n.agg_name, ins, n.resolved)  # type: ignore[arg-type]
        else:
            raise ValueError(f"unknown node kind {n.kind}")

    if record is not None:
        for eid, v in values.items():
            record[eid] = len(v)
    return write_outputs(g, values.__getitem__, env)


# --------------------------------------------------------------------------
# opaque pipelines (plain sequential shell semantics)
# --------------------------------------------------------------------------


def _expand(w: Word, shell_env: Dict[str, str]) -> str:
    t = expand_word(w, shell_env)
    if t is None:
        raise CommandError(f"cannot expand {w!r} at runtime")
    return t


def _run_simple(cmd: SimpleCommand, stdin: List[str], env: ExecEnv,
                shell_env: Dict[str, str], run_dfg: RunDfg) -> List[str]:
    if not cmd.words:
        assign(cmd, shell_env)
        return []
    words: List[str] = []
    procsubs: Dict[str, List[str]] = {}  # operand name -> the <(…) body's output
    for w in cmd.words:
        if w.has_procsub():  # named as bash names them: /dev/fd/63, 62, …
            words.append(f"/dev/fd/{63 - len(procsubs)}")
            body = compile_script(w.segments[0][1].body, shell_env)
            procsubs[words[-1]] = run_steps(body, env, run_dfg)
        else:
            words.append(_expand(w, shell_env))
    out_file = append = None
    for r in cmd.redirects:
        t = _expand(r.target, shell_env)
        if r.op == "<":
            stdin = env.read(t)
        else:
            out_file, append = t, r.op == ">>"
    # the command reads its <(…) operands, and what it writes lands in env.files
    cmd_env = ExecEnv(ChainMap(env.files, procsubs), env.ftypes) if procsubs else env
    out = run_cli(words[0], words[1:], stdin, cmd_env)
    if out_file is None:
        return out
    env.files[out_file] = (env.files.get(out_file, []) if append else []) + out
    return []


def _run_pipeline(pipe: Pipeline, stdin: List[str], env: ExecEnv,
                  shell_env: Dict[str, str], run_dfg: RunDfg) -> List[str]:
    """Run an opaque pipeline: each simple command here, each subshell or
    ``for`` compiled at its place and run through ``run_steps``."""
    for c in pipe.commands:
        if isinstance(c, SimpleCommand):
            # a copy: a subshell that reads it empties it, and curl
            # returns the downloaded file's own list
            stdin = list(_run_simple(c, stdin, env, shell_env, run_dfg))
        else:
            body = compile_script(Script((Pipeline((c,)),), (False,)), shell_env)
            stdin = run_steps(body, env, run_dfg, stdin)
    return stdin


def run_steps(cs: CompiledScript, env: ExecEnv, run_dfg: RunDfg,
              stdin: Optional[List[str]] = None) -> List[str]:
    """Run a compiled script's steps in order, every backend's one loop:
    ``run_dfg(g, stdin)`` executes each DFG step, ``_run_pipeline`` each
    opaque pipeline on a copy of the variables at its position. ``stdin``
    is the script's one stream, read in place: a DFG step that reads
    ``<stdin>`` empties it, so later steps read EOF. Output is the
    concatenated stdout of all steps; file sinks land in ``env.files``."""
    stdin = [] if stdin is None else stdin
    out: List[str] = []
    for step in cs.steps:
        if step.kind == "dfg":
            out.extend(run_dfg(step.dfg, stdin))
            if any(e.label == "<stdin>" for e in step.dfg.edges.values()):
                stdin.clear()
        elif isinstance(step.ast, Pipeline):
            out.extend(_run_pipeline(step.ast, stdin, env, dict(step.env), run_dfg))
        else:  # a for whose items do not expand: compiling it again gives this step
            raise CommandError("cannot interpret ForLoop")
    return out


def run_seq(script, env: ExecEnv, *, stdin: Optional[List[str]] = None,
            shell_env: Optional[Dict[str, str]] = None) -> List[str]:
    """Run a script (source text or CompiledScript) sequentially: each DFG
    step on the *untransformed* graph, through ``run_steps``."""
    cs = script if isinstance(script, CompiledScript) else compile_script(script, shell_env)
    return run_steps(cs, env, lambda g, sin: run_dfg_seq(g, env, sin), list(stdin or []))
