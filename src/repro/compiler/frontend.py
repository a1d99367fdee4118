"""Frontend: from a sequential script to DFGs (§4.1).

The translation pass walks the AST keeping a shell-variable environment.
Pipelines (and the process substitutions feeding them) become dataflow
regions; all other constructs — ``;``/newline sequencing, ``&&``/``||``,
``for`` (unrolled over its statically-known item list) — are barriers
(§4.1: "all other operators represent barrier constructs").

Conservatism, as in the paper: a word that cannot be fully expanded
(unknown variable, command substitution), an unannotated command, one
whose annotation resolves to ⓔ, or a subshell or ``for`` inside a
pipeline makes the *whole pipeline* an opaque step, with a copy of the
shell variables at its position in the script. The backend runs its
simple commands one by one and compiles each compound element here, at
its place; a ``for`` whose items do not expand is the only other opaque
step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.annotations.model import CLASS_E, resolve_invocation
from repro.dfg.graph import DFG
from repro.shell.ast import (
    AndOr,
    ForLoop,
    Pipeline,
    ProcSub,
    Script,
    SimpleCommand,
    Subshell,
    Word,
)
from repro.shell.expand import brace_expand, expand_word
from repro.shell.parser import parse


@dataclass
class Step:
    """One barrier-separated unit: a DFG region, or an opaque pipeline or
    ``for``."""

    kind: str  # "dfg" | "opaque"
    dfg: Optional[DFG] = None
    ast: object = None
    env: Dict[str, str] = field(default_factory=dict)  # opaque: variables here


@dataclass
class CompiledScript:
    steps: List[Step] = field(default_factory=list)


def assign(cmd: SimpleCommand, env: Dict[str, str]) -> None:
    """Apply the bare assignments ``X=v ...`` of ``cmd`` to ``env``: a
    value that cannot be expanded poisons (unsets) the variable."""
    for name, w in cmd.assigns:
        val = expand_word(w, env)
        if val is not None:
            env[name] = val
        else:
            env.pop(name, None)


class _RegionBuilder:
    """Builds one DFG from a pipeline (plus nested process substitutions)."""

    def __init__(self, env: Dict[str, str]):
        self.g = DFG()
        self.env = env
        self._ps_count = 0

    def build_pipeline(self, pipe: Pipeline) -> Tuple[int, str]:
        """Returns (final output edge id, sink). Raises _NotConvertible."""
        prev_out: Optional[int] = None
        sink = "stdout"
        for idx, cmd in enumerate(pipe.commands):
            if not isinstance(cmd, SimpleCommand):
                raise _NotConvertible("subshell in pipeline")
            prev_out, sink = self._add_command(cmd, prev_out, last=idx == len(pipe.commands) - 1)
        assert prev_out is not None
        return prev_out, sink

    def _expand(self, w: Word) -> Optional[str]:
        return expand_word(w, self.env)

    def _add_command(
        self, cmd: SimpleCommand, pipe_in: Optional[int], *, last: bool
    ) -> Tuple[int, str]:
        if cmd.assigns:
            raise _NotConvertible("assignment inside pipeline")
        if not cmd.words:
            raise _NotConvertible("empty command")
        # expand argv; process substitutions become sub-DFGs
        name = self._expand(cmd.words[0])
        if name is None:
            raise _NotConvertible("unexpandable command name")
        argv: List[str] = []
        procsub_edges: Dict[str, int] = {}  # placeholder operand -> edge
        for w in cmd.words[1:]:
            if w.has_procsub():
                ps: ProcSub = w.segments[0][1]  # type: ignore[assignment]
                sub_out = self._build_procsub(ps)
                ph = f"<(ps{self._ps_count})"
                self._ps_count += 1
                procsub_edges[ph] = sub_out
                argv.append(ph)
                continue
            text = self._expand(w)
            if text is None:
                raise _NotConvertible(f"unexpandable word in {name}")
            argv.append(text)

        res = resolve_invocation(name, argv)
        if res.cls == CLASS_E:
            raise _NotConvertible(f"{name} resolves to side-effectful/unknown")

        # redirects
        in_file: Optional[str] = None
        out_file: Optional[str] = None
        for r in cmd.redirects:
            tgt = self._expand(r.target)
            if tgt is None:
                raise _NotConvertible("unexpandable redirect target")
            if r.op == "<":
                in_file = tgt
            elif r.op == ">":
                out_file = tgt
            else:
                raise _NotConvertible(f"redirect {r.op} unsupported")
        if out_file is not None and not last:
            raise _NotConvertible("mid-pipeline output redirect")

        def edge_for_operand(idx: int) -> int:
            opname = res.operands[idx]
            if opname in procsub_edges:
                return procsub_edges[opname]
            if opname == "-":
                return self._stdin_edge(pipe_in, in_file)
            return self.g.add_edge(kind="file", label=opname).eid

        inputs: List[int] = []
        used_pipe = False
        for spec in res.inputs:
            if spec == "stdin":
                inputs.append(self._stdin_edge(pipe_in, in_file))
                used_pipe = used_pipe or pipe_in is not None
            else:
                inputs.append(edge_for_operand(spec))
                if res.operands[spec] == "-":
                    used_pipe = used_pipe or pipe_in is not None
        statics = [edge_for_operand(i) for i in res.static_inputs]
        if pipe_in is not None and not used_pipe:
            # the command ignores the pipe feeding it: semantics unclear
            raise _NotConvertible(f"{name} does not consume its pipe input")

        out_kind, out_label, sink = "pipe", None, "stdout"
        if out_file is not None:
            out_kind, out_label, sink = "file", out_file, out_file
        out_edge = self.g.add_edge(kind=out_kind, label=out_label)
        self.g.add_node(
            kind="cmd", cmd=name, argv=tuple(argv), cls=res.cls,
            resolved=res, inputs=inputs, statics=statics, outputs=[out_edge.eid],
        )
        return out_edge.eid, sink

    def _stdin_edge(self, pipe_in: Optional[int], in_file: Optional[str]) -> int:
        if pipe_in is not None:
            return pipe_in
        if in_file is not None:
            return self.g.add_edge(kind="file", label=in_file).eid
        return self.g.add_edge(kind="file", label="<stdin>").eid

    def _build_procsub(self, ps: ProcSub) -> int:
        body = ps.body
        if not (isinstance(body, Script) and len(body.items) == 1
                and isinstance(body.items[0], Pipeline)):
            raise _NotConvertible("complex process substitution")
        out, sink = self.build_pipeline(body.items[0])
        if sink != "stdout":
            raise _NotConvertible("redirected process substitution")
        return out


class _NotConvertible(Exception):
    pass


def _expand_for_items(items, env: Dict[str, str]) -> Optional[List[str]]:
    out: List[str] = []
    for w in items:
        text = expand_word(w, env)
        if text is None:
            return None
        out.extend(brace_expand(text))
    return out


def compile_script(src_or_ast: Union[str, Script], env: Optional[Dict[str, str]] = None) -> CompiledScript:
    """Translate a script into barrier-separated steps (§4.1's translation
    pass, with ``for`` loops over statically-known lists unrolled)."""
    ast = parse(src_or_ast) if isinstance(src_or_ast, str) else src_or_ast
    cs = CompiledScript()
    _compile_into(ast, cs, dict(env or {}))
    return cs


def _compile_into(script: Script, cs: CompiledScript, env: Dict[str, str]) -> None:
    for item in script.items:
        # the grammar wraps every command — including for/subshell — in a
        # Pipeline; unwrap singletons so compound commands are handled
        if isinstance(item, Pipeline) and len(item.commands) == 1 and isinstance(
            item.commands[0], (ForLoop, Subshell)
        ):
            item = item.commands[0]
        if isinstance(item, Pipeline):
            # a pipeline of one bare assignment updates the environment
            if (len(item.commands) == 1 and isinstance(item.commands[0], SimpleCommand)
                    and not item.commands[0].words and item.commands[0].assigns):
                assign(item.commands[0], env)
                continue
            try:
                rb = _RegionBuilder(env)
                rb.build_pipeline(item)
                cs.steps.append(Step("dfg", dfg=rb.g))
            except _NotConvertible:
                cs.steps.append(Step("opaque", ast=item, env=dict(env)))
        elif isinstance(item, AndOr):
            # logical operators are barriers: each side is its own region
            for part in item.parts:
                _compile_into(Script((part,), (False,)), cs, env)
        elif isinstance(item, ForLoop):
            values = _expand_for_items(item.items, env)
            if values is None:
                cs.steps.append(Step("opaque", ast=item, env=dict(env)))
                continue
            for v in values:
                env[item.var] = v
                _compile_into(item.body, cs, env)
        elif isinstance(item, Subshell):
            # a subshell's assignments do not outlive it
            _compile_into(item.body, cs, dict(env))
