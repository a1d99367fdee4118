"""Annotation record model and clause resolution.

A record (cf. Fig. 4 of the paper)::

    {"command": "comm",
     "parse": {"flags": "123", "with_arg": ""},
     "cases": [
       {"predicate": {"operator": "all", "operands": [
            {"operator": "exists", "operands": ["-1"]},
            {"operator": "exists", "operands": ["-3"]}]},
        "class": "stateless",
        "inputs": ["args[1]"], "static_inputs": ["args[0]"],
        "outputs": ["stdout"]},
       ...,
       {"predicate": "default", "class": "parallelizable_pure",
        "inputs": ["args[0]", "args[1]"], "outputs": ["stdout"]}],
     "options": ["stdin-hyphen", "short-combined"]}

The 6 predicate operators are ``exists``, ``value``, ``all``, ``any``,
``not``, ``regex`` (paper: "6 operators, one of which supports regular
expressions"). A record may instead carry ``{"hook": "<python fn>"}`` for
commands whose class is computed (paper: higher-order ``xargs``).

Input tokens: ``stdin``; ``args[k]`` (k-th operand — clause skipped when
absent); ``args[k:]`` (operands k.. when present, else stdin); ``args``
(shorthand for ``args[0:]``).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.commands.base import CommandError, parse_opts

CLASS_S = "stateless"
CLASS_P = "parallelizable_pure"
CLASS_N = "non_parallelizable_pure"
CLASS_E = "side_effectful"

SHORT = {CLASS_S: "S", CLASS_P: "P", CLASS_N: "N", CLASS_E: "E"}


@dataclass
class Resolved:
    """A concrete invocation's resolved parallelizability facts."""

    command: str
    cls: str
    # streaming inputs, in consumption order: "stdin" or operand index
    inputs: List[object] = field(default_factory=list)
    static_inputs: List[int] = field(default_factory=list)
    outputs: List[str] = field(default_factory=lambda: ["stdout"])
    aggregator: Optional[str] = None  # runtime aggregator name (class P)
    map_argv: Optional[List[str]] = None  # map-stage argv override (class P)
    opts: Dict[str, object] = field(default_factory=dict)
    operands: List[str] = field(default_factory=list)
    operand_pos: List[int] = field(default_factory=list)  # argv index per operand
    argv: List[str] = field(default_factory=list)  # the invocation's argv

    @property
    def short(self) -> str:
        return SHORT[self.cls]

    @property
    def stdin_argv(self) -> List[str]:
        """``argv`` without its streaming file operands: the invocation that
        reads the concatenation of its streaming inputs from stdin. Static
        operands stay."""
        drop = {self.operand_pos[i] for i in self.inputs if i != "stdin"}
        return [a for j, a in enumerate(self.argv) if j not in drop]


def _eval_predicate(pred, opts: Dict[str, object], operands: List[str]) -> bool:
    if pred == "default":
        return True
    op = pred["operator"]
    args = pred.get("operands", [])
    if op == "exists":
        return all(a.lstrip("-") in opts for a in args)
    if op == "value":
        flag, val = args
        return str(opts.get(flag.lstrip("-"))) == str(val)
    if op == "all":
        return all(_eval_predicate(a, opts, operands) for a in args)
    if op == "any":
        return any(_eval_predicate(a, opts, operands) for a in args)
    if op == "not":
        return not _eval_predicate(args[0], opts, operands)
    if op == "regex":
        tok, rx = args
        m = re.match(r"opt\[(\w)\]$", tok)
        if m:  # regex over an option's value, e.g. tail -n '+2'
            val = opts.get(m.group(1))
            return val is not None and re.search(rx, str(val)) is not None
        m = re.match(r"args\[(\d+)\]$", tok)
        idx = int(m.group(1))
        if idx >= len(operands):
            return False
        return re.search(rx, operands[idx]) is not None
    raise ValueError(f"unknown predicate operator {op}")


_ARGS_K = re.compile(r"args\[(\d+)\]$")
_ARGS_SLICE = re.compile(r"args\[(\d+):\]$")


def _resolve_inputs(tokens: Sequence[str], operands: List[str]):
    """Returns (inputs, ok). Inputs are 'stdin' or operand indices."""
    out: List[object] = []
    for tok in tokens:
        if tok == "stdin":
            out.append("stdin")
            continue
        if tok == "args":
            tok = "args[0:]"
        m = _ARGS_SLICE.match(tok)
        if m:
            k = int(m.group(1))
            rest = list(range(k, len(operands)))
            if rest:
                out.extend(rest)
            else:
                out.append("stdin")
            continue
        m = _ARGS_K.match(tok)
        if m:
            idx = int(m.group(1))
            if idx >= len(operands):
                return None, False  # clause requires an operand that's absent
            out.append(idx)
            continue
        raise ValueError(f"bad input token {tok}")
    if operands.count("-") > 1:  # the first ``-`` reads stdin to its end
        dashes = [i for i in out if i != "stdin" and operands[i] == "-"]
        out = [i for i in out if i not in dashes[1:]]
    return out, True


def resolve(record: Dict, argv: Sequence[str]) -> Resolved:
    """Resolve ``argv`` (without the command name) against ``record``."""
    name = record["command"]
    if "hook" in record:
        from . import hooks

        return getattr(hooks, record["hook"])(record, list(argv))
    parse = record.get("parse", {})
    positions: List[int] = []
    try:
        opts, operands = parse_opts(
            argv,
            flags=parse.get("flags", ""),
            with_arg=parse.get("with_arg", ""),
            long_flags=parse.get("long_flags", ()),
            positions=positions,
        )
    except CommandError:
        # unknown flag: the conservative default of §4.1
        return Resolved(name, CLASS_E)
    for case in record["cases"]:
        if not _eval_predicate(case["predicate"], opts, operands):
            continue
        inputs, ok = _resolve_inputs(case.get("inputs", ["stdin"]), operands)
        if not ok:
            continue
        statics, ok = _resolve_inputs(case.get("static_inputs", []), operands)
        if not ok:
            continue
        map_argv = case.get("map_argv")
        if map_argv is not None:
            map_argv = _splice_argv(map_argv, list(argv))
        return Resolved(
            name,
            case["class"],
            inputs=inputs,
            static_inputs=[i for i in statics if i != "stdin"],
            outputs=case.get("outputs", ["stdout"]),
            aggregator=case.get("aggregator"),
            map_argv=map_argv,
            opts=opts,
            operands=operands,
            operand_pos=positions,
            argv=list(argv),
        )
    return Resolved(name, CLASS_E)  # no clause matched: conservative


def _splice_argv(template: List[str], argv: List[str]) -> List[str]:
    out: List[str] = []
    for a in template:
        if a == "$argv":
            out.extend(argv)
        else:
            out.append(a)
    return out


def resolve_invocation(name: str, argv: Sequence[str]) -> Resolved:
    """Look the command up in the library; unknown commands resolve to E
    (the paper's conservative default for unannotated commands)."""
    from .library import LIBRARY

    if name not in LIBRARY:
        return Resolved(name, CLASS_E)
    return resolve(LIBRARY[name], argv)
