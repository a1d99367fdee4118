"""Python hooks for commands whose parallelizability is computed (§3.2:
"the language … supports writing arbitrary Python code for commands whose
properties are difficult to capture — e.g., higher-order xargs, whose
parallelizability class depends on the class of the first-order command
that it invokes").
"""
from __future__ import annotations

from typing import List

from repro.commands.base import CommandError, parse_opts

from .model import CLASS_E, CLASS_N, CLASS_S, Resolved


# commands that are pure functions of their argument list (given the
# immutable simulated environment), making `xargs -n1 cmd` stateless
_ARG_PURE = {"curl", "file", "echo", "wc", "sha1sum", "md5sum", "cat"}


def xargs_hook(record, argv: List[str]) -> Resolved:
    # xargs's own options end at the first operand; everything after it is
    # the wrapped command's argv and must not be parsed here
    opts = {}
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        a = argv[i]
        if a[1:2] in ("n", "L"):
            val = a[2:] or (argv[i + 1] if i + 1 < len(argv) else "")
            opts[a[1]] = val
            i += 1 if a[2:] else 2
        else:
            return Resolved("xargs", CLASS_E)
    operands = argv[i:]
    if not operands:
        return Resolved("xargs", CLASS_E)
    inner = operands[0]
    per_item = str(opts.get("n") or opts.get("L") or "") == "1"
    # `file` emits one independent line per argument, so xargs-ing it is
    # stateless whatever the batching
    if inner == "file" or (per_item and inner in _ARG_PURE):
        # each input element maps to output independently: class S
        return Resolved("xargs", CLASS_S, inputs=["stdin"], opts=opts, operands=operands)
    if inner in _ARG_PURE:
        # single batched invocation: pure but batch-sensitive -> N
        return Resolved("xargs", CLASS_N, inputs=["stdin"], opts=opts, operands=operands)
    return Resolved("xargs", CLASS_E)


def paste_hook(record, argv: List[str]) -> Resolved:
    # every `-` reads on from the one stdin, which one DFG edge per operand
    # cannot express for two of them
    positions: List[int] = []
    try:
        opts, operands = parse_opts(argv, flags="s", with_arg="d", positions=positions)
    except CommandError:
        return Resolved("paste", CLASS_E)
    if operands.count("-") > 1:
        return Resolved("paste", CLASS_E)
    # one stream pasted alone is itself: S. Several are zipped, not
    # concatenated, and -s joins a whole stream into one line: N
    cls = CLASS_N if "s" in opts or len(operands) > 1 else CLASS_S
    return Resolved("paste", cls, inputs=list(range(len(operands))) or ["stdin"],
                    opts=opts, operands=operands, operand_pos=positions, argv=list(argv))
