"""Command registry, execution environment, and option parsing.

Streams are ``list[str]`` of lines (no trailing newline). A stream's byte
content is ``"".join(l + "\\n" for l in lines)`` — every line, including the
last, is newline-terminated, matching well-formed Unix text files.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class CommandError(ValueError):
    """Raised for unsupported flags/operands — the conservative path."""


@dataclass
class ExecEnv:
    """Virtual execution environment.

    ``files`` is the virtual filesystem *and* the simulated network: commands
    that read file operands resolve them here, and the simulated ``curl``
    resolves URLs here too (the substitution for the paper's FTP/HTTP
    fetches; see DESIGN.md §5). ``ftypes`` backs the ``file`` command.
    """

    files: Dict[str, List[str]] = field(default_factory=dict)
    ftypes: Dict[str, str] = field(default_factory=dict)

    def read(self, name: str) -> List[str]:
        if name not in self.files:
            raise CommandError(f"no such file: {name}")
        return self.files[name]


@dataclass(frozen=True)
class Command:
    """A registered command.

    ``run(argv, stdin, env)`` implements the full CLI semantics: ``argv``
    excludes the command name; file operands are resolved against ``env``;
    ``stdin`` is used when the command reads standard input. Returns the
    stdout stream.
    """

    name: str
    run: Callable[[List[str], List[str], ExecEnv], List[str]]


REGISTRY: Dict[str, Command] = {}


def register(name: str):
    def deco(fn: Callable[[List[str], List[str], ExecEnv], List[str]]):
        REGISTRY[name] = Command(name, fn)
        return fn

    return deco


def run_cli(name: str, argv: Sequence[str], stdin: List[str], env: Optional[ExecEnv] = None) -> List[str]:
    if name not in REGISTRY:
        raise CommandError(f"unknown command: {name}")
    return REGISTRY[name].run(list(argv), stdin, env or ExecEnv())


def parse_opts(
    argv: Sequence[str],
    *,
    flags: str = "",
    with_arg: str = "",
    long_flags: Sequence[str] = (),
    positions: Optional[List[int]] = None,
) -> Tuple[Dict[str, object], List[str]]:
    """Minimal getopt with GNU-style short-combined flags.

    ``flags``: single-letter boolean options; ``with_arg``: single-letter
    options taking an argument (attached ``-n1`` or detached ``-n 1``).
    ``--`` terminates options; an operand ``-`` stays an operand (stdin).
    Returns ``(opts, operands)`` where opts maps letter -> True or its arg
    (last occurrence wins; repeated with_arg letters collect into a list
    only for ``-k`` which sort treats cumulatively).
    """
    opts: Dict[str, object] = {}
    operands: List[str] = []
    i, n = 0, len(argv)
    while i < n:
        a = argv[i]
        if a == "--":
            if positions is not None:
                positions.extend(range(i + 1, n))
            operands.extend(argv[i + 1 :])
            break
        if a.startswith("--"):
            if a in long_flags:
                opts[a] = True
                i += 1
                continue
            raise CommandError(f"unsupported long option {a}")
        if a.startswith("-") and a != "-":
            j = 1
            while j < len(a):
                c = a[j]
                if c in flags:
                    opts[c] = True
                    j += 1
                elif c in with_arg:
                    if j + 1 < len(a):
                        val = a[j + 1 :]
                    else:
                        i += 1
                        if i >= n:
                            raise CommandError(f"option -{c} needs an argument")
                        val = argv[i]
                    if c == "k":
                        opts.setdefault("k", []).append(val)  # type: ignore[union-attr]
                    else:
                        opts[c] = val
                    break
                elif c.isdigit() and "n" in with_arg:
                    # historic "-15" == "-n 15" (head/tail)
                    opts["n"] = a[j:]
                    break
                else:
                    raise CommandError(f"unsupported option -{c} in {a}")
            i += 1
        else:
            if positions is not None:
                positions.append(i)
            operands.append(a)
            i += 1
    return opts, operands


def operand_streams(operands: List[str], stdin: List[str], env: ExecEnv) -> List[List[str]]:
    """The stream each operand names (``-`` = stdin). As in GNU, the first
    ``-`` reads stdin to its end, so a later ``-`` reads nothing."""
    out: List[List[str]] = []
    for op in operands:
        if op == "-":
            out.append(stdin)
            stdin = []
        else:
            out.append(env.read(op))
    return out


def resolve_streams(operands: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Concatenate the streams named by ``operands`` (see
    :func:`operand_streams`); when there are no operands, the stream is
    stdin itself."""
    if not operands:
        return stdin
    out: List[str] = []
    for lines in operand_streams(operands, stdin, env):
        out.extend(lines)
    return out
