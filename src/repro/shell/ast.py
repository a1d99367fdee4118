"""AST node definitions for the shell subset.

A ``Word`` is a sequence of segments; each segment is a ``(kind, payload)``
pair where ``kind`` is one of:

* ``"lit"``     — literal text (payload: str),
* ``"var"``     — a ``$name`` / ``${name}`` reference (payload: variable name),
* ``"cmdsub"``  — an opaque ``$(...)`` command substitution (payload: raw text);
  PaSh treats these conservatively (it refuses to parallelize around them),
* ``"procsub"`` — a ``<(...)`` process substitution (payload: a parsed AST
  node); its output stream is used where a file name is expected.

Keeping segments (rather than flat strings) lets the compiler frontend decide
whether a word is *fully known* at compile time — the paper's conservative
rule (§4.1): nodes with incomplete information are not parallelized.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Tuple

Segment = Tuple[str, Any]


@dataclass(frozen=True)
class Word:
    """One shell word: an argument, command name, or redirect target."""

    segments: Tuple[Segment, ...]

    @staticmethod
    def lit(text: str) -> "Word":
        return Word((("lit", text),))

    def is_literal(self) -> bool:
        """True iff the word contains no expansions of any kind."""
        return all(k == "lit" for k, _ in self.segments)

    def literal_text(self) -> str:
        assert self.is_literal(), f"word {self!r} is not fully literal"
        return "".join(p for _, p in self.segments)

    def has_procsub(self) -> bool:
        return any(k == "procsub" for k, _ in self.segments)

    def __repr__(self) -> str:  # compact, test-friendly
        parts = []
        for k, p in self.segments:
            parts.append(p if k == "lit" else f"<{k}:{p if k == 'var' else '…'}>")
        return f"W({''.join(str(x) for x in parts)!r})"


@dataclass(frozen=True)
class ProcSub:
    """``<(body)`` — used as a Word segment payload."""

    body: Any  # an AST node (usually Pipeline)


@dataclass(frozen=True)
class Redirect:
    """``op`` is one of ``<``, ``>``, ``>>``; target is a Word."""

    op: str
    target: Word


@dataclass(frozen=True)
class SimpleCommand:
    assigns: Tuple[Tuple[str, Word], ...]  # leading name=value assignments
    words: Tuple[Word, ...]                # argv (possibly empty: pure assignment)
    redirects: Tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class Pipeline:
    """``cmd1 | cmd2 | ...`` — the shell's task-parallel composition."""

    commands: Tuple[Any, ...]  # SimpleCommand | Subshell


@dataclass(frozen=True)
class AndOr:
    """``p1 && p2 || p3`` — ops[i] joins parts[i] to parts[i+1]."""

    parts: Tuple[Pipeline, ...]
    ops: Tuple[str, ...]


@dataclass(frozen=True)
class ForLoop:
    var: str
    items: Tuple[Word, ...]
    body: "Script"


@dataclass(frozen=True)
class Subshell:
    body: "Script"


@dataclass(frozen=True)
class Script:
    """A list of ``;``/newline-separated items; ``background`` flags ``&``."""

    items: Tuple[Any, ...] = ()
    background: Tuple[bool, ...] = field(default=())
