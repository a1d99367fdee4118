"""Hand-written lexer for the shell subset.

Produces a flat token stream; word-internal structure (quoting, ``$var``,
``$(...)``) is resolved here so the parser deals only in ``Word`` values.
``<(`` is emitted as its own operator token: the parser recurses to build the
process-substitution body.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .ast import Word

OPERATORS = ("&&", "||", ">>", "<(", "|", ";", "&", "(", ")", "<", ">")
_WORD_BREAK = set(" \t\n|;&<>()#")
_VARNAME_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_VARNAME = _VARNAME_FIRST | set("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # "WORD" | "OP" | "NEWLINE" | "EOF"
    value: object  # Word for WORD, str for OP

    def is_op(self, *ops: str) -> bool:
        return self.kind == "OP" and self.value in ops


class LexError(ValueError):
    pass


def _scan_dollar(src: str, i: int) -> Tuple[Tuple[str, object], int]:
    """Scan an expansion starting at ``src[i] == '$'``; return (segment, next_i)."""
    assert src[i] == "$"
    j = i + 1
    if j < len(src) and src[j] == "{":
        k = src.find("}", j)
        if k < 0:
            raise LexError("unterminated ${")
        return ("var", src[j + 1 : k]), k + 1
    if j < len(src) and src[j] == "(":
        depth, k = 1, j + 1
        while k < len(src) and depth:
            if src[k] == "(":
                depth += 1
            elif src[k] == ")":
                depth -= 1
            k += 1
        if depth:
            raise LexError("unterminated $(")
        return ("cmdsub", src[i:k]), k
    k = j
    if k < len(src) and src[k] in _VARNAME_FIRST:
        while k < len(src) and src[k] in _VARNAME:
            k += 1
        return ("var", src[j:k]), k
    if k < len(src) and src[k] in "!$?#@*":  # special parameters: keep opaque
        return ("cmdsub", src[i : k + 1]), k + 1
    return ("lit", "$"), j  # a bare dollar


def _scan_word(src: str, i: int) -> Tuple[Word, int]:
    segs: List[Tuple[str, object]] = []
    buf: List[str] = []

    def flush() -> None:
        if buf:
            segs.append(("lit", "".join(buf)))
            buf.clear()

    n = len(src)
    while i < n:
        c = src[i]
        if c == "'":
            j = src.find("'", i + 1)
            if j < 0:
                raise LexError("unterminated single quote")
            buf.append(src[i + 1 : j])
            i = j + 1
        elif c == '"':
            i += 1
            while i < n and src[i] != '"':
                if src[i] == "\\" and i + 1 < n and src[i + 1] in '"\\$`':
                    buf.append(src[i + 1])
                    i += 2
                elif src[i] == "$":
                    flush()
                    seg, i = _scan_dollar(src, i)
                    segs.append(seg)
                elif src[i] == "`":
                    raise LexError("backticks unsupported; use $()")
                else:
                    buf.append(src[i])
                    i += 1
            if i >= n:
                raise LexError("unterminated double quote")
            i += 1
        elif c == "\\":
            if i + 1 < n:
                if src[i + 1] == "\n":  # line continuation
                    i += 2
                else:
                    buf.append(src[i + 1])
                    i += 2
            else:
                i += 1
        elif c == "$":
            flush()
            seg, i = _scan_dollar(src, i)
            segs.append(seg)
        elif c == "`":
            j = src.find("`", i + 1)
            if j < 0:
                raise LexError("unterminated backtick")
            segs.append(("cmdsub", src[i : j + 1]))
            i = j + 1
        elif c in _WORD_BREAK:
            break
        else:
            buf.append(c)
            i += 1
    flush()
    if not segs:
        segs.append(("lit", ""))
    return Word(tuple(segs)), i


def tokenize(src: str) -> List[Token]:
    """Tokenize ``src`` into WORD/OP/NEWLINE tokens plus a trailing EOF."""
    toks: List[Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t":
            i += 1
        elif c == "\n":
            toks.append(Token("NEWLINE", "\n"))
            i += 1
        elif c == "#":
            while i < n and src[i] != "\n":
                i += 1
        elif c == "\\" and i + 1 < n and src[i + 1] == "\n":
            i += 2
        else:
            for op in OPERATORS:
                if src.startswith(op, i):
                    toks.append(Token("OP", op))
                    i += len(op)
                    break
            else:
                w, i = _scan_word(src, i)
                toks.append(Token("WORD", w))
    toks.append(Token("EOF", None))
    return toks
