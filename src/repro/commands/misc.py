"""Misc commands: wc, sha1sum, xargs (higher-order), file, diff, paste, awk subset,
nl, echo, plus the simulated-environment commands curl/gunzip (DESIGN.md §5:
the vfs doubles as the network, and .gz payloads are real gzip bytes carried
as base64 lines so decompression does real CPU work).
"""
from __future__ import annotations

import base64
import gzip
import hashlib
import re
from functools import partial
from typing import List

from .base import CommandError, ExecEnv, REGISTRY, parse_opts, register, resolve_streams
from .diffseq import normal_diff


def stream_bytes(lines: List[str]) -> bytes:
    return "".join(l + "\n" for l in lines).encode()


# a word as GNU wc counts it in the C locale: a run of bytes other than
# C whitespace that holds at least one printable ASCII byte
_WORD = re.compile(r"[^ \t\n\v\f\r]*[!-~][^ \t\n\v\f\r]*")


def _words(line: str) -> int:
    if line.isascii() and line.isprintable():  # str.split() agrees here
        return len(line.split())
    return len(_WORD.findall(line))


@register("wc")
def wc(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="lwcm")
    if len(operands) > 1:
        raise CommandError("wc: at most one file operand supported")
    lines = resolve_streams(operands, stdin, env)
    counts: List[int] = []
    # GNU's column order: lines, words, characters, bytes
    selected = [f for f in "lwmc" if opts.get(f)] or ["l", "w", "c"]
    for f in selected:
        if f == "l":
            counts.append(len(lines))
        elif f == "w":
            counts.append(sum(_words(l) for l in lines))
        else:  # m, c: UTF-8 bytes incl. newlines (LC_ALL=C: a char is a byte)
            counts.append(sum(len(l.encode()) + 1 for l in lines))
    if operands and operands[0] != "-":
        body = " ".join(str(c) for c in counts) if len(counts) == 1 else " ".join(
            f"{c:7d}" for c in counts
        )
        return [f"{body} {operands[0]}"]
    if len(counts) == 1:
        return [str(counts[0])]
    return [" ".join(f"{c:7d}" for c in counts)]


def _hashsum(digest, argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """``sha1sum``/``md5sum``: the ``digest`` of one file operand or of stdin."""
    _, operands = parse_opts(argv)
    if operands and operands[0] != "-":
        data = stream_bytes(env.read(operands[0]))
        return [f"{digest(data).hexdigest()}  {operands[0]}"]
    return [f"{digest(stream_bytes(stdin)).hexdigest()}  -"]


register("sha1sum")(partial(_hashsum, hashlib.sha1))
register("md5sum")(partial(_hashsum, hashlib.md5))


@register("xargs")
def xargs(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Higher-order command. Supported forms: ``xargs cmd ...`` (one batch),
    ``xargs -n N cmd ...``, ``xargs -L N cmd ...``. Its parallelizability
    class is that of the wrapped command (annotation python hook, §3.2)."""
    # options end at the first operand; the rest is the wrapped command
    opts = {}
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        a = argv[i]
        if a[1:2] in ("n", "L"):
            opts[a[1]] = a[2:] or (argv[i + 1] if i + 1 < len(argv) else "")
            i += 1 if a[2:] else 2
        else:
            raise CommandError(f"xargs: unsupported option {a}")
    operands = argv[i:]
    if not operands:
        raise CommandError("xargs: missing command")
    cmd, fixed = operands[0], operands[1:]
    if cmd not in REGISTRY:
        raise CommandError(f"xargs: unknown command {cmd}")
    items = [tok for l in stdin for tok in l.split()]
    if "n" in opts or "L" in opts:
        n = int(str(opts.get("n") or opts.get("L")))
        batches = [items[i : i + n] for i in range(0, len(items), n)]
    else:
        batches = [items] if items else []
    out: List[str] = []
    for b in batches:
        out.extend(REGISTRY[cmd].run(fixed + b, [], env))
    return out


@register("file")
def file_cmd(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """``file name...`` — type lookup against the vfs metadata (substitute
    for libmagic; shortest-scripts only needs the name->type mapping)."""
    _, operands = parse_opts(argv)
    return [f"{op}: {env.ftypes.get(op, 'ASCII text')}" for op in operands]


@register("diff")
def diff(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """``diff FILE1 FILE2`` in GNU's normal format, with GNU's algorithm
    (:mod:`repro.commands.diffseq`), so its hunks are GNU's. Either file
    may be ``-``, stdin. Class N: purely functional over both inputs but
    not parallelizable (§3.1)."""
    _, operands = parse_opts(argv)
    if len(operands) != 2:
        raise CommandError("diff: need two files")
    a, b = (stdin if op == "-" else env.read(op) for op in operands)
    return normal_diff(a, b)


# GNU paste's delimiter escapes; ``\\0`` is the empty delimiter
_PASTE_ESCAPES = {"0": "", "\\": "\\", "n": "\n", "t": "\t", "b": "\b", "f": "\f",
                  "r": "\r", "v": "\v"}


def _paste_delims(spec: str) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(spec):
        c = spec[i]
        if c == "\\":
            if i + 1 == len(spec):
                raise CommandError(
                    f"paste: delimiter list ends with an unescaped backslash: {spec}")
            i += 1
            c = _PASTE_ESCAPES.get(spec[i], spec[i])
        out.append(c)
        i += 1
    return out or [""]


def _paste_row(vals: List[str], delims: List[str]) -> List[str]:
    """``vals`` joined by the cycling delimiters, as output lines (a
    newline delimiter ends a line)."""
    row = vals[0]
    for j, v in enumerate(vals[1:]):
        row += delims[j % len(delims)] + v
    return row.split("\n")


@register("paste")
def paste(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """``paste [-s] [-d LIST] [FILE...]``: line ``i`` of every file joined
    into output line ``i`` (a file that has ended gives an empty field), or
    with ``-s`` each file's lines joined into one line. Delimiters cycle
    through LIST (default TAB). As in GNU, every ``-`` reads on from the one
    stdin. Class N: its inputs are zipped, not concatenated."""
    opts, operands = parse_opts(argv, flags="s", with_arg="d")
    delims = _paste_delims(str(opts.get("d", "\t")))
    operands = operands or ["-"]
    if "s" in opts:
        out: List[str] = []
        stdin_left = stdin
        for op in operands:
            lines = env.read(op) if op != "-" else stdin_left
            if op == "-":
                stdin_left = []
            out.extend(_paste_row(lines or [""], delims))
        return out
    pipe = iter(stdin)
    cols = [pipe if op == "-" else iter(env.read(op)) for op in operands]
    out = []
    while True:
        vals = [next(c, None) for c in cols]
        if all(v is None for v in vals):
            return out
        out.extend(_paste_row([v or "" for v in vals], delims))


_AWK_PRINT = re.compile(r"^\{\s*print\s*(.*?)\s*\}$")


@register("awk")
def awk(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Tiny awk: ``{print $k[, $j...]}`` and ``/re/ {print ...}`` /
    ``$k OP const {print ...}``. Deliberately classified N — the paper's
    point (§6.2) is that PaSh cannot parallelize general awk safely."""
    opts, operands = parse_opts(argv, with_arg="F")
    if not operands:
        raise CommandError("awk: missing program")
    prog, files = operands[0], operands[1:]
    sep = str(opts["F"]) if "F" in opts else None
    lines = resolve_streams(files, stdin, env)

    cond = None
    m = re.match(r"^/((?:[^/\\]|\\.)*)/\s*(\{.*\})?$", prog)
    body = prog
    if m:
        rx = re.compile(m.group(1))
        cond = lambda parts, line: rx.search(line)
        body = m.group(2) or "{print $0}"
    else:
        m2 = re.match(r"^\$(\d+)\s*(==|!=|>|<|>=|<=)\s*(\S+)\s*(\{.*\})$", prog)
        if m2:
            k, op, cval, body = int(m2.group(1)), m2.group(2), m2.group(3), m2.group(4)

            def cond(parts, line, k=k, op=op, cval=cval):
                v = parts[k - 1] if k <= len(parts) else ""
                try:
                    lv, rv = float(v), float(cval.strip('"'))
                except ValueError:
                    lv, rv = v, cval.strip('"')
                return {
                    "==": lv == rv, "!=": lv != rv, ">": lv > rv,
                    "<": lv < rv, ">=": lv >= rv, "<=": lv <= rv,
                }[op]

    pm = _AWK_PRINT.match(body.strip())
    if not pm:
        raise CommandError(f"awk: unsupported program {prog!r}")
    exprs = [e.strip() for e in pm.group(1).split(",")] if pm.group(1) else ["$0"]
    out: List[str] = []
    for line in lines:
        parts = line.split(sep) if sep else line.split()
        if cond is not None and not cond(parts, line):
            continue
        vals: List[str] = []
        for e in exprs:
            if e == "$0":
                vals.append(line)
            elif e.startswith("$"):
                k = int(e[1:])
                vals.append(parts[k - 1] if k <= len(parts) else "")
            elif e.startswith('"') and e.endswith('"'):
                vals.append(e[1:-1])
            else:
                raise CommandError(f"awk: unsupported expression {e!r}")
        out.append(" ".join(vals))
    return out


@register("nl")
def nl(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    _, operands = parse_opts(argv)
    lines = resolve_streams(operands, stdin, env)
    out: List[str] = []
    n = 0
    for l in lines:
        if l:
            n += 1
            out.append(f"{n:6d}\t{l}")
        else:  # GNU nl leaves empty lines unnumbered, padded to the margin
            out.append(" " * 7 + l)
    return out


@register("echo")
def echo(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    return [" ".join(argv)]


@register("seq")
def seq_cmd(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    _, operands = parse_opts(argv)
    nums = [int(x) for x in operands]
    if len(nums) == 1:
        return [str(i) for i in range(1, nums[0] + 1)]
    if len(nums) == 2:
        return [str(i) for i in range(nums[0], nums[1] + 1)]
    return [str(i) for i in range(nums[0], nums[2] + 1, nums[1])]


# --------------------------------------------------------------------------
# Simulated environment commands (network + compression; DESIGN.md §5)
# --------------------------------------------------------------------------


@register("curl")
def curl(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Fetch a URL from the vfs. ``curl -s URL`` — pure function of its
    argument given the immutable simulated remote, hence annotatable as S
    under xargs fan-out exactly like the paper's NOAA pipeline."""
    opts, operands = parse_opts(argv, flags="s")
    if len(operands) != 1:
        raise CommandError("curl: need one URL")
    return env.read(operands[0])


def gzip_to_b64(lines: List[str]) -> str:
    """Compress a text stream into a single base64 line (one gzip member)."""
    return base64.b64encode(gzip.compress(stream_bytes(lines))).decode()


@register("gunzip")
def gunzip(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Decompress a stream of base64-encoded gzip members, one per line.

    Real gunzip handles concatenated gzip members — decompression is
    stateless at member boundaries, which is what makes the paper's
    ``xargs curl | gunzip`` stage parallelizable. One member per line keeps
    that property in the line-stream model while doing real zlib work.
    """
    parse_opts(argv, flags="c")
    out: List[str] = []
    for l in stdin:
        if not l:
            continue
        text = gzip.decompress(base64.b64decode(l)).decode()
        out.extend(text.split("\n")[:-1] if text.endswith("\n") else text.split("\n"))
    return out
