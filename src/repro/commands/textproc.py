"""Line-processing commands: cat, grep, tr, cut, sed, head, tail, tac, col.

GNU semantics under ``LC_ALL=C``; deviations are noted per command. ``tr``
keeps every line end: only a character mapped to ``\\n`` starts a line, and
a squeezed ``\\n`` drops empty lines (see ``tr``). For the pipeline shapes
in the paper's benchmarks this is byte-identical to GNU tr — the
equivalence is exercised against ``/usr/bin/tr`` in tests.
"""
from __future__ import annotations

import re
from typing import Iterable, List, Optional, Tuple

from .base import CommandError, ExecEnv, parse_opts, register, resolve_streams

# --------------------------------------------------------------------------
# regex dialect: convert POSIX BRE (grep/sed default) to Python's re syntax
# --------------------------------------------------------------------------

_BRE_SPECIALS = "+?|(){}"

# the POSIX character classes, as tr expands them and as grep and sed
# rewrite them inside bracket expressions
_POSIX_CLASSES = {
    "alpha": "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
    "upper": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "lower": "abcdefghijklmnopqrstuvwxyz",
    "digit": "0123456789",
    "alnum": "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz",
    "space": " \t\n\r\f\v",
    "blank": " \t",
    "punct": "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~",
}
_POSIX_CLASS_RE = re.compile(r"\[:(" + "|".join(_POSIX_CLASSES) + r"):\]")


def bre_to_python(pat: str) -> str:
    """Convert a POSIX *basic* regular expression to Python ``re`` syntax.

    In BRE, ``+ ? | ( ) { }`` are literals and their escaped forms are the
    operators; in Python/ERE it is the opposite — so we swap the escaping.
    Bracket expressions are passed through verbatim.
    """
    out: List[str] = []
    i, n = 0, len(pat)
    while i < n:
        c = pat[i]
        if c == "\\" and i + 1 < n:
            nxt = pat[i + 1]
            if nxt in _BRE_SPECIALS:
                out.append(nxt)  # \( -> (   (operator)
            else:
                out.append("\\" + nxt)
            i += 2
        elif c == "[":
            j = i + 1
            if j < n and pat[j] == "^":
                j += 1
            if j < n and pat[j] == "]":
                j += 1
            while j < n and pat[j] != "]":
                if pat[j] == "[" and j + 1 < n and pat[j + 1] in ":.=":
                    k = pat.find(pat[j + 1] + "]", j + 2)
                    if k < 0:
                        raise CommandError("unterminated character class")
                    j = k + 2
                else:
                    j += 1
            if j >= n:
                raise CommandError("unterminated bracket expression")
            out.append(_posix_classes(pat[i : j + 1]))
            i = j + 1
        elif c in _BRE_SPECIALS:
            out.append("\\" + c)  # literal in BRE
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _posix_classes(bracket: str) -> str:
    """Rewrite ``[:alpha:]`` etc. inside a bracket expression for Python re."""
    return _POSIX_CLASS_RE.sub(lambda m: re.escape(_POSIX_CLASSES[m[1]]), bracket)


def compile_grep_pattern(pat: str, *, ere: bool, fixed: bool, icase: bool) -> re.Pattern:
    if fixed:
        body = re.escape(pat)
    elif ere:
        # ERE syntax is Python's but for the POSIX class names
        body = _posix_classes(pat)
    else:
        body = bre_to_python(pat)
    # LC_ALL=C: \w, \b and -i's case fold cover ASCII only
    return re.compile(body, re.ASCII | (re.IGNORECASE if icase else 0))


# --------------------------------------------------------------------------
# cat
# --------------------------------------------------------------------------


@register("cat")
def cat(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="n")
    lines = resolve_streams(operands, stdin, env)
    if opts.get("n"):
        return [f"{i + 1:6d}\t{l}" for i, l in enumerate(lines)]
    return list(lines)


# --------------------------------------------------------------------------
# grep
# --------------------------------------------------------------------------


@register("grep")
def grep(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="ivcExFwh")
    if not operands:
        raise CommandError("grep: missing pattern")
    pat, files = operands[0], operands[1:]
    if len(files) > 1:
        # GNU grep prefixes matches with filenames for >1 file; we keep the
        # single-stream contract (the paper's pipelines use <=1 operand).
        raise CommandError("grep: at most one file operand supported")
    rx = compile_grep_pattern(
        pat, ere=bool(opts.get("E")), fixed=bool(opts.get("F")), icase=bool(opts.get("i"))
    )
    lines = resolve_streams(files, stdin, env)
    invert = bool(opts.get("v"))
    if opts.get("x"):
        matched = [l for l in lines if bool(rx.fullmatch(l)) != invert]
    elif opts.get("w"):
        wrx = re.compile(r"(?<![0-9A-Za-z_])(?:" + rx.pattern + r")(?![0-9A-Za-z_])", rx.flags)
        matched = [l for l in lines if bool(wrx.search(l)) != invert]
    else:
        matched = [l for l in lines if bool(rx.search(l)) != invert]
    if opts.get("c"):
        return [str(len(matched))]
    return matched


# --------------------------------------------------------------------------
# tr
# --------------------------------------------------------------------------

_TR_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "f": "\f", "v": "\v", "a": "\a", "b": "\b", "\\": "\\"}


def _tr_set(spec: str) -> str:
    """Expand a tr SET: escapes, ``a-z`` ranges, ``[:class:]`` names."""
    out: List[str] = []
    i, n = 0, len(spec)
    while i < n:
        c = spec[i]
        if c == "\\" and i + 1 < n:
            out.append(_TR_ESCAPES.get(spec[i + 1], spec[i + 1]))
            i += 2
        elif c == "[" and spec.startswith("[:", i):
            k = spec.find(":]", i + 2)
            if k < 0:
                raise CommandError("tr: unterminated [:class:]")
            name = spec[i + 2 : k]
            if name not in _POSIX_CLASSES:
                raise CommandError(f"tr: unknown class {name}")
            out.append(_POSIX_CLASSES[name])
            i = k + 2
        elif i + 2 < n and spec[i + 1] == "-" and spec[i + 2] != "]":
            lo, hi = ord(c), ord(spec[i + 2])
            if hi < lo:
                raise CommandError("tr: reversed range")
            out.append("".join(chr(x) for x in range(lo, hi + 1)))
            i += 3
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _tr_class(chars: Iterable[str]) -> str:
    """The body of a regex character class matching each of ``chars``."""
    return re.escape("".join(sorted(set(chars))))


@register("tr")
def tr(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """GNU ``tr`` as one pass over the stream joined at its line ends.

    ``-d`` deletes SET1's characters, or under ``-c`` every other one.
    Otherwise SET1 translates to SET2, or under ``-c`` every character
    outside SET1 becomes SET2's last. ``-s`` then squeezes runs of SET2's
    characters, or of SET1's when there is no SET2. Line ends are never
    translated, deleted or complemented, but a character mapped to ``\\n``
    splits its line. A squeezed ``\\n`` is applied at the final split, which
    drops every empty line; GNU merges runs across line ends instead, so it
    keeps one leading empty line when the stream starts with a character
    squeezed into ``\\n``.
    """
    opts, operands = parse_opts(argv, flags="csdC")
    comp = bool(opts.get("c") or opts.get("C"))
    squeeze, delete = bool(opts.get("s")), bool(opts.get("d"))
    # -d takes one set and -s one or two; -ds deletes SET1, then squeezes SET2
    if len(operands) not in ((1, 2) if squeeze else (1,) if delete else (2,)):
        raise CommandError("tr -d: expected one set" if delete and not squeeze
                           else "tr: expected SET1 SET2")
    set1, set2 = _tr_set(operands[0]), _tr_set(operands[1]) if len(operands) == 2 else ""
    if not stdin:
        return []
    text = "\n".join(stdin)
    outside = "[^" + _tr_class(set1 + "\n") + "]"  # -c's complement leaves line ends alone
    squeezed = set2 if squeeze else ""
    if delete and comp:
        text = re.sub(outside + "+", "", text)
    elif delete:
        text = text.translate(str.maketrans("", "", set1.replace("\n", "")))
    elif set2 and comp:
        # a squeezed target absorbs a whole run at once
        text = re.sub(outside + ("+" if squeeze else ""), set2[-1].replace("\\", r"\\"), text)
    elif set2:
        table = str.maketrans(set1, set2.ljust(len(set1), set2[-1])[: len(set1)])
        table.pop(ord("\n"), None)
        text = text.translate(table)
    else:  # no SET2: squeeze SET1, or under -c every byte outside it
        squeezed = set(map(chr, range(256))) - set(set1) if comp else set1
    cls = _tr_class(set(squeezed) - {"\n"})
    if cls:
        text = re.sub(f"([{cls}])\\1+", r"\1", text)
    lines = text.split("\n")
    return [l for l in lines if l] if "\n" in squeezed else lines


# --------------------------------------------------------------------------
# cut
# --------------------------------------------------------------------------


def _parse_list(spec: str, upper: int = 1 << 20) -> List[Tuple[int, int]]:
    """Parse a cut LIST like ``1,3`` / ``2-4`` / ``-3`` / ``5-`` into sorted,
    disjoint ranges: GNU selects each position once, in increasing order,
    whatever order the LIST names them in."""
    ranges: List[Tuple[int, int]] = []
    for part in spec.split(","):
        if not part:
            raise CommandError("cut: empty list element")
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo = int(lo_s) if lo_s else 1
            hi = int(hi_s) if hi_s else upper
        else:
            lo = hi = int(part)
        if lo < 1 or hi < lo:
            raise CommandError(f"cut: bad range {part}")
        ranges.append((lo, hi))
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


@register("cut")
def cut(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="s", with_arg="dfcb")
    lines = resolve_streams(operands, stdin, env)
    if "c" in opts or "b" in opts:
        slices = [slice(lo - 1, hi) for lo, hi in _parse_list(str(opts.get("c") or opts.get("b")))]
        return ["".join(l[s] for s in slices) for l in lines]
    if "f" in opts:
        delim = str(opts.get("d", "\t"))
        if len(delim) != 1:
            raise CommandError("cut: delimiter must be a single character")
        slices = [slice(lo - 1, hi) for lo, hi in _parse_list(str(opts["f"]))]
        last = slices[-1].stop  # no field after it is picked
        only_delimited = bool(opts.get("s"))
        out: List[str] = []
        for l in lines:
            if delim not in l:
                if not only_delimited:
                    out.append(l)
                continue
            fields = l.split(delim, last)
            out.append(delim.join([f for s in slices for f in fields[s]]))
        return out
    raise CommandError("cut: need -f or -c")


# --------------------------------------------------------------------------
# sed (subset): s///, address d, address p with -n, q
# --------------------------------------------------------------------------

_SED_CMD = re.compile(r"^\s*(?:(\$|\d+(?:,\$|,\d+)?|/(?:[^/\\]|\\.)*/)\s*)?([sdpq=])")


def _parse_sed_script(script: str):
    """Parse a (possibly ``;``-separated) sed script into command tuples."""
    cmds = []
    rest = script
    while rest.strip():
        m = _SED_CMD.match(rest)
        if not m:
            raise CommandError(f"sed: unsupported script {script!r}")
        addr, op = m.group(1), m.group(2)
        rest = rest[m.end() :]
        if op == "s":
            if not rest:
                raise CommandError("sed: bad s command")
            delim = rest[0]
            parts: List[str] = []
            buf: List[str] = []
            i = 1
            while i < len(rest) and len(parts) < 2:
                if rest[i] == "\\" and i + 1 < len(rest):
                    buf.append(rest[i : i + 2])
                    i += 2
                elif rest[i] == delim:
                    parts.append("".join(buf))
                    buf = []
                    i += 1
                else:
                    buf.append(rest[i])
                    i += 1
            if len(parts) < 2:
                raise CommandError("sed: unterminated s command")
            # flags until ';' or end
            j = i
            while j < len(rest) and rest[j] not in ";":
                j += 1
            flags = rest[i:j].strip()
            rest = rest[j:]
            cmds.append(("s", addr, parts[0], parts[1], flags))
        else:
            cmds.append((op, addr, None, None, None))
        rest = rest.lstrip()
        if rest.startswith(";"):
            rest = rest[1:]
    return cmds


def _addr_match(addr: Optional[str], lineno: int, total: int, line: str) -> bool:
    if addr is None:
        return True
    if addr == "$":
        return lineno == total
    if addr.startswith("/"):
        pat = addr[1:-1]
        return re.search(bre_to_python(pat), line) is not None
    if "," in addr:
        lo_s, hi_s = addr.split(",", 1)
        lo = int(lo_s)
        hi = total if hi_s == "$" else int(hi_s)
        return lo <= lineno <= hi
    return lineno == int(addr)


def _sed_repl(repl: str) -> str:
    """Convert a sed replacement (&, \\1..\\9) to Python's template syntax."""
    out: List[str] = []
    i = 0
    while i < len(repl):
        c = repl[i]
        if c == "\\" and i + 1 < len(repl):
            nxt = repl[i + 1]
            if nxt.isdigit():
                out.append("\\" + nxt)
            elif nxt == "n":
                out.append("\n")
            elif nxt == "&":
                out.append("&")
            else:
                out.append(re.escape(nxt) if nxt == "\\" else nxt)
            i += 2
        elif c == "&":
            out.append("\\g<0>")
            i += 1
        else:
            out.append(c.replace("\\", "\\\\"))
            i += 1
    return "".join(out)


@register("sed")
def sed(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="n", with_arg="e")
    scripts: List[str] = []
    if "e" in opts:
        scripts.append(str(opts["e"]))
        files = operands
    else:
        if not operands:
            raise CommandError("sed: missing script")
        scripts.append(operands[0])
        files = operands[1:]
    cmds = [c for s in scripts for c in _parse_sed_script(s)]
    lines = resolve_streams(files, stdin, env)
    total = len(lines)
    quiet = bool(opts.get("n"))
    out: List[str] = []
    for lineno, line in enumerate(lines, 1):
        deleted = False
        quit_after = False
        cur = line
        for op, addr, pat, repl, flags in cmds:
            if not _addr_match(addr, lineno, total, cur):
                continue
            if op == "d":
                deleted = True
                break
            if op == "q":
                quit_after = True
            elif op == "p":
                out.append(cur)
            elif op == "=":
                out.append(str(lineno))
            elif op == "s":
                count = 0 if "g" in (flags or "") else 1
                cur = re.sub(bre_to_python(pat or ""), _sed_repl(repl or ""), cur, count=count)
        if not deleted and not quiet:
            # a substitution may inject newlines (e.g. s/ /\n/g): fan out
            out.extend(cur.split("\n")) if "\n" in cur else out.append(cur)
        if quit_after:
            break
    return out


# --------------------------------------------------------------------------
# head / tail / tac / col
# --------------------------------------------------------------------------


@register("head")
def head(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, with_arg="n")
    n = int(str(opts.get("n", "10")))
    lines = resolve_streams(operands, stdin, env)
    return lines[:n]


@register("tail")
def tail(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, with_arg="n")
    spec = str(opts.get("n", "10"))
    lines = resolve_streams(operands, stdin, env)
    if spec.startswith("+"):
        start = int(spec[1:])
        return lines[max(0, start - 1) :]
    return lines[-int(spec) :] if int(spec) > 0 else []


@register("tac")
def tac(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    _, operands = parse_opts(argv)
    lines = resolve_streams(operands, stdin, env)
    return list(reversed(lines))


@register("col")
def col(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """``col -bx``: resolve backspaces, expand tabs — on clean text this is
    control-character stripping; classified S like the original."""
    parse_opts(argv, flags="bx")
    return [l.replace("\b", "").replace("\t", " " * 8) for l in stdin]
