"""Ordering commands: sort (incl. ``-m`` merge), uniq, comm.

``sort`` follows GNU semantics under ``LC_ALL=C``: byte comparison, ``-n``
leading-numeric comparison with whole-line last-resort tiebreak, ``-r``
reversing the total order, ``-u`` keeping the first of equal keys, ``-s``
keeping equal keys in input order (both drop the last-resort compare),
``-k`` field keys (supported with an explicit ``-t`` separator), and ``-m``
merging already-sorted inputs. The aggregator of a parallel sort is sort
itself with the same flags (``rerun``): Timsort's run detection merges the
concatenated sorted runs near-linearly, the cost profile of PaSh's
``sort -m`` aggregator (§5). ``uniq -i`` folds ASCII letters only, as
under ``LC_ALL=C``.
"""
from __future__ import annotations

import itertools
import re
from typing import Callable, List, Tuple

from .base import CommandError, ExecEnv, operand_streams, parse_opts, register, resolve_streams

# under LC_ALL=C only ASCII digits are digits: ``sort -n`` reads '٣' as 0
_NUM_PREFIX = re.compile(r"^[ \t]*(-?\d*\.?\d*)", re.ASCII)


def numeric_value(s: str) -> float:
    m = _NUM_PREFIX.match(s)
    tok = m.group(1) if m else ""
    if tok in ("", "-", ".", "-."):
        return 0.0
    try:
        return float(tok)
    except ValueError:
        return 0.0


def _key_spec(kspec, numeric: bool) -> Tuple[slice, bool]:
    """A ``-k`` spec as ``(fields, numeric)``: ``fields`` slices the line's
    fields from the key's first to its last (or the line's last). A per-key
    ``r`` or a malformed spec raises here, before any line is keyed."""
    spec = str(kspec)
    knum = numeric
    if spec.endswith("n"):
        knum, spec = True, spec[:-1]
    if spec.endswith("r"):
        raise CommandError("sort: per-key r modifier unsupported")
    try:
        if "," in spec:
            lo_s, hi_s = spec.split(",", 1)
            lo, hi = int(lo_s), int(hi_s.rstrip("nr"))
        else:
            lo, hi = int(spec), 1 << 20
    except ValueError:
        raise CommandError(f"sort: invalid key {kspec}") from None
    return slice(lo - 1, hi), knum


def make_sort_key(opts) -> Callable[[str], Tuple]:
    """Build the GNU-compatible sort key. The key tuple always ends with the
    whole line (the last-resort comparison); ``-r`` is applied globally by
    the caller via ``reverse=True``, matching GNU's total-order reversal.
    The ``-k`` specs are parsed here, once, and each line is split once."""
    numeric = bool(opts.get("n"))
    keys = opts.get("k") or []
    sep = opts.get("t")
    if keys and sep is None:
        raise CommandError("sort: -k requires an explicit -t separator here")
    if not keys:
        if numeric:
            return lambda line: (numeric_value(line), line)
        return lambda line: (line, line)
    sep = str(sep)
    specs = [_key_spec(k, numeric) for k in keys]
    # fields after the last one a key reads stay unsplit
    maxsplit = max(fields.stop for fields, _ in specs)

    def key(line: str) -> Tuple:
        parts = line.split(sep, maxsplit)
        return (*(numeric_value(sep.join(parts[fields])) if knum else sep.join(parts[fields])
                  for fields, knum in specs), line)

    return key


def sort_order(opts) -> Tuple[Callable[[str], Tuple], bool]:
    """sort's order as ``(key, reverse)``: lines compare by ``key``,
    descending under ``reverse``. ``-u`` and ``-s`` drop the last-resort
    whole-line compare, so lines with equal keys compare equal."""
    full = make_sort_key(opts)
    key = (lambda l: full(l)[:-1]) if opts.get("u") or opts.get("s") else full
    return key, bool(opts.get("r"))


@register("sort")
def sort_cmd(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="rnums", with_arg="kt")
    key, rev = sort_order(opts)
    if opts.get("m"):
        # merge mode: inputs are already sorted; equivalent to stable sort of
        # the concatenation under the same comparator (GNU documents -m as a
        # pure merge; for sorted inputs the results coincide).
        streams = operand_streams(operands, stdin, env) if operands else [stdin]
        out = merge_sorted(streams, key=key, reverse=rev)
    else:
        lines = resolve_streams(operands, stdin, env)
        if opts.get("u") or opts.get("s"):
            # no last-resort compare: key-equal lines keep their input
            # order (Python's sort is stable, also under reverse)
            out = sorted(lines, key=key, reverse=rev)
        elif not opts.get("n") and not opts.get("k"):
            out = sorted(lines, reverse=rev)  # C-speed byte order
        elif not opts.get("k"):
            # -n: one lexsort on (number, line) builds no per-line key tuples
            import numpy as np

            nums = np.fromiter(map(numeric_value, lines), float, len(lines))
            arr = np.asarray(lines, dtype=object)
            order = np.lexsort((arr, nums))
            out = arr[order[::-1] if rev else order].tolist()
        else:
            out = sorted(lines, key=key, reverse=rev)
    if opts.get("u"):
        dedup: List[str] = []
        prev = object()
        for l in out:
            k = key(l)  # -u compares keys, not whole lines
            if k != prev:
                dedup.append(l)
                prev = k
        return dedup
    return out


def merge_sorted(streams: List[List[str]], *, key, reverse: bool = False) -> List[str]:
    """k-way stable merge of sorted runs: ``sort -m``."""
    import heapq

    class _Rev:
        __slots__ = ("k",)

        def __init__(self, k):
            self.k = k

        def __lt__(self, other):
            return other.k < self.k

        def __eq__(self, other):
            return self.k == other.k

    wrap = (lambda l: _Rev(key(l))) if reverse else key
    return list(heapq.merge(*streams, key=wrap))


_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")


def fold_case(s: str) -> str:
    """``uniq -i``'s case fold under ``LC_ALL=C``: ASCII letters only."""
    return s.lower() if s.isascii() else s.translate(_ASCII_LOWER)


@register("uniq")
def uniq(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="cdi")
    if len(operands) > 2:
        raise CommandError(f"uniq: extra operand '{operands[2]}'")
    lines = stdin if operands[:1] in ([], ["-"]) else env.read(operands[0])
    runs = [list(run) for _, run in itertools.groupby(lines, fold_case if opts.get("i") else None)]
    if opts.get("d"):
        runs = [run for run in runs if len(run) > 1]
    out = [f"{len(run):7d} {run[0]}" for run in runs] if opts.get("c") else [run[0] for run in runs]
    if operands[1:] in ([], ["-"]):
        return out
    env.files[operands[1]] = out  # the second operand is the output file
    return []


@register("comm")
def comm(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    opts, operands = parse_opts(argv, flags="123")
    if len(operands) != 2:
        raise CommandError("comm: need exactly two files")
    a = stdin if operands[0] == "-" else env.read(operands[0])
    b = stdin if operands[1] == "-" else env.read(operands[1])
    show1, show2, show3 = not opts.get("1"), not opts.get("2"), not opts.get("3")
    pre2 = "\t" if show1 else ""
    pre3 = ("\t" if show1 else "") + ("\t" if show2 else "")
    out: List[str] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            if show3:
                out.append(pre3 + a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            if show1:
                out.append(a[i])
            i += 1
        else:
            if show2:
                out.append(pre2 + b[j])
            j += 1
    if show1:
        out.extend(a[i:])
        i = len(a)
    if show2:
        out.extend(pre2 + x for x in b[j:])
    return out
