"""Aggregator library (§5 "Aggregator Implementations").

Each aggregator combines the ordered outputs of n map invocations of a ⓟ
command into what the sequential command would have produced on the
concatenated input: ``agg(m(x1), ..., m(xn)) == f(x1 · ... · xn)`` — the
§3.2 invariant, property-tested in ``tests/test_aggregators.py``.

Signature: ``agg(parts, spec) -> lines`` where ``parts`` are the map
outputs in stream order and ``spec`` is the original command's
:class:`~repro.annotations.model.Resolved` (aggregators need the flags:
head's count, wc's selected columns...).

An annotation's ``aggregator`` is either ``rerun`` or the name of one of
the other entries here. ``rerun`` (KumQuat's name for it) runs the command
itself, with its own flags, over the concatenated map outputs: sort (whose
sorted runs Timsort merges near-linearly, PaSh's ``sort -m``), uniq, head
and tail, and ``cat -n``/``nl`` over their plain ``cat`` maps. The rest are
not the command: ``uniq -c``'s boundary repair, wc's column addition for
arbitrary flag combinations, ``grep -c``'s sum, tac's reverse-order stream
consumption and the n-gram joins.

**Range form.** When an aggregator's output is re-chunked by a ``split``
(PaSh's ``agg | split``), sort's ``rerun`` has a second form that
:func:`range_form` returns: ``fn(parts, r, width)`` is chunk ``r`` of
``width`` contiguous chunks of ``rerun(parts)``, computed from ``parts``
alone, so ``width`` tasks can each compute one chunk. Every call picks the
same ``width - 1`` splitters from a fixed sample of each (sorted) part,
cuts every part at them by binary search in sort's full order, and reruns
sort over its pieces. The chunks, concatenated, are ``rerun(parts)`` byte
for byte; only their sizes differ from an even split, and PaSh's ``split``
needs contiguous chunks, not equal ones. No other aggregator has the form:
:func:`whole_range` gives any aggregator the trivial one, the chunks of its
whole output as PaSh's ``split`` cuts them, which runs the whole aggregator
in every range task.
"""
from __future__ import annotations

import re
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.annotations.model import Resolved
from repro.commands import run_cli
from repro.commands.custom import ngrams_agg
from repro.commands.sortcmds import sort_order
from repro.dfg.graph import split_chunks

RangeFn = Callable[[List[List[str]], int, int], List[str]]

_SAMPLES_PER_PART = 16  # lines of each part a range task samples for splitters


def _agg_rerun(parts: List[List[str]], spec: Resolved) -> List[str]:
    return run_cli(spec.command, spec.stdin_argv, [l for part in parts for l in part])


def _splitters(parts: List[List[str]], key, rev: bool, width: int) -> List[object]:
    """The ``width - 1`` keys that cut the order into ``width`` ranges: weighted
    quantiles of evenly spaced samples of each sorted part, each standing
    for ``len(part) / samples`` lines (Spark's ``RangePartitioner`` bounds)."""
    samples = []
    for part in parts:
        n = len(part)
        k = min(n, _SAMPLES_PER_PART)
        samples += [(key(part[(2 * i + 1) * n // (2 * k)]), n / k) for i in range(k)]
    samples.sort(key=lambda s: s[0], reverse=rev)
    total = sum(w for _, w in samples)
    bounds: List[object] = []
    i, acc = 0, samples[0][1]
    for j in range(1, width):
        while acc < total * j / width and i < len(samples) - 1:
            i += 1
            acc += samples[i][1]
        bounds.append(samples[i][0])
    return bounds


def _cut(part: List[str], bound: object, key, rev: bool) -> int:
    """How many leading lines of the sorted ``part`` sort at or before ``bound``."""
    lo, hi = 0, len(part)
    while lo < hi:
        mid = (lo + hi) // 2
        k = key(part[mid])
        if (k < bound) if rev else (bound < k):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _sort_range(spec: Resolved, parts: List[List[str]], r: int, width: int) -> List[str]:
    """Range ``r`` of ``width`` of ``rerun(parts, spec)`` for sort. Under
    ``-u`` and ``-s`` the order has no whole-line compare, so lines with
    equal keys fall in one range and keep their relative order in it."""
    if not any(parts):
        return []
    key, rev = sort_order(spec.opts)
    bounds = _splitters(parts, key, rev, width)
    lo = [0] * len(parts) if r == 0 else [_cut(p, bounds[r - 1], key, rev) for p in parts]
    hi = ([len(p) for p in parts] if r == width - 1
          else [_cut(p, bounds[r], key, rev) for p in parts])
    return _agg_rerun([p[a:b] for p, a, b in zip(parts, lo, hi)], spec)


def range_form(name: str, spec: Resolved) -> Optional[RangeFn]:
    """The range form of aggregator ``name`` for ``spec`` (see the module
    docstring), or None: only sort's ``rerun`` has one."""
    if name == "rerun" and spec.command == "sort":
        return partial(_sort_range, spec)
    return None


def whole_range(agg: Callable[[List[List[str]]], List[str]]) -> RangeFn:
    """The range form every aggregator ``agg`` has: range ``r`` is chunk
    ``r`` of ``agg(parts)`` as ``split_chunks`` cuts it."""
    return lambda parts, r, width: split_chunks(agg(parts), width)[r]


_UNIQ_C = re.compile(r"^\s*(\d+) (.*)$", re.S)


def _agg_uniq_c(parts: List[List[str]], spec: Resolved) -> List[str]:
    groups: List[List[object]] = []  # [text, count]
    for part in parts:
        for i, l in enumerate(part):
            m = _UNIQ_C.match(l)
            if not m:
                raise ValueError(f"uniq -c aggregator: bad line {l!r}")
            n, text = int(m.group(1)), m.group(2)
            # only a part's first group can continue the previous part's
            # last one; uniq itself (with -i, say) decides whether it does
            if i == 0 and groups and len(
                    run_cli(spec.command, spec.stdin_argv, [groups[-1][0], text])) == 1:
                groups[-1][1] += n  # type: ignore[operator]
            else:
                groups.append([text, n])
    return [f"{n:7d} {text}" for text, n in groups]


def _agg_wc(parts: List[List[str]], spec: Resolved) -> List[str]:
    sums: List[int] = []
    for part in parts:
        if len(part) != 1:
            raise ValueError("wc aggregator: expected one line per map")
        vals = [int(tok) for tok in part[0].split()]
        if not sums:
            sums = vals
        else:
            sums = [a + b for a, b in zip(sums, vals)]
    if len(sums) == 1:
        return [str(sums[0])]
    return [" ".join(f"{c:7d}" for c in sums)]


def _agg_sum(parts: List[List[str]], spec: Resolved) -> List[str]:
    return [str(sum(int(p[0]) for p in parts if p))]


def _agg_tac(parts: List[List[str]], spec: Resolved) -> List[str]:
    """tac's aggregator "consumes stream descriptors in reverse order" —
    each map output is already reversed, so concatenate right-to-left."""
    out: List[str] = []
    for part in reversed(parts):
        out.extend(part)
    return out


def _agg_ngrams2(parts: List[List[str]], spec: Resolved) -> List[str]:
    return ngrams_agg(parts, 2)


def _agg_ngrams3(parts: List[List[str]], spec: Resolved) -> List[str]:
    return ngrams_agg(parts, 3)


AGGREGATORS: Dict[str, Callable[[List[List[str]], Resolved], List[str]]] = {
    "rerun": _agg_rerun,
    "uniq_c": _agg_uniq_c,
    "wc": _agg_wc,
    "sum": _agg_sum,
    "tac": _agg_tac,
    "ngrams2": _agg_ngrams2,
    "ngrams3": _agg_ngrams3,
}


def aggregate(name: str, parts: List[List[str]], spec: Resolved) -> List[str]:
    return AGGREGATORS[name](parts, spec)
