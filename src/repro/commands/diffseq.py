"""GNU diff's algorithm, so that ``diff`` prints the hunks GNU prints.

A port of diffutils' ``analyze.c`` and gnulib's ``diffseq.h`` (Myers, *An
O(ND) difference algorithm and its variations*, Algorithmica 1986) for the
default options. The steps are GNU's:

1. ``find_identical_ends``: the common prefix and suffix lines are set
   aside and never compared (the normal format has no context, so GNU
   keeps no horizon lines).
2. Equivalence classes over the rest of both files: the lines themselves,
   counted with ``Counter``.
3. ``discard_confusing_lines``: a line with no match in the other file is
   discarded, and one with more than ``many`` matches is discarded
   provisionally; a provisional discard stands only inside a run of
   discards, as GNU refines it. Discarded lines are changes.
4. ``compareseq``/``diag``: the middle snake over the lines left, with
   GNU's ``too_expensive`` cut-off (its ``--speed-large-files`` heuristic
   is off by default, so it is not ported).
5. ``shift_boundaries``: a run of changes slides as far down as it can,
   merging with the runs it meets, and then back up to end with a run of
   the other file if it passed one.
6. ``build_script`` and the normal format.

Every per-line pass is a whole-list operation that runs at C speed:
``Counter``, ``map``, ``itertools.compress``, byte strings with one code
per line and regular expressions over them. The Python loops run once per
run of changed lines, or per step of the middle snake.
"""
from __future__ import annotations

import re
from collections import Counter
from itertools import compress, count, islice, repeat
from operator import ne
from typing import Dict, List, Tuple

# per-line codes of discard_confusing_lines: 0 kept, 1 discarded,
# 2 provisionally discarded
_DISCARDS = re.compile(rb"[\x01\x02]+")
_KEPT = re.compile(rb"\x00+")
_CHANGED = re.compile(rb"\x01+")
_CHANGE_FLAG = bytes([0, 1, 1]) + bytes(253)  # a discard is a change
_KEEP = bytes([1, 0, 0]) + bytes(253)  # only a line with code 0 is compared


def _first_difference(a, b, limit: int) -> int:
    """How many leading items of ``a`` and ``b`` are equal, at most ``limit``."""
    return next(compress(count(), islice(map(ne, a, b), limit)), limit)


def _many(lines: int) -> int:
    """GNU's threshold for a provisional discard: 5 times about the square
    root of ``lines / 64``."""
    many, tem = 5, lines // 64
    while tem >> 2:
        tem >>= 2
        many *= 2
    return many


def _match_codes(lines: int) -> Dict[int, int]:
    """The discard code of a line in a file of ``lines`` lines, keyed by
    how many lines of the other file it matches: 1 (discard) for none and
    0 (keep) up to ``many``. A count above ``many`` is absent, so
    ``.get(count, 2)`` gives 2 (discard provisionally)."""
    codes = dict.fromkeys(range(1, _many(lines) + 1), 0)
    codes[0] = 1
    return codes


def _discards(codes: bytes) -> bytearray:
    """The per-line codes after GNU's refinement of provisional discards:
    a 2 that is left is a discard too."""
    out = bytearray(codes)
    for m in _DISCARDS.finditer(codes):
        if b"\x02" in m.group():
            _refine_run(out, *m.span())
    return out


def _refine_run(d: bytearray, start: int, end: int) -> None:
    """GNU's refinement of one maximal run ``d[start:end]`` of discards
    that holds a provisional one: provisionals stand only between definite
    discards, where they are not too many and not in a long subrun, and
    not near the run's ends."""
    i, j = d.find(1, start, end), d.rfind(1, start, end) + 1
    if i == -1:  # no definite discard: keep the whole run
        d[start:end] = bytes(end - start)
        return
    d[start:i] = bytes(i - start)
    d[j:end] = bytes(end - j)
    length = j - i
    if d.count(2, i, j) * 4 > length:
        d[i:j] = d[i:j].replace(b"\x02", b"\x00")
        return
    minimum, tem = 1, length >> 2
    while tem >> 2:
        tem >>= 2
        minimum <<= 1
    minimum += 1
    # a subrun of ``minimum`` or more provisionals is kept
    d[i:j] = re.sub(rb"\x02{%d,}" % minimum, lambda m: bytes(len(m.group())), d[i:j])
    # from each end, keep provisionals until three definite discards in a
    # row, or a definite one at least 8 lines in
    for step, first in ((1, i), (-1, j - 1)):
        consec = 0
        for k in range(length):
            p = first + step * k
            if k >= 8 and d[p] == 1:
                break
            if d[p] == 1:
                consec += 1
                if consec == 3:
                    break
            else:
                d[p] = 0
                consec = 0


def _diag(xv: List[int], yv: List[int], xoff: int, xlim: int, yoff: int, ylim: int,
          minimal: bool, fd: List[int], bd: List[int], off: int,
          too_expensive: int) -> Tuple[int, int, bool, bool]:
    """The midpoint ``(xmid, ymid)`` of a shortest edit script of
    ``xv[xoff:xlim]`` and ``yv[yoff:ylim]``, and whether each half's script
    is still to be found minimally. ``fd``/``bd`` hold the furthest point
    on each diagonal ``d`` at index ``d + off``. Unless ``minimal``, the
    search gives up at cost ``too_expensive`` and returns the furthest
    point reached."""
    dmin, dmax = xoff - ylim, xlim - yoff
    fmid, bmid = xoff - yoff, xlim - ylim
    fmin = fmax = fmid
    bmin = bmax = bmid
    odd = (fmid - bmid) & 1
    fd[fmid + off] = xoff
    bd[bmid + off] = xlim
    c = 0
    while True:
        c += 1
        # extend the top-down search by an edit step in each diagonal
        if fmin > dmin:
            fmin -= 1
            fd[fmin - 1 + off] = -1
        else:
            fmin += 1
        if fmax < dmax:
            fmax += 1
            fd[fmax + 1 + off] = -1
        else:
            fmax -= 1
        for d in range(fmax, fmin - 1, -2):
            tlo, thi = fd[d - 1 + off], fd[d + 1 + off]
            x = thi if tlo < thi else tlo + 1
            y = x - d
            while x < xlim and y < ylim and xv[x] == yv[y]:
                x += 1
                y += 1
            fd[d + off] = x
            if odd and bmin <= d <= bmax and bd[d + off] <= x:
                return x, y, True, True
        # and the bottom-up search
        if bmin > dmin:
            bmin -= 1
            bd[bmin - 1 + off] = xlim + ylim + 1
        else:
            bmin += 1
        if bmax < dmax:
            bmax += 1
            bd[bmax + 1 + off] = xlim + ylim + 1
        else:
            bmax -= 1
        for d in range(bmax, bmin - 1, -2):
            tlo, thi = bd[d - 1 + off], bd[d + 1 + off]
            x = tlo if tlo < thi else thi - 1
            y = x - d
            while xoff < x and yoff < y and xv[x - 1] == yv[y - 1]:
                x -= 1
                y -= 1
            bd[d + off] = x
            if not odd and fmin <= d <= fmax and x <= fd[d + off]:
                return x, y, True, True
        if minimal or c < too_expensive:
            continue
        # gone well beyond the call of duty: the forward diagonal that got
        # furthest (max x + y) or the backward one (min x + y), whichever
        # went further
        fxybest, fxbest = -1, 0
        for d in range(fmax, fmin - 1, -2):
            x = min(fd[d + off], xlim)
            y = x - d
            if ylim < y:
                x, y = ylim + d, ylim
            if fxybest < x + y:
                fxybest, fxbest = x + y, x
        bxybest, bxbest = xlim + ylim + 1, 0
        for d in range(bmax, bmin - 1, -2):
            x = max(xoff, bd[d + off])
            y = x - d
            if y < yoff:
                x, y = yoff + d, yoff
            if x + y < bxybest:
                bxybest, bxbest = x + y, x
        if (xlim + ylim) - bxybest < fxybest - (xoff + yoff):
            return fxbest, fxybest - fxbest, True, False
        return bxbest, bxybest - bxbest, False, True


def _compareseq(xv: List[int], yv: List[int]) -> Tuple[bytearray, bytearray]:
    """Which items of ``xv`` are deleted and which of ``yv`` inserted, as
    one flag byte per item."""
    xch, ych = bytearray(len(xv)), bytearray(len(yv))
    diags = len(xv) + len(yv) + 3
    fd, bd, off = [0] * diags, [0] * diags, len(yv) + 1
    # approximately the square root of the input size, at least 4096
    too_expensive = 1
    while diags:
        too_expensive <<= 1
        diags >>= 2
    too_expensive = max(4096, too_expensive)
    todo = [(0, len(xv), 0, len(yv), False)]
    while todo:
        xoff, xlim, yoff, ylim, minimal = todo.pop()
        while xoff < xlim and yoff < ylim and xv[xoff] == yv[yoff]:
            xoff += 1
            yoff += 1
        while xoff < xlim and yoff < ylim and xv[xlim - 1] == yv[ylim - 1]:
            xlim -= 1
            ylim -= 1
        if xoff == xlim:
            ych[yoff:ylim] = b"\x01" * (ylim - yoff)
        elif yoff == ylim:
            xch[xoff:xlim] = b"\x01" * (xlim - xoff)
        else:
            xmid, ymid, lo_minimal, hi_minimal = _diag(
                xv, yv, xoff, xlim, yoff, ylim, minimal, fd, bd, off, too_expensive)
            todo.append((xmid, xlim, ymid, ylim, hi_minimal))
            todo.append((xoff, xmid, yoff, ymid, lo_minimal))
    return xch, ych


def _changed_flags(codes: bytearray, kept_flags: bytearray) -> bytearray:
    """One change flag per line, and a 0 after the last: a discarded line
    is a change, and the kept lines take ``kept_flags`` in order."""
    ch = bytearray(codes.translate(_CHANGE_FLAG))
    ch.append(0)
    u = 0
    for m in _KEPT.finditer(codes):
        s, e = m.span()
        ch[s:e] = kept_flags[u:u + e - s]
        u += e - s
    return ch


def _shift_boundaries(lines: List[str], ch: bytearray,
                      other_runs: Dict[int, Tuple[int, int]]) -> None:
    """GNU's ``shift_boundaries`` on one file's change flags ``ch``: each
    run of changes moves up while the line before it equals its last line,
    merging with earlier runs, then down while its first line equals the
    line after it, merging with later runs, until it stops growing; then
    it moves back up to the lowest point where it ended aligned with a run
    of the other file (``other_runs``, keyed by the unchanged lines before
    each run)."""
    n = len(lines)
    i = k = 0  # k: unchanged lines before i
    while True:
        start = ch.find(1, i)
        if start == -1:
            return
        k += start - i
        i = ch.find(0, start)
        while True:
            runlength = i - start
            while start and lines[start - 1] == lines[i - 1]:
                start -= 1
                ch[start] = 1
                i -= 1
                ch[i] = 0
                start = ch.rfind(0, 0, start) + 1
                k -= 1
            corresponding = i if k in other_runs else n
            while i != n and lines[start] == lines[i]:
                ch[start] = 0
                start += 1
                ch[i] = 1
                i = ch.find(0, i)
                k += 1
                if k in other_runs:
                    corresponding = i
            if runlength == i - start:
                break
        while corresponding < i:
            start -= 1
            ch[start] = 1
            i -= 1
            ch[i] = 0
            k -= 1


def _runs(ch: bytearray) -> Dict[int, Tuple[int, int]]:
    """The runs of changes as ``{unchanged lines before it: (start,
    length)}``; runs of both files with the same key form one hunk."""
    runs: Dict[int, Tuple[int, int]] = {}
    changed = 0
    for m in _CHANGED.finditer(ch):
        s, e = m.span()
        runs[s - changed] = (s, e - s)
        changed += e - s
    return runs


def _range(first: int, length: int) -> str:
    """GNU's line range of ``length`` lines from 0-based ``first``: an
    empty range names the line before it."""
    if length > 1:
        return f"{first + 1},{first + length}"
    return str(first + length)


def normal_diff(a: List[str], b: List[str]) -> List[str]:
    """``diff a b`` in GNU's normal format."""
    n = min(len(a), len(b))
    pre = _first_difference(a, b, n)
    suf = _first_difference(reversed(a), reversed(b), n - pre)
    am, bm = a[pre:len(a) - suf], b[pre:len(b) - suf]
    # equivalence classes: the lines. Each line of b counts its matches in
    # a, and each line of a that b matches counts its matches in b
    acount = Counter(am)
    bmatches = list(map(acount.get, bm, repeat(0)))
    bcount = Counter(compress(bm, bmatches))
    acode, bcode = _match_codes(len(am)), _match_codes(len(bm))
    matched = dict(zip(bcount, map(acode.get, bcount.values(), repeat(2))))
    adisc = _discards(bytes(map(matched.get, am, repeat(1))))
    bdisc = _discards(bytes(map(bcode.get, bmatches, repeat(2))))
    # the snake compares the class ids of the lines not discarded
    akept = list(compress(am, adisc.translate(_KEEP)))
    bkept = list(compress(bm, bdisc.translate(_KEEP)))
    ids = dict(zip([*akept, *bkept], count()))
    xch, ych = _compareseq(list(map(ids.__getitem__, akept)),
                           list(map(ids.__getitem__, bkept)))
    ach, bch = _changed_flags(adisc, xch), _changed_flags(bdisc, ych)
    _shift_boundaries(am, ach, _runs(bch))
    aruns = _runs(ach)
    _shift_boundaries(bm, bch, aruns)
    bruns = _runs(bch)
    out: List[str] = []
    adone = bdone = 0  # changed lines in earlier hunks
    for key in sorted({*aruns, *bruns}):
        s0, l0 = aruns.get(key, (key + adone, 0))
        s1, l1 = bruns.get(key, (key + bdone, 0))
        adone += l0
        bdone += l1
        s0 += pre
        s1 += pre
        letter = "c" if l0 and l1 else "d" if l0 else "a"
        out.append(f"{_range(s0, l0)}{letter}{_range(s1, l1)}")
        out += ["< " + line for line in a[s0:s0 + l0]]
        if letter == "c":
            out.append("---")
        out += ["> " + line for line in b[s1:s1 + l1]]
    return out
