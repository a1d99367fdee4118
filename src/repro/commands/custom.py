"""Non-POSIX commands used by the paper's benchmarks, with their custom
map/aggregate decompositions (§3.2 "Custom Aggregators").

``bigrams_aux``/``trigrams_aux`` are the paper's canonical custom-aggregator
examples: the whole-stream function is *not* stateless (pairs span chunk
boundaries), so the map stage extends its output with ``#F``/``#L`` sentinel
lines carrying the chunk's first/last words and the aggregator stitches the
boundary pairs — exactly invariant (ii) of §3.2: "map can extend the output
of the original command, aggregate combines the results of multiple maps".

The web-indexing stages (§6.4: url_extract in JavaScript, word_stem in
Python) are reimplemented here; their classes are trivially S, which is the
paper's point — a one-record annotation suffices for foreign commands.
"""
from __future__ import annotations

import hashlib
import re
from typing import List

from .base import ExecEnv, parse_opts, register


def _pairs(words: List[str], span: int) -> List[str]:
    return [" ".join(words[i : i + span]) for i in range(len(words) - span + 1)]


def _ngrams_aux(stdin: List[str], span: int) -> List[str]:
    words = [l for l in stdin if l]
    return _pairs(words, span)


@register("bigrams_aux")
def bigrams_aux(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """One word per input line -> one adjacent pair per output line."""
    return _ngrams_aux(stdin, 2)


@register("trigrams_aux")
def trigrams_aux(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    return _ngrams_aux(stdin, 3)


def ngrams_map(stdin: List[str], span: int) -> List[str]:
    """Map stage: chunk-local n-grams plus boundary sentinels.

    The map output *extends* the command's (§3.2 invariant ii): it is
    prefixed with ``#N <count>`` and one ``#H:``/``#T:`` sentinel line per
    first/last element (each sentinel carries one full input element, so
    elements containing spaces round-trip).
    """
    words = [l for l in stdin if l]
    k = span - 1
    head = words[:k]
    tailw = words[-k:] if len(words) >= k else words
    out = [f"#N {len(words)}"]
    out.extend(f"#H:{w}" for w in head)
    out.extend(f"#T:{w}" for w in tailw)
    out.extend(_pairs(words, span))
    return out


def ngrams_agg(parts: List[List[str]], span: int) -> List[str]:
    """Aggregate stage: concatenate chunk n-grams, inserting boundary ones."""
    out: List[str] = []
    carry: List[str] = []  # last span-1 words seen so far
    for chunk in parts:
        if not chunk:
            continue
        nwords = int(chunk[0].removeprefix("#N ")) if chunk[0].startswith("#N") else 0
        i = 1
        head: List[str] = []
        tailw: List[str] = []
        while i < len(chunk) and chunk[i].startswith("#H:"):
            head.append(chunk[i][3:])
            i += 1
        while i < len(chunk) and chunk[i].startswith("#T:"):
            tailw.append(chunk[i][3:])
            i += 1
        body = chunk[i:]
        if carry and nwords:
            # n-grams spanning the chunk boundary: windows over carry+head
            # that start inside carry (fully-inside-carry windows cannot
            # exist, |carry| <= span-1; fully-inside-head ones are in body)
            joined = carry + head
            out.extend(
                " ".join(joined[i : i + span])
                for i in range(len(joined) - span + 1)
                if i < len(carry)
            )
        out.extend(body)
        if nwords >= span - 1:
            carry = tailw
        else:
            carry = (carry + tailw)[-(span - 1) :]
    return out


@register("strip_html")
def strip_html(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """HTML-to-text (per line; synthetic pages keep tags line-local). S."""
    out: List[str] = []
    for l in stdin:
        t = re.sub(r"<[^>]*>", " ", l)
        t = re.sub(r"\s+", " ", t).strip()
        if t:
            out.append(t)
    return out


@register("url_extract")
def url_extract(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Extract href URLs (the paper's JavaScript stage). S."""
    rx = re.compile(r'href="([^"]+)"')
    return [m for l in stdin for m in rx.findall(l)]


_SUFFIXES = ("ational", "iveness", "fulness", "ization", "ousness", "tional",
             "ation", "ement", "ments", "ing", "ed", "ies", "es", "ly", "s")


@register("word_stem")
def word_stem(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Suffix-stripping stemmer (the paper's Python stage). S, per line."""
    out: List[str] = []
    for l in stdin:
        w = l
        for suf in _SUFFIXES:
            if w.endswith(suf) and len(w) - len(suf) >= 3:
                w = w[: -len(suf)]
                break
        out.append(w)
    return out


@register("cutadapt_sim")
def cutadapt_sim(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Adapter-trimming simulator for the §6.5 bio pipeline: per read (line),
    locate an adapter with tolerant matching and trim; the deliberate extra
    hashing models cutadapt's dominant per-read CPU cost. S."""
    opts, operands = parse_opts(argv, with_arg="a")
    adapter = str(opts.get("a", "AGATCGGAAGAGC"))
    rx = re.compile("(" + ")?(".join(adapter) + ")?" + adapter[:4])
    out: List[str] = []
    for l in stdin:
        m = rx.search(l)
        pos = m.start() if m else len(l)
        h = l.encode()
        for _ in range(6):  # model cutadapt's per-read scoring cost
            h = hashlib.sha1(h).digest()
        out.append(l[:pos] if pos else l)
    return out


@register("bigrams_aux_map")
def bigrams_aux_map(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Map stage of bigrams_aux's custom (map, aggregate) pair (§3.2)."""
    return ngrams_map(stdin, 2)


@register("trigrams_aux_map")
def trigrams_aux_map(argv: List[str], stdin: List[str], env: ExecEnv) -> List[str]:
    """Map stage of trigrams_aux's custom (map, aggregate) pair (§3.2)."""
    return ngrams_map(stdin, 3)
