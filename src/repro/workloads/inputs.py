"""Deterministic synthetic inputs for the paper's workloads.

The paper evaluates on 1–10 GB text, 82 GB of NOAA fixed-width records and
1.3 GB of Wikipedia HTML; we generate distribution-preserving equivalents
at MB scale (zipfian word frequencies, mixed case and punctuation, the 999
missing-data sentinel, tag-per-line HTML) — DESIGN.md §5 documents why
this keeps every code path and speedup *shape* intact.

The generators stand in for files the shell would read, so they should
cost the driver little more than the lines they return. They draw integers
with numpy and build each line from Python lists of words, never through a
numpy string array: one such array (``vocab[idx]``, ``np.char.capitalize``)
holds every word of the corpus at the longest word's fixed width, and
building a corpus through three of them set the benchmark driver's peak
memory. Indexing a list with the same integer draws gives the same bytes.
"""
from __future__ import annotations

import string
from typing import List, Tuple

import numpy as np

from repro.commands.base import ExecEnv
from repro.commands.misc import gzip_to_b64

_BASE_WORDS = [
    "the", "of", "and", "a", "to", "in", "is", "you", "that", "it", "he",
    "was", "for", "on", "are", "as", "with", "his", "they", "I", "at", "be",
    "this", "have", "from", "or", "one", "had", "by", "word", "but", "not",
    "what", "all", "were", "we", "when", "your", "can", "said", "there",
    "use", "an", "each", "which", "she", "do", "how", "their", "if", "will",
    "up", "other", "about", "out", "many", "then", "them", "these", "so",
    "some", "her", "would", "make", "like", "him", "into", "time", "has",
    "look", "two", "more", "write", "go", "see", "number", "no", "way",
    "could", "people", "my", "than", "first", "water", "been", "call",
    "who", "oil", "its", "now", "find", "long", "down", "day", "did",
    "get", "come", "made", "may", "part", "unix", "shell", "pipeline",
]


def _vocab(n_extra: int = 400, seed: int = 7) -> List[str]:
    g = np.random.default_rng(seed)
    extra = [
        "".join(map(string.ascii_lowercase.__getitem__,
                    g.choice(26, size=g.integers(3, 10)).tolist()))
        for _ in range(n_extra)
    ]
    return _BASE_WORDS + extra


def text_corpus(n_lines: int, *, seed: int = 0, words_per_line: int = 8,
                punct: bool = True, mixed_case: bool = True) -> List[str]:
    """Zipf-distributed English-ish text, one sentence per line."""
    g = np.random.default_rng(seed)
    vocab = _vocab()
    ranks = np.arange(1, len(vocab) + 1)
    w = 1.0 / ranks**1.1
    w /= w.sum()
    k = words_per_line
    idx = g.choice(len(vocab), size=(n_lines, k), p=w)
    # index a table of both spellings: entry len(vocab) + i is word i capitalised
    table = vocab + [v.capitalize() for v in vocab]
    if mixed_case:
        idx += len(vocab) * (g.random((n_lines, k)) < 0.08)
    lines = [" ".join(map(table.__getitem__, row.tolist())) for row in idx]
    if punct:
        marks = g.random(n_lines)
        lines = [
            l + ("." if m < 0.5 else "!" if m < 0.6 else "?" if m < 0.7 else "")
            for l, m in zip(lines, marks)
        ]
    return lines


def spell_dict() -> List[str]:
    """The sorted lowercase dictionary `spell` compares against."""
    return sorted(set(w.lower() for w in _vocab()))


# --------------------------------------------------------------------------
# NOAA weather records (§6.3)
# --------------------------------------------------------------------------


def noaa_env(years: List[int], *, files_per_year: int = 8,
             records_per_file: int = 2000, seed: int = 3) -> ExecEnv:
    """Simulated NOAA FTP tree: per-year index pages listing .gz files, and
    fixed-width ISD-style records whose columns 89-92 hold the temperature
    (with the 999x missing-data sentinel the script filters out)."""
    g = np.random.default_rng(seed)
    env = ExecEnv()
    for y in years:
        listing: List[str] = []
        for i in range(files_per_year):
            fname = f"{y}-{i:04d}.gz"
            n = records_per_file
            temps = g.integers(0, 450, size=n)  # tenths of a degree C
            bogus = g.random(n) < 0.08
            recs: List[str] = []
            body = "0" * 60 + f"{y}" + "0" * 24  # 88 filler chars
            for t, b in zip(temps, bogus):
                tfield = "9999" if b else f"{t:04d}"
                recs.append(body + tfield + "x" * 10)
            env.files[f"noaa/{y}/{fname}"] = [gzip_to_b64(recs)]
            listing.append(
                f"-rw-r--r--  1 ftp      ftp    {n * 100:>8} Jan  1 00:00 {fname}"
            )
        env.files[f"noaa/{y}"] = listing
    return env


# --------------------------------------------------------------------------
# shortest-scripts vfs (§6.1; Wicked Cool Shell Scripts pg. 7)
# --------------------------------------------------------------------------


def script_files_env(n_files: int = 200, *, seed: int = 5) -> Tuple[ExecEnv, str]:
    """A virtual PATH of executables: ~40% are shell/python scripts (the
    `file` command reports their type), with varying line counts."""
    g = np.random.default_rng(seed)
    env = ExecEnv()
    names: List[str] = []
    types = [
        "POSIX shell script, ASCII text executable",
        "Python script, ASCII text executable",
        "ELF 64-bit LSB executable",
        "ASCII text",
        "symbolic link",
    ]
    for i in range(n_files):
        name = f"bin/tool{i:04d}"
        t = types[int(g.choice(len(types), p=[0.25, 0.15, 0.4, 0.15, 0.05]))]
        env.ftypes[name] = t
        n_lines = int(g.integers(3, 500))
        env.files[name] = [f"line {j}" for j in range(n_lines)]
        names.append(name)
    env.files["scripts.txt"] = names
    return env, "scripts.txt"


# --------------------------------------------------------------------------
# web indexing (§6.4)
# --------------------------------------------------------------------------


def html_page(seed: int, n_paras: int = 30) -> List[str]:
    g = np.random.default_rng(seed)
    vocab = _vocab()
    out = ["<html>", "<head><title>Page</title></head>", "<body>"]
    for i in range(n_paras):
        words = " ".join(vocab[j] for j in g.choice(len(vocab), size=12))
        link = f'<a href="http://wiki.sim/page{int(g.integers(0, 999))}">link</a>'
        out.append(f"<p>{words} {link}</p>")
    out.append("</body></html>")
    return out


def webindex_env(n_pages: int = 60, *, seed: int = 11) -> ExecEnv:
    env = ExecEnv()
    urls = []
    for i in range(n_pages):
        url = f"http://wiki.sim/art{i:04d}"
        env.files[url] = html_page(seed * 1000 + i)
        urls.append(url)
    env.files["urls.txt"] = urls
    return env


# --------------------------------------------------------------------------
# bio reads (§6.5 GNU-parallel micro-benchmark)
# --------------------------------------------------------------------------


def bio_reads(n_reads: int, *, seed: int = 13, adapter: str = "AGATCGGAAGAGC") -> List[str]:
    g = np.random.default_rng(seed)
    reads: List[str] = []
    for i in range(n_reads):
        # choice(4) draws the same integers that choice over a 4-array would
        read = "".join(map("ACGT".__getitem__, g.choice(4, size=60).tolist()))
        if g.random() < 0.35:  # adapter read-through
            cut = int(g.integers(20, 55))
            read = read[:cut] + adapter + read[cut : 60 - len(adapter)]
        reads.append(read)
    return reads
