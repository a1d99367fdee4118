"""Unix50 subset (§6.2).

The paper runs 31 unofficial GitHub solutions to Bell Labs' Unix50 game;
we reproduce 8 representative pipelines covering each §6.2 finding class
(DESIGN.md §5):

* sort-capped speedup (the paper's #5-9, 19-24),
* deep task-parallel pipelines (#4, 10-22),
* non-CPU-intensive, constant-cost-dominated (#3, 12, 16),
* awk/sed-blocked, no speedup without rewrite (#25-30) — plus the paper's
  "expert rewrite" of #26 (awk '{print $2, $0}' | sort -nr ==
  sort -rn -k2) showing the 1.01x -> 8.1x jump.
"""
from __future__ import annotations

from typing import Dict

from repro.commands.base import ExecEnv

from .inputs import text_corpus
from .oneliners import Workload


def _env(n_lines: int):
    def make(scale: float) -> ExecEnv:
        n = max(200, int(n_lines * scale))
        return ExecEnv(files={"in.txt": text_corpus(n, seed=42)})

    return make


UNIX50: Dict[str, Workload] = {
    "u1-field-hist": Workload(
        "u1-field-hist",
        'cat in.txt | cut -d " " -f 2 | sort | uniq -c | sort -rn | head -n 1',
        _env(1_200_000), "sort-capped",
    ),
    "u2-word-split": Workload(
        "u2-word-split",
        'cat in.txt | tr " " "\\n" | grep -i unix | sort | uniq -c | sort -rn | head -n 3',
        _env(1_000_000), "deep pipeline, sort-capped",
    ),
    "u3-prefix-hist": Workload(
        "u3-prefix-hist",
        "cat in.txt | cut -c 1-8 | sort | uniq -c | sort -rn | head -n 5",
        _env(1_200_000), "sort-capped",
    ),
    "u4-grep-count": Workload(
        "u4-grep-count",
        "cat in.txt | grep the | wc -l",
        _env(1_000_000), "not CPU-intensive: constant costs dominate",
    ),
    "u5-dedup-count": Workload(
        "u5-dedup-count",
        "cat in.txt | sort | uniq | wc -l",
        _env(1_500_000), "sort-capped",
    ),
    "u6-awk-blocked": Workload(
        "u6-awk-blocked",
        'cat in.txt | awk "{print \\$2, \\$0}" | sort -rn | head -n 1',
        _env(1_000_000), "awk blocks parallelization (paper #26, ~1.0x)",
    ),
    "u6-expert-rewrite": Workload(
        "u6-expert-rewrite",
        'cat in.txt | sort -rn -t " " -k 2 | head -n 1',
        _env(1_000_000), "the paper's expert rewrite of #26 (8.1x)",
    ),
    "u7-reverse-tail": Workload(
        "u7-reverse-tail",
        "cat in.txt | tac | head -n 10",
        _env(1_500_000), "not CPU-intensive",
    ),
    "u8-nfa-scan": Workload(
        "u8-nfa-scan",
        'cat in.txt | grep -E "(the|he)+ (and|nd)+" | cut -d " " -f 1-3 | sort -u',
        _env(700_000), "CPU-bound scan (~7.5% of lines match), good speedup",
    ),
}
