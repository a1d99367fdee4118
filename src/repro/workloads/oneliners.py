"""The ten §6.1 one-liners (Tab. 2), adapted to the simulated environment.

Scripts follow PaSh's published benchmark suite; the class structure of
each (Tab. 2 "Structure") is recovered from our own annotations and
reported next to the paper's by ``jobs/table2_oneliners.py``. ``scale=1.0`` sizes inputs
so the *sequential* run takes seconds, not the paper's tens of minutes —
ratios, not absolute times, are the reproduction target.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.commands.base import ExecEnv

from .inputs import script_files_env, spell_dict, text_corpus

# An expensive backtracking ERE, the analogue of the paper's NFA regex
NFA_REGEX = "((t|h|e|a|n|d)+ ?)+(xyzzy)"


@dataclass
class Workload:
    name: str
    script: str
    make_env: Callable[[float], ExecEnv]  # scale -> environment
    highlights: str = ""


def _corpus_env(n_lines: int):
    def make(scale: float) -> ExecEnv:
        n = max(200, int(n_lines * scale))
        return ExecEnv(files={"in.txt": text_corpus(n, seed=0)})

    return make


def _two_corpus_env(n_lines: int):
    def make(scale: float) -> ExecEnv:
        n = max(200, int(n_lines * scale))
        return ExecEnv(files={
            "in.txt": text_corpus(n, seed=0),
            "in2.txt": text_corpus(n, seed=1),
        })

    return make


def _spell_env(n_lines: int):
    def make(scale: float) -> ExecEnv:
        n = max(200, int(n_lines * scale))
        return ExecEnv(files={
            "in.txt": text_corpus(n, seed=0),
            "dict.txt": spell_dict(),
        })

    return make


def _scripts_env(n_files: int):
    def make(scale: float) -> ExecEnv:
        env, _ = script_files_env(max(20, int(n_files * scale)))
        return env

    return make


ONELINERS: Dict[str, Workload] = {
    "nfa-regex": Workload(
        "nfa-regex",
        f'cat in.txt | tr A-Z a-z | grep -E "{NFA_REGEX}"',
        _corpus_env(600_000),
        "complex NFA regex",
    ),
    "sort": Workload(
        "sort",
        "cat in.txt | tr A-Z a-z | sort",
        _corpus_env(3_000_000),
        "sorting",
    ),
    "top-n": Workload(
        "top-n",
        'cat in.txt | tr -cs A-Za-z "\\n" | tr A-Z a-z | sort | uniq -c '
        "| sort -rn | head -n 100",
        _corpus_env(1_000_000),
        "double sort, uniq reduction",
    ),
    "wf": Workload(
        "wf",
        'cat in.txt | tr -cs A-Za-z "\\n" | tr A-Z a-z | sort | uniq -c | sort -rn',
        _corpus_env(1_000_000),
        "double sort, uniq reduction",
    ),
    "spell": Workload(
        "spell",
        'cat in.txt | col -bx | tr -cs A-Za-z "\\n" | tr A-Z a-z '
        '| tr -d "[:punct:]" | sort | uniq | comm -13 dict.txt -',
        _spell_env(1_000_000),
        "long S pipeline ending with P and a static-input comm",
    ),
    "shortest-scripts": Workload(
        "shortest-scripts",
        "cat scripts.txt | xargs file | grep -i script | cut -d: -f1 "
        "| xargs -L 1 wc -l | sort -n | head -n 15",
        _scripts_env(4_000),
        "higher-order wc via xargs",
    ),
    "diff": Workload(
        "diff",
        "diff <(cat in.txt | sort) <(cat in2.txt | sort)",
        _two_corpus_env(400_000),
        "non-parallelizable diffing",
    ),
    "set-diff": Workload(
        "set-diff",
        "comm -23 <(cat in.txt | sort) <(cat in2.txt | sort)",
        _two_corpus_env(1_000_000),
        "two pipelines merging into a comm",
    ),
    "sort-sort": Workload(
        "sort-sort",
        "cat in.txt | tr A-Z a-z | sort | sort -r",
        _corpus_env(2_000_000),
        "parallelizable P after P",
    ),
    "bi-grams": Workload(
        "bi-grams",
        'cat in.txt | tr -cs A-Za-z "\\n" | tr A-Z a-z | bigrams_aux | sort | uniq',
        _corpus_env(600_000),
        "stream shifting and merging (custom map/aggregate)",
    ),
}
