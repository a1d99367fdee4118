"""PaSh's standard library of annotations for the commands our benchmarks
use (the paper annotated 47 POSIX/GNU commands in 708 lines of JSON; this is
the subset the 44 evaluated scripts exercise, plus the §6.4 foreign-language
commands whose one-record annotations the paper highlights).

Records are plain JSON-serializable dicts — tests round-trip them through
``json`` to keep the "lightweight JSON annotation language" claim honest.

Class P clauses name their ``aggregator``: ``rerun``, which runs the
command itself with its own flags over the concatenated map outputs, or a
key into :mod:`repro.runtime.aggregators` when the aggregator is not the
command (``uniq -c``, ``wc``...). A clause may add a ``map_argv`` override
(``$argv`` splices the original argv) when the map stage differs from the
command itself — e.g. ``cat -n``'s map is plain ``cat``, and ``cat -n``
itself numbers the concatenation.
"""
from __future__ import annotations

from typing import Dict

S, P, N, E = "stateless", "parallelizable_pure", "non_parallelizable_pure", "side_effectful"


def _ex(flag: str) -> Dict:
    return {"operator": "exists", "operands": [flag]}


def _all(*preds) -> Dict:
    return {"operator": "all", "operands": list(preds)}


def _rx(tok: str, rx: str) -> Dict:
    return {"operator": "regex", "operands": [tok, rx]}


LIBRARY: Dict[str, Dict] = {
    "cat": {
        "command": "cat",
        "parse": {"flags": "n"},
        "cases": [
            {"predicate": _ex("-n"), "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "rerun", "map_argv": ["cat"]},
            {"predicate": "default", "class": S, "inputs": ["args"], "outputs": ["stdout"]},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "grep": {
        "command": "grep",
        "parse": {"flags": "ivcExFwh"},
        "cases": [
            {"predicate": _ex("-c"), "class": P, "inputs": ["args[1:]"],
             "outputs": ["stdout"], "aggregator": "sum"},
            {"predicate": "default", "class": S, "inputs": ["args[1:]"], "outputs": ["stdout"]},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "tr": {
        "command": "tr",
        "parse": {"flags": "csdC"},
        "cases": [
            {"predicate": "default", "class": S, "inputs": ["stdin"], "outputs": ["stdout"]},
        ],
        "options": ["short-combined"],
    },
    "cut": {
        "command": "cut",
        "parse": {"flags": "s", "with_arg": "dfcb"},
        "cases": [
            {"predicate": "default", "class": S, "inputs": ["args"], "outputs": ["stdout"]},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "sed": {
        "command": "sed",
        "parse": {"flags": "n", "with_arg": "e"},
        "cases": [
            # substitutions and regex-addressed deletes are per-line (S);
            # numeric/$ addresses depend on absolute line numbers -> N
            {"predicate": _all({"operator": "not", "operands": [_ex("-n")]},
                               _rx("args[0]", r"^(s[^ ]|/)")),
             "class": S, "inputs": ["args[1:]"], "outputs": ["stdout"]},
            {"predicate": "default", "class": N, "inputs": ["args[1:]"], "outputs": ["stdout"]},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "sort": {
        "command": "sort",
        "parse": {"flags": "rnums", "with_arg": "kt"},
        "cases": [
            # -m in a user script: already a merge; leave sequential
            {"predicate": _ex("-m"), "class": N, "inputs": ["args"], "outputs": ["stdout"]},
            {"predicate": "default", "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "rerun"},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "uniq": {
        "command": "uniq",
        "parse": {"flags": "cdi"},
        "cases": [
            # a second operand is the file uniq writes its output to
            {"predicate": _rx("args[1]", ""), "class": E},
            # -d, with -c too: a line seen once in each of two chunks is repeated,
            # but each chunk's map drops it
            {"predicate": _ex("-d"), "class": N, "inputs": ["args"], "outputs": ["stdout"]},
            {"predicate": _ex("-c"), "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "uniq_c"},
            {"predicate": "default", "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "rerun"},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "head": {
        "command": "head",
        "parse": {"with_arg": "n"},
        "cases": [
            {"predicate": "default", "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "rerun"},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "tail": {
        "command": "tail",
        "parse": {"with_arg": "n"},
        "cases": [
            # tail -n +K needs absolute line numbers -> N
            {"predicate": _rx("opt[n]", r"^\+"),
             "class": N, "inputs": ["args"], "outputs": ["stdout"]},
            {"predicate": "default", "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "rerun"},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "tac": {
        "command": "tac",
        "parse": {},
        "cases": [
            {"predicate": "default", "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "tac"},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "wc": {
        "command": "wc",
        "parse": {"flags": "lwcm"},
        "cases": [
            {"predicate": "default", "class": P, "inputs": ["args"],
             "outputs": ["stdout"], "aggregator": "wc"},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "comm": {
        "command": "comm",
        "parse": {"flags": "123"},
        "cases": [
            {"predicate": _all(_ex("-1"), _ex("-3")), "class": S,
             "inputs": ["args[1]"], "static_inputs": ["args[0]"], "outputs": ["stdout"]},
            {"predicate": _all(_ex("-2"), _ex("-3")), "class": S,
             "inputs": ["args[0]"], "static_inputs": ["args[1]"], "outputs": ["stdout"]},
            {"predicate": "default", "class": P,
             "inputs": ["args[0]", "args[1]"], "outputs": ["stdout"]},
        ],
        "options": ["stdin-hyphen", "short-combined"],
    },
    "sha1sum": {
        "command": "sha1sum",
        "parse": {},
        "cases": [{"predicate": "default", "class": N, "inputs": ["args"], "outputs": ["stdout"]}],
        "options": ["stdin-hyphen"],
    },
    "md5sum": {
        "command": "md5sum",
        "parse": {},
        "cases": [{"predicate": "default", "class": N, "inputs": ["args"], "outputs": ["stdout"]}],
        "options": ["stdin-hyphen"],
    },
    "diff": {
        "command": "diff",
        "parse": {},
        "cases": [{"predicate": "default", "class": N,
                   "inputs": ["args[0]", "args[1]"], "outputs": ["stdout"]}],
        "options": ["stdin-hyphen"],
    },
    "awk": {
        "command": "awk",
        "parse": {"with_arg": "F"},
        "cases": [{"predicate": "default", "class": N, "inputs": ["args[1:]"], "outputs": ["stdout"]}],
        "options": [],
    },
    "nl": {
        "command": "nl",
        "parse": {},
        "cases": [{"predicate": "default", "class": P, "inputs": ["args"],
                   "outputs": ["stdout"], "aggregator": "rerun", "map_argv": ["cat"]}],
        "options": ["stdin-hyphen"],
    },
    "col": {
        "command": "col",
        "parse": {"flags": "bx"},
        "cases": [{"predicate": "default", "class": S, "inputs": ["stdin"], "outputs": ["stdout"]}],
        "options": ["short-combined"],
    },
    "xargs": {"command": "xargs", "hook": "xargs_hook"},
    "paste": {"command": "paste", "hook": "paste_hook"},
    # sources: no streaming input; pure given the immutable simulated
    # environment (vfs/network), so they may live inside a dataflow region
    "curl": {
        "command": "curl",
        "parse": {"flags": "s"},
        "cases": [{"predicate": "default", "class": N, "inputs": [], "outputs": ["stdout"]}],
        "options": [],
    },
    "echo": {
        "command": "echo",
        "parse": {},
        "cases": [{"predicate": "default", "class": N, "inputs": [], "outputs": ["stdout"]}],
        "options": [],
    },
    "seq": {
        "command": "seq",
        "parse": {},
        "cases": [{"predicate": "default", "class": N, "inputs": [], "outputs": ["stdout"]}],
        "options": [],
    },
    "file": {
        "command": "file",
        "parse": {},
        "cases": [{"predicate": "default", "class": N, "inputs": [], "outputs": ["stdout"]}],
        "options": [],
    },
    "gunzip": {
        "command": "gunzip",
        "parse": {"flags": "c"},
        "cases": [{"predicate": "default", "class": S, "inputs": ["stdin"], "outputs": ["stdout"]}],
        "options": ["short-combined"],
    },
    # §6.4 foreign-language stages: one-record annotations, exactly the
    # "light-touch" extensibility story of the paper
    "strip_html": {
        "command": "strip_html",
        "parse": {},
        "cases": [{"predicate": "default", "class": S, "inputs": ["stdin"], "outputs": ["stdout"]}],
        "options": [],
    },
    "url_extract": {
        "command": "url_extract",
        "parse": {},
        "cases": [{"predicate": "default", "class": S, "inputs": ["stdin"], "outputs": ["stdout"]}],
        "options": [],
    },
    "word_stem": {
        "command": "word_stem",
        "parse": {},
        "cases": [{"predicate": "default", "class": S, "inputs": ["stdin"], "outputs": ["stdout"]}],
        "options": [],
    },
    "cutadapt_sim": {
        "command": "cutadapt_sim",
        "parse": {"with_arg": "a"},
        "cases": [{"predicate": "default", "class": S, "inputs": ["stdin"], "outputs": ["stdout"]}],
        "options": [],
    },
    # custom commands with custom map/aggregate pairs (§3.2)
    "bigrams_aux": {
        "command": "bigrams_aux",
        "parse": {},
        "cases": [{"predicate": "default", "class": P, "inputs": ["stdin"],
                   "outputs": ["stdout"], "aggregator": "ngrams2",
                   "map_argv": ["bigrams_aux_map"]}],
        "options": [],
    },
    "trigrams_aux": {
        "command": "trigrams_aux",
        "parse": {},
        "cases": [{"predicate": "default", "class": P, "inputs": ["stdin"],
                   "outputs": ["stdout"], "aggregator": "ngrams3",
                   "map_argv": ["trigrams_aux_map"]}],
        "options": [],
    },
}
