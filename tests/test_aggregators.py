"""Aggregator-library invariant (§3.2): for every ⓟ command with a
(map, aggregate) pair, ``agg(m(x1), ..., m(xn)) == f(x1 · ... · xn)`` —
property-tested over random streams and chunkings, plus binary-tree
composability for the aggregators the transformation uses in tree form.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annotations import resolve_invocation
from repro.commands import ExecEnv, run_cli
from repro.compiler.backend_seq import split_chunks
from repro.runtime.aggregators import AGGREGATORS, aggregate, range_form, whole_range

WORDS = ["aa", "ab", "ba", "bb", "Cc", "dd", "e", "é", ""]


def stream(seed, n=200):
    """Random lines in runs of one to four case variants of a line, so
    that uniq's groups (``-i``'s too) cross chunk boundaries."""
    random.seed(seed)
    out = []
    while len(out) < n:
        line = random.choice(WORDS) + random.choice(["", " x", " 42", ",7 a", ",10"])
        out += [random.choice([line, line.upper()]) for _ in range(random.randint(1, 4))]
    return out[:n]


# (command, argv) -> the whole-command semantics to check the pair against
PAIRS = [
    ("sort", []),
    ("sort", ["-r"]),
    ("sort", ["-n"]),
    ("sort", ["-rn"]),
    ("sort", ["-u"]),
    ("sort", ["-ru"]),
    ("sort", ["-nu"]),
    ("sort", ["-t", ",", "-k", "2"]),
    ("uniq", []),
    ("uniq", ["-c"]),
    ("uniq", ["-i"]),
    ("uniq", ["-ci"]),
    ("wc", ["-l"]),
    ("wc", ["-lw"]),
    ("wc", []),
    ("head", ["-n", "7"]),
    ("head", ["-3"]),
    ("tail", ["-n", "7"]),
    ("tail", ["-n", "0"]),
    ("tac", []),
    ("cat", ["-n"]),
    ("nl", []),
    ("grep", ["-c", "a"]),
    ("bigrams_aux", []),
    ("trigrams_aux", []),
]


def run_pair(name, argv, chunks):
    """Run map stage per chunk, then the aggregator."""
    res = resolve_invocation(name, argv)
    assert res.aggregator, (name, argv)
    if res.map_argv:
        m_cmd, m_argv = res.map_argv[0], res.map_argv[1:]
    else:
        m_cmd, m_argv = name, argv
    parts = [run_cli(m_cmd, list(m_argv), c, ExecEnv()) for c in chunks]
    return aggregate(res.aggregator, parts, res)


@pytest.mark.parametrize("width", [1, 2, 3, 7])
@pytest.mark.parametrize("name,argv", PAIRS, ids=[f"{n} {' '.join(a)}" for n, a in PAIRS])
def test_map_aggregate_equals_whole(name, argv, width):
    lines = stream(hash((name, tuple(argv))) % 1000)
    # sort/uniq/comm expect sorted input where the sequential command
    # would see it sorted? No: the invariant is over *arbitrary* input —
    # f(x) == agg(maps of chunks of x) must hold for the same x.
    expected = run_cli(name, argv, lines, ExecEnv())
    got = run_pair(name, argv, split_chunks(lines, width))
    assert got == expected


@pytest.mark.parametrize("name,argv", [("sort", []), ("uniq", []), ("uniq", ["-c"]),
                                       ("wc", ["-lw"]), ("head", ["-n", "5"]),
                                       ("tac", []), ("grep", ["-c", "a"])],
                         ids=["sort", "uniq", "uniq-c", "wc", "head", "tac", "grep-c"])
def test_binary_tree_composition(name, argv):
    """BINARY_AGGS must be associative & closed: folding pairwise equals
    the n-ary application (this is what the expanded DFG's agg trees do)."""
    res = resolve_invocation(name, argv)
    lines = stream(42, 300)
    chunks = split_chunks(lines, 5)
    parts = [run_cli(name, argv, c, ExecEnv()) for c in chunks]
    nary = aggregate(res.aggregator, parts, res)
    level = parts
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(aggregate(res.aggregator, [level[i], level[i + 1]], res))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    assert level[0] == nary


@given(st.lists(st.text(alphabet="abC 1", max_size=6), max_size=60),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name,argv", [("sort", []), ("uniq", []), ("uniq", ["-c"]),
                                       ("wc", []), ("bigrams_aux", [])],
                         ids=["sort", "uniq", "uniq-c", "wc", "bigrams"])
def test_pair_invariant_hypothesis(name, argv, lines, width):
    expected = run_cli(name, argv, lines, ExecEnv())
    got = run_pair(name, argv, split_chunks(lines, width))
    assert got == expected


def test_sort_m_cli_merges():
    a = sorted(stream(1, 50))
    b = sorted(stream(2, 50))
    env = ExecEnv(files={"a": a, "b": b})
    assert run_cli("sort", ["-m", "a", "b"], [], env) == sorted(a + b)


def test_uniq_c_agg_rejects_garbage():
    res = resolve_invocation("uniq", ["-c"])
    with pytest.raises(ValueError):
        aggregate("uniq_c", [["not a uniq -c line"]], res)


def test_all_binary_aggs_registered():
    from repro.dfg.transform import BINARY_AGGS

    assert BINARY_AGGS <= set(AGGREGATORS)


@given(st.lists(st.lists(st.text(alphabet="ab 12", max_size=4), max_size=12), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=7),
       st.sampled_from([[], ["-r"], ["-n"], ["-rn"], ["-u"], ["-ru"], ["-nu"], ["-s", "-n"],
                        ["-t", " ", "-k", "2"], ["-s", "-t", " ", "-k", "2,2"],
                        ["-rs", "-t", " ", "-k", "1,1"], ["-u", "-t", " ", "-k", "1,1n"]]))
@settings(max_examples=300, deadline=None)
def test_sort_range_form_concatenates_to_rerun(chunks, width, argv):
    """sort's range form: the ``width`` ranges of the map outputs, in order,
    are ``rerun`` over the same parts, whatever the chunking (empty and
    uneven chunks, duplicates across range boundaries, fewer lines than
    ranges)."""
    res = resolve_invocation("sort", argv)
    parts = [run_cli("sort", argv, c, ExecEnv()) for c in chunks]
    ranges = range_form(res.aggregator, res)
    got = [ranges(parts, r, width) for r in range(width)]
    assert [l for rng in got for l in rng] == aggregate("rerun", parts, res)


def test_only_sort_rerun_has_a_range_form():
    assert range_form("rerun", resolve_invocation("sort", ["-rn"])) is not None
    for name, argv in [("uniq", []), ("uniq", ["-c"]), ("head", ["-n", "3"]), ("wc", ["-l"])]:
        res = resolve_invocation(name, argv)
        assert range_form(res.aggregator, res) is None, name


# every aggregator, and rerun both with its range form (sort) and without
ONE_PER_AGGREGATOR = [("sort", ["-rn"]), ("head", ["-n", "3"]), ("uniq", ["-ci"]),
                      ("wc", ["-lw"]), ("grep", ["-c", "a"]), ("tac", []),
                      ("bigrams_aux", []), ("trigrams_aux", [])]


def test_every_aggregator_is_listed():
    assert {resolve_invocation(n, a).aggregator for n, a in ONE_PER_AGGREGATOR} \
        == set(AGGREGATORS)


@given(st.lists(st.text(alphabet="abC 1", max_size=6), max_size=40),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name,argv", ONE_PER_AGGREGATOR,
                         ids=[" ".join([n, *a]) for n, a in ONE_PER_AGGREGATOR])
def test_ranges_concatenate_to_the_aggregator(name, argv, lines, n_parts, width):
    """What a ``split``'s ``width`` range tasks compute, in order, is the
    aggregator's output: sort's range form, and the whole-output one every
    other aggregator gets."""
    res = resolve_invocation(name, argv)
    m_cmd, *m_argv = res.map_argv or [name, *argv]
    parts = [run_cli(m_cmd, m_argv, c, ExecEnv()) for c in split_chunks(lines, n_parts)]
    agg = AGGREGATORS[res.aggregator]
    ranges = range_form(res.aggregator, res) or whole_range(lambda ps: agg(ps, res))
    got = [ranges(parts, r, width) for r in range(width)]
    assert [l for rng in got for l in rng] == agg(parts, res)
