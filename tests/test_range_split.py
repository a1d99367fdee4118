"""The ``split`` behind an aggregator (PaSh's ``agg | split``): ``w`` range
tasks after one shuffle, each computing its chunk of the aggregator's
output, from sort's range form or from the whole output of any other
aggregator. ``pash_spark`` is compared with the transformed graph run
sequentially (``run_dfg_seq(parallelize(g, w))``, where the aggregator and
the split are separate nodes) and with GNU under ``LC_ALL=C``."""
import random
import subprocess

import pytest

from repro.commands.base import ExecEnv
from repro.compiler import compile_script, pash_spark
from repro.compiler.backend_seq import run_dfg_seq
from repro.dfg.transform import parallelize

WIDTH = 4

FLAGS = [
    "", "-r", "-n", "-rn", "-u", "-ru", "-nu", "-rnu",
    "-t ' ' -k 2", "-t ' ' -k 2,2n", "-u -t ' ' -k 1,1",
    "-s -t ' ' -k 2,2", "-rs -t ' ' -k 2,2", "-sn", "-rsu -t ' ' -k 2,2",
]


def _dups(n, seed):
    """Few distinct keys, so runs of equal keys cross range boundaries."""
    rnd = random.Random(seed)
    return [f"{rnd.choice(['b', 'A', 'a', '10', '9', ''])} {rnd.randint(0, 3)}"
            for _ in range(n)]


INPUTS = {
    "dups": _dups(400, 0),
    "fewer-lines-than-width": ["b 2", "a 1", "c 1"],
    "empty": [],
    "all-equal": ["same 1"] * 50,
    # grep drops every line of the first chunk and most of the third, so
    # the map outputs are empty or uneven
    "uneven": ["# x"] * 100 + _dups(100, 1) + ["# y"] * 90 + _dups(110, 2),
}

# the split feeds a stateless map, or the maps of a second sort (P after P)
THEN_TR = "cat in.txt | grep -v '#' | sort {flags} | tr a-z A-Z"
THEN_SORT = "cat in.txt | grep -v '#' | sort {flags} | sort -r"
CASES = [(name, THEN_TR) for name in INPUTS] + [("dups", THEN_SORT), ("uneven", THEN_SORT)]


def _gnu(script, lines, tmp_path):
    (tmp_path / "in.txt").write_text("".join(l + "\n" for l in lines))
    r = subprocess.run(["bash", "-c", script], cwd=tmp_path, capture_output=True,
                       text=True, env={"LC_ALL": "C", "PATH": "/usr/bin:/bin"}, check=True)
    return r.stdout.split("\n")[:-1]


def _transformed_seq(script, lines, width=WIDTH):
    (step,) = compile_script(script).steps
    return run_dfg_seq(parallelize(step.dfg, width), ExecEnv(files={"in.txt": list(lines)}))


@pytest.mark.parametrize("flags", FLAGS, ids=[f or "plain" for f in FLAGS])
@pytest.mark.parametrize("name,template", CASES,
                         ids=[f"{n}-{'tr' if t == THEN_TR else 'sort-r'}" for n, t in CASES])
def test_range_split_matches_seq_and_gnu(spark, tmp_path, name, template, flags):
    script = template.format(flags=flags)
    lines = INPUTS[name]
    out = pash_spark(spark, script, ExecEnv(files={"in.txt": list(lines)}), width=WIDTH)
    assert out == _transformed_seq(script, lines)
    assert out == _gnu(script, lines, tmp_path)


# every other aggregator, each feeding a split into a stateless map
AGGREGATED = ["uniq", "uniq -c", "uniq -ci", "head -n 7", "tail -n 7", "cat -n", "nl",
              "tac", "wc -l", "grep -c a"]
AGG_CASES = [(name, f"cat in.txt | grep -v '#' | {agg} | tr a-z A-Z")
             for agg in AGGREGATED for name in INPUTS]


@pytest.mark.parametrize("width", [2, 3, 7])
@pytest.mark.parametrize("name,script", AGG_CASES, ids=[f"{n}-{s.split(' | ')[2]}"
                                                        for n, s in AGG_CASES])
def test_split_after_every_aggregator_matches_seq_and_gnu(spark, tmp_path, name, script, width):
    lines = INPUTS[name]
    assert "split" in {n.kind for n in parallelize(
        compile_script(script).steps[0].dfg, width).nodes.values()}
    out = pash_spark(spark, script, ExecEnv(files={"in.txt": list(lines)}), width=width)
    assert out == _transformed_seq(script, lines, width)
    assert out == _gnu(script, lines, tmp_path)


@pytest.mark.parametrize("width", [2, 3, 7])
@pytest.mark.parametrize("name", list(INPUTS))
def test_split_after_the_bigram_join_matches_seq(spark, name, width):
    # bigrams_aux is not on PATH, so only the transformed graph is compared
    script = "cat in.txt | grep -v '#' | bigrams_aux | sort"
    lines = INPUTS[name]
    out = pash_spark(spark, script, ExecEnv(files={"in.txt": list(lines)}), width=width)
    assert out == _transformed_seq(script, lines, width)
