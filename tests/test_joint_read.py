"""Driver commands with two input regions read both in one Spark job: lane
``k`` of every input runs in task ``k`` (``SparkStream.read_together``).
``pash_spark`` is compared with ``pash_seq``, with the transformed graph
run sequentially (``run_dfg_seq(parallelize(g, w))``) and with GNU under
``LC_ALL=C`` where the command is on ``PATH``, at widths wider and
narrower than the inputs."""
import shutil
import subprocess

import pytest
from py4j.protocol import Py4JJavaError

from repro.commands.base import CommandError, ExecEnv
from repro.compiler import compile_script, pash_seq, pash_spark
from repro.compiler.backend_seq import run_dfg_seq
from repro.dfg.transform import parallelize
from repro.workloads.inputs import text_corpus

GNU_PATH = "/usr/bin:/bin"

SCRIPTS = [
    "diff <(cat in.txt | sort) <(cat in2.txt | sort)",
    "comm <(cat in.txt | sort) <(cat in2.txt | sort)",
    "paste <(cat in.txt | sort) <(cat in2.txt | sort)",
    "cat <(cat in.txt | sort) <(cat in2.txt | sort)",
    # one input past a split's shuffle, the other still narrow
    "diff <(cat in.txt | sort | sort -r) <(cat in2.txt | sort)",
    # a stateless region read as a stream next to an aggregator's input
    "paste <(cat in.txt | tr a-z A-Z) <(cat in2.txt | sort -r)",
]

_corpus = text_corpus(60, seed=3)
INPUTS = {
    "empty-side": (_corpus[:40], []),
    "fewer-lines-than-width": (["b", "a", "c"], ["c", "d"]),
    "all-equal": (["same"] * 20, ["same"] * 13),
    "overlap": (_corpus[:45], _corpus[15:] + ["zz", "a b", ""]),
}


def _files(name):
    a, b = INPUTS[name]
    return {"in.txt": list(a), "in2.txt": list(b)}


def _gnu(script, files, tmp_path):
    for fname, lines in files.items():
        (tmp_path / fname).write_text("".join(l + "\n" for l in lines))
    # diff exits 1 when its inputs differ
    r = subprocess.run(["bash", "-c", script], cwd=tmp_path, capture_output=True,
                       text=True, env={"LC_ALL": "C", "PATH": GNU_PATH})
    assert r.returncode in (0, 1), r.stderr
    return r.stdout.split("\n")[:-1]


@pytest.mark.parametrize("width", [1, 2, 3, 7])
@pytest.mark.parametrize("inputs", list(INPUTS))
@pytest.mark.parametrize("script", SCRIPTS)
def test_two_region_driver_commands(spark, script, inputs, width):
    out = pash_spark(spark, script, ExecEnv(files=_files(inputs)), width=width)
    assert out == pash_seq(script, ExecEnv(files=_files(inputs)))
    (step,) = compile_script(script).steps
    assert out == run_dfg_seq(parallelize(step.dfg, width), ExecEnv(files=_files(inputs)))


@pytest.mark.parametrize("script,inputs", [(s, i) for s in SCRIPTS for i in INPUTS])
def test_two_region_driver_commands_match_gnu(tmp_path, script, inputs):
    # pash_spark equals pash_seq at every width (above), so this compares
    # every backend with GNU
    if not shutil.which(script.split()[0], path=GNU_PATH):
        pytest.skip(f"{script.split()[0]} is not on {GNU_PATH}")
    files = _files(inputs)
    assert pash_seq(script, ExecEnv(files=_files(inputs))) == _gnu(script, files, tmp_path)


@pytest.mark.parametrize("script,message", [
    # grep runs in the lanes the diff reads together with sort's
    ("diff <(cat in.txt | sort) <(cat in2.txt | grep)", "grep: missing pattern"),
    ("diff <(cat in.txt | sort -k 2) <(cat in2.txt | sort)",
     "sort: -k requires an explicit -t separator here"),
])
def test_command_error_in_a_shared_task(spark, script, message):
    def env():
        return ExecEnv(files=_files("overlap"))

    with pytest.raises(CommandError) as seq:
        pash_seq(script, env())
    with pytest.raises(CommandError) as par:
        pash_spark(spark, script, env(), width=4)
    assert type(seq.value) is type(par.value) is CommandError
    assert str(seq.value) == str(par.value) == message
    # raised in a Spark task, not on the driver
    assert isinstance(par.value.__cause__, Py4JJavaError)
