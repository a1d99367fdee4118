"""Opaque steps run with the shell variables at their position in the
script, through the one step loop every backend shares
(``backend_seq.run_steps``). Each script is compared with GNU under
``LC_ALL=C bash -c``, through ``pash_seq`` and ``pash_spark``."""
import subprocess

import pytest

from repro.commands.base import CommandError, ExecEnv
from repro.compiler import compile_script, pash_seq, pash_spark

GNU_PATH = "/usr/bin:/bin"

# (script, input files, the files the script writes)
CASES = {
    # each unrolled body runs with its own y
    "loop-body": ("for y in a b; do uniq f$y o$y; done; cat oa ob",
                  {"fa": ["x", "x"], "fb": ["a", "b"]}, ["oa", "ob"]),
    # the opaque uniq reads X before it is reassigned
    "later-assignment": ("X=a; uniq $X o; X=b; cat o",
                         {"a": ["a", "a"], "b": ["b"]}, ["o"]),
    "append": ("cat f >> g; cat g", {"f": ["b", "a"], "g": ["z"]}, ["g"]),
    "append-creates": ("cat f >> new; cat f >> new; cat new",
                       {"f": ["b", "a"]}, ["new"]),
    "subshell-assignment": ("(X=f; cat $X) | sort", {"f": ["b", "a"]}, []),
    # a subshell's assignment does not outlive it
    "subshell-scope": ("X=a; (X=b); uniq $X o; cat o",
                       {"a": ["a"], "b": ["b"]}, ["o"]),
}


def _gnu(script, files, written, tmp_path):
    for name, lines in files.items():
        (tmp_path / name).write_text("".join(l + "\n" for l in lines))
    r = subprocess.run(["bash", "-c", script], cwd=tmp_path, capture_output=True,
                       text=True, env={"LC_ALL": "C", "PATH": GNU_PATH})
    assert r.returncode == 0, r.stderr
    return (r.stdout.split("\n")[:-1],
            {w: (tmp_path / w).read_text().split("\n")[:-1] for w in written})


def _env(files):
    return ExecEnv(files={k: list(v) for k, v in files.items()})


@pytest.mark.parametrize("case", list(CASES))
def test_opaque_steps_match_bash(spark, tmp_path, case):
    script, files, written = CASES[case]
    assert "opaque" in [s.kind for s in compile_script(script).steps]
    want = _gnu(script, files, written, tmp_path)
    for run in (lambda env: pash_seq(script, env),
                lambda env: pash_spark(spark, script, env, width=2)):
        env = _env(files)
        out = run(env)
        assert (out, {w: env.files[w] for w in written}) == want


def test_each_opaque_step_keeps_its_variables():
    steps = compile_script("X=a; uniq $X o; X=b; uniq $X p").steps
    assert [(s.kind, s.env) for s in steps] == [
        ("opaque", {"X": "a"}), ("opaque", {"X": "b"})]


def test_opaque_for_raises_command_error():
    # items that do not expand at compile time cannot expand at run time
    script = "for x in $(cat lst); do cat $x; done"
    assert [s.kind for s in compile_script(script).steps] == ["opaque"]
    with pytest.raises(CommandError, match="cannot interpret ForLoop"):
        pash_seq(script, _env({"lst": ["f"], "f": ["a"]}))
