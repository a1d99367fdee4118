"""Opaque steps run with the shell variables at their position in the
script, through the one step loop every backend shares
(``backend_seq.run_steps``), and a script reads its stdin once. Each
script is compared with GNU under ``LC_ALL=C bash -c``, through
``pash_seq`` and ``pash_spark``."""
import subprocess
import uuid

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


# (script, input files, the files the script writes, stdin): compound
# commands inside pipelines, and stdin shared by the steps
ONE_SHELL = {
    "for-in-subshell": ("(for x in a b; do cat $x; done) | sort",
                        {"a": ["b", "a"], "b": ["c"]}, [], None),
    "for-in-pipeline": ("for x in a b; do cat $x; done | sort",
                        {"a": ["b", "a"], "b": ["c"]}, [], None),
    # the first cat reads stdin to EOF
    "stdin-read-once": ("cat; cat", {}, [], ["a"]),
    "subshell-reads-stdin": ("(cat) | sort; cat", {}, [], ["b", "a"]),
    "region-in-subshell": ("(cat a | sort) | uniq -c", {"a": ["b", "a", "b"]}, [], None),
    "subshell-reads-pipe": ("cat a | (sort; cat b)", {"a": ["b", "a"], "b": ["c"]}, [], None),
    # paste - - makes the pipeline opaque; > d keeps diff's exit status 1 out
    "procsub-in-opaque": ("diff <(cat a) <(paste - - < b) > d; cat d",
                          {"a": ["x\ty", "z"], "b": ["x", "y", "z"]}, ["d"], None),
    # uniq writes its second operand
    "procsub-and-output": ("uniq <(cat a | sort) o; cat o", {"a": ["b", "a", "b"]}, ["o"], None),
}


def _gnu(script, files, written, tmp_path, stdin=None):
    for name, lines in files.items():
        (tmp_path / name).write_text("".join(l + "\n" for l in lines))
    r = subprocess.run(["bash", "-c", script], cwd=tmp_path, capture_output=True, text=True,
                       input="".join(l + "\n" for l in stdin or []),
                       env={"LC_ALL": "C", "PATH": GNU_PATH})
    assert r.returncode == 0, r.stderr
    return (r.stdout.split("\n")[:-1],
            {w: (tmp_path / w).read_text().split("\n")[:-1] for w in written})


def _env(files):
    return ExecEnv(files={k: list(v) for k, v in files.items()})


def _assert_matches_bash(spark, tmp_path, script, files, written, stdin=None):
    want = _gnu(script, files, written, tmp_path, stdin)
    for run in (lambda env: pash_seq(script, env, stdin=stdin),
                lambda env: pash_spark(spark, script, env, width=2, stdin=stdin)):
        env = _env(files)
        out = run(env)
        assert (out, {w: env.files[w] for w in written}) == want


@pytest.mark.parametrize("case", list(CASES))
def test_opaque_steps_match_bash(spark, tmp_path, case):
    script, files, written = CASES[case]
    assert "opaque" in [s.kind for s in compile_script(script).steps]
    _assert_matches_bash(spark, tmp_path, script, files, written)


@pytest.mark.parametrize("case", list(ONE_SHELL))
def test_script_is_one_shell_like_bash(spark, tmp_path, case):
    _assert_matches_bash(spark, tmp_path, *ONE_SHELL[case])


def test_region_in_opaque_subshell_runs_on_spark(spark):
    sc = spark.sparkContext
    group = f"opaque_{uuid.uuid4().hex}"
    sc.setJobGroup(group, "region in an opaque subshell")
    try:
        out = pash_spark(spark, "(cat a | sort) | uniq -c", _env({"a": ["b", "a"]}), width=2)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert out == ["      1 a", "      1 b"]
    sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
    assert sc.statusTracker().getJobIdsForGroup(group)


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


def test_subshell_leaves_the_file_its_pipe_came_from(spark):
    # curl's output is the simulated download itself; the subshell's cat
    # consumes its stdin, which must not empty the download
    script = "curl u | (cat); cat u"
    for run in (lambda env: pash_seq(script, env),
                lambda env: pash_spark(spark, script, env, width=2)):
        assert run(_env({"u": ["a", "b"]})) == ["a", "b", "a", "b"]


def test_opaque_for_in_a_pipeline_raises_command_error():
    # the subshell compiles to the same opaque for, which is not compiled again
    script = "(for x in $(cat lst); do cat $x; done) | sort"
    with pytest.raises(CommandError, match="cannot interpret ForLoop"):
        pash_seq(script, _env({"lst": ["f"], "f": ["a"]}))
