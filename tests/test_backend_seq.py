"""Sequential backend: shell semantics of compiled scripts."""
import pytest

from repro.commands.base import CommandError, ExecEnv
from repro.compiler import compile_script, pash_seq
from repro.compiler.backend_seq import run_seq, split_chunks


def env_with(**files):
    return ExecEnv(files={k: v for k, v in files.items()})


class TestPipelines:
    def test_simple_pipeline(self):
        env = env_with(f=["b", "a", "c", "a"])
        assert pash_seq("cat f | sort | uniq", env) == ["a", "b", "c"]

    def test_stdin_flows_through(self):
        out = run_seq("grep a | sort", ExecEnv(), stdin=["b", "ab", "aa"])
        assert out == ["aa", "ab"]

    def test_redirect_output_to_file(self):
        env = env_with(f=["b", "a"])
        out = pash_seq("cat f | sort > out.txt", env)
        assert out == [] and env.files["out.txt"] == ["a", "b"]

    def test_redirect_input(self):
        env = env_with(f=["b", "a"])
        assert pash_seq("sort < f", env) == ["a", "b"]

    def test_sequence_of_steps(self):
        env = env_with(f=["b", "a"])
        out = pash_seq("cat f | sort > s.txt; cat s.txt | head -n 1", env)
        assert out == ["a"]

    def test_for_loop(self):
        env = env_with(f1=["x"], f2=["y"])
        out = pash_seq("for i in {1..2}; do cat f$i; done", env)
        assert out == ["x", "y"]

    def test_variable_assignment(self):
        env = env_with(data=["z", "a"])
        assert pash_seq("src=data\ncat $src | sort", env) == ["a", "z"]

    def test_andor_runs_both(self):
        env = env_with(f=["a"])
        out = pash_seq("cat f && cat f", env)
        assert out == ["a", "a"]

    def test_procsub(self):
        env = env_with(a=["3", "1"], b=["2"])
        assert pash_seq("sort <(cat a) <(cat b)", env) == ["1", "2", "3"]

    def test_opaque_fragment_still_runs(self):
        # a subshell in a pipeline forces the opaque interpreter, which
        # reads F from the variables the caller passed in shell_env
        script = "(cat $F) | sort"
        assert [s.kind for s in compile_script(script, {"F": "f"}).steps] == ["opaque"]
        env = env_with(f=["b", "a"])
        out = run_seq(script, env, shell_env={"F": "f"})
        assert out == ["a", "b"]

    def test_comm_static(self):
        env = env_with(d=["a", "b"], f=["b", "c", "a", "c"])
        out = pash_seq("cat f | sort | uniq | comm -13 d -", env)
        assert out == ["c"]

    def test_xargs_wc(self):
        env = ExecEnv(files={"lst": ["f1", "f2"], "f1": ["x"] * 3, "f2": ["y"] * 5})
        out = pash_seq("cat lst | xargs -L 1 wc -l | sort -n", env)
        assert out == ["3 f1", "5 f2"]

    def test_curl_gunzip_roundtrip(self):
        from repro.commands.misc import gzip_to_b64

        env = ExecEnv(files={"u": [gzip_to_b64(["hello", "world"])]})
        assert pash_seq("curl -s u | gunzip", env) == ["hello", "world"]


class TestSplitChunks:
    def test_even(self):
        assert split_chunks(list("abcdef"), 3) == [["a", "b"], ["c", "d"], ["e", "f"]]

    def test_uneven_balanced(self):
        chunks = split_chunks(list(range(10)), 3)
        assert [len(c) for c in chunks] == [3, 3, 4]
        assert sum(chunks, []) == list(range(10))

    def test_more_chunks_than_lines(self):
        chunks = split_chunks(["a"], 4)
        assert sum(chunks, []) == ["a"] and len(chunks) == 4

    def test_empty(self):
        assert split_chunks([], 3) == [[], [], []]
