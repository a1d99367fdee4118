"""Workload definitions: every evaluated script compiles to dataflow
regions and its transformed DFG is sequentially equivalent at several
widths (Spark execution is covered in test_spark_backend.py)."""
import pytest

from repro.commands.base import ExecEnv
from repro.compiler import compile_script
from repro.compiler.backend_seq import run_dfg_seq, run_seq, run_steps
from repro.dfg.transform import parallelize
from repro.workloads import ONELINERS, UNIX50
from repro.workloads import noaa, webindex
from repro.workloads.inputs import bio_reads, noaa_env, script_files_env, text_corpus


def fresh(env):
    return ExecEnv(files=dict(env.files), ftypes=dict(env.ftypes))


def run_transformed(cs, env, width, **kw):
    return run_steps(cs, env, lambda g, stdin: run_dfg_seq(parallelize(g, width, **kw), env, stdin))


ALL = list(ONELINERS.items()) + list(UNIX50.items())


@pytest.mark.parametrize("name,wl", ALL, ids=[n for n, _ in ALL])
def test_workload_compiles_to_dfg(name, wl):
    cs = compile_script(wl.script)
    assert all(s.kind == "dfg" for s in cs.steps), name


@pytest.mark.parametrize("width", [2, 5])
@pytest.mark.parametrize("name,wl", ALL, ids=[n for n, _ in ALL])
def test_workload_transformed_equivalence(name, wl, width):
    env = wl.make_env(0.002)
    seq = run_seq(wl.script, fresh(env))
    cs = compile_script(wl.script)
    got = run_transformed(cs, fresh(env), width)
    assert got == seq


@pytest.mark.parametrize("name,wl", ALL, ids=[n for n, _ in ALL])
def test_workload_nosplit_equivalence(name, wl):
    env = wl.make_env(0.002)
    seq = run_seq(wl.script, fresh(env))
    got = run_transformed(compile_script(wl.script), fresh(env), 4,
                          enable_split=False)
    assert got == seq


class TestNOAA:
    def test_full_pipeline_runs(self):
        env = noaa.make_env(0.05)
        out = run_seq(noaa.FULL, fresh(env))
        assert len(out) == 5
        assert all(o.startswith("Maximum temperature for 20") for o in out)

    def test_max_is_actually_max(self):
        env = noaa.make_env(0.05)
        out = run_seq(noaa.FULL, fresh(env))
        # recompute the max for 2015 directly from the raw records
        import base64, gzip

        temps = []
        for name, content in env.files.items():
            if name.startswith("noaa/2015/") and name.endswith(".gz"):
                text = gzip.decompress(base64.b64decode(content[0])).decode()
                for rec in text.split("\n")[:-1]:
                    t = rec[88:92]
                    if "999" not in t.lower():
                        temps.append(t)
        expected = max(temps, key=lambda s: float(s))
        assert out[0] == f"Maximum temperature for 2015 is: {expected}"

    def test_phases_compose(self):
        env = noaa.make_env(0.05)
        full = run_seq(noaa.FULL, fresh(env))
        e2 = fresh(env)
        run_seq(noaa.PREPROC, e2)
        assert any(k.startswith("temps_") for k in e2.files)
        assert run_seq(noaa.COMPUTE, e2) == full

    def test_transformed_equivalence(self):
        env = noaa.make_env(0.05)
        seq = run_seq(noaa.FULL, fresh(env))
        got = run_transformed(compile_script(noaa.FULL), fresh(env), 4)
        assert got == seq

    def test_all_regions_are_dfgs(self):
        cs = compile_script(noaa.FULL)
        assert len(cs.steps) == 5 and all(s.kind == "dfg" for s in cs.steps)

    def test_999_sentinel_filtered(self):
        env = noaa_env([2015], files_per_year=2, records_per_file=500)
        out = run_seq(noaa.FULL.replace("{2015..2019}", "2015"), fresh(env))
        assert "999" not in out[0].split(": ")[1]


class TestWebIndex:
    def test_index_runs_and_is_sorted_by_count(self):
        env = webindex.make_env(0.02)
        out = run_seq(webindex.SCRIPT, fresh(env))
        counts = [int(l.split()[0]) for l in out[:50]]
        assert counts == sorted(counts, reverse=True)

    def test_transformed_equivalence(self):
        env = webindex.make_env(0.02)
        seq = run_seq(webindex.SCRIPT, fresh(env))
        got = run_transformed(compile_script(webindex.SCRIPT), fresh(env), 3)
        assert got == seq

    def test_foreign_stages_annotated_stateless(self):
        from repro.annotations import CLASS_S, resolve_invocation

        for cmd in ("strip_html", "url_extract", "word_stem"):
            assert resolve_invocation(cmd, []).cls == CLASS_S


class TestShortestScripts:
    def test_output_is_shortest_scripts(self):
        env, lst = script_files_env(100)
        wl = ONELINERS["shortest-scripts"]
        out = run_seq(wl.script, fresh(env))
        assert 0 < len(out) <= 15
        counts = [int(l.split()[0]) for l in out]
        assert counts == sorted(counts)
        # every reported file really is a script
        for l in out:
            name = l.split()[1]
            assert "script" in env.ftypes[name].lower()


class TestInputs:
    def test_text_corpus_deterministic(self):
        assert text_corpus(50, seed=3) == text_corpus(50, seed=3)
        assert text_corpus(50, seed=3) != text_corpus(50, seed=4)

    def test_bio_reads_have_adapters(self):
        reads = bio_reads(200)
        assert any("AGATCGGAAGAGC" in r for r in reads)
        assert all(set(r) <= set("ACGT") for r in reads)

    def test_corpus_is_zipfian(self):
        from collections import Counter

        words = [w for l in text_corpus(2000, seed=0) for w in l.split()]
        counts = Counter(w.lower().strip(".!?") for w in words).most_common()
        assert counts[0][1] > 8 * counts[min(50, len(counts) - 1)][1]
