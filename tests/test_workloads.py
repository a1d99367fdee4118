"""Workload definitions: every evaluated script compiles to dataflow
regions and its transformed DFG is sequentially equivalent at several
widths (Spark execution is covered in test_spark_backend.py)."""
import hashlib

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


# sha256 of the newline-terminated bytes of each generated input, taken from
# the numpy-string-array generators these replaced; every workload, job,
# test and benchmark run reads one of these inputs, so they must not drift
_PINNED = [
    (text_corpus, 20000, dict(seed=0), "cdd61410d48f623b5ea41f23bfe6504f998c934dec530b5acc6666aca84d5e99"),
    (text_corpus, 20000, dict(seed=1), "ed7395ddab49b83640cfe273890084bc01a2afc90ca4231d32dcd72d9caf3817"),
    (text_corpus, 20000, dict(seed=42), "fe3472dc993147ceb45034b547446e6322d3d67f39170cfd356da4c36b0f95b2"),
    (text_corpus, 4000, dict(seed=0), "bebc0ac422fbb114f01f787e8862d42a20508bf8d0dca926aeee2808d436fdd8"),
    (text_corpus, 4000, dict(seed=1), "c2f9a18dac88edf77d235a2997e0bf7444618fef3c8d215d4f70d24d0d807c8d"),
    (text_corpus, 400, dict(seed=2), "e0afde83094a945b197097fb473ac211250b41249b1919d8c8b30f3883d879d4"),
    (text_corpus, 60, dict(seed=3), "8ba19733ed5d822ac7a18bf3fc19d9a4825405d1d2df1c7369fa88fcb175bfbe"),
    (text_corpus, 30, dict(seed=4), "30122cc6a2ea3e3902d792eaab8fcbb4503456596be0842d82de7a6af3dd48f6"),
    (text_corpus, 10, dict(seed=5), "b20ee79733b5da12a4b9da6febe13a20c0879ea7415946c1e0b6ab582a4f567b"),
    (text_corpus, 200, dict(seed=42), "2dfa2a767cb14a8bdf8e041f618c06363895d4b1c35ca94b3c9551c7f6f82f8f"),
    (text_corpus, 1, dict(seed=0), "0e83ce23228097929bd0003da9d30186cb17a0075b9c172887fdc7a55847a025"),
    (text_corpus, 0, dict(seed=0), hashlib.sha256(b"").hexdigest()),
    (text_corpus, 2000, dict(seed=0, mixed_case=False), "16e2211bdb5f836074c90eadf81b1c5428008334370cb0b0afa9aed25aa0efa4"),
    (text_corpus, 2000, dict(seed=0, punct=False), "36382ac532c6375e0d0454c0e63ce16cdce9557308603efe81e43957fa72d6a7"),
    (text_corpus, 2000, dict(seed=0, words_per_line=3), "f6a6006483c5cd134b188ce48dbbdcc665ececa6bfa3b6f323f3e184c5035b0d"),
    (bio_reads, 1500, dict(), "cd032b5528e90538c798d91f0cffd08ba28e8d82eb48d87c22cbacd26511b0ee"),
    (bio_reads, 200, dict(), "ccef93b9166a1513782e38d549a855be74d191f068ca4b36aba711bb5a64bfec"),
    (bio_reads, 1500, dict(seed=7), "d42483575cb4ef6cfbb7d027b012087af65e3a1a44fd3487c886826b86b1c602"),
]


@pytest.mark.parametrize("gen,n,kw,digest", _PINNED,
                         ids=[f"{g.__name__}-{n}-" + ",".join(f"{k}={v}" for k, v in kw.items())
                              for g, n, kw, _ in _PINNED])
def test_generated_inputs_are_pinned(gen, n, kw, digest):
    data = "".join(l + "\n" for l in gen(n, **kw)).encode()
    assert hashlib.sha256(data).hexdigest() == digest
