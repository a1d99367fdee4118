"""Spark backend correctness: PaSh-on-Spark output equals the sequential
shell semantics, byte for byte, for every benchmark script — plus DuckDB
oracle cross-checks for the query-shaped results.
"""
import random
import subprocess
import uuid
import zipfile

import pytest
from pyspark import TaskContext

from repro.annotations import resolve_invocation
from repro.commands.base import CommandError, ExecEnv
from repro.compiler import pash_seq, pash_spark
from repro.dfg.graph import split_chunks
from repro.runtime.aggregators import range_form
from repro.runtime.stream import SparkStream
from repro.workloads import ONELINERS, UNIX50
from repro.workloads import noaa, webindex
from repro.workloads.inputs import text_corpus

from .duckdb_oracle import assert_equivalent


def fresh(env):
    return ExecEnv(files=dict(env.files), ftypes=dict(env.ftypes))


@pytest.fixture(scope="module")
def corpus_env():
    return ExecEnv(files={
        "in.txt": text_corpus(4000, seed=0),
        "in2.txt": text_corpus(4000, seed=1),
    })


class TestStream:
    def test_from_lines_roundtrip(self, spark):
        lines = [f"l{i}" for i in range(100)]
        st = SparkStream.from_lines(spark, lines, 4)
        assert st.n_parts == 4
        assert st.collect_lines() == lines

    def test_empty_stream(self, spark):
        st = SparkStream.from_lines(spark, [])
        assert st.collect_lines() == []

    def test_cat_preserves_order(self, spark):
        a = SparkStream.from_lines(spark, ["a1", "a2"], 2)
        b = SparkStream.from_lines(spark, ["b1"], 1)
        assert SparkStream.cat([a, b]).collect_lines() == ["a1", "a2", "b1"]

    def test_split_contiguous(self, spark):
        lines = [str(i) for i in range(103)]
        st = SparkStream.from_lines(spark, lines).split(4)
        assert st.n_parts == 4
        assert st.collect_lines() == lines
        parts = st.collect_parts()
        assert sorted(len(p) for p in parts) == [25, 26, 26, 26]
        assert sum(parts, []) == lines

    def test_per_chunk_fusion(self, spark):
        lines = ["b", "a", "c"] * 10
        st = SparkStream.from_lines(spark, lines, 3)
        out = st.per_chunk(lambda ls: [l.upper() for l in ls]) \
                .per_chunk(lambda ls: [l + "!" for l in ls])
        (leaf,) = out.leaves
        assert len(leaf.pending) == 2  # fused, not yet materialized
        assert out.collect_lines() == [l.upper() + "!" for l in lines]

    def test_aggregate_sees_ordered_parts(self, spark):
        def fn(parts):
            return [f"{len(parts)}:{parts[0][0]}:{parts[-1][-1]}"]

        lines = [str(i) for i in range(30)]
        st = SparkStream.from_lines(spark, lines, 3)
        assert st.collect_lines(fn) == ["3:0:29"]
        # the same aggregator in every task of a split, on the executors
        assert st.split(2, fn).collect_lines() == ["3:0:29"]

    def test_split_of_split(self, spark):
        lines = [str(i) for i in range(50)]
        st = SparkStream.from_lines(spark, lines, 3).split(5)
        assert st.n_parts == 5 and st.collect_lines() == lines

    def test_empty_chunks_run_their_chain(self, spark):
        def count(ls):
            return [str(len(ls))]

        st = SparkStream.from_lines(spark, ["a"], 3)
        assert st.per_chunk(count).collect_lines() == ["0", "0", "1"]
        assert SparkStream.from_lines(spark, [], 2).per_chunk(count) \
            .collect_lines() == ["0", "0"]
        assert SparkStream.from_lines(spark, ["a", "b"], 1).split(3) \
            .per_chunk(count).collect_lines() == ["0", "1", "1"]

    def test_chunk_order_beyond_core_count(self, spark):
        def count(ls):
            return [str(len(ls))]

        # 16 chunks on fewer cores: tasks queue behind the busy cores
        lines = ["a", "b", "c"]
        expected = [str((k + 1) * 3 // 16 - k * 3 // 16) for k in range(16)]
        assert expected.count("0") == 13
        assert SparkStream.from_lines(spark, lines, 16).per_chunk(count) \
            .collect_lines() == expected
        assert SparkStream.from_lines(spark, lines).split(16).per_chunk(count) \
            .collect_lines() == expected

    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_chunk_k_runs_in_partition_k(self, spark, width):
        # one partition per chunk after ingest and after split, whatever
        # defaultParallelism is
        def partition(ls):
            return [str(TaskContext.get().partitionId())]

        expected = [str(k) for k in range(width)]
        lines = [str(i) for i in range(100)]
        st = SparkStream.from_lines(spark, lines, width)
        assert st.rdd.getNumPartitions() == width
        assert st.per_chunk(partition).collect_lines() == expected
        st = SparkStream.from_lines(spark, lines, 3).split(width)
        assert st.rdd.getNumPartitions() == width
        assert st.per_chunk(partition).collect_lines() == expected
        # sort's range form, over sorted chunks as sort's maps give them:
        # range k is computed in partition k, and every range emits its
        # chunk, an empty one too
        res = resolve_invocation("sort", [])
        for src in (lines, []):
            st = SparkStream.from_lines(spark, src, 3).per_chunk(sorted).split(
                width, ranges=range_form(res.aggregator, res))
            assert st.rdd.getNumPartitions() == width
            assert st.per_chunk(partition).collect_lines() == expected
            assert st.collect_lines() == sorted(src)

    @pytest.mark.parametrize("width", [1, 4])
    def test_non_ascii_and_empty_lines(self, spark, width):
        # every chunk is a pickled record from ingest through map and split
        # to the sink: multi-byte text and empty strings come back as sent
        lines = ["dé", "", "😀 z", "a", "", "日本 語", ""] * 3
        mapped = [l for part in split_chunks(lines, width) for l in ["é"] + part + [""]]
        st = SparkStream.from_lines(spark, lines, width)
        assert st.collect_parts() == split_chunks(lines, width)
        st = st.per_chunk(lambda ls: ["é"] + ls + [""]).split(width)
        assert st.collect_parts() == split_chunks(mapped, width)
        assert st.per_chunk(lambda ls: ls[::-1]).collect_parts() == \
            [part[::-1] for part in split_chunks(mapped, width)]

    def test_cat_keeps_chunk_order(self, spark):
        a = SparkStream.from_lines(spark, ["a1", "a2"], 5)
        b = SparkStream.from_lines(spark, ["b1", "b2", "b3", "b4"], 3)
        expected = [[], [], ["a1"], [], ["a2"], ["b1"], ["b2"], ["b3", "b4"]]
        st = SparkStream.cat([a, b])
        assert st.n_parts == 8 and st.collect_parts() == expected
        upper = SparkStream.cat([a.per_chunk(lambda ls: [l.upper() for l in ls]), b])
        assert upper.per_chunk(lambda ls: ls[::-1]).collect_parts() == \
            [[], [], ["A1"], [], ["A2"], ["b1"], ["b2"], ["b4", "b3"]]

    def test_cat_of_split_outputs_of_equal_width(self, spark):
        # both inputs are placed by the same chunk-id partitioner: order
        # must come from p, not from how the union lays out partitions
        a = SparkStream.from_lines(spark, [f"a{i}" for i in range(7)], 3).split(4)
        b = SparkStream.from_lines(spark, [f"b{i}" for i in range(5)], 2) \
            .per_chunk(lambda ls: [l.upper() for l in ls]).split(4)
        st = SparkStream.cat([a, b])
        assert st.n_parts == 8
        assert st.collect_parts() == \
            split_chunks([f"a{i}" for i in range(7)], 4) + \
            split_chunks([f"B{i}" for i in range(5)], 4)
        assert st.split(3).collect_lines() == \
            [f"a{i}" for i in range(7)] + [f"B{i}" for i in range(5)]


SPARK_SCRIPTS = [
    "cat in.txt | tr A-Z a-z | grep the",
    "cat in.txt | tr A-Z a-z | sort",
    'cat in.txt | tr -cs A-Za-z "\\n" | sort | uniq -c | sort -rn | head -n 5',
    "cat in.txt | tr A-Z a-z | sort | sort -r",
    "cat in.txt in2.txt | sort -u",
    "sort <(cat in.txt | grep the) <(grep of in2.txt)",
    "cat in.txt | sha1sum",
    "cat in.txt | grep -c the",
    'cat in.txt | tr -cs A-Za-z "\\n" | bigrams_aux | sort | uniq',
    "cat in.txt | tac | head -n 7",
    "cat in.txt | cat -n | grep 5",
    # the one script in which a map reads an aggregator's output
    "cat <(cat in.txt | sort) <(cat in2.txt | sort) | grep the",
    # copies of a node with two streaming operands read their chunk on stdin
    "cut -d ' ' -f 2 in.txt in2.txt | sort",
    "sed s/a/A/ in.txt in2.txt | grep -c A",
    # a map_argv clause over two files
    "cat -n in.txt in2.txt | grep 5",
]


@pytest.mark.parametrize("width", [1, 2, 7])
@pytest.mark.parametrize("script", SPARK_SCRIPTS)
def test_spark_equals_seq(spark, corpus_env, script, width):
    seq = pash_seq(script, fresh(corpus_env))
    par = pash_spark(spark, script, fresh(corpus_env), width=width)
    assert par == seq


@pytest.mark.parametrize("script", SPARK_SCRIPTS)
def test_spark_nosplit_equals_seq(spark, corpus_env, script):
    seq = pash_seq(script, fresh(corpus_env))
    par = pash_spark(spark, script, fresh(corpus_env), width=4, enable_split=False)
    assert par == seq


# chunks with no lines (fewer lines than width, or an empty input) must
# still run their commands: wc -l and grep -c print 0 for them
@pytest.mark.parametrize("script,lines,width,expected", [
    ("cat in.txt | sort | wc -l", ["c", "a", "b"], 4, ["3"]),
    ("cat in.txt | sort | wc -l", ["c", "a", "b"], 7, ["3"]),
    ("cat in.txt | grep zzz | wc -l", [], 4, ["0"]),
    ("cat in.txt | grep -c the", [], 1, ["0"]),
])
def test_spark_empty_chunks(spark, script, lines, width, expected):
    env = ExecEnv(files={"in.txt": lines})
    assert pash_seq(script, fresh(env)) == expected
    assert pash_spark(spark, script, fresh(env), width=width) == expected


# the first ``-`` reads the pipe to its end and a later one reads nothing;
# a script of plain cats still has a node that produces its output
@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("script", [
    "cat in.txt | cat - -",
    "cat in.txt | cat - in2.txt -",
    "cat - - < in.txt",
    "cat in.txt | sort - -",
    "cat in.txt | tr a-z A-Z | sort -r - in2.txt - | uniq -c",
    "cat in.txt",
])
def test_repeated_dash_reads_the_pipe_once(spark, tmp_path, script, width):
    files = {"in.txt": text_corpus(30, seed=4), "in2.txt": text_corpus(10, seed=5)}
    for name, lines in files.items():
        (tmp_path / name).write_text("".join(l + "\n" for l in lines))
    gnu = subprocess.run(["bash", "-c", script], cwd=tmp_path, capture_output=True, text=True,
                         env={"LC_ALL": "C", "PATH": "/usr/bin:/bin"}, check=True)
    expected = gnu.stdout.split("\n")[:-1]
    assert pash_seq(script, ExecEnv(files=dict(files))) == expected
    assert pash_spark(spark, script, ExecEnv(files=dict(files)), width=width) == expected


@pytest.mark.parametrize("script,message", [
    ("cat in.txt | grep", "grep: missing pattern"),
    ("cat in.txt | sort -k 2", "sort: -k requires an explicit -t separator here"),
])
def test_command_errors_match_across_backends(spark, corpus_env, script, message):
    # the command fails inside a Spark task at width 4
    with pytest.raises(CommandError) as seq:
        pash_seq(script, fresh(corpus_env))
    with pytest.raises(CommandError) as par:
        pash_spark(spark, script, fresh(corpus_env), width=4)
    assert type(seq.value) is type(par.value) is CommandError
    assert str(seq.value) == str(par.value) == message


ALL_WL = list(ONELINERS.items()) + list(UNIX50.items())


@pytest.mark.parametrize("name,wl", ALL_WL, ids=[n for n, _ in ALL_WL])
def test_workloads_on_spark(spark, name, wl):
    env = wl.make_env(0.004)
    seq = pash_seq(wl.script, fresh(env))
    par = pash_spark(spark, wl.script, fresh(env), width=4)
    assert par == seq


def test_noaa_on_spark(spark):
    env = noaa.make_env(0.05)
    seq = pash_seq(noaa.FULL, fresh(env))
    par = pash_spark(spark, noaa.FULL, fresh(env), width=3)
    assert par == seq


def test_webindex_on_spark(spark):
    env = webindex.make_env(0.02)
    seq = pash_seq(webindex.SCRIPT, fresh(env))
    par = pash_spark(spark, webindex.SCRIPT, fresh(env), width=3)
    assert par == seq


class TestWorkerImports:
    """Spark calls ``importlib.invalidate_caches()`` before every Python
    task. Under CPython < 3.12 that re-reads every zip on the worker's path
    (~0.2 s a task), unless the stream's stage functions turned it off."""

    def test_tasks_keep_zip_directories(self, spark):
        def probe(lines):
            import importlib
            import time
            import zipimport

            before = dict(zipimport._zip_directory_cache)
            t0 = time.perf_counter()
            importlib.invalidate_caches()
            ms = (time.perf_counter() - t0) * 1e3
            kept = all(zipimport._zip_directory_cache.get(path) is files
                       for path, files in before.items())
            return [f"{len(before)} {kept} {ms:.3f}"]

        st = SparkStream.from_lines(spark, [str(i) for i in range(8)], 4)
        rows = [r.split() for r in st.per_chunk(probe).collect_lines()]
        assert len(rows) == 4
        for n_zips, kept, ms in rows:
            assert int(n_zips) > 0 and kept == "True", rows
            # re-reading takes 125-270 ms a call, skipping it ~0.1 ms
            assert float(ms) < 10, rows

    def test_tasks_freeze_heap_and_send_at_once(self, spark):
        def probe(lines):
            import gc
            import socket
            import weakref

            frozen = gc.get_freeze_count()
            gc.unfreeze()  # gc.get_objects() does not list frozen objects
            socks = [o for o in gc.get_objects() if isinstance(o, socket.socket)
                     and o.family in (socket.AF_INET, socket.AF_INET6) and o.fileno() != -1]
            gc.freeze()
            nodelay = all(s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
                          for s in socks)

            class Node:
                pass

            node = Node()
            node.self = node
            ref = weakref.ref(node)
            del node
            gc.collect()
            return [f"{frozen} {len(socks)} {nodelay} {ref() is None}"]

        st = SparkStream.from_lines(spark, [str(i) for i in range(8)], 4)
        # after a stage, so each worker's later task runs on a set-up worker
        assert st.per_chunk(lambda ls: ls).collect_lines() == [str(i) for i in range(8)]
        rows = [r.split() for r in st.per_chunk(probe).collect_lines()]
        assert len(rows) == 4
        for frozen, n_socks, nodelay, cycle_freed in rows:
            assert int(frozen) > 0 and int(n_socks) > 0, rows
            assert nodelay == "True" and cycle_freed == "True", rows

    def test_pyfile_added_after_stages_imports(self, spark, tmp_path):
        st = SparkStream.from_lines(spark, ["a", "b", "c", "d"], 4)
        # the workers have run a stage, so they no longer re-read zips
        assert st.per_chunk(lambda ls: ls).collect_lines() == ["a", "b", "c", "d"]
        name = f"pyfile_{uuid.uuid4().hex}"
        archive = tmp_path / f"{name}.zip"
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr(f"{name}.py", "def shout(s):\n    return s.upper() + '!'\n")
        spark.sparkContext.addPyFile(str(archive))

        def call(lines):
            import importlib

            return [importlib.import_module(name).shout(l) for l in lines]

        assert st.per_chunk(call).collect_lines() == ["A!", "B!", "C!", "D!"]


SORT_SORT = "cat in.txt | tr A-Z a-z | sort | sort -r"


def _persistent_rdds(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def test_pash_spark_keeps_callers_cache(spark, corpus_env):
    view = f"callers_{uuid.uuid4().hex}"
    spark.range(100).createOrReplaceTempView(view)
    spark.catalog.cacheTable(view)
    try:
        assert spark.table(view).count() == 100  # materialize the cache
        n_cached = _persistent_rdds(spark)
        seq = pash_seq(SORT_SORT, fresh(corpus_env))
        assert pash_spark(spark, SORT_SORT, fresh(corpus_env), width=4) == seq
        assert spark.catalog.isCached(view)
        # the call caches nothing of its own (ingest and split persist nothing)
        assert _persistent_rdds(spark) == n_cached
    finally:
        spark.catalog.uncacheTable(view)
        spark.catalog.dropTempView(view)


def test_pash_spark_leaves_arrow_batch_size(spark, corpus_env):
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    prev = spark.conf.get(key, None)
    seq = pash_seq(SORT_SORT, fresh(corpus_env))
    try:
        for value in ("1234", None):
            if value is None:
                spark.conf.unset(key)
            else:
                spark.conf.set(key, value)
            assert pash_spark(spark, SORT_SORT, fresh(corpus_env), width=4) == seq
            assert spark.conf.get(key, None) == value
    finally:
        if prev is None:
            spark.conf.unset(key)
        else:
            spark.conf.set(key, prev)


# the session settings that change how Spark moves Arrow data or picks the
# collection path; the stream's output must not depend on any of them
ARROW_SETTINGS = [
    ("spark.sql.execution.arrow.pyspark.enabled", "false"),
    ("spark.sql.execution.arrow.pyspark.enabled", "true"),
    ("spark.sql.execution.arrow.useLargeVarTypes", "true"),
    ("spark.sql.execution.arrow.pyspark.selfDestruct.enabled", "true"),
]


@pytest.mark.parametrize("key,value", ARROW_SETTINGS)
@pytest.mark.parametrize("script", [SORT_SORT, "cat in.txt in2.txt | sort -u"])
def test_spark_equals_seq_under_arrow_settings(spark, script, key, value):
    lines = text_corpus(400, seed=2)
    env = ExecEnv(files={
        "in.txt": [x for l in lines for x in (l, "dé", "")],
        "in2.txt": ["😀 z", "", "Éa"] * 20 + lines[:50],
    })
    prev = spark.conf.get(key, None)
    spark.conf.set(key, value)
    try:
        par = pash_spark(spark, script, fresh(env), width=4)
    finally:
        if prev is None:
            spark.conf.unset(key)
        else:
            spark.conf.set(key, prev)
    assert par == pash_seq(script, fresh(env))


def test_pash_spark_builds_no_columns(spark, corpus_env, monkeypatch):
    """Every PySpark Column method captures its call site, and the first
    capture in a process imports IPython into the driver."""
    import pyspark.errors.utils as errors_utils

    calls = []
    capture = errors_utils._capture_call_site

    def counted(depth):
        calls.append(depth)
        return capture(depth)

    monkeypatch.setattr(errors_utils, "_capture_call_site", counted)
    for script in SPARK_SCRIPTS:
        pash_spark(spark, script, fresh(corpus_env), width=4)
        assert not calls, script


def _plan(spark, script, env):
    """The output of one width-4 ``pash_spark`` call, the number of Spark
    jobs it ran, and the tasks each stage it ran completed, in stage order."""
    sc = spark.sparkContext
    group = f"plan_{uuid.uuid4().hex}"
    sc.setJobGroup(group, script)
    try:
        out = pash_spark(spark, script, fresh(env), width=4)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = {s for j in jobs for s in tracker.getJobInfo(j).stageIds}
    tasks = [tracker.getStageInfo(s).numCompletedTasks for s in sorted(stages)]
    return out, len(jobs), [n for n in tasks if n]  # skipped stages ran 0


@pytest.mark.parametrize("script,n_jobs,tasks", [
    # map | sort's agg + split in 4 range tasks, with the map after the
    # split, collected: one job
    (SORT_SORT, 1, [4, 4]),
    # an aggregator without a range form runs whole in each of the split's
    # 4 tasks, after the one shuffle
    ("cat in.txt | uniq -c | sort -rn", 1, [4, 4]),
    ("cat in.txt | sort", 1, [4]),
    # both input regions read in one job: task k runs lane k of each
    ("diff <(cat in.txt | sort) <(cat in2.txt | sort)", 1, [4]),
    # a narrow input and one past a split's shuffle, read in one job: the
    # final stage is the narrow input's 4 tasks in union with the 4 tasks
    # after the shuffle
    ("diff <(cat in.txt | sort | sort -r) <(cat in2.txt | sort)", 1, [4, 8]),
])
def test_plan_shape(spark, corpus_env, script, n_jobs, tasks):
    out, jobs, stage_tasks = _plan(spark, script, corpus_env)
    assert out == pash_seq(script, fresh(corpus_env))
    assert jobs == n_jobs
    # one task per chunk, whatever defaultParallelism is
    assert stage_tasks == tasks


class TestOracle:
    """DuckDB cross-checks: the PaSh-on-Spark result, as columns, must match
    the equivalent SQL over the raw input."""

    def test_grep_filter_oracle(self, spark, corpus_env):
        out = pash_spark(spark, "cat in.txt | grep the | sort -u",
                         fresh(corpus_env), width=4)
        assert_equivalent(
            {"line": out},
            "SELECT DISTINCT line FROM inp WHERE line LIKE '%the%'",
            inp={"line": corpus_env.files["in.txt"]},
        )

    def test_wc_count_oracle(self, spark, corpus_env):
        out = pash_spark(spark, "cat in.txt | grep the | wc -l",
                         fresh(corpus_env), width=4)
        assert_equivalent(
            {"n": [int(out[0])]},
            "SELECT CAST(count(*) AS BIGINT) AS n FROM inp WHERE line LIKE '%the%'",
            inp={"line": corpus_env.files["in.txt"]},
        )

    def test_word_histogram_oracle(self, spark, corpus_env):
        script = 'cat in.txt | tr -cs A-Za-z "\\n" | tr A-Z a-z | sort | uniq -c'
        out = pash_spark(spark, script, fresh(corpus_env), width=4)
        assert_equivalent(
            {"n": [int(l[:7]) for l in out], "word": [l[8:] for l in out]},
            """
            SELECT CAST(count(*) AS BIGINT) AS n, word FROM (
              SELECT lower(unnest(regexp_extract_all(line, '[A-Za-z]+'))) AS word
              FROM inp
            ) GROUP BY word
            """,
            inp={"line": corpus_env.files["in.txt"]},
        )

    def test_sort_content_oracle(self, spark, corpus_env):
        out = pash_spark(spark, "cat in.txt | tr A-Z a-z | sort",
                         fresh(corpus_env), width=4)
        assert_equivalent({"line": out}, "SELECT lower(line) AS line FROM inp",
                          inp={"line": corpus_env.files["in.txt"]})

    def test_noaa_max_oracle(self, spark):
        """The NOAA answer equals SQL MAX over the decoded raw records."""
        import base64
        import gzip

        env = noaa.make_env(0.05)
        out = pash_spark(spark, noaa.FULL, fresh(env), width=3)
        got = {"year": [], "max_t": []}
        for l in out:
            year, temp = l.removeprefix("Maximum temperature for ").split(" is: ")
            got["year"].append(int(year))
            got["max_t"].append(temp)

        raw = {"year": [], "t": []}
        for name, content in env.files.items():
            if name.endswith(".gz"):
                year = int(name.split("/")[1])
                text = gzip.decompress(base64.b64decode(content[0])).decode()
                for rec in text.split("\n")[:-1]:
                    raw["year"].append(year)
                    raw["t"].append(rec[88:92])
        assert_equivalent(
            got,
            "SELECT year, max(t) AS max_t FROM raw "
            "WHERE t NOT LIKE '%999%' GROUP BY year",
            raw=raw,
        )

    def test_oracle_rejects_a_wrong_result(self):
        lines = ["the a", "b", "the c"]
        sql = "SELECT line FROM inp WHERE line LIKE '%the%'"
        assert_equivalent({"line": ["the c", "the a"]}, sql, inp={"line": lines})
        for wrong in (["the a"], ["the a", "the c", "the c"], ["the a", "b"]):
            with pytest.raises(AssertionError):
                assert_equivalent({"line": wrong}, sql, inp={"line": lines})
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent({"text": ["the a", "the c"]}, sql, inp={"line": lines})
