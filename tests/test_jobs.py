"""Smoke tests for the jobs/ entry points at tiny scale. Of the
Spark-dependent jobs, micro_parallel, fig10_speedups' wall-clock table and
micro_sort run here on the shared session, so the harness that runs
aggregators end to end cannot silently stop running; each job asserts that
PaSh's output equals the sequential one. The other jobs' Spark code paths
are covered by tests/test_spark_backend.py and measured by perfbench/."""
import os
import subprocess
import sys

import pytest

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")
sys.path.insert(0, JOBS)


def test_table1_job_rows():
    import table1_classes

    rows = table1_classes.run()
    assert len(rows) == 4
    by_class = {r["class"]: r for r in rows}
    assert by_class["stateless"]["coreutils (ours)"].startswith("22")
    assert by_class["side_effectful"]["posix (paper)"] == "105 (67.8%)"


def test_table2_job_rows_tiny():
    import table2_oneliners

    rows = table2_oneliners.run(scale=0.002)
    assert len(rows) == 10
    names = {r["script"] for r in rows}
    assert "sort" in names and "bi-grams" in names
    sort_row = next(r for r in rows if r["script"] == "sort")
    # the transformed-DFG node counts for the sort one-liner match the
    # paper's Tab. 2 exactly (77 at width 16, 317 at width 64)
    assert sort_row["nodes_w16"] == 77
    assert sort_row["nodes_w64"] == 317
    ss_row = next(r for r in rows if r["script"] == "sort-sort")
    assert ss_row["nodes_w16"] == 154 and ss_row["nodes_w64"] == 634


def test_pipesim_job_rows():
    import fig10_speedups

    rows = fig10_speedups.run_pipesim(names=["sort-sort"], widths=[2, 16],
                                      sample_scale=0.002, scale_lines=500.0)
    per_cfg = {r["config"]: r for r in rows}
    assert set(per_cfg) == {"pash", "no_split", "blocking_eager", "no_eager"}
    # split unlocks the second sort: pash beats no_split at width 16
    pash16 = float(per_cfg["pash"]["w16"].rstrip("x"))
    nosplit16 = float(per_cfg["no_split"]["w16"].rstrip("x"))
    assert pash16 > nosplit16


def test_table1_job_cli():
    r = subprocess.run([sys.executable, os.path.join(JOBS, "table1_classes.py")],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0
    assert "Parallelizability classes" in r.stdout
    assert "22 (21.1%)" in r.stdout  # the paper column


def test_micro_parallel_job_rows_tiny(spark):
    import micro_parallel

    # run() itself asserts that PaSh's output equals the sequential one
    rows = micro_parallel.run(spark, n_reads=2000, width=2)
    assert len(rows) == 4
    naive = rows[-1]
    assert naive["system"] == "naive GNU-parallel everywhere"
    assert float(naive["output vs seq"].split("%")[0]) > 0


def test_fig10_wallclock_job_rows_tiny(spark):
    import fig10_speedups

    rows = fig10_speedups.run_wallclock(spark, scale=0.002, names=["sort-sort"], widths=[2])
    assert [r["script"] for r in rows] == ["sort-sort"]
    assert set(rows[0]) == {"script", "seq", "pash_w2", "nosplit_w2"}


def test_micro_sort_job_rows_tiny(spark):
    import micro_sort

    cached = spark.sparkContext._jsc.getPersistentRDDs().size()
    rows = micro_sort.run(spark, n_lines=2000, widths=[2])
    assert [r["system"] for r in rows] == [
        "seq (baseline)", "native orderBy (S_g)", "pash sort (S_p)"]
    # the cached orderBy input is unpersisted before run() returns
    assert spark.sparkContext._jsc.getPersistentRDDs().size() == cached


def test_common_puts_src_on_workers_path():
    # Python workers inherit PYTHONPATH from the JVM; without src/ on it
    # the first task of a job fails to import repro
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run(
        [sys.executable, "-c", "import os, _common; print(os.environ['PYTHONPATH'])"],
        cwd=JOBS, env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    src = os.path.abspath(os.path.join(JOBS, "..", "src"))
    assert r.stdout.strip().split(os.pathsep)[0] == src
