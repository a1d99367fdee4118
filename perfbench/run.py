"""PaSh-on-Spark benchmark: ``pash_spark`` against ``pash_seq``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort-sort --seed 0 --seconds 15 --trace 0

One driver process, a closed loop of one caller: each invocation starts
after the previous one ends and gets a fresh copy of the generated inputs.
Set-up, timed once per run as ``setup_s``, launches a new JVM, generates
the inputs and makes the first ``pash_spark`` call. After it and eight
untimed warm-up calls, each round of the window is one ``pash_spark``
call, then ``pash_seq`` calls for at least an eighth as long, then a burst
of compile timings. Every output is compared with the
``pash_seq`` reference; that reference is compared once per run with GNU
coreutils. Spark runs ``local[4]`` at width 4 with the settings pinned
below.

``--trace 0`` prints the end-to-end metrics (``pash_spark_s``,
``pash_seq_s``, ``compile_ms``, ``setup_s``, ``driver_rss_mb``); the summary
above the result line adds ``error_rate`` and the ungated ``speedup``.
``--trace 1`` starts Spark with its event log on, installs the layer
wrappers of ``layers.py`` and measures the window traced, with an untraced
twin of every traced ``pash_spark`` call for the tracing overhead (the event
log is on for both). It prints the per-layer metrics; the summary names the
dominant layer by self time of each invocation kind. Spans, host facts and
the metrics are written under ``.perfbench_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Without the program's sources next to
``perfbench/`` the runner exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MASTER = "local[4]"
WIDTH = 4
MIN_ROUNDS = 3  # measured even when the window is shorter
WARM_CALLS = 8  # untimed pash_spark calls after the set-up
COMPILE_WARMUP, COMPILE_BURST = 30, 40  # compile timings: discarded, per round
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "4",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.driver.maxResultSize": "0",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}

END_TO_END_UNITS = {
    "pash_spark_s": "s", "pash_seq_s": "s", "compile_ms": "ms",
    "setup_s": "s", "driver_rss_mb": "MB",
}
LAYER_UNITS = {
    "frontend.compile_ms": "ms", "frontend.regions": "count",
    "frontend.opaque_steps": "count", "transform.parallelize_ms": "ms",
    "transform.nodes_w4": "count", "transform.nodes_w16": "count",
    "transform.nodes_w64": "count",
    "backend_spark.driver_exec_ms": "ms", "backend_spark.driver_exec_nodes": "count",
    "backend_spark.self_ms": "ms",
    "stream.ingest_ms": "ms", "stream.ingest_calls": "count",
    "stream.ingest_lines": "lines", "stream.ingest_mb": "MB",
    "stream.split_ms": "ms", "stream.split_calls": "count",
    "stream.sink_ms": "ms", "stream.sink_calls": "count",
    "stream.egress_lines": "lines", "stream.egress_mb": "MB",
    "agg.driver_ms": "ms", "agg.driver_calls": "count", "agg.driver_lines_in": "lines",
    "spark.jobs": "count", "spark.stages": "count", "spark.tasks": "count",
    "spark.failed_tasks": "count", "spark.busy_ms": "ms", "spark.driver_only_ms": "ms",
    "spark.executor_run_ms": "ms", "spark.deserialize_ms": "ms", "spark.gc_ms": "ms",
    "spark.single_task_stage_ms": "ms", "spark.map_task_skew": "ratio",
    "spark.shuffle_write_mb": "MB", "spark.shuffle_read_mb": "MB",
    "spark.result_mb": "MB", "trace.overhead": "ratio",
}
SEQ_CMD_UNITS = {"ms": "ms", "lines_in": "lines", "lines_out": "lines"}


def mem_total_kb() -> int:
    with open("/proc/meminfo") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))


def driver_memory() -> str:
    """Half of MemTotal in GiB, clamped to 2..8 (the tier-1 test formula)."""
    return f"{min(8, max(2, mem_total_kb() // 2097152))}g"


def configure_env(run_dir: Path) -> None:
    """Everything Spark reads at JVM launch, before pyspark is imported.
    PYTHONPATH lets the Python workers import ``repro``."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(run_dir / "spark-local")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {driver_memory()} "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell")
    sys.path.insert(0, str(SRC))


def host_facts(spark_version: str) -> Dict[str, object]:
    home = os.environ.get("JAVA_HOME")
    java = os.path.join(home, "bin", "java") if home else shutil.which("java")
    java_version = None
    if java:
        p = subprocess.run([java, "-version"], capture_output=True, text=True, timeout=60)
        java_version = next(iter((p.stderr or p.stdout).splitlines()), None)
    commit = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=60)
        commit = p.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "mem_total_kb": mem_total_kb(),
        "python": platform.python_version(), "java": java_version,
        "spark": spark_version, "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "master": MASTER, "width": WIDTH, "driver_memory": driver_memory(),
        "spark_conf": SPARK_CONF,
    }


class Bench:
    """One workload's session, inputs, reference output and failure count."""

    def __init__(self, wl, seed: int, run_dir: Path):
        self.wl, self.seed, self.run_dir = wl, seed, run_dir
        self.spark = None
        self.env = None
        self.ref: Optional[List[str]] = None
        self.event_log = False
        self.attempted = self.failed = 0

    def start_session(self, event_log: Optional[Path] = None) -> None:
        from pyspark.sql import SparkSession

        b = SparkSession.builder.appName("perfbench").master(MASTER)
        for k, v in SPARK_CONF.items():
            b = b.config(k, v)
        b = b.config("spark.sql.warehouse.dir", str(self.run_dir / "warehouse"))
        b = b.config("spark.eventLog.enabled", "true" if event_log else "false")
        if event_log:
            event_log.mkdir(parents=True)
            b = (b.config("spark.eventLog.dir", event_log.as_uri())
                 .config("spark.eventLog.compress", "false")
                 .config("spark.eventLog.rolling.enabled", "false"))
        self.spark = b.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")
        self.event_log = event_log is not None

    def set_up(self, event_log: Optional[Path] = None) -> Tuple[float, Optional[List[str]]]:
        """JVM launch and session start, input generation and the first
        untimed pash_spark call (it spawns the Python workers and warms the
        JVM). Stops the previous JVM first, so each set-up launches one."""
        self.stop()
        t0 = time.perf_counter()
        self.start_session(event_log)
        self.env = self.wl.make_env(self.seed)
        out = self._call("spark")
        return time.perf_counter() - t0, out

    def _call(self, kind: str) -> Optional[List[str]]:
        from repro.workloads.harness import measure_seq, measure_spark

        try:
            if kind == "spark":
                return measure_spark(self.spark, self.wl.script, self.env, width=WIDTH)[0]
            return measure_seq(self.wl.script, self.env)[0]
        except Exception:  # counted as a failed invocation, never swallowed
            traceback.print_exc()
            return None

    def check(self, kind: str, out: Optional[List[str]]) -> None:
        self.attempted += 1
        if out != self.ref:
            self.failed += 1
            got = "an exception" if out is None else f"{len(out)} lines"
            print(f"perfbench: {kind} output differs from the reference "
                  f"({got} vs {len(self.ref or [])} lines)", file=sys.stderr)

    def invoke(self, kind: str, tracer=None, inv: str = "") -> float:
        if kind == "spark" and self.event_log:
            # tags this call's jobs, stages and tasks in the event log
            self.spark.sparkContext.setJobGroup(inv, inv)
        t0 = time.perf_counter()
        if tracer is None:
            out = self._call(kind)
        else:
            with tracer.invocation(inv, f"pash.pash_{kind}"):
                out = self._call(kind)
        dt = time.perf_counter() - t0
        self.check(kind, out)
        return dt

    def warm_up(self) -> None:
        """Untimed, checked pash_spark calls: on a new JVM, calls keep
        getting faster for about eight calls while it compiles its hot
        paths."""
        for _ in range(WARM_CALLS):
            self.check("spark (warm-up)", self._call("spark"))
        compile_time(self.wl.script, COMPILE_WARMUP)

    def measure(self, seconds: float, tracer=None) -> Dict[str, list]:
        """Closed loop for ``seconds``. Each round is one pash_spark call,
        then pash_seq calls for at least an eighth as long, then a burst of
        compile timings, so most of the window goes to the slow pash_spark
        calls. The host's speed drifts over tens of seconds, so the three
        are interleaved rather than timed in phases. With a tracer, each
        round also makes an untraced pash_spark call ("plain"), the twin the
        traced one is compared with; the two take turns going first.
        Returns (invocation id, seconds) samples per kind and the compile
        samples."""
        times: Dict[str, list] = {
            "spark": [], "seq": [], "plain": [],
            "compile": {"frontend": [], "transform": [], "total": []}}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_ROUNDS or time.perf_counter() < deadline:
            if tracer is not None and i % 2 == 0:
                inv = f"plain-{i}"
                times["plain"].append((inv, self.invoke("spark", None, inv)))
            inv = f"spark-{i}"
            spark_dt = self.invoke("spark", tracer, inv)
            times["spark"].append((inv, spark_dt))
            if tracer is not None and i % 2 == 1:
                inv = f"plain-{i}"
                times["plain"].append((inv, self.invoke("spark", None, inv)))
            seq_dt, j = 0.0, 0
            while j == 0 or seq_dt < spark_dt / 8:
                inv = f"seq-{i}.{j}"
                dt = self.invoke("seq", tracer, inv)
                times["seq"].append((inv, dt))
                seq_dt, j = seq_dt + dt, j + 1
            for k, v in compile_time(self.wl.script, COMPILE_BURST).items():
                times["compile"][k].extend(v)
            i += 1
        return times

    def stop(self) -> None:
        """Stop Spark and wait for its JVM (and with it the Python workers)."""
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        if self.spark is not None:
            self.spark.stop()
            self.spark = None
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()  # the JVM exits on EOF of its stdin
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None


def compile_time(script: str, reps: int) -> Dict[str, List[float]]:
    """``reps`` timings of compile_script, of parallelize(g, WIDTH) over
    every DFG region, and of both together (Tab. 2's compile time)."""
    from repro.compiler import compile_script
    from repro.dfg.transform import parallelize

    out: Dict[str, List[float]] = {"frontend": [], "transform": [], "total": []}
    for _ in range(reps):
        t0 = time.perf_counter()
        cs = compile_script(script)
        t1 = time.perf_counter()
        for s in cs.steps:
            if s.kind == "dfg":
                parallelize(s.dfg, WIDTH)
        t2 = time.perf_counter()
        out["frontend"].append(t1 - t0)
        out["transform"].append(t2 - t1)
        out["total"].append(t2 - t0)
    return out


def dfg_shape(script: str) -> Dict[str, float]:
    from repro.compiler import compile_script
    from repro.dfg.transform import parallelize

    cs = compile_script(script)
    dfgs = [s.dfg for s in cs.steps if s.kind == "dfg"]
    out = {"frontend.regions": len(dfgs),
           "frontend.opaque_steps": len(cs.steps) - len(dfgs)}
    for w in (4, 16, 64):
        out[f"transform.nodes_w{w}"] = sum(len(parallelize(g, w).nodes) for g in dfgs)
    return out


def seconds_of(samples: List[Tuple[str, float]]) -> List[float]:
    return [t for _, t in samples]


def set_reference(bench: Bench, summary: Dict) -> None:
    """The pash_seq output every invocation is compared with, itself
    compared once with GNU coreutils (untimed)."""
    from repro.workloads.harness import measure_seq
    from specs import gnu_output

    bench.ref = measure_seq(bench.wl.script, bench.env)[0]
    gnu = gnu_output(bench.wl.script, bench.env, bench.run_dir / "gnu")
    summary["gnu_check"] = "match" if gnu == bench.ref else "MISMATCH"
    summary["output_lines"] = len(bench.ref)


def run_untraced(bench: Bench, seconds: int, summary: Dict) -> Dict[str, float]:
    # one set-up: a cold one (new JVM, new workers) takes about 20 s, and
    # several would leave too little of the run for the timed window
    setup_s, out = bench.set_up()
    set_reference(bench, summary)
    bench.check("spark (set-up)", out)
    bench.warm_up()
    times = bench.measure(seconds)
    ct = times["compile"]
    spark_s, seq_s = seconds_of(times["spark"]), seconds_of(times["seq"])
    summary["samples"] = {"spark": len(spark_s), "seq": len(seq_s),
                          "compile": len(ct["total"])}
    summary["spark_s"], summary["seq_s"] = spark_s, seq_s
    metrics = {
        "pash_spark_s": statistics.median(spark_s),
        "pash_seq_s": statistics.median(seq_s),
        "compile_ms": statistics.median(ct["total"]) * 1e3,
        "setup_s": setup_s,
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary["speedup"] = metrics["pash_seq_s"] / metrics["pash_spark_s"]
    return metrics


def run_traced(bench: Bench, seconds: int, summary: Dict) -> Dict[str, float]:
    import eventlog
    import layers
    from specs import COMMANDS

    log_dir = bench.run_dir / "eventlog"
    _, first = bench.set_up(log_dir)
    set_reference(bench, summary)
    bench.check("spark (set-up)", first)
    tracer = layers.Tracer()
    wrappers = layers.Layers(tracer)
    wrappers.install()
    try:
        bench.warm_up()
        times = bench.measure(seconds, tracer)
    finally:
        wrappers.uninstall()
    bench.spark.stop()  # flushes and closes the event log
    bench.spark = None
    traced_spark, traced_seq, plain = times["spark"], times["seq"], times["plain"]
    ct = times["compile"]

    spark_invs = [inv for inv, _ in traced_spark]
    seq_invs = [inv for inv, _ in traced_seq]
    metrics: Dict[str, float] = {}
    metrics["frontend.compile_ms"] = statistics.median(ct["frontend"]) * 1e3
    metrics["transform.parallelize_ms"] = statistics.median(ct["transform"]) * 1e3
    metrics.update(dfg_shape(bench.wl.script))
    metrics.update(layers.seq_command_metrics(tracer, seq_invs, COMMANDS))
    metrics.update(layers.spark_layer_metrics(tracer, spark_invs))
    wall_ms = {inv: t * 1e3 for inv, t in traced_spark}
    metrics.update(eventlog.engine_metrics(eventlog.read_events(log_dir), wall_ms))
    # median over rounds of traced / untraced twin: pairs cancel host drift
    metrics["trace.overhead"] = statistics.median(
        t / u for t, u in zip(seconds_of(traced_spark), seconds_of(plain))) - 1

    spark_self = layers.layer_self_ms(tracer, spark_invs, layers.SPARK_LAYERS)
    seq_self = layers.layer_self_ms(tracer, seq_invs, layers.SEQ_LAYERS)
    summary["samples"] = {"untraced_spark": len(plain),
                          "traced_spark": len(spark_invs), "traced_seq": len(seq_invs)}
    summary["pash_spark_s"] = {"untraced": seconds_of(plain),
                               "traced": seconds_of(traced_spark)}
    summary["spark_self_ms"] = spark_self
    summary["seq_self_ms"] = seq_self
    summary["dominant_layer"] = {"pash_spark": max(spark_self, key=spark_self.get),
                                 "pash_seq": max(seq_self, key=seq_self.get)}
    (bench.run_dir / "trace.json").write_text(json.dumps(tracer.to_json()))
    return metrics


def layer_unit(name: str) -> str:
    if name.startswith("seq.cmd."):
        return SEQ_CMD_UNITS[name.rsplit(".", 1)[1]]
    return LAYER_UNITS[name]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "compiler" / "pash.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    configure_env(run_dir)

    from specs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, run_dir)
    summary: Dict[str, object] = {"workload": args.workload, "seed": args.seed,
                                  "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            metrics = run_traced(bench, args.seconds, summary)
        else:
            metrics = run_untraced(bench, args.seconds, summary)
        import pyspark

        summary["host"] = host_facts(pyspark.__version__)
    finally:
        bench.stop()
        shutil.rmtree(run_dir / "spark-local", ignore_errors=True)
        shutil.rmtree(run_dir / "gnu", ignore_errors=True)
        shutil.rmtree(run_dir / "tmp", ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    correct = bench.failed == 0 and summary["gnu_check"] == "match"
    summary["error_rate"] = bench.failed / bench.attempted
    result = {
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({"summary": summary, "result": result},
                                                    indent=1))
    for k, u in units.items():
        print(f"{k:32s} {metrics[k]:14.4f} {u}")
    print(f"{'error_rate':32s} {summary['error_rate']:14.4f} "
          f"({bench.failed}/{bench.attempted} invocations)")
    print("summary " + json.dumps(summary))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
