"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps
program functions by name from ``perfbench/layers.py``. These tests run
those wrappers over one width-4 call of each benchmark workload, so that
renaming or re-placing a wrapped function fails here, not only in a traced
benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.commands.base import ExecEnv
from repro.compiler import pash_seq, pash_spark
from repro.workloads.inputs import text_corpus
from repro.workloads.oneliners import ONELINERS

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[spec.name]


def _env():
    return ExecEnv(files={"in.txt": text_corpus(2000, seed=0),
                          "in2.txt": text_corpus(2000, seed=1)})


@pytest.mark.parametrize("workload,calls,driver_exec_nodes", [
    # ingest, split, sink, driver-side aggregator calls
    ("sort-sort", (1, 1, 1, 1), 0),
    # both regions are read in one sink, each through its own aggregator
    ("diff", (2, 0, 1, 2), 1),
])
def test_layer_hooks_trace_one_call(spark, layers, workload, calls, driver_exec_nodes):
    script = ONELINERS[workload].script
    seq = pash_seq(script, _env())
    tracer = layers.Tracer()
    hooks = layers.Layers(tracer)
    hooks.install()
    try:
        with tracer.invocation("spark-0", "pash.pash_spark"):
            out = pash_spark(spark, script, _env(), width=4)
    finally:
        hooks.uninstall()
    assert out == seq
    m = layers.spark_layer_metrics(tracer, ["spark-0"])
    assert (m["stream.ingest_calls"], m["stream.split_calls"], m["stream.sink_calls"],
            m["agg.driver_calls"]) == calls
    assert m["backend_spark.driver_exec_nodes"] == driver_exec_nodes
