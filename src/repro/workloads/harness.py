"""Measurement harness shared by jobs/ and perfbench/.

``run_both`` checks output equality (sequential vs PaSh-on-Spark) and
returns the timings; the DuckDB oracle cross-checks query-shaped results
in the tests, not here.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from pyspark.sql import SparkSession

from repro.commands.base import ExecEnv
from repro.compiler import compile_script, pash_seq, pash_spark


def _fresh(env: ExecEnv) -> ExecEnv:
    return ExecEnv(files=dict(env.files), ftypes=dict(env.ftypes))


def measure_seq(script: str, env: ExecEnv) -> Tuple[List[str], float]:
    t0 = time.perf_counter()
    out = pash_seq(script, _fresh(env))
    return out, time.perf_counter() - t0


def measure_spark(spark: SparkSession, script: str, env: ExecEnv, *,
                  width: int, enable_split: bool = True) -> Tuple[List[str], float]:
    t0 = time.perf_counter()
    out = pash_spark(spark, script, _fresh(env), width=width, enable_split=enable_split)
    return out, time.perf_counter() - t0


@dataclass
class RunResult:
    seq_time: float
    spark_times: Dict[int, float]  # width -> seconds
    compile_time: float
    output_equal: bool

    def speedup(self, width: int) -> float:
        return self.seq_time / self.spark_times[width]


def run_both(spark: SparkSession, script: str, env: ExecEnv, *,
             widths: List[int], enable_split: bool = True) -> RunResult:
    t0 = time.perf_counter()
    compile_script(script)
    t_compile = time.perf_counter() - t0

    seq_out, t_seq = measure_seq(script, env)
    times: Dict[int, float] = {}
    equal = True
    for w in widths:
        out, t = measure_spark(spark, script, env, width=w, enable_split=enable_split)
        times[w] = t
        equal = equal and out == seq_out
    return RunResult(t_seq, times, t_compile, equal)
