"""§6.5 — Parallel-sort micro-benchmark.

The paper compares PaSh-parallelized GNU sort (annotation-derived
map+merge) against ``sort --parallel`` (the command developer's hand-tuned
parallel implementation). Our substitute for the latter is Spark's native
``orderBy`` over the same lines — a hand-tuned parallel sort the user did
not write (DESIGN.md §5). The paper's findings to reproduce: PaSh's sort
is competitive with/better than the built-in parallel flag, and sort's
scalability is inherently capped (reason every sort-containing script
plateaus ~8x).

Usage: ``spark-submit jobs/micro_sort.py [n_lines] [widths,..]``
"""
from __future__ import annotations

import os
import sys
import time
from typing import Dict, List

from _common import HOST_WIDTHS, get_spark, print_table


def run(spark, *, n_lines: int = 1_500_000, widths=None) -> List[Dict]:
    import pyarrow as pa

    from repro.commands.base import ExecEnv
    from repro.compiler import pash_seq, pash_spark
    from repro.workloads.inputs import text_corpus

    widths = widths or HOST_WIDTHS
    lines = text_corpus(n_lines, seed=0)
    env = ExecEnv(files={"in.txt": lines})
    script = "cat in.txt | sort"

    t0 = time.perf_counter()
    seq_out = pash_seq(script, ExecEnv(files=dict(env.files)))
    t_seq = time.perf_counter() - t0

    rows: List[Dict] = []
    # S_g: the "hand-tuned parallel sort" — Spark's native orderBy, with
    # Arrow ingest and collect
    sdf = spark.createDataFrame(pa.table({"line": lines})).cache()
    sdf.count()
    t0 = time.perf_counter()
    native = sdf.orderBy("line").toArrow().column("line").to_numpy().tolist()
    t_native = time.perf_counter() - t0
    sdf.unpersist()  # leave nothing cached in the caller's session
    assert native == seq_out
    rows.append({"system": "seq (baseline)", "width": "-", "time": f"{t_seq:.2f}s",
                 "speedup": "1.00x"})
    rows.append({"system": "native orderBy (S_g)", "width": "all cores",
                 "time": f"{t_native:.2f}s", "speedup": f"{t_seq / t_native:.2f}x"})
    for w in widths:
        t0 = time.perf_counter()
        out = pash_spark(spark, script, ExecEnv(files=dict(env.files)), width=w)
        t = time.perf_counter() - t0
        assert out == seq_out
        rows.append({"system": "pash sort (S_p)", "width": w,
                     "time": f"{t:.2f}s", "speedup": f"{t_seq / t:.2f}x"})
    return rows


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_500_000
    widths = [int(x) for x in sys.argv[2].split(",")] if len(sys.argv) > 2 else None
    spark = get_spark("micro-sort")
    # the native orderBy baseline is the only reader; streams never shuffle
    # through Spark SQL
    spark.conf.set("spark.sql.shuffle.partitions",
                   os.environ.get("SPARK_SHUFFLE_PARTITIONS", "32"))
    spark.sparkContext.setLogLevel("ERROR")
    print_table(run(spark, n_lines=n, widths=widths), "§6.5 parallel sort")
    spark.stop()


if __name__ == "__main__":
    main()
