"""§6.5 — GNU-parallel micro-benchmark on a bio-informatics pipeline.

The paper's findings to reproduce:

* PaSh accelerates the whole pipeline (theirs: 4.3x) — most time is in one
  stage (cutadapt);
* parallelizing only the bottleneck stage (what a careful user would do
  with GNU parallel) helps less (theirs: 1.8x);
* blanket GNU parallel over the whole program is fast but WRONG: ~92% of
  output lines differ from the sequential run. PaSh stays correct.

Usage: ``spark-submit jobs/micro_parallel.py [n_reads] [width]``
"""
from __future__ import annotations

import sys
import time
from typing import Dict, List

from _common import NPROC, get_spark, print_table

# trim adapters (dominant cost), keep long reads, tabulate 8-mers
BIO_SCRIPT = (
    "cat reads.txt | cutadapt_sim | grep -E \".{30,}\" | cut -c 1-8 "
    "| sort | uniq -c | sort -rn"
)
# bottleneck-only parallelization target: the cutadapt stage alone
BOTTLENECK_STAGE = "cat reads.txt | cutadapt_sim"
BIO_TAIL = "cat trimmed.txt | grep -E \".{30,}\" | cut -c 1-8 | sort | uniq -c | sort -rn"


def run(spark, *, n_reads: int = 300_000, width: int = NPROC) -> List[Dict]:
    from repro.commands.base import ExecEnv
    from repro.compiler import pash_seq, pash_spark
    from repro.runtime.naive_parallel import diff_fraction, naive_parallel
    from repro.workloads.inputs import bio_reads

    reads = bio_reads(n_reads)
    env = ExecEnv(files={"reads.txt": reads})

    def fresh():
        return ExecEnv(files=dict(env.files))

    t0 = time.perf_counter()
    seq_out = pash_seq(BIO_SCRIPT, fresh())
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    pash_out = pash_spark(spark, BIO_SCRIPT, fresh(), width=width)
    t_pash = time.perf_counter() - t0

    # careful user: parallelize only the bottleneck stage, rest sequential
    t0 = time.perf_counter()
    e = fresh()
    e.files["trimmed.txt"] = naive_parallel(
        spark, BOTTLENECK_STAGE, e, input_file="reads.txt", width=width)
    bott_out = pash_seq(BIO_TAIL, e)
    t_bott = time.perf_counter() - t0

    # careless user: GNU parallel across the whole program
    t0 = time.perf_counter()
    naive_out = naive_parallel(spark, BIO_SCRIPT, fresh(),
                               input_file="reads.txt", width=width)
    t_naive = time.perf_counter() - t0

    assert pash_out == seq_out, "PaSh must preserve sequential semantics"
    assert bott_out == seq_out, "bottleneck-only parallelization is safe here"

    return [
        {"system": "sequential", "time": f"{t_seq:.2f}s", "speedup": "1.00x",
         "output vs seq": "identical"},
        {"system": f"pash (w={width})", "time": f"{t_pash:.2f}s",
         "speedup": f"{t_seq / t_pash:.2f}x", "output vs seq": "identical"},
        {"system": "parallel on bottleneck stage", "time": f"{t_bott:.2f}s",
         "speedup": f"{t_seq / t_bott:.2f}x", "output vs seq": "identical"},
        {"system": "naive GNU-parallel everywhere", "time": f"{t_naive:.2f}s",
         "speedup": f"{t_seq / t_naive:.2f}x",
         "output vs seq": f"{100 * diff_fraction(seq_out, naive_out):.0f}% lines differ"},
    ]


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300_000
    width = int(sys.argv[2]) if len(sys.argv) > 2 else NPROC
    spark = get_spark("micro-parallel")
    spark.sparkContext.setLogLevel("ERROR")
    print_table(run(spark, n_reads=n, width=width), "§6.5 GNU parallel comparison")
    spark.stop()


if __name__ == "__main__":
    main()
