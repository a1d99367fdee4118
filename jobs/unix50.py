"""Fig. 11 (as a table) — Unix50 pipelines (§6.2).

Speedup over sequential for the 8 representative pipelines, plus the
paper's "expert rewrite" comparison (awk-blocked vs sort -k rewrite).

Usage: ``spark-submit jobs/unix50.py [scale] [width]``
"""
from __future__ import annotations

import sys
from typing import Dict, List

from _common import NPROC, get_spark, print_table


def run(spark, *, scale: float = 1.0, width: int = NPROC, names=None) -> List[Dict]:
    from repro.workloads import UNIX50
    from repro.workloads.harness import run_both

    rows: List[Dict] = []
    for name, wl in UNIX50.items():
        if names and name not in names:
            continue
        env = wl.make_env(scale)
        r = run_both(spark, wl.script, env, widths=[width])
        assert r.output_equal, name
        rows.append({
            "pipeline": name,
            "seq": f"{r.seq_time:.2f}s",
            f"pash_w{width}": f"{r.spark_times[width]:.2f}s",
            "speedup": f"{r.speedup(width):.2f}x",
            "notes": wl.highlights,
        })
    return rows


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    width = int(sys.argv[2]) if len(sys.argv) > 2 else NPROC
    spark = get_spark("unix50")
    spark.sparkContext.setLogLevel("ERROR")
    print_table(run(spark, scale=scale, width=width), f"Unix50 (width={width})")
    spark.stop()


if __name__ == "__main__":
    main()
