"""§6.4 — Wikipedia-style web indexing with foreign-language stages.

Usage: ``spark-submit jobs/webindex.py [scale] [width]``
"""
from __future__ import annotations

import sys
from typing import Dict, List

from _common import NPROC, get_spark, print_table


def run(spark, *, scale: float = 1.0, width: int = NPROC) -> List[Dict]:
    from repro.workloads import webindex
    from repro.workloads.harness import run_both

    rows: List[Dict] = []
    for name, script in [("index", webindex.SCRIPT), ("links", webindex.LINKS_SCRIPT)]:
        env = webindex.make_env(scale)
        r = run_both(spark, script, env, widths=[width])
        assert r.output_equal, name
        rows.append({
            "script": name,
            "seq": f"{r.seq_time:.2f}s",
            f"pash_w{width}": f"{r.spark_times[width]:.2f}s",
            "speedup": f"{r.speedup(width):.2f}x",
        })
    return rows


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    width = int(sys.argv[2]) if len(sys.argv) > 2 else NPROC
    spark = get_spark("webindex")
    spark.sparkContext.setLogLevel("ERROR")
    print_table(run(spark, scale=scale, width=width), f"Web indexing (width={width})")
    spark.stop()


if __name__ == "__main__":
    main()
