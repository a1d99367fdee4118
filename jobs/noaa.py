"""§6.3 — NOAA weather analysis (the paper's Fig. 2 running example).

Measures the full pipeline plus the preprocessing (download/extract) and
processing (max computation) phases separately — the paper's 2.52x /
2.04x / 12.31x decomposition.

Usage: ``spark-submit jobs/noaa.py [scale] [width]``
"""
from __future__ import annotations

import sys
from typing import Dict, List

from _common import NPROC, get_spark, print_table


def run(spark, *, scale: float = 1.0, width: int = NPROC) -> List[Dict]:
    from repro.commands.base import ExecEnv
    from repro.compiler import pash_seq
    from repro.workloads import noaa
    from repro.workloads.harness import measure_seq, measure_spark

    rows: List[Dict] = []
    base_env = noaa.make_env(scale)
    # the processing phase reads the temps_<y>.txt files that
    # preprocessing writes; each measurement runs on a copy of its env
    pre_env = ExecEnv(files=dict(base_env.files), ftypes=dict(base_env.ftypes))
    pash_seq(noaa.PREPROC, pre_env)
    phases = [("full", noaa.FULL, base_env), ("preprocessing", noaa.PREPROC, base_env),
              ("processing", noaa.COMPUTE, pre_env)]

    for name, script, env in phases:
        seq_out, t_seq = measure_seq(script, env)
        par_out, t_par = measure_spark(spark, script, env, width=width)
        assert par_out == seq_out, name
        rows.append({
            "phase": name,
            "seq": f"{t_seq:.2f}s",
            f"pash_w{width}": f"{t_par:.2f}s",
            "speedup": f"{t_seq / t_par:.2f}x",
        })
    return rows


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    width = int(sys.argv[2]) if len(sys.argv) > 2 else NPROC
    spark = get_spark("noaa")
    spark.sparkContext.setLogLevel("ERROR")
    print_table(run(spark, scale=scale, width=width), f"NOAA (width={width})")
    spark.stop()


if __name__ == "__main__":
    main()
