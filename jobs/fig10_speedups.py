"""Fig. 10 (as a table) — speedup vs width under the runtime lattice.

Two complementary measurements (DESIGN.md §5):

* **wall-clock** on the Spark substrate: sequential vs PaSh (split on) vs
  PaSh w/o split, per width;
* **pipesim**: the full four-config lattice (pash / no-split /
  blocking-eager / no-eager), which also models the UNIX scheduling
  effects (pipe laziness) Spark does not have.

Usage: ``spark-submit jobs/fig10_speedups.py [scale] [script,script,...]``
"""
from __future__ import annotations

import sys
from typing import Dict, List

from _common import HOST_WIDTHS, get_spark, print_table

DEFAULT_SCRIPTS = ["nfa-regex", "sort", "top-n", "spell", "sort-sort", "bi-grams"]


def run_wallclock(spark, *, scale: float = 1.0, names=None,
                  widths=None) -> List[Dict]:
    from repro.workloads import ONELINERS
    from repro.workloads.harness import run_both

    names = names or DEFAULT_SCRIPTS
    widths = widths or HOST_WIDTHS
    rows: List[Dict] = []
    for name in names:
        wl = ONELINERS[name]
        env = wl.make_env(scale)
        full = run_both(spark, wl.script, env, widths=widths, enable_split=True)
        nosplit = run_both(spark, wl.script, env, widths=[max(widths)],
                           enable_split=False)
        assert full.output_equal and nosplit.output_equal, name
        row = {"script": name, "seq": f"{full.seq_time:.2f}s"}
        for w in widths:
            row[f"pash_w{w}"] = f"{full.speedup(w):.2f}x"
        row[f"nosplit_w{max(widths)}"] = f"{nosplit.speedup(max(widths)):.2f}x"
        rows.append(row)
    return rows


def run_pipesim(*, scale_lines: float = 500.0, names=None,
                widths=None, sample_scale: float = 0.02) -> List[Dict]:
    from repro.pipesim import runtime_lattice
    from repro.workloads import ONELINERS

    names = names or DEFAULT_SCRIPTS
    widths = widths or [2, 4, 8, 16, 32, 64]
    rows: List[Dict] = []
    for name in names:
        wl = ONELINERS[name]
        env = wl.make_env(sample_scale)  # volumes from a sample-scale run
        lat = runtime_lattice(wl.script, env, widths=widths, scale=scale_lines)
        for cfg, per_w in lat.items():
            row = {"script": name, "config": cfg}
            for w in widths:
                row[f"w{w}"] = f"{per_w[w]:.2f}x"
            rows.append(row)
    return rows


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    names = sys.argv[2].split(",") if len(sys.argv) > 2 else None
    spark = get_spark("fig10")
    spark.sparkContext.setLogLevel("ERROR")
    print_table(run_wallclock(spark, scale=scale, names=names),
                "Fig. 10 — wall-clock speedups (Spark substrate)")
    print_table(run_pipesim(names=names),
                "Fig. 10 — simulated runtime lattice (pipesim)")
    spark.stop()


if __name__ == "__main__":
    main()
