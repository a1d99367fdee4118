"""GNU-parallel-style baselines (§6.5).

``naive_parallel`` mimics "sprinkling ``parallel`` across the entire
program": chunk the input file, run the *whole* script on each chunk
concurrently, concatenate the outputs. Correct only for all-ⓢ pipelines;
for scripts with ⓟ commands (sort/uniq/comm) chunk boundaries corrupt the
result — the paper measures 92% differing output lines. ``diff_fraction``
quantifies that.

The other baseline, the careful user who parallelizes only the single most
expensive stage (the paper's 1.8x-vs-4.3x comparison), is built in
``jobs/micro_parallel.py``.
"""
from __future__ import annotations

from typing import List

from pyspark.sql import SparkSession

from repro.commands.base import ExecEnv
from repro.compiler import pash_seq
from repro.runtime.stream import SparkStream


def naive_parallel(
    spark: SparkSession,
    script: str,
    env: ExecEnv,
    *,
    input_file: str,
    width: int,
) -> List[str]:
    """Run the whole script per input chunk, in parallel, and concatenate —
    exactly what incorrect blanket use of GNU parallel does."""
    base_files = {k: v for k, v in env.files.items()}
    ftypes = dict(env.ftypes)
    lines = env.read(input_file)

    def run_chunk(chunk: List[str]) -> List[str]:
        files = dict(base_files)
        files[input_file] = chunk
        return pash_seq(script, ExecEnv(files=files, ftypes=ftypes))

    # like ``parallel --pipe``: no chunk without input lines
    st = SparkStream.from_lines(spark, lines, max(1, min(width, len(lines))))
    return st.per_chunk(run_chunk).collect_lines()


def diff_fraction(a: List[str], b: List[str]) -> float:
    """Fraction of output lines that differ between two runs (positional,
    like the paper's diff-based comparison)."""
    n = max(len(a), len(b))
    if n == 0:
        return 0.0
    same = sum(1 for x, y in zip(a, b) if x == y)
    return 1.0 - same / n
