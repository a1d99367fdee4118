"""Benchmark workloads.

Scripts are taken unchanged from :mod:`repro.workloads`; inputs come from
the :mod:`repro.workloads.inputs` generators with the benchmark's seed (the
``make_env`` helpers hard-code theirs). Seed 0 is the corpus the one-liners
use today.

* ``sort-sort`` - ``cat | tr | sort | sort -r`` over 20k lines (0.7 MB),
  the paper's P-after-P case: every line is ingested into Spark, sorted
  per chunk, merged and re-split in one executor task, sorted again,
  merged on the driver and sent back. It is the one workload with a
  ``split``. Traced on a 4-core host, a 1.7 s call runs 8 Spark jobs that
  are busy for 1.2 s (0.4 s of it in the single-task stage); ingest takes
  0.1 s. Fixed per-job and per-task cost dominates, not moving data.
* ``diff`` - ``diff <(cat in.txt | sort) <(cat in2.txt | sort)`` over two
  20k-line corpora: two sort regions whose outputs are collected to the
  driver and fed to ``diff``, a width sink that runs there. No line is
  shared, so the output is both inputs (40k lines). Traced, a 1.6 s call
  runs 8 Spark jobs busy for 1.0 s; 0.6 s is driver-side, of which ingest
  is 0.25 s and ``diff`` itself 30 ms.

Both have a GNU reference: ``LC_ALL=C bash -c <script>`` over the same
inputs written to disk.

A cold set-up (new JVM, new Python workers, first call) takes about 20 s
on a 4-core host, which leaves room in the run budget for two workloads.
``nfa-regex`` (stateless, map-bound) and the NOAA pipeline (Fig. 2, about
80 Spark jobs and 11-15 s per warm call) are therefore not workloads.
The two here reach every layer those reach except file sinks and the
env-capturing commands (``xargs``, ``curl``, ``file``).
"""
from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from repro.commands.base import ExecEnv
from repro.workloads.inputs import text_corpus
from repro.workloads.oneliners import ONELINERS


@dataclass(frozen=True)
class Workload:
    name: str
    script: str
    make_env: Callable[[int], ExecEnv]  # seed -> inputs


def corpus(lines: int) -> Callable[[int], ExecEnv]:
    return lambda seed: ExecEnv(files={"in.txt": text_corpus(lines, seed=seed)})


def two_corpora(lines: int) -> Callable[[int], ExecEnv]:
    return lambda seed: ExecEnv(files={"in.txt": text_corpus(lines, seed=seed),
                                       "in2.txt": text_corpus(lines, seed=seed + 1)})


def _oneliner(name: str, make_env) -> Workload:
    return Workload(name, ONELINERS[name].script, make_env)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    _oneliner("sort-sort", corpus(20_000)),
    _oneliner("diff", two_corpora(20_000)),
)}

# commands whose sequential cost the traced run reports (seq.cmd.<cmd>.*)
COMMANDS = ["cat", "tr", "sort", "diff"]


def gnu_output(script: str, env: ExecEnv, work_dir: Path) -> List[str]:
    """Run ``script`` with GNU tools over ``env``'s files written to
    ``work_dir``; returns stdout as lines."""
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in env.files.items():
        (work_dir / name).write_bytes("".join(l + "\n" for l in lines).encode())
    p = subprocess.run(["bash", "-c", script], cwd=work_dir, capture_output=True,
                       env={**os.environ, "LC_ALL": "C"}, timeout=120)
    # grep exits 1 when nothing matches and diff when the files differ;
    # anything on stderr is a failure
    if p.returncode not in (0, 1) or p.stderr:
        raise RuntimeError(f"GNU run failed ({p.returncode}): {p.stderr.decode()[:500]}")
    text = p.stdout.decode()
    return text.split("\n")[:-1] if text else []
