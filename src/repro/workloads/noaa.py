"""§6.3 NOAA weather analysis — the paper's running example (Fig. 2).

The script is Fig. 2 verbatim modulo the simulated network: ``curl``
resolves against the vfs FTP tree built by
:func:`repro.workloads.inputs.noaa_env` and ``gunzip`` does real zlib work
on base64-carried gzip members (DESIGN.md §5).

The paper reports three numbers: whole-pipeline speedup (2.52x),
preprocessing speedup (2.04x — download+extract, 75% of sequential time)
and processing speedup (12.31x — the CPU-bound max computation). We
measure the same decomposition: ``PREPROC`` materializes the cleaned
temperature file per year; ``COMPUTE`` reduces it to the maximum.
"""
from __future__ import annotations

from repro.commands.base import ExecEnv

from .inputs import noaa_env

YEARS = [2015, 2016, 2017, 2018, 2019]

FULL = """
for y in {2015..2019}; do
  curl noaa/$y | grep gz | tr -s " " | cut -d " " -f 9 |
  sed "s;^;noaa/$y/;" | xargs -n 1 curl -s | gunzip |
  cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 |
  sed "s/^/Maximum temperature for $y is: /"
done
"""

PREPROC = """
for y in {2015..2019}; do
  curl noaa/$y | grep gz | tr -s " " | cut -d " " -f 9 |
  sed "s;^;noaa/$y/;" | xargs -n 1 curl -s | gunzip > temps_$y.txt
done
"""

COMPUTE = """
for y in {2015..2019}; do
  cat temps_$y.txt | cut -c 89-92 | grep -iv 999 | sort -rn | head -n 1 |
  sed "s/^/Maximum temperature for $y is: /"
done
"""


def make_env(scale: float = 1.0) -> ExecEnv:
    return noaa_env(
        YEARS,
        files_per_year=max(2, int(16 * scale)),
        records_per_file=max(200, int(8000 * scale)),
    )
