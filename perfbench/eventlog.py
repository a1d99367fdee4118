"""Spark engine metrics from an uncompressed, non-rolling event log.

The runner sets one job group per traced invocation (``setJobGroup``); the
group id travels in the ``Properties`` of every job and stage event, so each
job, stage and task is attributed to the invocation that caused it.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

GROUP = "spark.jobGroup.id"


def read_events(log_dir: Path) -> List[dict]:
    files = [p for p in log_dir.iterdir() if p.is_file()]
    if len(files) != 1 or files[0].name.endswith(".inprogress"):
        raise RuntimeError(f"expected one finished event log in {log_dir}, "
                           f"found {[p.name for p in files]}")
    with open(files[0], encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _union_ms(intervals: List[tuple]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def engine_metrics(events: List[dict], wall_ms: Dict[str, float]) -> Dict[str, float]:
    """``spark.*`` metrics per invocation (keys of ``wall_ms``: job-group id
    -> that invocation's wall time), then the median over invocations."""
    job_group: Dict[int, str] = {}
    job_start: Dict[int, float] = {}
    job_end: Dict[int, float] = {}
    stage_group: Dict[int, str] = {}
    stage_span: Dict[int, tuple] = {}
    stage_tasks: Dict[int, int] = {}
    tasks: Dict[int, List[dict]] = {}
    for ev in events:
        kind = ev.get("Event")
        if kind == "SparkListenerJobStart":
            g = (ev.get("Properties") or {}).get(GROUP)
            if g in wall_ms:
                job_group[ev["Job ID"]] = g
                job_start[ev["Job ID"]] = ev["Submission Time"]
        elif kind == "SparkListenerJobEnd":
            job_end[ev["Job ID"]] = ev["Completion Time"]
        elif kind == "SparkListenerStageSubmitted":
            g = (ev.get("Properties") or {}).get(GROUP)
            if g in wall_ms:
                info = ev["Stage Info"]
                stage_group[info["Stage ID"]] = g
                stage_tasks[info["Stage ID"]] = info["Number of Tasks"]
        elif kind == "SparkListenerStageCompleted":
            info = ev["Stage Info"]
            stage_span[info["Stage ID"]] = (info.get("Submission Time", 0),
                                            info.get("Completion Time", 0))
        elif kind == "SparkListenerTaskEnd":
            tasks.setdefault(ev["Stage ID"], []).append(ev)

    per: Dict[str, List[float]] = {}
    for g, wall in wall_ms.items():
        jobs = [j for j, jg in job_group.items() if jg == g]
        stages = [s for s, sg in stage_group.items() if sg == g]
        busy = _union_ms([(job_start[j], job_end.get(j, job_start[j])) for j in jobs])
        m = {
            "spark.jobs": len(jobs), "spark.stages": len(stages),
            "spark.tasks": 0, "spark.failed_tasks": 0,
            "spark.busy_ms": busy, "spark.driver_only_ms": wall - busy,
            "spark.executor_run_ms": 0.0, "spark.deserialize_ms": 0.0,
            "spark.gc_ms": 0.0, "spark.single_task_stage_ms": 0.0,
            "spark.map_task_skew": 0.0, "spark.shuffle_write_mb": 0.0,
            "spark.shuffle_read_mb": 0.0, "spark.result_mb": 0.0,
        }
        widest: tuple = (0, 0.0, [])  # (tasks, summed run ms, run times)
        for s in stages:
            evs = tasks.get(s, [])
            runs = []
            for ev in evs:
                tm = ev.get("Task Metrics") or {}
                failed = ev["Task Info"].get("Failed") or \
                    ev.get("Task End Reason", {}).get("Reason") != "Success"
                m["spark.tasks"] += 1
                m["spark.failed_tasks"] += int(bool(failed))
                runs.append(tm.get("Executor Run Time", 0))
                m["spark.executor_run_ms"] += tm.get("Executor Run Time", 0)
                m["spark.deserialize_ms"] += tm.get("Executor Deserialize Time", 0)
                m["spark.gc_ms"] += tm.get("JVM GC Time", 0)
                m["spark.result_mb"] += tm.get("Result Size", 0) / 1e6
                sr = tm.get("Shuffle Read Metrics") or {}
                m["spark.shuffle_read_mb"] += (sr.get("Remote Bytes Read", 0)
                                               + sr.get("Local Bytes Read", 0)) / 1e6
                sw = tm.get("Shuffle Write Metrics") or {}
                m["spark.shuffle_write_mb"] += sw.get("Shuffle Bytes Written", 0) / 1e6
            if stage_tasks.get(s) == 1 and s in stage_span:
                lo, hi = stage_span[s]
                m["spark.single_task_stage_ms"] += hi - lo
            key = (len(runs), sum(runs), runs)
            if key[:2] > widest[:2]:
                widest = key
        runs = widest[2]
        if runs and statistics.median(runs) > 0:
            m["spark.map_task_skew"] = max(runs) / statistics.median(runs)
        for k, v in m.items():
            per.setdefault(k, []).append(float(v))
    return {k: statistics.median(v) for k, v in per.items()}
