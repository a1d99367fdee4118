"""Top-level PaSh entry points.

``pash_seq``   — the user's script, sequential shell semantics (baseline).
``pash_spark`` — the PaSh pipeline of Fig. 1: compile to DFGs, apply the
parallelizing transformations up to ``--width``, execute on the Spark
substrate. Both run a script's steps, on one copy of the caller's
``stdin``, through ``backend_seq.run_steps``, which runs each opaque
pipeline with the shell variables at its position, as PaSh hands
untranslated AST subtrees back to the shell. A region inside an opaque
subshell runs on the same backend as any other.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from pyspark.sql import SparkSession

from repro.commands.base import ExecEnv

from .backend_seq import run_seq, run_steps
from .backend_spark import run_dfg_spark
from .frontend import CompiledScript, compile_script


def pash_seq(script, env: ExecEnv, *, stdin: Optional[List[str]] = None,
             shell_env: Optional[Dict[str, str]] = None) -> List[str]:
    return run_seq(script, env, stdin=stdin, shell_env=shell_env)


def pash_spark(
    spark: SparkSession,
    script,
    env: ExecEnv,
    *,
    width: int,
    enable_split: bool = True,
    stdin: Optional[List[str]] = None,
    shell_env: Optional[Dict[str, str]] = None,
) -> List[str]:
    cs = script if isinstance(script, CompiledScript) else compile_script(script, shell_env)
    # run_dfg_spark caches nothing and sets no conf: repeated calls leave
    # the session as they found it, the caller's cache included
    return run_steps(cs, env, lambda g, sin: run_dfg_spark(
        spark, g, env, width=width, enable_split=enable_split, stdin=sin), list(stdin or []))
