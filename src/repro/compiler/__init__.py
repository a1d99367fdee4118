"""PaSh compiler: frontend (AST -> dataflow regions -> DFG, §4.1),
sequential backend (reference semantics) and Spark backend (the parallel
execution substrate)."""
from .frontend import CompiledScript, Step, compile_script
from .backend_seq import run_seq, run_dfg_seq
from .pash import pash_spark, pash_seq

__all__ = [
    "CompiledScript", "Step", "compile_script",
    "run_seq", "run_dfg_seq", "pash_spark", "pash_seq",
]
