"""PaSh runtime component (§5): the aggregator library and the Spark
realization of streams, whose chunks travel as pickled RDD chunk records
``(p, lines)``."""
from .aggregators import AGGREGATORS, aggregate

__all__ = ["AGGREGATORS", "aggregate"]
