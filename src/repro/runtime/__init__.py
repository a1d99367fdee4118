"""PaSh runtime component (§5): the aggregator library and the Spark
realization of streams, whose chunks travel as Arrow record batches."""
from .aggregators import AGGREGATORS, aggregate

__all__ = ["AGGREGATORS", "aggregate"]
