"""NFT transfer-graph toolkit.

Decode exported blockchain event logs, build a directed temporal transfer
graph, measure it, hunt for wash-trading signals, run continuous subgraph
matching over insertion streams and export temporal-GNN benchmark inputs.
"""

from .graph import SimpleDigraph, TemporalGraph, simple_view
from .ingest import (NULL_ADDRESS, TRANSFER_TOPIC, IngestStats, TransferEvent,
                     normalize_stream, read_transfers, write_transfers)

__version__ = "0.1.0"

__all__ = [
    "NULL_ADDRESS",
    "TRANSFER_TOPIC",
    "IngestStats",
    "SimpleDigraph",
    "TemporalGraph",
    "TransferEvent",
    "normalize_stream",
    "read_transfers",
    "simple_view",
    "write_transfers",
    "__version__",
]
