"""Exception hierarchy shared by all nftgraph modules."""


class NftGraphError(Exception):
    """Base class for all nftgraph errors."""


class DataError(NftGraphError):
    """Input data violates a documented contract (CLI exit code 2)."""


class MalformedRecord(DataError):
    pass


class UnsortedInput(DataError):
    pass


class InsufficientNodes(DataError):
    pass


class BadRecord(DataError):
    pass


class QueryError(DataError):
    """Bad query pattern file: parse failure, disconnected or too large."""


class TimeLimitExceeded(NftGraphError):
    """Per-query time budget exhausted (CLI exit code 3)."""
