"""Exception types shared by all nftgraph modules."""


class DataError(Exception):
    """Input data violates a documented contract (CLI exit code 2)."""


class MalformedRecord(DataError):
    pass


class TimeLimitExceeded(Exception):
    """Per-query time budget exhausted (CLI exit code 3)."""
