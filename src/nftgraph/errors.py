"""Exception types shared by all nftgraph modules."""


class DataError(Exception):
    """Input data violates a documented contract (CLI exit code 2)."""


class MalformedRecord(DataError):
    pass


class TimeLimitExceeded(Exception):
    """Per-query time budget exhausted.  csm raises and catches it; the
    CLI exits 3 when a csm row timed out."""
