"""The one place that opens an output file for writing.

A file is written whole or not at all: the data goes to a temporary file
in the target's directory and is moved over the target only when the
writer finishes.  `None` or "-" means stdout.
"""

from __future__ import annotations

import csv
import os
import sys
from contextlib import contextmanager


@contextmanager
def open_output(path: str | None, binary: bool = False):
    """Yield a file handle that replaces `path` atomically on success.

    `None` or "-" yields stdout, which is never closed.  Symlinks are
    followed, so the file a link points to is replaced and the link kept.
    On any exception the temporary file is removed and an existing target
    is left untouched.  A target that exists and is not a regular file
    (a FIFO, a device) is written in place.  There is no fsync.
    """
    if path is None or path == "-":
        yield sys.stdout.buffer if binary else sys.stdout
        return
    path = os.path.realpath(path)
    kwargs = {} if binary else {"encoding": "utf-8", "newline": ""}
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb" if binary else "w", **kwargs) as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fh = open(tmp, "xb" if binary else "x", **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str | None, header, rows) -> None:
    """Write a header and rows as CSV through `open_output`."""
    with open_output(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_rows(path: str | None, header: str, rows) -> None:
    """Write a header and preformatted rows, each ending in CRLF as
    csv.writer's rows do, through `open_output`."""
    with open_output(path) as fh:
        fh.write(header + "\r\n")
        fh.writelines(rows)
