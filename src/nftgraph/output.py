"""The one place that opens an output file for writing.

A file is written whole or not at all: the data goes to a temporary file
in the target's directory and is moved over the target only when the
writer finishes.  `None` or "-" means stdout.

Two writers carry the large CSV files, each in chunks of at most
`_CHUNK_ROWS` (512) rows, one `write` per chunk, so no file's text is
ever held whole:

- `write_rows` takes rows the caller has already formatted, each ending
  in CRLF as csv.writer's rows do.
- `write_table` takes rows of ints, floats, bools and strs and writes
  what csv.writer writes.  A chunk whose rows all have the first row's
  width of two or more fields is formatted with one `%` (`%s` of a float
  is its repr, as csv.writer writes it), and goes through csv.writer
  instead when a field would need quoting or a row has another width.
"""

from __future__ import annotations

import csv
import os
import sys
from contextlib import contextmanager
from itertools import chain, islice

# Bounded so that no file's text is held whole: joining whole files ran
# no faster and peaked 2 MB higher on perfbench `export`, whose negatives
# file is 1.2 MB of text
_CHUNK_ROWS = 512


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


def write_rows(path: str | None, header: str, rows) -> None:
    """Write a header and preformatted rows, each ending in CRLF as
    csv.writer's rows do, through `open_output`, one join per chunk."""
    rows = iter(rows)
    with open_output(path) as fh:
        fh.write(header + "\r\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            fh.write("".join(chunk))


def write_table(path: str | None, header, rows) -> None:
    """Write a header and rows of ints, floats, bools and strs as
    csv.writer writes them, through `open_output`."""
    rows = iter(rows)
    with open_output(path) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            n, width = len(chunk), len(chunk[0])
            # csv.writer quotes a field only if it holds a delimiter, a
            # quote or a line break (or is an empty row's only field);
            # ints and hex strings never do, and one `%` is several times
            # faster
            if width > 1 and set(map(len, chunk)) == {width}:
                text = (("%s," * (width - 1) + "%s\r\n") * n) % tuple(
                    chain.from_iterable(chunk))
                if (text.count(",") == (width - 1) * n
                        and text.count("\n") == n and text.count("\r") == n
                        and '"' not in text):
                    fh.write(text)
                    continue
            w.writerows(chunk)
