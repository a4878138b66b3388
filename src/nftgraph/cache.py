"""Optional binary cache for built graphs.

Rebuilding a TemporalGraph from CSV is the slow part of every CLI run, so
a built graph can be dumped to a compact binary file and loaded back much
faster.  The format is a private convenience, not an interchange format:
files are regeneratable from the normalized CSV at any time and carry a
version number so stale caches are rejected rather than misread.  Loading
checks the crc32 and column lengths; the TemporalGraph constructor then
checks the ids and the edge time order and derives the node columns.
`save` writes an array('q') column as it is and a list column (one
with a value past int64) as decimal text; `load` keeps each column in
the array or list it reads, so a loaded graph holds what the built one
did.

Layout (all integers little-endian):
    magic   4 bytes  b"LGLB"
    version u16
    length-prefixed sections: address table, contract table, then the
    edge columns e_src, e_dst, e_ts, e_contract, e_token
    crc32   u32 of every byte after the version
"""

from __future__ import annotations

import os
import struct
import zlib
from array import array

from .errors import DataError
from .graph import TemporalGraph
from .output import open_output

MAGIC = b"LGLB"
VERSION = 2


class _Checksummed:
    """A cache file plus the crc32 of the payload bytes moved through
    `write` and `_take`; `left` bounds what reads may take, so a damaged
    length field reads as truncation before anything is allocated."""

    def __init__(self, fh, left: int = 0):
        self.fh, self.left, self.crc = fh, left, 0

    def write(self, data) -> None:
        self.crc = zlib.crc32(data, self.crc)
        self.fh.write(data)


def _write_strings(f: _Checksummed, items: list[str]) -> None:
    bad = next((s for s in items if "\n" in s), None)
    if bad is not None:
        raise DataError(f"cannot cache {bad!r}: it holds a newline")
    blob = "\n".join(items).encode()
    f.write(struct.pack("<II", len(items), len(blob)))
    f.write(blob)


def _split(blob: str, count: int) -> list[str]:
    """The `count` newline-separated entries of a table."""
    items = blob.split("\n") if count or blob else []
    if len(items) != count:
        raise DataError(
            f"a table holds {len(items)} entries, its header says {count}")
    return items


def _read_strings(f: _Checksummed) -> list[str]:
    count, nbytes = struct.unpack("<II", _take(f, 8))
    try:
        blob = _take(f, nbytes).decode()
    except UnicodeDecodeError:
        raise DataError("a string table is not UTF-8") from None
    return _split(blob, count)


def _write_ints(f: _Checksummed, values: array | list) -> None:
    if type(values) is array:
        f.write(struct.pack("<cI", b"q", len(values)))
        values.tofile(f)
        return
    # a list column holds a value past int64 (token ids are 256-bit on
    # chain): decimal text
    blob = "\n".join(map(str, values)).encode()
    f.write(struct.pack("<cII", b"S", len(values), len(blob)))
    f.write(blob)


def _read_ints(f: _Checksummed):
    typecode, count = struct.unpack("<cI", _take(f, 5))
    if typecode == b"S":
        (nbytes,) = struct.unpack("<I", _take(f, 4))
        try:
            return [int(s) for s in _split(_take(f, nbytes).decode(), count)]
        except ValueError:
            raise DataError("non-integer in a decimal column") from None
    if typecode != b"q":
        raise DataError(f"unknown column type {typecode!r}")
    a = array("q")
    a.frombytes(_take(f, count * a.itemsize))
    return a


def _take(f: _Checksummed, n: int) -> bytes:
    if n > f.left:
        raise DataError("truncated cache file")
    data = f.fh.read(n)
    f.left -= n
    f.crc = zlib.crc32(data, f.crc)
    return data


def save(g: TemporalGraph, path: str) -> None:
    with open_output(path, binary=True) as fh:
        fh.write(MAGIC + struct.pack("<H", VERSION))
        f = _Checksummed(fh)
        _write_strings(f, g.addresses)
        _write_strings(f, g.contracts)
        for column in (g.e_src, g.e_dst, g.e_ts, g.e_contract, g.e_token):
            _write_ints(f, column)
        fh.write(struct.pack("<I", f.crc))


def load(path: str) -> TemporalGraph:
    with open(path, "rb") as fh:
        f = _Checksummed(fh, os.fstat(fh.fileno()).st_size - 4)  # - crc32
        if _take(f, 4) != MAGIC:
            raise DataError(f"{path} is not a graph cache")
        (version,) = struct.unpack("<H", _take(f, 2))
        if version != VERSION:
            raise DataError(
                f"cache version {version}, expected {VERSION}; regenerate")
        f.crc = 0                           # the crc32 covers what follows
        addresses = _read_strings(f)
        contracts = _read_strings(f)
        e_src, e_dst, e_ts, e_contract, e_token = (
            _read_ints(f) for _ in range(5))
        if f.left:
            raise DataError("trailing bytes after cache payload")
        if fh.read(4) != struct.pack("<I", f.crc):
            raise DataError("checksum mismatch")
    return TemporalGraph(addresses, contracts,
                         e_src, e_dst, e_ts, e_contract, e_token)
