"""Optional binary cache for built graphs.

Rebuilding a TemporalGraph from CSV is the slow part of every CLI run, so
a built graph can be dumped to a compact binary file and loaded back much
faster.  The format is a private convenience, not an interchange format:
files are regeneratable from the normalized CSV at any time and carry a
version number so stale caches are rejected rather than misread.  Loading
also checks column lengths, id ranges, edge time order and that node
first-seen times rise with the node id within the edges' time span.

Layout (all integers little-endian):
    magic   4 bytes  b"LGLB"
    version u16
    then length-prefixed sections: address table, contract table,
    node arrays, edge arrays.
"""

from __future__ import annotations

import struct
from array import array

from .errors import DataError
from .graph import TemporalGraph
from .output import open_output

MAGIC = b"LGLB"
VERSION = 1


class CacheFormatError(DataError):
    """Cache file is corrupt or from an incompatible version."""


def _write_strings(fh, items: list[str]) -> None:
    fh.write(struct.pack("<I", len(items)))
    blob = "\n".join(items).encode()
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)


def _read_strings(fh) -> list[str]:
    count, nbytes = struct.unpack("<II", _take(fh, 8))
    if count == 0:
        _take(fh, nbytes)
        return []
    return _take(fh, nbytes).decode().split("\n")


def _write_ints(fh, values, typecode: str = "q") -> None:
    values = list(values)
    try:
        a = array(typecode, values)
    except OverflowError:
        # token ids are 256-bit on chain; fall back to decimal text
        blob = "\n".join(str(v) for v in values).encode()
        fh.write(struct.pack("<cI", b"S", len(values)))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        return
    fh.write(struct.pack("<cI", typecode.encode(), len(a)))
    a.tofile(fh)


def _read_ints(fh):
    typecode, count = struct.unpack("<cI", _take(fh, 5))
    if typecode == b"S":
        (nbytes,) = struct.unpack("<I", _take(fh, 4))
        if count == 0:
            _take(fh, nbytes)
            return []
        try:
            return [int(s) for s in _take(fh, nbytes).decode().split("\n")]
        except ValueError:
            raise CacheFormatError("non-integer in a decimal column") from None
    if typecode not in (b"b", b"q"):
        raise CacheFormatError(f"unknown column type {typecode!r}")
    a = array(typecode.decode())
    a.frombytes(_take(fh, count * a.itemsize))
    return a


def _take(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CacheFormatError("truncated cache file")
    return data


def save(g: TemporalGraph, path: str) -> None:
    with open_output(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        _write_strings(fh, g.addresses)
        _write_strings(fh, g.contracts)
        _write_ints(fh, g.n_first)
        _write_ints(fh, g.n_last)
        _write_ints(fh, g.n_txc)
        _write_ints(fh, (1 if m else 0 for m in g.n_mint), "b")
        _write_ints(fh, g.e_src)
        _write_ints(fh, g.e_dst)
        _write_ints(fh, g.e_ts)
        _write_ints(fh, g.e_contract)
        _write_ints(fh, g.e_token)


def load(path: str) -> TemporalGraph:
    with open(path, "rb") as fh:
        if _take(fh, 4) != MAGIC:
            raise CacheFormatError(f"{path} is not a graph cache")
        (version,) = struct.unpack("<H", _take(fh, 2))
        if version != VERSION:
            raise CacheFormatError(
                f"cache version {version}, expected {VERSION}; regenerate")
        g = TemporalGraph()
        g.addresses = _read_strings(fh)
        g.contracts = _read_strings(fh)
        g._addr_ids = {a: i for i, a in enumerate(g.addresses)}
        g._contract_ids = {c: i for i, c in enumerate(g.contracts)}
        from .ingest import NULL_ADDRESS
        g.null_id = g._addr_ids.get(NULL_ADDRESS)
        g.n_first = list(_read_ints(fh))
        g.n_last = list(_read_ints(fh))
        g.n_txc = list(_read_ints(fh))
        g.n_mint = [bool(x) for x in _read_ints(fh)]
        g.e_src = list(_read_ints(fh))
        g.e_dst = list(_read_ints(fh))
        g.e_ts = list(_read_ints(fh))
        g.e_contract = list(_read_ints(fh))
        g.e_token = list(_read_ints(fh))
        trailing = fh.read(1)
    if trailing:
        raise CacheFormatError("trailing bytes after cache payload")
    n, m = len(g.addresses), len(g.e_src)
    if (any(len(c) != n for c in (g.n_first, g.n_last, g.n_txc, g.n_mint))
            or any(len(c) != m
                   for c in (g.e_dst, g.e_ts, g.e_contract, g.e_token))):
        raise CacheFormatError("inconsistent section lengths")
    for name, ids, bound in (("e_src", g.e_src, n), ("e_dst", g.e_dst, n),
                             ("e_contract", g.e_contract, len(g.contracts))):
        if ids and not (min(ids) >= 0 and max(ids) < bound):
            raise CacheFormatError(f"{name} holds an id outside [0, {bound})")
    if g.e_ts != sorted(g.e_ts):
        raise CacheFormatError("e_ts is not in time order")
    # nodes are interned at their first edge: first-seen times rise with
    # the node id and lie within the edges' time span
    if g.n_first != sorted(g.n_first):
        raise CacheFormatError("n_first is not in time order")
    if n and not m:
        raise CacheFormatError("nodes without edges")
    if n and not g.e_ts[0] <= g.n_first[0] <= g.n_first[-1] <= g.e_ts[-1]:
        raise CacheFormatError("n_first lies outside the edges' time span")
    return g
