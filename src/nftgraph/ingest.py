"""Decode exported Ethereum event logs into a normalized NFT transfer file.

Raw inputs are JSONL (one log object per line) or CSV with the same columns:
block_number, block_timestamp, transaction_hash, log_index, address, topics,
data.  In CSV form `topics` is pipe-separated.  The output is the canonical
interchange file of the whole package: a CSV sorted by
(timestamp, block_number, log_index) with header

    timestamp,block_number,tx_hash,log_index,contract,from,to,token_id
"""

from __future__ import annotations

import csv
import json
import os
import re
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import MalformedRecord
from .output import _CHUNK_ROWS, write_table

NULL_ADDRESS = "0x" + "00" * 20

# keccak256("Transfer(address,address,uint256)") -- topics[0] of every
# ERC-721/ERC-20 Transfer log.
TRANSFER_TOPIC = "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"

# Block timestamps earlier than this (or later than the ingest wall clock)
# are rejected as malformed.
EARLIEST_TIMESTAMP = 1438269973

NORMALIZED_HEADER = [
    "timestamp", "block_number", "tx_hash", "log_index",
    "contract", "from", "to", "token_id",
]

# Larger blocks build no faster and raise the peak RSS: 64 KiB blocks of
# lines peaked 5 MB higher than 16 KiB ones on a 1M-row file, and chunks
# of 1024 rows on the csv.reader path 1.7 MB higher than 64-row ones on
# 60k rows
_BLOCK_CHARS = 1 << 14
_BLOCK_ROWS = 64
_HEADER_LINES = (",".join(NORMALIZED_HEADER) + "\n",
                 ",".join(NORMALIZED_HEADER) + "\r\n")

RAW_CSV_COLUMNS = [
    "block_number", "block_timestamp", "transaction_hash",
    "log_index", "address", "topics", "data",
]

# The one definition of a valid raw record (decimal ints, lowercase 0x hex
# of the right widths, one to four topics).  Any other spelling (any case,
# a missing 0x, padding, JSON ints as strings or integral floats, null
# data) is normalized field by field and then matched against it.
_CANONICAL_CSV = re.compile(
    r"([0-9]+),([0-9]+),(0x[0-9a-f]{64}),([0-9]+),(0x[0-9a-f]{40}),"
    r"(0x[0-9a-f]{64}(?:\|0x[0-9a-f]{64}){0,3}),(0x(?:[0-9a-f]{2})*)\Z")


class TransferEvent(NamedTuple):
    """One ERC-721 transfer, which is also one normalized CSV row: the
    fields are in NORMALIZED_HEADER order."""

    timestamp: int
    block_number: int
    tx_hash: str
    log_index: int
    contract: str
    from_addr: str
    to_addr: str
    token_id: int


class SkipReason(Enum):
    WRONG_TOPIC = "wrong_topic"
    ARITY = "arity"


@dataclass
class IngestStats:
    records_read: int = 0
    transfers_emitted: int = 0
    skipped_wrong_topic: int = 0
    skipped_non_conforming: int = 0
    skipped_duplicate: int = 0
    skipped_malformed: int = 0

    def balances(self) -> bool:
        return self.records_read == (
            self.transfers_emitted + self.skipped_wrong_topic
            + self.skipped_non_conforming + self.skipped_duplicate
            + self.skipped_malformed
        )

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _hex_string(value, what: str) -> str:
    """`value` stripped, lowercased and 0x-prefixed; it must be a string."""
    if not isinstance(value, str):
        raise MalformedRecord(f"{what} not a string")
    v = value.strip().lower()
    return v if v.startswith("0x") else "0x" + v


def _norm_int(value, what: str) -> int:
    # int() would turn JSON true into 1 and truncate 10.9 to 10
    if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()):
        raise MalformedRecord(f"{what} not an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise MalformedRecord(f"{what} not numeric") from None


def _canonical_fields(m: re.Match, upper: int) -> tuple:
    """The seven fields of a `_CANONICAL_CSV` match, block number,
    timestamp and log index as ints; MalformedRecord for an int past the
    interpreter's digit limit or a timestamp outside
    [EARLIEST_TIMESTAMP, upper]."""
    block, ts, tx_hash, log_index, contract, topics, data = m.groups()
    try:
        block, ts, log_index = int(block), int(ts), int(log_index)
    except ValueError:
        raise MalformedRecord("integer field too long") from None
    if ts < EARLIEST_TIMESTAMP or ts > upper:
        raise MalformedRecord("timestamp out of range")
    return block, ts, tx_hash, log_index, contract, topics, data


def _as_canonical_csv(obj: dict, topics: list) -> str:
    """`obj`'s fields as a raw CSV line to match against `_CANONICAL_CSV`,
    or "" if a topic is not a str or holds a `|`.

    Only the match is trusted: no text of a JSON value but a str or an
    int matches a field of the pattern.  `_block_matches` passes a JSON
    object as read, `parse_log_line` a line's normalized fields.
    """
    try:
        joined = "|".join(topics)
    except TypeError:
        return ""
    if joined.count("|") != len(topics) - 1:
        return ""
    return (f"{obj['block_number']},{obj['block_timestamp']},"
            f"{obj['transaction_hash']},{obj['log_index']},{obj['address']},"
            f"{joined},{obj['data']}")


def _json_topics(obj: dict) -> list:
    """The topics of a parsed JSON line; MalformedRecord for a missing
    key or topics that are not a list."""
    missing = [k for k in RAW_CSV_COLUMNS if k not in obj]
    if missing:
        raise MalformedRecord(f"missing key {missing[0]}")
    topics = obj["topics"]
    if not isinstance(topics, list):
        raise MalformedRecord("topics not a list")
    return topics


def parse_log_line(line: str, *, now: int | None = None) -> tuple:
    """The seven fields of one raw JSONL or CSV line, as
    `_canonical_fields` gives them: block number, timestamp, tx hash,
    log index, contract, pipe-joined topics and data.  Each field is
    normalized, which leaves a canonical one unchanged, and the result
    is matched once; `_block_matches` is the fast path for lines that
    are canonical as read.

    Raises MalformedRecord for bad JSON or CSV, a missing key, a field
    that does not normalize to `_CANONICAL_CSV` or a timestamp outside
    [EARLIEST_TIMESTAMP, `now`] (the wall clock if None).
    """
    upper = now if now is not None else int(time.time())
    stripped = line.strip()
    if not stripped:
        raise MalformedRecord("empty line")
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except (ValueError, RecursionError):    # JSONDecodeError included
            raise MalformedRecord("bad json") from None
        topics = _json_topics(obj)
    else:
        try:
            row = next(csv.reader([stripped]))
        except csv.Error:       # a field past csv.field_size_limit()
            raise MalformedRecord("bad csv") from None
        if len(row) != len(RAW_CSV_COLUMNS):
            raise MalformedRecord("column count")
        obj = dict(zip(RAW_CSV_COLUMNS, row))
        topics = [t for t in obj["topics"].split("|") if t]

    norm = {k: _norm_int(obj[k], k)
            for k in ("block_number", "block_timestamp", "log_index")}
    norm.update((k, _hex_string(obj[k], k))
                for k in ("transaction_hash", "address"))
    data = obj["data"]
    norm["data"] = "0x" if data is None else _hex_string(data, "data")
    m = _CANONICAL_CSV.match(_as_canonical_csv(
        norm, [_hex_string(t, "topic") for t in topics]))
    if m is None:
        raise MalformedRecord("field width or digits")
    return _canonical_fields(m, upper)


def _transfer_fields(topics: Sequence[str]) -> tuple | SkipReason:
    """(from_addr, to_addr, token_id) of a log's topics, or the reason to
    skip it; MalformedRecord for a transfer from and to Null.  A 3-topic
    Transfer (the ERC-20 shape) marks the contract as non-conforming."""
    if topics[0] != TRANSFER_TOPIC:
        return SkipReason.WRONG_TOPIC
    if len(topics) != 4:
        return SkipReason.ARITY
    from_addr = "0x" + topics[1][-40:]
    to_addr = "0x" + topics[2][-40:]
    if from_addr == NULL_ADDRESS and to_addr == NULL_ADDRESS:
        raise MalformedRecord("null-to-null transfer")
    return from_addr, to_addr, int(topics[3], 16)


def _block_matches(lines: list[str]) -> list[re.Match | None]:
    """The `_CANONICAL_CSV` match of each raw line, whose
    `_canonical_fields` are what `parse_log_line` returns for a canonical
    CSV line or a JSON object whose fields are canonical, or None for a
    line that must go through `parse_log_line`.

    The JSON lines of the block are parsed by one `json.loads` of their
    join into an array, and only if that is what parsing each line
    gives: each line holds one `{`, first, and one `}`, last, so every
    brace is a line's own, and the array has one element per line.
    Anything else (a brace inside a string, bad JSON, an int past the
    digit limit) leaves the JSON lines to `parse_log_line`.
    """
    stripped = list(map(str.strip, lines))
    matches = list(map(_CANONICAL_CSV.match, stripped))
    at = [i for i, s in enumerate(stripped) if s.startswith("{")]
    texts = [stripped[i] for i in at]
    text = ",".join(texts)
    if (not at or text.count("{") != len(at) or text.count("}") != len(at)
            or not all(map(str.endswith, texts, repeat("}")))):
        return matches
    try:
        objs = json.loads("[" + text + "]")
    except (ValueError, RecursionError):
        return matches
    if len(objs) == len(at):
        for i, obj in zip(at, objs):
            try:
                matches[i] = _CANONICAL_CSV.match(
                    _as_canonical_csv(obj, _json_topics(obj)))
            except MalformedRecord:
                pass
    return matches


def normalize_stream(
    inputs: Sequence[str],
    output: str,
    *,
    now: int | None = None,
) -> tuple[IngestStats, list[dict]]:
    """Run the full ingest pass over raw log files.

    Survivors are deduplicated on (tx_hash, log_index) keeping the first
    occurrence, restricted to conforming contracts, sorted by
    (timestamp, block_number, log_index) and written as normalized CSV.
    The output is written whole or not at all (see `output.open_output`).
    Returns the stats and one {"contract", "erc721", "log_count"} row per
    contract seen with a Transfer log, sorted by address.

    Memory per transfer is its fields in typed columns plus its dedup
    entry while the files are read; the dedup set is dropped before
    the sort, which orders an index permutation of the columns.
    """
    stats = IngestStats()
    wall = now if now is not None else int(time.time())
    seen: set[tuple[str, int]] = set()      # first-occurrence dedup
    # the survivors' fields in NORMALIZED_HEADER order, one store per
    # column, extended once per block: array('q') for the three sort
    # keys (a list from the first value past 64 bits), lists for the rest
    columns = [array("q"), array("q"), [], array("q"), [], [], [], []]
    arity_logs: Counter = Counter()     # 3-topic Transfer logs per contract
    # one copy of each contract and address string, however many rows
    # hold it
    intern = {}.setdefault
    # an Enum member read through its class costs ten times a local
    wrong_topic, arity = SkipReason.WRONG_TOPIC, SkipReason.ARITY

    for path in inputs:
        # utf-8-sig drops a leading byte-order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            while lines := fh.readlines(_BLOCK_CHARS):
                stats.records_read += len(lines)
                rows = []
                for line, m in zip(lines, _block_matches(lines)):
                    if m is None and (
                            not line.strip()
                            or line.split(",", 1)[0].strip() == "block_number"):
                        stats.records_read -= 1     # no record
                        continue        # a blank line or a CSV header
                    try:
                        (block, ts, tx_hash, log_index, contract, topics,
                         _) = (parse_log_line(line, now=wall) if m is None
                               else _canonical_fields(m, wall))
                        key = tx_hash, log_index
                        if key in seen:
                            stats.skipped_duplicate += 1
                            continue
                        seen.add(key)
                        outcome = _transfer_fields(topics.split("|"))
                    except MalformedRecord:
                        stats.skipped_malformed += 1
                        continue
                    if outcome is wrong_topic:
                        stats.skipped_wrong_topic += 1
                    elif outcome is arity:
                        arity_logs[contract] += 1
                    else:
                        src, dst, token = outcome
                        rows.append((ts, block, tx_hash, log_index,
                                     intern(contract, contract),
                                     intern(src, src), intern(dst, dst),
                                     token))
                if rows:
                    columns = list(map(extended, columns, zip(*rows)))
    # none is read again, and the dedup set is the largest
    del seen, intern

    ts, block, _, log_index, contract, *_ = columns
    # a stable sort on each key in turn, the last key first, orders the
    # survivors by (timestamp, block_number, log_index), ties in input
    # order
    order = [i for i, c in enumerate(contract) if c not in arity_logs]
    for key in (log_index, block, ts):
        order.sort(key=key.__getitem__)
    stats.skipped_non_conforming = (arity_logs.total() + len(contract)
                                    - len(order))
    stats.transfers_emitted = len(order)

    log_counts = Counter(contract)      # Transfer logs per contract
    log_counts.update(arity_logs)
    contracts = [{"contract": c, "erc721": c not in arity_logs,
                  "log_count": log_counts[c]}
                 for c in sorted(log_counts)]
    write_transfers(output, _gathered(columns, order))
    return stats, contracts


def extended(column: array | list, values: Sequence) -> array | list:
    """`column` extended by `values`.  An array('q') stays one until a
    value does not fit in int64 and then becomes a list, which stays a
    list: the one rule for the store of an int column, here and in the
    graph."""
    if type(column) is array:
        try:
            # fromlist takes half the time of extend, and on an
            # OverflowError leaves the array as it was
            column.fromlist(values if type(values) is list else list(values))
            return column
        except OverflowError:
            column = column.tolist()
    column += values
    return column


def _gathered(columns: list, order: list[int]) -> Iterator[tuple]:
    """The rows of `columns` at the indices in `order`, each chunk of
    `write_table`'s `_CHUNK_ROWS` read by one itemgetter call per column."""
    for i in range(0, len(order), _CHUNK_ROWS):
        # one index more, cut off below, keeps the result of a one-row
        # chunk a tuple
        get = itemgetter(*order[i:i + _CHUNK_ROWS], 0)
        yield from zip(*[get(col)[:-1] for col in columns])


def write_transfers(path: str, events: Iterable[TransferEvent]) -> None:
    """Write events as normalized CSV, whole or not at all."""
    write_table(path, NORMALIZED_HEADER, events)


def read_transfers(source) -> Iterator[tuple]:
    """Yield column blocks from a normalized CSV path or open text stream.

    The one normalized-CSV reader.  A block holds the NORMALIZED_HEADER
    columns of up to `_BLOCK_CHARS` characters of lines, with the four
    int columns converted.  Plain lines are split on commas; from the
    first block that `csv.reader` might read differently (a quote, a
    line break other than one at the line's end, a blank line, a row
    of the wrong width, a long line or an int that does not convert) the
    rest goes through `csv.reader`.  A missing header (an empty file), a
    bad header, a row with the wrong column count or a non-numeric field
    is a MalformedRecord naming the line, and so is a row the csv module
    rejects (a field longer than `csv.field_size_limit()`).  A path is
    read as utf-8-sig, so a leading byte-order mark is dropped.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            yield from _read_blocks(fh)
    else:
        yield from _read_blocks(source)


def column_blocks(rows: Iterable[Sequence]) -> Iterator[tuple]:
    """The rows in chunks, each transposed into a tuple of columns: the
    blocks of rows that are not split on commas."""
    rows = iter(rows)
    while chunk := list(islice(rows, _BLOCK_ROWS)):
        yield tuple(zip(*chunk))


def _read_blocks(fh) -> Iterator[tuple]:
    """`read_transfers` of an open text stream."""
    header = fh.readline()
    if header not in _HEADER_LINES:
        yield from column_blocks(_csv_rows(chain([header], fh), 0))
        return
    lines_read = 1
    while lines := fh.readlines(_BLOCK_CHARS):
        block = _split_plain(lines)
        if block is None:
            yield from column_blocks(_csv_rows(chain(lines, fh), lines_read))
            return
        lines_read += len(lines)
        yield block


def _split_plain(lines: list[str]) -> tuple | None:
    """The column block of `lines` split on commas, or None unless that
    is what `csv.reader` gives: no quote, no line past the field size
    limit, 8 fields and one line break (LF or CRLF, at its end) per
    line, and int columns that all convert."""
    text = ",".join(lines)
    limit = csv.field_size_limit()
    # no line is longer than the block that holds it
    if ('"' in text or text.count("\n") != len(lines)
            or not all(map(str.endswith, lines, repeat("\n")))
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    fields = text.split(",")
    # with one LF per line, at its end, and 8 fields per line on average,
    # every line has 8 fields if and only if every 8th field holds an
    # LF; a CR may only come right before an LF
    ends = "".join(fields[7::8])
    if (len(fields) != 8 * len(lines) or ends.count("\n") != len(lines)
            or text.count("\r") != ends.count("\r\n")):
        return None
    try:
        # int() strips the line break that ends each token_id field
        return (list(map(int, fields[0::8])), list(map(int, fields[1::8])),
                fields[2::8], list(map(int, fields[3::8])), fields[4::8],
                fields[5::8], fields[6::8], list(map(int, fields[7::8])))
    except ValueError:
        return None


def _csv_rows(lines: Iterable[str], lines_before: int) -> Iterator[tuple]:
    """Rows of `lines` read by `csv.reader`, blank ones skipped, checked
    and converted; a MalformedRecord counts the `lines_before` lines
    read before `lines`.  With none, the first row is the header."""
    reader = csv.reader(lines)
    try:
        if lines_before == 0 and next(reader, None) != NORMALIZED_HEADER:
            raise MalformedRecord("missing or bad normalized header")
        for row in reader:
            if not row:
                continue
            if len(row) != len(NORMALIZED_HEADER):
                raise MalformedRecord(f"bad normalized row at line "
                                      f"{lines_before + reader.line_num}")
            ts, block, tx_hash, log_index, contract, src, dst, token = row
            try:
                row = (int(ts), int(block), tx_hash, int(log_index),
                       contract, src, dst, int(token))
            except ValueError:
                raise MalformedRecord(f"non-numeric field at line "
                                      f"{lines_before + reader.line_num}"
                                      ) from None
            yield row
    except csv.Error as e:
        raise MalformedRecord(f"bad csv at line "
                              f"{lines_before + reader.line_num}: {e}") from None
