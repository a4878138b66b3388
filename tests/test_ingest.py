import ast
import csv
import io
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import nftgraph
from nftgraph.errors import MalformedRecord
import nftgraph.ingest as ingest
from nftgraph.ingest import (EARLIEST_TIMESTAMP, NORMALIZED_HEADER,
                             NULL_ADDRESS, RAW_CSV_COLUMNS, TRANSFER_TOPIC,
                             SkipReason, TransferEvent, normalize_stream,
                             parse_log_line, read_transfers, write_transfers)
import oracles
from conftest import transfer_rows
from oracles import keccak256

NOW = 1700000000

GOOD_CONTRACT = "0x" + "aa" * 20
ERC20_CONTRACT = "0x" + "bb" * 20
OTHER_TOPIC = "0x" + "11" * 32


def pad_addr(addr20: str) -> str:
    return "0x" + addr20[2:].rjust(64, "0")


def raw_csv_line(block, ts, txh, logi, contract, topics, data="0x"):
    return f"{block},{ts},{txh},{logi},{contract},{'|'.join(topics)},{data}"


def transfer_topics(src, dst, token):
    return [TRANSFER_TOPIC, pad_addr(src), pad_addr(dst), f"0x{token:064x}"]


def test_transfer_topic_is_keccak_of_signature():
    assert TRANSFER_TOPIC == "0x" + keccak256(
        b"Transfer(address,address,uint256)")
    # keccak (not sha3-256): empty-input vector
    assert keccak256(b"").endswith("d85a470")


def test_parse_json_line():
    obj = {
        "block_number": 100, "block_timestamp": 1600000000,
        "transaction_hash": "0x" + "12" * 32, "log_index": 3,
        "address": GOOD_CONTRACT,
        "topics": transfer_topics("0x" + "01" * 20, "0x" + "02" * 20, 7),
        "data": "0x",
    }
    block, ts, _, log_index, _, topics, data = parse_log_line(
        json.dumps(obj), now=NOW)
    assert (block, ts, log_index, data) == (100, 1600000000, 3, "0x")
    assert topics == "|".join(obj["topics"])


def test_parse_csv_line_matches_json():
    topics = transfer_topics("0x" + "01" * 20, "0x" + "02" * 20, 7)
    line = raw_csv_line(100, 1600000000, "0x" + "12" * 32, 3,
                        GOOD_CONTRACT, topics)
    fields = parse_log_line(line, now=NOW)
    assert fields[4] == GOOD_CONTRACT
    assert fields[5] == "|".join(topics)
    assert fields == parse_log_line(_as_json(line), now=NOW)


@pytest.mark.parametrize("mutate", [
    lambda o: o.pop("topics"),
    lambda o: o.update(block_number="abc"),
    lambda o: o.update(block_number=-5),
    lambda o: o.update(block_timestamp=EARLIEST_TIMESTAMP - 1),
    lambda o: o.update(block_timestamp=NOW + 10),
    lambda o: o.update(transaction_hash="0x1234"),
    lambda o: o.update(address="not-hex-at-all!!"),
    lambda o: o.update(topics=[]),
    lambda o: o.update(topics=[OTHER_TOPIC] * 5),
    lambda o: o.update(log_index=True),
    lambda o: o.update(block_number=10.9),
    lambda o: o.update(block_timestamp=1600000000.7),
    lambda o: o.update(log_index=float("inf")),
])
def test_parse_rejects_malformed(mutate):
    obj = {
        "block_number": 1, "block_timestamp": 1600000000,
        "transaction_hash": "0x" + "12" * 32, "log_index": 0,
        "address": GOOD_CONTRACT, "topics": [OTHER_TOPIC], "data": "0x",
    }
    mutate(obj)
    with pytest.raises(MalformedRecord):
        parse_log_line(json.dumps(obj), now=NOW)


def test_parse_rejects_empty_and_bad_csv():
    with pytest.raises(MalformedRecord):
        parse_log_line("   ", now=NOW)
    with pytest.raises(MalformedRecord):
        parse_log_line("1,2,3", now=NOW)
    with pytest.raises(MalformedRecord):
        parse_log_line("{not json", now=NOW)
    with pytest.raises(MalformedRecord, match="bad json"):
        parse_log_line('{"a":' + "[" * 100000, now=NOW)
    with pytest.raises(MalformedRecord, match="bad csv"):
        parse_log_line("1,2," + "a" * 200000 + ",3,4,5,6", now=NOW)


def _decode(topics):
    """`_transfer_fields` of the topics of a raw line holding `topics`."""
    fields = parse_log_line(raw_csv_line(
        1, 1600000000, "0x" + "12" * 32, 0, GOOD_CONTRACT, topics), now=NOW)
    return ingest._transfer_fields(fields[5].split("|"))


def test_decode_conforming_transfer():
    src, dst = "0x" + "01" * 20, "0x" + "02" * 20
    assert _decode(transfer_topics(src, dst, 99)) == (src, dst, 99)


def test_decode_mint_and_burn_flags():
    dst = "0x" + "02" * 20
    assert _decode(transfer_topics(NULL_ADDRESS, dst, 1)) == (
        NULL_ADDRESS, dst, 1)
    assert _decode(transfer_topics(dst, NULL_ADDRESS, 1)) == (
        dst, NULL_ADDRESS, 1)


def test_decode_three_topic_is_arity_skip():
    out = _decode([TRANSFER_TOPIC, pad_addr("0x" + "01" * 20),
                   pad_addr("0x" + "02" * 20)])
    assert out is SkipReason.ARITY


def test_decode_wrong_topic_skip():
    assert _decode([OTHER_TOPIC] * 4) is SkipReason.WRONG_TOPIC


def test_decode_null_to_null_is_malformed():
    with pytest.raises(MalformedRecord):
        _decode(transfer_topics(NULL_ADDRESS, NULL_ADDRESS, 1))


def golden_raw_lines():
    a1, a2 = "0x" + "01" * 20, "0x" + "02" * 20
    tx = lambda n: f"0x{n:064x}"
    lines = [
        # two conforming transfers, deliberately out of time order
        raw_csv_line(11, 1600000600, tx(1), 0, GOOD_CONTRACT,
                     transfer_topics(a1, a2, 5)),
        raw_csv_line(10, 1600000500, tx(2), 1, GOOD_CONTRACT,
                     transfer_topics(NULL_ADDRESS, a1, 5)),
        # exact duplicate of the first (same tx hash + log index)
        raw_csv_line(11, 1600000600, tx(1), 0, GOOD_CONTRACT,
                     transfer_topics(a1, a2, 5)),
        # 3-topic Transfer on another contract: ERC-20 shape
        raw_csv_line(12, 1600000700, tx(3), 0, ERC20_CONTRACT,
                     [TRANSFER_TOPIC, pad_addr(a1), pad_addr(a2)],
                     "0x" + "00" * 31 + "05"),
        # a 4-topic Transfer on that same contract: dropped contract-wide
        raw_csv_line(13, 1600000800, tx(4), 0, ERC20_CONTRACT,
                     transfer_topics(a1, a2, 6)),
        # unrelated event
        raw_csv_line(14, 1600000900, tx(5), 0, GOOD_CONTRACT,
                     [OTHER_TOPIC]),
        # malformed: bad timestamp
        raw_csv_line(15, 99, tx(6), 0, GOOD_CONTRACT,
                     transfer_topics(a1, a2, 7)),
    ]
    return lines


def test_normalize_stream_golden(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "block_number,block_timestamp,transaction_hash,log_index,address,topics,data\n"
        + "\n".join(golden_raw_lines()) + "\n")
    out1, out2 = tmp_path / "norm1.csv", tmp_path / "norm2.csv"
    stats, classes = normalize_stream([str(raw)], str(out1), now=NOW)
    assert stats.records_read == 7
    assert stats.transfers_emitted == 2
    assert stats.skipped_duplicate == 1
    assert stats.skipped_wrong_topic == 1
    # the 3-topic log itself plus the 4-topic log on the same contract
    assert stats.skipped_non_conforming == 2
    assert stats.skipped_malformed == 1
    assert stats.balances()

    by_contract = {c["contract"]: c for c in classes}
    assert by_contract[GOOD_CONTRACT]["erc721"]
    assert not by_contract[ERC20_CONTRACT]["erc721"]

    normalize_stream([str(raw)], str(out2), now=NOW)
    assert out1.read_bytes() == out2.read_bytes()

    events = transfer_rows(str(out1))
    # sorted by timestamp: the mint (earlier) must come first
    assert [e.timestamp for e in events] == [1600000500, 1600000600]
    assert events[0].from_addr == NULL_ADDRESS


def test_normalize_rejects_nothing_on_clean_file(tmp_path):
    a1, a2 = "0x" + "01" * 20, "0x" + "02" * 20
    raw = tmp_path / "raw.csv"
    raw.write_text(raw_csv_line(1, 1600000000, "0x" + "ab" * 32, 0,
                                GOOD_CONTRACT,
                                transfer_topics(a1, a2, 1)) + "\n")
    stats, _ = normalize_stream([str(raw)], str(tmp_path / "n.csv"), now=NOW)
    assert stats.transfers_emitted == stats.records_read == 1


def test_over_long_integer_field_is_malformed(tmp_path):
    # int() and json.loads refuse more than 4300 digits (the interpreter's
    # default limit) with a plain ValueError
    from nftgraph.cli import main
    a1, a2 = "0x" + "01" * 20, "0x" + "02" * 20
    good = raw_csv_line(1, 1600000000, "0x" + "ab" * 32, 0, GOOD_CONTRACT,
                        transfer_topics(a1, a2, 1))
    long_csv = raw_csv_line("9" * 5000, 1600000000, "0x" + "cd" * 32, 0,
                            GOOD_CONTRACT, transfer_topics(a1, a2, 2))
    obj = {"block_number": 0, "block_timestamp": 1600000000,
           "transaction_hash": "0x" + "ef" * 32, "log_index": 0,
           "address": GOOD_CONTRACT, "topics": transfer_topics(a1, a2, 3),
           "data": "0x"}
    long_json = json.dumps(obj).replace('"block_number": 0',
                                        '"block_number": ' + "9" * 5000)
    for line in (long_csv, long_json):
        with pytest.raises(MalformedRecord):
            parse_log_line(line, now=NOW)
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join([good, long_csv, long_json]) + "\n")
    report = tmp_path / "report.json"
    assert main(["ingest", "--input", str(raw), "--output",
                 str(tmp_path / "n.csv"), "--report", str(report)]) == 0
    body = json.loads(report.read_text())
    assert body["stats"]["transfers_emitted"] == 1
    assert body["stats"]["skipped_malformed"] == 2
    assert body["balances"] is True


def test_write_read_round_trip(tmp_path):
    from conftest import make_events
    events = make_events([(1600000000, 0, 1), (1600000100, 1, 2)])
    p = tmp_path / "t.csv"
    write_transfers(str(p), events)
    assert transfer_rows(str(p)) == events


def test_canonical_and_general_csv_parse_agree():
    # the first line is matched as read, the others once normalized
    topics = transfer_topics("0x" + "01" * 20, "0x" + "0a" * 20, 7)
    canon = raw_csv_line(100, 1600000000, "0x" + "1f" * 32, 3,
                         GOOD_CONTRACT, topics, "0x00ff")
    obj = {"block_number": 100, "block_timestamp": 1600000000,
           "transaction_hash": "0x" + "1f" * 32, "log_index": 3,
           "address": GOOD_CONTRACT, "topics": topics, "data": "0x00ff"}
    variants = [
        raw_csv_line(100, 1600000000, "0X" + "1F" * 32, 3,
                     GOOD_CONTRACT.upper(), [t.upper() for t in topics],
                     "00FF"),
        raw_csv_line(" 100", "1600000000 ", "1f" * 32, "+3",
                     GOOD_CONTRACT[2:], ["", *topics, ""], " 0x00ff"),
        '"100",1600000000,' + canon.split(",", 2)[2],
        json.dumps(dict(obj, transaction_hash="0X" + "1F" * 32,
                        address=GOOD_CONTRACT.upper(),
                        topics=[t.upper() for t in topics], data="0x00FF")),
        json.dumps(dict(obj, transaction_hash="1f" * 32,
                        address=GOOD_CONTRACT[2:],
                        topics=[t[2:] for t in topics], data="00ff")),
        json.dumps(dict(obj, transaction_hash=" 0x" + "1f" * 32 + " ",
                        address=" " + GOOD_CONTRACT,
                        topics=[t + " " for t in topics], data=" 0x00ff ")),
        json.dumps(dict(obj, block_number="100",
                        block_timestamp=" 1600000000", log_index="+3")),
    ]
    expected = parse_log_line(canon, now=NOW)
    assert expected[5:] == ("|".join(topics), "0x00ff")
    for line in variants:
        assert parse_log_line(line, now=NOW) == expected
    with pytest.raises(MalformedRecord, match="timestamp out of range"):
        parse_log_line(canon, now=1600000000 - 1)
    bad = canon.replace("|" + topics[1], "|" + topics[1][:-1])
    with pytest.raises(MalformedRecord, match="field width or digits"):
        parse_log_line(bad, now=NOW)


SRC = Path(nftgraph.__file__).parent


_MATCH_READERS = {"group", "groups", "groupdict"}


def _validator_uses(path: Path):
    """Yield (definition, "EARLIEST_TIMESTAMP") for each read of that
    name and (definition, "groups") for each read of a regex match's
    `group`, `groups` or `groupdict`, where definition is the name of
    the top-level function or class that holds it, or "<module>"."""
    for top in ast.parse(path.read_text(), str(path)).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)):
                continue
            name = getattr(node, "id", None) or node.attr
            if name == "EARLIEST_TIMESTAMP":
                yield where, name
            elif isinstance(node, ast.Attribute) and name in _MATCH_READERS:
                yield where, "groups"


def test_one_raw_record_validator():
    # `_canonical_fields` alone turns a `_CANONICAL_CSV` match into
    # fields and checks the timestamp range, so every raw line passes
    # the one `_CANONICAL_CSV` check
    uses = [u for p in sorted(SRC.glob("*.py")) for u in _validator_uses(p)]
    assert sorted(uses) == [("_canonical_fields", "EARLIEST_TIMESTAMP"),
                            ("_canonical_fields", "groups")]


def test_validator_guard_sees_calls_and_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "EARLIEST_TIMESTAMP = 1\nx < EARLIEST_TIMESTAMP\n"
        "def f(m):\n    return m.groups(), m.group(1), m.EARLIEST_TIMESTAMP\n"
        "class C:\n    groups = 1\n    def g(self, m):\n"
        "        m.groups = groups\n        return m.groupdict\n")
    assert sorted(_validator_uses(sample)) == [
        ("<module>", "EARLIEST_TIMESTAMP"), ("C", "groups"),
        ("f", "EARLIEST_TIMESTAMP"), ("f", "groups"), ("f", "groups")]


def _pattern_reads(path: Path):
    """Yield the top-level definition (function, class or "<module>")
    holding each read of `_CANONICAL_CSV`, as a name or an attribute."""
    for top in ast.parse(path.read_text(), str(path)).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                    and (getattr(node, "id", None) or node.attr)
                    == "_CANONICAL_CSV"):
                yield where


def test_one_canonical_fast_path():
    # `_block_matches` matches raw lines and JSON objects as read;
    # `parse_log_line` matches only the fields it has normalized
    reads = [w for p in sorted(SRC.glob("*.py")) for w in _pattern_reads(p)]
    assert sorted(reads) == ["_block_matches", "_block_matches",
                             "parse_log_line"]


def test_fast_path_guard_sees_names_and_attributes(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "_CANONICAL_CSV = 1\nx = _CANONICAL_CSV\n"
        "def f(s):\n    return _CANONICAL_CSV.match(s), m._CANONICAL_CSV\n"
        "class C:\n    def g(self):\n        _CANONICAL_CSV = 2\n"
        "        self._CANONICAL_CSV = 3\n        return _CANONICAL_CSV\n")
    assert sorted(_pattern_reads(sample)) == ["<module>", "C", "f", "f"]


def _as_json(line):
    obj = dict(zip(RAW_CSV_COLUMNS, line.split(",")))
    return json.dumps(dict(obj, topics=obj["topics"].split("|")))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_byte_order_mark_loses_no_record(tmp_path, fmt):
    lines = golden_raw_lines()
    if fmt == "csv":
        lines = [",".join(RAW_CSV_COLUMNS), *lines]
    else:
        lines = [_as_json(line) for line in lines]
    text = "\n".join(lines) + "\n"
    results = []
    for bom in ("", "\ufeff"):
        raw = tmp_path / f"raw{len(bom)}.{fmt}"
        raw.write_text(bom + text, encoding="utf-8")
        out = tmp_path / f"norm{len(bom)}.csv"
        stats, contracts = normalize_stream([str(raw)], str(out), now=NOW)
        results.append((stats.as_dict(), contracts, out.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0]["transfers_emitted"] == 2


def test_write_transfers_quotes_like_csv_writer(tmp_path):
    import csv
    import io

    from nftgraph.ingest import NORMALIZED_HEADER, TransferEvent
    plain = TransferEvent(5, 6, "0x" + "cd" * 32, 7, GOOD_CONTRACT,
                          NULL_ADDRESS, "0x" + "02" * 20, 10 ** 70)
    # one field needing quotes per row, so each check is exercised alone
    events = [plain, plain._replace(contract="a,b"),
              plain._replace(from_addr='q"q'), plain._replace(to_addr="x\ny"),
              plain._replace(tx_hash="g\rh")]
    p = tmp_path / "t.csv"
    write_transfers(str(p), events)
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(NORMALIZED_HEADER)
    for e in events:
        w.writerow([e.timestamp, e.block_number, e.tx_hash, e.log_index,
                    e.contract, e.from_addr, e.to_addr, str(e.token_id)])
    assert p.read_bytes().decode() == want.getvalue()
    assert transfer_rows(str(p)) == events


@pytest.mark.parametrize("field,value", [
    ("contract", "a,b"), ("from_addr", 'q"q'), ("to_addr", "x\ny"),
    ("tx_hash", "g\rh")], ids=["comma", "quote", "lf", "cr"])
def test_write_transfers_quotes_a_row_after_plain_blocks(tmp_path, field,
                                                         value):
    """A row csv.writer quotes, after blocks of rows formatted directly,
    is written as csv.writer writes it."""
    events = [TransferEvent(1600000000 + i, 6, f"0x{i:064x}", 7,
                            GOOD_CONTRACT, NULL_ADDRESS, "0x" + "02" * 20,
                            10 ** 70 + i) for i in range(601)]
    events[600] = events[600]._replace(**{field: value})
    p = tmp_path / "t.csv"
    write_transfers(str(p), events)
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(NORMALIZED_HEADER)
    w.writerows(events)
    assert p.read_bytes() == want.getvalue().encode()
    assert transfer_rows(str(p)) == events


def test_read_transfers_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(MalformedRecord):
        list(read_transfers(str(p)))


# -- fuzzing -----------------------------------------------------------

def _check_line(line):
    """parse_log_line gives seven fields or raises MalformedRecord;
    `_transfer_fields` of their topics gives (from, to, token id) or a
    SkipReason or raises MalformedRecord.  Anything else escaping would
    abort a whole ingest."""
    try:
        fields = parse_log_line(line, now=NOW)
    except MalformedRecord:
        return
    assert list(map(type, fields)) == [int, int, str, int, str, str, str]
    try:
        out = ingest._transfer_fields(fields[5].split("|"))
    except MalformedRecord:
        return
    assert isinstance(out, SkipReason) or list(map(type, out)) == [
        str, str, int]


_CANON_TOPICS = transfer_topics("0x" + "01" * 20, "0x" + "0a" * 20, 7)
_CANON_FIELDS = ["100", "1600000000", "0x" + "1f" * 32, "3", GOOD_CONTRACT,
                 "|".join(_CANON_TOPICS), "0x00ff"]
_CANON_LINE = ",".join(_CANON_FIELDS)
_CANON_OBJ = {"block_number": 100, "block_timestamp": 1600000000,
              "transaction_hash": "0x" + "1f" * 32, "log_index": 3,
              "address": GOOD_CONTRACT, "topics": _CANON_TOPICS,
              "data": "0x00ff"}

# reading a file splits lines at \n and \r, so no line holds either
_line_text = st.text(st.characters(exclude_characters="\n\r"))

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10)


@st.composite
def _spliced_csv(draw):
    i = draw(st.integers(0, len(_CANON_LINE)))
    j = draw(st.integers(i, len(_CANON_LINE)))
    return _CANON_LINE[:i] + draw(_line_text) + _CANON_LINE[j:]


@st.composite
def _json_field_replaced(draw):
    obj = dict(_CANON_OBJ)
    obj[draw(st.sampled_from(RAW_CSV_COLUMNS))] = draw(_json_values)
    return json.dumps(obj)


@st.composite
def _digit_run_field(draw):
    """The canonical CSV or JSON line with one field replaced by a run of
    up to 5000 digits, past the interpreter's int() digit limit."""
    n = draw(st.integers(1, 5000))
    run = (draw(st.text("0123456789", min_size=1, max_size=8)) * n)[:n]
    k = draw(st.integers(0, len(RAW_CSV_COLUMNS) - 1))
    if draw(st.booleans()):
        fields = list(_CANON_FIELDS)
        fields[k] = run
        return ",".join(fields)
    obj = dict(_CANON_OBJ, **{RAW_CSV_COLUMNS[k]: "@"})
    return json.dumps(obj).replace('"@"', run)


@pytest.mark.parametrize("lines", [_line_text, _spliced_csv(),
                                   _json_field_replaced(),
                                   _digit_run_field()],
                         ids=["text", "spliced_csv", "json_field",
                              "digit_run"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_parse_and_decode_raise_only_malformed(lines, data):
    _check_line(data.draw(lines))


_TOPIC_VALUES = st.one_of(
    st.sampled_from(_CANON_TOPICS), st.just("|".join(_CANON_TOPICS[:2])),
    st.just(_CANON_TOPICS[1].upper()), st.just(_CANON_TOPICS[1][2:]),
    st.just(" " + _CANON_TOPICS[1]), st.just(""), st.just("|"),
    st.none(), st.integers(), st.booleans())

_FIELD_VALUES = st.one_of(
    _json_values, st.integers(-5, 2 * NOW), st.floats(0, 2 * NOW),
    st.sampled_from(["100", "007", " 100", "+3", "1_0", "0x" + "1f" * 32,
                     "0X" + "1F" * 32, "1f" * 32, GOOD_CONTRACT,
                     GOOD_CONTRACT.upper(), "0x" + "aa" * 19, "0x00FF",
                     "0x0", "00ff", "", "0x", "1,2", "1|2", "\u0661"]))


@st.composite
def _json_near_canonical(draw):
    """The canonical JSON object with some fields replaced by values on
    both sides of what the canonical line pattern accepts."""
    obj = dict(_CANON_OBJ)
    for key in draw(st.sets(st.sampled_from(RAW_CSV_COLUMNS), max_size=2)):
        if key == "topics":
            obj[key] = draw(st.one_of(
                _merged_topics(), st.lists(_TOPIC_VALUES, max_size=5),
                _json_values))
        else:
            obj[key] = draw(_FIELD_VALUES)
    return json.dumps(obj)


@st.composite
def _merged_topics(draw):
    """The canonical topics with some neighbours joined by `|`."""
    topics = [_CANON_TOPICS[0]]
    for t in _CANON_TOPICS[1:]:
        if draw(st.booleans()):
            topics[-1] += "|" + t
        else:
            topics.append(t)
    return topics


@pytest.mark.parametrize("lines", [_line_text, _spliced_csv(),
                                   _json_field_replaced(),
                                   _json_near_canonical()],
                         ids=["text", "spliced_csv", "json_field",
                              "json_near_canonical"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_parse_log_line_equals_oracle(lines, data):
    """The canonical-line fast paths, for CSV and for JSON, parse a line
    exactly as normalizing each field does."""
    line = data.draw(lines)
    want = oracles.parse_log_line(line, NOW, EARLIEST_TIMESTAMP)
    try:
        got = tuple(parse_log_line(line, now=NOW))
    except MalformedRecord:
        got = None
    assert got == want


def test_json_fast_path_guards():
    """A JSON line that would read as canonical CSV once formatted, but
    whose fields say otherwise, is parsed by the field checks."""
    canon = parse_log_line(json.dumps(_CANON_OBJ), now=NOW)
    assert canon == parse_log_line(_CANON_LINE, now=NOW)
    as_str = dict(_CANON_OBJ, block_number="100", log_index="3")
    assert parse_log_line(json.dumps(as_str), now=NOW) == canon
    for bad in ({"topics": ["|".join(_CANON_TOPICS)]},    # one topic, 4 parts
                {"topics": "|".join(_CANON_TOPICS)},      # not a list
                {"log_index": True}, {"block_number": [100]}):
        with pytest.raises(MalformedRecord):
            parse_log_line(json.dumps(dict(_CANON_OBJ, **bad)), now=NOW)
    assert parse_log_line(json.dumps(dict(_CANON_OBJ, log_index=3.0)),
                          now=NOW) == canon
    assert parse_log_line(json.dumps(dict(_CANON_OBJ, data=None)),
                          now=NOW)[6] == "0x"


def _read_or_error(read, text, newline):
    """The rows `read` gives for `text` as a text stream with the given
    `newline`, or the message of the MalformedRecord it raises."""
    stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8",
                              newline=newline)
    try:
        return list(read(stream))
    except MalformedRecord as e:
        return str(e)


def _check_normalized(text, newline=""):
    """read_transfers gives the rows of the per-row csv.reader oracle,
    or raises its MalformedRecord, line number included, from a stream
    that ends lines as `newline` says."""
    assert (_read_or_error(transfer_rows, text, newline)
            == _read_or_error(oracles.read_transfers, text, newline))


# the stream newline modes: "\n" and "\r\n" leave a lone CR, and "\r\n"
# a lone LF, inside a line
_NEWLINES = st.sampled_from(["", "\n", "\r\n", None])


_NORM_FIELDS = ["1600000000", "100", "0x" + "1f" * 32, "3", GOOD_CONTRACT,
                NULL_ADDRESS, "0x" + "0a" * 20, "7"]
_NORM_TEXT = (",".join(NORMALIZED_HEADER) + "\r\n"
              + ",".join(_NORM_FIELDS) + "\r\n")


@st.composite
def _spliced_normalized(draw):
    i = draw(st.integers(0, len(_NORM_TEXT)))
    j = draw(st.integers(i, len(_NORM_TEXT)))
    return _NORM_TEXT[:i] + draw(st.text()) + _NORM_TEXT[j:]


@st.composite
def _over_long_normalized_field(draw):
    """The valid file with one field replaced by a 5000-digit number or
    by a 200000-character run, past csv.field_size_limit()."""
    fields = list(_NORM_FIELDS)
    k = draw(st.integers(0, len(fields) - 1))
    fields[k] = draw(st.sampled_from(["9" * 5000, "a" * 200000]))
    return ",".join(NORMALIZED_HEADER) + "\n" + ",".join(fields) + "\n"


def test_read_transfers_accepts_the_fuzz_seed_file():
    (event,) = transfer_rows(io.StringIO(_NORM_TEXT, newline=""))
    assert event.token_id == 7 and event.from_addr == NULL_ADDRESS


@pytest.mark.parametrize("files", [st.text(), _spliced_normalized(),
                                   _over_long_normalized_field()],
                         ids=["text", "spliced", "over_long"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_read_transfers_raises_only_malformed(files, data):
    _check_normalized(data.draw(files), data.draw(_NEWLINES))


_PLAIN_ROW = ",".join(_NORM_FIELDS)
_HEADER = ",".join(NORMALIZED_HEADER)

# lines csv.reader may read differently from a split on commas
_ODD_LINES = [
    *(_PLAIN_ROW.replace(GOOD_CONTRACT, f'"{c}"') + "\n"
      for c in ("a,b", 'q""q', "x\ny", "x\r\ny", "x\ry")),
    "\n", "\r\n", _PLAIN_ROW + "\r",
    _PLAIN_ROW.rsplit(",", 1)[0] + "\n", _PLAIN_ROW + ",9\n",
    _PLAIN_ROW.replace("1600000000", "16OO000000") + "\n",
    _PLAIN_ROW.replace("1600000000", "9" * 5000) + "\n",
    _PLAIN_ROW.replace(GOOD_CONTRACT, "a" * 200000) + "\n",
    _PLAIN_ROW.replace(GOOD_CONTRACT, 'a"b') + "\n",
    _PLAIN_ROW.replace(GOOD_CONTRACT, "a\x00b\u2028c") + "\n",
    _PLAIN_ROW.replace(",3,", ", 3 ,") + "\n",
    *(_PLAIN_ROW.replace(GOOD_CONTRACT, c) + "\n" for c in ("x\ny", "x\ry")),
    _PLAIN_ROW + "\r\r\n", _PLAIN_ROW + "\n ",
    _PLAIN_ROW + "," + _PLAIN_ROW + "\n",
]

_BAD_HEADERS = ['"timestamp"' + _HEADER[9:] + "\n", _HEADER + "\r",
                _HEADER, "a,b,c\n", "\n" + _HEADER + "\n", ""]


def _plain_line(i: int, end: str) -> str:
    """A valid row of about 217 characters, different for each i."""
    fields = list(_NORM_FIELDS)
    fields[0], fields[5], fields[7] = (str(1600000000 + i),
                                       f"0x{i:040x}", str(i))
    return ",".join(fields) + end


@st.composite
def _plain_blocks_then(draw, odd):
    """Plain lines that fill one or more of read_transfers' 16 KiB
    blocks, then `odd` text and a few more plain lines.  Some files
    have a bad or quoted header instead; the final line break may be
    missing."""
    header = (draw(st.sampled_from(_BAD_HEADERS))
              if draw(st.integers(0, 7)) == 0 else _HEADER + "\n")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    head, tail = draw(st.integers(320, 1000)), draw(st.integers(0, 30))
    text = (header + "".join(_plain_line(i, end) for i in range(head))
            + draw(odd)
            + "".join(_plain_line(i, end) for i in range(head, head + tail)))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@pytest.mark.parametrize("odd", [
    st.lists(st.sampled_from(_ODD_LINES), min_size=1, max_size=3).map("".join),
    st.text(), _spliced_normalized(), _over_long_normalized_field()],
    ids=["odd_lines", "text", "spliced", "over_long"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_read_transfers_equals_oracle_after_plain_blocks(odd, data):
    _check_normalized(data.draw(_plain_blocks_then(odd)), data.draw(_NEWLINES))


@pytest.mark.parametrize("newline", ["", "\n", "\r\n", None],
                         ids=["universal", "lf", "crlf", "translated"])
@pytest.mark.parametrize("odd", range(len(_ODD_LINES)))
def test_read_transfers_equals_oracle_on_each_odd_line(odd, newline):
    """One odd line after plain blocks, followed by more lines or last
    and unterminated, so that each test of a plain block is needed."""
    head = _HEADER + "\r\n" + "".join(_plain_line(i, "\r\n")
                                      for i in range(400))
    _check_normalized(head + _ODD_LINES[odd] + _plain_line(400, "\r\n"),
                      newline)
    _check_normalized(head + _ODD_LINES[odd].rstrip("\r\n"), newline)


def test_read_transfers_names_the_line_after_plain_blocks(tmp_path):
    """Lines split as plain blocks count towards the line that csv.reader
    names, and a quoted line break counts as a line."""
    lines = [_HEADER + "\r\n", *(_plain_line(i, "\r\n") for i in range(1000))]
    lines[701] = _PLAIN_ROW.replace(GOOD_CONTRACT, '"x\r\ny"') + "\r\n"
    p = tmp_path / "n.csv"
    p.write_text("".join(lines), newline="")
    rows = transfer_rows(str(p))
    assert len(rows) == 1000 and rows[700].contract == "x\r\ny"
    assert rows[999][:2] == (1600000999, 100) and rows[999].token_id == 999
    lines[901] = _PLAIN_ROW + ",9\r\n"       # line 903 of the file
    p.write_text("".join(lines), newline="")
    with pytest.raises(MalformedRecord,
                       match="^bad normalized row at line 903$"):
        transfer_rows(str(p))


# -- raw files read in line blocks ---------------------------------------

_ADDRS = [NULL_ADDRESS, *(f"0x{k:040x}" for k in range(1, 6))]


def _raw_obj(rnd, i):
    """Raw log i: a transfer among a few addresses, with ties on the sort
    key, or one of the logs that ingest skips."""
    src, dst = rnd.sample(_ADDRS, 2)
    obj = {"block_number": 100 + i % 3, "block_timestamp": 1600000000 + i % 7,
           "transaction_hash": f"0x{i:064x}", "log_index": i % 2,
           "address": GOOD_CONTRACT, "topics": transfer_topics(src, dst, i % 5),
           "data": "0x"}
    kind = rnd.randrange(12)
    if kind == 0:
        obj["topics"][0] = OTHER_TOPIC
    elif kind == 1:         # the ERC-20 shape: its contract is dropped
        obj.update(address=ERC20_CONTRACT, topics=obj["topics"][:3])
    elif kind == 2:
        obj["address"] = ERC20_CONTRACT
    elif kind == 3:
        obj["topics"] = transfer_topics(NULL_ADDRESS, NULL_ADDRESS, 1)
    elif kind == 4:
        obj["block_timestamp"] = rnd.choice([EARLIEST_TIMESTAMP - 1, NOW + 1])
    return obj


def _csv_of(obj):
    return raw_csv_line(*(obj[k] for k in RAW_CSV_COLUMNS))


def _raw_text(rnd, obj, p_json):
    """`obj` as a canonical CSV or JSON line, or now and then as one
    that only the field-by-field parse reads."""
    if rnd.random() < p_json:
        if rnd.random() < 0.1:
            return json.dumps(dict(obj, address=obj["address"].upper()))
        return json.dumps(obj)
    return _csv_of(obj).upper() if rnd.random() < 0.1 else _csv_of(obj)


@st.composite
def _raw_files(draw):
    """Two or three raw files, each spanning several of normalize_stream's
    16 KiB blocks: CSV and JSON lines, canonical or not, with the logs
    ingest skips, duplicates within a block, across blocks and across
    files, headers, blank lines, a byte-order mark and lines drawn from
    the fuzz strategies."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    odd = st.one_of(_line_text, _spliced_csv(), _json_field_replaced(),
                    _json_near_canonical(), _digit_run_field())
    objs, files = [], []
    for _ in range(draw(st.integers(2, 3))):
        p_json = rnd.choice([0.0, 0.5, 1.0])
        lines = []
        for _ in range(rnd.randint(100, 180)):
            r = rnd.random()
            if r < 0.03:
                lines.append(rnd.choice([",".join(RAW_CSV_COLUMNS),
                                         " block_number ,x", "", "  \t"]))
            elif r < 0.12 and objs:
                pool = objs[-3:] if rnd.random() < 0.5 else objs
                lines.append(_raw_text(rnd, rnd.choice(pool), p_json))
            else:
                objs.append(_raw_obj(rnd, len(objs)))
                lines.append(_raw_text(rnd, objs[-1], p_json))
        for line in draw(st.lists(odd, max_size=4)):
            # a lone surrogate cannot be written as UTF-8
            lines.insert(rnd.randrange(len(lines) + 1),
                         line.encode(errors="replace").decode())
        text = rnd.choice(["", "\ufeff"]) + rnd.choice(["\n", "\r\n"]).join(lines)
        files.append(text + rnd.choice(["", "\n"]))
    return files


def _normalize_both(texts):
    """normalize_stream's (stats, contract rows, output text) and the
    per-line oracle's for raw files holding `texts`."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, text in enumerate(texts):
            paths.append(str(Path(tmp, f"raw{k}")))
            Path(paths[-1]).write_bytes(text.encode())
        out = Path(tmp, "norm.csv")
        stats, contracts = normalize_stream(paths, str(out), now=NOW)
        got = stats, contracts, out.read_bytes().decode()
        return got, oracles.normalize_stream(paths, NOW)


@settings(max_examples=100, deadline=None)
@given(texts=_raw_files())
def test_fuzz_normalize_stream_equals_per_line_oracle(texts):
    got, want = _normalize_both(texts)
    assert got == want


_JSON_A = json.dumps(_CANON_OBJ)
_JSON_B = json.dumps(dict(_CANON_OBJ, log_index=4))


@pytest.mark.parametrize("odd", [
    ['{"a": [{}', '{}]}'],                  # one object split over two lines
    [_JSON_A + " " + _JSON_B],              # two objects on a line
    [_JSON_A + "," + _JSON_B, '{"a": [{}', '{}]}'],
    ['{"a": "x}', '{", "b": 1}'],           # braces inside strings
    ['{"a": "x}', '{", "b": 1}', _JSON_B + ', "s"'],
    [json.dumps(dict(_CANON_OBJ, log_index=5, note="{}"))],
], ids=["split", "two_on_a_line", "two_and_split", "brace_in_string",
        "brace_in_string_and_trailing_value", "valid_with_braces_in_string"])
def test_json_block_guard_equals_oracle(odd):
    """Lines that one json.loads of the block's lines joined into an
    array could read as other objects than each line's own are read as
    each line alone reads."""
    around = [json.dumps(dict(_CANON_OBJ, log_index=10 + k)) for k in range(6)]
    got, want = _normalize_both(["\n".join(around[:3] + odd + around[3:])])
    assert got == want


def test_number_topic_in_a_json_block_is_the_one_malformed_line():
    """A block of JSON lines that parses as one array: the object with a
    number for a topic is skipped as malformed, every other line is
    emitted, as each line alone reads."""
    lines = [json.dumps(dict(_CANON_OBJ, log_index=10 + k)) for k in range(6)]
    lines[3] = json.dumps(dict(_CANON_OBJ, log_index=13,
                               topics=[*_CANON_TOPICS[:2], 123,
                                       *_CANON_TOPICS[3:]]))
    got, want = _normalize_both(["\n".join(lines)])
    assert got == want
    assert (got[0].skipped_malformed, got[0].transfers_emitted) == (1, 5)


def test_only_non_canonical_lines_reach_parse_log_line(tmp_path,
                                                       monkeypatch):
    """Canonical CSV lines and `json.dumps` objects, skipped ones
    included, are read a block at a time: parse_log_line sees only the
    other lines, and no header or blank line."""
    rnd = random.Random(1)
    objs = [_raw_obj(rnd, i) for i in range(300)]
    lines = [json.dumps(o) if i > 200 or i > 100 and i % 2 else _csv_of(o)
             for i, o in enumerate(objs)]
    odd = [_csv_of(_raw_obj(rnd, 900)).upper(),
           json.dumps(dict(_CANON_OBJ, address=GOOD_CONTRACT.upper())),
           "1,2,3"]
    for at, line in zip((50, 150, 250), odd):
        lines.insert(at, line)
    lines[100:100] = [",".join(RAW_CSV_COLUMNS), ""]
    raw = tmp_path / "raw.txt"
    raw.write_text("\n".join(lines) + "\n")
    calls = []
    parse = ingest.parse_log_line
    monkeypatch.setattr(ingest, "parse_log_line", lambda line, **kw: (
        calls.append(line.rstrip("\n")) or parse(line, **kw)))
    stats, _ = normalize_stream([str(raw)], str(tmp_path / "n.csv"), now=NOW)
    assert calls == odd
    assert stats.records_read == 303 and stats.transfers_emitted > 150


def test_sort_keys_past_64_bits_and_ties_across_files(tmp_path):
    """Block numbers and log indices past 2**63 (the int columns fall
    back to lists, in the first block and in a later one), survivors
    with one (timestamp, block_number, log_index) in both files, which
    keep their input order, and a tx hash's later logs and their
    duplicates: byte for byte the per-line oracle."""
    big = 2 ** 63
    rnd = random.Random(5)
    files = []
    for k in range(2):
        lines = []
        for i in range(150):
            src, dst = rnd.sample(_ADDRS, 2)
            block = 100 + i % 4
            log_index = i % 3
            if k == 0 and i == 3:
                block = big + 7             # in the first block
            if k == 1 and i == 120:
                log_index = big * 2 ** 64   # in a later block
            contract = ERC20_CONTRACT if i == 90 else GOOD_CONTRACT
            lines.append(raw_csv_line(
                block, 1600000000 + i % 5, f"0x{k:02x}{i:062x}", log_index,
                contract, transfer_topics(src, dst, i)))
        if k == 1:      # the ERC-20 shape drops ERC20_CONTRACT's rows
            lines.append(raw_csv_line(
                5, 1600000000, "0x" + "ee" * 32, 0, ERC20_CONTRACT,
                transfer_topics(_ADDRS[1], _ADDRS[2], 1)[:3]))
            # later logs of the first file's tx hashes, then a duplicate
            # of a later and of a first log
            later = [raw_csv_line(
                200, 1600000009, f"0x00{i:062x}", 7, GOOD_CONTRACT,
                transfer_topics(_ADDRS[1], _ADDRS[2], 1000 + i))
                for i in (10, 11)]
            lines += later + [later[0], files[0].split("\n")[12]]
        files.append("\n".join(lines) + "\n")
    got, want = _normalize_both(files)
    assert got == want
    rows = got[2].splitlines()[1:]
    assert got[0].transfers_emitted == len(rows) == 300
    assert got[0].skipped_duplicate == 2
    keys = [tuple(map(int, r.split(",")[:2])) + (int(r.split(",")[3]),)
            for r in rows]
    assert (1600000003, big + 7, 0) in keys
    assert (1600000000, 100, big * 2 ** 64) in keys
    # a key in both files: the first file's row first
    ties = [r.split(",")[2][:4] for r, key in zip(rows, keys)
            if key == (1600000000, 100, 0)]
    assert ties == ["0x00"] * 3 + ["0x01"] * 2


def test_normalize_stream_memory_per_transfer(tmp_path):
    """normalize_stream's peak of traced allocations on 20k uniform
    transfers stays below 500 B per transfer: typed columns and one
    (tx_hash, log_index) dedup entry each, about 475 B, since at 20k
    entries the dedup set's table has just grown fourfold (639 B with
    one tuple per survivor)."""
    from nftgraph.fixture import generate, write_raw_csv
    rows, _ = generate("uniform", 1, 20_000)
    raw = tmp_path / "raw.csv"
    write_raw_csv(str(raw), rows)
    del rows
    tracemalloc.start()
    try:
        stats, _ = normalize_stream([str(raw)], str(tmp_path / "n.csv"),
                                    now=NOW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.transfers_emitted == 20_000
    assert peak / stats.transfers_emitted < 500
