"""Output files are written whole or not at all, through one module."""

import ast
import builtins
import csv
import errno
import io
import os
import random
import stat
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_of, random_events

from nftgraph import cache, output
from nftgraph.fixture import generate, write_raw_csv
from nftgraph.graph import TemporalGraph
from nftgraph.ingest import normalize_stream
from nftgraph.mlbench import export_features
from nftgraph.output import open_output, write_rows, write_table

SRC = Path(output.__file__).parent


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class _WatchedFile:
    """A file that calls `on_write(data)` before each write."""

    def __init__(self, fh, on_write):
        self._fh, self._on_write = fh, on_write

    def write(self, data):
        self._on_write(data)
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _watch_writes(monkeypatch, on_write) -> None:
    monkeypatch.setattr(
        output, "open",
        lambda *a, **kw: _WatchedFile(builtins.open(*a, **kw), on_write),
        raising=False)


@pytest.fixture
def disk_full(monkeypatch):
    """Make every output file fail after `nbytes` bytes written in total."""
    def arm(nbytes: int) -> None:
        budget = [nbytes]

        def spend(data):
            budget[0] -= len(data)
            if budget[0] < 0:
                raise OSError(errno.ENOSPC, "No space left on device")

        _watch_writes(monkeypatch, spend)
    return arm


@pytest.fixture
def write_sizes(monkeypatch):
    """The length of every write to an output file, in order."""
    sizes: list[int] = []
    _watch_writes(monkeypatch, lambda data: sizes.append(len(data)))
    return sizes


def _rows_then(exc):
    yield ["1", "x"]
    yield ["2", "y"]
    raise exc


@pytest.mark.parametrize("exc", [OSError("disk gone"), KeyboardInterrupt()])
@pytest.mark.parametrize("old", [None, b"old,content\r\n"])
def test_failed_write_leaves_target_as_it_was(tmp_path, exc, old):
    target = tmp_path / "out.csv"
    if old is not None:
        target.write_bytes(old)
    with pytest.raises(type(exc)):
        write_table(str(target), ["id", "name"], _rows_then(exc))
    assert _tree(tmp_path) == ({} if old is None else {"out.csv": old})


def test_write_replaces_existing_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("a much longer old content that must not linger\n")
    write_table(str(target), ["id"], [[1], [2]])
    assert _tree(tmp_path) == {"out.csv": b"id\r\n1\r\n2\r\n"}


def test_new_file_permissions_follow_umask(tmp_path):
    old_mask = os.umask(0o027)
    try:
        write_table(str(tmp_path / "out.csv"), ["id"], [[1]])
    finally:
        os.umask(old_mask)
    assert stat.S_IMODE(os.stat(tmp_path / "out.csv").st_mode) == 0o640


def test_symlink_is_kept_and_its_file_updated(tmp_path):
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_table(str(link), ["id"], [[7]])
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == b"id\r\n7\r\n"
    assert sorted(os.listdir(tmp_path / "data")) == ["real.csv"]
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"]


def test_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_table(str(fifo), ["id"], [[1], [2]])
        assert os.read(reader, 4096) == b"id\r\n1\r\n2\r\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.parametrize("path", [None, "-"])
def test_dash_and_none_mean_stdout_left_open(capsys, path):
    with open_output(path) as fh:
        assert fh is sys.stdout
        fh.write("hello\n")
    assert not sys.stdout.closed
    assert capsys.readouterr().out == "hello\n"


@pytest.mark.parametrize("old", [None, b"old transfers\n"])
def test_failed_normalize_stream_leaves_output_as_it_was(
        tmp_path, disk_full, old):
    rows, _ledger = generate("uniform", 3, 200)
    write_raw_csv(str(tmp_path / "raw.csv"), rows)
    raw = (tmp_path / "raw.csv").read_bytes()
    target = tmp_path / "norm.csv"
    if old is not None:
        target.write_bytes(old)
    disk_full(2000)
    with pytest.raises(OSError):
        normalize_stream([str(tmp_path / "raw.csv")], str(target))
    expected = {"raw.csv": raw}
    if old is not None:
        expected["norm.csv"] = old
    assert _tree(tmp_path) == expected


@pytest.mark.parametrize("old", [None, b"LGLB old cache"])
def test_failed_cache_save_leaves_cache_as_it_was(tmp_path, disk_full, old):
    g = graph_of([(1600000000 + i, i % 7, (i * 3) % 11) for i in range(300)])
    target = tmp_path / "g.lglb"
    if old is not None:
        target.write_bytes(old)
    disk_full(500)
    with pytest.raises(OSError):
        cache.save(g, str(target))
    assert _tree(tmp_path) == ({} if old is None else {"g.lglb": old})


def test_failed_export_leaves_each_file_whole(tmp_path, disk_full):
    g = TemporalGraph.build(random_events(random.Random(5), max_nodes=40,
                                          max_edges=400))

    def export(out, task):
        export_features(g, str(out), granularity="month",
                        exclude_null=True, task=task)
        return _tree(out)

    link = export(tmp_path / "link", "link")
    node = export(tmp_path / "node", "node")
    out = tmp_path / "out"
    export(out, "link")
    disk_full(sum(map(len, node.values())) // 2)
    with pytest.raises(OSError):
        export_features(g, str(out), granularity="month",
                        exclude_null=True, task="node")
    after = _tree(out)
    assert after.keys() == link.keys()
    assert all(data in (link[rel], node[rel]) for rel, data in after.items())
    assert any(data != link[rel] for rel, data in after.items())
    assert any(data != node[rel] for rel, data in after.items())


# -- the chunked writers ----------------------------------------------

HEADER = ["id", "hash", "n"]


def _table(n: int) -> list[tuple]:
    return [(i, f"0x{i:040x}", -i) for i in range(n)]


def _csv_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _write(kind: str, path, rows):
    """Write `_table` rows with `write_rows` or `write_table`."""
    if kind == "rows":
        write_rows(path, ",".join(HEADER),
                   ("%d,%s,%d\r\n" % row for row in rows))
    else:
        write_table(path, HEADER, rows)


@pytest.mark.parametrize("kind", ["rows", "table"])
@pytest.mark.parametrize("source", ["list", "generator"])
@pytest.mark.parametrize("n", [0, 512, 513, 1025])
def test_chunked_writers_write_csv_writer_bytes_a_chunk_at_a_time(
        tmp_path, write_sizes, kind, source, n):
    rows = _table(n)
    _write(kind, str(tmp_path / "out.csv"),
           rows if source == "list" else (row for row in rows))
    text = _csv_text(HEADER, rows)
    assert (tmp_path / "out.csv").read_bytes() == text.encode()
    # the header, then one write per chunk of at most 512 rows
    head, *lines = text.splitlines(keepends=True)
    assert write_sizes == [len(head), *(sum(map(len, lines[i:i + 512]))
                                        for i in range(0, n, 512))]


@pytest.mark.parametrize("kind", ["rows", "table"])
@pytest.mark.parametrize("n", [0, 512, 513, 1025])
def test_chunked_writers_write_to_stdout(capsys, kind, n):
    capsys.readouterr()
    _write(kind, None, _table(n))
    assert capsys.readouterr().out == _csv_text(HEADER, _table(n))
    assert not sys.stdout.closed


@pytest.mark.parametrize("kind", ["rows", "table"])
def test_chunked_writer_failing_after_a_chunk_leaves_target(
        tmp_path, write_sizes, kind):
    target = tmp_path / "out.csv"
    old = b"old,content\r\n"
    target.write_bytes(old)

    def rows():
        yield from _table(600)
        raise OSError("source gone")

    with pytest.raises(OSError, match="source gone"):
        _write(kind, str(target), rows())
    assert len(write_sizes) == 2        # the header and the first chunk
    assert _tree(tmp_path) == {"out.csv": old}


_CLEAN_TEXT = st.text(alphabet="0xab", max_size=6)
_ANY_TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", "0", "x"]),
                    max_size=6)


@st.composite
def _tables(draw):
    """Rows of one width with ints, floats (nan, infinities, -0.0 and
    subnormals included), bools and plain text, mixed with rows of 2-8
    fields that may hold a delimiter, a quote or a line break."""
    width = draw(st.integers(2, 8))
    clean = st.lists(st.one_of(st.integers(), st.floats(), st.booleans(),
                               _CLEAN_TEXT),
                     min_size=width, max_size=width)
    dirty = st.lists(st.one_of(st.integers(), _ANY_TEXT),
                     min_size=2, max_size=8)
    return draw(st.lists(st.one_of(clean, clean, dirty), max_size=24))


@settings(max_examples=300, deadline=None)
@given(rows=_tables(), chunk_rows=st.integers(1, 5))
def test_write_table_bytes_equal_csv_writer(tmp_path_factory, rows,
                                            chunk_rows):
    path = tmp_path_factory.mktemp("table") / "out.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(output, "_CHUNK_ROWS", chunk_rows)
        write_table(str(path), HEADER, rows)
    assert path.read_bytes() == _csv_text(HEADER, rows).encode()


def _open_calls(path: Path):
    """Yield every open() call and its mode argument (None if absent)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "open"):
            yield node, node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)


def _write_opens(path: Path):
    """Yield the line of every open() call whose mode may write."""
    for node, mode in _open_calls(path):
        if mode is not None and (not isinstance(mode, ast.Constant)
                                 or set(mode.value) & set("wax+")):
            yield node.lineno


def _text_reads_keeping_bom(path: Path):
    """Yield the line of every open() call that reads text with an
    encoding other than utf-8-sig, which would keep a byte-order mark."""
    for node, mode in _open_calls(path):
        if mode is not None and (not isinstance(mode, ast.Constant)
                                 or set(mode.value) & set("waxb+")):
            continue
        encoding = node.args[3] if len(node.args) > 3 else next(
            (kw.value for kw in node.keywords if kw.arg == "encoding"), None)
        if not (isinstance(encoding, ast.Constant)
                and encoding.value == "utf-8-sig"):
            yield node.lineno


def test_only_the_output_module_opens_files_for_writing():
    offenders = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
                 if p.name != "output.py" for line in _write_opens(p)]
    assert offenders == []


def test_write_guard_sees_write_modes(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='a')\n"
        "io.open(p, 'x')\nopen(p, m)\nopen(p, 'r+b')\n")
    assert list(_write_opens(sample)) == [3, 4, 5, 6, 7]


def _csv_writer_uses(path: Path):
    """Yield the line of every `csv.writer` or `csv.DictWriter` named,
    called or imported."""
    names = {"writer", "DictWriter"}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and getattr(node.value, "id", None) == "csv"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "csv"
              and any(alias.name in names for alias in node.names)):
            yield node.lineno


def test_only_the_output_module_builds_csv_writers():
    offenders = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
                 if p.name != "output.py" for line in _csv_writer_uses(p)]
    assert offenders == []


def test_csv_writer_guard_sees_writers(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import csv\ncsv.writer(fh)\ncsv.reader(fh)\nw = csv.writer\n"
        "from csv import reader\nfrom csv import Error, writer\n"
        "fh.writer(x)\ncsv.DictWriter(fh, f)\nfrom csv import DictWriter\n")
    assert sorted(_csv_writer_uses(sample)) == [2, 4, 6, 8, 9]


def test_every_text_input_is_read_as_utf8_sig():
    offenders = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
                 for line in _text_reads_keeping_bom(p)]
    assert offenders == []


def test_text_read_guard_sees_other_encodings(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "open(p)\nopen(p, encoding='utf-8')\n"
        "open(p, 'r', encoding='utf-8-sig')\n"
        "open(p, encoding='utf-8-sig', newline='')\n"
        "open(p, 'rb')\nopen(p, 'w', encoding='utf-8')\nopen(p, m)\n"
        "io.open(p, mode='rt', encoding='latin-1')\n"
        "open(p, 'r', -1, 'utf-8')\nopen(p, 'r', -1, 'utf-8-sig')\n"
        "open(p, encoding=enc)\n")
    assert list(_text_reads_keeping_bom(sample)) == [1, 2, 8, 9, 11]
