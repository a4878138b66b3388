"""Output files are written whole or not at all, through one module."""

import ast
import builtins
import errno
import os
import random
import stat
import sys
from pathlib import Path

import pytest

from conftest import graph_of, random_events

from nftgraph import cache, output
from nftgraph.fixture import generate, write_raw_csv
from nftgraph.graph import TemporalGraph
from nftgraph.ingest import normalize_stream
from nftgraph.mlbench import build_snapshots, export_features
from nftgraph.output import open_output, write_csv

SRC = Path(output.__file__).parent


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class _FullDisk:
    """A file whose writes fail with ENOSPC once a shared budget is spent."""

    def __init__(self, fh, budget: list[int]):
        self._fh, self._budget = fh, budget

    def write(self, data):
        self._budget[0] -= len(data)
        if self._budget[0] < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
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


@pytest.fixture
def disk_full(monkeypatch):
    """Make every output file fail after `nbytes` bytes written in total."""
    def arm(nbytes: int) -> None:
        budget = [nbytes]
        monkeypatch.setattr(
            output, "open",
            lambda *a, **kw: _FullDisk(builtins.open(*a, **kw), budget),
            raising=False)
    return arm


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
        write_csv(str(target), ["id", "name"], _rows_then(exc))
    assert _tree(tmp_path) == ({} if old is None else {"out.csv": old})


def test_write_replaces_existing_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("a much longer old content that must not linger\n")
    write_csv(str(target), ["id"], [[1], [2]])
    assert _tree(tmp_path) == {"out.csv": b"id\r\n1\r\n2\r\n"}


def test_new_file_permissions_follow_umask(tmp_path):
    old_mask = os.umask(0o027)
    try:
        write_csv(str(tmp_path / "out.csv"), ["id"], [[1]])
    finally:
        os.umask(old_mask)
    assert stat.S_IMODE(os.stat(tmp_path / "out.csv").st_mode) == 0o640


def test_symlink_is_kept_and_its_file_updated(tmp_path):
    (tmp_path / "data").mkdir()
    real = tmp_path / "data" / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_csv(str(link), ["id"], [[7]])
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == b"id\r\n7\r\n"
    assert sorted(os.listdir(tmp_path / "data")) == ["real.csv"]
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"]


def test_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_csv(str(fifo), ["id"], [[1], [2]])
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
    series = build_snapshots(g, "month")

    def export(out, task):
        export_features(g, series, str(out), granularity="month",
                        exclude_null=True, task=task)
        return _tree(out)

    link = export(tmp_path / "link", "link")
    node = export(tmp_path / "node", "node")
    out = tmp_path / "out"
    export(out, "link")
    disk_full(sum(map(len, node.values())) // 2)
    with pytest.raises(OSError):
        export_features(g, series, str(out), granularity="month",
                        exclude_null=True, task="node")
    after = _tree(out)
    assert after.keys() == link.keys()
    assert all(data in (link[rel], node[rel]) for rel, data in after.items())
    assert any(data != link[rel] for rel, data in after.items())
    assert any(data != node[rel] for rel, data in after.items())


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
