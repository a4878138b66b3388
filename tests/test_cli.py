import ast
import contextlib
import csv
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_events

import nftgraph
from nftgraph import cache
from nftgraph.cli import main
from nftgraph.fixture import write_fixture
from nftgraph.graph import TemporalGraph
from nftgraph.ingest import write_transfers


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    write_fixture("planted", 1, 6000, str(d / "planted.csv"),
                  ledger_path=str(d / "ledger.json"),
                  raw_path=str(d / "raw.csv"))
    return d


def ledger_of(data_dir):
    return json.loads((data_dir / "ledger.json").read_text())


# -- exit codes --------------------------------------------------------

def test_usage_error_exits_1(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["metrics"]) == 1                      # missing required flags
    assert main(["metrics", "--input", "x", "--out-dir", "y",
                 "--granularity", "decade"]) == 1
    out = tmp_path / "c.csv"
    assert main(["csm", "--input", "p.csv", "--initial-until", "1600000000",
                 "--queries", "--output", str(out)]) == 1  # no query file
    assert "--queries" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["csm", "--help"]) == 0
    capsys.readouterr()


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["build", "--input", str(tmp_path / "nope.csv"),
                 "--output", str(tmp_path / "g.lglb")]) == 2
    assert main(["stats", "--input", str(tmp_path)]) == 2     # a directory
    capsys.readouterr()


def test_bad_data_exits_2(data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,normalized,file\n1,2,3,4\n")
    assert main(["stats", "--input", str(bad)]) == 2
    bad.write_text("")                                      # no header
    assert main(["stats", "--input", str(bad)]) == 2
    lines = (data_dir / "planted.csv").read_text().splitlines(keepends=True)
    row = lines[2].split(",")
    row[7] = "x1"                                           # token_id
    lines[2] = ",".join(row)
    bad.write_text("".join(lines[:3]))
    capsys.readouterr()
    assert main(["stats", "--input", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00\x81 not utf-8\n")
    for argv in (["stats", "--input", str(binary)],
                 ["ingest", "--input", str(binary),
                  "--output", str(tmp_path / "norm.csv")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("nftgraph: ") and err.count("\n") == 1


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("nftgraph: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("cmd", ["stats", "build"])
def test_over_long_normalized_field_exits_2(data_dir, tmp_path, capsys, cmd):
    # past csv.field_size_limit() (131072 characters)
    lines = (data_dir / "planted.csv").read_text().splitlines(keepends=True)
    row = lines[2].split(",")
    row[2] = "f" * 200000                                   # tx_hash
    lines[2] = ",".join(row)
    bad = tmp_path / "big.csv"
    bad.write_text("".join(lines))
    out = tmp_path / "out"
    flag = "--output" if cmd == "build" else "--report"
    capsys.readouterr()
    assert main([cmd, "--input", str(bad), flag, str(out)]) == 2
    assert "line 3" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("task,text", [
    ("link", "p1,0.9,0.1," + "1" * 200000 + "\n"),
    ("node", "node_id,true,predicted\nn1,daily," + "d" * 200000 + "\n"),
], ids=["score", "prediction"])
def test_eval_over_long_field_exits_2(tmp_path, capsys, task, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    capsys.readouterr()
    assert main(["eval", "--input", str(path), "--task", task]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("row", ["p1,nan,0.1,0.2", "p1,0.9,0.1,NaN"],
                         ids=["positive", "negative"])
def test_eval_nan_score_exits_2(tmp_path, capsys, row):
    scores = tmp_path / "scores.csv"
    scores.write_text(row + "\np2,0.9,0.1,0.2\n")
    capsys.readouterr()
    assert main(["eval", "--input", str(scores)]) == 2
    assert "NaN" in _one_error_line(capsys)


def test_eval_infinite_score_is_valid(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("p1,inf,0.1,0.2\np2,-inf,0.1,0.2\n")
    report = tmp_path / "eval.json"
    assert main(["eval", "--input", str(scores), "--report", str(report)]) == 0
    metrics = json.loads(report.read_text())["metrics"]
    assert metrics["auc"] == 0.5 and metrics["mrr"] == 0.666666667


def _run_under_c_locale(argv):
    """The CLI in a subprocess whose locale encoding is ASCII."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(nftgraph.__file__)))
    return subprocess.run([sys.executable, "-m", "nftgraph.cli", *argv],
                          env=env, capture_output=True, text=True)


def test_text_inputs_are_read_as_utf8_under_any_locale(data_dir, tmp_path):
    qfile = tmp_path / "tri.q"
    qfile.write_text("# Dreieck \u00fcber drei Adressen\n"
                     "v 0 *; v 1 *; v 2 *; e 0 1; e 1 2; e 2 0\n",
                     encoding="utf-8")
    out = _run_under_c_locale([
        "csm", "--input", str(data_dir / "planted.csv"),
        "--initial-until", str(ledger_of(data_dir)["csm_initial_until"]),
        "--queries", str(qfile), "--output", str(tmp_path / "csm.csv")])
    assert out.returncode == 0, out.stderr
    scores = tmp_path / "scores.csv"
    scores.write_text("p\u00fc,0.9,0.1,0.2\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("n1,t\u00e4glich,t\u00e4glich\n", encoding="utf-8")
    for path, task in ((scores, "link"), (preds, "node")):
        out = _run_under_c_locale(["eval", "--input", str(path),
                                   "--task", task])
        assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("case", ["stats", "eval_link", "eval_node", "csm"])
def test_byte_order_mark_is_dropped_from_text_inputs(data_dir, tmp_path,
                                                      case):
    """An input starting with a UTF-8 byte-order mark gives the report of
    the same input without one."""
    planted = str(data_dir / "planted.csv")
    text, argv = {
        "stats": ((data_dir / "planted.csv").read_text(), ["stats"]),
        "eval_link": ("positive_id,pos_score,neg_0\ne0,0.5,0.1\n",
                      ["eval", "--task", "link"]),
        "eval_node": ("node_id,true,predicted\nn1,daily,weekly\n",
                      ["eval", "--task", "node"]),
        "csm": ("v 0 *; v 1 *; v 2 *; e 0 1; e 1 2; e 2 0\n",
                ["csm", "--input", planted, "--initial-until",
                 str(ledger_of(data_dir)["csm_initial_until"])]),
    }[case]
    reports = []
    for bom in ("", "\ufeff"):
        d = tmp_path / f"bom{len(bom)}"
        d.mkdir()
        path, report = d / "tri.txt", d / "report.json"
        path.write_text(bom + text, encoding="utf-8")
        if case == "csm":
            argv_bom = [*argv, "--queries", str(path),
                        "--output", str(d / "csm.csv")]
        else:
            argv_bom = [argv[0], "--input", str(path), *argv[1:]]
        assert main([*argv_bom, "--report", str(report)]) == 0
        body = json.loads(report.read_text())
        del body["config"], body["inputs"]
        for result in body.get("results", []):
            del result["elapsed_ms"]
        reports.append(body)
    assert reports[0] == reports[1]


# -- pipeline ----------------------------------------------------------

def test_fixture_and_ingest_cli(tmp_path, capsys):
    rc = main(["fixture", "--profile", "uniform", "--seed", "3",
               "--scale", "50", "--output", str(tmp_path / "u.csv"),
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["ledger"]["transfers"] == 50

    rc = main(["fixture", "--profile", "uniform", "--seed", "3",
               "--scale", "50", "--output", str(tmp_path / "u2.csv"),
               "--raw", str(tmp_path / "u2raw.csv"),
               "--report", str(tmp_path / "r2.json")])
    assert rc == 0
    rc = main(["ingest", "--input", str(tmp_path / "u2raw.csv"),
               "--output", str(tmp_path / "norm.csv"),
               "--report", str(tmp_path / "ing.json")])
    assert rc == 0
    ing = json.loads((tmp_path / "ing.json").read_text())
    assert ing["stats"]["transfers_emitted"] == 50
    assert ing["balances"] is True
    assert (tmp_path / "norm.csv").read_bytes() == \
        (tmp_path / "u2.csv").read_bytes()


@pytest.mark.parametrize("column", ["e_dst", "e_contract", "e_src", "e_ts"])
def test_cache_with_bad_edge_column_exits_2(data_dir, tmp_path, capsys,
                                            column):
    good = tmp_path / "good.lglb"
    assert main(["build", "--input", str(data_dir / "planted.csv"),
                 "--output", str(good), "--report", str(tmp_path / "b.json")]) == 0
    g = cache.load(str(good))
    assert len(g.contracts) < 99
    if column == "e_dst":
        g.e_dst[5] = g.num_nodes + 7
    elif column == "e_contract":
        g.e_contract[5] = 99
    elif column == "e_src":
        g.e_src[5] = -3
    else:
        g.e_ts[5] = g.e_ts[-1] + 1
    bad = tmp_path / "bad.lglb"
    cache.save(g, str(bad))
    capsys.readouterr()
    out = tmp_path / "out"
    for argv in (["stats", "--report", str(out)],
                 ["anomaly", "--output", str(out)],
                 ["metrics", "--out-dir", str(out)],
                 ["export-ml", "--out-dir", str(out)]):
        assert main([argv[0], "--input", str(bad), *argv[1:]]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("nftgraph: ") and err.count("\n") == 1
        assert column in err
        assert not out.exists()


@pytest.mark.parametrize("damage", ["out_of_order", "no_edges"])
def test_cache_with_bad_n_first_exits_2(data_dir, tmp_path, capsys, damage):
    """A cache whose edges would put the derived first-seen times out of
    node id order, or leave nodes without any edge."""
    good = tmp_path / "good.lglb"
    assert main(["build", "--input", str(data_dir / "planted.csv"),
                 "--output", str(good), "--report", str(tmp_path / "b.json")]) == 0
    g = cache.load(str(good))
    if damage == "out_of_order":
        # the same graph, with nodes 5 and 6 trading ids
        swap = {5: 6, 6: 5}
        g.addresses[5], g.addresses[6] = g.addresses[6], g.addresses[5]
        g.e_src[:] = [swap.get(u, u) for u in g.e_src]
        g.e_dst[:] = [swap.get(v, v) for v in g.e_dst]
    else:
        for column in (g.e_src, g.e_dst, g.e_ts, g.e_contract, g.e_token):
            column.clear()
    bad = tmp_path / "bad.lglb"
    cache.save(g, str(bad))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["metrics", "--input", str(bad), "--out-dir", str(out),
                 "--granularity", "week"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nftgraph: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("table", ["addresses", "contracts"])
def test_cache_with_repeated_string_exits_2(data_dir, tmp_path, capsys,
                                            table):
    good = tmp_path / "good.lglb"
    assert main(["build", "--input", str(data_dir / "planted.csv"),
                 "--output", str(good), "--report", str(tmp_path / "b.json")]) == 0
    g = cache.load(str(good))
    strings = getattr(g, table)
    strings[1] = strings[0]
    bad = tmp_path / "bad.lglb"
    cache.save(g, str(bad))
    capsys.readouterr()
    out = tmp_path / "s.json"
    assert main(["stats", "--input", str(bad), "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nftgraph: ") and err.count("\n") == 1
    assert "twice" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_cache(tmp_path_factory):
    """The planted fixture's cache (seed 1, scale 300)."""
    d = tmp_path_factory.mktemp("small-cache")
    write_fixture("planted", 1, 300, str(d / "planted.csv"))
    assert main(["build", "--input", str(d / "planted.csv"),
                 "--output", str(d / "g.lglb"),
                 "--report", str(d / "b.json")]) == 0
    return d / "g.lglb"


def test_cache_with_damaged_tail_exits_2(small_cache, tmp_path, capsys):
    """The last 50 bytes fall inside e_token, which no range or order
    check can vet: only the checksum finds the damage."""
    bad = tmp_path / "bad.lglb"
    bad.write_bytes(small_cache.read_bytes()[:-50] + b"\x7f" * 50)
    out = tmp_path / "anomaly.jsonl"
    assert main(["anomaly", "--input", str(bad), "--output", str(out)]) == 2
    assert capsys.readouterr().err == "nftgraph: checksum mismatch\n"
    assert not out.exists()


def test_cache_with_non_utf8_address_exits_2(small_cache, tmp_path, capsys):
    """The address table is decoded before the checksum is read, so a
    byte that is not UTF-8 there must still be reported as cache damage."""
    blob = bytearray(small_cache.read_bytes())
    blob[14] = 0xE7       # after magic, version and the table's two lengths
    bad = tmp_path / "bad.lglb"
    bad.write_bytes(blob)
    out = tmp_path / "s.json"
    assert main(["stats", "--input", str(bad), "--report", str(out)]) == 2
    assert capsys.readouterr().err == \
        "nftgraph: a string table is not UTF-8\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["contract", "address"])
def test_build_of_string_with_newline_writes_no_cache(tmp_path, capsys,
                                                      where):
    """The cache's string tables are newline-separated, so such a string
    would shift every later id."""
    odd = "0xc\n0xd"
    triples = [(1600000000, 0, 1), (1600000060, 1, 0)]
    events = (make_events(triples, contract=odd) if where == "contract"
              else make_events([(1600000000, odd, 1), *triples]))
    norm = tmp_path / "odd.csv"
    write_transfers(str(norm), events)
    out = tmp_path / "odd.lglb"
    capsys.readouterr()
    assert main(["build", "--input", str(norm), "--output", str(out),
                 "--report", str(tmp_path / "b.json")]) == 2
    assert "newline" in _one_error_line(capsys)
    assert os.listdir(tmp_path) == ["odd.csv"]      # nor a temporary file


@pytest.mark.parametrize("delta", [-1, 1])
def test_cache_with_wrong_string_count_exits_2(small_cache, tmp_path, capsys,
                                               delta):
    blob = bytearray(small_cache.read_bytes())
    (count,) = struct.unpack_from("<I", blob, 6)     # after magic, version
    struct.pack_into("<I", blob, 6, count + delta)
    # a valid crc32 over every byte after the version, so only the count
    # check can find the damage
    struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[6:-4]))
    bad = tmp_path / "bad.lglb"
    bad.write_bytes(blob)
    out = tmp_path / "s.json"
    capsys.readouterr()
    assert main(["stats", "--input", str(bad), "--report", str(out)]) == 2
    assert "entries" in _one_error_line(capsys)
    assert not out.exists()


_DAMAGE = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(0, 7)),
    st.tuples(st.just("overwrite"), st.integers(0, 1 << 20),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.none()))


@settings(deadline=None, max_examples=60)
@given(damage=_DAMAGE)
def test_damaged_cache_bytes_exit_2(small_cache, damage):
    kind, at, arg = damage
    good = small_cache.read_bytes()
    blob = bytearray(good)
    at %= len(blob)
    if kind == "flip":
        blob[at] ^= 1 << arg
    elif kind == "overwrite":
        blob[at:at + len(arg)] = arg
    else:
        del blob[at:]
    assume(blob != good)
    with tempfile.TemporaryDirectory() as d:
        bad = os.path.join(d, "bad.lglb")
        with open(bad, "wb") as fh:
            fh.write(blob)
        out = os.path.join(d, "out")
        for argv in (["stats", "--report", out], ["anomaly", "--output", out],
                     ["metrics", "--out-dir", out],
                     ["csm", "--initial-until", "0", "--output", out],
                     ["export-ml", "--out-dir", out]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([argv[0], "--input", bad, *argv[1:]])
            err = err.getvalue()
            assert rc == 2, (argv[0], err)
            assert err.startswith("nftgraph: ") and err.count("\n") == 1
            assert "Traceback" not in err
            assert os.listdir(d) == ["bad.lglb"]


@pytest.fixture(scope="module")
def small_texts(tmp_path_factory):
    """{"raw.csv", "raw.jsonl", "norm.csv": bytes} of a 40-transfer
    planted fixture: its raw log as CSV and as JSONL, and the normalized
    CSV that ingesting either gives."""
    d = tmp_path_factory.mktemp("small-texts")
    write_fixture("planted", 2, 40, str(d / "norm.csv"),
                  raw_path=str(d / "raw.csv"))
    with open(d / "raw.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ints = ("block_number", "block_timestamp", "log_index")
    jsonl = "".join(json.dumps({**row, **{k: int(row[k]) for k in ints},
                                "topics": row["topics"].split("|")}) + "\n"
                    for row in rows)
    return {"raw.csv": (d / "raw.csv").read_bytes(),
            "raw.jsonl": jsonl.encode(),
            "norm.csv": (d / "norm.csv").read_bytes()}


_TEXT_DAMAGE = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
    st.tuples(st.just("splice"), st.integers(0, 1 << 16),
              st.integers(0, 80),
              st.one_of(st.binary(max_size=8),
                        st.text(max_size=8).map(str.encode),
                        st.sampled_from([b",", b"|", b'"', b"\n", b"\r",
                                         b"{", b"}", b"0x", b"-1", b"\x00",
                                         b"99999999999999999999"]))),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16))),
    min_size=1, max_size=4)


def _damaged(blob: bytes, damage) -> bytes:
    blob = bytearray(blob)
    for kind, at, *args in damage:
        at %= len(blob) + 1
        if kind == "flip" and at < len(blob):
            blob[at] ^= 1 << args[0]
        elif kind == "splice":
            blob[at:at + args[0]] = args[1]
        elif kind == "truncate":
            del blob[at:]
    return bytes(blob)


def _run_in(d, argv):
    """main(argv) with the paths in it under `d`: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
            io.StringIO()):
        rc = main([os.path.join(d, a) if a.endswith((".csv", ".jsonl",
                                                     ".lglb", ".json"))
                   else a for a in argv])
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err
    if rc:
        assert err.startswith("nftgraph: ") and err.count("\n") == 1
    return rc, err


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(["raw.csv", "raw.jsonl"]), damage=_TEXT_DAMAGE)
def test_ingest_of_damaged_raw_log_exits_cleanly(small_texts, name, damage):
    """Every run exits 0, 1 or 2 without a traceback, and leaves the
    normalized CSV and the report complete, or neither."""
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(_damaged(small_texts[name], damage))
        rc, _err = _run_in(d, ["ingest", "--input", name, "--output",
                               "out.csv", "--report", "r.json"])
        if rc:
            assert sorted(os.listdir(d)) == [name]
            return
        report = json.loads(open(os.path.join(d, "r.json")).read())
        assert report["balances"] is True
        with open(os.path.join(d, "out.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == report["stats"]["transfers_emitted"]


@settings(deadline=None, max_examples=60)
@given(damage=_TEXT_DAMAGE)
def test_build_and_stats_of_damaged_normalized_csv_exit_cleanly(
        small_texts, damage):
    """`build` leaves a cache that loads and its report, or neither;
    `stats` leaves a complete report or none."""
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "in.csv"), "wb") as fh:
            fh.write(_damaged(small_texts["norm.csv"], damage))
        rc, _err = _run_in(d, ["build", "--input", "in.csv", "--output",
                               "g.lglb", "--report", "b.json"])
        if rc:
            assert sorted(os.listdir(d)) == ["in.csv"]
        else:
            built = json.loads(open(os.path.join(d, "b.json")).read())
            g = cache.load(os.path.join(d, "g.lglb"))
            assert built["summary"] == g.summary()
        stats_rc, _err = _run_in(d, ["stats", "--input", "in.csv",
                                     "--report", "s.json"])
        assert stats_rc == rc
        assert os.path.exists(os.path.join(d, "s.json")) == (rc == 0)
        if rc == 0:
            stats = json.loads(open(os.path.join(d, "s.json")).read())
            assert stats["summary"] == built["summary"]


def test_build_then_cached_analysis(data_dir, tmp_path, capsys):
    cache_path = tmp_path / "g.lglb"
    rc = main(["build", "--input", str(data_dir / "planted.csv"),
               "--output", str(cache_path),
               "--report", str(tmp_path / "b.json")])
    assert rc == 0
    rc = main(["stats", "--input", str(cache_path),
               "--report", str(tmp_path / "s.json")])
    assert rc == 0
    s = json.loads((tmp_path / "s.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert s["summary"] == b["summary"]
    assert len(s["top_holders"]) == 10


def test_metrics_cli_outputs(data_dir, tmp_path, capsys):
    out = tmp_path / "m"
    rc = main(["metrics", "--input", str(data_dir / "planted.csv"),
               "--out-dir", str(out), "--granularity", "month"])
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    assert set(report["views"]) == {"exclude_null", "include_null"}
    assert "reciprocity" in report["views"]["exclude_null"]
    assert report["inputs"]
    for name in ("fig1a_nodes.csv", "fig1b_edges.csv", "fig1c_edge_mix.csv",
                 "fig2a_active_days.csv", "fig2c_mutual_days.csv",
                 "series.csv"):
        assert (out / name).exists(), name
    with open(out / "fig2c_mutual_days.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["bucket_days"] == "0"


def test_metrics_cli_deterministic(data_dir, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["metrics", "--input", str(data_dir / "planted.csv"),
                     "--out-dir", str(out)]) == 0
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


def test_anomaly_cli_jsonl(data_dir, tmp_path, capsys):
    out = tmp_path / "anom.jsonl"
    rc = main(["anomaly", "--input", str(data_dir / "planted.csv"),
               "--output", str(out)])
    assert rc == 0
    lines = [json.loads(x) for x in out.read_text().splitlines()]
    summary = lines[-1]
    assert summary["type"] == "summary"
    ledger = ledger_of(data_dir)
    assert summary["flagged_pairs"] == len(ledger["suspicious_pairs"])
    assert summary["flagged_fraction"] == 1.0
    assert summary["bot_reports"] == 1
    kinds = {l["type"] for l in lines[:-1]}
    assert kinds == {"suspicious_pair", "bot_report"}


def test_csm_cli_csv(data_dir, tmp_path, capsys):
    ledger = ledger_of(data_dir)
    out = tmp_path / "csm.csv"
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", str(ledger["csm_initial_until"]),
               "--output", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = {r["query"]: r for r in csv.DictReader(fh)}
    assert rows["p1"]["matches"] == str(3 * ledger["wash_cycles"])
    assert rows["p1"]["matches_dedup"] == str(ledger["wash_cycles"])
    assert rows["p2"]["matches"] == "0"
    meta = json.loads((tmp_path / "csm.csv.meta.json").read_text())
    assert meta["stream_edges"] == 3 * ledger["wash_cycles"]


def test_csm_cli_stdout_matches_output_file(data_dir, tmp_path, capsys):
    args = ["csm", "--input", str(data_dir / "planted.csv"),
            "--initial-until", str(ledger_of(data_dir)["csm_initial_until"])]
    capsys.readouterr()
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "csm.csv"
    assert main(args + ["--output", str(out)]) == 0

    def masked(text):       # elapsed_ms is the fourth column
        return re.sub(r"^((?:[^,]*,){3})[^,]*", r"\1-", text, flags=re.M)

    assert masked(printed) == masked(out.read_bytes().decode())
    assert printed.count("\r\n") == 6


def test_csm_time_limit_exits_3_with_complete_outputs(data_dir, tmp_path,
                                                       capsys):
    out = tmp_path / "csm.csv"
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", str(ledger_of(data_dir)["csm_initial_until"]),
               "--time-limit-ms", "0", "--output", str(out)])
    assert rc == 3
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["query"] for r in rows] == ["p1", "p2", "p3", "p4", "p5"]
    assert all(r["timed_out"] == "1" for r in rows)
    meta = json.loads((tmp_path / "csm.csv.meta.json").read_text())
    assert [r["timed_out"] for r in meta["results"]] == [True] * 5


@pytest.mark.parametrize("pool", ["0", "-3"])
def test_csm_rejects_label_pool_below_1(data_dir, tmp_path, capsys, pool):
    out = tmp_path / "csm.csv"
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", "0", "--label-pool", pool,
               "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--label-pool" in err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    (["stats"], "--top-holders", "-1"),
    (["metrics", "--out-dir", "{out}"], "--diameter-sources", "0"),
    (["metrics", "--out-dir", "{out}"], "--diameter-sources", "-1"),
    (["export-ml", "--out-dir", "{out}", "--negatives-snapshot", "0"],
     "--negatives-k", "0"),
    (["export-ml", "--out-dir", "{out}", "--negatives-snapshot", "0"],
     "--negatives-k", "-2"),
    (["csm", "--initial-until", "0", "--output", "{out}"],
     "--drop-top-hubs", "-1"),
    (["csm", "--initial-until", "0", "--output", "{out}"], "--window", "-1"),
    (["csm", "--initial-until", "0", "--output", "{out}"],
     "--window", "-3600"),
    (["csm", "--initial-until", "0", "--output", "{out}"],
     "--time-limit-ms", "nan"),
    (["csm", "--initial-until", "0", "--output", "{out}"],
     "--time-limit-ms", "-1"),
    (["anomaly", "--output", "{out}"], "--ratio", "nan"),
    (["anomaly", "--output", "{out}"], "--ratio", "-0.5"),
    (["anomaly", "--output", "{out}"], "--bot-max-median-interval", "nan"),
    (["anomaly", "--output", "{out}"], "--threshold-seconds", "-1"),
    (["anomaly", "--output", "{out}"], "--bot-min-run", "1"),
    (["anomaly", "--output", "{out}"], "--min-tx", "-1"),
    (["eval"], "--k", "0"),
    (["eval"], "--k", "-1"),
])
def test_count_option_below_minimum_exits_1(data_dir, tmp_path, capsys,
                                            command, flag, value):
    out = tmp_path / "out"
    report = tmp_path / "report.json"
    argv = [a.format(out=out) for a in command]
    # anomaly writes its report to --output and has no --report
    report_args = [] if argv[0] == "anomaly" else ["--report", str(report)]
    rc = main([argv[0], "--input", str(data_dir / "planted.csv"), *argv[1:],
               flag, value, *report_args])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert not out.exists() and not report.exists()


def test_fixture_rejects_negative_scale(tmp_path, capsys):
    out, report = tmp_path / "f.csv", tmp_path / "report.json"
    rc = main(["fixture", "--profile", "uniform", "--scale", "-5",
               "--output", str(out), "--report", str(report)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--scale" in err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("fraction", ["-0.1", "1.5", "2", "nan"])
def test_export_ml_rejects_earlystop_fraction_outside_unit_interval(
        data_dir, tmp_path, capsys, fraction):
    out = tmp_path / "ml"
    rc = main(["export-ml", "--input", str(data_dir / "planted.csv"),
               "--out-dir", str(out), "--granularity", "year",
               "--split-mode", "live_update",
               "--earlystop-fraction", fraction])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--earlystop-fraction" in err
    assert not out.exists()


@pytest.mark.parametrize("fraction,mark", [("0", "0"), ("1", "1")])
def test_export_ml_accepts_earlystop_fraction_bounds(data_dir, tmp_path,
                                                     capsys, fraction, mark):
    out = tmp_path / "ml"
    rc = main(["export-ml", "--input", str(data_dir / "planted.csv"),
               "--out-dir", str(out), "--granularity", "year",
               "--split-mode", "live_update",
               "--earlystop-fraction", fraction])
    assert rc == 0
    with open(out / "snapshot_0000" / "edges.csv") as fh:
        marks = {row["earlystop"] for row in csv.DictReader(fh)}
    assert marks == {mark}


def test_csm_cli_custom_query_and_window(data_dir, tmp_path, capsys):
    ledger = ledger_of(data_dir)
    qfile = tmp_path / "tri.q"
    qfile.write_text("v 0 *\nv 1 *\nv 2 *\ne 0 1\ne 1 2\ne 2 0\n")
    out = tmp_path / "csm2.csv"
    # planted cycles span 600 s; a 10 s window kills them all
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", str(ledger["csm_initial_until"]),
               "--queries", str(qfile), "--window", "10",
               "--output", str(out)])
    assert rc == 0
    with open(out) as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["query"] == "tri" and row["matches"] == "0"


def test_csm_query_over_automorphism_cap_exits_2(data_dir, tmp_path,
                                                 capsys, monkeypatch):
    """The cap is checked with the other query checks, before the graph
    is loaded."""
    def load_graph(path):
        raise AssertionError(f"{path} loaded for a rejected query")

    monkeypatch.setattr("nftgraph.cli._load_graph", load_graph)
    qfile = tmp_path / "star9.txt"               # 9! automorphisms
    qfile.write_text("".join(f"v {i} *\n" for i in range(10))
                     + "".join(f"e 0 {i}\n" for i in range(1, 10)))
    out = tmp_path / "csm.csv"
    capsys.readouterr()
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", str(ledger_of(data_dir)["csm_initial_until"]),
               "--queries", str(qfile), "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nftgraph: ") and err.count("\n") == 1
    assert "star9" in err
    assert not out.exists()


def test_csm_query_files_with_one_stem_exit_1(data_dir, tmp_path, capsys):
    # the report names a query by its file's stem, so two would share a row
    paths = [tmp_path / d / "q.txt" for d in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        path.write_text("v 0 *; v 1 *; v 2 *; e 0 1; e 1 2; e 2 0\n")
    out = tmp_path / "csm.csv"
    capsys.readouterr()
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", str(ledger_of(data_dir)["csm_initial_until"]),
               "--queries", *map(str, paths), "--output", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert all(str(path) in captured.err for path in paths)
    assert not out.exists() and not (tmp_path / "csm.csv.meta.json").exists()


def test_csm_query_stem_is_quoted_like_csv_writer(data_dir, tmp_path):
    # the query cell is the one CSV field whose text comes from outside
    # the program
    stem = 'a,"b'
    qfile = tmp_path / f"{stem}.q"
    qfile.write_text("v 0 *; v 1 *; e 0 1; e 1 0\n")
    out = tmp_path / "csm.csv"
    assert main(["csm", "--input", str(data_dir / "planted.csv"),
                 "--initial-until",
                 str(ledger_of(data_dir)["csm_initial_until"]),
                 "--queries", str(qfile), "--output", str(out)]) == 0
    results = json.loads((tmp_path / "csm.csv.meta.json").read_text())[
        "results"]
    assert [r["query"] for r in results] == [stem]
    columns = ["query", "matches", "matches_dedup", "elapsed_ms"]
    want = io.StringIO(newline="")
    w = csv.writer(want)
    w.writerow(columns + ["timed_out"])
    w.writerows([r[c] for c in columns] + [int(r["timed_out"])]
                for r in results)
    text = out.read_bytes().decode()
    assert text == want.getvalue()
    assert text.splitlines()[1].startswith('"a,""b",')


@pytest.mark.parametrize("pool, text, label", [
    (None, "v 0 1; v 1 0; e 0 1; e 1 0", "1"),
    ("2", "v 0 *; v 1 2; e 0 1; e 1 0", "2"),
    ("2", "v 0 0; v 1 -1; e 0 1; e 1 0", "-1"),
])
def test_csm_query_label_no_vertex_has_exits_2(data_dir, tmp_path, capsys,
                                               pool, text, label):
    """Data vertices get labels in [0, --label-pool) only with a label
    pool, so a query label outside it could never match."""
    qfile = tmp_path / "lab.q"
    qfile.write_text(text + "\n")
    out = tmp_path / "csm.csv"
    argv = ["csm", "--input", str(data_dir / "planted.csv"),
            "--initial-until", str(ledger_of(data_dir)["csm_initial_until"]),
            "--queries", str(qfile), "--output", str(out)]
    capsys.readouterr()
    rc = main(argv + ([] if pool is None else ["--label-pool", pool]))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nftgraph: ") and err.count("\n") == 1
    assert "'lab'" in err and f"label {label} " in err
    assert not out.exists()
    # labels inside the pool are searched
    qfile.write_text("v 0 1; v 1 0; e 0 1; e 1 0\n")
    assert main(argv + ["--label-pool", "2"]) == 0
    with open(out) as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["query"] == "lab" and row["timed_out"] == "0"


@pytest.mark.parametrize("text, message", [
    ("v 0 *; v 1 *; x 0 1", "unparseable statement 'x 0 1'"),
    ("v 0 *; v 1 2; e 0 1", "query 'q' has vertex label 2 outside [0, 2)"),
])
def test_csm_rejected_query_loads_no_graph(data_dir, tmp_path, capsys,
                                           monkeypatch, text, message):
    """Every query is read and checked before the graph is loaded."""
    def load_graph(path):
        raise AssertionError(f"{path} loaded for a rejected query")

    monkeypatch.setattr("nftgraph.cli._load_graph", load_graph)
    qfile = tmp_path / "q.txt"
    qfile.write_text(text + "\n")
    out = tmp_path / "csm.csv"
    capsys.readouterr()
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", str(ledger_of(data_dir)["csm_initial_until"]),
               "--queries", str(qfile), "--label-pool", "2",
               "--output", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nftgraph: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_csm_budget_spent_on_automorphisms_exits_3(data_dir, tmp_path,
                                                    capsys):
    # 8! automorphisms outlast a 20 ms budget; the stream is empty, so no
    # insert is left to notice the spent budget
    qfile = tmp_path / "star8.txt"
    qfile.write_text("".join(f"v {i} *\n" for i in range(9))
                     + "".join(f"e 0 {i}\n" for i in range(1, 9)))
    out = tmp_path / "csm.csv"
    rc = main(["csm", "--input", str(data_dir / "planted.csv"),
               "--initial-until", "9999999999", "--queries", str(qfile),
               "--time-limit-ms", "20", "--output", str(out)])
    assert rc == 3
    with open(out) as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["query"] == "star8" and row["timed_out"] == "1"


def test_export_ml_and_eval_cli(data_dir, tmp_path, capsys):
    out = tmp_path / "ml"
    rc = main(["export-ml", "--input", str(data_dir / "planted.csv"),
               "--out-dir", str(out), "--granularity", "month"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["snapshots"] == len(report["roles"])
    assert (out / "snapshot_0000" / "manifest.json").exists()

    scores = tmp_path / "scores.csv"
    scores.write_text("e0,0.5," + ",".join(["0.9", "0.8"] + ["0.1"] * 98) + "\n")
    rc = main(["eval", "--input", str(scores), "--task", "link",
               "--report", str(tmp_path / "eval.json")])
    assert rc == 0
    metrics = json.loads((tmp_path / "eval.json").read_text())["metrics"]
    assert metrics["auc"] == 0.98
    assert abs(metrics["mrr"] - 1 / 3) < 1e-9


def test_eval_node_cli(tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    preds.write_text("node_id,true,predicted\n\nn1,daily,daily\n"
                     "n2,weekly,daily\nn3,weekly,weekly\n")
    rc = main(["eval", "--input", str(preds), "--task", "node",
               "--report", str(tmp_path / "eval.json")])
    assert rc == 0
    metrics = json.loads((tmp_path / "eval.json").read_text())["metrics"]
    assert metrics == {"accuracy": 0.666666667, "macro_recall": 0.75,
                       "samples": 3, "classes": 2}
    for text in ("node_id,true,predicted\nn1,daily\n",
                 "node_id,true,predicted\n"):
        preds.write_text(text)
        capsys.readouterr()
        assert main(["eval", "--input", str(preds), "--task", "node"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nftgraph: ") and err.count("\n") == 1


@pytest.mark.parametrize("index", ["-1", "-2", "2", "5"])
def test_export_ml_rejects_out_of_range_negatives_snapshot(
        data_dir, tmp_path, capsys, index):
    out = tmp_path / "ml"
    rc = main(["export-ml", "--input", str(data_dir / "planted.csv"),
               "--out-dir", str(out), "--granularity", "year",
               "--negatives-snapshot", "0", "--negatives-snapshot", index])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--negatives-snapshot" in err
    assert "[0, 2)" in err
    assert not out.exists()


def test_export_ml_without_enough_negatives_writes_nothing(data_dir, tmp_path,
                                                           capsys):
    out = tmp_path / "ml"
    rc = main(["export-ml", "--input", str(data_dir / "planted.csv"),
               "--out-dir", str(out), "--negatives-snapshot", "0",
               "--negatives-k", "100000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("nftgraph: snapshot ") and err.count("\n") == 1
    assert not out.exists()


def _tree(d):
    """{relative path: bytes} of every file under d."""
    return {str(p.relative_to(d)): p.read_bytes()
            for p in d.rglob("*") if p.is_file()}


def _export(data_dir, out, *args):
    return main(["export-ml", "--input", str(data_dir / "planted.csv"),
                 "--out-dir", str(out), *args])


def test_export_ml_refuses_out_dir_of_another_export(data_dir, tmp_path,
                                                     capsys):
    out = tmp_path / "ml"
    assert _export(data_dir, out, "--granularity", "day") == 0
    weeks = len(TemporalGraph.build(
        str(data_dir / "planted.csv")).periods("week"))
    before = _tree(out)
    capsys.readouterr()
    assert _export(data_dir, out, "--granularity", "week") == 1
    assert f"snapshot_{weeks:04d}" in _one_error_line(capsys)
    assert _tree(out) == before


def test_export_ml_refuses_stale_negatives(data_dir, tmp_path, capsys):
    out = tmp_path / "ml"
    args = ["--granularity", "week", "--negatives-k", "2",
            "--negatives-snapshot", "0"]
    assert _export(data_dir, out, *args, "--negatives-snapshot", "3") == 0
    before = _tree(out)
    capsys.readouterr()
    assert _export(data_dir, out, *args) == 1
    assert "negatives_0003.csv" in _one_error_line(capsys)
    assert _tree(out) == before


def test_export_ml_refuses_stale_report(data_dir, tmp_path, capsys):
    """A report in --out-dir from an earlier export would be left there
    by one whose --report goes elsewhere."""
    out = tmp_path / "ml"
    assert _export(data_dir, out, "--granularity", "month") == 0
    before = _tree(out)
    capsys.readouterr()
    assert _export(data_dir, out, "--granularity", "month", "--task", "node",
                   "--report", str(tmp_path / "r2.json")) == 1
    assert "report.json" in _one_error_line(capsys)
    assert _tree(out) == before and not (tmp_path / "r2.json").exists()
    # the same file named another way is this export's own report
    assert _export(data_dir, out, "--granularity", "month", "--task", "node",
                   "--report", str(out / "." / "report.json")) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["task"] == "node"


def test_export_ml_rerun_into_its_own_out_dir_is_identical(data_dir,
                                                           tmp_path):
    out = tmp_path / "ml"
    args = ["--granularity", "week", "--negatives-k", "2",
            "--negatives-snapshot", "3", "--split-mode", "live_update"]
    assert _export(data_dir, out, *args) == 0
    first = _tree(out)
    assert _export(data_dir, out, *args) == 0
    assert _tree(out) == first


@pytest.mark.parametrize("stamp,granularity", [
    (10**12, "day"), (-10**14, "week"), (10**20, "month"),
    (253402128000, "year")])          # in 9999; its year ends past it
def test_timestamp_outside_calendar_exits_2(tmp_path, capsys, stamp,
                                            granularity):
    norm = tmp_path / "far.csv"
    write_transfers(str(norm), make_events([(stamp, 0, 1), (stamp, 1, 2)]))
    lglb = tmp_path / "far.lglb"
    assert main(["build", "--input", str(norm), "--output", str(lglb),
                 "--report", str(tmp_path / "b.json")]) == 0
    out = tmp_path / "out"
    for path in (norm, lglb):
        for command in ("metrics", "export-ml"):
            capsys.readouterr()
            assert main([command, "--input", str(path), "--out-dir", str(out),
                         "--granularity", granularity]) == 2
            assert str(stamp) in _one_error_line(capsys)
            assert not out.exists()


def _exit_timeout_reads(path):
    """Yield the top-level definition (function, class or "<module>")
    holding each read of `EXIT_TIMEOUT`, as a name or an attribute."""
    for top in ast.parse(path.read_text(), str(path)).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                    and (getattr(node, "id", None) or node.attr)
                    == "EXIT_TIMEOUT"):
                yield where


def test_exit_3_comes_from_csm_rows_alone():
    # csm catches every TimeLimitExceeded it raises; `cmd_csm` returns 3
    # when one of its rows timed out
    src = Path(nftgraph.__file__).parent
    reads = [w for p in sorted(src.glob("*.py"))
             for w in _exit_timeout_reads(p)]
    assert reads == ["cmd_csm"]


def test_exit_timeout_guard_sees_names_and_attributes(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "EXIT_TIMEOUT = 3\nx = EXIT_TIMEOUT\n"
        "def f():\n    return EXIT_TIMEOUT, cli.EXIT_TIMEOUT\n"
        "class C:\n    def g(self):\n        EXIT_TIMEOUT = 2\n"
        "        self.EXIT_TIMEOUT = 1\n        return EXIT_TIMEOUT\n")
    assert sorted(_exit_timeout_reads(sample)) == ["<module>", "C", "f", "f"]
