"""Byte-identity oracle: every CLI output hashes the same as recorded.

Each subcommand runs through `cli.main` in a fresh working directory with
relative paths, so the input paths echoed in reports stay stable.  The
sha256 of every file left in that directory is compared against
`golden_manifest.json`.  CSM `elapsed_ms` is wall time and is masked.

A refactor that should not change any output must keep this test green.
When an output changes on purpose, re-record the manifest with

    PYTHONPATH=src python tests/test_golden.py

which lists the names whose digests changed, were added or were removed
before it rewrites the manifest; say in the change why they moved.
"""

import csv
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

from conftest import make_events

from nftgraph.cli import main
from nftgraph.ingest import NULL_ADDRESS, write_transfers

MANIFEST = Path(__file__).with_name("golden_manifest.json")

PLANTED_CUT = "1600000000"      # mid-span of the planted fixture
PREF_CUT = "1577880000"         # mid-span of the preferential fixture
LOOPS_CUT = "1600500000"
FAST_DIAMETER = ["--diameter-exact-threshold", "300",
                 "--diameter-sources", "40"]


def _planted_csm_cut() -> str:
    return str(json.loads(Path("planted_ledger.json").read_text())
               ["csm_initial_until"])


def _write_loops_fixture() -> None:
    """Random stream with mints, burns and self-loops (the generated
    fixtures have no self-loops)."""
    rng = random.Random(7)
    triples = []
    for _ in range(600):
        u, v = rng.randrange(60), rng.randrange(60)
        if rng.random() < 0.1:
            u = NULL_ADDRESS
        elif rng.random() < 0.05:
            v = NULL_ADDRESS
        elif rng.random() < 0.08:
            v = u
        triples.append((rng.randint(1600000000, 1601200000), u, v))
    write_transfers("loops.csv", make_events(triples))


def _write_eval_inputs() -> None:
    """A link score file with 5 negatives a row, ties included, and a
    node prediction file over three classes."""
    rng = random.Random(11)
    rows = ["positive_id,pos_score,neg_scores"]
    for i in range(40):
        scores = [rng.randrange(10) / 10 for _ in range(6)]
        rows.append(f"e{i}," + ",".join(map(str, scores)))
    Path("scores.csv").write_text("\n".join(rows) + "\n")
    classes = ("daily", "weekly", "rare")
    rows = ["node_id,true,predicted"]
    for i in range(60):
        rows.append(f"n{i},{rng.choice(classes)},{rng.choice(classes)}")
    Path("preds.csv").write_text("\n".join(rows) + "\n")


# CLI argv lists in run order; a callable item is resolved in the workdir
RUNS = [
    ["fixture", "--profile", "planted", "--seed", "1", "--scale", "3000",
     "--output", "planted.csv", "--ledger", "planted_ledger.json",
     "--raw", "planted_raw.csv", "--report", "fixture_planted.json"],
    ["fixture", "--profile", "preferential", "--seed", "2", "--scale", "1500",
     "--output", "pref.csv", "--raw", "pref_raw.csv",
     "--report", "fixture_pref.json"],
    ["ingest", "--input", "planted_raw.csv", "pref_raw.csv",
     "--output", "ingested.csv", "--report", "ingest.json"],
    ["build", "--input", "planted.csv", "--output", "planted.lglb",
     "--report", "build_planted.json"],
    ["build", "--input", "loops.csv", "--output", "loops.lglb",
     "--report", "build_loops.json"],
    ["stats", "--input", "planted.lglb", "--report", "stats_planted.json"],
    ["stats", "--input", "pref.csv", "--top-holders", "5",
     "--report", "stats_pref.json"],
    ["metrics", "--input", "planted.lglb", "--out-dir", "m_planted_month",
     "--granularity", "month", "--split-time", PLANTED_CUT, *FAST_DIAMETER],
    ["metrics", "--input", "planted.csv", "--out-dir", "m_planted_day",
     "--granularity", "day", "--at", PLANTED_CUT, *FAST_DIAMETER],
    ["metrics", "--input", "pref.csv", "--out-dir", "m_pref_day",
     "--granularity", "day", "--split-time", PREF_CUT, "--at", PREF_CUT,
     *FAST_DIAMETER],
    ["metrics", "--input", "loops.lglb", "--out-dir", "m_loops_day",
     "--granularity", "day", "--split-time", LOOPS_CUT, *FAST_DIAMETER],
    ["metrics", "--input", "loops.lglb", "--out-dir", "m_loops_noself",
     "--granularity", "day", "--split-time", LOOPS_CUT,
     "--exclude-self-loops", "--report", "m_loops_noself.json",
     *FAST_DIAMETER],
    ["anomaly", "--input", "planted.lglb", "--output", "anomaly.jsonl"],
    ["anomaly", "--input", "planted.lglb", "--include-null",
     "--output", "anomaly_null.jsonl"],
    ["anomaly", "--input", "loops.csv", "--include-null", "--min-tx", "20",
     "--output", "anomaly_loops.jsonl"],
    ["csm", "--input", "planted.lglb", "--initial-until", _planted_csm_cut,
     "--output", "csm_planted.csv"],
    ["csm", "--input", "planted.lglb", "--initial-until", _planted_csm_cut,
     "--include-null", "--drop-top-hubs", "3", "--window", "864000",
     "--output", "csm_planted_null.csv"],
    ["csm", "--input", "pref.csv", "--initial-until", PREF_CUT,
     "--output", "csm_pref.csv"],
    ["csm", "--input", "loops.lglb", "--initial-until", LOOPS_CUT,
     "--include-null", "--label-pool", "4", "--output", "csm_loops.csv"],
    ["export-ml", "--input", "planted.lglb", "--out-dir", "x_planted_node",
     "--granularity", "month", "--task", "node", "--split-mode", "node_fixed"],
    ["export-ml", "--input", "planted.lglb", "--out-dir", "x_planted_live",
     "--granularity", "week", "--split-mode", "live_update",
     "--include-null"],
    ["export-ml", "--input", "pref.csv", "--out-dir", "x_pref",
     "--granularity", "day", "--negatives-snapshot", "0",
     "--negatives-k", "10", "--report", "x_pref.json"],
    ["export-ml", "--input", "loops.lglb", "--out-dir", "x_loops",
     "--granularity", "day", "--task", "node", "--include-null",
     "--negatives-snapshot", "0", "--negatives-snapshot", "3",
     "--negatives-k", "5"],
    ["eval", "--input", "scores.csv", "--task", "link", "--k", "5",
     "--report", "eval_link.json"],
    ["eval", "--input", "preds.csv", "--task", "node",
     "--report", "eval_node.json"],
]


def _mask_elapsed(name: str, data: bytes) -> bytes:
    if name.endswith(".json"):
        return re.sub(rb'"elapsed_ms": [0-9.eE+-]+', b'"elapsed_ms": 0', data)
    rows = list(csv.reader(io.StringIO(data.decode())))
    col = rows[0].index("elapsed_ms")
    for row in rows[1:]:
        row[col] = "0"
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def _digests(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_dir():
            continue
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if rel.startswith("csm_"):
            data = _mask_elapsed(rel, data)
        out[rel] = hashlib.sha256(data).hexdigest()
    return out


def _run_all(workdir: Path) -> dict[str, str]:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _write_loops_fixture()
        _write_eval_inputs()
        for argv in RUNS:
            argv = [a() if callable(a) else a for a in argv]
            assert main(argv) == 0, argv
        return _digests(workdir)
    finally:
        os.chdir(cwd)


def test_cli_outputs_match_manifest(tmp_path, capsys):
    got = _run_all(tmp_path)
    capsys.readouterr()
    want = json.loads(MANIFEST.read_text())
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        manifest = _run_all(Path(d))
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    for what, names in (
            ("changed", [n for n in manifest if n in old
                         and manifest[n] != old[n]]),
            ("added", [n for n in manifest if n not in old]),
            ("removed", [n for n in old if n not in manifest])):
        print(f"{what}: {len(names)}", *names, sep="\n  ", file=sys.stderr)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(manifest)} digests in {MANIFEST}", file=sys.stderr)
