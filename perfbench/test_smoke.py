"""Smoke test of the benchmark at a tiny input scale.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs plain and traced and must print every metric with its
unit; a deliberately corrupted output must fail its check; and without
the program's sources the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from nftgraph import cli  # noqa: E402

SCALE = 0.05


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_printed_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_prints_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def _edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def _drop_last_line(path):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


def _bump_p1(meta):
    meta["results"][0]["matches"] += 1


CORRUPTIONS = {
    "ingest": ("ingest.skip_counts", lambda: _edit_json(
        "out/ingest.json",
        lambda r: r["stats"].update(skipped_duplicate=r["stats"]["skipped_duplicate"] + 1))),
    "analyze": ("anomaly_0.summary", lambda: _drop_last_line("out/anomaly_0.jsonl")),
    "csm": ("csm_0.p1", lambda: _edit_json("out/csm_0.csv.meta.json", _bump_p1)),
    "export": ("export.snapshot_dirs",
               lambda: shutil.rmtree("out/ml/snapshot_0000")),
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_corrupted_output_fails_its_check(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs("in")
    cls = workloads.WORKLOADS[workload]
    wl = cls(cls.setup(5, SCALE))
    wl.reset()
    for argv in wl.steps():
        assert cli.main(argv) == 0
    assert all(ok for _, ok in wl.checks())
    check, corrupt = CORRUPTIONS[workload]
    corrupt()
    assert dict(wl.checks())[check] is False


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "ingest", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
