"""Seeded inputs, CLI steps, output checks and layer counters per workload.

Inputs come only from ``fixture.generate`` and ``fixture.raw_row`` plus the
writers in this file.  Every path is relative to the run's work
directory, so reports (which echo their input paths) and the output
digest are the same for the same seed on every checkout.

Sizes are scaled down from the full-size pipeline so that one iteration
takes about a second on a 2-core machine and a run repeats it many times.
Each workload keeps the property it was chosen for; see BENCHMARK.json.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import random
import shutil

from nftgraph import cli, fixture
from nftgraph.csm import builtin_patterns

INGEST_TRANSFERS = 30_000
# A preferential fixture's hub sizes, and with them the cost of clustering,
# BFS and CSM search, vary a lot from seed to seed and do not even out as
# the fixture grows.  Each run therefore processes several independent
# fixtures: (fixtures, transfers each).
ANALYZE_INPUTS = (4, 6_000)
CSM_INPUTS = (6, 3_000)
# ~900 nodes per analyze fixture: above this threshold, so the sampled
# BFS path runs
DIAMETER_EXACT_THRESHOLD = 600
DIAMETER_SOURCES = 100
EXPORT_TRANSFERS = 60_000          # ~21 calendar days of uniform traffic

DAY = 86400
NULL_ADDRESS = "0x" + "00" * 20
APPROVAL_TOPIC = ("0x8c5be1e5ebec7d5bd14f71427d1e84f3"
                  "dd0314c0f7b2291e5b200ac8c7c3b925")
FUNGIBLE_CONTRACT = "0x" + "fe" * 20
NORMALIZED_HEADER = ("timestamp", "block_number", "tx_hash", "log_index",
                     "contract", "from", "to", "token_id")
RAW_COLUMNS = ("block_number", "block_timestamp", "transaction_hash",
               "log_index", "address", "topics", "data")


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def write_normalized(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(NORMALIZED_HEADER)
        for e in rows:
            w.writerow((e.timestamp, e.block_number, e.tx_hash, e.log_index,
                        e.contract, e.from_addr, e.to_addr, e.token_id))


def write_raw_csv(path: str, raws) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RAW_COLUMNS)
        for r in raws:
            w.writerow(["|".join(r[c]) if c == "topics" else r[c]
                        for c in RAW_COLUMNS])


def write_raw_jsonl(path: str, raws) -> None:
    with open(path, "w") as fh:
        for r in raws:
            fh.write(json.dumps(r) + "\n")


def _address_count(rows) -> int:
    return len({e.from_addr for e in rows} | {e.to_addr for e in rows})


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _check(fn) -> bool:
    """Run one output check; a missing or malformed output fails it."""
    try:
        return bool(fn())
    except (OSError, ValueError, KeyError, TypeError, IndexError):
        return False


def _file_digest(h, path: str) -> None:
    h.update(path.encode() + b"\0")
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)


class Workload:
    """One workload's inputs (from its manifest), steps and checks."""

    name = ""

    def __init__(self, manifest: dict):
        self.m = manifest

    def reset(self) -> None:
        shutil.rmtree("out", ignore_errors=True)
        os.makedirs("out")

    def steps(self) -> list[list[str]]:
        raise NotImplementedError

    def checks(self) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        return {"graph.nodes": self.m["nodes"], "graph.edges": self.m["edges"]}

    def digest(self) -> str:
        h = hashlib.sha256()
        for path in self._output_files():
            self._digest_file(h, path)
        return h.hexdigest()

    def _output_files(self) -> list[str]:
        return sorted(os.path.join(d, f) for d, _, files in os.walk("out")
                      for f in files)

    def _digest_file(self, h, path: str) -> None:
        _file_digest(h, path)


# ---------------------------------------------------------------------
# ingest: raw logs -> normalized CSV -> cache -> stats
# ---------------------------------------------------------------------

class Ingest(Workload):
    name = "ingest"

    @staticmethod
    def setup(seed: int, scale: float) -> dict:
        n = _scaled(INGEST_TRANSFERS, scale, 400)
        rows, _ = fixture.generate("uniform", seed, n)
        rng = random.Random(f"ingest:{seed}")
        raws = [fixture.raw_row(e) for e in rows]
        injected = {"wrong_topic": round(0.02 * n), "fungible": round(0.01 * n),
                    "duplicate": round(0.01 * n), "malformed": round(0.002 * n)}
        extra = []
        for i in range(injected["wrong_topic"]):
            r = dict(rng.choice(raws))
            r["transaction_hash"] = f"0xbb{i:062x}"
            r["topics"] = [APPROVAL_TOPIC] + r["topics"][1:]
            extra.append(r)
        for i in range(injected["fungible"]):
            r = dict(rng.choice(raws))
            r["transaction_hash"] = f"0xcc{i:062x}"
            r["address"] = FUNGIBLE_CONTRACT
            r["topics"] = r["topics"][:3]
            r["data"] = f"0x{rng.randrange(1 << 64):064x}"
            extra.append(r)
        for i in range(injected["malformed"]):
            r = dict(rng.choice(raws))
            r["transaction_hash"] = f"0xdd{i:06x}"      # too short
            extra.append(r)
        lines = raws + extra
        rng.shuffle(lines)
        half = len(lines) // 2
        # duplicates go last, so their originals are always read first
        dups = rng.sample(raws, injected["duplicate"])
        write_raw_csv("in/raw.csv", lines[:half])
        write_raw_jsonl("in/raw.jsonl", lines[half:] + dups)
        return {"rows": len(lines) + len(dups), "transfers": n,
                "injected": injected, "nodes": _address_count(rows),
                "edges": n}

    def steps(self):
        return [["ingest", "--input", "in/raw.csv", "in/raw.jsonl",
                 "--output", "out/norm.csv", "--report", "out/ingest.json"],
                ["build", "--input", "out/norm.csv", "--output", "out/graph.lglb",
                 "--report", "out/build.json"],
                ["stats", "--input", "out/graph.lglb", "--report", "out/stats.json"]]

    def checks(self):
        inj = self.m["injected"]

        def skips():
            s = _read_json("out/ingest.json")["stats"]
            return (s["records_read"] == self.m["rows"]
                    and s["transfers_emitted"] == self.m["transfers"]
                    and s["skipped_wrong_topic"] == inj["wrong_topic"]
                    and s["skipped_non_conforming"] == inj["fungible"]
                    and s["skipped_duplicate"] == inj["duplicate"]
                    and s["skipped_malformed"] == inj["malformed"])

        def balances():
            rep = _read_json("out/ingest.json")
            s = rep["stats"]
            return rep["balances"] is True and s["records_read"] == (
                s["transfers_emitted"] + s["skipped_wrong_topic"]
                + s["skipped_non_conforming"] + s["skipped_duplicate"]
                + s["skipped_malformed"])

        def emitted_built():
            emitted = _read_json("out/ingest.json")["stats"]["transfers_emitted"]
            return emitted == _read_json("out/build.json")["summary"]["edges"]

        def stats_build():
            return (_read_json("out/stats.json")["summary"]
                    == _read_json("out/build.json")["summary"])

        return [("ingest.skip_counts", _check(skips)),
                ("ingest.balances", _check(balances)),
                ("ingest.emitted_eq_built", _check(emitted_built)),
                ("stats.summary_eq_build", _check(stats_build))]

    def counters(self):
        s = _read_json("out/ingest.json")["stats"]
        return {**super().counters(),
                "ingest.records_read": s["records_read"],
                "ingest.transfers_emitted": s["transfers_emitted"],
                "ingest.useful_frac": s["transfers_emitted"] / s["records_read"]}


# ---------------------------------------------------------------------
# analyze and csm: preferential fixtures read from their caches
# ---------------------------------------------------------------------

def setup_preferential(seed: int, scale: float, count: int,
                       transfers: int) -> dict:
    n = _scaled(transfers, scale, 300)
    inputs = []
    for i in range(count):
        rows, _ = fixture.generate("preferential", seed * count + i, n)
        csv_path, cache_path = f"in/pref_{i}.csv", f"in/pref_{i}.lglb"
        write_normalized(csv_path, rows)
        rc = cli.main(["build", "--input", csv_path, "--output", cache_path,
                       "--report", f"in/pref_{i}.build.json"])
        if rc != 0:
            raise RuntimeError(f"building {cache_path} exited {rc}")
        mid = (rows[0].timestamp + rows[-1].timestamp) // 2
        stream = sum(1 for e in rows if e.timestamp > mid
                     and NULL_ADDRESS not in (e.from_addr, e.to_addr))
        inputs.append({"cache": cache_path, "mid": mid, "transfers": len(rows),
                       "stream_edges": stream, "nodes": _address_count(rows)})
    return {"inputs": inputs,
            "nodes": sum(x["nodes"] for x in inputs),
            "edges": sum(x["transfers"] for x in inputs)}


class Analyze(Workload):
    name = "analyze"

    @staticmethod
    def setup(seed, scale):
        m = setup_preferential(seed, scale, *ANALYZE_INPUTS)
        m["rows"] = m["edges"]
        return m

    def steps(self):
        out = []
        for i, x in enumerate(self.m["inputs"]):
            out.append(["metrics", "--input", x["cache"], "--out-dir",
                        f"out/metrics_{i}", "--granularity", "day",
                        "--split-time", str(x["mid"]),
                        "--diameter-sources", str(DIAMETER_SOURCES),
                        "--diameter-exact-threshold",
                        str(DIAMETER_EXACT_THRESHOLD)])
            out.append(["anomaly", "--input", x["cache"],
                        "--output", f"out/anomaly_{i}.jsonl"])
        return out

    @staticmethod
    def _anomaly_lines(i: int) -> list[dict]:
        with open(f"out/anomaly_{i}.jsonl") as fh:
            return [json.loads(line) for line in fh]

    def checks(self):
        out = []
        for i in range(len(self.m["inputs"])):
            def views(i=i):
                v = _read_json(f"out/metrics_{i}/metrics.json")["views"]
                return all(v[name]["effective_diameter"] is not None
                           for name in ("exclude_null", "include_null"))

            def summary(i=i):
                *lines, s = self._anomaly_lines(i)
                kinds = [line["type"] for line in lines]
                return (s["type"] == "summary"
                        and s["flagged_pairs"] == kinds.count("suspicious_pair")
                        and s["bot_reports"] == kinds.count("bot_report")
                        and len(kinds) == s["flagged_pairs"] + s["bot_reports"])

            out += [(f"metrics_{i}.views", _check(views)),
                    (f"anomaly_{i}.summary", _check(summary))]
        return out

    def counters(self):
        candidates = flagged = 0
        for i in range(len(self.m["inputs"])):
            s = self._anomaly_lines(i)[-1]
            candidates += s["candidate_pairs"]
            flagged += s["flagged_pairs"]
        return {**super().counters(), "anomaly.candidate_pairs": candidates,
                "anomaly.flagged_frac": flagged / candidates if candidates else 0.0}


def _automorphism_count(q) -> int:
    """|Aut(q)| by brute force over vertex permutations."""
    edges = set(q.edges)
    return sum(1 for p in itertools.permutations(range(len(q.labels)))
               if {(p[x], p[y]) for x, y in edges} == edges
               and all(q.labels[p[x]] == q.labels[x] for x in range(len(p))))


class Csm(Workload):
    name = "csm"
    automorphisms = {q.name: _automorphism_count(q) for q in builtin_patterns()}

    @staticmethod
    def setup(seed, scale):
        m = setup_preferential(seed, scale, *CSM_INPUTS)
        m["rows"] = sum(x["stream_edges"] for x in m["inputs"])
        return m

    def steps(self):
        return [["csm", "--input", x["cache"], "--initial-until", str(x["mid"]),
                 "--output", f"out/csm_{i}.csv"]
                for i, x in enumerate(self.m["inputs"])]

    @staticmethod
    def _results(i: int) -> list[dict]:
        return _read_json(f"out/csm_{i}.csv.meta.json")["results"]

    def checks(self):
        out = []
        for i, x in enumerate(self.m["inputs"]):
            def stream(i=i, x=x):
                meta = _read_json(f"out/csm_{i}.csv.meta.json")
                return meta["stream_edges"] == x["stream_edges"]
            out.append((f"csm_{i}.stream_edges", _check(stream)))
            for name, aut in self.automorphisms.items():
                def query(i=i, name=name, aut=aut):
                    r, = (r for r in self._results(i) if r["query"] == name)
                    return (r["timed_out"] is False
                            and r["matches"] == aut * r["matches_dedup"])
                out.append((f"csm_{i}.{name}", _check(query)))
        return out

    def counters(self):
        c = {**super().counters(), "csm.timed_out": 0, "csm.stream_edges": 0}
        for i in range(len(self.m["inputs"])):
            meta = _read_json(f"out/csm_{i}.csv.meta.json")
            c["csm.stream_edges"] += meta["stream_edges"]
            for r in meta["results"]:
                for key in ("elapsed_ms", "matches"):
                    name = f"csm.{r['query']}.{key}"
                    c[name] = c.get(name, 0) + r[key]
                c["csm.timed_out"] += int(r["timed_out"])
        return c

    def _digest_file(self, h, path):
        # elapsed_ms is a timing, not an output
        if path.endswith(".meta.json"):
            meta = _read_json(path)
            for r in meta["results"]:
                r.pop("elapsed_ms")
            h.update(path.encode() + b"\0" + json.dumps(meta, sort_keys=True).encode())
        elif path.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            col = rows[0].index("elapsed_ms")
            h.update(path.encode() + b"\0" + json.dumps(
                [r[:col] + r[col + 1:] for r in rows]).encode())
        else:
            _file_digest(h, path)


# ---------------------------------------------------------------------
# export: normalized CSV -> per-day snapshot directories
# ---------------------------------------------------------------------

class Export(Workload):
    name = "export"

    @staticmethod
    def setup(seed, scale):
        n = _scaled(EXPORT_TRANSFERS, scale, 2000)
        rows, _ = fixture.generate("uniform", seed, n)
        write_normalized("in/transfers.csv", rows)
        days = rows[-1].timestamp // DAY - rows[0].timestamp // DAY + 1
        return {"rows": n, "days": days, "nodes": _address_count(rows),
                "edges": n}

    def steps(self):
        return [["export-ml", "--input", "in/transfers.csv", "--out-dir", "out/ml",
                 "--granularity", "day", "--task", "node",
                 "--negatives-snapshot", str(self.m["days"] - 1)]]

    def checks(self):
        def dirs():
            return sum(1 for d in os.listdir("out/ml")
                       if d.startswith("snapshot_")) == self.m["days"]

        def report():
            return _read_json("out/ml/report.json")["snapshots"] == self.m["days"]

        return [("export.snapshot_dirs", _check(dirs)),
                ("export.report_snapshots", _check(report))]

    def counters(self):
        return {**super().counters(),
                "mlbench.snapshots": _read_json("out/ml/report.json")["snapshots"],
                "mlbench.bytes_written": sum(os.path.getsize(p)
                                             for p in self._output_files())}


WORKLOADS = {w.name: w for w in (Ingest, Analyze, Csm, Export)}
