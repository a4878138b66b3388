"""Benchmark for the nftgraph CLI pipelines.

    python3 perfbench/run.py --workload {ingest,analyze,csm,export} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` and needs no build.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run works in a fresh directory under ``.perfbench_work/`` and uses
three fresh processes:

* set-up: writes the seeded inputs and builds any graph cache, three
  times (once when traced); ``setup_s`` is the median;
* measurement: runs the workload's CLI steps back to back through
  ``nftgraph.cli.main(argv)``, one client on one thread, as a closed
  loop for ``--seconds``; after every iteration it checks the outputs;
* this process, which only starts the other two and reports.

Timings are rescaled to a reference machine speed: a fixed calibration
loop runs before the first step and after each step, outside the timed
steps, and each step's time is scaled by ``speed_factor``.  On a shared
machine the raw time of the same work drifts by a fifth within minutes,
the rescaled time by a few percent.  ``wall_s`` is the sum of the
iteration's rescaled step times, which run back to back apart from the
calibration loops.  The raw median and the scale factor are printed
above the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced iterations: traced ones wrap the layers' public
functions (see tracer.py), and the run reports the per-layer metrics,
medians over traced iterations, plus the tracing overhead.  Its spans
are written to ``.perfbench_out/spans-<workload>-seed<N>.jsonl``.

Operations are CLI steps and output checks (one per CSM query among
them); a non-zero exit or a failed check is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# The calibration loop's time on the reference machine (a 2-core x86-64
# VM, CPython 3.11); every reported timing is rescaled to that speed.
CALIBRATION_ITERATIONS = 150_000
REFERENCE_CALIBRATION_S = 0.025
SETUP_TIMEOUT_S = 50
MEASURE_TIMEOUT_EXTRA_S = 100

WORKLOAD_NAMES = ("ingest", "analyze", "csm", "export")

END_TO_END = {"wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}

_SUBCOMMANDS = ("ingest", "build", "stats", "metrics", "anomaly", "csm",
                "export-ml")
PER_LAYER = {
    **{f"cli.{c}.s": "s" for c in _SUBCOMMANDS},
    "cli.self_s": "s",
    "ingest.normalize_stream.s": "s",
    "ingest.normalize_stream.self_s": "s",
    "ingest.parse_log_line.s": "s",
    "ingest.parse_log_line.calls": "count",
    "ingest.decode_transfer.s": "s",
    "ingest.write_transfers.s": "s",
    "ingest.records_read": "count",
    "ingest.transfers_emitted": "count",
    "ingest.useful_frac": "ratio",
    "graph.build.s": "s",
    "graph.simple_view.s": "s",
    "graph.simple_view.calls": "count",
    "graph.nodes": "count",
    "graph.edges": "count",
    "cache.save.s": "s",
    "cache.load.s": "s",
    "cache.bytes": "bytes",
    **{f"metrics.{m}.s": "s" for m in (
        "effective_diameter", "avg_clustering", "assortativity",
        "reciprocity", "degree_histogram", "growth_series",
        "mutual_edge_intervals", "active_periods", "tea_tet",
        "holder_stats")},
    "anomaly.simultaneous_bidirectional.s": "s",
    "anomaly.suspicious_pairs.s": "s",
    "anomaly.bot_scan.s": "s",
    "anomaly.candidate_pairs": "count",
    "anomaly.flagged_frac": "ratio",
    "csm.run_stream.s": "s",
    "csm.insert_edge.s": "s",
    "csm.insert_edge.calls": "count",
    "csm.context_s": "s",
    **{f"csm.p{i}.elapsed_ms": "ms" for i in range(1, 6)},
    **{f"csm.p{i}.matches": "count" for i in range(1, 6)},
    "csm.timed_out": "count",
    "csm.stream_edges": "count",
    "mlbench.build_snapshots.s": "s",
    "mlbench.export_features.s": "s",
    "mlbench.cumulative_degree.s": "s",
    "mlbench.cumulative_degree.calls": "count",
    "mlbench.nodes_until.s": "s",
    "mlbench.nodes_until.calls": "count",
    "mlbench.trader_labels.s": "s",
    "mlbench.sample_negatives.s": "s",
    "mlbench.snapshots": "count",
    "mlbench.bytes_written": "bytes",
    "trace_overhead_frac": "ratio",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (below 1 for smoke tests)")
    p.add_argument("--phase", choices=("setup", "measure"), default=None,
                   help=argparse.SUPPRESS)
    return p


# ---------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------

def calibration_s() -> float:
    """Time a fixed, cache-resident pure-Python loop.

    The loop exercises what the pipeline spends its time on (bytecode
    dispatch, small-int arithmetic, dict updates) and nothing of the
    program, so no change to nftgraph moves it.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        k = (i * 40503) & 255
        counts[k] = counts.get(k, 0) + 1
        acc += k if k & 1 else -k
    return time.perf_counter() - t0


def speed_factor(before_s: float, after_s: float) -> float:
    """Scale from this machine's current speed to the reference speed,
    given calibration times taken just before and just after a region."""
    return REFERENCE_CALIBRATION_S / ((before_s + after_s) / 2)


# ---------------------------------------------------------------------
# set-up phase (own process)
# ---------------------------------------------------------------------

def phase_setup(args) -> dict:
    from workloads import WORKLOADS
    times = []
    manifest = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree("in", ignore_errors=True)
        os.makedirs("in")
        before = calibration_s()
        t0 = time.perf_counter()
        manifest = WORKLOADS[args.workload].setup(args.seed, args.scale)
        raw = time.perf_counter() - t0
        times.append(raw * speed_factor(before, calibration_s()))
    return {"setup_s": times, "manifest": manifest}


# ---------------------------------------------------------------------
# measurement phase (own process)
# ---------------------------------------------------------------------

def _run_step(cli, argv, tracer):
    """Run one CLI step; an uncaught exception counts as exit code 1."""
    try:
        if tracer is None:
            return cli.main(argv)
        with tracer.span(f"cli.{argv[0]}"):
            return cli.main(argv)
    except Exception:
        import traceback
        traceback.print_exc()
        return 1


def _layer_metrics(totals: dict, counters: dict, factor: float) -> dict:
    """One traced iteration's per-layer metrics, timings rescaled."""
    out = {name: totals.get(name, 0) for name in PER_LAYER}
    out["cli.self_s"] = sum(v for k, v in totals.items()
                            if k.startswith("cli.") and k.endswith(".self_s"))
    out["csm.context_s"] = (totals.get("csm.run_stream.s", 0.0)
                            - totals.get("csm.insert_edge.s", 0.0))
    out.update({k: v for k, v in counters.items() if k in PER_LAYER})
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ms"):
            out[name] *= factor
    return out


def phase_measure(args, setup: dict) -> dict:
    import resource

    from nftgraph import cli
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](setup["manifest"])
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}           # traced? -> rescaled seconds
    raw_walls, factors, step_times, layer_runs = [], [], {}, []
    attempted = failed = 0
    failures: dict[str, int] = {}

    def fail(name):
        nonlocal failed
        failed += 1
        failures[name] = failures.get(name, 0) + 1

    start = time.perf_counter()
    it = 0
    while it < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and it % 2 == 1
        wl.reset()
        steps = wl.steps()
        per_step: dict[str, float] = {}
        raw = wall = 0.0
        if traced:
            tracer.iteration = it
            tracer.install()
        try:
            # calibrate between steps: the machine's speed can change
            # within one iteration
            cal = calibration_s()
            for argv in steps:
                t0 = time.perf_counter()
                rc = _run_step(cli, argv, tracer if traced else None)
                dt = time.perf_counter() - t0
                cal_next = calibration_s()
                scaled = dt * speed_factor(cal, cal_next)
                cal = cal_next
                raw += dt
                wall += scaled
                per_step[argv[0]] = per_step.get(argv[0], 0.0) + scaled
                attempted += 1
                if rc != 0:
                    fail(f"exit:{argv[0]}")
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if not traced:
            raw_walls.append(raw)
            factors.append(wall / raw)
            for name, t in per_step.items():
                step_times.setdefault(name, []).append(t)
        for name, ok in wl.checks():
            attempted += 1
            if not ok:
                fail(name)
        if traced:
            try:
                counters = wl.counters()
            except (OSError, ValueError, KeyError, TypeError, IndexError):
                counters = {}
            layer_runs.append(_layer_metrics(tracer.totals(it), counters,
                                             wall / raw))
        it += 1

    result = {
        "iterations": it,
        "walls": walls[False],
        "raw_wall_s": statistics.median(raw_walls),
        "speed_factor": statistics.median(factors),
        "step_s": {k: statistics.median(v) for k, v in step_times.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": wl.digest(),
        "rows": wl.m["rows"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = {n: statistics.median(r[n] for r in layer_runs) for n in PER_LAYER}
        layers["trace_overhead_frac"] = (statistics.median(walls[True])
                                         / statistics.median(walls[False]) - 1.0)
        result["layers"] = layers
        result["missing_targets"] = tracer.missing
        spans = _spans_path(args)
        spans.parent.mkdir(exist_ok=True)
        with open(spans, "w") as fh:
            for rec in tracer.public_records():
                fh.write(json.dumps(rec) + "\n")
    return result


# ---------------------------------------------------------------------
# orchestration (this process)
# ---------------------------------------------------------------------

def _child(args, phase: str, workdir: Path, timeout: float) -> dict:
    """Run one phase in a fresh interpreter; return its result file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    env = dict(os.environ)
    # string hashing, and with it set and dict layout, the same every run
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} phase exited {proc.returncode}")
    with open(workdir / f"{phase}.json") as fh:
        return json.load(fh)


def _spans_path(args) -> Path:
    return ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"


def _child_main(args) -> int:
    if args.phase == "setup":
        result = phase_setup(args)
    else:
        with open("setup.json") as fh:
            result = phase_measure(args, json.load(fh))
    with open(f"{args.phase}.json", "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.phase is not None:
        return _child_main(args)
    if not (SRC / "nftgraph" / "cli.py").is_file():
        print(f"perfbench: no nftgraph sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = _child(args, "setup", workdir, SETUP_TIMEOUT_S)
        m = _child(args, "measure", workdir,
                   args.seconds + MEASURE_TIMEOUT_EXTRA_S)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(m["walls"])
    steps = " ".join(f"{k}={v:.4f}" for k, v in m["step_s"].items())
    print(f"workload={args.workload} seed={args.seed} iterations={m['iterations']}"
          f" rows={m['rows']}")
    print(f"speed_factor={m['speed_factor']:.4f} raw_wall_s={m['raw_wall_s']:.4f}")
    print(f"step_s (median over untraced iterations): {steps}")
    print(f"failed_frac={m['failed'] / m['attempted']:.6g}"
          f" ({m['failed']}/{m['attempted']})"
          + (f" failures={m['failures']}" if m["failures"] else ""))
    print(f"digest={m['digest']}")
    if args.trace:
        if m["missing_targets"]:
            print(f"untraced (not found): {' '.join(m['missing_targets'])}")
        print(f"spans: {_spans_path(args)}")
        values = m["layers"]
        units = PER_LAYER
    else:
        values = {"wall_s": wall, "rows_per_s": m["rows"] / wall,
                  "peak_rss_mb": m["peak_rss_mb"],
                  "setup_s": statistics.median(setup["setup_s"])}
        units = END_TO_END
    print(json.dumps({
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
