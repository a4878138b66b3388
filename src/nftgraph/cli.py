"""Command-line front end for the transfer-graph pipeline.

Subcommands: ingest, build, stats, metrics, anomaly, csm, export-ml,
eval, fixture.  Every report embeds the effective configuration and the
sha256 digest of each input file, so runs are auditable and byte-for-byte
reproducible given the same inputs, flags and seed.

Exit codes: 0 success, 1 usage error, 2 data error, 3 time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter

from . import anomaly as anomaly_mod
from . import cache as cache_mod
from . import csm as csm_mod
from . import fixture as fixture_mod
from . import metrics as metrics_mod
from . import mlbench
from .errors import DataError
from .graph import TemporalGraph, simple_view, summary_digest
from .ingest import normalize_stream
from .output import open_output, write_rows, write_table
from .periods import GRANULARITIES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TIMEOUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for bad
    data, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _round_floats(obj):
    """Limit every float to 9 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _make_report(args, inputs: list[str], body: dict) -> dict:
    hidden = {"func", "report", "output", "out_dir"}
    report = {"config": {k: v for k, v in sorted(vars(args).items())
                         if k not in hidden},
              "inputs": {p: _sha256(p) for p in inputs}}
    report.update(body)
    return _round_floats(report)


def _emit_json(payload: dict, path: str | None) -> None:
    with open_output(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_graph(path: str) -> TemporalGraph:
    """Accept either a normalized CSV or a binary graph cache file."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == cache_mod.MAGIC:
        return cache_mod.load(path)
    return TemporalGraph.build(path)


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def cmd_ingest(args) -> int:
    stats, contracts = normalize_stream(args.input, args.output)
    body = {
        "stats": stats.as_dict(),
        "balances": stats.balances(),
        "contracts": contracts,
        "output": args.output,
    }
    _emit_json(_make_report(args, args.input, body), args.report)
    return EXIT_OK


def cmd_build(args) -> int:
    g = TemporalGraph.build(args.input)
    cache_mod.save(g, args.output)
    summary = g.summary()
    body = {"summary": summary, "summary_digest": summary_digest(summary),
            "cache": args.output}
    _emit_json(_make_report(args, [args.input], body), args.report)
    return EXIT_OK


def cmd_stats(args) -> int:
    g = _load_graph(args.input)
    top = metrics_mod.holder_stats(g, top_k=args.top_holders)
    body = {
        "summary": g.summary(),
        "top_holders": [{"address": a, "tokens": tc, "collections": cc}
                        for a, tc, cc in top],
    }
    _emit_json(_make_report(args, [args.input], body), args.report)
    return EXIT_OK


_GROWTH_CSVS = (
    ("fig1a_nodes.csv", ("new_nodes", "new_mint_nodes", "new_nonmint_nodes")),
    ("fig1b_edges.csv", ("new_edges", "new_bidirectional_edges",
                         "new_self_loops")),
    ("fig1c_edge_mix.csv", ("pct_edges_new_new", "pct_edges_new_old",
                            "pct_edges_old_old")),
)


def _growth_csvs(series, out_dir: str) -> None:
    for name, fields in _GROWTH_CSVS:
        write_table(os.path.join(out_dir, name), ["period", *fields],
                    _round_floats([(label, *(row[f] for f in fields))
                                   for label, row in series]))
    tidy = [(label, f, row[f]) for label, row in series
            for _name, fields in _GROWTH_CSVS for f in fields]
    write_table(os.path.join(out_dir, "series.csv"),
                ["period", "metric", "value"], _round_floats(tidy))


def cmd_metrics(args) -> int:
    g = _load_graph(args.input)
    # each view is built, reported and dropped before the next
    views = {name: metrics_mod.metrics_report(
                 simple_view(g, args.at, include_null=include_null,
                             include_self_loops=not args.exclude_self_loops),
                 diameter_exact_threshold=args.diameter_exact_threshold,
                 diameter_sources=args.diameter_sources, seed=args.seed)
             for name, include_null in (("exclude_null", False),
                                        ("include_null", True))}
    body: dict = {"views": views}
    growth = metrics_mod.growth_series(
        g, args.granularity, include_self_loops=not args.exclude_self_loops)
    os.makedirs(args.out_dir, exist_ok=True)
    _growth_csvs(growth, args.out_dir)
    hist, cumulative = metrics_mod.mutual_edge_intervals(g)
    write_table(os.path.join(args.out_dir, "fig2c_mutual_days.csv"),
                ["bucket_days", "count", "cumulative_fraction"],
                _round_floats([(b, hist[b], cumulative[b])
                               for b in sorted(hist)]))
    spans, avg_tx = metrics_mod.active_periods(g)
    write_table(os.path.join(args.out_dir, "fig2a_active_days.csv"),
                ["span_days", "nodes", "avg_tx"],
                _round_floats([(s, spans[s], avg_tx[s])
                               for s in sorted(spans)]))
    if args.split_time is not None:
        tea, body["tet_classes"] = metrics_mod.tea_tet(
            g, args.granularity, args.split_time)
        write_table(os.path.join(args.out_dir, "tea.csv"),
                    ["period", "new", "recurring"],
                    [(label, d["new"], d["recurring"]) for label, d in tea])
    _emit_json(_make_report(args, [args.input], body),
               args.report or os.path.join(args.out_dir, "metrics.json"))
    return EXIT_OK


def cmd_anomaly(args) -> int:
    g = _load_graph(args.input)
    candidates = anomaly_mod.simultaneous_bidirectional(
        g, args.threshold_seconds, include_null=args.include_null)
    flagged = anomaly_mod.suspicious_pairs(g, candidates, min_tx=args.min_tx,
                                           ratio=args.ratio)
    bots = anomaly_mod.bot_scan(g, min_run=args.bot_min_run,
                                max_median_interval=args.bot_max_median_interval)
    summary = _make_report(args, [args.input], {
        "type": "summary",
        "candidate_pairs": len(candidates),
        "flagged_pairs": len(flagged),
        "flagged_fraction":
            len(flagged) / len(candidates) if candidates else 0.0,
        "bot_reports": len(bots),
    })
    with open_output(args.output) as out:
        for line in [*flagged, *bots, summary]:
            out.write(json.dumps(_round_floats(line), sort_keys=True) + "\n")
    return EXIT_OK


def _drop_top_hubs(edges, k: int):
    degree: Counter = Counter()         # distinct pairs at each node
    for u, v in {(u, v) for u, v, _ts in edges}:
        degree[u] += 1
        if u != v:
            degree[v] += 1
    hubs = set(sorted(degree, key=lambda n: (-degree[n], n))[:k])
    return [(u, v, ts) for u, v, ts in edges
            if u not in hubs and v not in hubs], sorted(hubs)


def cmd_csm(args) -> int:
    # the report names each query by its file's stem
    stems: dict[str, str] = {}
    for path in args.queries or ():
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in stems:
            print(f"nftgraph: query files {stems[stem]} and {path} are both "
                  f"named {stem!r} in the report", file=sys.stderr)
            return EXIT_USAGE
        stems[stem] = path
    # every query is read and checked before the graph is loaded, so a
    # rejected one costs no load
    if args.queries:
        queries = []
        for stem, path in stems.items():
            with open(path, encoding="utf-8-sig") as fh:
                queries.append(csm_mod.parse_query(fh.read(), stem))
    else:
        queries = csm_mod.builtin_patterns()
    # data vertices get labels in [0, label_pool) only with a label pool
    pool = range(args.label_pool or 0)
    for q in queries:
        for label in q.labels:
            if label is not csm_mod.WILDCARD and label not in pool:
                where = ("without --label-pool" if args.label_pool is None
                         else f"outside [0, {args.label_pool}) of "
                              f"--label-pool {args.label_pool}")
                raise DataError(f"query {q.name!r} has vertex label {label} "
                                f"{where}")
    # a query past MAX_AUTOMORPHISMS raises DataError here
    automorphisms = [csm_mod.timed_automorphisms(q, args.time_limit_ms)
                     for q in queries]

    g = _load_graph(args.input)
    edges = list(g.edges(include_null=args.include_null))
    dropped_hubs: list[int] = []
    if args.drop_top_hubs:
        edges, dropped_hubs = _drop_top_hubs(edges, args.drop_top_hubs)
    initial = [e for e in edges if e[2] <= args.initial_until]
    stream = [e for e in edges if e[2] > args.initial_until]

    results = csm_mod.run_stream(
        initial, stream, queries, window=args.window,
        time_limit_ms=args.time_limit_ms, label_pool=args.label_pool,
        seed=args.seed, automorphisms=automorphisms)

    columns = ["query", "matches", "matches_dedup", "elapsed_ms"]
    write_table(args.output, columns + ["timed_out"],
                _round_floats([[r[c] for c in columns] + [int(r["timed_out"])]
                               for r in results]))
    meta = _make_report(args, [args.input], {
        "initial_edges": len(initial),
        "stream_edges": len(stream),
        "dropped_hub_addresses": [g.addresses[h] for h in dropped_hubs],
        "results": results,
    })
    meta_path = args.report
    if meta_path is None and args.output not in (None, "-"):
        meta_path = args.output + ".meta.json"
    if meta_path:
        _emit_json(meta, meta_path)
    if any(r["timed_out"] for r in results):
        return EXIT_TIMEOUT
    return EXIT_OK


def cmd_export_ml(args) -> int:
    g = _load_graph(args.input)
    exclude_null = not args.include_null
    periods = g.periods(args.granularity)
    for idx in args.negatives_snapshot or []:
        if not 0 <= idx < len(periods):
            print(f"nftgraph: --negatives-snapshot {idx} is outside "
                  f"[0, {len(periods)})", file=sys.stderr)
            return EXIT_USAGE
    # another export's snapshots, negatives or report would be left
    # beside ours
    ours = {f"snapshot_{i:04d}" for i in range(len(periods))} | {
        f"negatives_{i:04d}.csv" for i in args.negatives_snapshot or []}
    report = args.report or os.path.join(args.out_dir, "report.json")
    if report != "-" and os.path.realpath(report) == os.path.realpath(
            os.path.join(args.out_dir, "report.json")):
        ours.add("report.json")
    if os.path.isdir(args.out_dir):
        for n in sorted(os.listdir(args.out_dir)):
            if (n.startswith(("snapshot_", "negatives_"))
                    or n == "report.json") and n not in ours:
                print(f"nftgraph: --out-dir holds {n}, which this export "
                      f"would not overwrite", file=sys.stderr)
                return EXIT_USAGE
    # every snapshot's negatives are drawn before the first file is
    # written, so a snapshot with too few nodes leaves no partial export
    negatives = {idx: mlbench.sample_negatives(
                     g, idx, granularity=args.granularity,
                     exclude_null=exclude_null, k=args.negatives_k,
                     seed=args.seed)
                 for idx in args.negatives_snapshot or []}
    os.makedirs(args.out_dir, exist_ok=True)
    k = args.negatives_k
    header = ",".join(["src", "dst"] + [f"neg_{i}" for i in range(k)])
    row = "%d,%d" + ",%d" * k + "\r\n"     # csv.writer's ints and CRLF
    for idx in list(negatives):
        write_rows(os.path.join(args.out_dir, f"negatives_{idx:04d}.csv"),
                   header, (row % (u, v, *negs) for (u, v), negs
                            in sorted(negatives.pop(idx).items())))
    roles = mlbench.export_features(
        g, args.out_dir, granularity=args.granularity,
        exclude_null=exclude_null, task=args.task, split_mode=args.split_mode,
        seed=args.seed, earlystop_fraction=args.earlystop_fraction)
    body = {
        "snapshots": len(periods),
        "roles": roles,
        "labels": [p.label for p in periods],
    }
    _emit_json(_make_report(args, [args.input], body), report)
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.task == "link":
        records = mlbench.read_score_file(args.input, k=args.k)
        body = {"task": "link", "metrics": mlbench.eval_link_scores(records)}
    else:
        pairs = mlbench.read_prediction_file(args.input)
        body = {"task": "node", "metrics": mlbench.eval_classification(pairs)}
    _emit_json(_make_report(args, [args.input], body), args.report)
    return EXIT_OK


def cmd_fixture(args) -> int:
    ledger = fixture_mod.write_fixture(
        args.profile, args.seed, args.scale, args.output,
        ledger_path=args.ledger, raw_path=args.raw)
    _emit_json(_round_floats({"output": args.output, "ledger": ledger}),
               args.report)
    return EXIT_OK


# ---------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------

def _add_report(p):
    p.add_argument("--report", default=None,
                   help="write the JSON report here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="nftgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest", help="decode raw event logs to normalized CSV")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--output", required=True)
    _add_report(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build", help="build and cache the temporal graph")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="binary graph cache path")
    _add_report(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("stats", help="graph summary and top holders")
    p.add_argument("--input", required=True)
    p.add_argument("--top-holders", type=int, default=10)
    _add_report(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("metrics", help="structural metrics and time series")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--granularity", choices=GRANULARITIES, default="year")
    p.add_argument("--at", type=int, default=None,
                   help="snapshot cutoff timestamp (default: whole graph)")
    p.add_argument("--exclude-self-loops", action="store_true")
    p.add_argument("--split-time", type=int, default=None,
                   help="also emit TEA/TET relative to this timestamp")
    p.add_argument("--diameter-exact-threshold", type=int, default=10000)
    p.add_argument("--diameter-sources", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_report(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("anomaly", help="suspicious pairs and bot runs (JSONL)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--threshold-seconds", type=int, default=86400)
    p.add_argument("--min-tx", type=int, default=5)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--bot-min-run", type=int, default=100)
    p.add_argument("--bot-max-median-interval", type=float, default=600.0)
    p.add_argument("--include-null", action="store_true")
    p.set_defaults(func=cmd_anomaly, report=None)

    p = sub.add_parser("csm", help="continuous subgraph matching over a stream")
    p.add_argument("--input", required=True)
    p.add_argument("--initial-until", type=int, required=True,
                   help="edges at or before this timestamp form the initial graph")
    p.add_argument("--queries", nargs="+", default=None,
                   help="pattern files (default: built-in patterns p1..p5)")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--time-limit-ms", type=float, default=3.6e6)
    p.add_argument("--label-pool", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--drop-top-hubs", type=int, default=0)
    p.add_argument("--include-null", action="store_true")
    p.add_argument("--output", default=None)
    _add_report(p)
    p.set_defaults(func=cmd_csm)

    p = sub.add_parser("export-ml", help="snapshot/feature export for GNN runs")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--granularity", choices=GRANULARITIES, default="day")
    p.add_argument("--task", choices=("link", "node"), default="link")
    p.add_argument("--split-mode",
                   choices=("fixed", "node_fixed", "live_update"),
                   default="fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--earlystop-fraction", type=float, default=0.1)
    p.add_argument("--include-null", action="store_true")
    p.add_argument("--negatives-snapshot", type=int, action="append",
                   help="also sample negatives for this snapshot index")
    p.add_argument("--negatives-k", type=int, default=100)
    _add_report(p)
    p.set_defaults(func=cmd_export_ml)

    p = sub.add_parser("eval", help="grade external score/prediction files")
    p.add_argument("--input", required=True)
    p.add_argument("--task", choices=("link", "node"), default="link")
    p.add_argument("--k", type=int, default=None,
                   help="required negatives per record (link task)")
    _add_report(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fixture", help="generate synthetic transfer files")
    p.add_argument("--profile", choices=fixture_mod.PROFILES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=12000)
    p.add_argument("--output", required=True)
    p.add_argument("--ledger", default=None)
    p.add_argument("--raw", default=None,
                   help="also write the same data as a raw event-log CSV")
    _add_report(p)
    p.set_defaults(func=cmd_fixture)

    return parser


# smallest accepted value of each count, window, time or ratio option,
# checked before any work (NaN fails the check); a score row needs one
# negative, a bot run one gap for its median interval;
# --earlystop-fraction must lie in [0, 1]
_MINIMUMS = {"top_holders": 0, "drop_top_hubs": 0, "diameter_sources": 1,
             "negatives_k": 1, "k": 1, "label_pool": 1, "window": 0,
             "min_tx": 0, "scale": 0,
             "time_limit_ms": 0, "threshold_seconds": 0, "ratio": 0,
             "bot_max_median_interval": 0, "bot_min_run": 2}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    for name, low in _MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and not value >= low:
            print(f"nftgraph: --{name.replace('_', '-')} must be at least "
                  f"{low}, got {value}", file=sys.stderr)
            return EXIT_USAGE
    fraction = getattr(args, "earlystop_fraction", None)
    if fraction is not None and not 0 <= fraction <= 1:
        print(f"nftgraph: --earlystop-fraction must be within [0, 1], "
              f"got {fraction}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (DataError, OSError, UnicodeDecodeError) as e:
        print(f"nftgraph: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
