"""Span recorder that times nftgraph's layers from outside the program.

The tracer replaces public functions at the names the CLI and library
call them by (for example ``nftgraph.cli.simple_view`` or
``MatchContext.insert_edge``) with thin wrappers, and restores them on
``uninstall``.  Each call of an ordinary target becomes one span record;
calls of a per-row target (one call per input record or per insertion)
are folded into one aggregate record per enclosing span, holding the
call count and the busy time.

Every record has the stage-record fields ``name``, ``start``, ``end``,
``parent``, ``rows_in``, ``rows_out`` and ``peak_rss_mb`` (the process's
peak resident set when the span closed).  Aggregates add ``calls`` and
``busy_s``.  Records stay in memory and are written out by the caller.
"""

from __future__ import annotations

import importlib
import os
import resource
import time
from contextlib import contextmanager

# (span name, module, attribute path, one call per row)
TARGETS = (
    ("ingest.normalize_stream", "nftgraph.cli", "normalize_stream", False),
    ("ingest.parse_log_line", "nftgraph.ingest", "parse_log_line", True),
    ("ingest.decode_transfer", "nftgraph.ingest", "decode_transfer", True),
    ("ingest.write_transfers", "nftgraph.ingest", "write_transfers", False),
    ("graph.build", "nftgraph.graph", "TemporalGraph.build", False),
    ("graph.simple_view", "nftgraph.cli", "simple_view", False),
    ("cache.save", "nftgraph.cache", "save", False),
    ("cache.load", "nftgraph.cache", "load", False),
    ("metrics.effective_diameter", "nftgraph.metrics", "effective_diameter", False),
    ("metrics.avg_clustering", "nftgraph.metrics", "avg_clustering", False),
    ("metrics.assortativity", "nftgraph.metrics", "assortativity", False),
    ("metrics.reciprocity", "nftgraph.metrics", "reciprocity", False),
    ("metrics.degree_histogram", "nftgraph.metrics", "degree_histogram", False),
    ("metrics.growth_series", "nftgraph.metrics", "growth_series", False),
    ("metrics.mutual_edge_intervals", "nftgraph.metrics", "mutual_edge_intervals", False),
    ("metrics.active_periods", "nftgraph.metrics", "active_periods", False),
    ("metrics.tea_tet", "nftgraph.metrics", "tea_tet", False),
    ("metrics.holder_stats", "nftgraph.metrics", "holder_stats", False),
    ("anomaly.simultaneous_bidirectional", "nftgraph.anomaly",
     "simultaneous_bidirectional", False),
    ("anomaly.suspicious_pairs", "nftgraph.anomaly", "suspicious_pairs", False),
    ("anomaly.bot_scan", "nftgraph.anomaly", "bot_scan", False),
    ("csm.run_stream", "nftgraph.csm", "run_stream", False),
    ("csm.insert_edge", "nftgraph.csm", "MatchContext.insert_edge", True),
    ("mlbench.build_snapshots", "nftgraph.mlbench", "build_snapshots", False),
    ("mlbench.export_features", "nftgraph.mlbench", "export_features", False),
    ("mlbench.cumulative_degree", "nftgraph.mlbench",
     "SnapshotSeries.cumulative_degree", True),
    ("mlbench.nodes_until", "nftgraph.mlbench", "SnapshotSeries.nodes_until", True),
    ("mlbench.trader_labels", "nftgraph.mlbench", "trader_labels", False),
    ("mlbench.sample_negatives", "nftgraph.mlbench", "sample_negatives", False),
)


# (args, result) -> (rows_in, rows_out) where the default below is wrong
_ROWS = {
    "ingest.normalize_stream":
        lambda a, r: (r[0].records_read, r[0].transfers_emitted),
    "ingest.write_transfers": lambda a, r: (len(a[1]), len(a[1])),
    "graph.build": lambda a, r: (None, r.num_edges),
    "graph.simple_view": lambda a, r: (a[0].num_edges, r.num_edges),
    "cache.load": lambda a, r: (None, r.num_edges),
    "csm.run_stream": lambda a, r: (len(a[1]), sum(q.matches for q in r)),
    "mlbench.build_snapshots": lambda a, r: (a[0].num_edges, len(r)),
    "mlbench.export_features": lambda a, r: (len(a[1]), len(a[1])),
}

# cache file path argument, for the bytes moved through the cache layer
_CACHE_PATH_ARG = {"cache.save": 1, "cache.load": 0}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(module: str, attr_path: str):
    """Return (owner, attribute name), or None if the target is gone."""
    owner = importlib.import_module(module)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Collects spans while installed; records nothing otherwise."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.records: list[dict] = []
        self.iteration = 0
        self.missing: list[str] = []
        self._stack: list[dict] = []
        self._aggs: dict[tuple[str, int | None], dict] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- records --------------------------------------------------------

    def _new(self, name: str, start: float) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.records), "name": name,
               "start": start - self.t0, "end": None, "parent": parent,
               "rows_in": None, "rows_out": None, "peak_rss_mb": None,
               "iteration": self.iteration, "child_s": 0.0}
        self.records.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        rec = self._new(name, start)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec["end"] = end - self.t0
            rec["peak_rss_mb"] = _peak_rss_mb()
            if self._stack:
                self._stack[-1]["child_s"] += end - start

    def _count_row(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        key = (name, parent["id"] if parent else None)
        rec = self._aggs.get(key)
        if rec is None:
            rec = self._new(name, start)
            rec.update(calls=0, busy_s=0.0)
            self._aggs[key] = rec
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["end"] = end - self.t0
        if parent is not None:
            parent["child_s"] += end - start

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn, per_row: bool):
        if per_row:
            def counted(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._count_row(name, start, time.perf_counter())
            return counted

        def spanned(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            self._annotate(rec, name, args, result)
            return result
        return spanned

    @staticmethod
    def _annotate(rec: dict, name: str, args, result) -> None:
        # Counts are best effort: a later program version may change a
        # signature, which must not stop the run.
        try:
            rows = _ROWS.get(name)
            if rows is not None:
                rec["rows_in"], rec["rows_out"] = rows(args, result)
            elif args:
                rec["rows_in"] = getattr(args[0], "num_edges", None)
            if name in _CACHE_PATH_ARG:
                rec["bytes"] = os.path.getsize(args[_CACHE_PATH_ARG[name]])
        except (AttributeError, IndexError, KeyError, TypeError, OSError):
            pass

    def install(self) -> None:
        self.missing = []
        for name, module, attr_path, per_row in TARGETS:
            found = _resolve(module, attr_path)
            if found is None:
                self.missing.append(f"{module}.{attr_path}")
                continue
            owner, attr = found
            original = vars(owner)[attr]
            if isinstance(original, (classmethod, staticmethod)):
                patched = type(original)(
                    self._wrap(name, original.__func__, per_row))
            else:
                patched = self._wrap(name, original, per_row)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ------------------------------------------------------

    def totals(self, iteration: int) -> dict[str, float]:
        """Per-name total seconds, self seconds and calls in one iteration."""
        out: dict[str, float] = {}
        for rec in self.records:
            if rec["iteration"] != iteration:
                continue
            busy = rec.get("busy_s", rec["end"] - rec["start"])
            name = rec["name"]
            out[name + ".s"] = out.get(name + ".s", 0.0) + busy
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + busy - rec["child_s"])
            out[name + ".calls"] = out.get(name + ".calls", 0) + rec.get("calls", 1)
            if "bytes" in rec:
                out["cache.bytes"] = out.get("cache.bytes", 0) + rec["bytes"]
        return out

    def public_records(self) -> list[dict]:
        """Span records without the internal child-time accumulator."""
        return [{k: v for k, v in rec.items() if k != "child_s"}
                for rec in self.records]
