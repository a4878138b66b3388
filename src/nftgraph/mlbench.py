"""Snapshot export, split roles, negative sampling, trader labels and
score-file evaluation for temporal-GNN benchmarks.

Model training happens outside this package; we produce its inputs and
grade its outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterator

from .errors import DataError
from .graph import TemporalGraph
from .output import open_output, write_rows, write_table
from .periods import DAY, Period, tag_periods

TRADER_CLASSES = ("daily", "weekly", "monthly", "yearly", "remaining")

# month = 30 days, year = 365 days for the label thresholds
_THRESHOLDS = (("daily", DAY), ("weekly", 7 * DAY),
               ("monthly", 30 * DAY), ("yearly", 365 * DAY))


@dataclass
class Snapshot:
    period: Period
    # distinct pairs observed in the period: (u, v) -> (tx_count, last_ts)
    pair_stats: dict[tuple[int, int], tuple[int, int]]
    new_nodes: list[int]             # nodes first active in this period


def build_snapshots(g: TemporalGraph, granularity: str, *,
                    exclude_null: bool = True) -> Iterator[Snapshot]:
    """Bucket the transfer stream into calendar snapshots, one per period,
    each yielded once its period is complete.

    With exclude_null (the default for ML exports) every Null-incident
    transaction is removed before bucketing.
    """
    periods = g.periods(granularity)
    seen = bytearray(g.num_nodes)
    index, stats, new = 0, {}, []
    get = stats.get
    for p, (u, v, ts) in tag_periods(
            periods, g.edges(include_null=not exclude_null)):
        while index < p:
            yield Snapshot(periods[index], stats, new)
            index, stats, new = index + 1, {}, []
            get = stats.get
        uv = u, v
        prev = get(uv)
        stats[uv] = (1, ts) if prev is None else (prev[0] + 1, ts)
        if not seen[u]:
            seen[u] = 1
            new.append(u)
        if not seen[v]:
            seen[v] = 1
            new.append(v)
    for period in periods[index:]:
        yield Snapshot(period, stats, new)
        stats, new = {}, []


def split_roles(mode: str, num_snapshots: int) -> list[str]:
    """Per-snapshot role, train | val | test, under split mode fixed,
    node_fixed or live_update."""
    t = num_snapshots
    if mode == "fixed":
        test = math.ceil(0.2 * t)
        return ["train"] * (t - test) + ["test"] * test
    if mode == "node_fixed":
        train = math.floor(0.8 * t)
        val = math.floor(0.1 * t)
        return ["train"] * train + ["val"] * val + ["test"] * (t - train - val)
    if mode == "live_update":
        # every snapshot is evaluated; the early-stop reservation is a
        # per-edge mask, not a snapshot role
        return ["test"] * t
    raise ValueError(f"unknown split mode {mode!r}")


def sample_negatives(g: TemporalGraph, index: int, *, granularity: str,
                     exclude_null: bool = True, k: int = 100,
                     seed: int = 0) -> dict[tuple[int, int], list[int]]:
    """For each positive (u, v) of snapshot `index` of
    `build_snapshots(g, granularity, exclude_null=...)`, k distinct
    corrupted targets.

    Targets are drawn uniformly from nodes existing by the end of the
    snapshot, excluding v itself and any v' that forms a same-period
    positive (u, v').  Deterministic under (seed, index).
    """
    period = g.periods(granularity)[index]
    start = period.start_ts
    active = bytearray(g.num_nodes)
    positives: set[tuple[int, int]] = set()
    for u, v, ts in g.edges(period.end_ts - 1, include_null=not exclude_null):
        active[u] = active[v] = 1
        if ts >= start:
            positives.add((u, v))
    eligible = list(compress(range(g.num_nodes), active))
    rng = random.Random(f"{seed}:{index}")
    positives_by_src: dict[int, set[int]] = {}
    for u, v in positives:
        positives_by_src.setdefault(u, set()).add(v)
    out: dict[tuple[int, int], list[int]] = {}
    n = len(eligible)
    # rng.randrange(n) without its frames: CPython draws bit_length(n)
    # random bits until they fall below n, so the draws are the same
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    for u, v in sorted(positives):
        banned = positives_by_src[u]      # all active, so all eligible
        if n - len(banned) < k:
            raise DataError(f"snapshot {period.label}: need {k} "
                            f"negatives for ({u},{v})")
        # an ordered set: the banned targets, then each new draw
        chosen = dict.fromkeys(banned)
        need = len(banned) + k
        while len(chosen) < need:   # k > 0 here implies n > 0
            r = getrandbits(bits)
            if r < n:
                chosen.setdefault(eligible[r])
        out[(u, v)] = list(chosen)[len(banned):]
    return out


def trader_labels(g: TemporalGraph) -> dict[str, str]:
    """Trader class by address, in node-id order, from each node's maximum
    gap between consecutive transactions.

    <= 1 day: daily; <= 7 days: weekly; <= 30 days: monthly; <= 365 days:
    yearly; otherwise remaining.  The Null address and nodes with fewer
    than two transactions are filtered out.  Thresholds are right-closed:
    a gap of exactly 86,400 s is still a daily trader.
    """
    last = list(g.n_first)
    gap = [0] * g.num_nodes          # longest gap between transactions
    for u, v, ts in g.edges():
        d = ts - last[u]
        if d > gap[u]:
            gap[u] = d
        last[u] = ts
        if v != u:
            d = ts - last[v]
            if d > gap[v]:
                gap[v] = d
            last[v] = ts
    labels = {}
    for node, max_gap in enumerate(gap):
        # a self-loop is one transaction
        if node == g.null_id or g.n_txc[node] < 2:
            continue
        cls = "remaining"
        for name, limit in _THRESHOLDS:
            if max_gap <= limit:
                cls = name
                break
        labels[g.addresses[node]] = cls
    return labels


def export_features(g: TemporalGraph, out_dir: str, *, granularity: str,
                    exclude_null: bool, task: str = "link",
                    split_mode: str = "fixed", seed: int = 0,
                    earlystop_fraction: float = 0.1) -> list[str]:
    """Write one directory per snapshot of `build_snapshots(g, granularity,
    exclude_null=...)`: edges.csv, nodes.csv, manifest.json.

    The snapshots are built and written one at a time; the manifests
    record `granularity` and `exclude_null`.

    Edge features are (tx count between the pair, latest interaction
    timestamp).  Node features: cumulative total degree for the node task,
    the constant 1 for the link task.  live_update additionally marks a
    seeded random `earlystop` fraction of each snapshot's edges.
    """
    roles = split_roles(split_mode, len(g.periods(granularity)))
    os.makedirs(out_dir, exist_ok=True)
    write_table(os.path.join(out_dir, "addresses.csv"),
                ["address_id", "address"], enumerate(g.addresses))
    # Every field written below is an int or a TRADER_CLASSES label, which
    # csv.writer never quotes, so rows are formatted here in its dialect.
    # A node's nodes.csv row is reformatted only when its degree changes.
    if task == "node":
        label_by_addr = trader_labels(g)
        ends = {c: f",{c}\r\n" for c in ("", *TRADER_CLASSES)}
        # each node's row ending: one of six shared strings
        suffix = [ends[label_by_addr.get(a, "")] for a in g.addresses]
    degree = [0] * g.num_nodes       # pair-degree up to this snapshot
    rows = [""] * g.num_nodes        # each active node's nodes.csv row
    order: list[int] = []            # the active nodes, in id order
    for index, snap in enumerate(build_snapshots(
            g, granularity, exclude_null=exclude_null)):
        stats = snap.pair_stats
        order += snap.new_nodes
        order.sort()                 # timsort merges the two sorted runs
        if task == "node":
            changed = set(snap.new_nodes)
            changed.update(*stats)
            for u, v in stats:
                degree[u] += 1
                degree[v] += 1
            for w in changed:
                rows[w] = "%d,%d%s" % (w, degree[w], suffix[w])
        else:
            for w in snap.new_nodes:
                rows[w] = "%d,1\r\n" % w
        sd = os.path.join(out_dir, f"snapshot_{index:04d}")
        os.makedirs(sd, exist_ok=True)
        pairs = sorted(stats)        # distinct keys: the items' order
        header = "src,dst,tx_count,last_ts"
        if split_mode == "live_update":
            header += ",earlystop"
            rng = random.Random(f"{seed}:es:{index}")
            edges = ["%d,%d,%d,%d,%d\r\n" % (*uv, *stats[uv],
                                             rng.random() < earlystop_fraction)
                     for uv in pairs]
        else:
            edges = ["%d,%d,%d,%d\r\n" % (uv + stats[uv]) for uv in pairs]
        write_rows(os.path.join(sd, "edges.csv"), header, edges)
        write_rows(os.path.join(sd, "nodes.csv"),
                   "address_id,degree,label" if task == "node"
                   else "address_id,feature",
                   map(rows.__getitem__, order))
        manifest = {
            "granularity": granularity,
            "label": snap.period.label,
            "start_ts": snap.period.start_ts,
            "end_ts": snap.period.end_ts,
            "role": roles[index],
            "split_mode": split_mode,
            "seed": seed,
            "exclude_null": exclude_null,
        }
        with open_output(os.path.join(sd, "manifest.json")) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
    return roles


# ---------------------------------------------------------------------
# score evaluation
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreRecord:
    positive_id: str
    pos_score: float
    neg_scores: tuple[float, ...]


def read_score_file(path: str, k: int | None = None) -> list[ScoreRecord]:
    """Score rows `positive_id,pos_score,neg_score...`; a NaN score, a
    non-numeric one or a row the csv module rejects is a DataError."""
    records = []
    for row in _csv_rows(path, ("positive_id",)):
        if len(row) < 3:
            raise DataError(f"row for {row[0]!r} has no negatives")
        try:
            rec = ScoreRecord(positive_id=row[0], pos_score=float(row[1]),
                              neg_scores=tuple(float(x) for x in row[2:]))
        except ValueError:
            raise DataError(f"non-numeric score for {row[0]!r}") from None
        if any(map(math.isnan, (rec.pos_score, *rec.neg_scores))):
            raise DataError(f"NaN score for {row[0]!r}")
        if k is not None and len(rec.neg_scores) != k:
            raise DataError(
                f"{row[0]!r}: expected {k} negatives, got {len(rec.neg_scores)}")
        records.append(rec)
    return records


def eval_link_scores(records: list[ScoreRecord]) -> dict:
    """Per-positive AUC and MRR against k sampled negatives.

    AUC contribution: (#negatives strictly below + 0.5 * ties) / k.
    Rank: 1 + #negatives strictly above, with ties counted at their mean
    position.  Both are averaged over positives.
    """
    if not records:
        raise DataError("empty score file")
    auc_sum = rr_sum = 0.0
    for rec in records:
        k = len(rec.neg_scores)
        if k == 0:
            raise DataError(f"{rec.positive_id!r} has no negatives")
        below = sum(1 for s in rec.neg_scores if s < rec.pos_score)
        ties = sum(1 for s in rec.neg_scores if s == rec.pos_score)
        above = k - below - ties
        auc_sum += (below + 0.5 * ties) / k
        rr_sum += 1.0 / (1 + above + ties / 2)
    n = len(records)
    return {"auc": auc_sum / n, "mrr": rr_sum / n, "positives": n}


def eval_classification(pairs: list[tuple[str, str]]) -> dict:
    """Accuracy and macro recall over (true, predicted) label pairs."""
    if not pairs:
        raise DataError("empty prediction file")
    correct = sum(1 for t, p in pairs if t == p)
    per_class_total: Counter = Counter(t for t, _ in pairs)
    per_class_hit: Counter = Counter(t for t, p in pairs if t == p)
    recalls = [per_class_hit[c] / per_class_total[c] for c in per_class_total]
    return {
        "accuracy": correct / len(pairs),
        "macro_recall": sum(recalls) / len(recalls),
        "samples": len(pairs),
        "classes": len(per_class_total),
    }


def read_prediction_file(path: str) -> list[tuple[str, str]]:
    pairs = []
    for row in _csv_rows(path, ("id", "node_id")):
        if len(row) < 3:
            raise DataError("prediction rows need id,true,predicted")
        pairs.append((row[1], row[2]))
    return pairs


def _csv_rows(path: str, headers: tuple[str, ...]) -> Iterator[list[str]]:
    """The rows of the UTF-8 CSV file `path` (a byte-order mark dropped),
    less blank rows and rows whose first field is one of `headers`; a row
    the csv module rejects is a DataError."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row and row[0] not in headers:
                    yield row
        except csv.Error as e:
            raise DataError(f"bad csv at line {reader.line_num}: {e}") from None
