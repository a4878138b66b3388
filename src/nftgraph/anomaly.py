"""Suspicious-pair rules over simultaneous bidirectional edges, plus a
sequential-token-id bot scan.

"Transactions" here always counts multigraph edges: a pair trading
repeatedly strengthens the signal rather than diluting it.
"""

from __future__ import annotations

import math
import statistics

from .graph import TemporalGraph

LOW_ACTIVITY = "LOW_ACTIVITY"
HIGH_RATIO = "HIGH_RATIO"


def simultaneous_bidirectional(g: TemporalGraph, threshold_seconds: int = 86400,
                               *, include_null: bool = False):
    """((u, v), gap, trades) for each pair of node ids u < v with opposing
    edges whose minimal cross-direction interval `gap` is within the
    threshold; `trades` counts the pair's edges in both directions.
    Sorted by id pair.

    One walk in time order keeps, per pair, the last edge's timestamp and
    source, the least gap so far and the edge count.  The two opposing
    edges closest in time are adjacent in time order, so the least gap
    between adjacent opposing edges is the minimal cross-direction one.
    """
    state: dict[tuple[int, int], list] = {}
    for u, v, ts in g.edges(include_null=include_null,
                            include_self_loops=False):
        key = (u, v) if u < v else (v, u)
        s = state.get(key)
        if s is None:
            state[key] = [ts, u, math.inf, 1]
            continue
        if s[1] != u and ts - s[0] < s[2]:
            s[2] = ts - s[0]
        s[0], s[1] = ts, u
        s[3] += 1
    return sorted((pair, gap, trades)
                  for pair, (_ts, _src, gap, trades) in state.items()
                  if gap <= threshold_seconds)


def suspicious_pairs(g: TemporalGraph, candidates, min_tx: int = 5,
                     ratio: float = 0.8) -> list[dict]:
    """Apply the two wallet-pair rules to the rows of
    `simultaneous_bidirectional`; one `suspicious_pair` report row per
    flagged pair, sorted by the endpoint addresses `a` and `b`.

    LOW_ACTIVITY: either endpoint has fewer than `min_tx` incident edges.
    HIGH_RATIO: for either endpoint, the share of its edges that involve
    the other endpoint exceeds `ratio`.
    """
    flagged = []
    for (ia, ib), gap, between in candidates:
        ta, tb = g.n_txc[ia], g.n_txc[ib]
        ra, rb = between / ta, between / tb
        hits = []
        if ta < min_tx or tb < min_tx:
            hits.append(LOW_ACTIVITY)
        if ra > ratio or rb > ratio:
            hits.append(HIGH_RATIO)
        if hits:
            flagged.append({
                "type": "suspicious_pair",
                "a": g.addresses[ia], "b": g.addresses[ib],
                "interval_seconds": gap, "rule_hits": tuple(hits),
                "a_tx_count": ta, "b_tx_count": tb, "pair_tx_count": between,
                "a_ratio": ra, "b_ratio": rb})
    flagged.sort(key=lambda s: (s["a"], s["b"]))
    return flagged


def _longest_run(seq: list[tuple[int, int]], min_run: int,
                 max_median_interval: float):
    """(start, end, median gap) of the first longest maximal token-id +1
    run of at least `min_run` items in a time-sorted (ts, token_id)
    sequence whose median gap is at most `max_median_interval`, or None.
    """
    best, longest = None, min_run - 1
    start = 0
    for i in range(1, len(seq) + 1):
        if i == len(seq) or seq[i][1] != seq[i - 1][1] + 1:
            if i - start > longest:
                med = statistics.median(seq[j][0] - seq[j - 1][0]
                                        for j in range(start + 1, i))
                if med <= max_median_interval:
                    best, longest = (start, i, med), i - start
            start = i
    return best


def bot_scan(g: TemporalGraph, min_run: int = 100,
             max_median_interval: float = 600.0) -> list[dict]:
    """Flag addresses with long consecutive-token-id transfer runs.

    Within one contract, a maximal run of >= min_run outgoing or incoming
    transfers whose token ids increase by exactly 1 and whose median
    inter-event gap is at most `max_median_interval` seconds marks the
    address as bot-like.  The longest qualifying run per
    (address, contract, direction) is reported, as one `bot_report` row
    with the run's `direction` ("out" or "in").
    """
    by_key: dict[tuple[int, int, str], list[tuple[int, int]]] = {}
    for u, v, ts, cid, token in zip(g.e_src, g.e_dst, g.e_ts, g.e_contract,
                                    g.e_token):
        item = (ts, token)
        by_key.setdefault((u, cid, "out"), []).append(item)
        by_key.setdefault((v, cid, "in"), []).append(item)
    reports = []
    for (node, cid, direction), seq in by_key.items():
        if len(seq) < min_run:
            continue
        best = _longest_run(seq, min_run, max_median_interval)
        if best is None:
            continue
        start, end, med = best
        reports.append({
            "type": "bot_report",
            "address": g.addresses[node], "contract": g.contracts[cid],
            "direction": direction, "run_length": end - start,
            "median_interval_seconds": med, "first_token_id": seq[start][1],
            "start_ts": seq[start][0], "end_ts": seq[end - 1][0]})
    reports.sort(key=lambda r: (r["address"], r["contract"], r["direction"]))
    return reports
