"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately written with a different structure from
the library code (floating-point formulas instead of integer arithmetic,
Floyd-Warshall instead of BFS, quadratic scans instead of indexed ones,
plain recursive search instead of ordered backtracking) so that agreement
between the two is meaningful.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from collections import Counter, deque
from fractions import Fraction


# ---------------------------------------------------------------------
# keccak-256 (pure python, used to verify the hardcoded event topic)
# ---------------------------------------------------------------------

_ROT = [[0, 36, 3, 41, 18], [1, 44, 10, 45, 2], [62, 6, 43, 15, 61],
        [28, 55, 25, 21, 56], [27, 20, 39, 8, 14]]

_RC = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808a,
    0x8000000080008000, 0x000000000000808b, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008a,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
    0x000000008000808b, 0x800000000000008b, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800a, 0x800000008000000a, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

_MASK = (1 << 64) - 1


def _rotl(x: int, n: int) -> int:
    return ((x << n) | (x >> (64 - n))) & _MASK


def _keccak_f(state: list[list[int]]) -> None:
    for rc in _RC:
        # theta
        c = [state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4]
             for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                state[x][y] ^= d[x]
        # rho + pi
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rotl(state[x][y], _ROT[x][y])
        # chi
        for x in range(5):
            for y in range(5):
                state[x][y] = b[x][y] ^ ((~b[(x + 1) % 5][y]) & b[(x + 2) % 5][y])
        # iota
        state[0][0] ^= rc


def keccak256(data: bytes) -> str:
    rate = 136                                  # 1088-bit rate for keccak-256
    padded = bytearray(data)
    padded.append(0x01)                         # original keccak padding
    while len(padded) % rate:
        padded.append(0x00)
    padded[-1] |= 0x80
    state = [[0] * 5 for _ in range(5)]
    for off in range(0, len(padded), rate):
        block = padded[off:off + rate]
        for i in range(rate // 8):
            lane = int.from_bytes(block[8 * i:8 * i + 8], "little")
            state[i % 5][i // 5] ^= lane
        _keccak_f(state)
    out = b""
    for i in range(4):                          # 32 bytes = 4 lanes
        out += state[i % 5][i // 5].to_bytes(8, "little")
    return out.hex()


# ---------------------------------------------------------------------
# view metrics (pairs = set of ordered (u, v); nodes = full node set)
# ---------------------------------------------------------------------

def _total_degree(nodes, pairs):
    deg = {n: 0 for n in nodes}
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return deg


def assortativity(nodes, pairs):
    """Pearson correlation of endpoint degrees, straight off the formula
    (mean-based form, evaluated in exact rational arithmetic)."""
    m = len(pairs)
    deg = _total_degree(nodes, pairs)
    inv_m = Fraction(1, m)
    s1 = sum(deg[u] * deg[v] for u, v in pairs) * inv_m
    s2 = (sum(Fraction(deg[u] + deg[v], 2) for u, v in pairs) * inv_m) ** 2
    s3 = sum(Fraction(deg[u] ** 2 + deg[v] ** 2, 2)
             for u, v in pairs) * inv_m
    den = s3 - s2
    if den == 0:
        return None
    return float((s1 - s2) / den)


def density(nodes, pairs):
    n = len(nodes)
    return len(pairs) / (n * (n - 1))


def reciprocity(pairs):
    return sum((v, u) in pairs for (u, v) in pairs) / len(pairs)


def avg_clustering(nodes, pairs):
    total = 0.0
    for i in nodes:
        nbrs = {v for (u, v) in pairs if u == i and v != i}
        nbrs |= {u for (u, v) in pairs if v == i and u != i}
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(1 for a in nbrs for b in nbrs
                    if a != b and (a, b) in pairs)
        total += links / (k * (k - 1))
    return total / len(nodes)


def bfs_distance_counts(adj, src, counts):
    """One queue BFS from `src` over `adj` (node -> neighbour set); adds
    the number of nodes first reached at each distance d to counts[d]."""
    seen = {src}
    frontier = deque([src])
    d = 0
    while frontier:
        d += 1
        nxt = deque()
        for u in frontier:
            for w in adj.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if nxt:
            while len(counts) <= d:
                counts.append(0)
            counts[d] += len(nxt)
        frontier = nxt


def effective_diameter(nodes, pairs, percentile=0.9):
    """Floyd-Warshall over the undirected projection, then interpolate."""
    idx = {n: i for i, n in enumerate(sorted(nodes))}
    n = len(idx)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v in pairs:
        if u == v:
            continue
        a, b = idx[u], idx[v]
        dist[a][b] = dist[b][a] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    lengths = sorted(dist[i][j] for i in range(n) for j in range(n)
                     if i != j and dist[i][j] < inf)
    if not lengths:
        return None
    total = len(lengths)
    by_d = {}
    for length in lengths:
        by_d[length] = by_d.get(length, 0) + 1
    cum = 0
    g_prev = 0.0
    for d in range(1, max(by_d) + 1):
        cum += by_d.get(d, 0)
        g = cum / total
        if g >= percentile:
            return (d - 1) + (percentile - g_prev) / (g - g_prev)
        g_prev = g
    return float(max(by_d))


# ---------------------------------------------------------------------
# stream measurements (events = list of (ts, src, dst) in time order)
# ---------------------------------------------------------------------

def node_columns(events, null):
    """address -> (first, last, txc, mint) from the timestamps of the
    events each address takes part in.

    A self-loop is one event of its address.  An address is a mint node
    when the event it first takes part in is a transfer to it from `null`.
    """
    times, first_event = {}, {}
    for i, (ts, u, v) in enumerate(events):
        for a in {u, v}:
            times.setdefault(a, []).append(ts)
            first_event.setdefault(a, i)
    out = {}
    for a, ts_list in times.items():
        _, u, v = events[first_event[a]]
        out[a] = (min(ts_list), max(ts_list), len(ts_list),
                  u == null and v == a != u)
    return out


def trader_labels(events, null=None):
    """address -> trader class from the longest gap between the
    timestamps of its events, for addresses with two or more events.

    A self-loop is one event of its address; `null` gets no label.
    Thresholds are right-closed (a 30-day month, a 365-day year).
    Addresses come in the order they first appear, src before dst.
    """
    times = {}
    for ts, u, v in events:
        for a in (u,) if u == v else (u, v):
            times.setdefault(a, []).append(ts)
    out = {}
    for a, ts_list in times.items():
        if a == null or len(ts_list) < 2:
            continue
        gap = max(y - x for x, y in zip(ts_list, ts_list[1:]))
        out[a] = ("daily" if gap <= 86400 else
                  "weekly" if gap <= 7 * 86400 else
                  "monthly" if gap <= 30 * 86400 else
                  "yearly" if gap <= 365 * 86400 else "remaining")
    return out


def token_owner_at(events, contract, token_id, t=None):
    """The address that received a token's latest transfer at or before
    t (any time if None), or None if it has none; `events` are
    TransferEvents."""
    owner = None
    for e in events:
        if ((e.contract, e.token_id) == (contract, token_id)
                and (t is None or e.timestamp <= t)):
            owner = e.to_addr
    return owner


def bot_reports(events, min_run, max_median_interval):
    """`bot_report` rows by trying every window of each (address,
    contract, direction) group's transfers in event order: a window is a
    run if each token id is one more than the one before it and neither
    neighbour extends it; the longest run of at least `min_run` whose
    median gap is within the bound wins, the earliest among equals."""
    groups = {}
    for e in events:
        item = (e.timestamp, e.token_id)
        groups.setdefault((e.from_addr, e.contract, "out"), []).append(item)
        groups.setdefault((e.to_addr, e.contract, "in"), []).append(item)
    reports = []
    for (address, contract, direction), seq in groups.items():
        n = len(seq)
        best = None
        for s in range(n):
            for t in range(s + min_run, n + 1):
                toks = [tok for _ts, tok in seq[s:t]]
                if (any(b - a != 1 for a, b in zip(toks, toks[1:]))
                        or (s > 0 and seq[s][1] - seq[s - 1][1] == 1)
                        or (t < n and seq[t][1] - seq[t - 1][1] == 1)):
                    continue
                gaps = sorted(seq[j][0] - seq[j - 1][0]
                              for j in range(s + 1, t))
                mid = len(gaps) // 2
                median = (gaps[mid] if len(gaps) % 2
                          else (gaps[mid - 1] + gaps[mid]) / 2)
                if median <= max_median_interval and (
                        best is None or t - s > best[1] - best[0]):
                    best = (s, t, median)
        if best is not None:
            s, t, median = best
            reports.append({
                "type": "bot_report", "address": address,
                "contract": contract, "direction": direction,
                "run_length": t - s, "median_interval_seconds": median,
                "first_token_id": seq[s][1], "start_ts": seq[s][0],
                "end_ts": seq[t - 1][0]})
    return sorted(reports, key=lambda r: (r["address"], r["contract"],
                                          r["direction"]))


def mutual_intervals(events, bucket=86400):
    firsts = {}
    for ts, u, v in events:
        if u != v and (u, v) not in firsts:
            firsts[(u, v)] = ts
    hist = {}
    done = set()
    for (u, v), t in firsts.items():
        key = frozenset((u, v))
        if key in done or (v, u) not in firsts:
            continue
        done.add(key)
        b = abs(t - firsts[(v, u)]) // bucket
        hist[b] = hist.get(b, 0) + 1
    return hist


def tea_counts(events, period_of):
    """period_of: ts -> period label; returns label -> (new, recurring)."""
    by_period: dict[object, set] = {}
    order: list[object] = []
    for ts, u, v in events:
        p = period_of(ts)
        if p not in by_period:
            by_period[p] = set()
            order.append(p)
        by_period[p].add((u, v))
    seen: set = set()
    out = {}
    for p in order:
        pairs = by_period[p]
        new = sum(1 for pr in pairs if pr not in seen)
        out[p] = (new, len(pairs) - new)
        seen |= pairs
    return out


def tet_classes(events, split, null):
    """(src, dst) -> "train_only" / "test_only" / "both" for each distinct
    pair of the (ts, src, dst) events without `null` as an endpoint (all
    of them if None): train edges have ts <= split, test edges the rest."""
    times = {}
    for ts, u, v in events:
        if null not in (u, v):
            times.setdefault((u, v), []).append(ts)
    out = {}
    for pair, ts_list in times.items():
        train = any(t <= split for t in ts_list)
        test = any(t > split for t in ts_list)
        out[pair] = ("both" if train and test
                     else "train_only" if train else "test_only")
    return out


def hub_correlation(events, periods, p, null=None):
    """Pearson correlation, over the addresses seen by the end of period
    p, between each one's pair-degree then and the number of distinct
    addresses first seen in period p + 1 that it trades with in that
    period.  Events touching `null` are left out, and so is `null`, but
    first-seen times count every event.

    None without a period p + 1, below two addresses or at zero
    variance; an index outside `periods` is a ValueError.
    """
    if not 0 <= p < len(periods):
        raise ValueError(f"no period {p}")
    if p + 1 == len(periods):
        return None
    end, nxt = periods[p].end_ts, periods[p + 1]
    first = {}
    for ts, u, v in events:
        first.setdefault(u, ts)
        first.setdefault(v, ts)
    kept = [(ts, u, v) for ts, u, v in events if null not in (u, v)]
    nodes = [a for a, ts in first.items() if ts < end and a != null]
    deg = _total_degree(nodes, {(u, v) for ts, u, v in kept if ts < end})
    gained = {a: set() for a in nodes}
    for ts, u, v in kept:
        if nxt.start_ts <= ts < nxt.end_ts:
            for a, b in ((u, v), (v, u)):
                if a in gained and nxt.start_ts <= first[b] < nxt.end_ts:
                    gained[a].add(b)
    n = len(nodes)
    if n < 2:
        return None
    xs = [deg[a] for a in nodes]
    ys = [len(gained[a]) for a in nodes]
    mx, my = Fraction(sum(xs), n), Fraction(sum(ys), n)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    return float(sxy) / math.sqrt(sxx * syy)


def period_index(periods, ts):
    """Index of the period containing ts, by bisection over contiguous
    periods."""
    lo, hi = 0, len(periods) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ts >= periods[mid].end_ts:
            lo = mid + 1
        else:
            hi = mid
    return lo


def growth_rows(events, period_of, null, include_self_loops=True):
    """label -> growth row (the growth_series keys) for every label where a
    node or a pair is new; nodes and pairs touching `null` are left out.

    A node is new at its first event and entered via mint when that event
    is a transfer from `null`; a pair is new at its first kept event and
    bidirectional when its reverse's first kept event comes earlier.
    """
    first = {}
    for k, (_ts, u, v) in enumerate(events):
        for w in (u, v):
            first.setdefault(w, k)
    label_of = {w: period_of(events[k][0]) for w, k in first.items()}
    rows = {}

    def row(label):
        return rows.setdefault(label, {
            "new_nodes": 0, "new_mint_nodes": 0, "new_nonmint_nodes": 0,
            "new_edges": 0, "new_bidirectional_edges": 0,
            "new_self_loops": 0, "mix": [0, 0, 0]})

    for w, k in first.items():
        if w != null:
            r = row(label_of[w])
            r["new_nodes"] += 1
            mint = events[k][1] == null
            r["new_mint_nodes" if mint else "new_nonmint_nodes"] += 1
    kept = [k for k, (_ts, u, v) in enumerate(events)
            if null not in (u, v) and (include_self_loops or u != v)]
    pair_first = {}
    for k in kept:
        pair_first.setdefault(events[k][1:], k)
    for (u, v), k in pair_first.items():
        label = period_of(events[k][0])
        r = row(label)
        r["new_edges"] += 1
        if u == v:
            r["new_self_loops"] += 1
        elif pair_first.get((v, u), k) < k:
            r["new_bidirectional_edges"] += 1
        new_ends = [w for w in (u, v) if label_of[w] == label]
        r["mix"][len(new_ends)] += 1
    for r in rows.values():
        old_old, new_old, new_new = r.pop("mix")
        total = r["new_edges"]
        for key, part in (("pct_edges_old_old", old_old),
                          ("pct_edges_new_old", new_old),
                          ("pct_edges_new_new", new_new)):
            r[key] = float(Fraction(100 * part, total)) if total else 0.0
    return rows


def snapshot_buckets(events, period_of, null=None):
    """label -> (pair stats, new nodes) over the events not touching
    `null` (None keeps every event).

    Pair stats map each pair to (transfers, last timestamp) within the
    period; new nodes are those whose first kept event falls in the
    period, ordered by that event and by source before destination.
    """
    kept = [e for e in events if null is None or null not in e[1:]]
    out = {}
    for label in dict.fromkeys(period_of(ts) for ts, _u, _v in kept):
        in_period = [e for e in kept if period_of(e[0]) == label]
        stats = {}
        for _ts, u, v in in_period:
            times = [ts for ts, a, b in in_period if (a, b) == (u, v)]
            stats[(u, v)] = (len(times), max(times))
        out[label] = (stats, [])
    firsts = {}
    for k, (ts, u, v) in enumerate(kept):
        for side, w in enumerate((u, v)):
            firsts.setdefault(w, (2 * k + side, ts))
    for w, (_pos, ts) in sorted(firsts.items(), key=lambda kv: kv[1]):
        out[period_of(ts)][1].append(w)
    return out


# ---------------------------------------------------------------------
# raw log lines (every field normalized one at a time, no fast path)
# ---------------------------------------------------------------------

RAW_COLUMNS = ("block_number", "block_timestamp", "transaction_hash",
               "log_index", "address", "topics", "data")


def read_transfers(fh):
    """TransferEvents of a normalized CSV stream, one `csv.reader` row at
    a time, with the library's MalformedRecord messages."""
    from nftgraph.errors import MalformedRecord
    from nftgraph.ingest import NORMALIZED_HEADER, TransferEvent
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header != NORMALIZED_HEADER:
            raise MalformedRecord("missing or bad normalized header")
        for row in reader:
            if not row:
                continue
            if len(row) != len(NORMALIZED_HEADER):
                raise MalformedRecord(
                    f"bad normalized row at line {reader.line_num}")
            ts, block, tx_hash, log_index, contract, src, dst, token = row
            try:
                event = TransferEvent(int(ts), int(block), tx_hash,
                                      int(log_index), contract, src, dst,
                                      int(token))
            except ValueError:
                raise MalformedRecord(
                    f"non-numeric field at line {reader.line_num}") from None
            yield event
    except csv.Error as e:
        raise MalformedRecord(
            f"bad csv at line {reader.line_num}: {e}") from None


_TRANSFER_TOPIC = "0x" + keccak256(b"Transfer(address,address,uint256)")
_NULL = "0x" + "0" * 40


def normalize_stream(inputs, now):
    """(stats, contract rows, normalized CSV text) of raw log files read
    one line at a time: each line through ingest.parse_log_line, its
    topics decoded here, the survivors written by csv.writer."""
    from nftgraph.errors import MalformedRecord
    from nftgraph.ingest import NORMALIZED_HEADER, IngestStats, parse_log_line
    stats = IngestStats()
    seen = set()
    events = []
    log_counts = Counter()
    bad_contracts = set()
    for path in inputs:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                if (not line.strip()
                        or line.split(",", 1)[0].strip() == "block_number"):
                    continue
                stats.records_read += 1
                try:
                    block, ts, tx_hash, log_index, contract, topics, _ = (
                        parse_log_line(line, now=now))
                except MalformedRecord:
                    stats.skipped_malformed += 1
                    continue
                if (tx_hash, log_index) in seen:
                    stats.skipped_duplicate += 1
                    continue
                seen.add((tx_hash, log_index))
                topics = topics.split("|")
                if topics[0] != _TRANSFER_TOPIC:
                    stats.skipped_wrong_topic += 1
                    continue
                if len(topics) != 4:
                    log_counts[contract] += 1
                    stats.skipped_non_conforming += 1
                    bad_contracts.add(contract)
                    continue
                src, dst = "0x" + topics[1][-40:], "0x" + topics[2][-40:]
                if src == dst == _NULL:
                    stats.skipped_malformed += 1
                    continue
                log_counts[contract] += 1
                events.append((ts, block, tx_hash, log_index, contract,
                               src, dst, int(topics[3], 16)))
    survivors = [ev for ev in events if ev[4] not in bad_contracts]
    stats.skipped_non_conforming += len(events) - len(survivors)
    survivors.sort(key=lambda ev: (ev[0], ev[1], ev[3]))
    stats.transfers_emitted = len(survivors)
    contracts = [{"contract": c, "erc721": c not in bad_contracts,
                  "log_count": log_counts[c]} for c in sorted(log_counts)]
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(NORMALIZED_HEADER)
    w.writerows(survivors)
    return stats, contracts, out.getvalue()


class Malformed(Exception):
    pass


def _hex_field(value, nbytes=None):
    """Strip, lowercase and 0x-prefix; `nbytes` None is data (any even
    length, JSON null as 0x)."""
    if value is None and nbytes is None:
        return "0x"
    if not isinstance(value, str):
        raise Malformed
    v = value.strip().lower()
    if not v.startswith("0x"):
        v = "0x" + v
    digits = v[2:]
    if nbytes is None:
        ok = len(digits) % 2 == 0
    else:
        ok = len(digits) == 2 * nbytes
    if not ok or re.fullmatch(r"[0-9a-f]*", digits) is None:
        raise Malformed
    return v


def _int_field(value):
    if isinstance(value, bool):
        raise Malformed
    if isinstance(value, float) and not value.is_integer():
        raise Malformed
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise Malformed from None
    if n < 0:
        raise Malformed
    return n


def parse_log_line(line, now, earliest):
    """The seven fields ingest.parse_log_line returns for a raw JSONL or
    CSV line (topics pipe-joined), or None where it must raise
    MalformedRecord."""
    text = line.strip()
    if not text:
        return None
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError):
            return None
        if any(k not in obj for k in RAW_COLUMNS):
            return None
        topics = obj["topics"]
        if not isinstance(topics, list):
            return None
    else:
        try:
            rows = list(csv.reader([text]))
        except csv.Error:
            return None
        if len(rows[0]) != len(RAW_COLUMNS):
            return None
        obj = dict(zip(RAW_COLUMNS, rows[0]))
        topics = [t for t in obj["topics"].split("|") if t != ""]
    if not 1 <= len(topics) <= 4:
        return None
    try:
        ts = _int_field(obj["block_timestamp"])
        if not earliest <= ts <= now:
            return None
        return (_int_field(obj["block_number"]), ts,
                _hex_field(obj["transaction_hash"], 32),
                _int_field(obj["log_index"]),
                _hex_field(obj["address"], 20),
                "|".join(_hex_field(t, 32) for t in topics),
                _hex_field(obj["data"]))
    except Malformed:
        return None


# ---------------------------------------------------------------------
# subgraph matching (plain recursion in query-vertex id order)
# ---------------------------------------------------------------------

def enumerate_embeddings(nodes, pairs, q_n, q_edges, labels=None,
                         q_labels=None):
    """All injective embeddings, assigning query vertices 0..q_n-1 in order."""
    node_list = sorted(nodes)
    results = []

    def ok(assign):
        for x, y in q_edges:
            if x < len(assign) and y < len(assign):
                if (assign[x], assign[y]) not in pairs:
                    return False
        return True

    def rec(assign):
        if len(assign) == q_n:
            results.append(tuple(assign))
            return
        x = len(assign)
        for u in node_list:
            if u in assign:
                continue
            if q_labels is not None and q_labels[x] is not None:
                if (labels or {}).get(u) != q_labels[x]:
                    continue
            assign.append(u)
            if ok(assign):
                rec(assign)
            assign.pop()

    rec([])
    return results


def automorphisms(q_n, q_edges, q_labels=None):
    """The query's self-embeddings that keep every vertex's label."""
    return [m for m in enumerate_embeddings(
        range(q_n), set(q_edges), q_n, q_edges)
        if q_labels is None
        or all(q_labels[i] == q_labels[m[i]] for i in range(q_n))]


def dedup_by_automorphism(q_n, q_edges, mappings, q_labels=None):
    autos = automorphisms(q_n, q_edges, q_labels)
    seen = set()
    out = []
    for m in mappings:
        canon = min(tuple(m[a[i]] for i in range(q_n)) for a in autos)
        if canon not in seen:
            seen.add(canon)
            out.append(m)
    return out


# ---------------------------------------------------------------------
# ML export (snapshots: objects with pair_stats and new_nodes)
# ---------------------------------------------------------------------

def export_csv_texts(snapshots, label_of, task, split_mode, seed,
                     earlystop_fraction):
    """[(edges.csv, nodes.csv)] as text per snapshot, through csv.writer.

    Each snapshot recounts every earlier snapshot's pairs and rewrites
    every node active so far; `label_of` maps a node id to its class.
    """
    out = []
    for i, snap in enumerate(snapshots):
        upto = snapshots[:i + 1]
        degree = Counter(w for s in upto for pair in s.pair_stats
                         for w in pair)
        active = sorted({w for s in upto for w in s.new_nodes})
        header = ["src", "dst", "tx_count", "last_ts"]
        edges = [[u, v, cnt, last] for (u, v), (cnt, last)
                 in sorted(snap.pair_stats.items())]
        if split_mode == "live_update":
            header.append("earlystop")
            rng = random.Random(f"{seed}:es:{i}")
            for row in edges:
                row.append(int(rng.random() < earlystop_fraction))
        if task == "node":
            nodes = [["address_id", "degree", "label"]] + [
                [w, degree[w], label_of.get(w, "")] for w in active]
        else:
            nodes = [["address_id", "feature"]] + [[w, 1] for w in active]
        texts = []
        for rows in ([header] + edges, nodes):
            buf = io.StringIO()
            csv.writer(buf).writerows(rows)
            texts.append(buf.getvalue())
        out.append(tuple(texts))
    return out


def sample_negatives(snapshots, index, k, seed):
    """(u, v) -> k distinct targets drawn with rng.randrange over the nodes
    seen by snapshot `index`, skipping v' of any same-snapshot (u, v');
    None when some positive has fewer than k targets to draw from."""
    snap = snapshots[index]
    eligible = sorted({w for s in snapshots[:index + 1] for w in s.new_nodes})
    rng = random.Random(f"{seed}:{index}")
    out = {}
    for u, v in sorted(snap.pair_stats):
        banned = {b for a, b in snap.pair_stats if a == u}
        if sum(1 for w in eligible if w not in banned) < k:
            return None
        chosen = []
        while len(chosen) < k:
            cand = eligible[rng.randrange(len(eligible))]
            if cand not in banned and cand not in chosen:
                chosen.append(cand)
        out[(u, v)] = chosen
    return out
