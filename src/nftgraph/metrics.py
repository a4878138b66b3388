"""Structural and dynamic measurements over temporal-graph views.

View-level metrics (assortativity, density, reciprocity, clustering,
effective diameter, degree histogram) take a SimpleDigraph and return the
value the report records, also on a degenerate view: None where the
metric is undefined, 0.0 where it is empty.  Stream-level measurements
(growth, mutual-edge intervals, active periods, holder statistics,
TEA/TET) take the TemporalGraph plus a calendar granularity;
per-period series are lists of (label, row).  Everything here is a pure
function of immutable inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from operator import itemgetter

from .graph import SimpleDigraph, TemporalGraph
from .periods import DAY, tag_periods


# ---------------------------------------------------------------------
# view-level metrics
# ---------------------------------------------------------------------

def assortativity(view: SimpleDigraph) -> float | None:
    """Degree correlation across edge endpoints; None when 0/0.

    Computed in exact integer arithmetic so that regular graphs come out
    as genuinely undefined instead of float noise.  None without pairs.
    """
    m = view.num_edges
    if m == 0:
        return None
    degree = view.degree
    s_kk = s_sum = s_sq = 0
    for u, succ in view.out.items():
        ki = degree(u)
        for v in succ:
            kj = degree(v)
            s_kk += ki * kj
            s_sum += ki + kj
            s_sq += ki * ki + kj * kj
    num = 4 * m * s_kk - s_sum * s_sum
    den = 2 * m * s_sq - s_sum * s_sum
    if den == 0:
        return None
    return num / den


def density(view: SimpleDigraph) -> float:
    """Pairs over ordered node pairs; 0.0 below two nodes."""
    n = view.num_nodes
    if n < 2:
        return 0.0
    return view.num_edges / (n * (n - 1))


def reciprocity(view: SimpleDigraph) -> float:
    """Share of pairs whose reverse is a pair too; 0.0 without pairs."""
    if view.num_edges == 0:
        return 0.0
    out = view.out
    mutual = sum(1 for u, succ in out.items() for v in succ
                 if u in out.get(v, ()))
    return mutual / view.num_edges


def local_clustering(view: SimpleDigraph, node: int) -> float:
    nbrs = view.undirected_neighbors(node)
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for j in nbrs:
        succ = view.out.get(j, ())
        links += len(nbrs.intersection(succ))
        if j in succ:
            links -= 1  # self-loops are not neighbor-to-neighbor links
    return links / (k * (k - 1))


def avg_clustering(view: SimpleDigraph) -> float:
    if view.num_nodes == 0:
        return 0.0
    return sum(local_clustering(view, u) for u in view.nodes) / view.num_nodes


def degree_histogram(view: SimpleDigraph) -> dict[int, int]:
    hist: Counter = Counter()
    for u in view.nodes:
        hist[view.degree(u)] += 1
    return dict(hist)


# Sources per bit-parallel BFS pass; bounds each per-vertex mask to 1024 bits.
_CHUNK = 1024


def _distance_counts(view: SimpleDigraph, sources: list[int],
                     max_depth: int) -> list[int]:
    """counts[d] = ordered (source, target) pairs at undirected distance
    1 <= d <= max_depth.

    Bit-parallel BFS: source i of a chunk owns bit 1 << i, so one level
    ORs each frontier vertex's mask into its out- and in-neighbours (a
    self-loop or a mutual pair ORs bits already set) and counts the
    newly set bits.  `sources` must be distinct nodes of `view`.
    """
    counts = [0]
    for start in range(0, len(sources), _CHUNK):
        frontier = {s: 1 << i
                    for i, s in enumerate(sources[start:start + _CHUNK])}
        seen = dict(frontier)
        for d in range(1, max_depth + 1):
            if not frontier:
                break
            nxt: dict[int, int] = {}
            get = nxt.get
            for adj in (view.out, view.in_):
                for u, bits in frontier.items():
                    for w in adj.get(u, ()):
                        nxt[w] = get(w, 0) | bits
            frontier = {}
            reached = 0
            for w, bits in nxt.items():
                old = seen.get(w, 0)
                new = bits & ~old
                if new:
                    frontier[w] = new
                    seen[w] = old | new
                    reached += new.bit_count()
            if reached:             # reached at d implies reached at d - 1
                if len(counts) <= d:
                    counts.append(0)
                counts[d] += reached
    return counts


def effective_diameter(view: SimpleDigraph, *, exact_threshold: int = 10000,
                       sample_sources: int = 1000,
                       seed: int = 0) -> float | None:
    """Interpolated 90th-percentile shortest-path length, undirected.

    Exact all-sources BFS up to `exact_threshold` nodes, otherwise BFS from
    `sample_sources` seeded-random sources.  Both run one bit-parallel BFS
    over chunks of up to 1024 sources, each source one bit of a per-vertex
    int.  The fraction g(d) of reachable ordered pairs within distance d is
    linearly interpolated at 0.9 (g(0) = 0, so a complete graph yields 0.9).
    None when no node reaches another.
    """
    degree, out = view.degree, view.out
    # the nodes with a neighbour other than themselves
    linked = sorted(u for u in view.nodes
                    if degree(u) > 2 * (u in out.get(u, ())))
    if not linked:
        return None
    sources = linked
    if len(view.nodes) > exact_threshold and len(linked) > sample_sources:
        rng = random.Random(seed)
        sources = rng.sample(linked, sample_sources)
    # a shortest path visits each linked node at most once
    counts = _distance_counts(view, sources, len(linked) - 1)
    total = sum(counts)
    cum = 0
    g_prev = 0.0
    for d in range(1, len(counts)):
        cum += counts[d]
        g = cum / total
        if g >= 0.9:
            return (d - 1) + (0.9 - g_prev) / (g - g_prev)
        g_prev = g
    return float(len(counts) - 1)


def metrics_report(view: SimpleDigraph, *, diameter_exact_threshold: int = 10000,
                   diameter_sources: int = 1000, seed: int = 0) -> dict:
    """Every view-level metric by report key; histogram keys are sorted
    decimal strings."""
    return {
        "assortativity": assortativity(view),
        "density": density(view),
        "reciprocity": reciprocity(view),
        "avg_clustering": avg_clustering(view),
        "effective_diameter": effective_diameter(
            view, exact_threshold=diameter_exact_threshold,
            sample_sources=diameter_sources, seed=seed),
        "degree_histogram": {str(k): v for k, v in
                             sorted(degree_histogram(view).items())},
    }


# ---------------------------------------------------------------------
# stream-level measurements
# ---------------------------------------------------------------------

_GROWTH_COUNTS = ("new_nodes", "new_mint_nodes", "new_nonmint_nodes",
                  "new_edges", "new_bidirectional_edges", "new_self_loops")


def growth_series(g: TemporalGraph, granularity: str, *,
                  include_self_loops: bool = True) -> list[tuple[str, dict]]:
    """Per-period (label, row) of new-node and new-edge counts plus the
    `pct_edges_*` mix; "new" means first seen in the period.

    The Null address and its edges are left out.

    Edges are counted as distinct ordered pairs at their first occurrence.
    A pair is bidirectional-new in the period where its reverse direction
    completes.
    """
    periods = g.periods(granularity)
    rows = [dict.fromkeys(_GROWTH_COUNTS, 0) for _ in periods]
    for p, (i, _first) in tag_periods(periods, enumerate(g.n_first)):
        if i != g.null_id:
            rows[p]["new_nodes"] += 1
            rows[p]["new_mint_nodes" if g.n_mint[i]
                    else "new_nonmint_nodes"] += 1

    seen_pairs: set[tuple[int, int]] = set()
    mix = [[0, 0, 0] for _ in periods]  # new pairs by new endpoints 0-2
    n_first, starts = g.n_first, [period.start_ts for period in periods]
    for p, (u, v, _ts) in tag_periods(periods, g.edges(
            include_null=False, include_self_loops=include_self_loops)):
        if (u, v) in seen_pairs:
            continue
        seen_pairs.add((u, v))
        row = rows[p]
        row["new_edges"] += 1
        if u == v:
            row["new_self_loops"] += 1
        elif (v, u) in seen_pairs:
            row["new_bidirectional_edges"] += 1
        # an endpoint is new in p unless first seen before p's start
        mix[p][(n_first[u] >= starts[p]) + (n_first[v] >= starts[p])] += 1

    for row, counts in zip(rows, mix):
        n = row["new_edges"]
        for key, c in zip(("pct_edges_old_old", "pct_edges_new_old",
                           "pct_edges_new_new"), counts):
            row[key] = 100.0 * c / n if n else 0.0
    return [(p.label, row) for p, row in zip(periods, rows)]


def mutual_edge_intervals(g: TemporalGraph, *, include_null: bool = False):
    """Histogram of |t_uv - t_vu| between earliest opposing edges.

    Returns (histogram bucket->count, cumulative bucket->fraction) with
    one bucket per whole day.
    """
    first_ts: dict[tuple[int, int], int] = {}
    for u, v, ts in g.edges(include_null=include_null,
                            include_self_loops=False):
        first_ts.setdefault((u, v), ts)
    hist: Counter = Counter()
    for (u, v), t in first_ts.items():
        if u < v and (v, u) in first_ts:
            hist[abs(t - first_ts[(v, u)]) // DAY] += 1
    total = sum(hist.values())
    cumulative: dict[int, float] = {}
    if total:
        running = 0
        for bucket in sorted(hist):
            running += hist[bucket]
            cumulative[bucket] = running / total
    return dict(hist), cumulative


def active_periods(g: TemporalGraph):
    """Day-span histogram of node activity, 1-based.

    Nodes with a single transaction, and the Null address, are discarded.
    A span of 1 means the first and last transaction fall within the same
    24h of each other.
    Also returns the mean transaction count per span.
    """
    hist: Counter = Counter()
    tx_sums: Counter = Counter()
    for i in range(g.num_nodes):
        if g.n_txc[i] < 2 or i == g.null_id:
            continue
        span = (g.n_last[i] - g.n_first[i]) // DAY + 1
        hist[span] += 1
        tx_sums[span] += g.n_txc[i]
    avg_tx = {span: tx_sums[span] / hist[span] for span in hist}
    return dict(hist), avg_tx


def holder_stats(g: TemporalGraph, top_k: int = 10):
    """Replay the token ledger.

    An account holds a token iff it received the token's latest transfer.
    Returns the top-k (address, token_count, collection_count) rows by
    token count, then collection count, both descending, then address.
    The Null address is included: what it "holds" are destroyed tokens.
    """
    owner = dict(zip(zip(g.e_contract, g.e_token), g.e_dst))
    tokens = Counter(owner.values())
    # one (contract, holder) pair per collection a holder has a token of
    collections = Counter(map(itemgetter(1), set(zip(
        map(itemgetter(0), owner), owner.values()))))
    rows = [(g.addresses[i], n, collections[i]) for i, n in tokens.items()]
    return sorted(rows, key=lambda r: (-r[1], -r[2], r[0]))[:top_k]


def tea_tet(g: TemporalGraph, granularity: str, split_time: int, *,
            include_null: bool = False):
    """TEA per-period (label, {"new", "recurring"} pair counts) and
    per-pair TET classes.

    A pair is recurring in a period when it was observed in any earlier
    period.  TET classes each distinct pair as train_only / test_only /
    both relative to split_time (train: ts <= split_time).
    """
    periods = g.periods(granularity)
    counts = [{"new": 0, "recurring": 0} for _ in periods]
    seen: dict[tuple[int, int], list[int]] = {}  # [first ts, last ts]
    for p, (u, v, ts) in tag_periods(periods,
                                     g.edges(include_null=include_null)):
        rec = seen.get((u, v))
        if rec is None:
            seen[u, v] = [ts, ts]
            counts[p]["new"] += 1
            continue
        if rec[1] < periods[p].start_ts:    # last seen in an earlier period
            counts[p]["recurring"] += 1
        rec[1] = ts
    tea = [(period.label, row) for period, row in zip(periods, counts)]
    tet: dict[tuple[int, int], str] = {}
    for pair, (first, last) in seen.items():
        if first <= split_time < last:
            tet[pair] = "both"
        elif last <= split_time:
            tet[pair] = "train_only"
        else:
            tet[pair] = "test_only"
    return tea, tet
