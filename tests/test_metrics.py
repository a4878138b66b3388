import random
import tracemalloc
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import addr, graph_of, make_events, random_events
from nftgraph import metrics
from nftgraph.graph import SimpleDigraph, TemporalGraph, simple_view
from nftgraph.ingest import NULL_ADDRESS, TransferEvent
from nftgraph.metrics import (active_periods, assortativity, avg_clustering,
                              degree_histogram, density, effective_diameter,
                              growth_series, holder_stats, local_clustering, metrics_report,
                              mutual_edge_intervals, reciprocity, tea_tet)
from nftgraph.periods import iter_periods


def view_of(pairs, extra_nodes=()):
    nodes = {u for p in pairs for u in p} | set(extra_nodes)
    return SimpleDigraph(nodes, pairs)


# -- hand anchors ------------------------------------------------------

def test_star_assortativity_is_minus_one():
    assert assortativity(view_of([(0, 1), (0, 2), (0, 3), (0, 4)])) == -1.0


def test_complete_triangle_clustering_is_one():
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    assert avg_clustering(view_of(pairs)) == 1.0


def test_reciprocity_two_thirds():
    assert reciprocity(view_of([(0, 1), (1, 0), (0, 2)])) == pytest.approx(2 / 3)


def test_path_effective_diameter_1_7():
    assert effective_diameter(view_of([(0, 1), (1, 2)])) == pytest.approx(1.7)


def test_complete_graph_effective_diameter_0_9():
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    assert effective_diameter(view_of(pairs)) == pytest.approx(0.9)


def test_density_example():
    assert density(view_of([(0, 1)], extra_nodes=[2])) == pytest.approx(1 / 6)


# -- degenerate cases --------------------------------------------------

def test_assortativity_undefined_on_regular_graph():
    assert assortativity(view_of([(0, 1), (1, 0)])) is None


def test_empty_view_degenerate_values():
    assert assortativity(view_of([], extra_nodes=[0, 1])) is None
    assert reciprocity(view_of([], extra_nodes=[0, 1])) == 0.0
    assert density(view_of([], extra_nodes=[0])) == 0.0
    assert effective_diameter(view_of([], extra_nodes=[0, 1])) is None


def test_clustering_zero_below_two_neighbors():
    v = view_of([(0, 1)])
    assert local_clustering(v, 0) == 0.0
    assert local_clustering(v, 1) == 0.0


def test_degree_histogram_mass():
    rng = random.Random(3)
    for _ in range(20):
        g = TemporalGraph.build(random_events(rng, 20, 60))
        v = simple_view(g)
        assert sum(degree_histogram(v).values()) == v.num_nodes


def test_metrics_report_handles_empty():
    rep = metrics_report(view_of([], extra_nodes=[0, 1]))
    assert rep["nodes"] == 2 and rep["pairs"] == 0
    assert rep["assortativity"] is None
    assert rep["effective_diameter"] is None
    assert rep["reciprocity"] == 0.0


# -- oracle agreement --------------------------------------------------

def test_view_metrics_match_oracles():
    rng = random.Random(11)
    for _ in range(40):
        g = TemporalGraph.build(random_events(rng, 25, 120))
        v = simple_view(g)
        nodes, pairs = v.nodes, v.pairs
        got, want = assortativity(v), oracles.assortativity(nodes, pairs)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)
        assert density(v) == pytest.approx(oracles.density(nodes, pairs),
                                           abs=1e-9)
        assert reciprocity(v) == pytest.approx(oracles.reciprocity(pairs),
                                               abs=1e-9)
        assert avg_clustering(v) == pytest.approx(
            oracles.avg_clustering(nodes, pairs), abs=1e-9)
        want_d = oracles.effective_diameter(nodes, pairs)
        if want_d is None:
            assert effective_diameter(v) is None
        else:
            assert effective_diameter(v) == pytest.approx(want_d, abs=1e-9)


def test_isomorphism_invariance():
    rng = random.Random(5)
    events = random_events(rng, 15, 50)
    g = TemporalGraph.build(events)
    v = simple_view(g)
    perm = list(v.nodes)
    rng.shuffle(perm)
    relabel = dict(zip(sorted(v.nodes), perm))
    v2 = SimpleDigraph({relabel[n] for n in v.nodes},
                       [(relabel[u], relabel[w]) for u, w in v.pairs])
    assert assortativity(v) == assortativity(v2)
    assert avg_clustering(v) == pytest.approx(avg_clustering(v2), abs=1e-12)
    assert reciprocity(v) == reciprocity(v2)
    assert effective_diameter(v) == effective_diameter(v2)


def test_effective_diameter_monotone_under_edge_addition():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(4, 12)
        nodes = set(range(n))
        pairs = [(i, i + 1) for i in range(n - 1)]   # spanning path
        prev = effective_diameter(SimpleDigraph(nodes, pairs))
        for _ in range(15):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in pairs:
                continue
            pairs.append((u, v))
            cur = effective_diameter(SimpleDigraph(nodes, pairs))
            assert cur <= prev + 1e-12
            prev = cur


def test_sampled_diameter_close_to_exact():
    rng = random.Random(2)
    g = TemporalGraph.build(random_events(rng, 40, 300))
    v = simple_view(g)
    exact = effective_diameter(v)
    sampled = effective_diameter(v, exact_threshold=1, sample_sources=15,
                                 seed=4)
    assert abs(sampled - exact) < 1.5


def _kernel_call(monkeypatch, view, **kw):
    """Run effective_diameter; return the undirected adjacency of the view
    (nodes with a neighbour only) and the (sources, counts) of its one
    distance-count kernel call."""
    calls = []
    kernel = metrics._distance_counts

    def spy(v, sources, max_depth):
        counts = kernel(v, sources, max_depth)
        adj = {u: nbrs for u in v.nodes
               if (nbrs := v.undirected_neighbors(u))}
        calls.append((adj, list(sources), counts))
        return counts

    monkeypatch.setattr(metrics, "_distance_counts", spy)
    effective_diameter(view, **kw)
    (call,) = calls
    return call


def _per_source_counts(adj, sources):
    counts = [0]
    for s in sources:
        oracles.bfs_distance_counts(adj, s, counts)
    return counts


def test_exact_kernel_counts_match_per_source_bfs_across_chunks(monkeypatch):
    rng = random.Random(17)
    n = 1300
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    view = SimpleDigraph(range(n + 10), pairs)       # 10 isolated nodes
    adj, sources, counts = _kernel_call(monkeypatch, view)
    assert len(sources) > 1024                       # two source chunks
    assert sources == sorted(adj)
    assert counts == _per_source_counts(adj, sources)


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_sampled_kernel_counts_match_per_source_bfs(monkeypatch, seed):
    rng = random.Random(2)
    pairs = [(rng.randrange(60), rng.randrange(60)) for _ in range(90)]
    view = SimpleDigraph(range(60), pairs)
    adj, sources, counts = _kernel_call(monkeypatch, view, exact_threshold=1,
                                        sample_sources=15, seed=seed)
    assert len(adj) > 15
    assert sources == random.Random(seed).sample(sorted(adj), 15)
    assert counts == _per_source_counts(adj, sources)


@st.composite
def small_views(draw):
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=30))
    return SimpleDigraph(range(n), pairs)    # isolated nodes, self-loops


@settings(deadline=None)
@given(small_views())
def test_effective_diameter_matches_floyd_warshall(view):
    want = oracles.effective_diameter(view.nodes, view.pairs)
    if want is None:
        assert effective_diameter(view) is None
    else:
        assert effective_diameter(view) == pytest.approx(want, abs=1e-9)


# -- stream measurements ----------------------------------------------

def ts(y, m, d, h=0):
    return int(datetime(y, m, d, h, tzinfo=timezone.utc).timestamp())


def test_growth_series_basic():
    g = graph_of([
        (ts(2021, 1, 2), NULL_ADDRESS, 0),
        (ts(2021, 1, 3), 0, 1),
        (ts(2021, 2, 5), 0, 2),
        (ts(2021, 2, 6), 2, 0),
    ])
    series = growth_series(g, "month")
    assert [label for label, _ in series] == ["2021-01", "2021-02"]
    jan, feb = (rec for _, rec in series)
    assert jan["new_nodes"] == 2 and jan["new_mint_nodes"] == 1
    assert jan["new_edges"] == 1
    assert feb["new_nodes"] == 1
    assert feb["new_edges"] == 2
    assert feb["new_bidirectional_edges"] == 1     # 2->0 closes 0->2
    assert feb["pct_edges_new_old"] == 100.0 * 2 / 2
    assert jan["pct_edges_new_new"] == 100.0


def _label_of(g, granularity):
    """The oracle's period bucketing: timestamp -> label by bisection."""
    periods = g.periods(granularity)
    return lambda t: periods[oracles.period_index(periods, t)].label


def _triples(events, include_null=True):
    return [(e.timestamp, e.from_addr, e.to_addr) for e in events
            if include_null or NULL_ADDRESS not in (e.from_addr, e.to_addr)]


@pytest.mark.parametrize("include_self_loops", [True, False])
def test_growth_series_matches_oracle(include_self_loops):
    rng = random.Random(31)
    loops = 0
    for _ in range(30):
        events = random_events(rng, 10, 150, with_null=True)
        loops += sum(e.from_addr == e.to_addr for e in events)
        g = TemporalGraph.build(events)
        for granularity in ("day", "week", "month"):
            rows = growth_series(g, granularity,
                                 include_self_loops=include_self_loops)
            assert [label for label, _ in rows] == \
                [p.label for p in g.periods(granularity)]
            want = oracles.growth_rows(_triples(events),
                                       _label_of(g, granularity),
                                       NULL_ADDRESS, include_self_loops)
            got = {label: row for label, row in rows if any(row.values())}
            assert got.keys() == want.keys()
            for label, row in got.items():
                assert row == pytest.approx(want[label], abs=1e-9)
            # floats even when zero, as the fig1c CSV prints them
            assert all(type(row[k]) is float for _, row in rows
                       for k in row if k.startswith("pct_"))
    assert loops > 0


def test_growth_percentages_sum():
    rng = random.Random(8)
    g = TemporalGraph.build(random_events(rng, 30, 200))
    for _, rec in growth_series(g, "day"):
        if rec["new_edges"]:
            assert rec["pct_edges_new_new"] + rec["pct_edges_new_old"] + \
                rec["pct_edges_old_old"] == pytest.approx(100.0)


def test_mutual_intervals_example_and_oracle():
    g = graph_of([(1000, 0, 1), (1000 + 86400 * 3 + 50, 1, 0)])
    hist, cumulative = mutual_edge_intervals(g)
    assert hist == {3: 1}
    assert cumulative == {3: 1.0}
    # Null edges and self-loops, and the same edges moved to midnight so
    # that opposing first edges share a timestamp
    rng = random.Random(12)
    for _ in range(25):
        events = random_events(rng, 15, 120, with_null=True)
        at_midnight = [e._replace(timestamp=e.timestamp - e.timestamp % 86400)
                       for e in events]
        for events in (events, at_midnight):
            g = TemporalGraph.build(events)
            for include_null in (True, False):
                hist, _ = mutual_edge_intervals(g, include_null=include_null)
                want = oracles.mutual_intervals(_triples(events, include_null))
                assert hist == want


def test_active_periods_spans():
    g = graph_of([
        (1000, 0, 1), (1000 + 3 * 3600, 1, 0),         # same day: span 1
        (5000, 2, 3), (5000 + 86401, 3, 2),            # crosses: span 2
        (9000, 4, 5),                                  # a5 gets 1 tx only? no:
    ])
    hist, avg_tx = active_periods(g)
    # a4/a5 have one tx each and are discarded
    assert hist == {1: 2, 2: 2}
    assert avg_tx[1] == 2.0


def test_holder_stats_replay():
    g = graph_of([(100, NULL_ADDRESS, 0), (200, 0, 1)], token=7)
    assert holder_stats(g) == [(addr(1), 1, 1)]


def _holder_table(events):
    """Every holder's (address, tokens, collections), each token's holder
    from `oracles.token_owner_at`; most tokens first, then most
    collections, ties in address order."""
    held = {}
    for c, t in {(e.contract, e.token_id) for e in events}:
        held.setdefault(oracles.token_owner_at(events, c, t), []).append(c)
    rows = sorted((a, len(cs), len(set(cs))) for a, cs in held.items())
    return sorted(rows, key=lambda r: (r[1], r[2]), reverse=True)  # stable


def test_holder_stats_equals_ledger_replay():
    # 3 collections of 4 token ids each, re-traded among a few addresses
    # and Null: equal token and collection counts are common
    rng = random.Random(28)
    contracts = ["0x" + f"{c:02x}" * 20 for c in (0xc1, 0xc2, 0xc3)]
    ties = 0
    for _ in range(60):
        people = [addr(i) for i in range(rng.randint(1, 8))] + [NULL_ADDRESS]
        stamps = sorted(rng.sample(range(10**9, 10**9 + 10**6),
                                   rng.randint(1, 40)))
        events = [TransferEvent(ts, ts // 13, f"0x{i + 1:064x}", i,
                                rng.choice(contracts), rng.choice(people),
                                rng.choice(people), rng.randrange(4))
                  for i, ts in enumerate(stamps)]
        want = _holder_table(events)
        counts = [r[1:] for r in want]
        ties += len(counts) > len(set(counts))
        g = TemporalGraph.build(events)
        for k in (0, 1, 3, len(want)):
            assert holder_stats(g, top_k=k) == want[:k]
    assert ties >= 10


def _hub_correlation(triples, p):
    """The hub-correlation reference by month, Null left out."""
    events = [(e.timestamp, e.from_addr, e.to_addr)
              for e in make_events(triples)]
    periods = list(iter_periods("month", events[0][0], events[-1][0]))
    return oracles.hub_correlation(events, periods, p, NULL_ADDRESS)


def test_hub_correlation_positive_on_rich_get_richer():
    triples = []
    t = ts(2021, 1, 1)
    # january: hub 0 with 5 links, minor 1 with 1 link
    for i in range(5):
        triples.append((t + i * 3600, 0, 10 + i))
    triples.append((t + 7200, 1, 20))
    # february: hub gains 4 brand-new partners, minor gains 1
    t2 = ts(2021, 2, 1)
    for i in range(4):
        triples.append((t2 + i * 3600, 0, 30 + i))
    triples.append((t2 + 7200, 1, 40))
    assert _hub_correlation(triples, 0) > 0.5


def test_hub_correlation_degenerate():
    # no following period
    assert _hub_correlation([(ts(2021, 1, 1), 0, 1)], 0) is None


def test_hub_correlation_undefined_is_none_and_bad_index_raises():
    # one node in january: below two nodes
    assert _hub_correlation([(ts(2021, 1, 1), 0, 0),
                             (ts(2021, 2, 1), 0, 1)], 0) is None
    # both january nodes have degree 1: zero variance
    triples = [(ts(2021, 1, 1), 0, 1), (ts(2021, 2, 1), 0, 2)]
    assert _hub_correlation(triples, 0) is None
    for index in (-1, 2):
        with pytest.raises(ValueError):
            _hub_correlation(triples, index)


def test_tea_tet_example():
    d1, d2 = ts(2021, 1, 1), ts(2021, 1, 2)
    g = graph_of([(d1, 0, 1), (d2, 0, 1), (d2 + 60, 0, 2)])
    tea, tet = tea_tet(g, "day", split_time=d1 + 3600)
    assert tea[0][1] == {"new": 1, "recurring": 0}
    assert tea[1][1] == {"new": 1, "recurring": 1}
    # a0 -> a1 spans the split, a0 -> a2 comes after it
    assert tet == {"train_only": 0, "test_only": 1, "both": 1}


def test_tea_matches_oracle():
    rng = random.Random(21)
    for _ in range(20):
        events = random_events(rng, 20, 150)
        g = TemporalGraph.build(events)
        tea, _ = tea_tet(g, "day", split_time=0, include_null=True)
        periods = list(iter_periods("day", g.e_ts[0], g.e_ts[-1]))
        want = oracles.tea_counts(
            [(e.timestamp, e.from_addr, e.to_addr) for e in events],
            lambda t: periods[oracles.period_index(periods, t)].label)
        got = {label: (d["new"], d["recurring"]) for label, d in tea}
        assert {k: v for k, v in got.items() if v != (0, 0)} == want


@pytest.mark.parametrize("include_null", [True, False])
def test_tea_with_null_and_self_loops_matches_oracle(include_null):
    rng = random.Random(41)
    for _ in range(25):
        events = random_events(rng, 8, 150, with_null=True)
        # the same edges moved to the start of their day, so that a pair's
        # last edge falls on a period's first second
        at_midnight = [e._replace(timestamp=e.timestamp - e.timestamp % 86400)
                       for e in events]
        for events in (events, at_midnight):
            g = TemporalGraph.build(events)
            for granularity in ("day", "week"):
                tea, _ = tea_tet(g, granularity, split_time=0,
                                 include_null=include_null)
                want = oracles.tea_counts(_triples(events, include_null),
                                          _label_of(g, granularity))
                got = {label: (d["new"], d["recurring"]) for label, d in tea}
                assert {k: v for k, v in got.items() if v != (0, 0)} == want


@pytest.mark.parametrize("include_null", [True, False])
def test_tet_classes_match_oracle(include_null):
    """Repeated pairs, self-loops and Null edges, with the split before,
    inside and after the span."""
    rng = random.Random(43)
    classes, loops = set(), 0
    for _ in range(25):
        events = random_events(rng, 6, 120, with_null=True,
                               ts_range=(1600000000, 1600400000))
        loops += sum(e.from_addr == e.to_addr for e in events)
        g = TemporalGraph.build(events)
        first, last = g.e_ts[0], g.e_ts[-1]
        for split in (first - 1, first, rng.randint(first, last), last - 1,
                      last):
            _, got = tea_tet(g, "day", split, include_null=include_null)
            want = Counter(dict.fromkeys(("train_only", "test_only", "both"),
                                         0))
            want.update(oracles.tet_classes(
                [(e.timestamp, e.from_addr, e.to_addr) for e in events],
                split, None if include_null else NULL_ADDRESS).values())
            assert got == want
            classes.update(c for c, n in want.items() if n)
    assert classes == {"train_only", "test_only", "both"} and loops


# -- memory -------------------------------------------------------------

def test_metrics_memory_per_edge(tmp_path):
    """metrics' peak of traced allocations on 20k uniform transfers by
    day, split at the middle, stays below 550 B per edge: the loaded
    graph, one simple view and one stream measurement's pair table,
    about 460 B (660 B when the first view is still held while the
    second is built and tea_tet keeps a [first, last] list per pair)."""
    from nftgraph import cli
    from nftgraph.fixture import write_fixture
    src = str(tmp_path / "transfers.csv")
    write_fixture("uniform", 1, 20_000, src)
    with open(src) as fh:
        fh.readline()
        stamps = [int(line.split(",", 1)[0]) for line in fh]
    mid = (stamps[0] + stamps[-1]) // 2
    tracemalloc.start()
    try:
        rc = cli.main(["metrics", "--input", src,
                       "--out-dir", str(tmp_path / "m"),
                       "--granularity", "day", "--split-time", str(mid),
                       "--diameter-exact-threshold", "300",
                       "--diameter-sources", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert (tmp_path / "m" / "tea.csv").is_file()
    assert peak / 20_000 < 550
