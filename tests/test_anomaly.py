import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import CONTRACT, addr, graph_of, make_events, random_events
from nftgraph.anomaly import (HIGH_RATIO, LOW_ACTIVITY, bot_scan,
                              simultaneous_bidirectional, suspicious_pairs)
from nftgraph.graph import TemporalGraph
from nftgraph.ingest import NULL_ADDRESS, TransferEvent


def test_simultaneous_included_and_excluded():
    g = graph_of([(1000, 0, 1), (1060, 1, 0),
                  (5000, 2, 3), (5000 + 2 * 86400, 3, 2)])
    out = simultaneous_bidirectional(g, 86400)
    assert len(out) == 1
    (pair, gap, trades), = out
    assert {g.addresses[i] for i in pair} == {addr(0), addr(1)}
    assert gap == 60
    assert trades == 2


def test_simultaneous_ignores_null_and_self_loops():
    g = graph_of([(1000, NULL_ADDRESS, 0), (1010, 0, NULL_ADDRESS),
                  (2000, 1, 1)])
    assert simultaneous_bidirectional(g) == []
    assert len(simultaneous_bidirectional(g, include_null=True)) == 1


def test_simultaneous_matches_quadratic_scan():
    rng = random.Random(17)
    # a narrow ts_range makes opposing edges share a timestamp (gap 0) and
    # interleaves runs of one direction
    for ts_range, with_null in [((1600000000, 1610000000), False),
                                ((1600000000, 1610000000), True),
                                ((1600000000, 1600000030), False),
                                ((1600000000, 1600000030), True)]:
        for _ in range(25):
            events = random_events(rng, 12, 120, with_null=with_null,
                                   ts_range=ts_range)
            g = TemporalGraph.build(events)
            got = {frozenset(g.addresses[i] for i in pair): (gap, trades)
                   for pair, gap, trades in simultaneous_bidirectional(
                       g, 50000, include_null=with_null)}
            # brute force: all cross-direction |dt| minima per unordered
            # pair, and the pair's edge count in both directions
            ts = {}
            for e in events:
                if e.from_addr != e.to_addr:
                    ts.setdefault((e.from_addr, e.to_addr), []).append(
                        e.timestamp)
            want = {}
            for (u, v) in ts:
                if u < v and (v, u) in ts:
                    gap = min(abs(a - b) for a in ts[(u, v)]
                              for b in ts[(v, u)])
                    if gap <= 50000:
                        want[frozenset((u, v))] = (
                            gap, len(ts[(u, v)]) + len(ts[(v, u)]))
            assert got == want


def test_low_activity_rule():
    # a0 and a1 trade once each way; both have 2 txs < 5
    g = graph_of([(1000, 0, 1), (1060, 1, 0)])
    cands = simultaneous_bidirectional(g)
    (s,) = suspicious_pairs(g, cands)
    assert LOW_ACTIVITY in s["rule_hits"]
    assert s["a_tx_count"] == s["b_tx_count"] == 2


def test_high_ratio_rule_fires_on_either_endpoint():
    # a0: 10 txs, 9 of them with a1 (ratio 0.9); a1 busy elsewhere
    triples = [(1000 + i, 0, 1) for i in range(8)] + [(2000, 1, 0)]
    triples += [(3000 + i, 0, 10 + i) for i in range(1)]
    triples += [(4000 + i, 1, 20 + i) for i in range(40)]
    g = graph_of(triples)
    cands = simultaneous_bidirectional(g)
    (s,) = suspicious_pairs(g, cands)
    assert s["rule_hits"] == (HIGH_RATIO,)
    assert s["a_ratio"] == 0.9 or s["b_ratio"] == 0.9


def test_no_rule_no_flag():
    # both endpoints busy, pair share low
    triples = [(1000, 0, 1), (1060, 1, 0)]
    triples += [(2000 + i, 0, 10 + i) for i in range(10)]
    triples += [(3000 + i, 1, 30 + i) for i in range(10)]
    g = graph_of(triples)
    cands = simultaneous_bidirectional(g)
    assert len(cands) == 1
    assert suspicious_pairs(g, cands) == []


def test_rule_monotonicity():
    rng = random.Random(23)
    for _ in range(10):
        g = TemporalGraph.build(random_events(rng, 10, 80))
        cands = simultaneous_bidirectional(g)

        def low_set(min_tx):
            return {(s["a"], s["b"]) for s in suspicious_pairs(g, cands,
                                                               min_tx=min_tx)
                    if LOW_ACTIVITY in s["rule_hits"]}

        def high_set(ratio):
            return {(s["a"], s["b"]) for s in suspicious_pairs(g, cands,
                                                               ratio=ratio)
                    if HIGH_RATIO in s["rule_hits"]}

        assert low_set(3) <= low_set(5) <= low_set(8)
        assert high_set(0.9) <= high_set(0.8) <= high_set(0.5)


@st.composite
def _trades(draw):
    """Transfers among three wallets and Null: runs of back-and-forth
    trades of one pair, some at one timestamp, some just inside or
    outside a threshold apart, plus random transfers and self-loops."""
    rng = draw(st.randoms(use_true_random=False))
    wallets = [0, 1, 2, NULL_ADDRESS]
    triples = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.sample(wallets, 2)
        ts = rng.randint(0, 5000)
        for _ in range(rng.randint(1, 5)):
            triples.append((ts, a, b))
            ts += rng.choice([0, 4, 5, 6, 600, 601, 4000])
            if rng.random() < 0.7:
                a, b = b, a
    for _ in range(rng.randint(0, 10)):
        triples.append((rng.randint(0, 10000), rng.choice(wallets),
                        rng.choice(wallets)))
    return make_events(triples)


@settings(deadline=None, max_examples=150)
@given(events=_trades(), threshold=st.sampled_from([0, 5, 600, 10 ** 9]),
       min_tx=st.integers(1, 9),
       ratio=st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]),
       include_null=st.booleans())
# a share equal to the bound does not exceed it
@example(events=make_events([(0, 0, 1), (5, 1, 0)]), threshold=600,
         min_tx=1, ratio=1.0, include_null=False)
def test_suspicious_pairs_matches_brute_force(events, threshold, min_tx,
                                              ratio, include_null):
    """Every `suspicious_pair` row recomputed from the raw edges."""
    g = TemporalGraph.build(events)
    got = suspicious_pairs(g, simultaneous_bidirectional(
        g, threshold, include_null=include_null), min_tx, ratio)
    assert got == oracles.suspicious_pairs(events, threshold, min_tx, ratio,
                                           include_null)


def test_bot_run_flagged():
    triples = [(1000 + 120 * i, 5, 100 + i) for i in range(150)]
    g = graph_of(triples)
    # token ids must increase by exactly 1 along the run
    for k in range(g.num_edges):
        g.e_token[k] = 1000 + k
    (r,) = [b for b in bot_scan(g) if b["direction"] == "out"]
    assert r["address"] == addr(5)
    assert r["run_length"] == 150
    assert r["median_interval_seconds"] == 120
    assert r["first_token_id"] == 1000


def test_bot_shuffled_ids_not_flagged():
    rng = random.Random(1)
    ids = list(range(150))
    rng.shuffle(ids)
    triples = [(1000 + 120 * i, 5, 100 + i) for i in range(150)]
    g = graph_of(triples)
    for k in range(g.num_edges):
        g.e_token[k] = ids[k]
    assert bot_scan(g) == []


def test_bot_slow_run_not_flagged():
    triples = [(1000 + 7200 * i, 5, 100 + i) for i in range(150)]
    g = graph_of(triples)
    for k in range(g.num_edges):
        g.e_token[k] = 1000 + k
    assert bot_scan(g) == []


def test_bot_run_below_minimum_not_flagged():
    triples = [(1000 + 120 * i, 5, 100 + i) for i in range(99)]
    g = graph_of(triples)
    for k in range(g.num_edges):
        g.e_token[k] = 1000 + k
    assert bot_scan(g) == []
    assert len(bot_scan(g, min_run=50)) >= 1


def test_bot_scan_keeps_the_first_longest_qualifying_run():
    # a5: two 5-token runs, the later one faster; a6: a 6-token run too
    # slow for the bound, then a qualifying 4-token run
    fives = [(1000, 1000, 20), (5000, 2000, 10)]
    runs = [(5, t0 + gap * i, tok0 + i)
            for t0, tok0, gap in fives for i in range(5)]
    runs += [(6, 10000 + 7200 * i, 3000 + i) for i in range(6)]
    runs += [(6, 60000 + 60 * i, 4000 + i) for i in range(4)]
    runs.sort(key=lambda r: r[1])
    g = graph_of([(ts, u, 100 + k) for k, (u, ts, _tok) in enumerate(runs)])
    for k, (_u, _ts, tok) in enumerate(runs):
        g.e_token[k] = tok
    out = {r["address"]: r for r in bot_scan(g, min_run=3)
           if r["direction"] == "out"}
    assert (out[addr(5)]["run_length"], out[addr(5)]["first_token_id"],
            out[addr(5)]["median_interval_seconds"]) == (5, 1000, 20)
    assert (out[addr(6)]["run_length"], out[addr(6)]["first_token_id"],
            out[addr(6)]["median_interval_seconds"]) == (4, 4000, 60)


@st.composite
def _bot_events(draw):
    """Transfers among a few addresses, Null mints among them, with
    planted +1 token-id runs: fast, too slow for a 600 s median, often of
    the same length for one sender, some sharing timestamps."""
    rng = draw(st.randoms(use_true_random=False))
    wallets = [addr(i) for i in range(4)] + [NULL_ADDRESS]
    contracts = [CONTRACT, "0x" + "c1" * 20]
    rows = []
    for _ in range(rng.randint(0, 6)):
        src, dst = rng.choice(wallets), rng.choice(wallets[:4])
        contract = rng.choice(contracts)
        length = rng.randint(1, 7)
        gap = rng.choice([0, 5, 60, 600, 601, 3600])
        t0, tok0 = rng.randint(0, 20000), rng.randrange(0, 40, 10)
        for copy in range(rng.choice([1, 1, 2])):   # a second, equal run
            for i in range(length):
                rows.append((t0 + copy * 30000 + gap * i + rng.choice(
                    [0, 0, 0, 1, gap]), contract, src, dst, tok0 + i))
    for _ in range(rng.randint(0, 15)):
        rows.append((rng.randint(0, 60000), rng.choice(contracts),
                     rng.choice(wallets), rng.choice(wallets[:4]),
                     rng.randrange(45)))
    rows.sort(key=lambda r: r[0])
    return [TransferEvent(ts, ts // 13, f"0x{k + 1:064x}", k, c, u, v, tok)
            for k, (ts, c, u, v, tok) in enumerate(rows)]


@settings(deadline=None, max_examples=150)
@given(events=_bot_events(), min_run=st.integers(2, 5),
       bound=st.sampled_from([0, 30, 600, 10 ** 9]))
def test_bot_scan_matches_window_oracle(events, min_run, bound):
    assert (bot_scan(TemporalGraph.build(events), min_run, bound)
            == oracles.bot_reports(events, min_run, bound))
