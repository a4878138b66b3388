import itertools
import random
import time
from collections import Counter
from operator import itemgetter

import pytest

import oracles
from conftest import csm_context
from nftgraph import csm
from nftgraph.csm import (BUILTIN_PATTERNS, StreamGraph, assign_labels,
                          builtin_patterns, parse_query, run_stream)
from nftgraph.errors import DataError, TimeLimitExceeded


def stream_matches(pairs, q, labels=None):
    """Every mapping reported while `pairs` are inserted one by one into
    a context over an empty initial graph: all of q's embeddings in the
    final graph, since each uses some inserted pair."""
    _ctx, insert = csm_context(q, (), labels)
    return sorted(m for t, (u, v) in enumerate(pairs)
                  for m in insert(u, v, t))


P1 = parse_query(BUILTIN_PATTERNS["p1"], "p1")
P2 = parse_query(BUILTIN_PATTERNS["p2"], "p2")


# -- parsing -----------------------------------------------------------

def test_parse_basic_cycle():
    q = parse_query("v 0 *; v 1 *; v 2 *; e 0 1; e 1 2; e 2 0")
    assert q.num_vertices == 3
    assert set(q.edges) == {(0, 1), (1, 2), (2, 0)}


def test_parse_labels_and_comments():
    q = parse_query("# a labeled edge\nv 0 4\nv 1 *\ne 0 1  # tail comment")
    assert q.labels == (4, None)


def test_parse_comment_hides_later_statements_on_its_line():
    q = parse_query("v 0 *; v 1 *; e 0 1  # like p2; e 1 0")
    assert q.edges == ((0, 1),)


def test_parse_single_vertex_ok():
    q = parse_query("v 0 *")
    assert q.num_vertices == 1 and q.edges == ()


_BAD_QUERIES = {
    "": "query has no vertices",
    "v 0 *; v 2 *; e 0 2": "vertex ids must be 0..n-1",
    "v 0 *; v 1 *; e 0 1; e 0 1": "duplicate edge 0->1",
    "v 0 *; v 0 *": "duplicate vertex 0",
    "v 0 *; v 1 *": "query is disconnected",
    "v 0 *; v 1 *; e 0 5": "edge references unknown vertex 0->5",
    "w 0 *": "unparseable statement 'w 0",
    "v x *": "bad vertex id 'x'",
    "v 0 abc": "bad label 'abc'",
    "v 0 *; v 1 *; e 0 x": "bad edge endpoints",
    "; ".join(f"v {i} *" for i in range(17)) + "; "
    + "; ".join(f"e {i} {i + 1}" for i in range(16)): "more than 16 vertices",
}


@pytest.mark.parametrize("text", list(_BAD_QUERIES))
def test_parse_rejects(text):
    with pytest.raises(DataError, match=_BAD_QUERIES[text]):
        parse_query(text)


def test_builtin_patterns_valid():
    pats = builtin_patterns()
    assert [p.name for p in pats] == ["p1", "p2", "p3", "p4", "p5"]


# -- matching from an empty initial graph -----------------------------

def test_static_cycle_counts():
    found = stream_matches([(0, 1), (1, 2), (2, 0)], P1)
    assert len(found) == 3
    assert len(oracles.dedup_by_automorphism(3, P1.edges, found)) == 1


def test_static_two_cycle_on_dag():
    assert stream_matches([(0, 1), (1, 2), (0, 2)], P2) == []


def test_static_single_edge_counts_pairs():
    q = parse_query("v 0 *; v 1 *; e 0 1")
    assert len(stream_matches([(0, 1), (1, 2), (3, 4)], q)) == 3


def test_trivial_pattern_matches_no_insert():
    # a pattern without edges uses no inserted pair, so it never matches
    ctx, insert = csm_context(parse_query("v 0 *"))
    assert ctx._plans == []
    assert insert(0, 1, 1) == [] and insert(5, 5, 2) == []
    assert (ctx.match_count, ctx.dedup_count, ctx.timed_out) == (0, 0, False)


def test_static_respects_labels():
    q = parse_query("v 0 7; v 1 *; e 0 1")
    found = stream_matches([(0, 1), (1, 0)], q, labels={0: 7, 1: 3})
    assert found == [(0, 1)]


def test_static_self_loop_query():
    q = parse_query("v 0 *; e 0 0")
    assert stream_matches([(0, 0), (0, 1)], q) == [(0,)]


def test_static_matches_oracle_on_random_graphs():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(3, 12)
        pairs = list(dict.fromkeys((rng.randrange(n), rng.randrange(n))
                                   for _ in range(30)))
        nodes = {w for pair in pairs for w in pair}
        for q in builtin_patterns():
            want = sorted(oracles.enumerate_embeddings(
                nodes, set(pairs), q.num_vertices, q.edges))
            assert stream_matches(pairs, q) == want


# -- incremental matching ----------------------------------------------

def test_initial_graph_reports_nothing():
    ctx, _insert = csm_context(P1, [(0, 1, 10), (1, 2, 20), (2, 0, 30)])
    assert ctx.match_count == 0


def test_insert_completing_cycle():
    ctx, insert = csm_context(P1, [(0, 1, 10), (1, 2, 20)])
    matches = insert(2, 0, 30)
    assert len(matches) == 3
    assert ctx.match_count == 3
    assert ctx.dedup_count == 1
    for m in matches:
        # the trigger edge is part of the embedding
        edges = {(m[x], m[y]) for x, y in P1.edges}
        assert (2, 0) in edges


def test_reinsert_existing_pair_is_noop():
    _ctx, insert = csm_context(P2, [(0, 1, 10)])
    assert insert(0, 1, 99) == []
    assert insert(1, 0, 100) != []
    assert insert(1, 0, 101) == []
    # a pair expired from a window stays out of the graph when re-inserted
    ctx, insert = csm_context(P2, [(0, 1, 10)], window=50)
    assert insert(5, 6, 100) == [] and ctx.graph.pairs == {(5, 6)}
    assert insert(0, 1, 101) == [] and ctx.graph.pairs == {(5, 6)}
    assert insert(1, 0, 102) == []


def test_window_filter():
    initial = [(0, 1, 0), (1, 2, 1000)]
    ctx, insert = csm_context(P1, initial, window=1800)
    assert insert(2, 0, 3600) == []      # span 3600 > 1800
    assert ctx.graph.pairs == {(2, 0)}
    _ctx, insert = csm_context(P1, initial, window=3600)
    assert len(insert(2, 0, 3600)) == 3


def test_stream_graph_holds_the_pairs_inside_the_window():
    """After each insert the graph holds exactly the pairs first inserted
    at or after the latest timestamp minus the window, and a pair is
    yielded only at its first insert; repeated timestamps and pairs,
    self-loops and re-inserts after expiry included."""
    rng = random.Random(149)
    for window in (None, 0, 5, 30, 10**9):
        for _ in range(20):
            n = rng.randint(1, 6)
            edges, t = [], 0
            for _ in range(rng.randint(0, 60)):
                t += rng.choice([0, 0, 1, 5, 20])
                edges.append((rng.randrange(n), rng.randrange(n), t))
            data, first = StreamGraph(window), {}
            for u, v, t in edges:
                new = (u, v) not in first
                first.setdefault((u, v), t)
                assert list(data.new_pairs([(u, v, t)])) == \
                    ([(u, v)] if new else [])
                want = {p for p, t0 in first.items()
                        if window is None or t0 >= t - window}
                assert data.graph.pairs == want
                assert data.graph.num_edges == len(want)
            # the same stream fed in one call ends in the same graph
            whole = StreamGraph(window)
            assert list(whole.new_pairs(edges)) == list(first)
            assert whole.graph.pairs == data.graph.pairs
    with pytest.raises(ValueError, match="negative window -1"):
        StreamGraph(-1)


@pytest.mark.parametrize("window", [None, 100])
def test_run_stream_rejects_a_timestamp_going_down(window):
    with pytest.raises(DataError, match="stream timestamp 15 after 20"):
        run_stream([(0, 1, 10)], [(1, 2, 20), (2, 0, 15)],
                   builtin_patterns(), window=window)
    with pytest.raises(DataError, match="stream timestamp 5 after 10"):
        run_stream([(0, 1, 10)], [(1, 2, 5)], builtin_patterns(),
                   window=window)


def test_time_limit_flags_and_raises():
    ctx, insert = csm_context(P1, time_limit_ms=0.0)
    assert ctx.timed_out
    with pytest.raises(TimeLimitExceeded):
        insert(0, 1, 1)


def test_time_limit_bounds_automorphism_enumeration():
    # a 9-leaf out-star has 9! automorphisms, far more than 50 ms finds
    star = parse_query("; ".join(f"v {i} *" for i in range(10)) + "; "
                       + "; ".join(f"e 0 {i}" for i in range(1, 10)))
    ctx, insert = csm_context(star, time_limit_ms=50.0)
    assert ctx.autos == [] and ctx._plans == []
    assert ctx.elapsed_ms > 50.0 and ctx.timed_out
    with pytest.raises(TimeLimitExceeded):
        insert(0, 1, 1)


def test_time_limit_bounds_a_single_insert():
    p3 = parse_query(BUILTIN_PATTERNS["p3"], "p3")
    complete = [(a, b, 1) for a in range(12) for b in range(12)
                if a != b and (a, b) != (0, 1)]
    _ctx, insert = csm_context(p3, complete)
    assert len(insert(0, 1, 2)) == 360
    ctx, insert = csm_context(p3, complete, time_limit_ms=0.0)
    assert ctx.timed_out
    with pytest.raises(TimeLimitExceeded):
        insert(0, 1, 2)
    assert ctx.match_count == 0
    # a context that has its plans, with the budget running out in the
    # search: the insert is abandoned
    ctx, insert = csm_context(p3, complete)
    ctx.time_limit_ms = ctx.elapsed_ms
    assert ctx._plans and insert(0, 1, 2) == []
    assert ctx.match_count == 0
    assert ctx.timed_out


def out_star(leaves):
    return parse_query("; ".join(f"v {i} *" for i in range(leaves + 1))
                       + "; " + "; ".join(f"e 0 {i}"
                                          for i in range(1, leaves + 1)),
                       f"star{leaves}")


def test_automorphism_count_is_capped(monkeypatch):
    assert len(csm_context(out_star(8))[0].autos) == 40320   # 8!
    with pytest.raises(DataError, match="star9"):
        csm_context(out_star(9))                             # 9! = 362880
    monkeypatch.setattr(csm, "MAX_AUTOMORPHISMS", 24)
    assert len(csm_context(out_star(4))[0].autos) == 24      # 4!
    monkeypatch.setattr(csm, "MAX_AUTOMORPHISMS", 23)
    with pytest.raises(DataError, match="more than 23 automorphisms"):
        csm_context(out_star(4))


def _random_stream(rng, max_nodes=30, max_inserts=200):
    n = rng.randint(3, max_nodes)
    total = rng.randint(5, max_inserts)
    cut = rng.randint(0, total)
    edges = [(rng.randrange(n), rng.randrange(n), t * 10)
             for t in range(total)]
    return edges[:cut], edges[cut:]


def _expected_deltas(initial, stream, q):
    """Static matches on the final graph that use at least one stream pair."""
    init_pairs = {(u, v) for u, v, _ in initial}
    all_pairs = init_pairs | {(u, v) for u, v, _ in stream}
    nodes = {x for p in all_pairs for x in p}
    full = oracles.enumerate_embeddings(nodes, all_pairs, q.num_vertices,
                                        q.edges)
    new_pairs = all_pairs - init_pairs
    out = []
    for m in full:
        used = {(m[x], m[y]) for x, y in q.edges}
        if used & new_pairs:
            out.append(m)
    return out


def test_delta_correctness_random_streams():
    rng = random.Random(41)
    for _ in range(12):
        initial, stream = _random_stream(rng, 15, 60)
        for q in builtin_patterns():
            ctx, insert = csm_context(q, initial)
            seen = []
            prev_count = 0
            for u, v, t in stream:
                got = insert(u, v, t)
                assert ctx.match_count >= prev_count   # monotone
                prev_count = ctx.match_count
                seen.extend(got)
            want = _expected_deltas(initial, stream, q)
            assert sorted(seen) == sorted(want)
            assert len(seen) == len(set(seen))         # no duplicate deltas
            want_dedup = oracles.dedup_by_automorphism(
                q.num_vertices, q.edges, sorted(want))
            assert ctx.dedup_count == len(want_dedup)


def test_label_pool_one_equals_wildcard():
    rng = random.Random(55)
    initial, stream = _random_stream(rng, 12, 60)
    plain = run_stream(initial, stream, builtin_patterns())
    labeled = run_stream(initial, stream, builtin_patterns(),
                         label_pool=1, seed=3)
    assert [(r["matches"], r["matches_dedup"]) for r in plain] == \
        [(r["matches"], r["matches_dedup"]) for r in labeled]


def test_labels_restrict_matches():
    # one 3-cycle; labels chosen so only some rotations survive
    q = parse_query("v 0 2; v 1 *; v 2 *; e 0 1; e 1 2; e 2 0")
    initial = [(0, 1, 1), (1, 2, 2)]
    stream = [(2, 0, 3)]
    labels = {0: 2, 1: 5, 2: 5}
    _ctx, insert = csm_context(q, initial, labels)
    got = insert(*stream[0])
    assert got == [(0, 1, 2)]


def test_run_stream_isolated_queries():
    initial = [(0, 1, 1), (1, 2, 2)]
    stream = [(2, 0, 3), (1, 0, 4)]
    results = run_stream(initial, stream, builtin_patterns())
    by_name = {r["query"]: r for r in results}
    assert by_name["p1"]["matches"] == 3
    assert by_name["p1"]["matches_dedup"] == 1
    assert by_name["p2"]["matches"] == 2
    assert not any(r["timed_out"] for r in results)


def test_run_stream_takes_one_automorphism_result_per_query():
    initial = [(0, 1, 1), (1, 2, 2)]
    stream = [(2, 0, 3), (1, 0, 4)]
    queries = builtin_patterns()
    autos = [csm.timed_automorphisms(q, 3.6e6) for q in queries]
    key = itemgetter("query", "matches", "matches_dedup", "timed_out")
    assert [key(r) for r in run_stream(initial, stream, queries,
                                       automorphisms=autos)] == \
        [key(r) for r in run_stream(initial, stream, queries)]
    for wrong in (autos[:-1], autos + autos[:1], []):
        with pytest.raises(DataError, match="automorphism results for"):
            run_stream(initial, stream, queries, automorphisms=wrong)


def test_run_stream_empty_stream():
    results = run_stream([(0, 1, 1), (1, 0, 2)], [], builtin_patterns())
    assert all(r["matches"] == 0 for r in results)


def test_relabeling_data_vertices_preserves_counts():
    rng = random.Random(71)
    initial, stream = _random_stream(rng, 12, 50)
    mapping = {}

    def relab(x):
        return mapping.setdefault(x, 1000 + len(mapping) * 7)

    initial2 = [(relab(u), relab(v), t) for u, v, t in initial]
    stream2 = [(relab(u), relab(v), t) for u, v, t in stream]
    a = run_stream(initial, stream, builtin_patterns())
    b = run_stream(initial2, stream2, builtin_patterns())
    assert [(r["matches"], r["matches_dedup"]) for r in a] == \
        [(r["matches"], r["matches_dedup"]) for r in b]


# -- symmetry breaking -------------------------------------------------

def test_one_plan_per_query_edge_orbit():
    # |Aut| is 3/2/4/1/2, so p1-p3 have one edge orbit each, p4's four
    # edges are four orbits and p5 has {0->1}, {1->2, 1->3}, {2->0, 3->0}
    assert [len(csm_context(q)[0]._plans) for q in builtin_patterns()] == \
        [1, 1, 1, 4, 3]


# queries whose edge stabilisers are nontrivial, so that one plan finds
# a class more than once per insert
SYMMETRIC_QUERIES = [
    "v 0 *; v 1 *; v 2 *; v 3 *; e 0 1; e 0 2; e 0 3",        # out-star
    "v 0 *; v 1 *; v 2 *; e 0 1; e 1 0; e 1 2; e 2 1; e 2 0; e 0 2",
    "v 0 *; v 1 *; v 2 *; e 0 1; e 0 2; e 0 0",                # looped hub
    "v 0 1; v 1 *; v 2 *; v 3 *; e 0 1; e 0 2; e 0 3; e 1 1; e 2 2",
    "v 0 *; v 1 *; v 2 *; v 3 *; e 0 1; e 0 2; e 1 3; e 2 3",  # diamond
    "v 0 *; v 1 0; v 2 0; v 3 1; e 0 1; e 0 2; e 0 3",         # labeled star
    "v 0 *; v 1 *; e 0 1; e 1 0; e 0 0; e 1 1",
]


def _random_query(rng):
    """A connected query on at most 5 vertices with wildcard and fixed
    labels and self-loops.  Half of them are closed under a random vertex
    permutation, which is then an automorphism."""
    while True:
        n = rng.randint(1, 5)
        pairs = set()
        for _ in range(rng.randint(1, n + 1)):
            x = rng.randrange(n)
            pairs.add((x, x) if rng.random() < 0.15
                      else (x, rng.choice([y for y in range(n) if y != x]
                                          or [x])))
        labels = [rng.choice(["*", "*", "0", "1"]) for _ in range(n)]
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            for _ in range(n):
                pairs |= {(perm[x], perm[y]) for x, y in pairs}
            for x in range(n):          # labels constant on perm's cycles
                y = perm[x]
                while y != x:
                    labels[y], y = labels[x], perm[y]
        text = "; ".join([*(f"v {i} {lab}" for i, lab in enumerate(labels)),
                          *(f"e {x} {y}" for x, y in sorted(pairs))])
        try:
            return parse_query(text, "random")
        except DataError:               # disconnected
            continue


def _completed_by_insert(initial, stream, q, labels, window):
    """The brute-force embeddings that use a stream pair, keyed by the
    index in `initial + stream` of the insert that completes each,
    filtered by the window over each pair's first-insert timestamp."""
    first: dict[tuple[int, int], tuple[int, int]] = {}   # pair -> (i, ts)
    for i, (u, v, t) in enumerate(initial + stream):
        first.setdefault((u, v), (i, t))
    nodes = {x for pair in first for x in pair}
    want: dict[int, list[tuple[int, ...]]] = {}
    for m in oracles.enumerate_embeddings(nodes, set(first), q.num_vertices,
                                          q.edges, labels, q.labels):
        used = [first[(m[x], m[y])] for x, y in q.edges]
        ts = [t for _i, t in used]
        done = max(i for i, _t in used)
        if done >= len(initial) and (
                window is None or max(ts) - min(ts) <= window):
            want.setdefault(done, []).append(m)
    return want


def _check_against_oracle(initial, stream, q, labels, window):
    """The orbits of insert_edge's outputs, match_count and dedup_count
    equal the brute-force embeddings that use a stream pair, each
    reported at the insert that completes it, filtered by the window over
    each pair's first-insert timestamp."""
    want = _completed_by_insert(initial, stream, q, labels, window)
    ctx, insert = csm_context(q, initial, labels, window=window)
    for i, (u, v, t) in enumerate(stream, len(initial)):
        got = insert(u, v, t)
        assert got == sorted(want.get(i, []))
    every = sorted(m for ms in want.values() for m in ms)
    dedup = len(oracles.dedup_by_automorphism(q.num_vertices, q.edges, every,
                                              q.labels))
    assert (ctx.match_count, ctx.dedup_count) == (len(every), dedup)
    return len(every), dedup


def test_symmetry_breaking_matches_oracle():
    rng = random.Random(97)
    queries = [parse_query(t) for t in SYMMETRIC_QUERIES]
    queries += [_random_query(rng) for _ in range(40)]
    for k, q in enumerate(queries):
        for window, pool in ((None, None), (30, None), (None, 2), (30, 2)):
            n = rng.randint(3, 7)
            total = rng.randint(10, 60)
            cut = rng.randint(0, total)
            edges = [(rng.randrange(n), rng.randrange(n), 10 * t)
                     for t in range(total)]
            labels = {}
            if pool is not None:
                labels = assign_labels(dict.fromkeys(
                    w for u, v, _t in edges for w in (u, v)), pool, k)
            counts = _check_against_oracle(edges[:cut], edges[cut:], q,
                                           labels, window)
            (r,) = run_stream(edges[:cut], edges[cut:], [q], window=window,
                              label_pool=pool, seed=k)
            assert (r["matches"], r["matches_dedup"]) == counts


def test_insert_edge_returns_each_class_once_per_seed_stabiliser():
    """Collapsed to orbits under the query's automorphisms, what
    insert_edge returns is exactly the classes the oracle completes at
    that insert, each |Stab(x, y)| times, (x, y) being the query edge a
    member of the class maps onto the new pair; every returned mapping
    is one of the oracle's embeddings and uses the new pair."""
    rng = random.Random(163)
    queries = [parse_query(t) for t in SYMMETRIC_QUERIES]
    queries += [_random_query(rng) for _ in range(40)]
    for k, q in enumerate(queries):
        autos = oracles.automorphisms(q.num_vertices, q.edges, q.labels)

        def canon(m):
            return min(tuple(map(m.__getitem__, a)) for a in autos)

        def stab(m, pair):
            (x, y), = [(x, y) for x, y in q.edges if (m[x], m[y]) == pair]
            return sum(a[x] == x and a[y] == y for a in autos)

        for window, pool in ((None, None), (30, None), (None, 2), (30, 2)):
            n = rng.randint(3, 7)
            total = rng.randint(10, 60)
            cut = rng.randint(0, total)
            edges = [(rng.randrange(n), rng.randrange(n), 10 * t)
                     for t in range(total)]
            labels = {}
            if pool is not None:
                labels = assign_labels(dict.fromkeys(
                    w for u, v, _t in edges for w in (u, v)), pool, k)
            initial, stream = edges[:cut], edges[cut:]
            want = _completed_by_insert(initial, stream, q, labels, window)
            data = StreamGraph(window)
            for _pair in data.new_pairs(initial):
                pass
            ctx = csm.MatchContext(q, data.graph, labels)
            assert sorted(ctx.autos) == sorted(autos)
            for i, (u, v, t) in enumerate(stream, len(initial)):
                if not list(data.new_pairs([(u, v, t)])):
                    continue
                got = ctx.insert_edge(u, v)
                completed = want.get(i, [])
                assert set(got) <= set(completed)
                assert Counter(map(canon, got)) == \
                    {canon(m): stab(m, (u, v)) for m in completed}


def test_run_stream_shares_one_graph_across_queries():
    """Every query runs over the one data graph: each row equals the
    oracle's counts for its query alone, over streams with re-inserted
    pairs, self-loops, windows and label pools."""
    rng = random.Random(131)
    for k in range(16):
        queries = builtin_patterns() + [_random_query(rng) for _ in range(4)]
        window = rng.choice([None, 40, 150])
        pool = rng.choice([None, 1, 2])
        n = rng.randint(3, 7)
        total = rng.randint(10, 60)
        cut = rng.randint(0, total)
        edges = [(rng.randrange(n), rng.randrange(n), 10 * t)
                 for t in range(total)]
        labels = {}
        if pool is not None:
            labels = assign_labels(dict.fromkeys(
                w for u, v, _t in edges for w in (u, v)), pool, k)
        rows = run_stream(edges[:cut], edges[cut:], queries, window=window,
                          label_pool=pool, seed=k)
        assert [r["query"] for r in rows] == [q.name for q in queries]
        for q, r in zip(queries, rows):
            assert (r["matches"], r["matches_dedup"]) == \
                _check_against_oracle(edges[:cut], edges[cut:], q, labels,
                                      window)
            assert not r["timed_out"]


def _spend_budget_in_automorphisms(monkeypatch, name):
    """Make query `name`'s automorphism enumeration use up its whole
    budget: it finds none and takes two hours."""
    real = csm.timed_automorphisms

    def automorphisms(q, time_limit_ms):
        if q.name == name:
            return [], 7.2e6
        return real(q, time_limit_ms)

    monkeypatch.setattr(csm, "timed_automorphisms", automorphisms)


def test_run_stream_time_out_leaves_other_queries(monkeypatch):
    """A query whose budget runs out inside the search of an insert in
    the middle of the stream is flagged and searched no further, and
    every other row is unchanged."""
    rng = random.Random(137)
    initial, stream = _random_stream(rng, 10, 120)
    keys = ("query", "matches", "matches_dedup", "timed_out")
    want = [{k: r[k] for k in keys}
            for r in run_stream(initial, stream, builtin_patterns())]
    assert want[2]["matches"] and not want[2]["timed_out"]
    real = csm.MatchContext.insert_edge
    calls = []                      # (query, timed out by this insert)

    def insert_edge(ctx, u, v):
        limit = ctx.time_limit_ms
        if ctx.q.name == "p3" and ctx.match_count:
            ctx.time_limit_ms = ctx.elapsed_ms      # no budget left
        found = real(ctx, u, v)
        calls.append((ctx.q.name, ctx.timed_out))
        if not ctx.timed_out:       # a plan-less insert reads no clock
            ctx.time_limit_ms = limit
        return found

    monkeypatch.setattr(csm.MatchContext, "insert_edge", insert_edge)
    got = [{k: r[k] for k in keys}
           for r in run_stream(initial, stream, builtin_patterns())]
    assert got[2]["query"] == "p3" and got[2]["timed_out"]
    assert 0 < got[2]["matches"] < want[2]["matches"]
    # p3 timed out at its last insert, and later inserts searched the rest
    p3 = [i for i, (name, _spent) in enumerate(calls) if name == "p3"]
    assert [i for i, call in enumerate(calls) if call[1]] == [p3[-1]]
    assert p3[-1] < len(calls) - 1
    assert got[:2] + got[3:] == want[:2] + want[3:]


def test_run_stream_never_searches_a_query_spent_at_construction(
        monkeypatch):
    """A query whose budget is spent by its automorphism enumeration is
    timed out from construction on: no insert searches it, and the other
    queries still search every new pair."""
    initial = [(0, 1, 1), (1, 2, 2), (2, 3, 3)]
    stream = [(2, 0, 4), (1, 0, 5), (3, 0, 6), (3, 0, 7)]
    want = run_stream(initial, stream, builtin_patterns())
    searched = []
    real = csm.MatchContext.insert_edge

    def insert_edge(ctx, u, v):
        searched.append((ctx.q.name, u, v))
        return real(ctx, u, v)

    monkeypatch.setattr(csm.MatchContext, "insert_edge", insert_edge)
    _spend_budget_in_automorphisms(monkeypatch, "p3")
    got = run_stream(initial, stream, builtin_patterns())
    assert searched == [(name, u, v) for u, v, _ts in stream[:3]
                        for name in ("p1", "p2", "p4", "p5")]
    assert [(r["query"], r["timed_out"]) for r in got] == [
        ("p1", False), ("p2", False), ("p3", True), ("p4", False),
        ("p5", False)]
    assert got[2]["matches"] == got[2]["matches_dedup"] == 0
    keys = ("query", "matches", "matches_dedup")
    assert [[r[k] for k in keys] for r in got[:2] + got[3:]] == \
        [[r[k] for k in keys] for r in want[:2] + want[3:]]
    assert want[0]["matches"] and want[1]["matches"]


def test_window_prunes_inside_the_search(monkeypatch):
    """With a window narrower than every gap between timestamps, no
    branch outlives its first step: far fewer search nodes than without
    a window, and still the oracle's counts (none)."""
    rng = random.Random(139)
    n, total = 8, 150
    edges = [(rng.randrange(n), rng.randrange(n), 10 * t)
             for t in range(total)]
    initial, stream = edges[:50], edges[50:]
    real = csm._search
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(csm, "_search", counted)
    searched = {}
    for window in (None, 9):
        calls = 0
        rows = run_stream(initial, stream, builtin_patterns(), window=window)
        searched[window] = calls
        for q, r in zip(builtin_patterns(), rows):
            assert (r["matches"], r["matches_dedup"]) == \
                _check_against_oracle(initial, stream, q, {}, window)
    assert all(r["matches"] == 0 for r in rows)
    assert searched[9] * 5 < searched[None]


class _CountingClock:
    """csm's `time`: the real clock plus `late` seconds, counting reads."""
    late = 0.0
    reads = 0

    @classmethod
    def perf_counter(cls):
        cls.reads += 1
        return time.perf_counter() + cls.late


def test_deadline_is_read_once_the_search_ends(monkeypatch):
    """The clock jumps two hours once the search is done: the insert
    checks the deadline once when its search ends, so it is abandoned,
    the counters stay and the query is timed out."""
    initial = [(0, 1, 1), (1, 2, 2)]
    _ctx, insert = csm_context(P1, initial)
    assert len(insert(2, 0, 3)) == 3
    clock = type("Clock", (_CountingClock,), {})
    monkeypatch.setattr(csm, "time", clock)
    ctx, insert = csm_context(P1, initial)
    real = csm._search

    def search(*args, **kwargs):
        real(*args, **kwargs)
        clock.late += 3600.0 * 2

    monkeypatch.setattr(csm, "_search", search)
    assert insert(2, 0, 3) == []
    assert (ctx.match_count, ctx.dedup_count) == (0, 0)
    assert ctx.timed_out and clock.late == 3600.0 * 2


def test_degree_filter_prunes_before_the_search(monkeypatch):
    """Every vertex of p1-p5 has an out-edge, so a new pair ending at a
    vertex without out-pairs completes none of them: with every stream
    pair ending at such a vertex, no insert calls `_search` or reads the
    clock, and the counts are the oracle's."""
    rng = random.Random(151)
    initial = [(rng.randrange(6), rng.randrange(6), t) for t in range(40)]
    stream = [(rng.randrange(6), 6 + rng.randrange(4), t)
              for t in range(40, 70)]
    assert any(u == v for u, v, _t in initial)
    contexts = [csm_context(q, initial) for q in builtin_patterns()]
    spent = [ctx.elapsed_ms for ctx, _insert in contexts]
    clock = type("Clock", (_CountingClock,), {})
    monkeypatch.setattr(csm, "time", clock)
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1

    monkeypatch.setattr(csm, "_search", counted)
    for u, v, t in stream:
        for _ctx, insert in contexts:
            assert insert(u, v, t) == []
    assert (calls, clock.reads) == (0, 0)
    assert [ctx.elapsed_ms for ctx, _insert in contexts] == spent
    monkeypatch.undo()
    for q, (ctx, _insert) in zip(builtin_patterns(), contexts):
        assert (ctx.match_count, ctx.dedup_count) == \
            _check_against_oracle(initial, stream, q, {}, None) == (0, 0)


@pytest.mark.parametrize("text, initial, pair", [
    # vertex 1's in-edges are 0->1 and its self-loop
    ("v 0 *; v 1 *; e 0 1; e 1 1", [(1, 2, 1), (1, 3, 2)], (0, 1)),
    # vertex 0's out-edges are 0->1 and its self-loop
    ("v 0 *; v 1 *; e 0 1; e 0 0", [(2, 0, 1), (3, 0, 2)], (0, 1)),
])
def test_degree_filter_counts_a_self_loop(monkeypatch, text, initial, pair):
    """A self-loop counts in both degree bounds: a seed with one in- or
    out-pair short of a looped query vertex is dropped before the clock
    starts, and the same seed with its self-loop is searched."""
    q = parse_query(text)
    clock = type("Clock", (_CountingClock,), {})
    monkeypatch.setattr(csm, "time", clock)
    ctx, insert = csm_context(q, initial)
    clock.reads = 0
    assert insert(*pair, 3) == [] and clock.reads == 0
    looped = initial + [(w, w, 0) for w in pair]
    _ctx, insert = csm_context(q, sorted(looped, key=lambda e: e[2]))
    assert insert(*pair, 3) == [pair]


def test_counts_divide_by_the_seed_stabiliser():
    """A plan seeded at (x, y) finds each class once per automorphism
    fixing x and y: twice for p5 at 0->1 (2 and 3 swap), 7! times for an
    8-leaf out-star.  The counters still give one per class and |Aut(q)|
    mappings per class."""
    p5 = parse_query(BUILTIN_PATTERNS["p5"], "p5")
    ctx, insert = csm_context(p5, [(1, w, 1) for w in (2, 3, 4)]
                              + [(w, 0, 2) for w in (2, 3, 4)])
    assert [plan[-1] for _filter, plan in ctx._plans] == [2, 1, 1]
    got = insert(0, 1, 3)
    assert len(got) == 6
    assert ctx.dedup_count == 3 == len(oracles.dedup_by_automorphism(
        4, p5.edges, got))
    assert ctx.match_count == len(ctx.autos) * ctx.dedup_count
    rng = random.Random(157)
    for _ in range(10):
        initial, stream = _random_stream(rng, 8, 80)
        ctx, insert = csm_context(p5, initial)
        for u, v, t in stream:
            insert(u, v, t)
        assert (ctx.match_count, ctx.dedup_count) == \
            _check_against_oracle(initial, stream, p5, {}, None)
        assert ctx.match_count == len(ctx.autos) * ctx.dedup_count
    # the oracle's canonical forms cost |Aut| per mapping, out of reach
    # for 8! mappings; an out-star's classes are its vertex sets
    star = out_star(8)
    ctx, insert = csm_context(star, [(0, w, 1) for w in range(1, 8)])
    assert [plan[-1] for _filter, plan in ctx._plans] == [5040]    # 7!
    got = insert(0, 8, 2)
    assert got == [(0, *p) for p in itertools.permutations(range(1, 9))]
    assert ctx.dedup_count == 1 == len({frozenset(m) for m in got})
    assert ctx.match_count == len(ctx.autos) * ctx.dedup_count == 40320
