import ast
import os
import random
import re
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import addr, addr_id, graph_of, make_events, random_events
from nftgraph import cache
from nftgraph.cli import main
from nftgraph.errors import DataError
from nftgraph.graph import (SimpleDigraph, TemporalGraph, simple_view,
                            summary_digest)
from nftgraph.ingest import NULL_ADDRESS, write_transfers


def test_build_interns_and_counts():
    g = graph_of([(100, NULL_ADDRESS, 0), (200, 0, 1), (300, 1, 0)])
    assert g.num_nodes == 3           # Null, a0, a1
    assert g.num_edges == 3
    a0, a1 = addr_id(g, addr(0)), addr_id(g, addr(1))
    assert g.n_first[a0] == 100 and g.n_last[a0] == 300
    assert g.n_txc[a0] == 3
    assert g.n_mint[a0]
    assert not g.n_mint[a1]


def test_self_loop_counts_once():
    g = graph_of([(100, 0, 0)])
    assert g.n_txc[addr_id(g, addr(0))] == 1


_ADDRESS = st.one_of(st.integers(0, 5), st.just(NULL_ADDRESS))
_ROW = st.tuples(st.integers(1600000000, 1600000300), _ADDRESS, _ADDRESS,
                 st.sampled_from(["0x" + "c0" * 20, "0x" + "c1" * 20]),
                 st.one_of(st.integers(0, 9), st.just(2 ** 255 + 1)))


@settings(deadline=None, max_examples=80)
@given(st.lists(_ROW, max_size=30))
def test_node_columns_match_oracle_and_survive_the_cache(rows):
    """Null, self-loops and repeated pairs are all in the draw."""
    rows.sort(key=lambda r: r[0])
    events = [ev._replace(contract=c, token_id=t) for ev, (*_, c, t)
              in zip(make_events([r[:3] for r in rows]), rows)]
    g = TemporalGraph.build(events)
    want = oracles.node_columns(
        [(ev.timestamp, ev.from_addr, ev.to_addr) for ev in events],
        NULL_ADDRESS)
    assert sorted(want) == sorted(g.addresses)
    assert [want[a] for a in g.addresses] == \
        list(zip(g.n_first, g.n_last, g.n_txc, g.n_mint))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.lglb")
        cache.save(g, path)
        assert vars(cache.load(path)) == vars(g)


@pytest.mark.parametrize("addresses,e_src,e_dst,message", [
    ([addr(0), addr(1)], [1], [0], "node 1 appears before node 0"),
    ([addr(0), addr(1)], [0], [0], "node 1 has no edge"),
    ([addr(0), addr(0)], [0], [1], "twice"),
    ([addr(0), addr(1)], [0], [-1], "e_dst holds an id outside"),
], ids=["out_of_order", "no_edge", "repeated_address", "out_of_range"])
def test_constructor_rejects_bad_node_ids(addresses, e_src, e_dst, message):
    with pytest.raises(DataError, match=message):
        TemporalGraph(addresses, ["0x" + "c0" * 20], e_src, e_dst,
                      [100], [0], [1])


def test_unsorted_input_raises():
    events = make_events([(200, 0, 1)]) + make_events([(100, 1, 2)])
    with pytest.raises(DataError, match="edge 1: 100 after 200"):
        TemporalGraph.build(events)


def test_constructor_rejects_regressed_timestamp():
    with pytest.raises(DataError, match="e_ts regresses at edge 2: "
                                        "150 after 300"):
        TemporalGraph([addr(0), addr(1), addr(2)], ["0x" + "c0" * 20],
                      [0, 1, 2], [1, 2, 0], [100, 300, 150],
                      [0, 0, 0], [1, 1, 1])


@pytest.mark.parametrize("e_src,e_dst,e_ts,e_contract,e_token,lengths", [
    ([0, 0], [1, 1], [5, 6, 1], [0, 0], [1, 2], "[2, 2, 3, 2, 2]"),
    ([0], [1], [5], [0, 0, 0], [1, 2, 3], "[1, 1, 1, 3, 3]"),
], ids=["long_e_ts", "long_token_columns"])
def test_constructor_rejects_edge_columns_of_unequal_length(
        e_src, e_dst, e_ts, e_contract, e_token, lengths):
    with pytest.raises(DataError, match=re.escape(
            "edge columns e_src, e_dst, e_ts, e_contract, e_token differ "
            f"in length: {lengths}")):
        TemporalGraph([addr(0), addr(1)], ["0x" + "c0" * 20],
                      e_src, e_dst, e_ts, e_contract, e_token)


def test_build_from_stream_equals_build_from_path(tmp_path):
    """A small file, one of several read blocks, and one whose csv.reader
    path starts mid-file at a quoted contract build the same graph from
    a path, a stream, the rows and the per-row oracle reader."""
    rng = random.Random(7)
    small = random_events(rng, with_null=True)
    many = make_events([(rng.randint(1600000000, 1610000000),
                         rng.randrange(400), rng.randrange(400))
                        for _ in range(2000)])
    quoted = list(many)
    quoted[1500] = quoted[1500]._replace(contract="0xc,0")
    p = tmp_path / "t.csv"
    for events in (small, many, quoted):
        write_transfers(str(p), events)
        want = TemporalGraph.build(str(p))
        assert want.num_edges == len(events)
        with open(p, newline="") as fh:
            assert vars(TemporalGraph.build(fh)) == vars(want)
        with open(p, newline="") as fh:
            assert vars(TemporalGraph.build(
                list(oracles.read_transfers(fh)))) == vars(want)
        assert vars(TemporalGraph.build(p)) == vars(want)
        assert vars(TemporalGraph.build(events)) == vars(want)
    assert "0xc,0" in want.contracts and '"' in p.read_text()


EDGE_COLUMNS = ("e_src", "e_dst", "e_ts", "e_contract", "e_token")


def _types(g: TemporalGraph) -> dict:
    return {name: type(value) for name, value in vars(g).items()}


def _fits_int64(column) -> bool:
    return all(-2 ** 63 <= x < 2 ** 63 for x in column)


def test_every_path_gives_the_same_column_types(tmp_path):
    """A path, a stream, TransferEvents, the oracle reader's rows and a
    cache load give the same graph in the same column types: the edge
    columns and the first and last times as array('q')."""
    events = random_events(random.Random(3), with_null=True)
    p, lglb = tmp_path / "t.csv", tmp_path / "g.lglb"
    write_transfers(str(p), events)
    want = TemporalGraph.build(str(p))
    graphs = [TemporalGraph.build(events)]
    with open(p, newline="") as fh:
        graphs.append(TemporalGraph.build(fh))
    with open(p, newline="") as fh:
        graphs.append(TemporalGraph.build(list(oracles.read_transfers(fh))))
    cache.save(want, str(lglb))
    graphs.append(cache.load(str(lglb)))
    for g in graphs:
        assert _types(g) == _types(want)
        assert vars(g) == vars(want)
    assert {name for name, t in _types(want).items() if t is array} == {
        *EDGE_COLUMNS, "n_first", "n_last"}


@pytest.mark.parametrize("field,value,column", [
    ("timestamp", 10 ** 20, "e_ts"),
    ("token_id", 2 ** 255 + 12345, "e_token"),
    ("token_id", -(2 ** 63) - 1, "e_token"),
], ids=["big_timestamp", "uint256_token", "below_int64_token"])
def test_a_value_past_int64_makes_only_its_column_a_list(
        tmp_path, field, value, column):
    """The last event's field is out of int64 range: its column is a
    list, the other edge columns stay arrays, and a node record is a
    list only if it holds such a value; the cache keeps all of it."""
    events = make_events([(1600000000, 0, 1), (1600000100, 1, 2)])
    events[-1] = events[-1]._replace(**{field: value})
    p, lglb = tmp_path / "t.csv", tmp_path / "g.lglb"
    write_transfers(str(p), events)
    g = TemporalGraph.build(str(p))
    assert vars(TemporalGraph.build(events)) == vars(g)
    assert getattr(g, column)[-1] == value
    assert {name for name in EDGE_COLUMNS
            if type(getattr(g, name)) is list} == {column}
    for name in ("n_first", "n_last"):
        records = getattr(g, name)
        assert (type(records) is list) == (not _fits_int64(records))
    cache.save(g, str(lglb))
    h = cache.load(str(lglb))
    assert _types(h) == _types(g)
    assert vars(h) == vars(g)


def _traced(fn):
    """(result, held bytes, peak bytes) of fn() under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_cache_load_memory_per_edge(tmp_path):
    """A graph read back from its cache holds below 100 B per edge on
    60k uniform transfers, about 75 B: five 8-byte edge columns, the
    address strings and the node records (200 B when each column is
    read into a list of ints).  The load peaks below the build from CSV,
    which holds each read block while it fills the columns."""
    from nftgraph.fixture import write_fixture
    n = 60_000
    src, lglb = str(tmp_path / "transfers.csv"), str(tmp_path / "g.lglb")
    write_fixture("uniform", 1, n, src)
    g, _held, build_peak = _traced(lambda: TemporalGraph.build(src))
    cache.save(g, lglb)
    del g
    g, held, peak = _traced(lambda: cache.load(lglb))
    assert g.num_edges == n
    assert held / n < 100
    assert peak < build_peak


def test_token_owner_replay():
    events = make_events([(100, 0, 1), (200, 1, 2), (300, 2, 0)])
    contract = events[0].contract
    assert oracles.token_owner_at(events, contract, 1, 250) == addr(2)
    assert oracles.token_owner_at(events, contract, 1) == addr(0)
    assert oracles.token_owner_at(events, contract, 999) is None
    assert oracles.token_owner_at(events, "0x" + "ee" * 20, 1) is None


def test_snapshot_view_prefix():
    g = graph_of([(100, 0, 1), (200, 1, 2), (300, 3, 4)])
    assert len(list(g.edges(200))) == 2
    assert simple_view(g, 200).num_nodes == 3


@pytest.mark.parametrize("seed", range(5))
def test_edges_filter_matches_brute_force(seed):
    rng = random.Random(seed)
    events = [ev._replace(to_addr=ev.from_addr) if rng.random() < 0.1 else ev
              for ev in random_events(rng, with_null=True)]
    g = TemporalGraph.build(events)
    raw = list(zip(g.e_src, g.e_dst, g.e_ts))
    assert g.null_id is not None and any(u == v for u, v, _ in raw)
    cutoffs = [None, g.e_ts[len(raw) // 2], g.e_ts[0] - 1]
    for until in cutoffs:
        for include_null in (True, False):
            for include_self_loops in (True, False):
                want = [(u, v, ts) for u, v, ts in raw
                        if (until is None or ts <= until)
                        and (include_null or g.null_id not in (u, v))
                        and (include_self_loops or u != v)]
                got = list(g.edges(until, include_null=include_null,
                                   include_self_loops=include_self_loops))
                assert got == want
    assert list(g.edges(g.e_ts[0] - 1)) == []


def test_simple_view_dedups_pairs():
    g = graph_of([(100, 0, 1), (200, 0, 1), (300, 1, 0)])
    v = simple_view(g)
    assert v.pairs == {(addr_id(g, addr(0)), addr_id(g, addr(1))),
                       (addr_id(g, addr(1)), addr_id(g, addr(0)))}


def test_simple_view_excluding_null_keeps_isolated_nodes():
    # a2's only link is a mint; dropping Null must keep a2 as an isolate
    g = graph_of([(100, NULL_ADDRESS, 2), (200, 0, 1)])
    v = simple_view(g, include_null=False)
    assert addr_id(g, addr(2)) in v.nodes
    assert v.num_nodes == 3
    assert v.num_edges == 1
    # density denominator uses the full node set: 1 / (3*2)
    from nftgraph.metrics import density
    assert density(v) == pytest.approx(1 / 6)


def test_simple_view_self_loop_flag():
    g = graph_of([(100, 0, 0), (200, 0, 1)])
    assert len(simple_view(g).pairs) == 2
    assert len(simple_view(g, include_self_loops=False).pairs) == 1


def test_simple_view_cutoff_node_set():
    g = graph_of([(100, 0, 1), (200, 2, 3)])
    v = simple_view(g, cutoff=150)
    assert v.num_nodes == 2 and v.num_edges == 1


@settings(deadline=None)
@given(st.lists(st.integers(0, 5)),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40))
def test_simple_digraph_has_set_semantics(nodes, pairs):
    view, want = SimpleDigraph(nodes, ()), set()
    for u, v in pairs:                  # duplicates and self-loops included
        assert view.add_pair(u, v) == ((u, v) not in want)
        want.add((u, v))
    assert view.num_edges == len(set(pairs))
    assert view.pairs == want and view.pairs is not view.pairs
    assert view.nodes == set(nodes) | {w for p in want for w in p}
    for w in range(7):
        assert view.degree(w) == sum((u == w) + (v == w) for u, v in want)
    built = SimpleDigraph(nodes, pairs)
    assert (built.nodes, built.pairs, built.num_edges) == (
        view.nodes, want, len(want))


@settings(deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 4),
                          st.integers(0, 4)), max_size=60))
def test_remove_pair_undoes_add_pair(ops):
    """Adds and removes of pairs, self-loops included: `out`, `in_`,
    `num_edges` and `pairs` always describe the same pair set, and a
    removed pair's nodes stay."""
    view, want, touched = SimpleDigraph((), ()), set(), set()
    for remove, u, v in ops:
        if remove and (u, v) in want:
            view.remove_pair(u, v)
            want.discard((u, v))
        elif not remove:
            assert view.add_pair(u, v) == ((u, v) not in want)
            want.add((u, v))
            touched |= {u, v}
        assert view.pairs == want and view.num_edges == len(want)
        assert view.nodes == touched
        for w in range(5):
            assert view.out.get(w, set()) == {b for a, b in want if a == w}
            assert view.in_.get(w, set()) == {a for a, b in want if b == w}
    with pytest.raises(KeyError):
        view.remove_pair(5, 5)


@settings(deadline=None, max_examples=50)
@given(st.randoms(use_true_random=False))
def test_simple_view_node_set_is_first_seen_by_cutoff(rnd):
    g = TemporalGraph.build(random_events(rnd, max_nodes=12, max_edges=30,
                                          with_null=True, ts_range=(100, 140)))
    times = sorted(set(g.e_ts))
    # before the first edge, at each edge time and between edge times
    for cutoff in (None, times[0] - 1, *times, *(t + 1 for t in times)):
        for include_null in (True, False):
            view = simple_view(g, cutoff, include_null=include_null)
            want = {i for i, f in enumerate(g.n_first)
                    if (cutoff is None or f <= cutoff)
                    and (include_null or i != g.null_id)}
            assert view.nodes == want
            assert view.pairs == {(u, v) for u, v, _ts in g.edges(
                cutoff, include_null=include_null)}


SRC = Path(cache.__file__).parent


def _pairs_reads(path: Path):
    """Yield the line of every read of an attribute named `pairs`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr == "pairs"
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno


def test_no_module_reads_the_rebuilt_pair_set():
    # SimpleDigraph.pairs builds a new set on every read
    offenders = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py"))
                 for line in _pairs_reads(p)]
    assert offenders == []


def test_pairs_guard_sees_attribute_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "pairs = 1\nv.pairs\nfor p in view.pairs: pass\n"
        "x = f(g).pairs\nv.pairs = set()\nv.pair\n")
    assert list(_pairs_reads(sample)) == [2, 3, 4]


def test_summary_and_digest_stability():
    g = graph_of([(100, NULL_ADDRESS, 0), (200, 0, 1)])
    s = g.summary()
    assert s["nodes"] == 3 and s["edges"] == 2 and s["mint_nodes"] == 1
    assert summary_digest(s) == summary_digest(g.summary())


def test_cache_round_trip(tmp_path):
    rng = random.Random(7)
    g = TemporalGraph.build(random_events(rng, max_nodes=20, max_edges=80))
    path = tmp_path / "g.lglb"
    cache.save(g, str(path))
    h = cache.load(str(path))
    assert h.addresses == g.addresses
    assert h.contracts == g.contracts
    assert h.e_src == g.e_src and h.e_dst == g.e_dst and h.e_ts == g.e_ts
    assert h.e_contract == g.e_contract and h.e_token == g.e_token
    assert h.n_first == g.n_first and h.n_last == g.n_last
    assert h.n_txc == g.n_txc and h.n_mint == g.n_mint
    assert h.null_id == g.null_id
    assert summary_digest(h.summary()) == summary_digest(g.summary())


def test_cache_big_token_ids(tmp_path):
    events = make_events([(1600000000, 0, 1)])
    g = TemporalGraph.build(events)
    g.e_token = [2 ** 255 + 12345]      # uint256-sized id
    path = tmp_path / "g.lglb"
    cache.save(g, str(path))
    assert cache.load(str(path)).e_token == [2 ** 255 + 12345]


def test_cache_rejects_non_integer_big_token_id(tmp_path):
    events = make_events([(1600000000, 0, 1)])
    g = TemporalGraph.build(events)
    g.e_token = [2 ** 255 + 12345]
    path = tmp_path / "g.lglb"
    cache.save(g, str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-7] + b"x" + blob[-6:])      # a digit of e_token
    with pytest.raises(DataError, match="non-integer"):
        cache.load(str(path))


def test_cache_rejects_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTACACHE")
    with pytest.raises(DataError, match="is not a graph cache"):
        cache.load(str(p))


def test_cache_of_empty_graph_loads(tmp_path):
    path = tmp_path / "g.lglb"
    cache.save(TemporalGraph.build([]), str(path))
    h = cache.load(str(path))
    assert h.num_nodes == 0 and h.num_edges == 0


def test_cache_rejects_truncated_file(tmp_path):
    path = tmp_path / "g.lglb"
    cache.save(graph_of([(100, 0, 1), (200, 1, 2)]), str(path))
    blob = path.read_bytes()
    for cut in (3, 10, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="truncated"):
            cache.load(str(path))


def test_cache_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "g.lglb"
    cache.save(graph_of([(100, 0, 1)]), str(path))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        cache.load(str(path))


def test_cache_rejects_changed_byte(tmp_path):
    path = tmp_path / "g.lglb"
    cache.save(graph_of([(100, 0, 1), (200, 1, 2)]), str(path))
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 1                       # the last byte of e_token
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checksum mismatch"):
        cache.load(str(path))


def test_cache_rejects_unknown_column_type(tmp_path):
    g = graph_of([(100, 0, 1)])
    path = tmp_path / "g.lglb"
    cache.save(g, str(path))
    blob = bytearray(path.read_bytes())
    at = 6 + sum(8 + len("\n".join(t).encode())
                 for t in (g.addresses, g.contracts))   # e_src's typecode
    assert blob[at:at + 1] == b"q"
    blob[at:at + 1] = b"z"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="column type"):
        cache.load(str(path))


@pytest.mark.parametrize("column", ["e_dst", "e_token"])
def test_cache_rejects_column_of_wrong_length(tmp_path, column):
    g = graph_of([(100, 0, 1), (200, 1, 2)])
    getattr(g, column).pop()
    path = tmp_path / "g.lglb"
    cache.save(g, str(path))
    with pytest.raises(DataError, match="edge columns .* differ in length"):
        cache.load(str(path))


def test_cache_with_swapped_timestamps_exits_2(tmp_path, capsys):
    g = graph_of([(100, 0, 1), (200, 1, 2), (300, 2, 0)])
    g.e_ts[0], g.e_ts[2] = g.e_ts[2], g.e_ts[0]
    path = tmp_path / "g.lglb"
    cache.save(g, str(path))
    with pytest.raises(DataError, match="edge 1: 200 after 300"):
        cache.load(str(path))
    out = tmp_path / "s.json"
    assert main(["stats", "--input", str(path), "--report", str(out)]) == 2
    assert capsys.readouterr().err == \
        "nftgraph: e_ts regresses at edge 1: 200 after 300\n"
    assert not out.exists()


def test_cache_rejects_wrong_version(tmp_path):
    g = graph_of([(100, 0, 1)])
    p = tmp_path / "g.lglb"
    cache.save(g, str(p))
    blob = bytearray(p.read_bytes())
    blob[4] = 99
    p.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="cache version 99, expected 2"):
        cache.load(str(p))
