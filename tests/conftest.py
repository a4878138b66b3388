import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))   # for `oracles`

from nftgraph.csm import MatchContext, StreamGraph
from nftgraph.graph import TemporalGraph
from nftgraph.ingest import NULL_ADDRESS, TransferEvent, read_transfers

CONTRACT = "0x" + "c0" * 20


def addr(n: int) -> str:
    return f"0x{n + 1:040x}"


def addr_id(g: TemporalGraph, address: str) -> int:
    """The node id of an address in g."""
    return g.addresses.index(address)


def make_events(triples, contract=CONTRACT, token=1):
    """(ts, src, dst) triples -> sorted TransferEvent list.

    src/dst may be ints (mapped through addr()) or literal 0x strings.
    """
    events = []
    for i, (ts, u, v) in enumerate(sorted(triples, key=lambda t: t[0])):
        events.append(TransferEvent(
            timestamp=ts, block_number=ts // 13, tx_hash=f"0x{i + 1:064x}",
            log_index=i, contract=contract,
            from_addr=u if isinstance(u, str) else addr(u),
            to_addr=v if isinstance(v, str) else addr(v),
            token_id=token))
    return events


def transfer_rows(source) -> list[TransferEvent]:
    """`read_transfers(source)`'s column blocks flattened to rows."""
    return [TransferEvent(*row) for block in read_transfers(source)
            for row in zip(*block)]


def graph_of(triples, **kw):
    return TemporalGraph.build(make_events(triples, **kw))


def expand_orbits(found, autos):
    """The sorted mappings m∘a for each found mapping m and automorphism
    a, each orbit expanded once however often `found` holds it."""
    seen = set()
    out = []
    for m in found:
        if m not in seen:
            orbit = [tuple(map(m.__getitem__, a)) for a in autos]
            seen.update(orbit)
            out += orbit
    return sorted(out)


def csm_context(q, initial=(), labels=None, window=None, **kw):
    """A MatchContext for q over its own StreamGraph loaded with
    `initial`, and an `insert(u, v, ts)` feeding it the way run_stream
    does: a new pair is added to the graph and searched, a re-inserted or
    expired one is [].  `insert` returns every mapping of the matches the
    pair completes, sorted: the orbits of what `insert_edge` found."""
    data = StreamGraph(window)
    for _pair in data.new_pairs(initial):
        pass
    ctx = MatchContext(q, data.graph, labels, **kw)

    def insert(u, v, ts):
        new = list(data.new_pairs([(u, v, ts)]))
        return expand_orbits(ctx.insert_edge(u, v), ctx.autos) if new else []
    return ctx, insert


def random_events(rng: random.Random, max_nodes=50, max_edges=400,
                  with_null=False, ts_range=(1600000000, 1610000000)):
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, max_edges)
    triples = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if with_null and rng.random() < 0.1:
            u = NULL_ADDRESS
        triples.append((rng.randint(*ts_range), u, v))
    return make_events(triples)


@pytest.fixture(scope="session")
def planted():
    """Shared planted fixture: (graph, ledger, csv path)."""
    import json
    import tempfile

    from nftgraph.fixture import write_fixture

    d = Path(tempfile.mkdtemp(prefix="nftgraph-planted-"))
    out = d / "planted.csv"
    ledger_path = d / "ledger.json"
    write_fixture("planted", 1, 12000, str(out), ledger_path=str(ledger_path))
    ledger = json.loads(ledger_path.read_text())
    return TemporalGraph.build(str(out)), ledger, out
