import statistics

from conftest import transfer_rows

from nftgraph.fixture import generate, write_fixture, write_raw_csv
from nftgraph.graph import TemporalGraph, simple_view
from nftgraph.ingest import NORMALIZED_HEADER, normalize_stream


def test_scale_zero_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    write_fixture("uniform", 0, 0, str(out))
    assert out.read_text().strip() == ",".join(NORMALIZED_HEADER)


def test_uniform_deterministic():
    rows1, _ = generate("uniform", 5, 500)
    rows2, _ = generate("uniform", 5, 500)
    assert rows1 == rows2
    rows3, _ = generate("uniform", 6, 500)
    assert rows1 != rows3


def test_rows_are_time_sorted():
    for profile in ("uniform", "preferential", "planted"):
        rows, _ = generate(profile, 3, 4000)
        ts = [r.timestamp for r in rows]
        assert ts == sorted(ts)


def test_preferential_heavy_tail():
    rows, ledger = generate("preferential", 2, 4000)
    g = TemporalGraph.build(rows)
    v = simple_view(g, include_null=False)
    degrees = sorted(v.degree(n) for n in v.nodes if v.degree(n) > 0)
    assert max(degrees) >= 10 * statistics.median(degrees)
    assert ledger["mints"] > 0


def test_planted_ledger_counts(tmp_path, planted):
    g, ledger, _path = planted
    assert g.num_edges == ledger["transfers"] >= 10000
    assert g.num_nodes == ledger["nodes"]
    summary = g.summary()
    assert summary["mint_nodes"] == ledger["mint_nodes"]
    mint_edges = sum(1 for k in range(g.num_edges)
                     if g.e_src[k] == g.null_id)
    assert mint_edges == ledger["mints"]


def test_raw_round_trip_through_ingest(tmp_path):
    rows, _ = generate("planted", 4, 3500)
    raw = tmp_path / "raw.csv"
    write_raw_csv(str(raw), rows)
    norm = tmp_path / "norm.csv"
    stats, classes = normalize_stream([str(raw)], str(norm))
    assert stats.transfers_emitted == len(rows)
    assert stats.skipped_malformed == 0
    assert all(c["erc721"] for c in classes)
    assert transfer_rows(str(norm)) == list(rows)
