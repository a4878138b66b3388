import csv
import math
import random
import tempfile
import tracemalloc
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import addr, addr_id, graph_of, make_events, random_events
from nftgraph.errors import DataError
from nftgraph.graph import TemporalGraph
from nftgraph.ingest import NULL_ADDRESS
from nftgraph.mlbench import (TRADER_CLASSES, ScoreRecord, build_snapshots,
                              eval_classification, eval_link_scores,
                              export_features, read_score_file,
                              sample_negatives, split_roles,
                              trader_labels)


def ts(y, m, d, h=0):
    return int(datetime(y, m, d, h, tzinfo=timezone.utc).timestamp())


# -- snapshots ---------------------------------------------------------

def test_ten_days_ten_snapshots():
    g = graph_of([(ts(2021, 1, 1 + i), 0, 1 + i) for i in range(10)])
    assert len(list(build_snapshots(g, "day"))) == 10


def test_61_days_three_month_snapshots():
    g = graph_of([(ts(2021, 1, 15), 0, 1), (ts(2021, 3, 16), 0, 2)])
    series = list(build_snapshots(g, "month"))
    assert [s.period.label for s in series] == \
        ["2021-01", "2021-02", "2021-03"]


def test_exclude_null_removes_transactions():
    g = graph_of([(ts(2021, 1, 1), NULL_ADDRESS, 0),
                  (ts(2021, 1, 1, 6), 0, 1)])
    (snap,) = build_snapshots(g, "day")
    assert len(snap.pair_stats) == 1
    (with_null,) = build_snapshots(g, "day", exclude_null=False)
    assert len(with_null.pair_stats) == 2


def test_pair_stats_count_and_last_ts():
    t0 = ts(2021, 1, 1)
    g = graph_of([(t0, 0, 1), (t0 + 60, 0, 1), (t0 + 999, 0, 1)])
    (snap,) = build_snapshots(g, "day")
    (stats,) = snap.pair_stats.values()
    assert stats == (3, t0 + 999)


@pytest.mark.parametrize("exclude_null", [True, False])
def test_snapshots_match_oracle(exclude_null):
    rng = random.Random(51)
    for _ in range(25):
        events = random_events(rng, 10, 150, with_null=True)
        g = TemporalGraph.build(events)
        for granularity in ("day", "week"):
            snaps = list(build_snapshots(g, granularity,
                                         exclude_null=exclude_null))
            periods = g.periods(granularity)
            assert [s.period for s in snaps] == periods
            want = oracles.snapshot_buckets(
                [(e.timestamp, e.from_addr, e.to_addr) for e in events],
                lambda t: periods[oracles.period_index(periods, t)].label,
                NULL_ADDRESS if exclude_null else None)
            name = g.addresses
            got = {s.period.label: ({(name[u], name[v]): st
                                     for (u, v), st in s.pair_stats.items()},
                                    [name[w] for w in s.new_nodes])
                   for s in snaps if s.pair_stats}
            assert got == want
            assert all(s.new_nodes == [] for s in snaps if not s.pair_stats)


# Up to 40 transfers over about a week among 8 addresses and Null, with
# self-loops; times on whole days are likely, so gaps of exactly 86,400 s
# are too.
_T0 = ts(2021, 1, 1)
_NODE = st.one_of(st.integers(0, 7), st.just(NULL_ADDRESS))
_TIME = st.one_of(st.integers(0, 7 * 86400), st.integers(0, 7).map(
    lambda d: d * 86400)).map(lambda t: _T0 + t)
_EVENTS = st.lists(st.tuples(_TIME, _NODE, _NODE), min_size=1,
                   max_size=40).map(make_events)


def _triples(events):
    return [(e.timestamp, e.from_addr, e.to_addr) for e in events]


# -- split roles -------------------------------------------------------

def test_fixed_split_last_20_percent():
    for t in (1, 4, 5, 9, 10, 253):
        roles = split_roles("fixed", t)
        test_n = math.ceil(0.2 * t)
        assert roles == ["train"] * (t - test_n) + ["test"] * test_n


def test_node_fixed_split_80_10_10():
    roles = split_roles("node_fixed", 10)
    assert roles == ["train"] * 8 + ["val"] * 1 + ["test"] * 1
    roles = split_roles("node_fixed", 7)
    assert roles.count("train") == 5
    assert roles.count("val") == 0
    assert roles.count("test") == 2


def test_live_update_all_test():
    assert split_roles("live_update", 4) == ["test"] * 4


def test_unknown_mode():
    with pytest.raises(ValueError):
        split_roles("bogus", 3)


# -- negative sampling -------------------------------------------------

def _graph_for_sampling():
    t0 = ts(2021, 1, 1)
    return graph_of([(t0 + i * 60, i, 8 + i) for i in range(8)])


def test_negatives_valid_and_deterministic():
    g = _graph_for_sampling()
    out1 = sample_negatives(g, 0, granularity="day", k=3, seed=5)
    out2 = sample_negatives(g, 0, granularity="day", k=3, seed=5)
    assert out1 == out2
    (snap,) = build_snapshots(g, "day")
    positives = set(snap.pair_stats)
    assert set(out1) == positives
    for (u, v), negs in out1.items():
        assert len(negs) == len(set(negs)) == 3
        for w in negs:
            assert (u, w) not in positives
    assert sample_negatives(g, 0, granularity="day", k=3, seed=6) != out1


def test_negatives_insufficient_nodes():
    g = graph_of([(ts(2021, 1, 1), 0, 1)])
    with pytest.raises(DataError, match="need 100 negatives for"):
        sample_negatives(g, 0, granularity="day", k=100)


def test_negatives_uniform_frequency():
    g = _graph_for_sampling()
    counts: Counter = Counter()
    draws = 400
    for seed in range(draws):
        for negs in sample_negatives(g, 0, granularity="day", k=1,
                                     seed=seed).values():
            counts[negs[0]] += 1
    # first positive (0, 1): eligible = 9 nodes minus 8 banned targets of
    # src 0 = ... just check overall frequencies are plausibly uniform
    total = sum(counts.values())
    n_targets = len(counts)
    p = 1 / n_targets
    sigma = math.sqrt(total * p * (1 - p))
    for c in counts.values():
        assert abs(c - total * p) <= 4 * sigma


@settings(deadline=None, max_examples=80)
@given(events=_EVENTS, exclude_null=st.booleans(),
       granularity=st.sampled_from(["day", "week"]), data=st.data())
def test_negatives_match_randrange_oracle(events, exclude_null, granularity,
                                         data):
    """At every snapshot index, the same draws as a randrange loop over
    the built snapshots, also when k is at or near the number of eligible
    targets and most draws are rejected or too few nodes are left."""
    g = TemporalGraph.build(events)
    snaps = list(build_snapshots(g, granularity, exclude_null=exclude_null))
    eligible: set[int] = set()
    for index, snap in enumerate(snaps):
        eligible.update(snap.new_nodes)
        room = min((len(eligible - {b for a, b in snap.pair_stats if a == u})
                    for u, _ in snap.pair_stats), default=3)
        k = data.draw(st.integers(max(1, room - 2), room + 1))
        seed = data.draw(st.integers(0, 3))
        want = oracles.sample_negatives(snaps, index, k, seed)
        kw = dict(granularity=granularity, exclude_null=exclude_null, k=k,
                  seed=seed)
        if want is None:
            with pytest.raises(DataError, match=f"snapshot {snap.period.label}"
                               f": need {k} negatives for"):
                sample_negatives(g, index, **kw)
        else:
            assert sample_negatives(g, index, **kw) == want


# -- trader labels -----------------------------------------------------

def test_trader_thresholds_right_closed():
    cases = [(3600, "daily"), (86400, "daily"), (86401, "weekly"),
             (7 * 86400, "weekly"), (10 * 86400, "monthly"),
             (30 * 86400, "monthly"), (100 * 86400, "yearly"),
             (365 * 86400, "yearly"), (366 * 86400, "remaining")]
    t0 = ts(2021, 1, 1)
    for gap, want in cases:
        g = graph_of([(t0, 0, 1), (t0 + gap, 0, 2)])
        by_addr = trader_labels(g)
        assert by_addr[addr(0)] == want, (gap, want)


def test_trader_single_transaction_filtered():
    g = graph_of([(ts(2021, 1, 1), 0, 1)])
    assert trader_labels(g) == {}


def test_trader_null_excluded_by_default():
    t0 = ts(2021, 1, 1)
    g = graph_of([(t0, NULL_ADDRESS, 0), (t0 + 60, NULL_ADDRESS, 1),
                  (t0 + 120, 0, 1)])
    assert set(trader_labels(g)) == {addr(0), addr(1)}


def test_trader_partition_complete():
    rng = random.Random(13)
    g = TemporalGraph.build(random_events(rng, 20, 150))
    eligible = sum(1 for i in range(g.num_nodes)
                   if g.n_txc[i] >= 2 and i != g.null_id)
    labels = trader_labels(g)
    assert len(labels) == eligible
    assert all(c in ("daily", "weekly", "monthly", "yearly", "remaining")
               for c in labels.values())


@settings(deadline=None, max_examples=80)
@given(events=_EVENTS)
def test_trader_labels_match_oracle(events):
    g = TemporalGraph.build(events)
    triples = _triples(events)
    assert list(trader_labels(g).items()) == \
        list(oracles.trader_labels(triples, NULL_ADDRESS).items())


def test_trader_classes_need_no_csv_quoting():
    """export_features writes labels without csv.writer's quoting."""
    for label in TRADER_CLASSES:
        assert not set(label) & set(',"\r\n'), label


# -- feature export ----------------------------------------------------

def test_export_link_task(tmp_path):
    t0 = ts(2021, 1, 1)
    g = graph_of([(t0, 0, 1), (t0 + 60, 0, 1), (ts(2021, 1, 2), 1, 2)])
    roles = export_features(g, str(tmp_path), granularity="day",
                            exclude_null=True, task="link")
    assert roles == ["train", "test"]
    with open(tmp_path / "snapshot_0000" / "edges.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["tx_count"] == "2"
    assert rows[0]["last_ts"] == str(t0 + 60)
    assert "earlystop" not in rows[0]
    with open(tmp_path / "snapshot_0000" / "nodes.csv") as fh:
        nrows = list(csv.DictReader(fh))
    assert all(r["feature"] == "1" for r in nrows)


def test_export_node_task_cumulative_degree(tmp_path):
    t0 = ts(2021, 1, 1)
    g = graph_of([(t0, 0, 1), (ts(2021, 1, 2), 0, 2)])
    export_features(g, str(tmp_path), granularity="day",
                    exclude_null=True, task="node")
    with open(tmp_path / "snapshot_0001" / "nodes.csv") as fh:
        rows = {r["address_id"]: r for r in csv.DictReader(fh)}
    a0 = str(addr_id(g, addr(0)))
    assert rows[a0]["degree"] == "2"      # cumulative over both days
    # the gap is exactly one day, and thresholds are right-closed
    assert rows[a0]["label"] == "daily"


def test_export_live_update_earlystop_mask(tmp_path):
    t0 = ts(2021, 1, 1)
    triples = [(t0 + i * 60, i, i + 1) for i in range(50)]
    g = graph_of(triples)
    export_features(g, str(tmp_path), granularity="day",
                    exclude_null=True, split_mode="live_update",
                    seed=3, earlystop_fraction=0.3)
    with open(tmp_path / "snapshot_0000" / "edges.csv") as fh:
        rows = list(csv.DictReader(fh))
    marks = [int(r["earlystop"]) for r in rows]
    assert set(marks) <= {0, 1}
    assert 0 < sum(marks) < len(marks)


def test_export_manifest_roles(tmp_path):
    import json
    g = graph_of([(ts(2021, 1, 1 + i), 0, i + 1) for i in range(5)])
    export_features(g, str(tmp_path), granularity="day",
                    exclude_null=True, split_mode="fixed")
    man = json.loads((tmp_path / "snapshot_0004" / "manifest.json").read_text())
    assert man["role"] == "test"
    assert man["granularity"] == "day"


@pytest.mark.parametrize("task", ["link", "node"])
@pytest.mark.parametrize("split_mode", ["fixed", "live_update"])
@settings(deadline=None, max_examples=40)
@given(events=_EVENTS, exclude_null=st.booleans(), seed=st.integers(0, 3))
def test_export_files_match_csv_writer_oracle(task, split_mode, events,
                                              exclude_null, seed):
    g = TemporalGraph.build(events)
    snaps = list(build_snapshots(g, "day", exclude_null=exclude_null))
    label_of = {addr_id(g, a): c for a, c in
                oracles.trader_labels(_triples(events), NULL_ADDRESS).items()}
    want = oracles.export_csv_texts(snaps, label_of, task, split_mode, seed,
                                    0.3)
    with tempfile.TemporaryDirectory() as d:
        export_features(g, d, granularity="day",
                        exclude_null=exclude_null, task=task,
                        split_mode=split_mode, seed=seed,
                        earlystop_fraction=0.3)
        got = [tuple(Path(d, f"snapshot_{i:04d}", name).read_bytes()
                     .decode() for name in ("edges.csv", "nodes.csv"))
               for i in range(len(snaps))]
    assert got == want


def test_export_ml_memory_per_edge(tmp_path):
    """export-ml's peak of traced allocations on 60k uniform transfers by
    day, node task, stays below 260 B per edge: the loaded graph, the
    per-node export state and one snapshot's pairs, about 220 B (387 B
    when every snapshot is built before the first is written)."""
    from nftgraph import cli
    from nftgraph.fixture import write_fixture
    src = str(tmp_path / "transfers.csv")
    write_fixture("uniform", 1, 60_000, src)
    tracemalloc.start()
    try:
        rc = cli.main(["export-ml", "--input", src,
                       "--out-dir", str(tmp_path / "ml"),
                       "--granularity", "day", "--task", "node",
                       "--negatives-snapshot", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert (tmp_path / "ml" / "snapshot_0020").is_dir()
    assert peak / 60_000 < 260


# -- evaluation --------------------------------------------------------

def test_eval_positive_above_all():
    rec = ScoreRecord("e0", 1.0, tuple([0.1] * 100))
    out = eval_link_scores([rec])
    assert out["auc"] == 1.0 and out["mrr"] == 1.0


def test_eval_two_above():
    rec = ScoreRecord("e0", 0.5, tuple([0.9, 0.8] + [0.1] * 98))
    out = eval_link_scores([rec])
    assert out["auc"] == pytest.approx(0.98)
    assert out["mrr"] == pytest.approx(1 / 3)


def test_eval_all_ties():
    rec = ScoreRecord("e0", 0.5, tuple([0.5] * 100))
    out = eval_link_scores([rec])
    assert out["auc"] == pytest.approx(0.5)
    assert out["mrr"] == pytest.approx(1 / 51)


def test_eval_monotone_transform_invariant():
    rng = random.Random(2)
    records = [ScoreRecord(f"e{i}", rng.random(),
                           tuple(rng.random() for _ in range(20)))
               for i in range(10)]
    base = eval_link_scores(records)
    warped = [ScoreRecord(r.positive_id, math.exp(3 * r.pos_score),
                          tuple(math.exp(3 * s) for s in r.neg_scores))
              for r in records]
    out = eval_link_scores(warped)
    assert out["auc"] == pytest.approx(base["auc"])
    assert out["mrr"] == pytest.approx(base["mrr"])


def test_eval_classification_metrics():
    pairs = [("daily", "daily"), ("daily", "weekly"),
             ("weekly", "weekly"), ("weekly", "weekly")]
    out = eval_classification(pairs)
    assert out["accuracy"] == pytest.approx(3 / 4)
    assert out["macro_recall"] == pytest.approx((0.5 + 1.0) / 2)


def test_read_score_file_and_errors(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("positive_id,pos_score,n1,n2\n"
                 "e0,0.9,0.1,0.2\n")
    (rec,) = read_score_file(str(p), k=2)
    assert rec.neg_scores == (0.1, 0.2)
    with pytest.raises(DataError, match="'e0': expected 5 negatives, got 2"):
        read_score_file(str(p), k=5)
    bad = tmp_path / "bad.csv"
    bad.write_text("e0,abc,0.1\n")
    with pytest.raises(DataError, match="non-numeric score for 'e0'"):
        read_score_file(str(bad))
    with pytest.raises(DataError, match="empty score file"):
        eval_link_scores([])
