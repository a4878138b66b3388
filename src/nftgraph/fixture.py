"""Synthetic transfer-file generators with ground-truth ledgers.

Three profiles:
  uniform      -- random pairs, useful for load/perf checks
  preferential -- rich-get-richer target selection, heavy-tailed degrees
  planted      -- every anomaly and label the pipeline should recover is
                  embedded with exact, ledger-recorded counts

The ledger JSON records every planted quantity so that tests can assert
exact recovery without re-deriving anything from the generated file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .ingest import (NULL_ADDRESS, RAW_CSV_COLUMNS, TRANSFER_TOPIC,
                     TransferEvent, write_transfers)
from .output import open_output, write_table
from .periods import DAY

TS0 = 1577836800        # 2020-01-01 UTC

PROFILES = ("uniform", "preferential", "planted")


def _addr(prefix: int, n: int) -> str:
    return f"0x{prefix:02x}{n:038x}"


def _contract(n: int) -> str:
    return _addr(0xc0, n)[:42]


@dataclass
class _Builder:
    rows: list[TransferEvent] = field(default_factory=list)

    def add(self, ts: int, contract: str, src: str, dst: str, token: int):
        n = len(self.rows) + 1
        self.rows.append(TransferEvent(
            timestamp=ts,
            block_number=(ts - TS0) // 13 + 10_000_000,
            tx_hash=f"0x{n:064x}",
            log_index=n % 1000,
            contract=contract, from_addr=src, to_addr=dst, token_id=token))

    def sorted_rows(self) -> list[TransferEvent]:
        return sorted(self.rows,
                      key=lambda e: (e.timestamp, e.block_number, e.log_index))


def generate(profile: str, seed: int, scale: int):
    """Return (rows, ledger) for a profile; rows come back time-sorted."""
    if profile == "uniform":
        return _uniform(seed, scale)
    if profile == "preferential":
        return _preferential(seed, scale)
    if profile == "planted":
        return _planted(seed, scale)
    raise ValueError(f"unknown profile {profile!r}")


def write_fixture(profile: str, seed: int, scale: int, out_path: str,
                  ledger_path: str | None = None,
                  raw_path: str | None = None) -> dict:
    rows, ledger = generate(profile, seed, scale)
    write_transfers(out_path, rows)
    if ledger_path:
        with open_output(ledger_path) as fh:
            json.dump(ledger, fh, indent=2, sort_keys=True)
    if raw_path:
        write_raw_csv(raw_path, rows)
    return ledger


# ---------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------

def _uniform(seed: int, scale: int):
    rng = random.Random(seed)
    b = _Builder()
    n_addr = max(4, scale // 4)
    contract = _contract(0)
    ts = TS0
    for _ in range(scale):
        ts += rng.randrange(1, 60)
        u = rng.randrange(n_addr)
        v = rng.randrange(n_addr - 1)
        if v >= u:
            v += 1
        b.add(ts, contract, _addr(0x10, u), _addr(0x10, v),
              rng.randrange(1 << 40))
    rows = b.sorted_rows()
    return rows, {"profile": "uniform", "seed": seed, "scale": scale,
                  "transfers": len(rows)}


def _preferential(seed: int, scale: int):
    rng = random.Random(seed)
    b = _Builder()
    contract = _contract(0)
    ts = TS0
    targets: list[int] = [0]        # one slot per incident edge endpoint
    n_nodes = 1
    mints = 0
    for _ in range(scale):
        ts += rng.randrange(1, 120)
        if rng.random() < 0.15 or n_nodes < 3:
            dst = n_nodes
            n_nodes += 1
            b.add(ts, contract, NULL_ADDRESS, _addr(0x20, dst),
                  rng.randrange(1 << 40))
            mints += 1
            targets.append(dst)
        else:
            u = rng.randrange(n_nodes)
            v = targets[rng.randrange(len(targets))]
            if u == v:
                continue
            b.add(ts, contract, _addr(0x20, u), _addr(0x20, v),
                  rng.randrange(1 << 40))
            targets.extend((u, v))
    rows = b.sorted_rows()
    return rows, {"profile": "preferential", "seed": seed, "scale": scale,
                  "transfers": len(rows), "mints": mints}


def _planted(seed: int, scale: int):
    """Plant mints, wash 3-cycles, suspicious pairs, a bot run and a known
    trader-class mix into one stream with no accidental overlaps.

    Everything except the wash cycles happens before `csm_initial_until`;
    the cycles form the insertion stream.  Background traffic is
    unidirectional and acyclic so every planted structure is the only one
    of its kind.
    """
    rng = random.Random(seed)
    b = _Builder()
    bg_contract = _contract(1)
    bot_contract = _contract(2)
    sink_counter = [0]

    def sink() -> str:
        sink_counter[0] += 1
        return _addr(0x70, sink_counter[0])

    def token() -> int:
        return rng.randrange(1 << 30, 1 << 40)

    n_per_class = 20
    class_gaps = {"daily": 3600, "weekly": 3 * DAY, "monthly": 20 * DAY,
                  "yearly": 200 * DAY, "remaining": 400 * DAY}
    expected_classes = {c: 0 for c in
                        ("daily", "weekly", "monthly", "yearly", "remaining")}

    # 1. trader nodes with prescribed max gaps (mint, then one sale)
    trader_idx = 0
    mints = 0
    t = TS0
    for cls, gap in class_gaps.items():
        for _ in range(n_per_class):
            trader = _addr(0x20, trader_idx)
            trader_idx += 1
            t += 600
            b.add(t, bg_contract, NULL_ADDRESS, trader, token())
            b.add(t + gap, bg_contract, trader, sink(), token())
            mints += 1
            expected_classes[cls] += 1

    # 2. suspicious pairs: LOW_ACTIVITY (2 txs each, all with the partner)
    low_pairs = []
    t = TS0 + 30 * DAY
    for i in range(3):
        a, c = _addr(0x40, 2 * i), _addr(0x40, 2 * i + 1)
        t += 7200
        b.add(t, bg_contract, a, c, token())
        b.add(t + 60, bg_contract, c, a, token())
        low_pairs.append(tuple(sorted((a, c))))
        expected_classes["daily"] += 2

    #    HIGH_RATIO: busy endpoints (10 txs) trading only with each other
    high_pairs = []
    t = TS0 + 40 * DAY
    for i in range(3):
        a, c = _addr(0x41, 2 * i), _addr(0x41, 2 * i + 1)
        t += 2 * DAY
        for j in range(9):
            b.add(t + j * 3600, bg_contract, a, c, token())
        b.add(t + 60, bg_contract, c, a, token())
        high_pairs.append(tuple(sorted((a, c))))
        expected_classes["daily"] += 2

    # 3. benign mutual pairs: bidirectional but days apart, with filler
    #    traffic so neither wallet-pair rule can fire
    benign = 34
    t = TS0 + 60 * DAY
    for i in range(benign):
        gap_days = 2 + i
        p, q = _addr(0x50, 2 * i), _addr(0x50, 2 * i + 1)
        tb = t + i * 3 * DAY
        b.add(tb, bg_contract, p, q, token())
        b.add(tb + gap_days * DAY + 30, bg_contract, q, p, token())
        for j in range(1, 2 * gap_days):
            b.add(tb + j * 43200, bg_contract, p, sink(), token())
            b.add(tb + j * 43200 + 20, bg_contract, q, sink(), token())
        expected_classes["daily"] += 2

    # 4. bot: long consecutive-token-id run, a sale every 2 minutes
    bot = _addr(0x60, 0)
    bot_run = 150
    t = TS0 + 200 * DAY
    for j in range(bot_run):
        b.add(t + j * 120, bot_contract, bot, sink(), 1000 + j)
    expected_classes["daily"] += 1

    # 5. wash-trade 3-cycles -- the CSM insertion stream
    split_time = TS0 + 460 * DAY
    cycles = 7
    cycle_nodes = []
    for i in range(cycles):
        a, c, d = (_addr(0x30, 3 * i), _addr(0x30, 3 * i + 1),
                   _addr(0x30, 3 * i + 2))
        base = split_time + 1 + i * 3600
        tok = token()
        b.add(base, bg_contract, a, c, tok)
        b.add(base + 300, bg_contract, c, d, tok)
        b.add(base + 600, bg_contract, d, a, tok)
        cycle_nodes.append([a, c, d])
        expected_classes["daily"] += 3

    # 6. background mints up to the requested scale
    background = max(0, scale - len(b.rows))
    for i in range(background):
        ts = TS0 + rng.randrange(0, 400 * DAY)
        b.add(ts, bg_contract, NULL_ADDRESS, _addr(0x10, i), token())
    mints += background

    rows = b.sorted_rows()
    addresses = {NULL_ADDRESS}
    for r in rows:
        addresses.add(r.from_addr)
        addresses.add(r.to_addr)
    suspicious = (
        [{"pair": list(p), "rules": ["HIGH_RATIO", "LOW_ACTIVITY"]}
         for p in low_pairs]
        + [{"pair": list(p), "rules": ["HIGH_RATIO"]} for p in high_pairs])
    suspicious.sort(key=lambda s: s["pair"])
    ledger = {
        "profile": "planted", "seed": seed, "scale": scale,
        "transfers": len(rows),
        "nodes": len(addresses),
        "mints": mints,
        "mint_nodes": n_per_class * 5 + background,
        "trader_class_counts": expected_classes,
        "wash_cycles": cycles,
        "wash_cycle_nodes": cycle_nodes,
        "suspicious_pairs": suspicious,
        "bot_addresses": [bot],
        "bot_contract": bot_contract,
        "bot_run_length": bot_run,
        "mutual_pairs_total": benign + len(low_pairs) + len(high_pairs),
        "mutual_zero_day_fraction":
            (len(low_pairs) + len(high_pairs))
            / (benign + len(low_pairs) + len(high_pairs)),
        "csm_initial_until": split_time,
    }
    return rows, ledger


# ---------------------------------------------------------------------
# raw-log export (for exercising the ingest path end to end)
# ---------------------------------------------------------------------

def _pad32(addr: str) -> str:
    return "0x" + addr[2:].rjust(64, "0")


def raw_row(e: TransferEvent) -> dict:
    return {
        "block_number": e.block_number,
        "block_timestamp": e.timestamp,
        "transaction_hash": e.tx_hash,
        "log_index": e.log_index,
        "address": e.contract,
        "topics": [TRANSFER_TOPIC, _pad32(e.from_addr), _pad32(e.to_addr),
                   f"0x{e.token_id:064x}"],
        "data": "0x",
    }


def write_raw_csv(path: str, rows) -> None:
    write_table(path, RAW_CSV_COLUMNS, (
        [r["block_number"], r["block_timestamp"], r["transaction_hash"],
         r["log_index"], r["address"], "|".join(r["topics"]), r["data"]]
        for r in map(raw_row, rows)))
