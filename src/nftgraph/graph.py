"""Directed temporal multigraph over addresses, with deduplicated views.

The TemporalGraph is append-only and built in one pass from a normalized
transfer file.  Addresses and contracts are interned to integer ids; edges
live in parallel arrays so that ~10M edges fit comfortably in memory.
All views derived from a built graph are immutable and safe to share
across threads.
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from itertools import islice
from typing import Iterable, Iterator

from .errors import NegativeAge, UnknownNode, UnsortedInput
from .ingest import NULL_ADDRESS, read_transfers
from .periods import Period, iter_periods


class TemporalGraph:
    """Time-sorted directed multigraph plus token ownership ledger."""

    def __init__(self):
        self.addresses: list[str] = []
        self._addr_ids: dict[str, int] = {}
        self.contracts: list[str] = []
        self._contract_ids: dict[str, int] = {}
        # parallel edge arrays, sorted by (timestamp, block, log_index)
        self.e_src: list[int] = []
        self.e_dst: list[int] = []
        self.e_ts: list[int] = []
        self.e_contract: list[int] = []
        self.e_token: list[int] = []
        # per-node records
        self.n_first: list[int] = []
        self.n_last: list[int] = []
        self.n_txc: list[int] = []
        self.n_mint: list[bool] = []
        self.null_id: int | None = None

    # -- construction -------------------------------------------------

    def _intern_addr(self, addr: str) -> int:
        i = self._addr_ids.get(addr)
        if i is None:
            i = len(self.addresses)
            self._addr_ids[addr] = i
            self.addresses.append(addr)
            self.n_first.append(0)
            self.n_last.append(0)
            self.n_txc.append(0)
            self.n_mint.append(False)
            if addr == NULL_ADDRESS:
                self.null_id = i
        return i

    def _intern_contract(self, contract: str) -> int:
        i = self._contract_ids.get(contract)
        if i is None:
            i = len(self.contracts)
            self._contract_ids[contract] = i
            self.contracts.append(contract)
        return i

    @classmethod
    def build(cls, source) -> "TemporalGraph":
        """Build from a normalized CSV, given as a path or an open text
        stream, or from TransferEvents (rows in NORMALIZED_HEADER order).

        Raises UnsortedInput if timestamps regress.
        """
        if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
            source = read_transfers(source)
        g = cls()
        prev_ts = None
        addr_ids, contract_ids = g._addr_ids, g._contract_ids
        n_first, n_last, n_txc, n_mint = g.n_first, g.n_last, g.n_txc, g.n_mint
        for ts, _, tx_hash, _, contract, src, dst, token in source:
            if prev_ts is not None and ts < prev_ts:
                raise UnsortedInput(f"timestamp regressed at {tx_hash}")
            prev_ts = ts
            u = addr_ids.get(src)
            if u is None:
                u = g._intern_addr(src)
                n_first[u] = ts
            v = addr_ids.get(dst)
            if v is None:
                v = g._intern_addr(dst)
                n_first[v] = ts
                if src == NULL_ADDRESS:
                    n_mint[v] = True
            n_last[u] = ts
            n_last[v] = ts
            n_txc[u] += 1
            n_txc[v] += 1
            if u == v:
                n_txc[u] -= 1  # a self-loop is one incident transaction
            c = contract_ids.get(contract)
            if c is None:
                c = g._intern_contract(contract)
            g.e_src.append(u)
            g.e_dst.append(v)
            g.e_ts.append(ts)
            g.e_contract.append(c)
            g.e_token.append(token)
        return g

    # -- basic queries -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.addresses)

    @property
    def num_edges(self) -> int:
        return len(self.e_src)

    def addr_id(self, address: str) -> int:
        try:
            return self._addr_ids[address]
        except KeyError:
            raise UnknownNode(address) from None

    def node_age(self, address: str, t: int) -> int:
        """Age of a node at time t: t minus its first-seen timestamp."""
        i = self.addr_id(address)
        if t < self.n_first[i]:
            raise NegativeAge(f"{address} first seen after t")
        return t - self.n_first[i]

    def edge_count_until(self, t: int) -> int:
        return bisect_right(self.e_ts, t)

    def edges(self, until: int | None = None, *, include_null: bool = True,
              include_self_loops: bool = True) -> Iterator[tuple[int, int, int]]:
        """(src, dst, ts) of the edges with timestamp <= until, in time order.

        The one place where Null-incident edges and self-loops are dropped.
        """
        end = self.num_edges if until is None else self.edge_count_until(until)
        edges = islice(zip(self.e_src, self.e_dst, self.e_ts), end)
        null = None if include_null else self.null_id
        if null is None and include_self_loops:
            return edges
        return ((u, v, ts) for u, v, ts in edges
                if u != null and v != null and (include_self_loops or u != v))

    def periods(self, granularity: str) -> list[Period]:
        """Calendar periods from the first to the last edge; [] if none."""
        if not self.e_ts:
            return []
        return list(iter_periods(granularity, self.e_ts[0], self.e_ts[-1]))

    def token_owner_at(self, contract: str, token_id: int, t: int | None = None):
        """Current owner address of a token at cutoff t, or None if unseen."""
        cid = self._contract_ids.get(contract)
        if cid is None:
            return None
        end = self.num_edges if t is None else self.edge_count_until(t)
        owner = None
        for k in range(end):
            if self.e_contract[k] == cid and self.e_token[k] == token_id:
                owner = self.e_dst[k]
        return None if owner is None else self.addresses[owner]

    def summary(self) -> dict:
        mints = sum(1 for m in self.n_mint if m)
        tokens = len({(c, t) for c, t in zip(self.e_contract, self.e_token)})
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "contracts": len(self.contracts),
            "tokens": tokens,
            "mint_nodes": mints,
            "first_timestamp": self.e_ts[0] if self.e_ts else None,
            "last_timestamp": self.e_ts[-1] if self.e_ts else None,
        }

    def summary_digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.summary(), sort_keys=True).encode()).hexdigest()


class SimpleDigraph:
    """Deduplicated directed view: distinct ordered address pairs.

    `nodes` may include isolated vertices (e.g. nodes whose only links were
    Null-incident and got filtered); metrics that average over |V| rely on
    that.
    """

    def __init__(self, nodes: Iterable[int], pairs: Iterable[tuple[int, int]]):
        self.nodes: set[int] = set(nodes)
        self.pairs: set[tuple[int, int]] = set()
        self.out: dict[int, set[int]] = {}
        self.in_: dict[int, set[int]] = {}
        for u, v in pairs:
            self.add_pair(u, v)

    def add_pair(self, u: int, v: int) -> bool:
        if (u, v) in self.pairs:
            return False
        self.pairs.add((u, v))
        self.nodes.add(u)
        self.nodes.add(v)
        self.out.setdefault(u, set()).add(v)
        self.in_.setdefault(v, set()).add(u)
        return True

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    def degree(self, u: int) -> int:
        """Pair-count degree: out-pairs plus in-pairs."""
        return len(self.out.get(u, ())) + len(self.in_.get(u, ()))

    def undirected_neighbors(self, u: int) -> set[int]:
        """A new set of u's out- and in-neighbours, u itself left out."""
        nbrs = set(self.out.get(u, ()))
        nbrs.update(self.in_.get(u, ()))
        nbrs.discard(u)
        return nbrs


def simple_view(g: TemporalGraph, cutoff: int | None = None, *,
                include_null: bool = True,
                include_self_loops: bool = True) -> SimpleDigraph:
    """Distinct ordered pairs among edges with timestamp <= cutoff.

    (u,v) and (v,u) count as different pairs.  The node set is every node
    first seen by the cutoff (minus Null when excluded), even if all of a
    node's pairs were filtered out.
    """
    pairs = {(u, v) for u, v, _ts in g.edges(
        cutoff, include_null=include_null,
        include_self_loops=include_self_loops)}
    if cutoff is None:
        nodes = set(range(g.num_nodes))
    else:
        nodes = {i for i, f in enumerate(g.n_first) if f <= cutoff}
    if not include_null and g.null_id is not None:
        nodes.discard(g.null_id)
    return SimpleDigraph(nodes, pairs)


def peel_degree_one(view: SimpleDigraph) -> SimpleDigraph:
    """Remove nodes with exactly one undirected neighbor, once.

    Degrees are evaluated on the input view; nodes left without any
    incident pair are dropped too.  Callers iterate for repeated peeling.
    """
    doomed = {u for u in view.nodes if len(view.undirected_neighbors(u)) == 1}
    pairs = [(u, v) for (u, v) in view.pairs
             if u not in doomed and v not in doomed]
    nodes = {u for p in pairs for u in p}
    return SimpleDigraph(nodes, pairs)
