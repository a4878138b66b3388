"""Directed temporal multigraph over addresses, with deduplicated views.

The TemporalGraph is append-only and built in one pass from a normalized
transfer file.  Addresses and contracts are interned to integer ids; edges
live in parallel array('q') columns, 40 bytes per edge, so that ~10M
edges fit comfortably in memory.  A column whose values do not all fit
in int64 (a uint256 token id, a far-off timestamp) is a list of ints
instead, by the one rule of `ingest.extended`.
The per-node records are derived from the edges by the one constructor,
never stored or set elsewhere: first and last timestamps by that same
rule, transaction counts and mint flags as lists.
All views derived from a built graph are immutable and safe to share
across threads.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from bisect import bisect_right
from collections import defaultdict
from itertools import count, islice
from typing import Iterable, Iterator

from .errors import DataError
from .ingest import NULL_ADDRESS, column_blocks, extended, read_transfers
from .periods import Period, iter_periods


class TemporalGraph:
    """Time-sorted directed multigraph plus token ownership ledger."""

    def __init__(self, addresses: list[str], contracts: list[str],
                 e_src: array, e_dst: array, e_ts: array | list,
                 e_contract: array, e_token: array | list):
        """A graph over interned, time-sorted edge columns.

        Derives the node records (a self-loop is one transaction; a mint
        node first appears as the dst of an edge from Null).  Raises
        DataError for edge columns of unequal length, an id out of range,
        node ids out of first-appearance order (src before dst), a node
        without an edge, a string listed twice or a timestamp that
        regresses.
        """
        lengths = [len(c) for c in (e_src, e_dst, e_ts, e_contract, e_token)]
        if len(set(lengths)) > 1:
            raise DataError("edge columns e_src, e_dst, e_ts, e_contract, "
                            f"e_token differ in length: {lengths}")
        self.addresses, self.contracts = addresses, contracts
        addr_ids = {a: i for i, a in enumerate(addresses)}
        if (len(addr_ids) != len(addresses)
                or len(set(contracts)) != len(contracts)):
            raise DataError("an address or contract is listed twice")
        self.null_id = addr_ids.get(NULL_ADDRESS)
        # parallel edge arrays, sorted by (timestamp, block, log_index)
        self.e_src, self.e_dst, self.e_ts = e_src, e_dst, e_ts
        self.e_contract, self.e_token = e_contract, e_token
        n = len(addresses)
        for name, ids, bound in (("e_src", e_src, n), ("e_dst", e_dst, n),
                                 ("e_contract", e_contract, len(contracts))):
            if ids and not (min(ids) >= 0 and max(ids) < bound):
                raise DataError(f"{name} holds an id outside [0, {bound})")
        # the walk stores into lists, faster than into arrays
        n_first, n_last = [0] * n, [0] * n
        self.n_txc = n_txc = [0] * n
        self.n_mint = n_mint = [False] * n
        null, seen, prev = self.null_id, 0, e_ts[0] if e_ts else 0
        for u, v, ts in zip(e_src, e_dst, e_ts):
            if ts < prev:
                k = next(k for k in range(1, len(e_ts))
                         if e_ts[k] < e_ts[k - 1])
                raise DataError(f"e_ts regresses at edge {k}: "
                                f"{e_ts[k]} after {e_ts[k - 1]}")
            prev = ts
            if u >= seen:
                if u != seen:
                    raise DataError(f"node {u} appears before node {seen}")
                n_first[u] = ts
                seen += 1
            if v >= seen:
                if v != seen:
                    raise DataError(f"node {v} appears before node {seen}")
                n_first[v] = ts
                n_mint[v] = u == null
                seen += 1
            n_last[u] = n_last[v] = ts
            n_txc[u] += 1
            if u != v:
                n_txc[v] += 1
        if seen != n:
            raise DataError(f"node {seen} has no edge")
        # times read from arrays are new ints, 32 bytes each in a list
        self.n_first = extended(array("q"), n_first)
        self.n_last = extended(array("q"), n_last)

    @classmethod
    def build(cls, source) -> "TemporalGraph":
        """Build from a normalized CSV, given as a path or an open text
        stream, or from TransferEvents (rows in NORMALIZED_HEADER order).

        Works a column block at a time, extending each edge column once
        per block.  Ids are handed out in first appearance order, a
        row's src before its dst, by a dict whose missing keys take the
        next number.
        """
        if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
            blocks = read_transfers(source)
        else:
            blocks = column_blocks(source)
        addr_ids = defaultdict(count().__next__)
        contract_ids = defaultdict(count().__next__)
        e_src, e_dst, e_ts, e_contract, e_token = (array("q")
                                                   for _ in range(5))
        for ts, _, _, _, contract, src, dst, token in blocks:
            ends = [None] * (2 * len(src))
            ends[0::2], ends[1::2] = src, dst
            ids = list(map(addr_ids.__getitem__, ends))
            e_src.fromlist(ids[0::2])
            e_dst.fromlist(ids[1::2])
            e_ts = extended(e_ts, ts)
            e_contract.fromlist(list(map(contract_ids.__getitem__, contract)))
            e_token = extended(e_token, token)
        return cls(list(addr_ids), list(contract_ids),
                   e_src, e_dst, e_ts, e_contract, e_token)

    # -- basic queries -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.addresses)

    @property
    def num_edges(self) -> int:
        return len(self.e_src)

    def edges(self, until: int | None = None, *, include_null: bool = True,
              include_self_loops: bool = True) -> Iterator[tuple[int, int, int]]:
        """(src, dst, ts) of the edges with timestamp <= until, in time order.

        The one place where Null-incident edges and self-loops are dropped.
        """
        end = (self.num_edges if until is None
               else bisect_right(self.e_ts, until))
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

    def summary(self) -> dict:
        tokens = len(set(zip(self.e_contract, self.e_token)))
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "contracts": len(self.contracts),
            "tokens": tokens,
            "mint_nodes": sum(self.n_mint),
            "first_timestamp": self.e_ts[0] if self.e_ts else None,
            "last_timestamp": self.e_ts[-1] if self.e_ts else None,
        }


def summary_digest(summary: dict) -> str:
    """sha256 of a `TemporalGraph.summary()` dict as sorted-key JSON."""
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


class SimpleDigraph:
    """Deduplicated directed view: distinct ordered address pairs.

    The `out` and `in_` adjacency sets are the one record of the pairs.
    `nodes` may include isolated vertices (e.g. nodes whose only links were
    Null-incident and got filtered); metrics that average over |V| rely on
    that.
    """

    def __init__(self, nodes: Iterable[int], pairs: Iterable[tuple[int, int]]):
        self.nodes: set[int] = set(nodes)
        self.out: dict[int, set[int]] = {}
        self.in_: dict[int, set[int]] = {}
        self.num_edges = 0
        for u, v in pairs:
            self.add_pair(u, v)

    def add_pair(self, u: int, v: int) -> bool:
        succ = self.out.setdefault(u, set())
        if v in succ:
            return False
        succ.add(v)
        self.in_.setdefault(v, set()).add(u)
        self.nodes.add(u)
        self.nodes.add(v)
        self.num_edges += 1
        return True

    def remove_pair(self, u: int, v: int) -> None:
        """Undo `add_pair` of the present pair (u, v); the nodes stay."""
        self.out[u].remove(v)
        self.in_[v].remove(u)
        self.num_edges -= 1

    @property
    def pairs(self) -> set[tuple[int, int]]:
        """A new set of the (u, v) pairs, built from `out` on every read."""
        return {(u, v) for u, succ in self.out.items() for v in succ}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

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
    # node ids follow first appearance, so n_first is nondecreasing
    seen = g.num_nodes if cutoff is None else bisect_right(g.n_first, cutoff)
    view = SimpleDigraph(range(seen), ((u, v) for u, v, _ts in g.edges(
        cutoff, include_null=include_null,
        include_self_loops=include_self_loops)))
    if not include_null:
        view.nodes.discard(g.null_id)
    return view
