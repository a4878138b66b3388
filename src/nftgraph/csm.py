"""Continuous subgraph matching over an edge-insertion stream.

Matching semantics: injective subgraph isomorphism on the directed simple
view (multi-edges collapse, re-inserting an existing pair is a no-op).
Matches are reported incrementally: only embeddings that use a streamed
edge are ever emitted, never those fully contained in the initial graph.
Counts are distinct mappings by default; automorphism-deduplicated counts
are tracked alongside.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import QueryError, TimeLimitExceeded

MAX_QUERY_VERTICES = 16

WILDCARD = None


@dataclass(frozen=True)
class QueryGraph:
    name: str
    labels: tuple[object, ...]           # per-vertex label, None = wildcard
    edges: tuple[tuple[int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def out_adj(self) -> list[set[int]]:
        adj = [set() for _ in self.labels]
        for x, y in self.edges:
            adj[x].add(y)
        return adj

    def in_adj(self) -> list[set[int]]:
        adj = [set() for _ in self.labels]
        for x, y in self.edges:
            adj[y].add(x)
        return adj

    def degree(self, x: int) -> int:
        return sum(1 for e in self.edges if x in e) \
            + sum(1 for (a, b) in self.edges if a == b == x)


def parse_query(text: str, name: str = "query") -> QueryGraph:
    """Parse the `v <id> <label|*>` / `e <src> <dst>` pattern format.

    Statements are separated by newlines or semicolons; `#` starts a
    comment.  The pattern must be weakly connected (a single vertex with
    no edges is accepted as the trivial pattern) and have at most 16
    vertices and no duplicate directed edges.
    """
    labels: dict[int, object] = {}
    edges: list[tuple[int, int]] = []
    for raw in text.replace(";", "\n").splitlines():
        stmt = raw.split("#", 1)[0].strip()
        if not stmt:
            continue
        parts = stmt.split()
        if parts[0] == "v" and len(parts) == 3:
            try:
                vid = int(parts[1])
            except ValueError:
                raise QueryError(f"bad vertex id {parts[1]!r}") from None
            if vid in labels:
                raise QueryError(f"duplicate vertex {vid}")
            labels[vid] = WILDCARD if parts[2] == "*" else int(parts[2])
        elif parts[0] == "e" and len(parts) == 3:
            try:
                x, y = int(parts[1]), int(parts[2])
            except ValueError:
                raise QueryError("bad edge endpoints") from None
            if (x, y) in edges:
                raise QueryError(f"duplicate edge {x}->{y}")
            edges.append((x, y))
        else:
            raise QueryError(f"unparseable statement {stmt!r}")
    if not labels:
        raise QueryError("query has no vertices")
    n = len(labels)
    if sorted(labels) != list(range(n)):
        raise QueryError("vertex ids must be 0..n-1")
    if n > MAX_QUERY_VERTICES:
        raise QueryError(f"more than {MAX_QUERY_VERTICES} vertices")
    for x, y in edges:
        if x not in labels or y not in labels:
            raise QueryError(f"edge references unknown vertex {x}->{y}")
    if n > 1:
        seen = {0}
        frontier = [0]
        undirected = [set() for _ in range(n)]
        for x, y in edges:
            undirected[x].add(y)
            undirected[y].add(x)
        while frontier:
            u = frontier.pop()
            for w in undirected[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != n:
            raise QueryError("query is disconnected")
    return QueryGraph(name=name,
                      labels=tuple(labels[i] for i in range(n)),
                      edges=tuple(edges))


BUILTIN_PATTERNS: dict[str, str] = {
    # p1: the canonical wash cycle A -> B -> C -> A
    "p1": "v 0 *; v 1 *; v 2 *; e 0 1; e 1 2; e 2 0",
    # p2: immediate back-and-forth
    "p2": "v 0 *; v 1 *; e 0 1; e 1 0",
    # p3: directed 4-cycle
    "p3": "v 0 *; v 1 *; v 2 *; v 3 *; e 0 1; e 1 2; e 2 3; e 3 0",
    # p4: 3-cycle with a chord
    "p4": "v 0 *; v 1 *; v 2 *; e 0 1; e 1 2; e 2 0; e 0 2",
    # p5: two 3-cycles sharing the edge 0 -> 1
    "p5": ("v 0 *; v 1 *; v 2 *; v 3 *; "
           "e 0 1; e 1 2; e 2 0; e 1 3; e 3 0"),
}


def builtin_patterns() -> list[QueryGraph]:
    return [parse_query(text, name) for name, text in BUILTIN_PATTERNS.items()]


@dataclass(frozen=True)
class Match:
    mapping: tuple[int, ...]      # query vertex index -> data vertex
    trigger: tuple[int, int] | None
    timestamp: int | None


def _matching_order(q: QueryGraph, seeds: Sequence[int]) -> list[int]:
    """Static order over remaining query vertices: degree-descending, each
    vertex adjacent to the already-ordered prefix."""
    out_adj, in_adj = q.out_adj(), q.in_adj()
    placed = list(seeds)
    placed_set = set(seeds)
    while len(placed) < q.num_vertices:
        best = None
        for x in range(q.num_vertices):
            if x in placed_set:
                continue
            connected = bool((out_adj[x] | in_adj[x]) & placed_set)
            key = (connected, q.degree(x), -x)
            if best is None or key > best[0]:
                best = (key, x)
        placed.append(best[1])
        placed_set.add(best[1])
    return placed


def _label_ok(qlabel, dlabel) -> bool:
    return qlabel is WILDCARD or qlabel == dlabel


class _Enumerator:
    """Backtracking embedding enumeration shared by static and delta modes."""

    def __init__(self, data_out, data_in, labels, q: QueryGraph,
                 universe=None):
        self.out = data_out
        self.in_ = data_in
        self.labels = labels
        self.q = q
        self.q_out = q.out_adj()
        self.q_in = q.in_adj()
        self.universe = universe

    def _candidates(self, x: int, assign: dict[int, int]):
        """Data candidates for query vertex x given a partial assignment."""
        cand = None
        for y in self.q_out[x]:
            if y != x and y in assign:
                s = self.in_.get(assign[y], set())
                cand = s if cand is None else cand & s
        for y in self.q_in[x]:
            if y != x and y in assign:
                s = self.out.get(assign[y], set())
                cand = s if cand is None else cand & s
        if cand is None:
            if self.universe is not None:
                cand = self.universe
            else:
                cand = set(self.out) | set(self.in_)
        return cand

    def _consistent(self, x: int, u: int, assign: dict[int, int]) -> bool:
        if not _label_ok(self.q.labels[x], self.labels.get(u)):
            return False
        if u in assign.values():
            return False
        for y in self.q_out[x]:      # query edge x -> y
            if y == x:
                if u not in self.out.get(u, ()):
                    return False
            elif y in assign and assign[y] not in self.out.get(u, ()):
                return False
        for y in self.q_in[x]:       # query edge y -> x
            if y != x and y in assign and u not in self.out.get(assign[y], ()):
                return False
        return True

    def enumerate(self, order: list[int], assign: dict[int, int],
                  results: list[tuple[int, ...]]):
        depth = len(assign)
        if depth == len(order):
            results.append(tuple(assign[i] for i in range(self.q.num_vertices)))
            return
        x = order[depth]
        for u in self._candidates(x, assign):
            if self._consistent(x, u, assign):
                assign[x] = u
                self.enumerate(order, assign, results)
                del assign[x]


def match_static(data, q: QueryGraph, labels: dict[int, object] | None = None,
                 *, dedup_automorphisms: bool = False) -> list[Match]:
    """All injective direction- and label-preserving embeddings of q.

    `data` is anything with `out` / `in_` adjacency dicts of sets (e.g.
    SimpleDigraph).  Serves as the brute-force reference for the
    incremental path.
    """
    labels = labels or {}
    universe = set(data.nodes) if hasattr(data, "nodes") else None
    enum = _Enumerator(data.out, data.in_, labels, q, universe=universe)
    order = _matching_order(q, [max(range(q.num_vertices), key=q.degree)])
    results: list[tuple[int, ...]] = []
    enum.enumerate(order, {}, results)
    mappings = [Match(m, None, None) for m in sorted(results)]
    if dedup_automorphisms:
        mappings = dedup_matches(q, mappings)
    return mappings


def query_automorphisms(q: QueryGraph) -> list[tuple[int, ...]]:
    """All label/direction preserving self-embeddings of the query."""
    class _Q:
        pass
    qd = _Q()
    qd.out = {i: s for i, s in enumerate(q.out_adj()) if s}
    qd.in_ = {i: s for i, s in enumerate(q.in_adj()) if s}
    # an automorphism must also preserve labels, so use the query's own
    # labels as the data labels
    labels = {i: lab for i, lab in enumerate(q.labels)}
    enum = _Enumerator(qd.out, qd.in_, labels, q,
                       universe=set(range(q.num_vertices)))
    order = _matching_order(q, [max(range(q.num_vertices), key=q.degree)])
    results: list[tuple[int, ...]] = []
    enum.enumerate(order, {}, results)
    # wildcards match anything, but a true automorphism must carry each
    # label onto an identical label
    return [m for m in results
            if all(q.labels[v] == q.labels[m[v]] for v in range(len(m)))]


def canonical_mapping(mapping: tuple[int, ...],
                      autos: list[tuple[int, ...]]) -> tuple[int, ...]:
    return min(tuple(mapping[autos_i[v]] for v in range(len(mapping)))
               for autos_i in autos)


def dedup_matches(q: QueryGraph, matches: Iterable[Match]) -> list[Match]:
    autos = query_automorphisms(q)
    seen = set()
    out = []
    for m in matches:
        canon = canonical_mapping(m.mapping, autos)
        if canon not in seen:
            seen.add(canon)
            out.append(m)
    return out


class MatchContext:
    """Incremental matching state for one query over an insertion stream."""

    def __init__(self, q: QueryGraph, *, window: int | None = None,
                 time_limit_ms: float = 3.6e6):
        self.q = q
        self.window = window
        self.time_limit_ms = time_limit_ms
        self.out: dict[int, set[int]] = {}
        self.in_: dict[int, set[int]] = {}
        self.labels: dict[int, object] = {}
        self.pair_ts: dict[tuple[int, int], int] = {}
        self.autos = query_automorphisms(q)
        self.match_count = 0
        self.dedup_canon: set[tuple[int, ...]] = set()
        self.elapsed_ms = 0.0
        self.timed_out = False
        self._q_out = q.out_adj()
        self._q_in = q.in_adj()

    def set_label(self, u: int, label) -> None:
        self.labels[u] = label

    def add_initial_edge(self, u: int, v: int, ts: int) -> None:
        self._add_pair(u, v, ts)

    def _add_pair(self, u: int, v: int, ts: int) -> bool:
        if (u, v) in self.pair_ts:
            return False
        self.out.setdefault(u, set()).add(v)
        self.in_.setdefault(v, set()).add(u)
        self.out.setdefault(v, set())
        self.in_.setdefault(u, set())
        for w in (u, v):
            if w not in self.labels:
                self.set_label(w, None)
        self.pair_ts[(u, v)] = ts
        return True

    def _window_ok(self, mapping: tuple[int, ...]) -> bool:
        if self.window is None:
            return True
        ts = [self.pair_ts[(mapping[x], mapping[y])] for x, y in self.q.edges]
        return max(ts) - min(ts) <= self.window

    def insert_edge(self, u: int, v: int, ts: int) -> list[Match]:
        """Insert a pair and return the matches it completes.

        Raises TimeLimitExceeded when the accumulated enumeration time
        passes the per-query budget (counters keep their partial values).
        """
        if self.timed_out:
            raise TimeLimitExceeded(self.q.name)
        if not self._add_pair(u, v, ts):
            return []
        t0 = time.perf_counter()
        try:
            found: list[tuple[int, ...]] = []
            enum = _Enumerator(self.out, self.in_, self.labels, self.q)
            for x, y in self.q.edges:
                if not _label_ok(self.q.labels[x], self.labels.get(u)):
                    continue
                if not _label_ok(self.q.labels[y], self.labels.get(v)):
                    continue
                if x == y:
                    if u != v:
                        continue
                    assign = {x: u}
                    seeds = [x]
                elif u == v:
                    continue
                else:
                    assign = {x: u, y: v}
                    seeds = [x, y]
                # seed consistency against already-present query self/cross edges
                if not all(assign.get(b) in self.out.get(assign[a], ())
                           for a, b in self.q.edges
                           if a in assign and b in assign):
                    continue
                order = _matching_order(self.q, seeds)
                enum.enumerate(order, dict(assign), found)
            matches = []
            for m in sorted(set(found)):
                if not self._window_ok(m):
                    continue
                matches.append(Match(m, (u, v), ts))
            self.match_count += len(matches)
            for m in matches:
                self.dedup_canon.add(canonical_mapping(m.mapping, self.autos))
            return matches
        finally:
            self.elapsed_ms += (time.perf_counter() - t0) * 1000.0
            if self.elapsed_ms > self.time_limit_ms:
                self.timed_out = True

    @property
    def dedup_count(self) -> int:
        return len(self.dedup_canon)


def init_context(initial_edges: Iterable[tuple[int, int, int]], q: QueryGraph,
                 labels: dict[int, object] | None = None, *,
                 window: int | None = None,
                 time_limit_ms: float = 3.6e6) -> MatchContext:
    """Load the initial graph without reporting any of its matches."""
    ctx = MatchContext(q, window=window, time_limit_ms=time_limit_ms)
    if labels:
        for u, lab in labels.items():
            ctx.set_label(u, lab)
    for u, v, ts in initial_edges:
        ctx.add_initial_edge(u, v, ts)
    return ctx


@dataclass
class QueryResult:
    name: str
    matches: int
    matches_dedup: int
    elapsed_ms: float
    timed_out: bool


@dataclass
class StreamConfig:
    window: int | None = None
    time_limit_ms: float = 3.6e6
    label_pool: int | None = None
    seed: int = 0


def assign_labels(vertices: Iterable[int], pool: int, seed: int) -> dict[int, int]:
    """Seeded random label per vertex from `pool` labels, stable in vertex order."""
    rng = random.Random(seed)
    return {u: rng.randrange(pool) for u in vertices}


def run_stream(initial: Sequence[tuple[int, int, int]],
               stream: Sequence[tuple[int, int, int]],
               queries: Sequence[QueryGraph],
               cfg: StreamConfig | None = None) -> list[QueryResult]:
    """Replay the insertion stream against every query independently.

    Elapsed time covers match enumeration only; graph-update bookkeeping is
    excluded.  A query hitting its time limit is flagged and the remaining
    queries still run.
    """
    cfg = cfg or StreamConfig()
    labels: dict[int, object] = {}
    if cfg.label_pool is not None:
        vertices = []
        seen = set()
        for u, v, _ts in list(initial) + list(stream):
            for w in (u, v):
                if w not in seen:
                    seen.add(w)
                    vertices.append(w)
        labels = assign_labels(vertices, cfg.label_pool, cfg.seed)
    results = []
    for q in queries:
        ctx = init_context(initial, q, labels, window=cfg.window,
                           time_limit_ms=cfg.time_limit_ms)
        try:
            for u, v, ts in stream:
                ctx.insert_edge(u, v, ts)
        except TimeLimitExceeded:
            pass
        results.append(QueryResult(
            name=q.name, matches=ctx.match_count,
            matches_dedup=ctx.dedup_count, elapsed_ms=ctx.elapsed_ms,
            timed_out=ctx.timed_out))
    return results
