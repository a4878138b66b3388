"""Continuous subgraph matching over an edge-insertion stream.

Matching semantics: injective subgraph isomorphism on the directed simple
view (multi-edges collapse, re-inserting an existing pair is a no-op).
Matches are reported incrementally: only embeddings that use a streamed
edge are ever emitted, never those fully contained in the initial graph.
Counts are distinct mappings by default; automorphism-deduplicated counts
are tracked alongside.  A window is applied to the data graph
(`StreamGraph`), never in the search.

Symmetry breaking (Grochow and Kellis, RECOMB 2007): an insert searches
from one representative (x, y) per orbit of query edges under the
query's automorphism group, so it finds each match class exactly
|Stab(x, y)| times, once per automorphism fixing x and y (usually once),
rather than |Aut(q)| times.  The counters grow from those sizes: found
mappings / |Stab(x, y)| classes, each of |Aut(q)| mappings.  An insert
returns the mappings it found, not their orbits: each class it completes
appears |Stab(x, y)| times.

Degree filter (as in TurboFlux, SIGMOD 2018, and RapidFlow, VLDB 2022):
an embedding maps a query vertex's out- and in-neighbours injectively
to its image's, so a data vertex with fewer live out- or in-pairs than
the query vertex has edges is no seed and no candidate.
"""

from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import DataError, TimeLimitExceeded
from .graph import SimpleDigraph

MAX_QUERY_VERTICES = 16

# |Aut(q)| is k! for a k-leaf out-star, and every automorphism is kept in
# memory; a query with more is rejected rather than enumerated
MAX_AUTOMORPHISMS = 100_000

WILDCARD = None

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class QueryGraph:
    name: str
    labels: tuple[object, ...]           # per-vertex label, None = wildcard
    edges: tuple[tuple[int, int], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.labels)


def parse_query(text: str, name: str = "query") -> QueryGraph:
    """Parse the `v <id> <label|*>` / `e <src> <dst>` pattern format.

    Statements are separated by newlines or semicolons; `#` starts a
    comment that runs to the end of the line, past any `;`.  The pattern
    must be weakly connected (a single vertex with no edges is accepted as
    the trivial pattern) and have at most 16 vertices and no duplicate
    directed edges.
    """
    labels: dict[int, object] = {}
    edges: list[tuple[int, int]] = []
    stmts = [s.strip() for line in text.splitlines()
             for s in line.split("#", 1)[0].split(";")]
    for stmt in stmts:
        if not stmt:
            continue
        parts = stmt.split()
        if parts[0] == "v" and len(parts) == 3:
            try:
                vid = int(parts[1])
            except ValueError:
                raise DataError(f"bad vertex id {parts[1]!r}") from None
            if vid in labels:
                raise DataError(f"duplicate vertex {vid}")
            try:
                labels[vid] = WILDCARD if parts[2] == "*" else int(parts[2])
            except ValueError:
                raise DataError(f"bad label {parts[2]!r}") from None
        elif parts[0] == "e" and len(parts) == 3:
            try:
                x, y = int(parts[1]), int(parts[2])
            except ValueError:
                raise DataError("bad edge endpoints") from None
            if (x, y) in edges:
                raise DataError(f"duplicate edge {x}->{y}")
            edges.append((x, y))
        else:
            raise DataError(f"unparseable statement {stmt!r}")
    if not labels:
        raise DataError("query has no vertices")
    n = len(labels)
    if sorted(labels) != list(range(n)):
        raise DataError("vertex ids must be 0..n-1")
    if n > MAX_QUERY_VERTICES:
        raise DataError(f"more than {MAX_QUERY_VERTICES} vertices")
    for x, y in edges:
        if x not in labels or y not in labels:
            raise DataError(f"edge references unknown vertex {x}->{y}")
    shape = SimpleDigraph(range(n), edges)
    seen = {0}
    frontier = [0]
    while frontier:
        for w in shape.undirected_neighbors(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != n:
        raise DataError("query is disconnected")
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


def _degrees(q: QueryGraph) -> tuple[list[int], list[int]]:
    """Each query vertex's out- and in-degree; a self-loop counts in both."""
    out, in_ = [0] * q.num_vertices, [0] * q.num_vertices
    for x, y in q.edges:
        out[x] += 1
        in_[y] += 1
    return out, in_


def _matching_order(q: QueryGraph, seeds: Sequence[int]) -> list[int]:
    """Static order over remaining query vertices: degree-descending, each
    vertex adjacent to the already-ordered prefix."""
    order = list(seeds)
    out, in_ = _degrees(q)

    def key(x: int):
        linked = any(x in e and (e[0] in order or e[1] in order)
                     for e in q.edges)
        return (linked, out[x] + in_[x], -x)

    while len(order) < q.num_vertices:
        order.append(max((x for x in range(q.num_vertices) if x not in order),
                         key=key))
    return order


Step = tuple[int, object, tuple[int, ...], tuple[int, ...], bool, int, int]


def _compile(q: QueryGraph, seeds: Sequence[int]) -> list[Step]:
    """Search plan for the query vertices after `seeds` in matching order.

    A step `(x, label, succ, pred, self_loop, d_out, d_in)` places query
    vertex x; `succ` / `pred` are the earlier-placed vertices x has edges
    to / from, and `d_out` / `d_in` are x's out- and in-degree, or 0
    where the edges to those vertices and the self-loop already imply
    the bound.
    """
    order = _matching_order(q, seeds)
    edges = set(q.edges)
    d_out, d_in = _degrees(q)
    steps = []
    for i, x in enumerate(order[len(seeds):], len(seeds)):
        succ = tuple(y for y in order[:i] if (x, y) in edges)
        pred = tuple(y for y in order[:i] if (y, x) in edges)
        loop = (x, x) in edges
        steps.append((x, q.labels[x], succ, pred, loop,
                      d_out[x] if d_out[x] > len(succ) + loop else 0,
                      d_in[x] if d_in[x] > len(pred) + loop else 0))
    return steps


# Plain recursion on purpose: a nested function calling itself is a
# reference cycle that keeps `found` alive until the next GC pass.
def _search(g: SimpleDigraph, labels: dict[int, object], steps: list[Step],
            assign: list[int | None], used: set[int],
            found: list[tuple[int, ...]], deadline: float = math.inf,
            i: int = 0) -> None:
    """Extend the partial embedding `assign` through `steps[i:]`, appending
    each complete one to `found`.

    A vertex's candidates are the intersection of its placed neighbours'
    adjacency sets, which enforces every edge to earlier vertices; what is
    left to check is injectivity, the label, the self-loop and the degree
    bounds.  The last step appends each candidate left without a call of
    its own.  Raises TimeLimitExceeded at the first call past `deadline`.
    """
    if time.perf_counter() > deadline:
        raise TimeLimitExceeded
    if i == len(steps):
        found.append(tuple(assign))
        return
    x, label, succ, pred, self_loop, d_out, d_in = steps[i]
    out, in_ = g.out, g.in_
    last = i + 1 == len(steps)
    cands = None
    for y in succ:
        s = in_.get(assign[y], _EMPTY)
        cands = s if cands is None else cands & s
    for y in pred:
        s = out.get(assign[y], _EMPTY)
        cands = s if cands is None else cands & s
    for u in g.nodes if cands is None else cands:
        if (u in used
                or (label is not WILDCARD and labels.get(u) != label)
                or (self_loop and u not in out.get(u, _EMPTY))
                or (d_out and len(out.get(u, _EMPTY)) < d_out)
                or (d_in and len(in_.get(u, _EMPTY)) < d_in)):
            continue
        assign[x] = u
        if last:
            found.append(tuple(assign))
            continue
        used.add(u)
        _search(g, labels, steps, assign, used, found, deadline, i + 1)
        used.discard(u)


class _Automorphisms(list):
    """`_search`'s collector for `timed_automorphisms`.

    The search lets a wildcard vertex take any label, but a true
    automorphism must carry each label onto an identical label, so only
    those are kept.  Raises DataError at the first one past
    MAX_AUTOMORPHISMS.
    """

    def __init__(self, q: QueryGraph):
        super().__init__()
        self.q = q

    def append(self, m: tuple[int, ...]) -> None:
        labels = self.q.labels
        if all(labels[v] == labels[w] for v, w in enumerate(m)):
            if len(self) == MAX_AUTOMORPHISMS:
                raise DataError(f"query {self.q.name!r} has more than "
                                f"{MAX_AUTOMORPHISMS} automorphisms")
            super().append(m)


def timed_automorphisms(q: QueryGraph, time_limit_ms: float
                        ) -> tuple[list[tuple[int, ...]], float]:
    """All label/direction preserving self-embeddings of the query, in no
    particular order, and the ms the enumeration took; no automorphisms
    if it ran past `time_limit_ms`.  Raises DataError if there are more
    than MAX_AUTOMORPHISMS."""
    n = q.num_vertices
    found = _Automorphisms(q)
    t0 = time.perf_counter()
    try:
        _search(SimpleDigraph(range(n), q.edges), dict(enumerate(q.labels)),
                _compile(q, []), [None] * n, set(), found,
                t0 + time_limit_ms / 1000.0)
    except TimeLimitExceeded:
        found = []
    return found, (time.perf_counter() - t0) * 1000.0


class MatchContext:
    """Incremental matching state for one query over a shared data graph.

    The caller owns `graph` and `labels` (vertex -> label), and adds each
    new pair to the graph before calling `insert_edge`; the context only
    reads them.  `elapsed_ms` counts the query's automorphism enumeration
    (`automorphisms`, the `timed_automorphisms` result, enumerated here
    if None) and the match enumeration of every insert, all against
    `time_limit_ms`; `timed_out` says the budget is spent, from
    construction on.  If the automorphisms are not all found within the
    budget, the context gets no search plans.  A query with more than
    MAX_AUTOMORPHISMS automorphisms raises DataError.
    """

    def __init__(self, q: QueryGraph, graph: SimpleDigraph,
                 labels: dict[int, object] | None = None, *,
                 time_limit_ms: float = 3.6e6,
                 automorphisms: tuple[list, float] | None = None):
        self.autos, autos_ms = (automorphisms if automorphisms is not None
                                else timed_automorphisms(q, time_limit_ms))
        t0 = time.perf_counter()
        self.q = q
        self.graph = graph
        self.labels = {} if labels is None else labels
        self.time_limit_ms = time_limit_ms
        self.match_count = self.dedup_count = 0
        # one plan per orbit of query edges, seeded at the orbit's least
        # edge (x, y).  Its seed filter: whether the seed is a self-loop,
        # the seeds' labels and their out- and in-degrees.  The rest: the
        # other edges among the seeds, which must already be present, the
        # steps placing the rest, and |Stab(x, y)|.  A match using the new
        # pair as another edge of the orbit is an automorphic image of one
        # using it as (x, y), distinct orbits give disjoint classes, and
        # the plan finds each class once per automorphism fixing x and y.
        d_out, d_in = _degrees(q)
        self._plans = []
        for x, y in q.edges:
            if self.autos and (x, y) == min((a[x], a[y]) for a in self.autos):
                seeds = [x] if x == y else [x, y]
                checks = [(a, b) for a, b in q.edges
                          if a in seeds and b in seeds and (a, b) != (x, y)]
                stab = sum(a[x] == x and a[y] == y for a in self.autos)
                self._plans.append(
                    ((x == y, q.labels[x], q.labels[y],
                      d_out[x], d_in[x], d_out[y], d_in[y]),
                     (x, y, checks, _compile(q, seeds), stab)))
        self.elapsed_ms = autos_ms + (time.perf_counter() - t0) * 1000.0
        self.timed_out = self.elapsed_ms > time_limit_ms

    def insert_edge(self, u: int, v: int) -> list[tuple[int, ...]]:
        """Return the mappings (query vertex index -> data vertex) that the
        search found for the pair (u, v), which the caller has just added
        to the graph, in no particular order.  Each class of matches the
        pair completes appears |Stab(x, y)| times, as the members mapping
        a plan's seed edge (x, y) onto (u, v); composed with `self.autos`
        they give the rest of its orbit.

        Plans whose seeds fail the label or degree filter are dropped
        before the clock starts; if none is left, the insert costs no
        budget.  The time limit is checked at every search call and once
        when the insert's search ends: an insert past the per-query budget
        is abandoned (it adds no matches) and `timed_out` is set.  Raises
        TimeLimitExceeded on any insert after the budget is spent
        (counters keep their partial values).
        """
        if self.timed_out:
            raise TimeLimitExceeded(self.q.name)
        labels, graph = self.labels, self.graph
        out, in_ = graph.out, graph.in_
        u_out, u_in = len(out.get(u, _EMPTY)), len(in_.get(u, _EMPTY))
        v_out, v_in = len(out.get(v, _EMPTY)), len(in_.get(v, _EMPTY))
        loop = u == v
        plans = [plan for (seed_loop, x_label, y_label, x_out, x_in, y_out,
                           y_in), plan in self._plans
                 if (seed_loop == loop
                     and u_out >= x_out and u_in >= x_in
                     and v_out >= y_out and v_in >= y_in
                     and (x_label is WILDCARD or labels.get(u) == x_label)
                     and (y_label is WILDCARD or labels.get(v) == y_label))]
        if not plans:                   # most inserts complete no match
            return []
        t0 = time.perf_counter()
        deadline = t0 + (self.time_limit_ms - self.elapsed_ms) / 1000.0
        classes = 0
        found: list[tuple[int, ...]] = []
        n = self.q.num_vertices
        try:
            # seed x -> u, y -> v
            for x, y, checks, steps, stab in plans:
                assign = [None] * n
                assign[x], assign[y] = u, v
                if checks and not all(assign[b] in out.get(assign[a], _EMPTY)
                                      for a, b in checks):
                    continue
                before = len(found)
                _search(graph, labels, steps, assign, {u, v}, found, deadline)
                classes += (len(found) - before) // stab
        except TimeLimitExceeded:       # then the reading below is late too
            pass
        now = time.perf_counter()
        self.elapsed_ms += (now - t0) * 1000.0
        self.timed_out = now > deadline
        if self.timed_out:
            return []
        self.dedup_count += classes
        self.match_count += len(self.autos) * classes
        return found


def assign_labels(vertices: Iterable[int], pool: int, seed: int) -> dict[int, int]:
    """Seeded random label per vertex from `pool` labels, stable in vertex order."""
    rng = random.Random(seed)
    return {u: rng.randrange(pool) for u in vertices}


class StreamGraph:
    """An insertion stream's data graph, and the one place that applies a
    window: the graph then keeps only the pairs first inserted at or after
    the latest timestamp minus the window.  The stream is in time order,
    so a match through the newest pair is within the window exactly when
    the graph holds all its pairs.  An expired pair stays out: inserting
    it again is a no-op.
    """

    def __init__(self, window: int | None = None):
        if window is not None and window < 0:
            raise ValueError(f"negative window {window}")
        self.graph, self.window = SimpleDigraph((), ()), window
        self.ts = -math.inf             # the latest timestamp
        # with a window, (first-insert ts, u, v) of each pair, oldest first
        self.by_age: deque[tuple[int, int, int]] = deque()
        self.expired: set[tuple[int, int]] = set()

    def new_pairs(self, edges: Iterable[tuple]) -> Iterator[tuple[int, int]]:
        """Insert each `(u, v, ts)` of `edges` in turn, yielding `(u, v)`
        if the pair is new once the graph is updated.  Raises DataError at
        a timestamp below the one before it."""
        graph, window = self.graph, self.window
        add_pair, by_age, expired = graph.add_pair, self.by_age, self.expired
        for u, v, ts in edges:
            if ts < self.ts:
                raise DataError(f"stream timestamp {ts} after {self.ts}")
            self.ts = ts
            while by_age and by_age[0][0] < ts - window:
                _ts, a, b = by_age.popleft()
                graph.remove_pair(a, b)
                expired.add((a, b))
            if (u, v) in expired or not add_pair(u, v):
                continue
            if window is not None:
                by_age.append((ts, u, v))
            yield u, v


def run_stream(initial: Sequence[tuple[int, int, int]],
               stream: Sequence[tuple[int, int, int]],
               queries: Sequence[QueryGraph], *,
               window: int | None = None, time_limit_ms: float = 3.6e6,
               label_pool: int | None = None, seed: int = 0,
               automorphisms: Sequence[tuple[list, float]] | None = None
               ) -> list[dict]:
    """Replay the insertion stream against every query.

    One `StreamGraph` is loaded with the initial pairs and then updated
    once per stream edge; each new pair is searched by every query that
    has not timed out, and a re-inserted or expired pair is skipped.  The
    edges must come in time order (DataError otherwise).  Returns one
    `{"query", "matches", "matches_dedup", "elapsed_ms", "timed_out"}` row
    per query.  Elapsed time covers each query's automorphism enumeration
    (`automorphisms` holds each query's `timed_automorphisms` result, or
    they are enumerated here) and match enumeration; graph-update
    bookkeeping and each insert's degree pre-check are excluded.  A
    query hitting its time limit is flagged and searched no further, and
    the remaining queries still run.  An `automorphisms` list not of one
    result per query is a DataError, raised before any work.
    """
    if automorphisms is None:
        automorphisms = [None] * len(queries)
    elif len(automorphisms) != len(queries):
        raise DataError(f"{len(automorphisms)} automorphism results for "
                        f"{len(queries)} queries")
    labels: dict[int, object] = {}
    if label_pool is not None:
        vertices = dict.fromkeys(w for u, v, _ts in chain(initial, stream)
                                 for w in (u, v))
        labels = assign_labels(vertices, label_pool, seed)
    data = StreamGraph(window)
    for _pair in data.new_pairs(initial):
        pass
    contexts = [MatchContext(q, data.graph, labels,
                             time_limit_ms=time_limit_ms, automorphisms=a)
                for q, a in zip(queries, automorphisms)]
    live = [ctx for ctx in contexts if not ctx.timed_out]
    for u, v in data.new_pairs(stream):
        if not live:
            break
        for ctx in live:
            ctx.insert_edge(u, v)
            if ctx.timed_out:   # the loop goes on over the old list
                live = [c for c in live if not c.timed_out]
    return [{"query": ctx.q.name, "matches": ctx.match_count,
             "matches_dedup": ctx.dedup_count, "elapsed_ms": ctx.elapsed_ms,
             "timed_out": ctx.timed_out}
            for ctx in contexts]
