"""Seeded benchmark inputs: the graphs, their digests and the op streams.

Every request the benchmark sends is generated here from the ``--seed``
argument, not by the library's own traffic generators, so a change to
the library cannot change what the benchmark asks of it. A stream is a
pool of *cycles*; a run replays the pool in order and wraps around,
several times per run. A pool holds a few seconds of ops, so that every
op is replayed often enough for the client to take its best time.
What a cycle raises or closes, the next cycle restores or reopens (the
first cycle undoes the last), so a wrapped stream stays well formed.

Every quantity here is a property of the road graph and the seed alone
(never of a built index), so runs of two library versions with the same
seed receive byte-identical requests; :func:`stream_digest` certifies it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

#: Pairs per query op (one ``DistanceService.distances`` call).
BATCH = 256


@dataclass
class Op:
    """One client request: a query batch, or an update burst + flush.

    ``calls`` holds ``(kind, u, v, w)`` with kind ``set`` (weight
    report), ``delete`` (closure) or ``insert`` (reopening).
    """

    kind: str
    pairs: np.ndarray | None = None
    calls: list[tuple[str, int, int, float]] = field(default_factory=list)

    def pair_list(self) -> list[tuple[int, int]]:
        return list(zip(self.pairs[:, 0].tolist(), self.pairs[:, 1].tolist()))


def load_graph(scale: float):
    """The synthetic FLA road network at *scale* of the paper's size."""
    from repro.datasets import load_dataset

    return load_dataset("FLA", scale)


def edge_array(graph) -> np.ndarray:
    """``(m, 3)`` float64 edge list ``(u, v, w)``, ``u < v``, sorted."""
    return np.array(sorted(graph.edges()), dtype=np.float64).reshape(-1, 3)


def graph_digest(edges: np.ndarray, n: int) -> dict:
    return {
        "n": n,
        "m": len(edges),
        "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()[:16],
    }


def stream_digest(cycles: list[list[Op]]) -> str:
    h = hashlib.sha256()
    for cycle in cycles:
        for op in cycle:
            h.update(op.kind.encode())
            if op.pairs is not None:
                h.update(op.pairs.tobytes())
            h.update(repr(op.calls).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _edge(edges: np.ndarray, i: int) -> tuple[int, int, float]:
    u, v, w = edges[i]
    return int(u), int(v), float(w)


def _scaled(w: float, factor: float) -> float:
    # Integral weights keep every path sum exact, so answers can be
    # compared with Dijkstra by equality.
    return float(math.ceil(w * factor))


def _rolling_bursts(edges, rng, cycles: int, size: int) -> list[Op]:
    """One update op per cycle: double *size* fresh random edges and
    restore the ones the previous op doubled (the last op's, for the
    first, so a replayed pool stays well formed).

    Every op thus mixes the same numbers of increases and decreases; a
    pool alternating pure-increase and pure-decrease ops would put the
    median update latency on the boundary between two populations,
    where it jumps from run to run.
    """
    picked = [
        [_edge(edges, int(i)) for i in rng.choice(len(edges), size, replace=False)]
        for _ in range(cycles)
    ]
    return [
        Op(
            "update",
            calls=[("set", u, v, w) for u, v, w in picked[c - 1]]
            + [("set", u, v, 2.0 * w) for u, v, w in picked[c]],
        )
        for c in range(cycles)
    ]


def _queries(pairs: np.ndarray) -> list[Op]:
    return [Op("query", pairs=block) for block in pairs.reshape(-1, BATCH, 2)]


def zipf_vertices(rng, perm: np.ndarray, size: int, alpha: float = 1.2) -> np.ndarray:
    """Zipf(alpha) draws over a vertex permutation (``perm[0]`` hottest)."""
    n = len(perm)
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -alpha)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    return perm[np.minimum(ranks, n - 1)]


def corridor(graph, rng, hops: int) -> list[int]:
    """The first *hops* edges, as a vertex path, of a shortest path
    between two random vertices."""
    from repro.baselines.dijkstra import dijkstra

    n = graph.num_vertices
    while True:
        s, t = (int(x) for x in rng.integers(0, n, size=2))
        dist = dijkstra(graph, s, targets=[t])
        if not math.isfinite(dist[t]):
            continue
        path = [t]
        while path[-1] != s:
            v = path[-1]
            path.append(
                min(
                    u
                    for u, w in graph.neighbors(v).items()
                    if dist[u] + w == dist[v]
                )
            )
        if len(path) > hops:
            path.reverse()
            return path[: hops + 1]


def balanced_bridge(graph) -> tuple[tuple[int, int], np.ndarray]:
    """The bridge edge splitting the graph most evenly, and one side.

    The synthetic road networks are grown from a spanning tree, so they
    have bridges; the most balanced one joins two districts, and every
    route between them crosses it (iterative Tarjan low-link DFS).
    """
    n = graph.num_vertices
    nbrs = [list(graph.neighbors(v)) for v in range(n)]
    disc = [-1] * n
    low = [0] * n
    size = [1] * n
    parent = [-1] * n
    order = 0
    best = None
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = order
        order += 1
        stack = [(root, iter(nbrs[root]))]
        while stack:
            v, it = stack[-1]
            for u in it:
                if disc[u] < 0:
                    parent[u] = v
                    disc[u] = low[u] = order
                    order += 1
                    stack.append((u, iter(nbrs[u])))
                    break
                if u != parent[v] and disc[u] < low[v]:
                    low[v] = disc[u]
            else:
                stack.pop()
                p = parent[v]
                if p >= 0:
                    low[p] = min(low[p], low[v])
                    size[p] += size[v]
                    if low[v] > disc[p]:
                        balance = abs(n - 2 * size[v])
                        if best is None or balance < best[0]:
                            best = (balance, p, v)
    if best is None:
        raise ValueError("graph has no bridge")
    _, p, c = best
    d = np.asarray(disc)
    side = (d >= disc[c]) & (d < disc[c] + size[c])
    return (min(p, c), max(p, c)), side


# ---------------------------------------------------------------------------
# the four workload streams
# ---------------------------------------------------------------------------

def zipf_read_stream(graph, edges, rng, cycles: int = 80) -> list[list[Op]]:
    """Zipf-hot reads; a 16-edge double-and-restore burst, 16 query ops."""
    perm = rng.permutation(graph.num_vertices)
    bursts = _rolling_bursts(edges, rng, cycles, 16)
    return [
        [burst, *_queries(zipf_vertices(rng, perm, 16 * BATCH * 2).reshape(-1, 2))]
        for burst in bursts
    ]


def churn_mixed_stream(
    graph, edges, rng, cycles: int = 45, corridors: int = 45, hops: int = 48
) -> list[list[Op]]:
    """Staggered rush hour on arterial corridors plus closures, uniform reads.

    Each *hops*-edge corridor is ramped to 1.5x, 2x and 3x its free-flow
    weight on three successive update ops and cleared on the fourth.
    Corridors start one op apart, so every update op moves four
    corridors, one in each phase, and all update ops cost alike. Each
    corridor's step is fed as three overlapping sub-bursts (so the
    coalescer folds duplicates); each op also reopens the previous op's
    two closures and closes two new roads; 8 query ops follow it. The
    corridor count is odd so that a traced run, which alternates cycles
    between two services, gives both services every corridor; *cycles*
    is a multiple of it, so the replayed pool wraps onto the same
    phases. An op
    touches at most ``4 * hops + 4`` distinct edges, below the service's
    256-edge auto-flush threshold, so its one explicit flush applies it.
    """
    n = graph.num_vertices
    index_of = {
        (int(u), int(v)): i for i, (u, v, _) in enumerate(edges.tolist())
    }
    arterials = []
    for _ in range(corridors):
        path = corridor(graph, rng, hops)
        arterials.append(
            [
                _edge(edges, index_of[(min(a, b), max(a, b))])
                for a, b in zip(path, path[1:])
            ]
        )
    on_corridor = {(u, v) for ids in arterials for u, v, _ in ids}
    candidates = np.array(
        [i for i, (u, v, _) in enumerate(edges.tolist())
         if (int(u), int(v)) not in on_corridor],
        dtype=np.int64,
    )
    closures = rng.choice(candidates, size=(cycles, 2), replace=False)
    half, quarter = hops // 2, hops // 4
    windows = (slice(0, half), slice(quarter, quarter + half), slice(half, hops))
    out = []
    for c in range(cycles):
        calls = []
        for phase, factor in enumerate((1.5, 2.0, 3.0, 1.0)):
            base = arterials[(c - phase) % corridors]
            for window in windows:
                calls += [("set", u, v, _scaled(w, factor)) for u, v, w in base[window]]
        calls += [("insert", *_edge(edges, int(i))) for i in closures[c - 1]]
        calls += [
            ("delete", *_edge(edges, int(i))[:2], math.inf) for i in closures[c]
        ]
        out.append(
            [Op("update", calls=calls),
             *_queries(rng.integers(0, n, size=(8 * BATCH, 2)))]
        )
    return out


def sharded_commute_stream(graph, edges, rng, cycles: int = 48) -> list[list[Op]]:
    """Pairs across the balanced bridge, 8 query ops per 8-edge
    double-and-restore burst; every burst also moves the bridge."""
    (a, b), side = balanced_bridge(graph)
    w = float(graph.weight(a, b))
    west = np.flatnonzero(side)
    east = np.flatnonzero(~side)
    out = []
    for c, burst in enumerate(_rolling_bursts(edges, rng, cycles, 8)):
        burst.calls.append(("set", a, b, w * (1 + c % 2)))
        count = 8 * BATCH
        s = rng.choice(west, count)
        t = rng.choice(east, count)
        flip = rng.random(count) < 0.5
        pairs = np.stack([np.where(flip, t, s), np.where(flip, s, t)], axis=1)
        out.append([burst, *_queries(pairs)])
    return out


def replica_failover_stream(graph, edges, rng, cycles: int = 32) -> list[list[Op]]:
    """Uniform reads with light churn: an 8-edge double-and-restore
    burst every 12 query ops."""
    n = graph.num_vertices
    return [
        [burst, *_queries(rng.integers(0, n, size=(12 * BATCH, 2)))]
        for burst in _rolling_bursts(edges, rng, cycles, 8)
    ]
