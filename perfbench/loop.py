"""The closed-loop client: one caller that waits for every reply.

A query op is one ``distances()`` call of :data:`inputs.BATCH` pairs;
an update op is a burst of ``submit_*`` calls followed by one explicit
``flush()``, so an update's cost never hides inside a later query's
auto-flush. Only the calls into the service are timed; input
conversion, the Dijkstra answer check and trace bookkeeping happen
between ops and are excluded from the run's clock.

The client replays the stream's pool of cycles, so every op is sent
several times in a window, each time to the same index state. An op's
time is the best of its first :data:`REPLAYS` replays: on a shared host
other tenants only ever add time, and they come and go within seconds,
so the best replay is the op's own cost and its worse replays are the
host's. The best times feed the end-to-end throughputs and medians; the
tail percentiles are taken over every replay.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from inputs import Op

#: Ops a window must hold for ten samples beyond the p99 query latency
#: and the p90 update latency.
MIN_QUERIES = 1000
MIN_UPDATES = 100

#: Replays per op that the end-to-end metrics take the best of.
REPLAYS = 4



class Mirror:
    """The benchmark's own copy of the road graph, kept in step with the
    updates it sends; answers are checked against Dijkstra on it."""

    def __init__(self, graph):
        self.graph = graph.copy()

    def apply(self, calls) -> None:
        g = self.graph
        for kind, u, v, w in calls:
            if kind == "delete":
                g.set_weight(u, v, math.inf)
            elif g.has_edge(u, v):
                g.set_weight(u, v, w)
            else:
                g.add_edge(u, v, w)

    def distance(self, s: int, t: int) -> float:
        from repro.baselines.dijkstra import dijkstra

        return float(dijkstra(self.graph, s, targets=[t])[t])


@dataclass
class Tally:
    """Latencies and volumes of the ops one service answered."""

    query_s: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    failed: int = 0
    #: op kind -> op key -> (pairs or changes, seconds of each replay)
    replays: dict = field(default_factory=lambda: {"query": {}, "update": {}})

    def replay(self, kind: str, key, volume: int, seconds: float) -> None:
        self.replays[kind].setdefault(key, (volume, []))[1].append(seconds)

    def best(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Per distinct op: its volume and its best of :data:`REPLAYS`."""
        ops = self.replays[kind].values()
        volume = np.array([v for v, _ in ops], dtype=np.float64)
        seconds = np.array([min(s[:REPLAYS]) for _, s in ops])
        return volume, seconds

    @property
    def attempted(self) -> int:
        return len(self.query_s) + len(self.update_s)


@dataclass
class CheckPlan:
    """Which answers get checked: *pairs* sampled pairs of the first
    query op after every *every*-th update op, plus the last query op."""

    every: int
    pairs: int


class Client:
    """Drives a stream through one or more services, cycle by cycle.

    With several services the cycles alternate between them (the
    traced run's plain and traced services); ``probe`` is notified
    around every op of the service at index 1.
    """

    def __init__(self, services, stream, graph, seed: int, plan: CheckPlan,
                 clock=None, probe=None):
        self.services = services
        self.stream = stream
        self.mirror = Mirror(graph)
        self.rng = np.random.default_rng([seed, 7])
        self.plan = plan
        self.clock = clock
        self.probe = probe
        self.tallies = [Tally() for _ in services]
        self.cycle = 0
        self.checked = 0
        self.mismatches: list[dict] = []
        #: Client time spent between ops (kept off the window's clock).
        self.excluded = 0.0
        self._updates = 0
        self._check_next = False
        self._last_query = None

    # -- driving ----------------------------------------------------------
    def warm_up(self) -> None:
        """One untimed cycle per service: lazy tables, caches, sockets."""
        for _ in self.services:
            self._run_cycle(record=False)

    def run(self, seconds: float) -> None:
        """Replay cycles for *seconds* of client time, and on until every
        service has seen each op of the pool :data:`REPLAYS` times and
        the window holds :data:`MIN_QUERIES` query and
        :data:`MIN_UPDATES` update ops (at most half as long again), so
        that at least ten samples lie beyond every reported percentile
        even on a slowed machine."""
        self.excluded = 0.0
        first = self.cycle
        passes = REPLAYS * len(self.stream) * len(self.services)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start - self.excluded
            enough = (
                self.cycle - first >= passes
                and sum(len(t.query_s) for t in self.tallies) >= MIN_QUERIES
                and sum(len(t.update_s) for t in self.tallies) >= MIN_UPDATES
            )
            if elapsed >= 1.5 * seconds or (elapsed >= seconds and enough):
                break
            self._run_cycle(record=True)
        tic = time.perf_counter()
        if self._last_query is not None:
            self._check(*self._last_query)
        self.excluded += time.perf_counter() - tic

    def total(self) -> Tally:
        """All services' ops pooled (replays stay per service)."""
        return Tally(
            [s for t in self.tallies for s in t.query_s],
            [s for t in self.tallies for s in t.update_s],
            sum(t.failed for t in self.tallies),
        )

    def _run_cycle(self, record: bool) -> None:
        which = self.cycle % len(self.services)
        service = self.services[which]
        tally = self.tallies[which] if record else Tally()
        probe = self.probe if record and which == 1 else None
        slot = self.cycle % len(self.stream)
        for position, op in enumerate(self.stream[slot]):
            tic = time.perf_counter()
            prepared = op.pair_list() if op.kind == "query" else None
            if probe is not None:
                probe.begin(op)
            wait = time.perf_counter() - tic
            if op.kind == "query":
                seconds, out = self._query(service, prepared, tally)
                tally.replay("query", (slot, position), len(prepared), seconds)
            else:
                seconds, flush_s, stats = self._update(service, op, tally)
                tally.replay("update", (slot, position), len(op.calls), seconds)
            tic = time.perf_counter()
            if probe is not None:
                if op.kind == "query":
                    probe.end_query(op, seconds)
                else:
                    probe.end_update(seconds, flush_s, stats)
            if op.kind == "update":
                self.mirror.apply(op.calls)
                self._updates += 1
                if self._updates % self.plan.every == 0:
                    self._check_next = True
            elif out is not None:
                self._last_query = (op, out)
                if self._check_next:
                    self._check_next = False
                    self._check(op, out)
            if self.clock is not None:
                self.clock.tick()
            if record:
                self.excluded += wait + time.perf_counter() - tic
        self.cycle += 1

    def _query(self, service, pairs, tally: Tally):
        from repro.exceptions import ReproError

        tic = time.perf_counter()
        try:
            out = service.distances(pairs)
        except ReproError:
            out = None
        seconds = time.perf_counter() - tic
        tally.query_s.append(seconds)
        if out is None or np.isnan(out).any():
            tally.failed += 1
        return seconds, out

    def _update(self, service, op: Op, tally: Tally):
        from repro.exceptions import ReproError

        stats = None
        flush_s = 0.0
        tic = time.perf_counter()
        try:
            for kind, u, v, w in op.calls:
                if kind == "set":
                    service.submit(u, v, w)
                elif kind == "delete":
                    service.submit_delete(u, v)
                else:
                    service.submit_insert(u, v, w)
            mid = time.perf_counter()
            stats = service.flush()
            flush_s = time.perf_counter() - mid
        except ReproError:
            tally.failed += 1
        seconds = time.perf_counter() - tic
        tally.update_s.append(seconds)
        return seconds, flush_s, stats

    # -- correctness --------------------------------------------------------
    def _check(self, op: Op, out: np.ndarray) -> None:
        for i in self.rng.choice(len(op.pairs), self.plan.pairs, replace=False):
            if math.isnan(out[i]):
                continue  # shed by an open breaker: a failure, not an answer
            s, t = (int(x) for x in op.pairs[i])
            want = self.mirror.distance(s, t)
            self.checked += 1
            if out[i] != want:
                self.mismatches.append(
                    {"s": s, "t": t, "got": float(out[i]), "want": want,
                     "cycle": self.cycle}
                )


def end_to_end(tally: Tally, index_mb: float, peak_rss_mb: float,
               setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Throughputs and medians are over the distinct ops, each at its best
    replay; the tails are over every replay (a pooled tally has no
    replays and reports tails only).
    """
    q = np.asarray(tally.query_s)
    u = np.asarray(tally.update_s)
    out = {}
    if tally.replays["query"]:
        pairs, best_q = tally.best("query")
        changes, best_u = tally.best("update")
        out = {
            "pairs_per_s": pairs.sum() / best_q.sum(),
            "query_p50_ms": float(np.median(best_q)) * 1e3,
            "changes_per_s": changes.sum() / best_u.sum(),
            "update_p50_ms": float(np.median(best_u)) * 1e3,
        }
    return {
        "setup_s": setup_s,
        **out,
        "query_p99_ms": float(np.percentile(q, 99)) * 1e3,
        "update_p90_ms": float(np.percentile(u, 90)) * 1e3,
        "index_mb": index_mb,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
