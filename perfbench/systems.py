"""The system under test for each workload: build, serve, describe, close.

Everything here goes through the public API (``repro``, ``repro.core``,
``repro.service``). Set-up time covers the index build plus service and
runtime construction; graph generation happens before the clock starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median

#: Each query or update op advances the replica supervisor's clock by
#: this much, so its default 5 s poll interval means one poll every 200
#: ops. Polls, and with them respawns, then fall on the same ops in
#: every run instead of wherever the wall clock happens to be.
SUPERVISION_TICK_S = 0.025


class OpClock:
    """Supervision clock driven by the benchmark's op counter."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self) -> None:
        self.now += SUPERVISION_TICK_S


@dataclass
class System:
    service: object
    index: object
    runtime: object | None
    setup_s: float
    spawn_s: float = 0.0
    clock: OpClock | None = None
    services: list = field(default_factory=list)

    def close(self) -> None:
        for service in [self.service, *self.services]:
            service.close()


def monolithic(graph) -> System:
    from repro import DHLIndex
    from repro.service import DistanceService

    owned = graph.copy()
    start = time.perf_counter()
    index = DHLIndex.build(owned)
    service = DistanceService(index)
    return System(service, index, None, time.perf_counter() - start)


def _sharded(graph, make_runtime, clock=None) -> System:
    from repro.core import ShardedDHLIndex
    from repro.service import DistanceService

    owned = graph.copy()
    start = time.perf_counter()
    index = ShardedDHLIndex.build(owned, k=2)
    built = time.perf_counter()
    runtime = make_runtime(index)
    try:
        service = DistanceService(runtime)
    except BaseException:
        runtime.close()
        raise
    end = time.perf_counter()
    return System(service, index, runtime, end - start, end - built, clock)


def worker_pool(graph) -> System:
    from repro.service import ShardWorkerRuntime

    return _sharded(graph, ShardWorkerRuntime)


def fault_plan():
    """Three scripted replica kills; no shard ever loses both replicas.

    Request numbers count every frame a replica incarnation receives
    (health probes, compute batches, label deltas). The third kill hits
    the respawned incarnation of the first victim.
    """
    from repro.service import FaultPlan

    return (
        FaultPlan()
        .kill(0, 0, at_request=40)
        .kill(1, 1, at_request=80)
        .kill(0, 0, at_request=40, incarnation=1)
    )


def socket_replicas(graph) -> System:
    from repro.service import SocketShardRuntime

    clock = OpClock()

    def make(index):
        return SocketShardRuntime(
            index, replicas=2, fault_plan=fault_plan(), clock=clock
        )

    return _sharded(graph, make, clock)


def build(setup, graph, repeats: int) -> tuple[System, list[System]]:
    """Set up *repeats* times; keep the last system, close the rest.

    Returns the kept system with ``setup_s`` replaced by the median of
    all set-ups, and every system built (for per-layer build stats).
    """
    systems = []
    for _ in range(repeats):
        if systems:
            systems[-1].close()
        systems.append(setup(graph))
    kept = systems[-1]
    kept.setup_s = median(s.setup_s for s in systems)
    kept.spawn_s = median(s.spawn_s for s in systems)
    return kept, systems


# ---------------------------------------------------------------------------
# sizes and build timings, read from the index's own stats()
# ---------------------------------------------------------------------------

def index_bytes(index) -> int:
    """Label + shortcut + hierarchy bytes of the index right now."""
    stats = index.stats()
    parts = getattr(stats, "shards", None)
    if parts is None:
        return stats.total_bytes
    if stats.overlay is not None:
        parts = [*parts, stats.overlay]
    return sum(part.total_bytes for part in parts)


def build_layers(systems: list[System]) -> dict[str, float]:
    """Per-layer build metrics, the median over the run's set-ups.

    Sharded indexes report work summed over shards (their builds run in
    parallel, so ``sharding.shard_build_max_s`` is the wall-clock share).
    """
    rows = [_build_row(s) for s in systems]
    return {key: median(row[key] for row in rows) for key in rows[0]}


def _build_row(system: System) -> dict[str, float]:
    stats = system.index.stats()
    shards = getattr(stats, "shards", None)
    row = {
        "sharding.shard_build_max_s": 0.0,
        "sharding.overlay_s": 0.0,
        "sharding.boundary_vertices": 0,
        "runtime.spawn_s": system.spawn_s,
    }
    if shards is None:
        parts, region_partition = [stats], 0.0
    else:
        parts = shards + ([stats.overlay] if stats.overlay is not None else [])
        region_partition = stats.partition_seconds
        row["sharding.shard_build_max_s"] = max(stats.build.per_shard_seconds)
        row["sharding.overlay_s"] = stats.overlay_seconds
        row["sharding.boundary_vertices"] = stats.boundary_vertices
    row["partition.s"] = region_partition + sum(p.partition_seconds for p in parts)
    row["hierarchy.contraction_s"] = sum(p.contraction_seconds for p in parts)
    row["hierarchy.shortcuts"] = sum(p.num_shortcuts for p in parts)
    row["hierarchy.height"] = max(p.height for p in parts)
    row["labelling.build_s"] = sum(p.labelling_seconds for p in parts)
    row["labelling.entries"] = sum(p.label_entries for p in parts)
    return row
