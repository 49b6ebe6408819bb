"""Per-layer breakdown of the traced run, measured from outside the library.

Three sources feed it:

* the library's own span tracer (``Observability.enabled`` with every
  request sampled): ``cache_scan``, ``runtime``, ``cache_fill``, the
  scheduler's ``scheduler``/``worker[sid]``/``min_plus_combine`` spans
  and the ``shard_compute`` subtrees the workers ship back;
* ``collect_phases()`` marks around every update op (flush steps,
  maintenance kernel phases, delta sync, structural steps);
* timing wrappers this module installs around public entry points
  while a traced op runs, and removes afterwards: the wire codec
  (``encode_frame``/``decode_frame`` as ``repro.service.workers`` and
  ``repro.service.protocol`` look them up), ``distances_arrays`` and
  ``supervisor.poll`` of a pooled runtime, and ``increase``/``decrease``
  of every index the maintenance path calls.

Each op's time is split into parts that sum to it exactly: a layer's
part is its self time (its span minus its measured children), and what
no instrument covers is the op's ``unattributed`` part. The per-shard
round trips of one batch run concurrently, so they share the fan-out
interval (the runtime's ``distances_arrays`` time minus split, combine
and poll): each of encode, decode, worker compute and transport wait is
charged that interval in proportion to its summed duration.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from types import ModuleType

import numpy as np

QUERY_PARTS = (
    "service.api_s",
    "cache.scan_s",
    "cache.fill_s",
    "query.kernel_s",
    "api.convert_s",
    "scheduler.split_s",
    "scheduler.combine_s",
    "supervisor.poll_s",
    "protocol.encode_s",
    "protocol.decode_s",
    "worker.compute_s",
    "transport.wait_s",
    "query.unattributed_s",
)
UPDATE_PARTS = (
    "coalescer.submit_s",
    "flush.drain_s",
    "maintenance.increase_s",
    "maintenance.decrease_s",
    "sharding.clique_refresh_s",
    "structural.insert_s",
    "structural.apply_s",
    "sync.delta_s",
    "sync.republish_s",
    "flush.cache_evict_s",
    "structural.compact_s",
    "update.unattributed_s",
)


class Probe:
    """Traced service over the same backend, plus the op accounting."""

    def __init__(self, system):
        from repro.observability import Observability
        from repro.service import DistanceService

        self.system = system
        self.obs = Observability.enabled(trace_sample_rate=1.0, trace_keep=8)
        backend = system.runtime if system.runtime is not None else system.index
        self.service = DistanceService(backend, observability=self.obs)
        system.services.append(self.service)
        index = system.index
        self.indexes = (
            [index]
            if not hasattr(index, "shards")
            else [*index.shards, *([index.overlay] if index.overlay else [])]
        )
        self.sums: dict[str, float] = defaultdict(float)
        self.ops = {"query": 0, "update": 0}
        self.op_seconds = {"query": 0.0, "update": 0.0}
        self.pairs = 0
        self.codec_bytes = 0
        self.hubs = 0
        self.label_sweep = 0.0
        self.labels_changed = 0
        self.shortcuts_changed = 0
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._in_poll = False

    # -- wrappers -------------------------------------------------------
    def _patch(self, owner, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def _install(self, kind: str) -> None:
        # Query ops get the codec/runtime wrappers, update ops the
        # maintenance ones: a respawn during a query pickles the shard
        # indexes, which must not carry a wrapper then.
        if kind == "update":
            for index in self.indexes:
                self._patch(index, "increase", self._maintenance("increase"))
                self._patch(index, "decrease", self._maintenance("decrease"))
            return
        import repro.service.protocol as protocol
        import repro.service.workers as workers

        for module in (workers, protocol):
            self._patch(module, "encode_frame", self._codec("encode"))
            self._patch(module, "decode_frame", self._codec("decode"))
        runtime = self.system.runtime
        if runtime is not None:
            self._patch(runtime, "distances_arrays", self._timed("arrays"))
            supervisor = getattr(runtime, "supervisor", None)
            if supervisor is not None:
                self._patch(supervisor, "poll", self._poll)

    def _uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, ModuleType):
                setattr(owner, name, original)
            else:
                delattr(owner, name)  # the class attribute shows again
        self._patches.clear()

    def _codec(self, kind: str):
        def wrap(fn):
            def codec(arg):
                tic = time.perf_counter()
                out = fn(arg)
                seconds = time.perf_counter() - tic
                if not self._in_poll:
                    size = len(out) if kind == "encode" else len(arg)
                    with self._lock:
                        self._op[kind] += seconds
                        self._op["bytes"] += size
                return out

            return codec

        return wrap

    def _timed(self, key: str):
        def wrap(fn):
            def timed(*args, **kwargs):
                tic = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._op[key] += time.perf_counter() - tic

            return timed

        return wrap

    def _poll(self, fn):
        def poll(*args, **kwargs):
            self._in_poll = True
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._op["poll"] += time.perf_counter() - tic
                self._in_poll = False

        return poll

    def _maintenance(self, kind: str):
        from repro.observability import collect_phases

        def wrap(fn):
            def maintain(*args, **kwargs):
                tic = time.perf_counter()
                with collect_phases() as inner:
                    out = fn(*args, **kwargs)
                self._op[kind] += time.perf_counter() - tic
                self._op["label_sweep"] += inner.as_dict().get(
                    f"{kind}.label_sweep", 0.0
                )
                return out

            return maintain

        return wrap

    # -- op accounting ----------------------------------------------------
    def start(self) -> None:
        """Baseline the cumulative counters at the start of the window."""
        self._base = self._counters()

    def _counters(self) -> dict:
        runtime = self.system.runtime
        cache = self.service.cache.stats()
        counters = {
            "hits": cache.hits,
            "misses": cache.misses,
            "invalidated": cache.invalidated,
            "submitted": self.service.coalescer.stats().submitted,
            "applied": self.obs.registry.snapshot()
            .get("dhl_flush_edges_total", {})
            .get("value", 0),
            **{
                f"structural.{key}": value
                for key, value in self.system.index.structural_counters.items()
            },
        }
        if runtime is not None:
            counters.update(runtime.pool_stats().as_dict())
            supervisor = getattr(runtime, "supervisor", None)
            if supervisor is not None:
                counters["recoveries"] = list(supervisor.recovery_ms)
        return counters

    def begin(self, op) -> None:
        from repro.observability import collect_phases

        self._op: dict[str, float] = defaultdict(float)
        self.obs.tracer.finished.clear()
        self._phases_cm = collect_phases()
        self._phases = self._phases_cm.__enter__()
        self._install(op.kind)

    def _end(self, kind: str, seconds: float, parts: dict) -> None:
        for name, value in parts.items():
            self.sums[name] += value
        self.ops[kind] += 1
        self.op_seconds[kind] += seconds

    def _close_op(self) -> dict[str, float]:
        self._uninstall()
        self._phases_cm.__exit__(None, None, None)
        return self._phases.as_dict()

    def end_query(self, op, seconds: float) -> None:
        self._close_op()
        parts = dict.fromkeys(QUERY_PARTS, 0.0)
        roots = [r for r in self.obs.tracer.finished if r.name == "distances"]
        inside = 0.0
        if roots:
            root = roots[-1]
            inside = root.seconds
            kids = {child.name: child for child in root.children}
            parts["service.api_s"] = root.seconds - sum(
                child.seconds for child in root.children
            )
            for name, part in (("cache_scan", "cache.scan_s"),
                               ("cache_fill", "cache.fill_s")):
                if name in kids:
                    parts[part] = kids[name].seconds
            if "runtime" in kids:
                self._split_runtime(kids["runtime"], parts)
        parts["query.unattributed_s"] = seconds - inside
        self._end("query", seconds, parts)
        self.pairs += len(op.pairs)
        self.codec_bytes += int(self._op["bytes"])
        if self.system.runtime is None:
            engine = self.system.index.engine
            self.hubs += int(
                engine.common_ancestor_counts(op.pairs[:, 0], op.pairs[:, 1]).sum()
            )

    def _split_runtime(self, span, parts: dict) -> None:
        if self.system.runtime is None:
            parts["query.kernel_s"] = span.seconds
            return
        arrays = self._op["arrays"]
        parts["api.convert_s"] = span.seconds - arrays
        named = defaultdict(float)
        workers = []
        for child in span.children:
            if child.name.startswith("worker["):
                workers.append(child)
            else:
                named[child.name] += child.seconds
        parts["scheduler.split_s"] = named["scheduler"]
        parts["scheduler.combine_s"] = named["min_plus_combine"]
        parts["supervisor.poll_s"] = self._op["poll"]
        fan = arrays - named["scheduler"] - named["min_plus_combine"] - self._op["poll"]
        spans = sum(w.seconds for w in workers)
        compute = sum(
            g.seconds for w in workers for g in w.children if g.name == "shard_compute"
        )
        if spans <= 0.0:
            parts["transport.wait_s"] = fan
            return
        share = fan / spans
        encode, decode = self._op["encode"], self._op["decode"]
        parts["protocol.encode_s"] = encode * share
        parts["protocol.decode_s"] = decode * share
        parts["worker.compute_s"] = compute * share
        parts["transport.wait_s"] = (spans - encode - decode - compute) * share

    def end_update(self, seconds: float, flush_s: float, stats) -> None:
        phases = self._close_op()
        get = phases.get
        parts = dict.fromkeys(UPDATE_PARTS, 0.0)
        parts["coalescer.submit_s"] = seconds - flush_s
        parts["flush.drain_s"] = get("flush.drain", 0.0)
        parts["maintenance.increase_s"] = self._op["increase"]
        parts["maintenance.decrease_s"] = self._op["decrease"]
        parts["sharding.clique_refresh_s"] = get("sharded.clique_refresh", 0.0)
        parts["structural.insert_s"] = sum(
            get(name, 0.0)
            for name in (
                "structural.slot_alloc",
                "structural.fastpath_sweep",
                "structural.fallback_rebuild",
            )
        )
        parts["sync.delta_s"] = get("flush.delta_sync", 0.0)
        parts["sync.republish_s"] = get("flush.structural_sync", 0.0)
        if "flush.apply_structural" in phases:
            parts["structural.apply_s"] = phases["flush.apply_structural"] - sum(
                parts[name]
                for name in (
                    "maintenance.increase_s",
                    "maintenance.decrease_s",
                    "sharding.clique_refresh_s",
                    "structural.insert_s",
                    "sync.republish_s",
                )
            )
        parts["flush.cache_evict_s"] = get("flush.cache_evict", 0.0)
        parts["structural.compact_s"] = get("structural.compaction", 0.0)
        parts["update.unattributed_s"] = seconds - sum(parts.values())
        self._end("update", seconds, parts)
        self.label_sweep += self._op["label_sweep"]
        if stats is not None:
            self.labels_changed += stats.labels_changed
            self.shortcuts_changed += stats.shortcuts_changed

    # -- the per-layer metrics --------------------------------------------
    def finish(self, query_ops: int, update_ops: int) -> tuple[dict, dict]:
        """Per-layer metrics and the per-op breakdown of the window.

        Times are means per traced op of their type; counters taken
        from the runtime cover every op of the window (plain and
        traced), whose totals are *query_ops* and *update_ops*.
        """
        now, base = self._counters(), self._base

        def delta(key):
            return now.get(key, 0) - base.get(key, 0)

        metrics: dict[str, float] = {}
        for kind, names in (("query", QUERY_PARTS), ("update", UPDATE_PARTS)):
            count = max(1, self.ops[kind])
            for name in names:
                metrics[name] = self.sums[name] / count
            metrics[f"{kind}.op_s"] = self.op_seconds[kind] / count
        lookups = delta("hits") + delta("misses")
        applied = max(1, delta("applied"))
        updates = max(1, self.ops["update"])
        intra, cross = delta("intra_pairs"), delta("cross_pairs")
        recoveries = now.get("recoveries", [])[len(base.get("recoveries", [])):]
        metrics.update(
            {
                "cache.hit_rate": delta("hits") / max(1, lookups),
                "cache.invalidated": delta("invalidated") / updates,
                "query.hubs_per_pair": self.hubs / max(1, self.pairs),
                "scheduler.cross_frac": cross / max(1, intra + cross),
                "scheduler.sub_batches": delta("sub_batches") / max(1, query_ops),
                "protocol.bytes_per_pair": self.codec_bytes / max(1, self.pairs),
                "coalescer.fold_ratio": delta("applied") / max(1, delta("submitted")),
                "maintenance.label_sweep_s": self.label_sweep / updates,
                "maintenance.labels_per_change": self.labels_changed / applied,
                "maintenance.shortcuts_per_change": self.shortcuts_changed / applied,
                "structural.fastpath_inserts": delta("structural.fastpath_inserts"),
                "structural.fallback_rebuilds": delta("structural.fallback_rebuilds"),
                "structural.compactions": delta("structural.compactions"),
                "sync.delta_bytes": delta("delta_bytes") / max(1, update_ops),
                "sync.republishes": delta("republishes"),
                "supervisor.failovers": delta("failovers"),
                "supervisor.respawns": delta("respawns"),
                "supervisor.respawn_ms": float(np.mean(recoveries)) if recoveries else 0.0,
                "supervisor.shed_pairs": delta("shed_pairs"),
            }
        )
        breakdown = {
            kind: {
                "ops": self.ops[kind],
                "op_s": metrics[f"{kind}.op_s"],
                "parts_sum_s": sum(metrics[name] for name in names),
            }
            for kind, names in (("query", QUERY_PARTS), ("update", UPDATE_PARTS))
        }
        return metrics, breakdown
