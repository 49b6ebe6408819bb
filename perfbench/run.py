"""The repository benchmark: seeded serving workloads, end-to-end metrics.

Run from the repository root::

    python3 perfbench/run.py --workload zipf-read --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics of the same workload (see ``perfbench/README.md``).
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full run record (input digests, run metadata, the per-op breakdown)
that ``perfbench/compare.py`` reads. The library is imported from
``src/`` next to this directory and nowhere else; without it the run
fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _workloads():
    import inputs
    import systems
    from loop import CheckPlan

    # name: (graph scale, stream, set-up, set-ups per run, check plan)
    return {
        "zipf-read": (0.01, inputs.zipf_read_stream, systems.monolithic, 1,
                      CheckPlan(every=40, pairs=2)),
        "churn-mixed": (0.01, inputs.churn_mixed_stream, systems.monolithic, 1,
                        CheckPlan(every=10, pairs=2)),
        "sharded-commute": (0.02, inputs.sharded_commute_stream,
                            systems.worker_pool, 1, CheckPlan(every=30, pairs=2)),
        "replica-failover": (0.001, inputs.replica_failover_stream,
                             systems.socket_replicas, 3,
                             CheckPlan(every=4, pairs=8)),
    }


WORKLOADS = ("zipf-read", "churn-mixed", "sharded-commute", "replica-failover")


def _meta(system, graph_info, stream_info) -> dict:
    import os
    import platform

    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    config = getattr(system.index, "config", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "engine": config.resolve_engine() if config is not None else None,
        "backend": system.service.runtime.backend,
        "graph": graph_info,
        "stream": stream_info,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import resource

    import numpy as np

    import inputs
    import systems
    from loop import Client, end_to_end

    scale, make_stream, setup, repeats, plan = _workloads()[workload]
    graph = inputs.load_graph(scale)
    edges = inputs.edge_array(graph)
    stream = make_stream(graph, edges, np.random.default_rng([seed, 1]))
    graph_info = inputs.graph_digest(edges, graph.num_vertices)
    stream_info = {
        "sha256": inputs.stream_digest(stream),
        "cycles": len(stream),
        "ops": sum(len(cycle) for cycle in stream),
    }
    system, built = systems.build(setup, graph, repeats)
    try:
        probe = None
        services = [system.service]
        if trace:
            from layers import Probe

            probe = Probe(system)
            services.append(probe.service)
        client = Client(services, stream, graph, seed, plan,
                        clock=system.clock, probe=probe)
        client.warm_up()
        if probe is not None:
            probe.start()
        client.run(seconds)
        plain, total = client.tallies[0], client.total()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e = end_to_end(
            plain,
            systems.index_bytes(system.index) / 1e6,
            peak_rss_mb,
            system.setup_s,
        )
        record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "meta": _meta(system, graph_info, stream_info),
            "ops": {
                "query": len(total.query_s),
                "update": len(total.update_s),
                "cycles": client.cycle,
                "distinct": {k: len(v) for k, v in plain.replays.items()},
                "min_replays": min(
                    len(times)
                    for ops in plain.replays.values()
                    for _, times in ops.values()
                ),
            },
            "checked_pairs": client.checked,
            "mismatches": client.mismatches[:5],
        }
        if trace:
            layer, breakdown = probe.finish(
                record["ops"]["query"], record["ops"]["update"]
            )
            layer.update(systems.build_layers(built))
            # Tail latencies spread too widely between runs to carry an
            # end-to-end bound; they are reported over all the run's ops.
            pooled = end_to_end(total, 0.0, peak_rss_mb, 0.0)
            layer["query_p99_ms"] = pooled["query_p99_ms"]
            layer["update_p90_ms"] = pooled["update_p90_ms"]
            traced = end_to_end(client.tallies[1], 0.0, peak_rss_mb, 0.0)
            record["breakdown"] = breakdown
            record["meta"]["trace_overhead"] = {
                name: traced[name] / e2e[name]
                for name in ("pairs_per_s", "query_p50_ms", "update_p50_ms")
            }
            metrics = layer
        else:
            metrics = e2e
        record["metrics"] = metrics
    finally:
        system.close()
    return {
        "record": record,
        "result": {
            "correct": not record["mismatches"],
            "attempted": total.attempted,
            "failed": total.failed,
            "metrics": metrics,
        },
    }


def reap_children() -> None:
    """Stop and wait for every process this run started.

    The runtimes join their own workers on ``close()``, but creating a
    shared-memory segment also starts multiprocessing's resource
    tracker, which is never waited for and would outlive the run.
    Worker processes still alive are terminated, then waited for.
    """
    import multiprocessing
    import os
    from multiprocessing import resource_tracker

    # The standard library has no public call that stops the tracker
    # and waits for it; this one closes its pipe and reaps its pid.
    resource_tracker._resource_tracker._stop()
    for process in multiprocessing.active_children():
        process.terminate()
        process.join()
    while True:  # collect any child that has exited but was not waited for
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        reap_children()
    measured = out["result"]["metrics"]
    out["result"]["metrics"] = {
        spec["name"]: {"value": measured[spec["name"]], "unit": spec["unit"]}
        for spec in declared["per_layer" if args.trace else "end_to_end"]
    }
    print(json.dumps({"perfbench_record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
