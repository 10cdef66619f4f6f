"""Replay one benchmark input in this process and print its record as JSON.

run.py starts one fresh process per input:

    python3 perfbench/child.py --workload NAME --input-seed N --trace 0|1 --t0 T

``T`` is the parent's ``time.perf_counter()`` just before it spawned this
process (the clock is system-wide), so ``setup_s`` covers interpreter
start, imports, input generation and building the system.
"""

import time  # first, before any slow import

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, build_runner  # noqa: E402


def fingerprint(runner, result) -> dict:
    """The simulated outcome of a run: exact under a seed."""
    metrics = result.metrics
    return {
        "jobs_submitted": result.jobs_submitted,
        "jobs_finished": result.jobs_finished,
        "events": runner.sim.events_processed,
        "task_reads": metrics.task_reads,
        "task_reads_memory": metrics.task_reads_memory,
        "hit_ratio": metrics.hit_ratio(),
        "byte_hit_ratio": metrics.byte_hit_ratio(),
        "task_hours": metrics.total_task_seconds() / 3600.0,
        "transfers": result.transfers_committed,
        "deletions": result.deletions_applied,
        "bytes_moved": sum(result.bytes_upgraded_by_tier.values())
        + sum(result.bytes_downgraded_by_tier.values()),
    }


def layer_metrics(tracer, runner, result) -> dict:
    """Per-layer self times (host seconds) and work counts of one run."""
    spans = tracer.self_s
    counts = tracer.counts
    sim = runner.sim
    engine = runner.iomodel.engine
    layers = {
        "runner.self_s": spans["runner"],
        "sim.self_s": spans["sim"],
        "sim.events": sim.events_processed,
        "sim.events_cancelled": sim.events_cancelled,
        "sim.heap_compactions": sim.heap_compactions,
        "sim.heap_peak": sim.max_heap_size,
        "workload.next_s": spans["workload.next"],
        "workload.events": counts["workload.events"],
        "pump.events": result.pump_events,
        "pump.late_events": result.pump_late_events,
        "scheduler.submit_s": spans["scheduler.submit"],
        "scheduler.jobs": counts["scheduler.jobs"],
        "iomodel.self_s": spans["iomodel"],
        "iomodel.ops": counts["iomodel.ops"],
        "iomodel.sim_queue_delay_s": sum(result.queue_delay_by_tier.values()),
        "flows.submit_s": spans["flows.submit"],
        "flows.recompute_s": spans["flows.recompute"],
        "flows.solve_s": spans["flows.solve"],
        "flows.solves": counts["flows.solves"],
        "flows.solve_flows": counts["flows.solve_flows"],
        "flows.recomputes": engine.recomputes if engine else 0,
        "flows.vector_solves": engine.vector_solves if engine else 0,
        "flows.max_component": engine.max_component if engine else 0,
        "flows.rescheduled": engine.events_rescheduled if engine else 0,
        "dfs.placement_s": spans["dfs.placement"],
        "dfs.placements": counts["dfs.placements"],
        "dfs.master_s": spans["dfs.master"],
        "dfs.creates": counts["dfs.creates"],
        "dfs.reads": counts["dfs.reads"],
        "dfs.deletes": counts["dfs.deletes"],
        "core.downgrade_s": spans["core.downgrade"],
        "core.downgrade_calls": counts["core.downgrade_calls"],
        "core.upgrade_s": spans["core.upgrade"],
        "core.upgrade_calls": counts["core.upgrade_calls"],
        "core.transfers": result.transfers_committed,
        "ml.fit_s": spans["ml.fit"],
        "ml.fits": counts["ml.fits"],
        "ml.trees": counts["ml.trees"],
        "ml.rows_trained": counts["ml.rows_trained"],
        "ml.predict_s": spans["ml.predict"],
        "ml.rows_predicted": counts["ml.rows_predicted"],
    }
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--input-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from layers import LayerTracer, install

        tracer = LayerTracer()
        install(tracer)
    runner = build_runner(WORKLOADS[args.workload], args.input_seed)
    if tracer is not None and runner.stream is not None:
        tracer.patch_events(runner.stream)
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    record = {
        "setup_s": start - args.t0,
        "wall_s": wall,
        "fingerprint": fingerprint(runner, result),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, runner, result)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
