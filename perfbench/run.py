"""Repository benchmark: replay one workload's input batch, report metrics.

    python3 perfbench/run.py --workload fb-fairshare --seed 1 --seconds 30 --trace 0

Every input of the batch (see perfbench/workloads.py) runs in a fresh,
single-threaded child process (perfbench/child.py), one at a time.

``--trace 0`` replays the batch untraced, in full passes until
``--seconds`` would be exceeded (at least one pass), and reports the
end-to-end metrics.  ``--trace 1`` replays each input once untraced and
once with every layer's entry points wrapped (perfbench/layers.py), and
reports per-layer self times and work counts plus the tracing overhead.

Every run is checked: it must exit cleanly within the time limit, finish
every job it submitted, simulate the same outcome (fingerprint) as every
other run of its input, traced or not, and at ``--seed 42`` match the
committed fingerprints in perfbench/fingerprints.json.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import DEFAULT_SEED, WORKLOADS, Workload, input_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
GB = 1 << 30

#: Every run of one invocation must end by then (the limit is 180 s).
DEADLINE_S = 170.0

#: Wrapped layers and the per-layer self-time metrics that make them up.
#: ``runner`` (replay glue) and ``sim`` (event loop) are the frame the
#: layers run in, not layers of their own, so they take no share.
LAYERS = {
    "workload": ["workload.next_s"],
    "scheduler": ["scheduler.submit_s"],
    "iomodel": ["iomodel.self_s"],
    "flows": ["flows.submit_s", "flows.recompute_s", "flows.solve_s"],
    "dfs": ["dfs.placement_s", "dfs.master_s"],
    "core": ["core.downgrade_s", "core.upgrade_s"],
    "ml": ["ml.fit_s", "ml.predict_s"],
}

#: Per-layer metrics combined over the batch by maximum (the rest sum).
PEAKS = {"sim.heap_peak", "flows.max_component"}


class Run:
    """One child process: its record, and why it failed if it did.

    A run whose simulated outcome is wrong keeps its record: it counts
    as failed, but its host figures are still measurements.
    """

    def __init__(self, input_seed: int, traced: bool) -> None:
        self.input_seed = input_seed
        self.traced = traced
        self.record: Optional[dict] = None
        self.rss_mb = 0.0
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # One thread per run: numpy's BLAS pools would otherwise spread a
    # run over every core and make runs contend with each other.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: Workload, input_seed: int, traced: bool, deadline: float) -> Run:
    """Run one input in a fresh process and read its peak RSS from wait4."""
    run = Run(input_seed, traced)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "child.py"),
            "--workload", workload.name,
            "--input-seed", str(input_seed),
            "--trace", str(int(traced)),
            "--t0", repr(t0),
        ],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    run.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if killed.is_set():
        run.error = "timed out"
    elif proc.returncode != 0:
        run.error = f"exited with {proc.returncode}"
    else:
        lines = out.decode().strip().splitlines()
        try:
            run.record = json.loads(lines[-1])
        except (IndexError, ValueError):
            run.error = "printed no record"
    return run


def check(runs: List[Run], workload: Workload, seed: int) -> None:
    """Mark every run whose simulated outcome is wrong as failed."""
    committed = {}
    if seed == DEFAULT_SEED:
        committed = json.loads(FINGERPRINTS.read_text()).get(workload.name, {})
    reference: Dict[int, dict] = {}
    for run in runs:
        if run.record is None:
            continue
        fp = run.record["fingerprint"]
        expected = committed.get(str(run.input_seed))
        if fp["jobs_finished"] != fp["jobs_submitted"]:
            run.error = "unfinished jobs"
        elif seed == DEFAULT_SEED and fp != expected:
            run.error = "fingerprint differs from the committed one"
        elif reference.setdefault(run.input_seed, fp) != fp:
            run.error = "fingerprint differs from an earlier run of its input"


def per_input(runs: List[Run], traced: bool) -> Dict[int, List[dict]]:
    records: Dict[int, List[dict]] = {}
    for run in runs:
        if run.record is not None and run.traced == traced:
            records.setdefault(run.input_seed, []).append(run.record)
    return records


def end_to_end(runs: List[Run]) -> Dict[str, tuple]:
    """Metrics of the untraced runs (value, unit).

    Host figures are medians over the runs, one run per input and pass,
    so one input with an unusually heavy tail moves them little.  The
    simulated figures cover the whole batch.
    """
    measured = [run for run in runs if run.record is not None and not run.traced]
    fps = [recs[0]["fingerprint"] for recs in per_input(runs, traced=False).values()]
    reads = sum(fp["task_reads"] for fp in fps)
    records = [run.record for run in measured]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in records), "s"),
        "events_per_s": (
            statistics.median(
                r["fingerprint"]["events"] / r["wall_s"] for r in records
            ),
            "1/s",
        ),
        "peak_rss_mb": (statistics.median(run.rss_mb for run in measured), "MB"),
        "sim_task_hours": (sum(fp["task_hours"] for fp in fps), "h"),
        "sim_hit_ratio": (
            sum(fp["task_reads_memory"] for fp in fps) / reads if reads else 0.0,
            "ratio",
        ),
    }


def per_layer(runs: List[Run]) -> Dict[str, tuple]:
    """Batch sums of the traced runs' layer metrics, plus tracing overhead."""
    traced = [r for recs in per_input(runs, traced=True).values() for r in recs]
    untraced = per_input(runs, traced=False)
    layers: Dict[str, float] = {}
    for record in traced:
        for name, value in record["layers"].items():
            if name in PEAKS:
                layers[name] = max(layers.get(name, 0), value)
            else:
                layers[name] = layers.get(name, 0) + value
    metrics = {
        name: (value, "s" if name.endswith("_s") else "count")
        for name, value in layers.items()
    }
    metrics["iomodel.sim_queue_delay_s"] = (
        layers["iomodel.sim_queue_delay_s"], "sim_s"
    )
    # Migration cost; zero on mlscan-xgb, whose memory tier never fills.
    metrics["core.sim_gb_moved"] = (
        sum(r["fingerprint"]["bytes_moved"] for r in traced) / GB, "GB"
    )
    # Overhead over the inputs that have both a traced and an untraced run.
    traced_wall = untraced_wall = 0.0
    for seed, recs in per_input(runs, traced=True).items():
        if seed in untraced:
            traced_wall += statistics.median(r["wall_s"] for r in recs)
            untraced_wall += statistics.median(r["wall_s"] for r in untraced[seed])
    metrics["bench.trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    return metrics


def layer_shares(metrics: Dict[str, tuple]) -> Dict[str, float]:
    selfs = {layer: sum(metrics[k][0] for k in keys) for layer, keys in LAYERS.items()}
    total = sum(selfs.values())
    return {layer: value / total if total else 0.0 for layer, value in selfs.items()}


def predictions(workload: Workload, metrics: Dict[str, tuple]) -> List[tuple]:
    """The bypass predictions, as ``(statement, holds)`` pairs."""
    value = {name: v for name, (v, _) in metrics.items()}
    snapshot = workload.io_model == "snapshot"
    learned = "xgb" in (workload.downgrade, workload.upgrade)
    deletes = workload.scenario == "pipeline"
    shares = layer_shares(metrics)
    named = sum(shares[layer] for layer in workload.dominant)
    rest = max(v for layer, v in shares.items() if layer not in workload.dominant)
    return [
        (f"flows.solves {'== 0' if snapshot else '> 0'}",
         (value["flows.solves"] == 0) == snapshot),
        (f"ml.fits {'> 0' if learned else '== 0'}",
         (value["ml.fits"] > 0) == learned),
        (f"dfs.deletes {'> 0' if deletes else '== 0'}",
         (value["dfs.deletes"] > 0) == deletes),
        (f"{' + '.join(workload.dominant)} share {named:.3f} > "
         f"any other layer's {rest:.3f}", named > rest),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated benchmark raises SystemExit, so spawn() kills and
    # reaps the running child before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "engine" / "runner.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seeds = input_seeds(workload, args.seed)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    runs: List[Run] = []
    if args.trace:
        for input_seed in seeds:
            runs.append(spawn(workload, input_seed, False, deadline))
            runs.append(spawn(workload, input_seed, True, deadline))
    else:
        while True:
            begun = time.perf_counter()
            for input_seed in seeds:
                runs.append(spawn(workload, input_seed, False, deadline))
            now = time.perf_counter()
            if now + (now - begun) > start + args.seconds:
                break
    check(runs, workload, args.seed)
    failed = [run for run in runs if not run.ok]
    for run in failed:
        kind = "traced" if run.traced else "untraced"
        print(f"FAILED {kind} input {run.input_seed}: {run.error}", file=sys.stderr)
    kinds = (False, True) if args.trace else (False,)
    if not all(per_input(runs, traced) for traced in kinds):
        print("perfbench: no run produced a record", file=sys.stderr)
        return 1
    correct = not failed
    metrics = per_layer(runs) if args.trace else end_to_end(runs)
    print(f"{workload.name}  seed {args.seed}  inputs {len(seeds)}  runs {len(runs)}")
    print(f"  failed_frac  {len(failed) / len(runs)}  frac")
    for name, (value, unit) in metrics.items():
        print(f"  {name}  {value}  {unit}")
    if args.trace:
        shares = layer_shares(metrics).items()
        print("  self-time shares  " + "  ".join(f"{k} {v:.3f}" for k, v in shares))
        for statement, holds in predictions(workload, metrics):
            print(f"  predict {statement}: {'ok' if holds else 'FAILED'}")
            correct = correct and holds
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
