"""The benchmark's workloads and how one input of each is built.

A workload is a system configuration plus an input generator.  One
benchmark run replays a fixed batch of ``inputs`` inputs, each generated
from its own *input seed* derived from the run's ``--seed`` (see
:func:`input_seeds`), so the same seed always gives the same batch.

Only :func:`build_runner` imports the simulator; the rest of this module
is plain data the parent process reads without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Inputs per batch (one fresh process each).
    inputs: int
    #: FB-profile trace scale, or the scenario scale when ``scenario`` is set.
    scale: float
    downgrade: str
    upgrade: str
    io_model: str
    scenario: Optional[str] = None
    #: Layers (see ``LAYERS`` in perfbench/run.py) predicted to hold,
    #: together, the largest share of wrapped self time.
    dominant: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fb-fairshare",
            why="FB trace replayed eagerly under fair-share pricing: "
            "max-min re-pricing under contention dominates, ML is idle",
            inputs=20,
            scale=0.75,
            downgrade="lru",
            upgrade="osa",
            io_model="fairshare",
            dominant=("flows",),
        ),
        Workload(
            name="pipeline-snapshot",
            why="dataset create/read/delete lifecycle streamed through the "
            "pump with snapshot pricing: scheduler and DFS namespace work",
            inputs=10,
            scale=3.0,
            downgrade="lru",
            upgrade="osa",
            io_model="snapshot",
            scenario="pipeline",
            dominant=("scheduler", "dfs"),
        ),
        Workload(
            name="mlscan-xgb",
            why="ML-training scan scenario under the paper's XGBoost "
            "downgrade and upgrade policies: tree training and prediction "
            "dominate",
            inputs=8,
            scale=3.0,
            downgrade="xgb",
            upgrade="xgb",
            io_model="snapshot",
            scenario="mlscan",
            dominant=("ml",),
        ),
    )
}

#: The seed the committed fingerprints (perfbench/fingerprints.json) hold.
DEFAULT_SEED = 42


def input_seeds(workload: Workload, seed: int) -> List[int]:
    """The input seeds of one batch: ``1000 * seed + i``."""
    return [1000 * seed + i for i in range(workload.inputs)]


def build_runner(workload: Workload, input_seed: int) -> Any:
    """A :class:`WorkloadRunner` for one input, with the system's defaults."""
    from repro.engine.runner import SystemConfig, WorkloadRunner

    config = SystemConfig(
        label=workload.name,
        downgrade=workload.downgrade,
        upgrade=workload.upgrade,
        io_model=workload.io_model,
        scenario=workload.scenario,
        scenario_params={"seed": input_seed, "scale": workload.scale},
    )
    if workload.scenario is not None:
        return WorkloadRunner(None, config)
    from repro.workload.profiles import PROFILES, scaled_profile
    from repro.workload.synthesis import synthesize_trace

    trace = synthesize_trace(
        scaled_profile(PROFILES["FB"], workload.scale), seed=input_seed
    )
    return WorkloadRunner(trace, config)
