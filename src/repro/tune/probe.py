"""Short measured probe workloads, one per tuning scenario.

A :class:`TuneScenario` names one (experiment, N, device) cell of the
tuning matrix and the knobs worth searching there.  :func:`probe_job`
is the harness-worker entry point: it runs the scenario's workload
under whatever tuned values are ambiently applied (the tuner ships a
candidate per probe through the job payload) and returns a one-row
:class:`~repro.experiments.common.ExperimentResult` carrying the
measured throughput, the wall/simulated seconds, and an accuracy
figure (relative energy drift for device probes).

Probes run through :func:`repro.harness.jobs.execute_job` with
``cache_key=None``, so they share the worker machinery (stdout capture,
crash isolation, tuned-config application) without ever touching the
run store or the result cache.

Objectives:

* ``wall`` — host wall-clock of the functional workload (best of
  ``repeats``).  Knobs like ``md.block`` or ``gpu.row_block`` change
  how the NumPy physics is chunked, so wall time is the honest metric.
* ``sim`` — the device cost model's simulated seconds.  Deterministic;
  used where a knob changes the *modeled* hardware schedule (e.g.
  ``mta.streams`` matching the stream request to the workload's
  parallelism).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Any, Callable

import numpy as np

from repro.experiments.common import ExperimentResult, PAPER_STEPS, ShapeCheck, paper_config

__all__ = [
    "PROBE_EXPERIMENT_ID",
    "SCENARIOS",
    "TuneScenario",
    "VM_WORKLOAD",
    "probe_job",
    "scenario_for",
]

#: experiment id stamped on probe records (never a registry entry, so a
#: probe can never collide with a real experiment's cache keys)
PROBE_EXPERIMENT_ID = "tune-probe"


@dataclasses.dataclass(frozen=True)
class TuneScenario:
    """One (experiment, N, device) tuning problem."""

    scenario_id: str
    #: registry experiment whose runs the tuned config will apply to
    experiment_id: str
    #: tuned-value scope (a device ``tune_family``)
    device: str
    #: knob names searched (grids come from the TunableSpec registry)
    knobs: tuple[str, ...]
    #: "wall" or "sim"
    objective: str
    #: human name of the throughput metric (rows are <metric>/second)
    metric: str
    n: int
    quick_n: int
    steps: int
    quick_steps: int

    def size(self, quick: bool) -> int:
        return self.quick_n if quick else self.n

    def probe_steps(self, quick: bool) -> int:
        return self.quick_steps if quick else self.steps


def _drift(records) -> float:
    """Relative total-energy drift over a device run's step records."""
    e0 = records[0].total_energy
    e1 = records[-1].total_energy
    if e0 == 0.0:
        return abs(e1 - e0)
    return abs((e1 - e0) / e0)


def _best_wall(run: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best-of-``repeats`` wall seconds (after one warm-up call).

    Every timed call starts from an empty device trajectory memo, so a
    device probe times the physics its knobs chunk, not a memo hit.
    """
    from repro.arch.device import _trajectory

    run()  # warm-up: program builds, closure compiles, pool allocation
    best = math.inf
    result = None
    for _ in range(max(1, repeats)):
        _trajectory.cache_clear()
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _probe_opteron(scenario: TuneScenario, quick: bool, repeats: int):
    from repro.opteron.device import OpteronDevice

    config = paper_config(scenario.size(quick))
    steps = scenario.probe_steps(quick)
    device = OpteronDevice()
    seconds, result = _best_wall(lambda: device.run(config, steps), repeats)
    return steps / seconds, seconds, _drift(result.records)


def _probe_cell(scenario: TuneScenario, quick: bool, repeats: int):
    from repro.cell.device import CellDevice

    config = paper_config(scenario.size(quick))
    steps = scenario.probe_steps(quick)
    device = CellDevice()  # 8 SPEs, reads tuned partition per run
    seconds, result = _best_wall(lambda: device.run(config, steps), repeats)
    return steps / seconds, seconds, _drift(result.records)


def _probe_gpu(scenario: TuneScenario, quick: bool, repeats: int):
    from repro.gpu.device import gpu_row_block
    from repro.gpu.kernels import build_md_shader, shader_constants
    from repro.md.lj import LennardJones
    from repro.vm.sweep import PairSweep

    n = scenario.size(quick)
    config = paper_config(n)
    box_length = config.make_box().length
    sweep = PairSweep(build_md_shader(box_length).program)
    constants = shader_constants(LennardJones(), box_length)
    rng = np.random.default_rng(2)
    positions = rng.uniform(0.0, box_length, size=(n, 3)).astype(np.float32)
    row_block = gpu_row_block()
    seconds, _ = _best_wall(
        lambda: sweep.run(positions, constants, row_block=row_block), repeats
    )
    # one rasterization = one shader pass over all n output atoms
    return 1.0 / seconds, seconds, 0.0


def _probe_mta(scenario: TuneScenario, quick: bool, repeats: int):
    from repro.mta.device import MTADevice

    config = paper_config(scenario.size(quick))
    steps = scenario.probe_steps(quick)
    # A 4-processor MTA needs streams x 4 concurrent threads to
    # saturate; at small N the stream request is the whole ballgame.
    device = MTADevice(n_processors=4)
    result = device.run(config, steps)
    seconds = result.total_seconds  # simulated — deterministic
    return steps / seconds, seconds, _drift(result.records)


def _probe_vm(scenario: TuneScenario, quick: bool, repeats: int):
    from repro.cell.kernels import build_spe_timestep_kernel, timestep_constants
    from repro.md.lj import LennardJones
    from repro.vm.bench import BOX_LENGTH, timestep_env
    from repro.vm.machine import Machine

    replicas = scenario.probe_steps(quick)
    rows = scenario.size(quick)
    program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
    constants = timestep_constants(LennardJones(), dt=0.005)
    machine = Machine(width=4, dtype=np.float32)
    env = timestep_env(machine, replicas * rows, constants)
    seconds, _ = _best_wall(
        lambda: machine.run_program(program, dict(env), replicas=replicas),
        repeats,
    )
    return replicas / seconds, seconds, 0.0


_WORKLOADS: dict[str, Callable[[TuneScenario, bool, int], tuple[float, float, float]]] = {
    "table1-opteron": _probe_opteron,
    "table1-cell": _probe_cell,
    "tunesweep-gpu": _probe_gpu,
    "tunesweep-mta": _probe_mta,
    "tunesweep-vm": _probe_vm,
}

SCENARIOS: tuple[TuneScenario, ...] = (
    TuneScenario(
        scenario_id="table1-opteron",
        experiment_id="table1",
        device="opteron",
        knobs=("md.block",),
        objective="wall",
        metric="steps",
        n=512, quick_n=256, steps=2, quick_steps=1,
    ),
    TuneScenario(
        scenario_id="table1-cell",
        experiment_id="table1",
        device="cell",
        knobs=("md.block", "cell.partition"),
        objective="wall",
        metric="steps",
        n=256, quick_n=256, steps=2, quick_steps=1,
    ),
    TuneScenario(
        scenario_id="tunesweep-gpu",
        experiment_id="tunesweep",
        device="gpu",
        knobs=("gpu.row_block",),
        objective="wall",
        metric="sweeps",
        n=512, quick_n=256, steps=1, quick_steps=1,
    ),
    TuneScenario(
        scenario_id="tunesweep-mta",
        experiment_id="tunesweep",
        device="mta",
        knobs=("mta.streams",),
        objective="sim",
        metric="steps",
        n=128, quick_n=128, steps=2, quick_steps=1,
    ),
)

#: The ``tunesweep`` experiment's VM row: batched replicas through the
#: default fused backend.  It has no knob to search, so it is not one of
#: the tuner's :data:`SCENARIOS`.  ``steps`` doubles as the replica count.
VM_WORKLOAD = TuneScenario(
    scenario_id="tunesweep-vm",
    experiment_id="tunesweep",
    device="vm",
    knobs=(),
    objective="wall",
    metric="replicas",
    n=256, quick_n=64, steps=8, quick_steps=4,
)


def scenario_for(scenario_id: str) -> TuneScenario:
    for scenario in SCENARIOS:
        if scenario.scenario_id == scenario_id:
            return scenario
    raise KeyError(
        f"unknown tune scenario {scenario_id!r}; known: "
        f"{[s.scenario_id for s in SCENARIOS]}"
    )


def probe_job(
    scenario_id: str, quick: bool = False, repeats: int = 2
) -> ExperimentResult:
    """Run one scenario's probe workload under the ambient tuned config.

    The harness worker (:func:`repro.harness.jobs.execute_job`) applies
    the candidate values shipped in the payload's ``tuned`` entry before
    calling this, so the workload's knob consumers see them ambiently.
    """
    scenario = scenario_for(scenario_id)
    per_second, seconds, accuracy = _WORKLOADS[scenario.scenario_id](
        scenario, quick, repeats
    )
    check = ShapeCheck(
        key=f"tune.probe.{scenario.scenario_id}",
        measured=per_second,
        low=0.0,
        high=1e18,  # finite so the JSON record stays standard
        paper_value=0.0,
        description=f"probe throughput for {scenario.scenario_id} is finite and positive",
    )
    return ExperimentResult(
        experiment_id=PROBE_EXPERIMENT_ID,
        title=f"tuning probe: {scenario.scenario_id}",
        headers=("scenario", "device", "n", "metric", "per_second",
                 "best_seconds", "accuracy"),
        rows=(
            (scenario.scenario_id, scenario.device, scenario.size(quick),
             scenario.metric, per_second, seconds, accuracy),
        ),
        checks=(check,),
        notes=(
            f"objective={scenario.objective}; "
            f"{PAPER_STEPS}-step convention does not apply to probes",
        ),
    )
