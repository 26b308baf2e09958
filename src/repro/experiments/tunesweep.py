"""The tuning-target sweep: gpu/mta/vm workloads under tuned configs.

This experiment is the roster anchor for the autotuner's
``tunesweep-mta`` scenario (:mod:`repro.tune.probe`): a tuned artifact
persisted for ``experiment_id="tunesweep"`` auto-loads onto this job's
runs, and its knob values reach the MTA model ambiently through
:mod:`repro.tune.context` — exactly the path a production run takes.
The MTA row is the scenario's device probe, priced on the simulated
clock.

Two knob-free host rows ride along: one GPU shader sweep through the
VM and one batched-replica fused VM timestep, each timed as the best
host wall-clock of ``repeats`` calls after a warm-up.  Nothing tunes
them.

Untuned, every workload runs at its backend defaults; tuned, the run
record's ``tuned`` entry names the applied config and the cache key
changes with it, so tuned and untuned results never alias.  The rows
report throughput per workload plus which tuned knobs were active, and
the checks are wide positivity bands — the *strict* tuned-vs-default
gate lives in ``scripts/record_bench.py --tune`` (``BENCH_tune.json``).
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

import numpy as np

from repro.experiments.common import ExperimentResult, ShapeCheck, paper_config

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "gpu/mta/vm tuning-target sweep under the active tuned config"


def _best_seconds(call: Callable[[], Any], repeats: int) -> float:
    """Best host wall-clock of ``repeats`` calls, after one warm-up call."""
    call()  # program builds, closure compiles, pool allocation
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _gpu_row(quick: bool, repeats: int) -> tuple:
    """One MD-shader rasterization (a pass over all n output atoms)."""
    from repro.gpu.kernels import build_md_shader, shader_constants
    from repro.md.lj import LennardJones
    from repro.vm.sweep import PairSweep

    n = 256 if quick else 512
    box_length = paper_config(n).make_box().length
    sweep = PairSweep(build_md_shader(box_length).program)
    constants = shader_constants(LennardJones(), box_length)
    rng = np.random.default_rng(2)
    positions = rng.uniform(0.0, box_length, size=(n, 3)).astype(np.float32)
    seconds = _best_seconds(lambda: sweep.run(positions, constants), repeats)
    return "tunesweep-gpu", "gpu", n, "sweeps", 1.0 / seconds, seconds, 0.0


def _vm_row(quick: bool, repeats: int) -> tuple:
    """Batched replicas of one fused SPE timestep (rows per replica = n)."""
    from repro.cell.kernels import build_spe_timestep_kernel, timestep_constants
    from repro.md.lj import LennardJones
    from repro.vm.bench import BOX_LENGTH, timestep_env
    from repro.vm.machine import Machine

    replicas, rows = (4, 64) if quick else (8, 256)
    program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
    constants = timestep_constants(LennardJones(), dt=0.005)
    machine = Machine(width=4, dtype=np.float32)
    env = timestep_env(machine, replicas * rows, constants)
    seconds = _best_seconds(
        lambda: machine.run_program(program, dict(env), replicas=replicas),
        repeats,
    )
    return "tunesweep-vm", "vm", rows, "replicas", replicas / seconds, seconds, 0.0


def _mta_row(quick: bool) -> tuple:
    """The ``tunesweep-mta`` device probe on the simulated clock."""
    from repro.tune.probe import run_probe, scenario_for

    scenario = scenario_for("tunesweep-mta")
    per_second, seconds, accuracy = run_probe(scenario, quick)
    return (scenario.scenario_id, scenario.device, scenario.size(quick),
            scenario.metric, per_second, seconds, accuracy)


def run(quick: bool = False, repeats: int = 2) -> ExperimentResult:
    """Run each tuning-target workload once under the ambient config."""
    from repro.tune.context import active_values

    applied = active_values()
    rows = []
    checks = []
    for row in (_gpu_row(quick, repeats), _mta_row(quick), _vm_row(quick, repeats)):
        device, per_second = row[1], row[4]
        active = sorted(name for name in applied if name.startswith(f"{device}/"))
        rows.append((*row, ",".join(active) or "(defaults)"))
        checks.append(
            ShapeCheck(
                key=f"tunesweep.{device}.positive",
                measured=per_second,
                low=0.0,
                high=1e18,  # finite so the JSON record stays standard
                paper_value=0.0,
                description=(
                    f"{device} workload throughput is finite and "
                    "positive under the active tuned config"
                ),
            )
        )
    return ExperimentResult(
        experiment_id="tunesweep",
        title="tuning-target sweep (gpu / mta / vm)",
        headers=(
            "scenario", "device", "n", "metric", "per_second",
            "seconds", "accuracy", "tuned_knobs",
        ),
        rows=tuple(rows),
        checks=tuple(checks),
        notes=(
            f"{len(applied)} tuned knob value(s) ambiently active",
            "gpu and vm rows are host wall-clock; the mta row is simulated",
            "strict tuned>=default gate: scripts/record_bench.py --tune",
        ),
    )
