"""Short device probe workloads, one per tuning scenario.

A :class:`TuneScenario` names one (experiment, N, device) cell of the
tuning matrix and the knobs worth searching there.  :func:`probe_job`
is the harness-worker entry point: it runs the scenario's device under
whatever tuned values are ambiently applied (the tuner ships a
candidate per probe through the job payload) and returns a one-row
:class:`~repro.experiments.common.ExperimentResult` carrying the
simulated throughput (``steps / result.total_seconds``), the simulated
seconds, and the run's relative energy drift.

Every probe prices the same untuned trajectory — no knob reaches the
force path — so a probe is deterministic and its drift is the same for
every candidate.

Probes run through :func:`repro.harness.jobs.execute_job` with
``cache_key=None``, so they share the worker machinery (stdout capture,
crash isolation, tuned-config application) without ever touching the
run store or the result cache.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.common import ExperimentResult, PAPER_STEPS, ShapeCheck, paper_config

__all__ = [
    "PROBE_EXPERIMENT_ID",
    "SCENARIOS",
    "TuneScenario",
    "probe_job",
    "run_probe",
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


SCENARIOS: tuple[TuneScenario, ...] = (
    TuneScenario(
        scenario_id="table1-cell",
        experiment_id="table1",
        device="cell",
        knobs=("cell.partition",),
        metric="steps",
        n=256, quick_n=256, steps=2, quick_steps=1,
    ),
    TuneScenario(
        scenario_id="tunesweep-mta",
        experiment_id="tunesweep",
        device="mta",
        knobs=("mta.streams",),
        metric="steps",
        n=128, quick_n=128, steps=2, quick_steps=1,
    ),
)


def scenario_for(scenario_id: str) -> TuneScenario:
    for scenario in SCENARIOS:
        if scenario.scenario_id == scenario_id:
            return scenario
    raise KeyError(
        f"unknown tune scenario {scenario_id!r}; known: "
        f"{[s.scenario_id for s in SCENARIOS]}"
    )


def _device(family: str):
    """A fresh device of the scenario's family; it reads its knobs per run."""
    if family == "cell":
        from repro.cell.device import CellDevice

        return CellDevice()  # 8 SPEs
    from repro.mta.device import MTADevice

    # A 4-processor MTA needs streams x 4 concurrent threads to
    # saturate; at small N the stream request is the whole ballgame.
    return MTADevice(n_processors=4)


def run_probe(scenario: TuneScenario, quick: bool) -> tuple[float, float, float]:
    """``(steps per simulated second, simulated seconds, energy drift)``."""
    config = paper_config(scenario.size(quick))
    steps = scenario.probe_steps(quick)
    result = _device(scenario.device).run(config, steps)
    seconds = result.total_seconds
    e0 = result.records[0].total_energy
    e1 = result.records[-1].total_energy
    drift = abs(e1 - e0) if e0 == 0.0 else abs((e1 - e0) / e0)
    return steps / seconds, seconds, drift


def probe_job(scenario_id: str, quick: bool = False) -> ExperimentResult:
    """Run one scenario's probe workload under the ambient tuned config.

    The harness worker (:func:`repro.harness.jobs.execute_job`) applies
    the candidate values shipped in the payload's ``tuned`` entry before
    calling this, so the device's knob consumers see them ambiently.
    """
    scenario = scenario_for(scenario_id)
    per_second, seconds, accuracy = run_probe(scenario, quick)
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
                 "seconds", "accuracy"),
        rows=(
            (scenario.scenario_id, scenario.device, scenario.size(quick),
             scenario.metric, per_second, seconds, accuracy),
        ),
        checks=(check,),
        notes=(f"{PAPER_STEPS}-step convention does not apply to probes",),
    )
