"""The benchmark's workloads: pinned inputs, and what a seed picks.

Batch workloads run as *passes*: one pass executes every op of the
workload once, in a fixed order, inside one fresh process.  Only the
sim-models device runs take inputs from the seed (their MD seed); the
two roster workloads are exactly what their commands run.

Job parameters are pinned here, as the keyword arguments each
experiment function actually receives (registry params over the
function's defaults), so an edit under ``src/`` cannot silently change a
workload; ``run.py --check`` warns when the registry has drifted.

This module imports nothing from ``repro`` at import time; ``build``
does, and that import is part of the measured set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import time
from typing import Any, Callable

#: Workload name -> one-line reason it exists (mirrored in BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "roster-quick": "the quick roster users and CI run; every layer at small N, "
    "with per-process import and VM compile costs visible",
    "paper-2048": "fig6 and table1 at the paper's 2048 atoms and 10 steps; "
    "the O(N^2) force kernel does most of the work",
    "sim-models": "vm-mode Cell and GPU models plus the cache ablation; host "
    "time inside the hardware models, little in the force kernel",
    "service-mix": "the service under a 4 req/s open loop, fresh jobs alternating "
    "with cache hits; queue, journal, pool and store dominate",
}
BATCH_WORKLOADS = ("roster-quick", "paper-2048", "sim-models")

_QUICK = (256, 512, 1024)

#: ``(job id, module, function, kwargs)`` of the 19 quick-roster jobs, as
#: ``runner --quick`` resolves them.
QUICK_ROSTER: tuple[tuple[str, str, str, dict[str, Any]], ...] = (
    ("fig5", "repro.experiments.fig5_simd", "run", {"n_atoms": 512, "n_steps": 3}),
    ("fig6", "repro.experiments.fig6_launch", "run", {"n_atoms": 2048, "n_steps": 2}),
    ("table1", "repro.experiments.table1_perf", "run", {"n_atoms": 2048, "n_steps": 2}),
    ("fig7", "repro.experiments.fig7_gpu", "run", {"atom_counts": _QUICK, "n_steps": 2}),
    ("fig8", "repro.experiments.fig8_mta", "run", {"atom_counts": _QUICK, "n_steps": 2}),
    ("fig9", "repro.experiments.fig9_scaling", "run",
     {"atom_counts": _QUICK, "n_steps": 2, "force_path": "all-pairs"}),
    ("abl-nlist", "repro.experiments.ablations", "run_neighborlist",
     {"n_atoms": 512, "n_steps": 10, "skin": 0.3}),
    ("abl-reduce", "repro.experiments.ablations", "run_gpu_reduction", {"n_atoms": 512}),
    ("abl-xmt", "repro.experiments.ablations", "run_xmt_projection",
     {"n_atoms": 512, "n_steps": 2}),
    ("abl-xmt-net", "repro.experiments.ablations", "run_xmt_network",
     {"n_atoms": 262144, "processors": (64, 512, 1024, 2048)}),
    ("abl-cache", "repro.experiments.ablations", "run_cache_patterns", {"n_atoms": 4096}),
    ("abl-nextgen", "repro.experiments.ablations", "run_nextgen_gpu",
     {"atom_counts": (256, 1024), "n_steps": 2}),
    ("abl-balance", "repro.experiments.ablations", "run_load_balance",
     {"n_atoms": 512, "n_spes": 8}),
    ("abl-precision", "repro.experiments.ablations", "run_precision", {"n_atoms": 256}),
    ("faults", "repro.experiments.faultstorm", "run",
     {"n_atoms": 128, "n_steps": 6, "fault_plan": None}),
    ("ensemble", "repro.experiments.ensemble", "run",
     {"n_rows": 128, "replicas": 4, "repeats": 3}),
    ("longrun", "repro.experiments.longrun", "run",
     {"n_atoms": 128, "n_steps": 8, "checkpoint_interval": 3,
      "checkpoint_path": None, "crash_at_step": None}),
    ("cluster", "repro.experiments.cluster_scaling", "run",
     {"n_atoms": 512, "n_steps": 2, "node_counts": (1, 2, 4),
      "devices": ("cell", "gpu"), "topology": "switch"}),
    ("tunesweep", "repro.experiments.tunesweep", "run", {"quick": True, "repeats": 1}),
)

#: Full-parameter jobs (the registry's non-quick variants).
FULL_JOBS: dict[str, tuple[str, str, str, dict[str, Any]]] = {
    "fig6": ("fig6", "repro.experiments.fig6_launch", "run",
             {"n_atoms": 2048, "n_steps": 10}),
    "table1": ("table1", "repro.experiments.table1_perf", "run",
               {"n_atoms": 2048, "n_steps": 10}),
    "abl-cache": ("abl-cache", "repro.experiments.ablations", "run_cache_patterns",
                  {"n_atoms": 8192}),
    "ensemble": ("ensemble", "repro.experiments.ensemble", "run",
                 {"n_rows": 256, "replicas": 8, "repeats": 3}),
}

#: Experiments whose rows and check values are host wall-clock readings;
#: only their pass/fail vectors are compared with the reference.
WALL_CLOCK_BODIES = frozenset({"ensemble", "tunesweep"})

#: The Fig-5 optimisation ladder, in the paper's order.
OPT_LEVELS = (
    "original", "copysign", "simd_reflection",
    "simd_direction", "simd_length", "simd_acceleration",
)
#: MD seeds of the sim-models device runs; ``--seed`` picks one, and every
#: entry has a committed reference.
SIM_SEEDS = (2007, 1013, 4099, 7919)

#: Smoke variants: same op kinds, tiny sizes (``run.py --smoke``).
SMOKE_ROSTER = tuple(
    job for job in QUICK_ROSTER
    if job[0] in ("fig9", "abl-nlist", "abl-xmt-net", "abl-precision", "faults", "cluster")
)
SMOKE_PAPER = (
    ("fig6", "repro.experiments.fig6_launch", "run", {"n_atoms": 256, "n_steps": 1}),
    ("table1", "repro.experiments.table1_perf", "run", {"n_atoms": 256, "n_steps": 1}),
)
SMOKE_SIM = {"levels": ("original", "simd_acceleration"), "n_atoms": 256, "n_steps": 1}


def pinned_jobs(workload: str, smoke: bool = False) -> tuple[tuple[str, str, str, dict], ...]:
    """The roster jobs of a batch workload."""
    if workload == "roster-quick":
        return SMOKE_ROSTER if smoke else QUICK_ROSTER
    if workload == "paper-2048":
        return SMOKE_PAPER if smoke else (FULL_JOBS["fig6"], FULL_JOBS["table1"])
    if workload == "sim-models":
        if smoke:
            return tuple(j for j in QUICK_ROSTER if j[0] in ("abl-cache", "ensemble"))
        return (FULL_JOBS["abl-cache"], FULL_JOBS["ensemble"])
    raise KeyError(workload)


# -- op outputs: what the reference check compares --------------------------


def record_output(record: dict[str, Any]) -> dict[str, Any]:
    """The comparable projection of a harness job record."""
    out: dict[str, Any] = {"status": record["status"]}
    result = record.get("result")
    if record["status"] != "ok" or not result:
        out["error"] = (record.get("traceback") or "")[-400:]
        return out
    wall_clock = record["experiment_id"] in WALL_CLOCK_BODIES
    out["checks"] = {
        c["key"]: [None if wall_clock else c["measured"], bool(c["passed"])]
        for c in result["checks"]
    }
    if not wall_clock:
        out["rows"] = result["rows"]
    return out


def device_output(result: Any) -> dict[str, Any]:
    """The comparable projection of a ``DeviceRunResult``."""
    digest = hashlib.sha256()
    digest.update(result.final_positions.tobytes())
    digest.update(result.final_velocities.tobytes())
    return {
        "status": "ok",
        "sha256": digest.hexdigest(),
        "seconds": [float(result.setup_seconds), *map(float, result.step_seconds)],
    }


# -- building and running one pass ------------------------------------------


@dataclasses.dataclass
class Pass:
    """Everything one pass runs, built before the ready stamp."""

    roster: list[Any]  # harness Jobs, run through one run_roster call
    devices: list[tuple[str, Callable[[], Any]]]  # (op id, run thunk)
    md_seed: int | None = None

    def run(self) -> list[dict[str, Any]]:
        """Execute every op; returns ``{id, ref, start, end, wall_s,
        cpu_s, output}`` per op, where ``start``/``end`` are on the
        system-wide monotonic clock and ``ref`` keys the op's reference
        output."""
        from repro.harness.api import run_roster

        ops: list[dict[str, Any]] = []

        def add(op_id: str, ref: str, begun: tuple[float, float],
                output: dict) -> tuple[float, float]:
            end, cpu = time.monotonic(), time.process_time()
            ops.append({"id": op_id, "ref": ref, "start": begun[0], "end": end,
                        "wall_s": end - begun[0], "cpu_s": cpu - begun[1],
                        "output": output})
            return end, cpu

        for op_id, thunk in self.devices:
            begun = (time.monotonic(), time.process_time())
            try:
                output = device_output(thunk())
            except Exception as exc:  # an op failure is a result, not a crash
                output = {"status": "failed", "error": repr(exc)[-400:]}
            add(op_id, f"{op_id}@{self.md_seed}", begun, output)
        if self.roster:
            mark = [(time.monotonic(), time.process_time())]

            def on_record(record: dict[str, Any]) -> None:
                mark[0] = add(record["job_id"], record["job_id"], mark[0],
                              record_output(record))

            run_roster(self.roster, store=None, max_workers=0, use_cache=False,
                       on_record=on_record)
        return ops


def build(workload: str, seed: int, smoke: bool = False) -> Pass:
    """Import the program and build a pass's inputs from ``seed``.

    ``service-mix`` builds the inline twin of its requests — one quick
    ``faults`` job under a zero-rate plan — which is how its reference
    is recorded.
    """
    from repro.harness.jobs import Job

    if workload == "service-mix":
        from repro.faults import FaultPlan

        job_id, module, func, params = next(j for j in QUICK_ROSTER if j[0] == "faults")
        params = dict(params, fault_plan=FaultPlan.none().to_dict())
        return Pass(roster=[Job(job_id, job_id, module, func, params)], devices=[])
    jobs = [
        Job(job_id=job_id, experiment_id=job_id, module=module, func=func,
            params=dict(params))
        for job_id, module, func, params in pinned_jobs(workload, smoke)
    ]
    if workload != "sim-models":
        return Pass(roster=jobs, devices=[])

    from repro.cell import CellDevice
    from repro.experiments.common import paper_config
    from repro.gpu.device import GpuDevice

    n_atoms = SMOKE_SIM["n_atoms"] if smoke else 1024
    n_steps = SMOKE_SIM["n_steps"] if smoke else 2
    md_seed = SIM_SEEDS[seed % len(SIM_SEEDS)]
    config = dataclasses.replace(paper_config(n_atoms), seed=md_seed)
    devices: list[tuple[str, Callable[[], Any]]] = [
        (f"cell-vm-{level}",
         lambda level=level: CellDevice(opt_level=level, mode="vm").run(config, n_steps))
        for level in (SMOKE_SIM["levels"] if smoke else OPT_LEVELS)
    ]
    devices.append(("gpu-vm", lambda: GpuDevice(mode="vm").run(config, n_steps)))
    return Pass(roster=jobs, devices=devices, md_seed=md_seed)


#: Every op id a batch pass can report, for the ``op.<id>.wall_s`` metrics.
OP_IDS: tuple[str, ...] = (
    *(f"cell-vm-{level}" for level in OPT_LEVELS),
    "gpu-vm",
    *(job[0] for job in QUICK_ROSTER),
)


# -- registry drift -----------------------------------------------------------


def registry_drift() -> list[str]:
    """Pinned jobs whose registry entry now resolves to other arguments."""
    from repro.experiments.registry import spec_for

    problems = []
    pins = [(job, True) for job in QUICK_ROSTER]
    pins += [(job, False) for job in FULL_JOBS.values()]
    for (job_id, module, func, params), quick in pins:
        spec = spec_for(job_id)
        target = spec.resolve()
        resolved = {
            name: p.default
            for name, p in inspect.signature(target).parameters.items()
            if p.default is not inspect.Parameter.empty
        }
        resolved.update(spec.params(quick=quick))
        if (spec.module, spec.func) != (module, func) or json.dumps(
            resolved, sort_keys=True
        ) != json.dumps(params, sort_keys=True):
            scale = "quick" if quick else "full"
            problems.append(
                f"{job_id} ({scale}): pinned {module}.{func}({params}) but the "
                f"registry resolves {spec.module}.{spec.func}({resolved})"
            )
    return problems
