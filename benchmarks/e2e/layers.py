"""The layers the tracer wraps, and the per-layer metrics derived from them.

Each layer is a set of public callables of the program, named after the
module that owns them.  ``dominates`` names the workload on which the
layer must fire; ``run.py --check`` fails when it does not, which is how
a binding the tracer missed shows up.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any

from tracer import CountFn, Tracer, aggregate


def _count_pairs(counts, args, kwargs, result) -> None:
    counts["pairs"] += result.pairs_examined


def _count_update(counts, args, kwargs, result) -> None:
    counts["updates"] += 1
    counts["rebuilds"] += bool(result)


def _count_addresses(counts, args, kwargs, result) -> None:
    counts["addresses"] += len(result)
    counts["hits"] += int(result.sum())


def _count_segment(counts, args, kwargs, result) -> None:
    counts["segments"] += 1


def _count_program(counts, args, kwargs, result) -> None:
    counts["programs"] += 1


@dataclasses.dataclass(frozen=True)
class Layer:
    name: str
    #: ``(module, attribute)`` for a function, ``(module, class, method)``
    #: for a method; each with an optional count function last
    functions: tuple[tuple[str, str, CountFn | None], ...] = ()
    methods: tuple[tuple[str, str, str, CountFn | None], ...] = ()
    dominates: str = "roster-quick"


LAYERS: tuple[Layer, ...] = (
    Layer(
        "md.forces",
        functions=tuple(
            ("repro.md.forces", name, _count_pairs)
            for name in (
                "compute_forces",
                "compute_pair_forces",
                "compute_forces_27image",
                "compute_forces_reference",
            )
        ),
        dominates="paper-2048",
    ),
    Layer(
        "md.simulation.init",
        methods=(("repro.md.simulation", "MDSimulation", "__init__", None),),
        dominates="paper-2048",
    ),
    Layer(
        "md.integrators",
        functions=(
            ("repro.md.integrators", "velocity_verlet_step", None),
            ("repro.md.integrators", "leapfrog_step", None),
        ),
    ),
    Layer(
        "md.celllist",
        methods=(
            ("repro.md.celllist", "CellListForceBackend", "__call__", None),
            ("repro.md.celllist", "CellList", "update", _count_update),
        ),
    ),
    Layer(
        "md.neighborlist.build",
        functions=(
            ("repro.md.neighborlist", "build_pairs", None),
            ("repro.md.celllist", "build_pairs_cells", None),
        ),
    ),
    Layer(
        "arch.cache",
        methods=(("repro.arch.cache", "Cache", "access", _count_addresses),),
        dominates="sim-models",
    ),
    Layer(
        "vm.compile",
        functions=tuple(
            ("repro.vm.compile", name, None)
            for name in (
                "compiled_segment",
                "compiled_program",
                "compile_segment",
                "compile_program",
            )
        ),
        dominates="sim-models",
    ),
    Layer(
        "vm.machine",
        methods=(
            ("repro.vm.machine", "Machine", "run_segment", _count_segment),
            ("repro.vm.machine", "Machine", "run_program", _count_program),
        ),
        dominates="sim-models",
    ),
    Layer(
        "arch.device",
        methods=(("repro.arch.device", "Device", "run", None),),
    ),
    Layer(
        "cluster",
        methods=(("repro.cluster.machine", "SimulatedCluster", "run", None),),
    ),
    Layer(
        "harness.run_roster",
        functions=(("repro.harness.api", "run_roster", None),),
    ),
    Layer(
        "harness.execute_job",
        functions=(("repro.harness.jobs", "execute_job", None),),
    ),
)

#: Device families whose ``step_seconds`` cost models get a layer each.
COST_FAMILIES = ("cell", "gpu", "mta", "opteron")


def required(workload: str) -> set[str]:
    """Layers ``--check`` requires to fire on ``workload``."""
    names = {layer.name for layer in LAYERS if layer.dominates == workload}
    if workload == "roster-quick":
        names |= {f"{family}.cost" for family in COST_FAMILIES}
    return names


def install(tracer: Tracer) -> None:
    """Patch every declared layer, plus ``step_seconds`` per device class."""
    for layer in LAYERS:
        for module, name, count in layer.functions:
            tracer.patch_function(module, name, layer.name, count)
        for module, cls_name, name, count in layer.methods:
            cls = getattr(importlib.import_module(module), cls_name)
            tracer.patch_method(cls, name, layer.name, count)
    for family in COST_FAMILIES:
        importlib.import_module(f"repro.{family}")
    from repro.arch.device import Device

    pending = list(Device.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        family = cls.__module__.split(".")[1]
        if "step_seconds" in cls.__dict__ and family in COST_FAMILIES:
            tracer.patch_method(cls, "step_seconds", f"{family}.cost")


#: Per-layer metric names and units for the batch workloads.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("md.forces.calls", "count"),
    ("md.forces.self_s", "s"),
    ("md.forces.pairs", "count"),
    ("md.forces.init_share", "ratio"),
    ("md.integrators.self_s", "s"),
    ("md.celllist.calls", "count"),
    ("md.celllist.self_s", "s"),
    ("md.celllist.reuse_ratio", "ratio"),
    ("md.neighborlist.build_calls", "count"),
    ("md.neighborlist.build_s", "s"),
    ("arch.cache.calls", "count"),
    ("arch.cache.addresses", "count"),
    ("arch.cache.self_s", "s"),
    ("arch.cache.hit_ratio", "ratio"),
    ("vm.compile.calls", "count"),
    ("vm.compile.self_s", "s"),
    ("vm.machine.segments", "count"),
    ("vm.machine.programs", "count"),
    ("vm.machine.self_s", "s"),
    ("arch.device.self_s", "s"),
    *((f"{family}.cost_s", "s") for family in COST_FAMILIES),
    ("cluster.self_s", "s"),
    ("harness.execute_job_s", "s"),
    ("harness.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(
    spans: list[list[Any]], counts: dict[str, dict[str, float]]
) -> dict[str, float]:
    """The per-layer metrics of one traced pass (all but ``trace.*``)."""
    agg = aggregate(spans, under="md.simulation.init")

    def get(layer: str, key: str) -> float:
        if key in ("self_s", "inclusive_s", "under_s"):
            return float(agg.get(layer, {}).get(key, 0.0))
        return float(counts.get(layer, {}).get(key, 0.0))

    cl_updates = get("md.celllist", "updates")
    return {
        "md.forces.calls": get("md.forces", "calls"),
        "md.forces.self_s": get("md.forces", "self_s"),
        "md.forces.pairs": get("md.forces", "pairs"),
        "md.forces.init_share": _ratio(
            get("md.forces", "under_s"), get("md.forces", "inclusive_s")
        ),
        "md.integrators.self_s": get("md.integrators", "self_s"),
        "md.celllist.calls": get("md.celllist", "calls"),
        "md.celllist.self_s": get("md.celllist", "self_s"),
        "md.celllist.reuse_ratio": _ratio(
            cl_updates - get("md.celllist", "rebuilds"), cl_updates
        ),
        "md.neighborlist.build_calls": get("md.neighborlist.build", "calls"),
        "md.neighborlist.build_s": get("md.neighborlist.build", "self_s"),
        "arch.cache.calls": get("arch.cache", "calls"),
        "arch.cache.addresses": get("arch.cache", "addresses"),
        "arch.cache.self_s": get("arch.cache", "self_s"),
        "arch.cache.hit_ratio": _ratio(
            get("arch.cache", "hits"), get("arch.cache", "addresses")
        ),
        "vm.compile.calls": get("vm.compile", "calls"),
        "vm.compile.self_s": get("vm.compile", "self_s"),
        "vm.machine.segments": get("vm.machine", "segments"),
        "vm.machine.programs": get("vm.machine", "programs"),
        "vm.machine.self_s": get("vm.machine", "self_s"),
        "arch.device.self_s": get("arch.device", "self_s"),
        **{
            f"{family}.cost_s": get(f"{family}.cost", "self_s")
            for family in COST_FAMILIES
        },
        "cluster.self_s": get("cluster", "self_s"),
        "harness.execute_job_s": get("harness.execute_job", "inclusive_s"),
        "harness.overhead_s": get("harness.run_roster", "inclusive_s")
        - get("harness.execute_job", "inclusive_s"),
    }


def fired(counts: dict[str, dict[str, float]]) -> set[str]:
    """Layers with at least one recorded call."""
    return {layer for layer, c in counts.items() if c.get("calls", 0) > 0}
