"""The 2.2 GHz Opteron baseline device (the paper's reference system)."""

from __future__ import annotations

from repro.arch import calibration as cal
from repro.arch.clock import Clock
from repro.arch.device import Device
from repro.arch.profilecounts import KernelMetrics
from repro.md.simulation import MDConfig
from repro.obs.observe import Observation
from repro.opteron.costmodel import cache_scan_stats, cache_stall_cycles_per_pair
from repro.opteron.kernel import OPTERON_COST_TABLE, build_opteron_kernel
from repro.vm.schedule import estimate_cycles

__all__ = ["OpteronDevice"]

#: O(N) integration work per atom per step, cycles (loads, FP ops,
#: stores of steps 1/3/4/5 on a 3-wide core).
OPTERON_INTEGRATION_CYCLES_PER_ATOM = 40.0


class OpteronDevice(Device):
    """Scalar double-precision baseline with a simulated cache hierarchy."""

    precision = "float64"
    name = "opteron-2.2GHz"

    def __init__(
        self,
        reflect_take: float = cal.REFLECT_TAKE,
        force_path: str = "all-pairs",
    ) -> None:
        if not 0.0 <= reflect_take <= 1.0:
            raise ValueError(f"reflect_take {reflect_take} outside [0, 1]")
        self.clock = Clock(cal.OPTERON_CLOCK_HZ, "opteron")
        self.reflect_take = reflect_take
        self.force_path = force_path

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        return {"reflect_take": self.reflect_take}

    def build_program(self, box_length: float):
        return build_opteron_kernel(box_length)

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        report = estimate_cycles(
            self.program(), OPTERON_COST_TABLE, metrics.as_dict()
        )
        stall = cache_stall_cycles_per_pair(metrics.n_atoms) * metrics.pairs_examined
        integration = OPTERON_INTEGRATION_CYCLES_PER_ATOM * metrics.n_atoms
        return {
            "kernel": self.clock.seconds(report.total_cycles),
            "memory_stall": self.clock.seconds(stall),
            "integration": self.clock.seconds(integration),
        }

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        report = estimate_cycles(
            self.program(), OPTERON_COST_TABLE, metrics.as_dict()
        )
        stats = cache_scan_stats(metrics.n_atoms)
        # Each atom's inner loop rescans the position array once per step.
        scale = metrics.n_atoms / stats.scans
        obs.charge("opteron.kernel.cycles", report.total_cycles)
        obs.charge("opteron.cache.l1_accesses", round(stats.l1_accesses * scale))
        obs.charge("opteron.cache.l1_hits", round(stats.l1_hits * scale))
        obs.charge("opteron.cache.l2_accesses", round(stats.l2_accesses * scale))
        obs.charge("opteron.cache.l2_hits", round(stats.l2_hits * scale))
        obs.charge(
            "opteron.cache.stall_cycles",
            cache_stall_cycles_per_pair(metrics.n_atoms) * metrics.pairs_examined,
        )
