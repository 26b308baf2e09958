"""The Cray XMT projection — the paper's "future plans" made concrete.

Section 3.3.1: the XMT "uses multithreaded processors similar to the
MTA-2, [but] there are several important differences in the memory and
network architecture; it will not have the MTA-2's nearly uniform
memory access latency, so data placement and access locality will be an
important consideration ...  The XMT multithreaded processors will
operate at a higher clock rate and the XMT design allows systems with
up to 8000 processors."

The model here captures exactly that contrast:

* compute side — the familiar stream model at the higher XMT clock;
* memory side — a 3D-torus network whose aggregate memory throughput
  grows with the *bisection* (~ P^(2/3)), not with P, so large systems
  become network-bound on memory-heavy kernels;
* the force-loop time is the roofline maximum of the two.

Memory intensity is *measured from the kernel's instruction stream*
(its load/store issue share), not assumed.
"""

from __future__ import annotations

import dataclasses

from repro.arch import calibration as cal
from repro.arch.clock import Clock
from repro.arch.device import Device, StepComponent
from repro.arch.profilecounts import KernelMetrics
from repro.md.simulation import MDConfig
from repro.mta.kernels import (
    MTA_ISSUE_SLOTS,
    build_mta_integration_program,
    build_mta_pair_program,
)
from repro.mta.streams import StreamModel
from repro.obs.observe import Observation
from repro.vm.isa import OPS
from repro.vm.program import Program
from repro.vm.schedule import count_issues

__all__ = ["XMTNetwork", "XMTDevice", "memory_reference_count"]

#: Issue-slot table that counts only memory references.
_MEMORY_SLOTS: dict[str, float] = {name: 0.0 for name in OPS}
_MEMORY_SLOTS.update({"lqd": 1.0, "stqd": 1.0, "texfetch": 1.0})


def memory_reference_count(program: Program, metrics: dict[str, float]) -> float:
    """Loads + stores the program issues over the given workload."""
    return count_issues(program, metrics, issue_slots=_MEMORY_SLOTS)


@dataclasses.dataclass(frozen=True)
class XMTNetwork:
    """Aggregate memory throughput of the XMT's 3D torus.

    Per-processor injection caps small systems; the bisection term
    (~ P^(2/3) links across the machine's midplane) caps large ones.
    Coefficients are chosen so the crossover sits near 64 processors —
    consistent with the XMT's published words-per-cycle budgets and,
    more importantly, producing the qualitative regime change the paper
    warns about.
    """

    injection_words_per_cycle: float = 0.5
    bisection_coefficient: float = 2.0

    def __post_init__(self) -> None:
        if self.injection_words_per_cycle <= 0:
            raise ValueError("injection rate must be positive")
        if self.bisection_coefficient <= 0:
            raise ValueError("bisection coefficient must be positive")

    def aggregate_words_per_cycle(self, n_processors: int) -> float:
        """Sustained remote-memory words per cycle, machine-wide."""
        if n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        injection_bound = self.injection_words_per_cycle * n_processors
        bisection_bound = self.bisection_coefficient * n_processors ** (2.0 / 3.0)
        return min(injection_bound, bisection_bound)

    def crossover_processors(self) -> float:
        """Processor count where the bisection starts binding."""
        return (
            self.bisection_coefficient / self.injection_words_per_cycle
        ) ** 3.0


class XMTDevice(Device):
    """An XMT partition running the fully-multithreaded MD kernel.

    ``uniform_memory=True`` disables the network roofline, recovering an
    MTA-2-like flat machine at XMT clocks — the comparison point that
    isolates what the paper's locality warning costs.
    """

    precision = "float64"

    def __init__(
        self,
        n_processors: int = 1,
        network: XMTNetwork | None = None,
        uniform_memory: bool = False,
        clock_hz: float = cal.XMT_CLOCK_HZ,
    ) -> None:
        if n_processors < 1 or n_processors > cal.XMT_MAX_PROCESSORS:
            raise ValueError(
                f"n_processors must be in [1, {cal.XMT_MAX_PROCESSORS}]"
            )
        self.n_processors = n_processors
        self.network = network or XMTNetwork()
        self.uniform_memory = uniform_memory
        memory_tag = "uniform" if uniform_memory else "torus"
        self.name = f"xmt-{n_processors}p-{memory_tag}"
        self.clock = Clock(clock_hz, "xmt")
        self.streams = StreamModel(n_processors=n_processors, clock=self.clock)

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        return {"reflect_take": cal.REFLECT_TAKE}

    def build_program(self, box_length: float):
        return build_mta_pair_program(box_length)

    def memory_seconds(self, mem_refs: float) -> float:
        """Time for the network to deliver ``mem_refs`` remote words."""
        if mem_refs < 0:
            raise ValueError("mem_refs must be non-negative")
        rate = self.network.aggregate_words_per_cycle(self.n_processors)
        return self.clock.seconds(mem_refs / rate)

    def projected_step_seconds(
        self,
        n_atoms: int,
        interacting_fraction: float,
        box_length: float,
    ) -> dict[str, float]:
        """Analytic projection for workloads too large to run functionally.

        The per-pair instruction stream is exact (it comes from the
        scheduled kernel program); only the interacting fraction must be
        supplied, measured at a feasible size — it is intensive
        (density-determined), so reusing it at larger N is sound.  This
        is how the paper-style "up to 8000 processors" projections are
        produced without 10^10-pair functional runs.
        """
        metrics = KernelMetrics(
            n_atoms=n_atoms,
            pairs_examined=float(n_atoms) * (n_atoms - 1),
            interacting_fraction=interacting_fraction,
            branch_probabilities={"reflect_take": cal.REFLECT_TAKE},
        )
        self.set_box(box_length)
        return self.step_seconds(metrics, step_index=0)

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        program = self.program()
        metric_map = metrics.as_dict()
        issues = count_issues(program, metric_map, issue_slots=MTA_ISSUE_SLOTS)
        compute = self.streams.parallel_seconds(
            issues, concurrent_threads=float(metrics.n_atoms)
        )
        if self.uniform_memory:
            network_wait = 0.0
        else:
            memory = self.memory_seconds(
                memory_reference_count(program, metric_map)
            )
            # roofline: the force phase takes max(compute, memory);
            # report the exposed network share separately
            network_wait = max(0.0, memory - compute)
        integ_issues = count_issues(
            build_mta_integration_program(),
            metric_map,
            issue_slots=MTA_ISSUE_SLOTS,
        )
        integ_seconds = self.streams.parallel_seconds(
            integ_issues, concurrent_threads=float(metrics.n_atoms)
        )
        return {
            "force_loop": compute,
            "network_wait": network_wait,
            "integration": integ_seconds,
        }

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        metric_map = metrics.as_dict()
        issues = count_issues(
            self.program(),
            metric_map,
            issue_slots=MTA_ISSUE_SLOTS,
        )
        integ_issues = count_issues(
            build_mta_integration_program(),
            metric_map,
            issue_slots=MTA_ISSUE_SLOTS,
        )
        obs.charge_many({
            "mta.issues.parallel": issues + integ_issues,
            "mta.issues.total": issues + integ_issues,
            "mta.streams.concurrent": metrics.n_atoms,
            "mta.streams.slots": self.streams.n_streams * self.n_processors,
        })
        obs.sample(
            "mta.stream.utilization",
            {"utilization": self.streams.utilization(float(metrics.n_atoms))},
        )

    def timeline(self, parts):
        # One aggregate "streams" lane (the XMT scales to thousands of
        # processors — per-processor lanes would be unreadable) plus a
        # "network" lane for the exposed torus wait.
        return (
            StepComponent("force_loop", ("streams",)),
            StepComponent("network_wait", ("network",)),
            StepComponent("integration", ("streams",)),
        )
