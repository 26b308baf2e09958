"""The Cray MTA-2 device model (paper section 5.3).

The MTA runs the whole kernel itself (nothing is offloaded), in double
precision.  The compiler model decides per-loop parallelism from the
loop IR; the timing model charges each kernel phase at the saturated
issue rate (parallel loops) or the single-stream rate (loops the
compiler refused).  The memory system is uniform-latency by design —
"there is no penalty for accessing atoms ... in an irregular fashion" —
so, unlike the Opteron model, there is no cache term at all: runtime
grows exactly with the instruction count.  That contrast is Figure 9.
"""

from __future__ import annotations

import dataclasses

from repro.arch import calibration as cal
from repro.arch.clock import Clock
from repro.arch.device import Device, StepComponent
from repro.arch.profilecounts import KernelMetrics
from repro.md.simulation import MDConfig
from repro.mta.compiler import CompilationReport, compile_nest
from repro.mta.fullempty import SynchronizedReduction
from repro.mta.kernels import (
    MTA_ISSUE_SLOTS,
    build_mta_integration_program,
    build_mta_pair_program,
    md_kernel_ir,
)
from repro.mta.streams import StreamModel
from repro.obs.observe import Observation
from repro.tune.context import tuned_value
from repro.vm.schedule import count_issues

__all__ = ["MTADevice"]


class MTADevice(Device):
    """One or more MTA-2 (or XMT-projected) multithreaded processors."""

    precision = "float64"
    tune_family = "mta"

    def __init__(
        self,
        fully_multithreaded: bool = True,
        n_processors: int = 1,
        clock_hz: float = cal.MTA_CLOCK_HZ,
        reflect_take: float = cal.REFLECT_TAKE,
        n_streams: int | None = None,
    ) -> None:
        mode = "fully" if fully_multithreaded else "partially"
        self.name = f"mta2-{mode}-multithreaded-{n_processors}p"
        self.fully_multithreaded = fully_multithreaded
        self.reflect_take = reflect_take
        #: explicit constructor choice; None defers to the tuned config
        #: (resolved per run in :meth:`prepare`), falling back to the
        #: calibrated count
        self._explicit_streams = n_streams
        self.streams = StreamModel(
            n_processors=n_processors,
            n_streams=cal.MTA_N_STREAMS if n_streams is None else n_streams,
            clock=Clock(clock_hz, "mta"),
        )
        self.compilation: CompilationReport = compile_nest(
            *md_kernel_ir(fully_multithreaded)
        )

    def prepare(self, config: MDConfig) -> None:
        super().prepare(config)
        n_streams = self._explicit_streams
        if n_streams is None:
            tuned = tuned_value("mta.streams", self.tune_family)
            n_streams = int(tuned) if tuned is not None else cal.MTA_N_STREAMS
        self.streams = dataclasses.replace(self.streams, n_streams=n_streams)

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        return {"reflect_take": self.reflect_take}

    def build_program(self, box_length: float):
        return build_mta_pair_program(box_length)

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        pair_issues = count_issues(
            self.program(), metrics.as_dict(), issue_slots=MTA_ISSUE_SLOTS
        )
        integ_issues = count_issues(
            build_mta_integration_program(),
            metrics.as_dict(),
            issue_slots=MTA_ISSUE_SLOTS,
        )
        force_loop = self.compilation.loop("step2_forces")
        if force_loop.parallel:
            force_seconds = self.streams.parallel_seconds(
                pair_issues, concurrent_threads=float(metrics.n_atoms)
            )
            # the per-iteration PE partials combine through one
            # full/empty-synchronized word: a serialized update chain
            reduction = SynchronizedReduction()
            reduction_seconds = self.streams.serial_seconds(
                reduction.critical_path_issues(metrics.n_atoms)
            )
        else:
            # the serial loop already folds PE inline; no extra chain
            force_seconds = self.streams.serial_seconds(pair_issues)
            reduction_seconds = 0.0
        # Steps 1/3/4/5 auto-parallelize in both source variants.
        integ_seconds = self.streams.parallel_seconds(
            integ_issues, concurrent_threads=float(metrics.n_atoms)
        )
        session = self.fault_session
        if session is not None:
            # A stalled stream's block re-issues at the serial rate.
            per_thread = pair_issues / max(1.0, float(metrics.n_atoms))
            session.charge(session.transient(
                "mta.stream.stall",
                lambda decision: self.streams.stall_recovery_seconds(per_thread),
                detection="stream-heartbeat",
                action="stalled stream's block re-issued",
            ))
            # Starvation: the force region runs below saturation until
            # the runtime tops the ready pool back up.
            session.charge(session.transient(
                "mta.stream.starve",
                lambda decision: self.streams.starvation_seconds(
                    force_seconds,
                    float(decision.payload.get("severity", 0.25)),
                ),
                detection="utilization-counter",
                action="runtime re-saturated the stream pool",
            ))
        return {
            "force_loop": force_seconds,
            "pe_reduction": reduction_seconds,
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
        pair_issues = count_issues(
            self.program(),
            metric_map,
            issue_slots=MTA_ISSUE_SLOTS,
        )
        integ_issues = count_issues(
            build_mta_integration_program(),
            metric_map,
            issue_slots=MTA_ISSUE_SLOTS,
        )
        if self.compilation.loop("step2_forces").parallel:
            parallel = pair_issues + integ_issues
            serial = SynchronizedReduction().critical_path_issues(
                metrics.n_atoms
            )
            obs.charge("mta.fullempty.updates", metrics.n_atoms)
        else:
            parallel = integ_issues
            serial = pair_issues
        obs.charge_many({
            "mta.issues.parallel": parallel,
            "mta.issues.serial": serial,
            "mta.issues.total": parallel + serial,
            "mta.streams.concurrent": metrics.n_atoms,
            "mta.streams.slots": self.streams.n_streams
            * self.streams.n_processors,
        })
        obs.sample(
            "mta.stream.utilization",
            {"utilization": self.streams.utilization(float(metrics.n_atoms))},
        )

    def timeline(self, parts):
        # Every processor works the force loop and the integration; the
        # full/empty PE combination serializes between them on its own
        # "sync" lane.
        procs = tuple(f"proc{proc}" for proc in range(self.streams.n_processors))
        return (
            StepComponent("force_loop", procs),
            StepComponent("pe_reduction", ("sync",)),
            StepComponent("integration", procs),
            StepComponent("fault_recovery", ("sync",)),
        )
