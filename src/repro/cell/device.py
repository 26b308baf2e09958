"""The Cell Broadband Engine device model (paper section 5.1).

Orchestration mirrors the paper's Asynchronous Thread Runtime usage: the
PPE integrates and bookkeeps; the acceleration computation (step 2) is
offloaded to 1-8 SPEs, each owning a block of atom rows and scanning all
N positions from its local store; positions stream in and accelerations
stream out over DMA each step; threads are either respawned per step or
launched once and mailbox-signalled.

Two functional modes:

* ``fast`` (default) — physics via the float32 NumPy kernel (identical
  arithmetic to the VM kernels), timing from statically scheduled VM
  instruction streams scaled by measured pair counts.  This is the mode
  benchmarks use.
* ``vm`` — physics actually executed instruction-by-instruction on the
  batched VM through the selected Figure-5 kernel variant.  Slower;
  used by the validation tests to certify that every kernel level
  computes the reference forces.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.arch import calibration as cal
from repro.arch.device import Device, StepComponent
from repro.arch.profilecounts import KernelMetrics
from repro.cell.dma import MDTrafficPlan, make_dma_engine
from repro.cell.kernels import OPT_LEVELS, build_spe_kernel, kernel_constants
from repro.cell.partition import RowPartition
from repro.cell.ppe import PPE
from repro.cell.scheduler import LaunchStrategy, SpeThreadScheduler
from repro.cell.spe import SPE, SPE_COST_TABLE
from repro.md.box import PeriodicBox
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones
from repro.md.simulation import MDConfig
from repro.obs.observe import Observation
from repro.vm.schedule import issue_stats
from repro.vm.sweep import PairSweep

__all__ = ["CellDevice", "PPEOnlyDevice"]

#: System size used to measure geometry-dependent branch probabilities.
_CALIBRATION_ATOMS = 128


@functools.lru_cache(maxsize=32)
def _measure_reflect_probability(density: float, rcut: float) -> float:
    """Measured P(taken) of the reflection search's if, via the VM.

    The probability that a candidate image beats the incumbent depends
    only on the reduced geometry (density/cutoff fix the box shape in
    units of L), so one small-system VM run calibrates every system
    size.  Uses the *original* kernel, whose search carries the branch.
    """
    config = MDConfig(n_atoms=_CALIBRATION_ATOMS, density=density, rcut=min(
        rcut, 0.45 * PeriodicBox.from_density(_CALIBRATION_ATOMS, density).length
    ))
    box = config.make_box()
    potential = config.make_potential()
    positions = cubic_lattice(config.n_atoms, box)
    program = build_spe_kernel("original", box.length)
    sweep = PairSweep(program)
    sweep.run(
        positions,
        kernel_constants(potential),
        rows=np.arange(min(16, config.n_atoms)),
    )
    return sweep.machine.measured_probability("reflect_take")


class CellDevice(Device):
    """1-8 SPEs + PPE host, at a chosen Figure-5 optimization level."""

    precision = "float32"
    tune_family = "cell"

    def __init__(
        self,
        n_spes: int = cal.CELL_N_SPES,
        opt_level: str = "simd_acceleration",
        strategy: LaunchStrategy = LaunchStrategy.LAUNCH_ONCE,
        mode: str = "fast",
        force_path: str = "all-pairs",
        partition: RowPartition | str | None = None,
    ) -> None:
        if not 1 <= n_spes <= cal.CELL_N_SPES:
            raise ValueError(
                f"n_spes must be in [1, {cal.CELL_N_SPES}], got {n_spes}"
            )
        if opt_level not in OPT_LEVELS:
            raise ValueError(f"unknown optimization level {opt_level!r}")
        if mode not in ("fast", "vm"):
            raise ValueError(f"mode must be 'fast' or 'vm', got {mode!r}")
        if isinstance(partition, str):
            partition = RowPartition(partition)
        #: explicit constructor choice; None defers to the tuned config
        #: (resolved per run in :meth:`prepare`), falling back to BLOCK
        self._explicit_partition = partition
        self.partition = partition or RowPartition.BLOCK
        self.n_spes = n_spes
        self.opt_level = opt_level
        self.strategy = strategy
        self.mode = mode
        self.force_path = force_path
        self.name = f"cell-{n_spes}spe-{opt_level}"
        self.ppe = PPE()
        self.spes = [SPE(index=i) for i in range(n_spes)]
        self.scheduler = SpeThreadScheduler(n_spes=n_spes, strategy=strategy)
        self.dma = make_dma_engine()
        self.active_spes = n_spes
        #: VM work accumulated since the last observed step: segment
        #: executions and per-branch (taken_mass, samples) deltas
        self._vm_window: dict[str, object] = {"segments": 0, "branches": {}}

    # -- functional side ---------------------------------------------------

    def vm_force_backend(self, sim_box: PeriodicBox, potential: LennardJones):
        return self.vm_backend(
            sim_box,
            self.program(sim_box.length),
            kernel_constants(potential),
            self._vm_interacting_pairs,
        )

    def _vm_interacting_pairs(self, positions, machine, before) -> int:
        """Interacting pairs from the sweep's measured interacting fraction.

        The fraction averages all n lanes of each row, self lanes
        included, and is scaled by n(n-1)/2: (n-1)/n of the true count.
        """
        n = positions.shape[0]
        total0, count0 = before.get("interacting_fraction", (0.0, 0))
        total1, count1 = machine.branch_snapshot("interacting_fraction")
        new_samples = count1 - count0
        fraction = (total1 - total0) / new_samples if new_samples else 0.0
        if self.observation is not None:
            self._record_vm_window(machine, before)
        return int(round(fraction * n * (n - 1) / 2.0))

    def _record_vm_window(
        self, machine, before: dict[str, tuple[float, int]]
    ) -> None:
        """Fold one VM force evaluation's branch deltas into the window."""
        window = self._vm_window
        window["segments"] = int(window["segments"]) + 1
        branches: dict[str, tuple[float, int]] = window["branches"]
        for key, stat in machine.branch_stats.items():
            total0, count0 = before.get(key, (0.0, 0))
            total1, count1 = stat.snapshot()
            prev_t, prev_c = branches.get(key, (0.0, 0))
            branches[key] = (
                prev_t + (total1 - total0), prev_c + (count1 - count0)
            )

    # -- timing side ---------------------------------------------------------

    def prepare(self, config: MDConfig) -> None:
        super().prepare(config)
        self.active_spes = self.n_spes  # crashed SPEs stay dead per run
        self._vm_window = {"segments": 0, "branches": {}}
        if self._explicit_partition is not None:
            self.partition = self._explicit_partition
        else:
            from repro.tune.context import tuned_value

            tuned = tuned_value("cell.partition", self.tune_family)
            self.partition = (
                RowPartition(tuned) if tuned is not None else RowPartition.BLOCK
            )

    def _traffic(self, n_atoms: int) -> MDTrafficPlan:
        """This run's per-SPE DMA plan under the active row partition."""
        return MDTrafficPlan(
            n_atoms=n_atoms,
            n_spes=self.active_spes,
            scatter_out=self.partition is RowPartition.CYCLIC,
        )

    def workers(self) -> int:
        return self.active_spes

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        return {
            "reflect_take": _measure_reflect_probability(
                config.density, config.rcut
            )
        }

    def build_program(self, box_length: float):
        return build_spe_kernel(self.opt_level, box_length)

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        program = self.program()
        traffic = self._traffic(metrics.n_atoms)
        layout = traffic.layout(self.spes[0].local_store)
        kernel_seconds = self.spes[0].kernel_seconds(program, metrics.as_dict())
        session = self.fault_session
        if session is not None:
            self._step_faults(session, traffic, layout, kernel_seconds, step_index)
        return {
            "spe_kernel": kernel_seconds,
            "dma": traffic.exposed_dma_seconds(self.dma, layout, kernel_seconds),
            "thread_launch": self.scheduler.launch_seconds(step_index),
            "mailbox": self.scheduler.signal_seconds(
                step_index, n_spes=self.active_spes
            ),
            "ppe_host": self.ppe.integration_seconds(metrics.n_atoms),
        }

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        active = self.active_spes
        traffic = self._traffic(metrics.n_atoms)
        layout = traffic.layout(self.spes[0].local_store)
        obs.charge_many({
            "cell.dma.bytes_in": active * traffic.bytes_in,
            "cell.dma.bytes_out": active * traffic.bytes_out,
            "cell.dma.bytes": active * (traffic.bytes_in + traffic.bytes_out),
            "cell.dma.transactions": active * traffic.transactions_per_spe(layout),
        })
        if (
            self.strategy is LaunchStrategy.RESPAWN_PER_STEP
            or step_index == 0
        ):
            obs.charge("cell.spe.launches", self.scheduler.n_spes)
        if self.strategy is LaunchStrategy.LAUNCH_ONCE and step_index > 0:
            obs.charge("cell.mailbox.words", 2 * active)
            obs.charge("cell.mailbox.round_trips", active)
        obs.charge("cell.spe.active", active)
        obs.charge("cell.spe.slots", self.n_spes)
        stats = issue_stats(self.program(), SPE_COST_TABLE, metrics.as_dict())
        obs.charge_many({
            "cell.spe.instructions": stats.instructions * active,
            "cell.spe.cycles": stats.cycles * active,
            "cell.spe.dual_issue_cycles": stats.dual_issue_cycles * active,
            "cell.spe.branch_evals": stats.branch_evals * active,
            "cell.spe.branch_taken": stats.branch_taken * active,
            "cell.spe.branch_flush_cycles": stats.branch_flush_cycles * active,
        })
        if self.mode == "vm":
            window = self._vm_window
            segments = int(window["segments"])
            if segments:
                obs.charge("vm.segments", segments)
            for key, (taken_mass, samples) in window["branches"].items():
                if samples:
                    obs.charge(f"vm.branch.{key}.samples", samples)
                    obs.charge(f"vm.branch.{key}.taken_mass", taken_mass)
            self._vm_window = {"segments": 0, "branches": {}}

    def timeline(self, parts):
        # Launch on the PPE, then all SPEs gather and compute
        # concurrently, then the PPE drains mailboxes and integrates.
        spes = tuple(f"spe{spe}" for spe in range(self.active_spes))
        return (
            StepComponent("thread_launch", ("ppe",)),
            StepComponent("dma", spes),
            StepComponent("spe_kernel", spes, span="spe_exec"),
            StepComponent("mailbox", ("ppe",), span="mailbox_wait"),
            StepComponent("ppe_host", ("ppe",)),
            StepComponent("fault_recovery", ("ppe",)),
        )

    def _step_faults(
        self, session, traffic, layout, kernel_seconds: float, step_index: int
    ) -> None:
        """Draw this step's Cell fault sites and charge their recovery.

        All recovery seconds accumulate on the session and surface in
        the step's ``fault_recovery`` component; the functional physics
        is untouched because retries re-read pristine main-memory data.
        """
        retry_cost = traffic.retry_transfer_seconds(self.dma, layout)
        session.charge(session.faulty_transfer(
            "cell.dma.fail", retry_cost, detection="dma-completion-status"
        ))
        session.charge(session.faulty_transfer(
            "cell.dma.corrupt", retry_cost, detection="payload-checksum"
        ))
        if self.strategy is LaunchStrategy.LAUNCH_ONCE and step_index > 0:
            mailbox = self.scheduler.mailbox
            session.charge(session.faulty_transfer(
                "cell.mailbox.drop",
                mailbox.resend_seconds,
                detection="ack-timeout",
                on_fault=lambda decision: mailbox.drop(),
            ))
        session.charge(session.transient(
            "cell.spe.hang",
            lambda decision: kernel_seconds + 2 * self.scheduler.mailbox.transfer_s,
            detection="completion-timeout",
            action="SPE re-signalled and its block recomputed",
        ))
        crash = session.fire("cell.spe.crash")
        if crash is not None:
            self._crash_spe(session, crash, kernel_seconds)

    def _crash_spe(self, session, decision, kernel_seconds: float) -> None:
        """Kill one SPE and re-partition its rows onto the survivors."""
        from repro.faults.session import UnrecoveredFaultError

        victim = int(decision.rng.integers(self.active_spes))
        session.log.append(
            session.step, "cell.spe.crash", "injected",
            {"occurrence": decision.occurrence, "spe": victim},
        )
        session.log.append(
            session.step, "cell.spe.crash", "detected",
            {"detection": "heartbeat-timeout"},
        )
        survivors = self.active_spes - 1
        if survivors < 1:
            session.log.append(
                session.step, "cell.spe.crash", "aborted",
                {"faults": 1, "reason": "no surviving SPEs"},
            )
            raise UnrecoveredFaultError(
                f"last SPE crashed at step {session.step}; "
                "no survivors to re-partition onto",
                session.log,
            )
        # The dead SPE's block is redone by the survivors (one extra
        # kernel quantum) after the PPE redistributes row ownership.
        extra = self.scheduler.repartition_seconds(survivors) + kernel_seconds
        self.active_spes = survivors
        session.log.append(
            session.step, "cell.spe.crash", "recovered",
            {"faults": 1,
             "action": f"rows re-partitioned onto {survivors} surviving SPEs"},
            sim_seconds=extra,
        )
        session.charge(extra)


class PPEOnlyDevice(Device):
    """Table 1's "Cell, PPE only" row: the original kernel on the PPE."""

    precision = "float32"
    name = "cell-ppe-only"
    tune_family = "cell"

    def __init__(self, force_path: str = "all-pairs") -> None:
        self.ppe = PPE()
        self.force_path = force_path

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        return {
            "reflect_take": _measure_reflect_probability(
                config.density, config.rcut
            )
        }

    def build_program(self, box_length: float):
        return build_spe_kernel("original", box_length)

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        return {
            "ppe_kernel": self.ppe.kernel_seconds(self.program(), metrics.as_dict()),
            "ppe_host": self.ppe.integration_seconds(metrics.n_atoms),
        }

    def timeline(self, parts):
        # Everything happens on the one PPE.
        return [StepComponent(name, ("ppe",)) for name in parts]
