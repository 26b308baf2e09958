"""The Device contract: functional physics + simulated timing, together.

A device model must *actually run* the MD physics (through its force
backend, in its native precision) and, for every step, report simulated
wall-clock components derived from its cost model and the measured
kernel metrics of that step.  :meth:`Device.run` is the template method
tying the two halves to the MD driver.  Everything the models share
lives here — the run's box, the per-box program and vm-sweep cache, the
NumPy-level and instruction-level force paths, and the timeline layout —
so a model defines only its pricing (:meth:`Device.step_seconds`), its
counters, its fault sites and the order of its step components.

Devices that share a precision and a force path integrate the same
trajectory, so the physics of a plain fast-mode run is computed once
per distinct (config, force path, steps) by the process-wide memo
:func:`_trajectory` and then priced per device.
Fault sessions, vm-mode devices and models that override
:meth:`Device.force_backend` keep running live.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.arch.profilecounts import KernelMetrics, pair_trip_metrics
from repro.faults.checkpoint import CheckpointManager, RestoreBudgetExceeded
from repro.faults.detect import EnergyDriftWatchdog
from repro.faults.plan import FaultPlan
from repro.faults.session import FaultSession, UnrecoveredFaultError
from repro.md.forces import ForceResult
from repro.md.simulation import MDConfig, MDSimulation, StepRecord
from repro.obs.context import ambient_observation
from repro.obs.observe import Observation

__all__ = ["Device", "DeviceRunResult", "StepComponent", "merge_breakdowns"]


@functools.lru_cache(maxsize=32)
def _trajectory(
    config: MDConfig, force_path: str, n_steps: int
) -> tuple[tuple[StepRecord, ...], np.ndarray, np.ndarray]:
    """Integrate ``n_steps`` of ``config`` through the named force path.

    ``config`` carries the device's dtype, and the force path runs with
    its factory defaults, so every input that can change the physics is
    in the key.  Returns the step records and the final positions and
    velocities, both read-only: the memo shares them with every later
    caller.
    """
    from repro.md.forcefield import make_force_backend

    backend = make_force_backend(
        force_path,
        config.make_box(),
        config.make_potential(),
        dtype=config.np_dtype,
    )
    sim = MDSimulation(config, force_backend=backend)
    sim.run(n_steps)
    positions = np.array(sim.state.positions, copy=True)
    velocities = np.array(sim.state.velocities, copy=True)
    positions.flags.writeable = False
    velocities.flags.writeable = False
    return tuple(sim.records), positions, velocities


def merge_breakdowns(*breakdowns: dict[str, float]) -> dict[str, float]:
    """Sum per-component second tallies."""
    merged: dict[str, float] = {}
    for breakdown in breakdowns:
        for key, value in breakdown.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


@dataclasses.dataclass(frozen=True)
class StepComponent:
    """Where one step-breakdown component sits on a device's timeline."""

    #: the component's key in the ``step_seconds`` breakdown
    part: str
    #: lanes the component's span occupies (one per concurrent unit)
    lanes: tuple[str, ...]
    #: span name; defaults to ``part``
    span: str | None = None
    #: span args beyond ``step``
    args: Mapping[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class DeviceRunResult:
    """Outcome of simulating ``n_steps`` MD steps on a device model."""

    device: str
    config: MDConfig
    n_steps: int
    setup_seconds: float
    step_seconds: tuple[float, ...]
    step_breakdowns: tuple[dict[str, float], ...]
    breakdown: dict[str, float]
    records: tuple[StepRecord, ...]
    final_positions: np.ndarray
    final_velocities: np.ndarray
    #: structured fault audit trail (event dicts) when the run executed
    #: under a fault plan; empty tuple otherwise
    fault_events: tuple[dict[str, Any], ...] = ()
    #: accounting tallies from the fault session (injected/recovered/...)
    fault_summary: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: hardware counters accumulated by this run when observed (the
    #: delta against whatever the Observation held beforehand); empty
    #: dict when the run was unobserved
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Simulated run time excluding one-time setup (the paper's
        Figure-7 convention: startup "is not included in these results")."""
        return float(sum(self.step_seconds))

    @property
    def total_seconds_with_setup(self) -> float:
        return self.setup_seconds + self.total_seconds

    @property
    def seconds_per_step(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return self.total_seconds / self.n_steps

    def component(self, name: str) -> float:
        return self.breakdown.get(name, 0.0)


class Device(abc.ABC):
    """Base class for the device models of the four architectures."""

    #: human-readable device name
    name: str = "device"
    #: native arithmetic precision ("float32" on Cell/GPU, "float64"
    #: on Opteron/MTA-2 — section 3.5 of the paper)
    precision: str = "float64"
    #: functional force path, a :mod:`repro.md.forcefield` registry name.
    #: "all-pairs" reproduces the paper's deliberate O(N^2) formulation;
    #: "cell" swaps in the linked-cell engine so large-N sweeps stay
    #: feasible (the *simulated* cost model is unchanged — it prices the
    #: paper's kernel from the step's measured metrics either way).
    force_path: str = "all-pairs"
    #: scope under which this device reads tuned knob values — a tuned
    #: config key ``"<tune_family>/<knob>"`` applies only to devices of
    #: that family (see :mod:`repro.tune.context`)
    tune_family: str = "host"
    #: "fast" runs the NumPy-level :meth:`functional_backend`; "vm" runs
    #: the model's instruction-level :meth:`vm_force_backend`
    mode: str = "fast"

    def force_backend(self, sim_box, potential):
        """Return the functional force callable for this device.

        The callable maps positions -> :class:`ForceResult` and must
        perform arithmetic in the device's native precision.  In
        ``"fast"`` mode this is :meth:`functional_backend`; in ``"vm"``
        mode it is the model's :meth:`vm_force_backend`.
        """
        if self.mode == "fast":
            return self.functional_backend(sim_box, potential)
        return self.vm_force_backend(sim_box, potential)

    def vm_force_backend(self, sim_box, potential):
        """The model's instruction-level force path, built on
        :meth:`vm_backend`; only models with a ``"vm"`` mode define it."""
        raise NotImplementedError(f"{type(self).__name__} has no vm mode")

    def functional_backend(self, sim_box, potential):
        """Resolve :attr:`force_path` through the backend registry.

        Every device's NumPy-level ("fast") force path is this, so every
        device honors a ``force_path`` override; instruction-level VM
        paths ignore it by design.  The factory defaults always apply:
        no tuned knob reaches the physics.
        """
        from repro.md.forcefield import make_force_backend

        return make_force_backend(
            self.force_path, sim_box, potential, dtype=np.dtype(self.precision)
        )

    def vm_backend(
        self,
        sim_box,
        program,
        constants: Mapping[str, float],
        interacting_pairs: Callable[[np.ndarray, Any, dict], int],
    ):
        """The instruction-level force path: ``program`` run on the VM.

        The :class:`~repro.vm.sweep.PairSweep` is cached per box on this
        instance, so its machine carries state across runs: any fault
        session left armed by an earlier run is disarmed, and this run's
        session (if any) adopts the machine and flips bits in its real
        output registers instead of post hoc.  ``interacting_pairs(
        positions, machine, before)`` is the model's own tally for one
        evaluation; ``before`` holds the machine's branch snapshots taken
        just before the sweep ran.
        """
        from repro.vm.sweep import PairSweep

        sweep = self._per_box(sim_box.length, "sweep", lambda: PairSweep(program))
        machine = sweep.machine
        machine.install_fault_session(None)
        if self.fault_session is not None:
            self.fault_session.adopt_machine(machine)

        def backend(positions: np.ndarray) -> ForceResult:
            n = positions.shape[0]
            before = {
                key: stat.snapshot() for key, stat in machine.branch_stats.items()
            }
            acc, pe_rows = sweep.run(positions, constants)
            return ForceResult(
                accelerations=acc.astype(np.float64),
                potential_energy=0.5 * float(pe_rows.sum(dtype=np.float64)),
                interacting_pairs=interacting_pairs(positions, machine, before),
                pairs_examined=n * (n - 1) // 2,
            )

        return backend

    @abc.abstractmethod
    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        """Simulated seconds for one MD step, broken down by component."""

    def setup_breakdown(self) -> dict[str, float]:
        """One-time setup costs (JIT compile, first thread launch, ...)."""
        return {}

    def prepare(self, config: MDConfig) -> None:
        """Per-run setup, called once before stepping: records the box.

        Models extend this to reset per-run state and to read their
        tuned knobs, so a knob applies to the runs inside its
        :func:`~repro.tune.context.applied` block whenever the device
        was built.
        """
        self.set_box(config.make_box().length)

    def set_box(self, box_length: float) -> None:
        """Price the following steps for a cubic box of side ``box_length``."""
        self._box_length = box_length

    def build_program(self, box_length: float) -> Any:
        """The model's kernel program for a box of side ``box_length``."""
        raise NotImplementedError(f"{type(self).__name__} prices no kernel program")

    def program(self, box_length: float | None = None) -> Any:
        """:meth:`build_program` for ``box_length`` (default: the run's
        box), built once per box on this instance."""
        if box_length is None:
            box_length = self._box_length
        return self._per_box(
            box_length, "program", lambda: self.build_program(box_length)
        )

    def _per_box(self, box_length: float, kind: str, build: Callable[[], Any]) -> Any:
        """``build()`` once per box and kind, cached on this instance.

        Keyed by ``round(box_length, 12)``.  Never process-wide: vm
        sweeps carry :class:`~repro.vm.machine.BranchStat` accumulators
        and fault-session hooks, so every consumer differences
        ``branch_snapshot`` windows instead of reading lifetime totals.
        A sixth box clears the cache.
        """
        cache = self.__dict__.setdefault("_box_cache", {})
        key = round(box_length, 12)
        entry = cache.get(key)
        if entry is None:
            if len(cache) > 4:
                cache.clear()
            entry = cache[key] = {}
        if kind not in entry:
            entry[kind] = build()
        return entry[kind]

    def workers(self) -> int:
        """How many workers split the ordered pair scan (SPE count, ...)."""
        return 1

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        """Measured data-dependent branch probabilities for this workload.

        Devices whose kernels contain IfBlocks override this with values
        measured by the VM on a calibration system; the base returns {}.
        """
        return {}

    @property
    def observation(self) -> Observation | None:
        """The active :class:`Observation` during :meth:`run`, else ``None``.

        Device hooks may consult this mid-run; counters are charged
        through :meth:`observe_step` and spans laid out from
        :meth:`timeline`, once per completed step.
        """
        return getattr(self, "_observation", None)

    @property
    def fault_session(self) -> FaultSession | None:
        """The active fault session during :meth:`run`, else ``None``.

        Device hooks (DMA transfers, mailbox signals, cost-model step
        pricing) consult this to draw and recover injected faults; with
        no session — or a zero-rate plan — every hook is a no-op.
        """
        return getattr(self, "_fault_session", None)

    def run(
        self,
        config: MDConfig,
        n_steps: int,
        faults: FaultPlan | None = None,
        observe: "Observation | bool | None" = None,
    ) -> DeviceRunResult:
        """Run ``n_steps`` of MD functionally and accumulate simulated time.

        With a :class:`FaultPlan`, the run executes under a fault
        session: device hooks inject/recover transfer faults, the force
        path runs behind the numeric guard, and an energy-drift watchdog
        backs the simulation up to the last good checkpoint when silent
        corruption slips through.  All recovery is charged in simulated
        seconds (the ``fault_recovery`` breakdown component).  A
        zero-rate plan is bit-identical to ``faults=None``.

        ``observe`` controls hardware-counter and timeline collection:
        an explicit :class:`~repro.obs.observe.Observation` records into
        that object, ``None`` (the default) records into the ambient
        :func:`~repro.obs.context.collect` session if one is active (and
        is otherwise completely off), and ``False`` forces observation
        off.  Observation never changes timing or physics results.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        config = dataclasses.replace(config, dtype=self.precision)
        session = FaultSession(faults) if faults is not None else None
        if observe is None:
            obs = ambient_observation(self.name)
        elif observe is False:
            obs = None
        else:
            obs = observe
        self._fault_session = session
        self._observation = obs
        try:
            return self._run(config, n_steps, session)
        finally:
            self._fault_session = None
            self._observation = None

    def _run(
        self, config: MDConfig, n_steps: int, session: FaultSession | None
    ) -> DeviceRunResult:
        """The run's physics, then its pricing.

        A plain fast-mode run takes its physics from :func:`_trajectory`,
        computed once per distinct (config, force path, steps) in the
        process, and prices each step from its record's
        ``interacting_pairs``.  Three kinds of run step a live
        :class:`MDSimulation` instead: a fault session (the watchdog
        restores rewind the live simulation), ``mode="vm"`` (the
        instruction-level path is the model's own physics and feeds its
        counters) and a model that overrides :meth:`force_backend`.
        Both paths price a step identically.
        """
        self.prepare(config)
        if (
            session is None
            and self.mode == "fast"
            and type(self).force_backend is Device.force_backend
        ):
            return self._priced_run(config, n_steps)
        return self._live_run(config, n_steps, session)

    def _priced_run(self, config: MDConfig, n_steps: int) -> DeviceRunResult:
        records, positions, velocities = _trajectory(config, self.force_path, n_steps)
        branch_probs = self.branch_probabilities(config)
        obs = self.observation
        counter_baseline = obs.counters.as_dict() if obs is not None else {}
        breakdowns: list[dict[str, float]] = []
        for step_index, record in enumerate(records[1:]):
            metrics, parts = self._price_step(
                config, record.interacting_pairs, step_index, branch_probs
            )
            breakdowns.append(parts)
            if obs is not None:
                self._observe_step(obs, metrics, parts, step_index)
        return self._result(
            config, n_steps, breakdowns, records, positions, velocities,
            None, counter_baseline,
        )

    def _price_step(
        self,
        config: MDConfig,
        interacting_pairs: int,
        step_index: int,
        branch_probs: dict[str, float],
    ) -> tuple[KernelMetrics, dict[str, float]]:
        """One step's kernel metrics and its ``step_seconds`` breakdown."""
        metrics = pair_trip_metrics(
            n_atoms=config.n_atoms,
            interacting_pairs=interacting_pairs,
            workers=self.workers(),
            branch_probabilities=branch_probs,
        )
        return metrics, self.step_seconds(metrics, step_index)

    def _result(
        self,
        config: MDConfig,
        n_steps: int,
        breakdowns: list[dict[str, float]],
        records: Sequence[StepRecord],
        positions: np.ndarray,
        velocities: np.ndarray,
        session: FaultSession | None,
        counter_baseline: dict[str, float],
    ) -> DeviceRunResult:
        setup = self.setup_breakdown()
        obs = self.observation
        return DeviceRunResult(
            device=self.name,
            config=config,
            n_steps=n_steps,
            setup_seconds=sum(setup.values()),
            step_seconds=tuple(sum(parts.values()) for parts in breakdowns),
            step_breakdowns=tuple(breakdowns),
            breakdown=merge_breakdowns(*breakdowns),
            records=tuple(records),
            final_positions=np.array(positions, copy=True),
            final_velocities=np.array(velocities, copy=True),
            fault_events=tuple(session.log.to_dicts()) if session else (),
            fault_summary=session.summary() if session else {},
            counters=(
                obs.counters.delta(counter_baseline) if obs is not None else {}
            ),
        )

    def _live_run(
        self, config: MDConfig, n_steps: int, session: FaultSession | None
    ) -> DeviceRunResult:
        box = config.make_box()
        potential = config.make_potential()
        backend = self.force_backend(box, potential)
        if session is not None:
            session.enabled = False  # checkpoint 0 must be trustworthy
            backend = session.guard_backend(backend)
        sim = MDSimulation(config, force_backend=backend)
        watchdog: EnergyDriftWatchdog | None = None
        manager: CheckpointManager | None = None
        if session is not None:
            watchdog = EnergyDriftWatchdog(
                tolerance=session.plan.watchdog_tolerance,
                window=session.plan.watchdog_window,
            )
            watchdog.arm(sim.records[0].total_energy)
            manager = CheckpointManager(
                interval=session.plan.checkpoint_interval,
                max_restores=session.plan.max_restores,
            )
            manager.take(sim)
            session.enabled = True

        branch_probs = self.branch_probabilities(config)
        obs = self.observation
        counter_baseline = obs.counters.as_dict() if obs is not None else {}
        breakdowns: list[dict[str, float]] = []
        while sim.step_count < n_steps:
            step_index = len(breakdowns)
            if session is not None:
                session.begin_step(step_index + 1)
            record = sim.step()
            metrics, parts = self._price_step(
                config, record.interacting_pairs, step_index, branch_probs
            )
            if session is not None:
                recovery = session.drain_pending()
                retries = session.drain_retries()
                if retries:
                    # Each recompute re-pays the whole step's kernel path.
                    recovery += retries * sum(parts.values())
                recovery += session.drain_carried()
                if recovery > 0.0:
                    parts = dict(parts)
                    parts["fault_recovery"] = (
                        parts.get("fault_recovery", 0.0) + recovery
                    )
            breakdowns.append(parts)
            if obs is not None:
                # A watchdog restore rewinds the breakdowns but not the
                # observation: the trace keeps the wasted work visible
                # (that is the point of a timeline) and the counters keep
                # charging real executed work.
                self._observe_step(obs, metrics, parts, step_index)
            if session is not None:
                assert watchdog is not None and manager is not None
                if watchdog.observe(record.total_energy):
                    checkpoint = manager.last
                    assert checkpoint is not None
                    wasted = float(sum(
                        sum(lost.values()) for lost in breakdowns[checkpoint.step :]
                    ))
                    try:
                        manager.note_restore()
                    except RestoreBudgetExceeded as exc:
                        session.log.append(
                            sim.step_count, "vm.bitflip", "aborted",
                            {"faults": session.silent_pending,
                             "reason": str(exc)},
                        )
                        raise UnrecoveredFaultError(str(exc), session.log) from exc
                    session.note_restore(
                        sim.step_count,
                        checkpoint.step,
                        wasted,
                        watchdog.drift(record.total_energy),
                    )
                    sim.restore(checkpoint)
                    del breakdowns[checkpoint.step :]
                    continue
                manager.maybe_take(sim)

        return self._result(
            config, n_steps, breakdowns, sim.records, sim.state.positions,
            sim.state.velocities, session, counter_baseline,
        )

    # -- observability -------------------------------------------------

    def _observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        """Charge the generic counters and the ``step`` span, delegate to
        :meth:`observe_step`, lay out :meth:`timeline` and advance the
        cursor."""
        total = sum(parts.values())
        workers = self.workers()
        obs.charge("step.count", 1)
        obs.charge("sim.seconds", total)
        obs.charge("pairs.examined", round(metrics.pairs_examined * workers))
        obs.charge(
            "pairs.interacting",
            round(
                metrics.pairs_examined * workers * metrics.interacting_fraction
            ),
        )
        obs.span_at(
            "step", "step", 0.0, total, args={"step": step_index, **parts}
        )
        self.observe_step(obs, metrics, parts, step_index)
        # Components run end to end: each starts where the ones before
        # it (present or not) end, on every lane it declares.
        offset = 0.0
        for component in self.timeline(parts):
            seconds = parts.get(component.part, 0.0)
            if seconds > 0.0:
                args = {"step": step_index, **component.args}
                for lane in component.lanes:
                    obs.span_at(
                        component.span or component.part, lane, offset, seconds,
                        args=args,
                    )
            offset += seconds
        obs.advance(total)

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        """Device-specific counters for one completed step.

        ``parts`` is the step's final component breakdown (including any
        ``fault_recovery`` surcharge).  Implementations must *recompute*
        whatever they need from the same inputs ``step_seconds`` used —
        never mutate simulation state.  Spans are not emitted here: the
        base lays out the components :meth:`timeline` declares.  The
        default charges nothing.
        """

    def timeline(self, parts: Mapping[str, float]) -> Sequence[StepComponent]:
        """This step's components in timeline order, with their lanes.

        Each component's span starts at the summed seconds of the
        components before it and appears on every lane it declares
        (one per concurrent unit: SPE, pipeline, processor); a
        component absent from ``parts`` or of zero length emits nothing
        but keeps its place.  The default lays every part end to end,
        in breakdown order, each on a lane named after itself.
        """
        return [StepComponent(name, (name,)) for name in parts]
