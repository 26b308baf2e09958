"""Typed hardware counters for the simulated devices.

Every counter has a :class:`CounterSpec` in the module registry naming
its unit, the device family that charges it, and the paper quantity it
reproduces.  A :class:`CounterSet` only accepts registered names (or
names under a registered ``.*`` prefix), so a typo in a device model
fails loudly instead of silently forking the metric namespace.

Counters are *additive*: every charge is a non-negative increment, and
two counter sets over disjoint work merge by summation.  Units matter
for regression testing — ``count``/``bytes`` counters are integral and
compared exactly against golden snapshots, while ``issues``/``cycles``/
``seconds``/``ratio`` counters are floating accumulations (issue counts
are branch-probability-weighted expectations) compared within a
relative tolerance.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Mapping

__all__ = [
    "COUNTER_SPECS",
    "CounterSet",
    "CounterSpec",
    "EXACT_UNITS",
    "UnknownCounterError",
    "diff_counters",
    "spec_for",
]

#: Units whose counters take exact (integer-valued) charges.
EXACT_UNITS = frozenset({"count", "bytes"})

_VALID_UNITS = frozenset({"count", "bytes", "issues", "cycles", "seconds", "ratio"})


class UnknownCounterError(KeyError):
    """A charge against a counter name with no registered spec."""


@dataclasses.dataclass(frozen=True)
class CounterSpec:
    """Identity and semantics of one hardware counter."""

    name: str
    unit: str
    device: str
    description: str
    #: the paper table/figure this counter mechanistically explains
    paper_ref: str = ""

    def __post_init__(self) -> None:
        if self.unit not in _VALID_UNITS:
            raise ValueError(
                f"counter {self.name!r} has unknown unit {self.unit!r}; "
                f"expected one of {sorted(_VALID_UNITS)}"
            )

    @property
    def exact(self) -> bool:
        return self.unit in EXACT_UNITS


#: name (or ``prefix.*``) -> spec.  Populated below; device models may
#: register more via :func:`register`.
COUNTER_SPECS: dict[str, CounterSpec] = {}


def register(spec: CounterSpec) -> CounterSpec:
    if spec.name in COUNTER_SPECS:
        raise ValueError(f"counter {spec.name!r} registered twice")
    COUNTER_SPECS[spec.name] = spec
    return spec


def spec_for(name: str) -> CounterSpec:
    """Resolve a counter name, honoring ``prefix.*`` wildcard entries."""
    spec = COUNTER_SPECS.get(name)
    if spec is not None:
        return spec
    parts = name.split(".")
    while parts:
        parts.pop()
        wildcard = ".".join(parts + ["*"])
        spec = COUNTER_SPECS.get(wildcard)
        if spec is not None:
            return spec
    raise UnknownCounterError(
        f"no registered CounterSpec for {name!r}; add one to "
        "repro.obs.counters.COUNTER_SPECS"
    )


def _populate() -> None:
    for args in (
        # -- generic (charged by the Device template method) ----------
        ("step.count", "count", "all", "MD steps simulated"),
        ("sim.seconds", "seconds", "all", "simulated wall-clock accumulated"),
        ("pairs.examined", "count", "all", "ordered pair-loop trips"),
        ("pairs.interacting", "count", "all", "ordered pairs inside the cutoff"),
        # -- Cell ------------------------------------------------------
        ("cell.dma.bytes", "bytes", "cell",
         "total DMA payload over the EIB (in + out)", "Fig. 6 / sec 5.1"),
        ("cell.dma.bytes_in", "bytes", "cell",
         "position gathers into SPE local stores", "sec 5.1"),
        ("cell.dma.bytes_out", "bytes", "cell",
         "acceleration rows pushed back to main memory", "sec 5.1"),
        ("cell.dma.transactions", "count", "cell",
         "DMA commands issued (16 KB max per command)", "sec 5.1"),
        ("cell.mailbox.words", "count", "cell",
         "32-bit mailbox words exchanged PPE<->SPE", "Fig. 6"),
        ("cell.mailbox.round_trips", "count", "cell",
         "go+completion signal pairs (launch-once steady state)", "Fig. 6"),
        ("cell.spe.launches", "count", "cell",
         "spe_create_thread calls on the PPE", "Fig. 6"),
        ("cell.spe.active", "count", "cell",
         "SPE-steps actually computing (occupancy numerator)"),
        ("cell.spe.slots", "count", "cell",
         "SPE-steps available (occupancy denominator)"),
        ("cell.spe.instructions", "issues", "cell",
         "SPU instructions scheduled per step, all SPEs", "Fig. 5"),
        ("cell.spe.cycles", "cycles", "cell",
         "scheduled SPU cycles per step, all SPEs", "Fig. 5"),
        ("cell.spe.dual_issue_cycles", "cycles", "cell",
         "cycles retiring one even- and one odd-pipe op together", "Fig. 5"),
        ("cell.spe.branch_evals", "issues", "cell",
         "expected data-dependent branch evaluations", "Fig. 5"),
        ("cell.spe.branch_taken", "ratio", "cell",
         "expected taken branches (evals x measured P(taken))", "Fig. 5"),
        ("cell.spe.branch_flush_cycles", "cycles", "cell",
         "expected pipeline-flush cycles from taken branches", "Fig. 5"),
        # -- VM-measured branch statistics (vm-mode functional paths) --
        ("vm.segments", "count", "vm", "VM segment executions"),
        ("vm.programs", "count", "vm",
         "whole-program VM dispatches (one per fused timestep batch)"),
        ("vm.replicas", "count", "vm",
         "replica-steps executed through run_program (additive: a "
         "batched R-replica run charges R, same as R sequential runs)"),
        ("vm.branch.*", "ratio", "vm",
         "measured branch statistics (…samples / …taken_rows)"),
        # -- GPU -------------------------------------------------------
        ("gpu.pcie.bytes", "bytes", "gpu",
         "total PCIe payload per run (up + down)", "Fig. 7"),
        ("gpu.pcie.bytes_up", "bytes", "gpu",
         "position texture uploads", "Fig. 7"),
        ("gpu.pcie.bytes_down", "bytes", "gpu",
         "acceleration render-target readbacks", "Fig. 7"),
        ("gpu.pcie.transfers", "count", "gpu",
         "PCIe transfer transactions", "Fig. 7"),
        ("gpu.shader.passes", "count", "gpu",
         "full-screen rasterization passes", "sec 5.2"),
        ("gpu.shader.invocations", "count", "gpu",
         "fragment shader invocations (one per output atom)", "sec 5.2"),
        ("gpu.shader.pair_trips", "count", "gpu",
         "inner-scan trips across all invocations (N^2 per pass)", "sec 5.2"),
        ("gpu.shader.issues", "issues", "gpu",
         "shader issue slots consumed per pass", "sec 5.2"),
        # -- MTA -------------------------------------------------------
        ("mta.issues.parallel", "issues", "mta",
         "instruction issues retired in saturated regions", "Fig. 8"),
        ("mta.issues.serial", "issues", "mta",
         "issues retired single-stream (compiler-refused loops)", "Fig. 8"),
        ("mta.issues.total", "issues", "mta", "all instruction issues", "Fig. 8"),
        ("mta.streams.concurrent", "count", "mta",
         "concurrent threads offered per step (utilization numerator)", "Fig. 8"),
        ("mta.streams.slots", "count", "mta",
         "hardware stream slots per step (utilization denominator)", "Fig. 8"),
        ("mta.fullempty.updates", "count", "mta",
         "serialized readfe/writeef update pairs on the PE word", "sec 5.3"),
        # -- service (repro.service job API) ---------------------------
        ("service.jobs.submitted", "count", "service",
         "submissions accepted by POST /v1/jobs"),
        ("service.jobs.rejected", "count", "service",
         "submissions shed by backpressure (tenant quota or queue depth)"),
        ("service.jobs.completed", "count", "service",
         "jobs that finished ok (cache replays included)"),
        ("service.jobs.failed", "count", "service",
         "jobs that exhausted their attempts without an ok record"),
        ("service.jobs.cancelled", "count", "service",
         "jobs cancelled while queued or running"),
        ("service.jobs.cache_hits", "count", "service",
         "submissions served from the content-addressed result cache"),
        ("service.jobs.attempts", "count", "service",
         "scheduler attempts consumed (retries push this above one per job)"),
        ("service.queue.enqueued", "count", "service",
         "jobs admitted to the priority queue"),
        ("service.queue.dequeued", "count", "service",
         "jobs handed from the queue to a worker"),
        ("service.events.emitted", "count", "service",
         "job status-transition events appended"),
        ("service.workers.spawned", "count", "service",
         "pool worker processes forked (first job of a slot, and after "
         "every timeout, crash or preemption)"),
        # -- service durability / supervision --------------------------
        ("service.journal.appended", "count", "service",
         "WAL entries fsync'd (submissions + state transitions)"),
        ("service.journal.replayed", "count", "service",
         "WAL entries folded during boot-time recovery"),
        ("service.journal.recovered", "count", "service",
         "unsettled jobs re-admitted from the journal after a restart"),
        ("service.journal.compacted", "count", "service",
         "replayed WAL segments retired to .settled"),
        ("service.journal.torn", "count", "service",
         "torn/corrupt WAL tails skipped during replay"),
        ("service.supervisor.preempted", "count", "service",
         "running jobs preempted by the watchdog (hang or deadline)"),
        ("service.supervisor.requeued", "count", "service",
         "hang-preempted jobs put back in the queue"),
        ("service.quarantine.added", "count", "service",
         "jobs moved to quarantined after K failed attempts"),
        ("service.quarantine.rejected", "count", "service",
         "submissions fast-settled because their content is quarantined"),
        ("service.breaker.opened", "count", "service",
         "circuit breakers tripped open by scenario failure rate"),
        ("service.breaker.closed", "count", "service",
         "breakers closed again by a successful half-open probe"),
        ("service.breaker.fast_failed", "count", "service",
         "submissions 503'd by an open breaker"),
        ("service.deadline.rejected", "count", "service",
         "submissions rejected at admission (EWMA wait beyond deadline)"),
        ("service.deadline.missed", "count", "service",
         "jobs failed because deadline_seconds expired (queued or running)"),
        # -- tune (repro.tune closed-loop autotuner) -------------------
        ("tune.scenarios", "count", "tune",
         "tuning scenarios searched (cache hits included)"),
        ("tune.probes", "count", "tune",
         "measured probe jobs executed by the tuner"),
        ("tune.probe_failures", "count", "tune",
         "probe jobs that raised instead of returning a measurement"),
        ("tune.cache_hits", "count", "tune",
         "scenarios served from an existing tuned artifact (zero probes)"),
        ("tune.adopted", "count", "tune",
         "scenarios whose winner beat the defaults past the gain threshold"),
        ("tune.fallbacks", "count", "tune",
         "scenarios that fell back to defaults (budget exhausted or probes failed)"),
        ("tune.seconds", "seconds", "tune",
         "wall seconds spent inside probe measurements"),
        # -- cluster (repro.cluster domain decomposition) --------------
        ("cluster.nodes", "count", "cluster",
         "nodes in the simulated cluster (charged once per run)"),
        ("cluster.exchange.bytes_sent", "bytes", "cluster",
         "ghost + migration payload sent over the fabric"),
        ("cluster.exchange.bytes_received", "bytes", "cluster",
         "ghost + migration payload received over the fabric"),
        ("cluster.exchange.messages", "count", "cluster",
         "point-to-point messages in the exchange phases"),
        ("cluster.ghost.atoms", "count", "cluster",
         "halo atoms imported across all nodes and steps"),
        ("cluster.migrate.atoms", "count", "cluster",
         "atoms whose owner rank changed between steps"),
        ("cluster.exchange.seconds", "seconds", "cluster",
         "fabric time of the exchange phases (hidden + exposed)"),
        ("cluster.exchange.hidden_seconds", "seconds", "cluster",
         "exchange time overlapped by interior force computation"),
        ("cluster.exchange.exposed_seconds", "seconds", "cluster",
         "exchange time on the step critical path"),
        # -- Opteron ---------------------------------------------------
        ("opteron.kernel.cycles", "cycles", "opteron",
         "scheduled K8 kernel cycles", "Fig. 9"),
        ("opteron.cache.l1_accesses", "count", "opteron",
         "L1 data-cache accesses of the position scan", "Fig. 9"),
        ("opteron.cache.l1_hits", "count", "opteron",
         "L1 hits of the position scan", "Fig. 9"),
        ("opteron.cache.l2_accesses", "count", "opteron",
         "L2 accesses (L1 misses)", "Fig. 9"),
        ("opteron.cache.l2_hits", "count", "opteron",
         "L2 hits of the position scan", "Fig. 9"),
        ("opteron.cache.stall_cycles", "cycles", "opteron",
         "memory-stall cycles charged to the kernel", "Fig. 9"),
    ):
        name, unit, device, description = args[:4]
        paper_ref = args[4] if len(args) > 4 else ""
        register(CounterSpec(name, unit, device, description, paper_ref))


_populate()


class CounterSet:
    """An additive, name-validated bag of hardware counters."""

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, float] | None = None) -> None:
        self._values: dict[str, float] = {}
        if values:
            for name, value in values.items():
                self.add(name, value)

    def add(self, name: str, value: float) -> None:
        """Charge ``value`` to counter ``name`` (must be registered)."""
        spec = spec_for(name)
        value = float(value)
        if value < 0.0:
            raise ValueError(f"counter {name!r} charged a negative {value}")
        if spec.exact and value != int(value):
            raise ValueError(
                f"counter {name!r} has unit {spec.unit!r} but was charged "
                f"the non-integral value {value}"
            )
        self._values[name] = self._values.get(name, 0.0) + value

    def get(self, name: str, default: float = 0.0) -> float:
        return self._values.get(name, default)

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def as_dict(self) -> dict[str, float]:
        """A sorted, JSON-native copy of the counter values."""
        return {name: self._values[name] for name in sorted(self._values)}

    def merge(self, other: "CounterSet | Mapping[str, float]") -> None:
        items = other.as_dict() if isinstance(other, CounterSet) else other
        for name, value in items.items():
            self.add(name, value)

    def delta(self, baseline: Mapping[str, float]) -> dict[str, float]:
        """Counters accumulated since ``baseline`` (a prior ``as_dict``)."""
        out: dict[str, float] = {}
        for name in sorted(self._values):
            diff = self._values[name] - baseline.get(name, 0.0)
            if diff:
                out[name] = diff
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterSet({self.as_dict()!r})"


def diff_counters(
    a: Mapping[str, float],
    b: Mapping[str, float],
    tolerance: float = 0.0,
) -> list[tuple[str, float, float, float]]:
    """Counters that drifted between two snapshots.

    Returns ``(name, a_value, b_value, relative_drift)`` rows for every
    counter whose relative drift exceeds ``tolerance`` (missing counters
    count as zero).  Relative drift is ``|b - a| / max(|a|, |b|)`` —
    symmetric, and 1.0 for a counter appearing or vanishing.
    """
    rows = []
    for name in sorted(set(a) | set(b)):
        va, vb = float(a.get(name, 0.0)), float(b.get(name, 0.0))
        scale = max(abs(va), abs(vb))
        drift = abs(vb - va) / scale if scale else 0.0
        if drift > tolerance:
            rows.append((name, va, vb, drift))
    return rows
