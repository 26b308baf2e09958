"""The simulated cluster: K device nodes, one slab each, priced per step.

:class:`SimulatedCluster` integrates the MD physics with the node
device's own fast force path, so every K runs the plain device's
trajectory by construction.  Each evaluation also builds the step's
slab plan, and a node's interacting-pair count is its owned rows' share
of the global per-row tally — the halo holds every within-cutoff
partner, so that is what the node's owned × local scan would count.
Each step is priced as a bulk-synchronous superstep:

1. **ghost exchange** — every node sends its boundary atoms to the
   neighbors whose halo demands them, plus the canonical records of
   atoms that migrated across a slab face since the last step; one
   phase over :class:`~repro.arch.interconnect.ClusterFabric`.
2. **interior compute** — rows deeper than the halo need no ghosts, so
   their share of the node's force work overlaps the exchange.
3. **boundary compute** — the remaining rows start when both the
   exchange and the interior work are done.

``node_time = max(exchange, interior) + boundary`` and the step ends at
the slowest node (plus any fault-recovery surcharge).  The overlap
fraction scales the node's whole per-step device cost — a first-order
model: launch/DMA/host components ride the same schedule as the kernel.

Fault sites: ``cluster.link.drop`` (an exchange message times out and
the phase is resent, retry-with-backoff) and ``cluster.node.straggler``
(one node's compute runs ``payload["factor"]`` times slower this step;
the barrier absorbs it).  Both are timing-level — ghosts are re-read
from pristine owner data, so the physics is never corrupted and a
zero-rate plan is bit-identical to ``faults=None``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable

import numpy as np

from repro.arch import calibration as cal
from repro.arch.device import Device, merge_breakdowns
from repro.arch.interconnect import ClusterFabric, make_cluster_fabric
from repro.arch.profilecounts import KernelMetrics
from repro.cluster.decomposition import (
    DEFAULT_HALO_SKIN,
    ExchangePlan,
    SlabDecomposition,
)
from repro.faults.plan import FaultPlan
from repro.faults.session import FaultSession
from repro.md.forces import ForceResult
from repro.md.simulation import MDConfig, MDSimulation, StepRecord
from repro.obs.context import ambient_observation
from repro.obs.observe import Observation

__all__ = [
    "CLUSTER_DEVICES",
    "ClusterRunResult",
    "ClusterStepLedger",
    "SimulatedCluster",
    "migration_bytes_per_atom",
]


def _device_factories() -> dict[str, Callable[[], Device]]:
    from repro.cell.device import CellDevice
    from repro.gpu.device import GpuDevice
    from repro.mta.device import MTADevice
    from repro.opteron.device import OpteronDevice

    return {
        "cell": lambda: CellDevice(),
        "gpu": lambda: GpuDevice(),
        "mta": lambda: MTADevice(),
        "opteron": lambda: OpteronDevice(),
    }


#: Node device models a cluster can be built from.
CLUSTER_DEVICES = ("cell", "gpu", "mta", "opteron")


def ghost_bytes_per_atom(precision: str) -> int:
    """Wire size of one ghost position, by node precision."""
    return cal.VEC4_F32_BYTES if precision == "float32" else cal.VEC3_F64_BYTES


def migration_bytes_per_atom(precision: str) -> int:
    """Wire size of one migrated atom's canonical record.

    A handoff moves the full phase-space point (position + velocity),
    twice the ghost payload.
    """
    return 2 * ghost_bytes_per_atom(precision)


@dataclasses.dataclass(frozen=True)
class ClusterStepLedger:
    """Exact exchange accounting for one step (JSON-native values)."""

    bytes_sent: int
    bytes_received: int
    messages: int
    ghost_atoms: int
    migrate_atoms: int
    exchange_seconds: float
    hidden_seconds: float
    exposed_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ClusterRunResult:
    """Outcome of simulating ``n_steps`` on a K-node cluster."""

    device: str
    n_nodes: int
    topology: str
    config: MDConfig
    n_steps: int
    setup_seconds: float
    step_seconds: tuple[float, ...]
    #: per step, per node: max(exchange, interior) + boundary
    node_step_seconds: tuple[tuple[float, ...], ...]
    breakdown: dict[str, float]
    ledger: tuple[ClusterStepLedger, ...]
    records: tuple[StepRecord, ...]
    final_positions: np.ndarray
    final_velocities: np.ndarray
    halo_width: float
    bytes_per_atom: int
    fault_events: tuple[dict[str, Any], ...] = ()
    fault_summary: dict[str, Any] = dataclasses.field(default_factory=dict)
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.step_seconds))

    @property
    def seconds_per_step(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return self.total_seconds / self.n_steps

    @property
    def exchange_bytes(self) -> int:
        """Total bytes moved over the fabric across the run."""
        return sum(entry.bytes_sent for entry in self.ledger)

    @property
    def ghost_atoms(self) -> int:
        return sum(entry.ghost_atoms for entry in self.ledger)

    def state_digest(self) -> str:
        """SHA-256 over the final dynamical state — the cross-rank and
        double-run identity token the determinism gates compare."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.final_positions).tobytes())
        h.update(np.ascontiguousarray(self.final_velocities).tobytes())
        for record in self.records:
            h.update(repr((record.step, record.kinetic_energy,
                           record.potential_energy,
                           record.interacting_pairs)).encode())
        return h.hexdigest()


class SimulatedCluster:
    """K identical device nodes over a slab decomposition and a fabric."""

    def __init__(
        self,
        device: str = "cell",
        n_nodes: int = 1,
        topology: str = "switch",
        halo_skin: float = DEFAULT_HALO_SKIN,
        fabric: ClusterFabric | None = None,
        device_factory: Callable[[], Device] | None = None,
    ) -> None:
        factories = _device_factories()
        if device not in factories:
            raise ValueError(
                f"unknown cluster device {device!r}; expected one of "
                f"{CLUSTER_DEVICES}"
            )
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if not halo_skin > 0.0:
            raise ValueError(f"halo_skin must be positive, got {halo_skin}")
        self.device = device
        self.n_nodes = int(n_nodes)
        self.topology = topology
        self.halo_skin = float(halo_skin)
        self.fabric = fabric or make_cluster_fabric(self.n_nodes, topology)
        if self.fabric.n_nodes != self.n_nodes:
            raise ValueError(
                f"fabric wired for {self.fabric.n_nodes} nodes, "
                f"cluster has {self.n_nodes}"
            )
        self._factory = device_factory or factories[device]
        self.name = f"cluster-{device}-k{n_nodes}"

    # -- pricing helpers ---------------------------------------------------

    def _node_metrics(
        self,
        domain_owned: int,
        domain_local: int,
        interacting: int,
        workers: int,
        branch_probs: dict[str, float],
    ) -> KernelMetrics:
        ordered = domain_owned * (domain_local - 1)
        fraction = interacting / ordered if ordered > 0 else 0.0
        return KernelMetrics(
            # DMA/PCIe traffic and local-store layout follow the atoms
            # the node actually holds (owned + ghosts).
            n_atoms=domain_local,
            pairs_examined=ordered / workers,
            interacting_fraction=min(1.0, fraction),
            branch_probabilities=branch_probs,
        )

    def run(
        self,
        config: MDConfig,
        n_steps: int,
        faults: FaultPlan | None = None,
        observe: "Observation | bool | None" = None,
    ) -> ClusterRunResult:
        """Run ``n_steps`` decomposed across the K nodes.

        Physics first (the plain device trajectory at every K), then
        pricing: per-node device cost models fed with that node's pair
        counts, one fabric exchange phase per step, overlap per the
        superstep schedule in the module docstring.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        devices = [self._factory() for _ in range(self.n_nodes)]
        config = dataclasses.replace(config, dtype=devices[0].precision)
        for node in devices:
            node.prepare(config)
        box = config.make_box()
        potential = config.make_potential()
        halo_width = min(potential.rcut + self.halo_skin, box.half_length)
        decomposition = SlabDecomposition(box, self.n_nodes, halo_width)
        bytes_per_atom = ghost_bytes_per_atom(devices[0].precision)
        migrate_bpa = migration_bytes_per_atom(devices[0].precision)

        session = FaultSession(faults) if faults is not None else None
        if observe is None:
            obs = ambient_observation(self.name)
        elif observe is False:
            obs = None
        else:
            obs = observe
        counter_baseline = obs.counters.as_dict() if obs is not None else {}

        physics = devices[0].functional_backend(box, potential)
        holder: dict[str, Any] = {}

        def backend(positions: np.ndarray) -> ForceResult:
            result = physics(positions)
            holder["plan"] = plan = decomposition.plan(positions)
            holder["interacting"] = [
                int(result.row_interacting[domain.owned].sum())
                for domain in plan.domains
            ]
            return result

        if session is not None:
            session.enabled = False  # no draws during the initial eval
        sim = MDSimulation(config, force_backend=backend)
        if session is not None:
            session.enabled = True
        prev_owners = holder["plan"].owners
        branch_probs = devices[0].branch_probabilities(config)

        step_seconds: list[float] = []
        node_step_seconds: list[tuple[float, ...]] = []
        breakdowns: list[dict[str, float]] = []
        ledger: list[ClusterStepLedger] = []

        if obs is not None:
            obs.charge("cluster.nodes", self.n_nodes)

        while sim.step_count < n_steps:
            step_index = len(step_seconds)
            if session is not None:
                session.begin_step(step_index + 1)
            sim.step()
            plan: ExchangePlan = holder["plan"]
            interacting: list[int] = holder["interacting"]

            # -- exchange phase -------------------------------------------
            migration = decomposition.migration_messages(
                prev_owners, plan.owners
            )
            prev_owners = plan.owners
            ghost_messages = plan.message_bytes(bytes_per_atom)
            migrate_atoms = sum(m[2] for m in migration)
            byte_messages = list(ghost_messages) + [
                (src, dst, n * migrate_bpa) for src, dst, n in migration
            ]
            exchange_s = self.fabric.exchange_seconds(byte_messages)
            if session is not None and byte_messages:
                session.charge(session.faulty_transfer(
                    "cluster.link.drop",
                    lambda: exchange_s,
                    detection="ack-timeout",
                ))

            # -- per-node compute under the overlap schedule --------------
            node_compute = [0.0] * self.n_nodes
            node_interior = [0.0] * self.n_nodes
            parts_by_node: list[dict[str, float]] = []
            for domain, node_interacting, node in zip(
                plan.domains, interacting, devices
            ):
                if domain.n_owned == 0 or domain.n_local < 2:
                    parts_by_node.append({})
                    continue
                metrics = self._node_metrics(
                    domain.n_owned, domain.n_local, node_interacting,
                    node.workers(), branch_probs,
                )
                parts = node.step_seconds(metrics, step_index)
                parts_by_node.append(parts)
                compute = sum(parts.values())
                node_compute[domain.rank] = compute
                node_interior[domain.rank] = compute * (
                    domain.n_interior / domain.n_owned
                )

            if session is not None:
                session.charge(session.transient(
                    "cluster.node.straggler",
                    lambda decision: (
                        float(decision.payload.get("factor", 2.0)) - 1.0
                    ) * node_compute[int(decision.rng.integers(self.n_nodes))],
                    detection="progress-heartbeat",
                    action="straggling node's step absorbed at the barrier",
                ))

            node_times = [
                max(exchange_s, interior) + (compute - interior)
                for compute, interior in zip(node_compute, node_interior)
            ]
            core = max(node_times, default=0.0)
            max_compute = max(node_compute, default=0.0)
            # Split the exchange by the overlap decision that set the
            # critical node, so the fully hidden and fully exposed cases
            # come out exactly 0.0 rather than as subtraction residues.
            critical = max(range(len(node_times)), key=node_times.__getitem__,
                           default=None)
            if critical is None or node_interior[critical] >= exchange_s:
                hidden, exposed = exchange_s, 0.0
            elif node_compute[critical] == max_compute:
                hidden = node_interior[critical]
                exposed = exchange_s - hidden
            else:
                # A lighter node went critical: the step grows by less
                # than that node's unoverlapped exchange.
                exposed = core - max_compute
                hidden = exchange_s - exposed

            parts_total: dict[str, float] = merge_breakdowns(*parts_by_node)
            # Rescale summed per-node components onto the critical path
            # so the breakdown totals the step like the single-device
            # breakdowns do.
            compute_sum = sum(node_compute)
            if compute_sum > 0.0:
                scale = max_compute / compute_sum
                parts_total = {
                    key: value * scale for key, value in parts_total.items()
                }
            if exposed > 0.0:
                parts_total["ghost_exchange"] = exposed
            recovery = session.drain_pending() if session is not None else 0.0
            if session is not None:
                recovery += session.drain_retries() * core
                recovery += session.drain_carried()
            if recovery > 0.0:
                parts_total["fault_recovery"] = recovery
            total = core + recovery

            step_seconds.append(total)
            node_step_seconds.append(tuple(node_times))
            breakdowns.append(parts_total)
            entry = ClusterStepLedger(
                bytes_sent=sum(m[2] for m in byte_messages),
                bytes_received=sum(m[2] for m in byte_messages),
                messages=len(byte_messages),
                ghost_atoms=plan.ghost_atoms,
                migrate_atoms=migrate_atoms,
                exchange_seconds=exchange_s,
                hidden_seconds=hidden,
                exposed_seconds=exposed,
            )
            ledger.append(entry)

            if obs is not None:
                self._observe_step(
                    obs, entry, plan, sum(interacting), node_compute,
                    node_interior, exchange_s, total, parts_total, step_index,
                )

        setup = devices[0].setup_breakdown() if devices else {}
        return ClusterRunResult(
            device=self.device,
            n_nodes=self.n_nodes,
            topology=self.topology,
            config=config,
            n_steps=n_steps,
            setup_seconds=sum(setup.values()),
            step_seconds=tuple(step_seconds),
            node_step_seconds=tuple(node_step_seconds),
            breakdown=merge_breakdowns(*breakdowns),
            ledger=tuple(ledger),
            records=tuple(sim.records),
            final_positions=np.array(sim.state.positions, copy=True),
            final_velocities=np.array(sim.state.velocities, copy=True),
            halo_width=halo_width,
            bytes_per_atom=bytes_per_atom,
            fault_events=tuple(session.log.to_dicts()) if session else (),
            fault_summary=session.summary() if session else {},
            counters=(
                obs.counters.delta(counter_baseline) if obs is not None else {}
            ),
        )

    # -- observability -----------------------------------------------------

    def _observe_step(
        self,
        obs: Observation,
        entry: ClusterStepLedger,
        plan: ExchangePlan,
        interacting: int,
        node_compute: list[float],
        node_interior: list[float],
        exchange_s: float,
        total: float,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        obs.charge("step.count", 1)
        obs.charge("sim.seconds", total)
        obs.charge("pairs.examined", sum(
            domain.n_owned * (domain.n_local - 1) for domain in plan.domains
        ))
        obs.charge("pairs.interacting", interacting)
        obs.charge_many({
            "cluster.exchange.bytes_sent": entry.bytes_sent,
            "cluster.exchange.bytes_received": entry.bytes_received,
            "cluster.exchange.messages": entry.messages,
            "cluster.ghost.atoms": entry.ghost_atoms,
            "cluster.migrate.atoms": entry.migrate_atoms,
        })
        obs.charge("cluster.exchange.seconds", entry.exchange_seconds)
        obs.charge("cluster.exchange.hidden_seconds", entry.hidden_seconds)
        obs.charge("cluster.exchange.exposed_seconds", entry.exposed_seconds)
        obs.span_at(
            "step", "step", 0.0, total,
            args={"step": step_index, **parts},
        )
        if exchange_s > 0.0:
            obs.span_at(
                "ghost_exchange", "fabric", 0.0, exchange_s,
                args={"step": step_index, "bytes": entry.bytes_sent,
                      "messages": entry.messages},
            )
        for domain, compute, interior in zip(
            plan.domains, node_compute, node_interior
        ):
            if compute <= 0.0:
                continue
            lane = f"node{domain.rank}"
            boundary = compute - interior
            if interior > 0.0:
                obs.span_at(
                    "interior_force", lane, 0.0, interior,
                    args={"step": step_index,
                          "rows": domain.n_interior},
                )
            if boundary > 0.0:
                obs.span_at(
                    "boundary_force", lane, max(exchange_s, interior),
                    boundary,
                    args={"step": step_index,
                          "rows": domain.n_boundary},
                )
        obs.advance(total)
