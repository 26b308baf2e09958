"""Strong-scaling sweep of the simulated cluster — the beyond-one-device
extrapolation the paper's single-device tables stop short of.

A fixed workload is decomposed across K ∈ {1, 2, 4, 8} simulated nodes
(each node one of the paper's device models) and priced through the
node-to-node link model (:mod:`repro.arch.interconnect`).  Three
contracts are certified alongside the timing table:

* **equivalence** — every K-way run reproduces the K = 1 run's final
  dynamical state bit-for-bit (same dtype/seed), the property the
  cluster test net enforces exhaustively;
* **conservation** — one traced run per device passes the
  ghost-exchange conservation audit
  (:func:`repro.obs.invariants.cluster_conservation_problems`);
* **scaling shape** — decomposing helps: the largest node count beats
  one node, and exchange traffic appears exactly when K > 1.

Speedups can exceed K: the pricing charges each node owned × local
pairs, and the halo import is a shrinking fraction of the box as K
grows, so each node prunes distance evaluations the monolithic
all-pairs kernel pays for.  The bands below are therefore generous on the high side —
superlinearity is a property of the pruning, not an accounting bug
(the conservation audit is the accounting check).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.common import ExperimentResult, ShapeCheck, paper_config
from repro.obs.invariants import cluster_conservation_problems
from repro.obs.observe import Observation

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = (
    "strong-scaling over a simulated cluster: K-node slab decomposition "
    "per device model, bit-identical to K=1"
)


def run(
    n_atoms: int = 2048,
    n_steps: int = 4,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    devices: Iterable[str] = ("cell", "gpu"),
    topology: str = "switch",
) -> ExperimentResult:
    """Fixed-size scaling table: one row per (device, K).

    Every device's K = 1 cluster run is the speedup baseline *and* the
    bit-identity reference for its decomposed runs.
    """
    from repro.cluster.machine import SimulatedCluster

    node_counts = tuple(int(k) for k in node_counts)
    if not node_counts or node_counts[0] != 1:
        raise ValueError(
            f"node_counts must start with the K=1 baseline, got {node_counts}"
        )
    config = paper_config(n_atoms)

    rows = []
    all_identical = True
    min_kmax_speedup = float("inf")
    exchange_shape_ok = True
    conservation_problems: list[str] = []
    for device in devices:
        reference_digest = None
        for k in node_counts:
            cluster = SimulatedCluster(
                device=device, n_nodes=k, topology=topology
            )
            # Trace one run per (device, K): the conservation audit
            # needs the cluster.* counter deltas alongside the ledger.
            obs = Observation(device=cluster.name)
            result = cluster.run(config, n_steps, observe=obs)
            conservation_problems.extend(
                cluster_conservation_problems(result.counters, result)
            )
            digest = result.state_digest()
            if k == 1:
                reference_digest = digest
                baseline_sps = result.seconds_per_step
            all_identical = all_identical and (digest == reference_digest)
            speedup = baseline_sps / result.seconds_per_step
            if k == max(node_counts):
                min_kmax_speedup = min(min_kmax_speedup, speedup)
            exchange_shape_ok = exchange_shape_ok and (
                (result.exchange_bytes > 0) == (k > 1)
            )
            rows.append(
                (
                    device,
                    k,
                    round(result.seconds_per_step, 9),
                    round(speedup, 4),
                    result.exchange_bytes,
                    result.ghost_atoms // max(1, n_steps),
                    round(
                        sum(e.hidden_seconds for e in result.ledger), 9
                    ),
                )
            )

    kmax = max(node_counts)
    checks = (
        ShapeCheck(
            key="cluster_equivalence",
            measured=1.0 if all_identical else 0.0,
            low=1.0,
            high=1.0,
            paper_value=1.0,
            description="every K-way state digest equals the K=1 digest "
            "(bit-identical decomposition on every device)",
        ),
        ShapeCheck(
            key="cluster_conservation",
            measured=float(len(conservation_problems)),
            low=0.0,
            high=0.0,
            paper_value=0.0,
            description="ghost-exchange conservation audit problems across "
            "all traced runs (must be zero)",
        ),
        ShapeCheck(
            key="cluster_kmax_speedup",
            measured=min_kmax_speedup,
            # Decomposing must help at paper scale; halo pruning makes
            # superlinear speedups legitimate, hence the wide top of the
            # band.  Below ~1k atoms fixed per-step costs (launch, DMA
            # setup) dominate every device — the same regime as the
            # paper's GPU crossover — so the quick variant only demands
            # that decomposition is not a catastrophic loss.
            low=1.0 + 1e-9 if n_atoms >= 1024 else 0.9,
            high=1.0e3,
            paper_value=float(kmax),
            description=f"min over devices of the K={kmax} speedup vs one "
            "node (superlinear is expected from halo pruning; "
            "overhead-dominated below 1024 atoms)",
        ),
        ShapeCheck(
            key="cluster_exchange_shape",
            measured=1.0 if exchange_shape_ok else 0.0,
            low=1.0,
            high=1.0,
            paper_value=1.0,
            description="fabric traffic appears exactly when K > 1 "
            "(zero bytes at K=1, nonzero beyond)",
        ),
    )
    return ExperimentResult(
        experiment_id="cluster",
        title=(
            f"cluster strong scaling ({n_atoms} atoms, {n_steps} steps, "
            f"{topology} fabric, K in {node_counts})"
        ),
        headers=(
            "device",
            "nodes",
            "seconds_per_step",
            "speedup_vs_one_node",
            "exchange_bytes",
            "ghost_atoms_per_step",
            "hidden_exchange_s",
        ),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "Physics is bit-identical across node counts by construction; "
            "only the pricing (compute overlap + fabric exchange) varies.",
            "Speedup is measured against the same device's K=1 cluster "
            "run, which matches the plain device trajectory.",
        ),
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
