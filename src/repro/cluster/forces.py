"""Per-node force kernel, bit-identical to the global kernel.

The decomposed machine must not change the physics: a K-way run has to
reproduce the K = 1 trajectory **bit-for-bit** at the same dtype/seed.
Each node computes its owned rows against the sorted owned ∪ ghost
column set through the global kernel's own row-by-column routine
(:func:`repro.md.forces._lj_rows`), so the argument of
:mod:`repro.md.forces` applies unchanged: the halo construction
(:mod:`repro.cluster.decomposition`) guarantees every within-cutoff
partner of an owned row is a local column, every other column
contributes an exact zero, and the column-ordered reductions make the
acceleration rows and the prefix-summed per-row energies independent
of which zero columns are present.  The backend assembles a global
per-row PE array before a single final sum — identical for every K,
and identical to :func:`~repro.md.forces.compute_forces` wherever that
kernel scans cell neighbourhoods (it reduces energy the same way).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cluster.decomposition import ExchangePlan, SlabDecomposition
from repro.md.box import PeriodicBox
from repro.md.forces import (
    _DEFAULT_BLOCK,
    ForceResult,
    _lj_rows,
    _prefix_pe,
    _validate,
)
from repro.md.lj import LennardJones

__all__ = [
    "NodeForces",
    "cluster_force_backend",
    "node_force_contribution",
]


@dataclasses.dataclass(frozen=True)
class NodeForces:
    """One node's force contribution for a step."""

    #: accelerations of the owned rows, node dtype, shape (n_owned, 3)
    accelerations: np.ndarray
    #: per-owned-row LJ energy sums (ordered view), node dtype
    pe_rows: np.ndarray
    #: ordered within-cutoff pair count over owned rows
    interacting: int
    #: ordered pair distances examined: n_owned * (n_local - 1)
    pairs_examined: int
    #: per-owned-row interacting-partner counts
    row_interacting: np.ndarray


def node_force_contribution(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    rows: np.ndarray,
    cols: np.ndarray,
    dtype: np.dtype | type = np.float64,
    block: int = _DEFAULT_BLOCK,
) -> NodeForces:
    """Force rows ``rows`` against column set ``cols`` (both sorted global
    indices, ``rows ⊆ cols``) with the global kernel's arithmetic."""
    positions64 = _validate(positions, box, potential)
    dtype = np.dtype(dtype)
    # Cast the *global* array first, then gather: elementwise casts are
    # order-independent, and this matches the global kernel's rounding.
    pos = positions64.astype(dtype)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n_rows = rows.shape[0]
    pos_cols = pos[cols]
    # Position of each owned row inside the column set, for the
    # self-pair mask; rows ⊆ cols and both are sorted.
    self_col = np.searchsorted(cols, rows)

    acc = np.zeros((n_rows, 3), dtype=dtype)
    pe_rows = np.zeros(n_rows, dtype=dtype)
    row_interacting = np.zeros(n_rows, dtype=np.int64)
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        tile_acc, pair_pe, row_interacting[start:stop] = _lj_rows(
            pos[rows[start:stop]], pos_cols, self_col[start:stop], box, potential
        )
        acc[start:stop] += tile_acc
        pe_rows[start:stop] += _prefix_pe(pair_pe)

    return NodeForces(
        accelerations=acc,
        pe_rows=pe_rows,
        interacting=int(row_interacting.sum()),
        pairs_examined=n_rows * (cols.shape[0] - 1),
        row_interacting=row_interacting,
    )


def cluster_force_backend(
    decomposition: SlabDecomposition,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
    block: int = _DEFAULT_BLOCK,
    collector=None,
):
    """A :class:`~repro.md.simulation.MDSimulation` force backend that
    evaluates forces through the slab decomposition.

    Returns a callable ``positions -> ForceResult`` whose accelerations
    are bit-identical to the global kernel's for every node count.  If
    ``collector`` is given it is called once per evaluation with
    ``(plan, node_forces)`` — the machine layer uses it to price the
    exchange that produced the step.
    """
    dtype = np.dtype(dtype)

    def backend(positions: np.ndarray) -> ForceResult:
        positions64 = _validate(positions, box, potential)
        n = positions64.shape[0]
        plan: ExchangePlan = decomposition.plan(positions64)

        acc = np.zeros((n, 3), dtype=dtype)
        pe_rows = np.zeros(n, dtype=dtype)
        row_interacting = np.zeros(n, dtype=np.int64)
        interacting = 0
        per_node: list[NodeForces] = []
        for domain in plan.domains:
            nf = node_force_contribution(
                positions64,
                box,
                potential,
                rows=domain.owned,
                cols=domain.local,
                dtype=dtype,
                block=block,
            )
            per_node.append(nf)
            # Ownership partitions the rows, so these are assignments
            # into disjoint slices — no accumulation-order dependence.
            acc[domain.owned] = nf.accelerations
            pe_rows[domain.owned] = nf.pe_rows
            row_interacting[domain.owned] = nf.row_interacting
            interacting += nf.interacting

        if collector is not None:
            collector(plan, tuple(per_node))

        return ForceResult(
            accelerations=acc.astype(np.float64),
            potential_energy=0.5 * float(pe_rows.sum(dtype=dtype)),
            interacting_pairs=interacting // 2,
            pairs_examined=n * (n - 1) // 2,
            row_interacting=row_interacting,
        )

    return backend
