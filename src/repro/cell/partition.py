"""Row partitioning across SPEs and its load-balance consequences.

The paper's Cell port splits the acceleration computation so "each SPE
checks approximately one eighth of the total number (N^2) of atom
pairs" — a static *block* of rows per SPE.  Every SPE examines the same
number of pairs, but the pairs that fall *inside the cutoff* (which run
the expensive force branch) follow the local density around each row's
atom.  For a homogeneous liquid the imbalance is percent-level; for an
inhomogeneous system (a droplet, an interface) a block partition can
hand one SPE far more interacting pairs than another, and the step time
is the *maximum* over SPEs.

Two strategies are modelled:

* ``BLOCK`` — contiguous rows per SPE (the paper's layout, and the
  natural one for contiguous DMA of the output rows);
* ``CYCLIC`` — row i goes to SPE i mod n (the classic data-parallel
  remedy: spatial correlations average out).
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from repro.arch import calibration as cal
from repro.cell.spe import SPE_COST_TABLE
from repro.tune.spec import TunableSpec, register_tunable
from repro.vm.program import Program
from repro.vm.schedule import estimate_cycles

__all__ = ["RowPartition", "partition_rows", "PartitionTiming", "partitioned_kernel_seconds"]


class RowPartition(enum.Enum):
    BLOCK = "block"
    CYCLIC = "cyclic"


# Purely a work-distribution choice: every pair is still examined by
# exactly one SPE, so the physics is unchanged; only load balance and
# the DMA pattern of the output rows move.
register_tunable(TunableSpec(
    name="cell.partition",
    backend="cell",
    kind="choice",
    default=RowPartition.BLOCK.value,
    candidates=(RowPartition.BLOCK.value, RowPartition.CYCLIC.value),
    description="SPE row-partition strategy (block vs cyclic)",
    effect="cyclic balances inhomogeneous systems but scatters the "
           "acceleration write-back into per-row DMA commands",
))


def partition_rows(
    n_atoms: int, n_spes: int, strategy: RowPartition
) -> list[np.ndarray]:
    """Row indices owned by each SPE under the given strategy."""
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    if n_spes < 1:
        raise ValueError("n_spes must be >= 1")
    rows = np.arange(n_atoms)
    if strategy is RowPartition.BLOCK:
        return [chunk for chunk in np.array_split(rows, n_spes)]
    return [rows[spe::n_spes] for spe in range(n_spes)]


@dataclasses.dataclass(frozen=True)
class PartitionTiming:
    """Per-SPE kernel seconds and the imbalance they imply."""

    per_spe_seconds: tuple[float, ...]

    @property
    def step_seconds(self) -> float:
        """The step completes when the slowest SPE does."""
        return max(self.per_spe_seconds)

    @property
    def mean_seconds(self) -> float:
        return sum(self.per_spe_seconds) / len(self.per_spe_seconds)

    @property
    def imbalance(self) -> float:
        """max/mean - 1: zero for a perfectly balanced step."""
        mean = self.mean_seconds
        if mean == 0.0:
            return 0.0
        return self.step_seconds / mean - 1.0


def partitioned_kernel_seconds(
    program: Program,
    row_interacting: np.ndarray,
    n_spes: int,
    strategy: RowPartition,
    clock_hz: float,
    reflect_take: float = cal.REFLECT_TAKE,
) -> PartitionTiming:
    """Per-SPE kernel times from measured per-row interacting counts.

    Each SPE's pair-loop trip count is rows x (N - 1); its interacting
    fraction is the measured fraction *of its own rows*, which is what
    makes block partitions sensitive to spatial inhomogeneity.
    """
    row_interacting = np.asarray(row_interacting)
    n_atoms = row_interacting.size
    if n_atoms < 2:
        raise ValueError("need at least 2 atoms")
    seconds = []
    for rows in partition_rows(n_atoms, n_spes, strategy):
        pairs = rows.size * (n_atoms - 1)
        if pairs == 0:
            seconds.append(0.0)
            continue
        fraction = float(row_interacting[rows].sum()) / pairs
        metrics = {
            "pairs": float(pairs),
            "interacting_fraction": min(1.0, fraction),
            "reflect_take": reflect_take,
            "atoms": float(n_atoms),
        }
        report = estimate_cycles(program, SPE_COST_TABLE, metrics)
        seconds.append(report.total_cycles / clock_hz)
    return PartitionTiming(per_spe_seconds=tuple(seconds))
