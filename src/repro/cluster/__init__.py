"""Domain decomposition across a simulated cluster of device nodes.

ROADMAP item 3: the paper compares single devices, production MD
shards space.  This package slices the periodic box into K slabs, runs
one device cost model per slab, prices the per-step ghost exchange
through :class:`repro.arch.interconnect.ClusterFabric`, and overlaps
the exchange with interior force computation — so the repo can ask
"16 Cell blades vs 4 GPUs?", a question the paper could not.

The physics contract is absolute: every node count integrates with
the node device's own force path (:mod:`repro.cluster.machine`), so a
K-way run is **bit-identical** to the plain device model's run by
construction (``tests/cluster/test_equivalence.py`` checks it), and
the exchange ledger moves exactly the bytes the halo math demands
(``repro.obs.invariants`` checks it on every traced run).
"""

from repro.cluster.decomposition import (
    ExchangePlan,
    NodeDomain,
    SlabDecomposition,
)
from repro.cluster.machine import (
    CLUSTER_DEVICES,
    ClusterRunResult,
    ClusterStepLedger,
    SimulatedCluster,
)

__all__ = [
    "CLUSTER_DEVICES",
    "ClusterRunResult",
    "ClusterStepLedger",
    "ExchangePlan",
    "NodeDomain",
    "SimulatedCluster",
    "SlabDecomposition",
]
