"""The equivalence net: K-way decomposed runs equal the K=1 run bitwise.

This is the cluster analogue of ``tests/md/test_force_equivalence.py``:
the decomposition is only allowed to change *pricing*, never physics.
Every cell compares SHA-256 digests over the final positions,
velocities, and the per-step energy records — bit-identity, not
closeness.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import CLUSTER_DEVICES, SimulatedCluster
from repro.md.simulation import MDConfig

#: rcut must fit the half-box: 64 atoms needs a tighter cutoff.
_RCUT = {64: 1.9}


def _config(n_atoms: int, seed: int = 2007) -> MDConfig:
    return MDConfig(n_atoms=n_atoms, rcut=_RCUT.get(n_atoms, 2.5), seed=seed)


@functools.lru_cache(maxsize=None)
def _digest(device: str, n_nodes: int, n_atoms: int, n_steps: int,
            seed: int = 2007) -> str:
    cluster = SimulatedCluster(device=device, n_nodes=n_nodes)
    return cluster.run(_config(n_atoms, seed), n_steps).state_digest()


class TestBitIdentity:
    @pytest.mark.parametrize("device", CLUSTER_DEVICES)
    @pytest.mark.parametrize("n_nodes", [2, 4])
    def test_decomposed_run_matches_single_node(self, device, n_nodes):
        assert _digest(device, n_nodes, 128, 2) == _digest(device, 1, 128, 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("device", CLUSTER_DEVICES)
    def test_eight_nodes_match_at_larger_n(self, device):
        assert _digest(device, 8, 256, 3) == _digest(device, 1, 256, 3)

    @pytest.mark.parametrize("device", ["cell", "opteron"])
    def test_small_box_with_tight_cutoff_matches(self, device):
        """64 atoms: the slab width drops below the halo, so every node
        imports almost the whole box — the degenerate-overlap regime."""
        assert _digest(device, 4, 64, 2) == _digest(device, 1, 64, 2)


def _assert_plain_device_run(device: str, n_atoms: int, n_nodes: int) -> None:
    """The cluster's per-step records (PE, KE, interacting pairs) and its
    final state are the plain device model's, bit for bit."""
    from repro.cell.device import CellDevice
    from repro.opteron.device import OpteronDevice

    make = {"cell": CellDevice, "opteron": OpteronDevice}[device]
    config = _config(n_atoms)
    plain = make().run(config, 2)
    clustered = SimulatedCluster(device=device, n_nodes=n_nodes).run(config, 2)
    assert clustered.records == plain.records
    assert np.array_equal(clustered.final_positions, plain.final_positions)
    assert np.array_equal(clustered.final_velocities, plain.final_velocities)


class TestAgainstPlainDevices:
    """The cluster is not a third physics: it integrates with its node
    device's own force path, so at every K and N its records and state
    are the plain device model's."""

    @pytest.mark.parametrize("device", ["cell", "opteron"])
    @pytest.mark.parametrize("n_atoms", [128, 512])
    def test_one_node_cluster_is_the_plain_device_trajectory(
        self, device, n_atoms
    ):
        """128 and 512 atoms hold fewer than four cutoff-wide cells per
        side, so the kernel scans all columns and reduces energy per row
        block: the branch where only one shared kernel keeps PE equal."""
        _assert_plain_device_run(device, n_atoms, n_nodes=1)

    @pytest.mark.parametrize("device", ["cell", "opteron"])
    def test_one_node_cluster_matches_plain_device_at_sparse_size(self, device):
        """1024 atoms hold four cutoff-wide cells per side, so the kernel
        scans cell neighbourhoods; the K=1 node runs that same kernel."""
        _assert_plain_device_run(device, 1024, n_nodes=1)

    @pytest.mark.parametrize("device", ["cell", "opteron"])
    @pytest.mark.parametrize("n_atoms", [128, 512, 1024])
    def test_decomposed_positions_match_plain_device(self, device, n_atoms):
        """K = 4 moves only the pricing: records and state stay the
        plain device's on both kernel branches."""
        _assert_plain_device_run(device, n_atoms, n_nodes=4)


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(
    device=st.sampled_from(CLUSTER_DEVICES),
    n_nodes=st.sampled_from([2, 4, 8]),
    n_atoms=st.sampled_from([64, 128]),
    seed=st.integers(min_value=1, max_value=2**16),
)
def test_equivalence_holds_for_random_cells(device, n_nodes, n_atoms, seed):
    """Property net over (device, K, N, seed): decomposition never
    perturbs the trajectory, whatever the cell."""
    assert _digest(device, n_nodes, n_atoms, 2, seed) == _digest(
        device, 1, n_atoms, 2, seed
    )
