"""Slab decomposition: ownership, halo demand, messages, migration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.decomposition import (
    DEFAULT_HALO_SKIN,
    SlabDecomposition,
)
from repro.cluster.machine import SimulatedCluster
from repro.md import MDConfig, cubic_lattice
from repro.md.box import PeriodicBox
from repro.obs.invariants import cluster_halo_problems
from repro.obs.observe import Observation


def _decomposition(config: MDConfig, n_nodes: int) -> SlabDecomposition:
    box = config.make_box()
    potential = config.make_potential()
    halo = min(potential.rcut + DEFAULT_HALO_SKIN, box.half_length)
    return SlabDecomposition(box, n_nodes, halo)


class TestOwnership:
    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8])
    def test_owned_sets_partition_the_atoms(self, small_system, n_nodes):
        config, _, _, positions = small_system
        deco = _decomposition(config, n_nodes)
        plan = deco.plan(positions)
        owned = np.concatenate([d.owned for d in plan.domains])
        owned.sort()
        assert np.array_equal(owned, np.arange(config.n_atoms))

    def test_owner_ranks_in_range(self, small_system):
        config, _, _, positions = small_system
        deco = _decomposition(config, 4)
        owners = deco.owners(positions)
        assert owners.min() >= 0 and owners.max() < 4

    def test_ownership_depends_only_on_x(self, small_system):
        config, box, _, positions = small_system
        deco = _decomposition(config, 4)
        shifted = positions.copy()
        shifted[:, 1:] += 0.37 * box.length  # y/z moves never change slabs
        assert np.array_equal(deco.owners(positions), deco.owners(shifted))


class TestHalo:
    @pytest.mark.parametrize("n_nodes", [2, 4, 8])
    def test_plan_satisfies_the_halo_audit(self, small_system, n_nodes):
        config, box, potential, positions = small_system
        deco = _decomposition(config, n_nodes)
        plan = deco.plan(positions)
        assert (
            cluster_halo_problems(
                box,
                positions,
                n_nodes,
                deco.halo_width,
                plan,
                rcut=potential.rcut,
            )
            == []
        )

    def test_ghosts_disjoint_from_owned_and_local_sorted(self, small_system):
        config, _, _, positions = small_system
        plan = _decomposition(config, 4).plan(positions)
        for domain in plan.domains:
            assert not np.intersect1d(domain.owned, domain.ghosts).size
            assert np.array_equal(domain.local, np.sort(domain.local))
            assert np.isin(domain.owned, domain.local).all()

    def test_interior_rows_are_deep_enough(self, small_system):
        config, box, _, positions = small_system
        deco = _decomposition(config, 2)
        plan = deco.plan(positions)
        x = box.wrap(positions)[:, 0]
        for domain in plan.domains:
            start = domain.rank * deco.slab_width
            end = start + deco.slab_width
            depth = np.minimum(x[domain.interior] - start, end - x[domain.interior])
            assert (depth >= deco.halo_width).all()

    def test_single_node_needs_no_ghosts(self, small_system):
        config, _, _, positions = small_system
        plan = _decomposition(config, 1).plan(positions)
        (domain,) = plan.domains
        assert domain.n_ghosts == 0
        assert np.array_equal(domain.interior, domain.owned)
        assert plan.messages == ()
        assert plan.ghost_atoms == 0


class TestRunPlans:
    """The machine reads each node's pair count from the global per-row
    tally, which equals the node's owned × local count only if the halo
    holds every within-cutoff partner — so audit every plan a run builds,
    not just one fixture's."""

    @pytest.mark.parametrize("n_nodes", [2, 4, 8])
    @pytest.mark.parametrize("n_atoms,rcut", [(128, 2.5), (64, 1.9)])
    def test_every_plan_of_a_run_covers_the_cutoff(
        self, monkeypatch, n_atoms, rcut, n_nodes
    ):
        plans = []
        build = SlabDecomposition.plan

        def recording_plan(self, positions):
            plan = build(self, positions)
            plans.append((np.array(positions, copy=True), plan))
            return plan

        monkeypatch.setattr(SlabDecomposition, "plan", recording_plan)
        config = MDConfig(n_atoms=n_atoms, rcut=rcut)
        cluster = SimulatedCluster(device="cell", n_nodes=n_nodes)
        result = cluster.run(config, 3, observe=Observation(device=cluster.name))

        assert len(plans) == 4  # the initial evaluation plus one per step
        for positions, plan in plans:
            assert (
                cluster_halo_problems(
                    config.make_box(),
                    positions,
                    n_nodes,
                    result.halo_width,
                    plan,
                    rcut=rcut,
                )
                == []
            )
        assert result.counters["pairs.interacting"] == 2 * sum(
            record.interacting_pairs for record in result.records[1:]
        )


class TestMessages:
    def test_messages_tally_the_ghost_imports(self, small_system):
        config, _, _, positions = small_system
        plan = _decomposition(config, 4).plan(positions)
        assert sum(m[2] for m in plan.messages) == plan.ghost_atoms
        assert plan.messages == tuple(
            sorted(plan.messages, key=lambda m: (m[1], m[0]))
        )
        for src, dst, n_atoms in plan.messages:
            assert src != dst
            assert n_atoms > 0

    def test_message_bytes_scales_atom_counts(self, small_system):
        config, _, _, positions = small_system
        plan = _decomposition(config, 2).plan(positions)
        priced = plan.message_bytes(16)
        assert [m[2] * 16 for m in plan.messages] == [m[2] for m in priced]


class TestMigration:
    def test_no_movement_means_no_messages(self):
        deco = SlabDecomposition(PeriodicBox(10.0), 2, 1.0)
        owners = np.array([0, 0, 1, 1])
        assert deco.migration_messages(owners, owners) == ()

    def test_handoffs_are_tallied_per_rank_pair(self):
        deco = SlabDecomposition(PeriodicBox(10.0), 2, 1.0)
        prev = np.array([0, 0, 1, 1, 0])
        cur = np.array([1, 0, 0, 1, 1])
        assert deco.migration_messages(prev, cur) == ((1, 0, 1), (0, 1, 2))


class TestValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError, match="n_nodes"):
            SlabDecomposition(PeriodicBox(10.0), 0, 1.0)

    def test_rejects_non_positive_halo(self):
        with pytest.raises(ValueError, match="halo_width"):
            SlabDecomposition(PeriodicBox(10.0), 2, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    n_nodes=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_configurations_pass_the_halo_audit(n_nodes, seed):
    """Any jittered lattice yields a plan covering the cutoff demand."""
    config = MDConfig(n_atoms=128)
    box = config.make_box()
    potential = config.make_potential()
    rng = np.random.default_rng(seed)
    positions = cubic_lattice(config.n_atoms, box) + rng.uniform(
        -0.3, 0.3, size=(config.n_atoms, 3)
    )
    halo = min(potential.rcut + DEFAULT_HALO_SKIN, box.half_length)
    deco = SlabDecomposition(box, n_nodes, halo)
    plan = deco.plan(positions)
    assert (
        cluster_halo_problems(
            box, positions, n_nodes, halo, plan, rcut=potential.rcut
        )
        == []
    )
