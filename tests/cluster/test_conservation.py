"""Ghost-exchange conservation: ledger, counters, spans all reconcile."""

from __future__ import annotations

import pytest

from repro.cluster.machine import (
    SimulatedCluster,
    ghost_bytes_per_atom,
    migration_bytes_per_atom,
)
from repro.md.simulation import MDConfig
from repro.obs.invariants import (
    cluster_conservation_problems,
    monotonic_step_problems,
    span_nesting_problems,
)
from repro.obs.observe import Observation

CONFIG = MDConfig(n_atoms=128)


@pytest.fixture(scope="module")
def traced_run():
    """One traced 2-node cell run shared by the whole module."""
    cluster = SimulatedCluster(device="cell", n_nodes=2)
    obs = Observation(device=cluster.name)
    result = cluster.run(CONFIG, 3, observe=obs)
    return obs, result


class TestConservation:
    def test_traced_run_passes_the_audit(self, traced_run):
        obs, result = traced_run
        assert cluster_conservation_problems(result.counters, result) == []

    @pytest.mark.parametrize("device,n_nodes", [
        ("gpu", 4), ("opteron", 2), ("mta", 2),
    ])
    def test_audit_passes_across_devices(self, device, n_nodes):
        cluster = SimulatedCluster(device=device, n_nodes=n_nodes)
        obs = Observation(device=cluster.name)
        result = cluster.run(CONFIG, 2, observe=obs)
        assert cluster_conservation_problems(result.counters, result) == []

    def test_ledger_decomposes_into_ghosts_and_migration(self, traced_run):
        _, result = traced_run
        bpa = ghost_bytes_per_atom("float32")
        assert result.bytes_per_atom == bpa
        for entry in result.ledger:
            assert entry.bytes_sent == entry.bytes_received
            assert entry.bytes_sent == (
                entry.ghost_atoms * bpa
                + entry.migrate_atoms * migration_bytes_per_atom("float32")
            )

    def test_counters_match_the_ledger_totals(self, traced_run):
        _, result = traced_run
        assert result.counters["cluster.exchange.bytes_sent"] == sum(
            e.bytes_sent for e in result.ledger
        )
        assert result.counters["cluster.ghost.atoms"] == sum(
            e.ghost_atoms for e in result.ledger
        )
        assert result.counters["cluster.nodes"] == result.n_nodes
        assert result.counters["step.count"] == result.n_steps

    def test_audit_flags_a_tampered_counter(self, traced_run):
        _, result = traced_run
        bad = dict(result.counters)
        bad["cluster.exchange.bytes_sent"] += 1
        assert cluster_conservation_problems(bad, result) != []


class TestTracing:
    def test_spans_nest_within_their_steps(self, traced_run):
        obs, _ = traced_run
        assert span_nesting_problems(obs.tracer) == []
        assert monotonic_step_problems(obs.tracer) == []

    def test_every_node_gets_a_lane(self, traced_run):
        obs, result = traced_run
        lanes = {span.lane for span in obs.tracer.spans}
        assert "step" in lanes
        assert "fabric" in lanes
        for rank in range(result.n_nodes):
            assert f"node{rank}" in lanes

    def test_exchange_time_splits_into_hidden_and_exposed(self, traced_run):
        _, result = traced_run
        for entry in result.ledger:
            assert entry.hidden_seconds >= 0.0
            assert entry.exposed_seconds >= 0.0
            assert entry.hidden_seconds + entry.exposed_seconds == pytest.approx(
                entry.exchange_seconds
            )

    @pytest.mark.parametrize("n_atoms,n_nodes,fully_hidden", [
        (2048, 2, True),  # wide slabs: interior rows cover the exchange
        (256, 4, False),  # slabs narrower than the halo: no interior rows
    ])
    def test_exchange_split_is_exact_at_the_extremes(
        self, n_atoms, n_nodes, fully_hidden
    ):
        cluster = SimulatedCluster(device="opteron", n_nodes=n_nodes)
        result = cluster.run(MDConfig(n_atoms=n_atoms), 2)
        for entry in result.ledger:
            assert entry.exchange_seconds > 0.0
            if fully_hidden:
                assert entry.hidden_seconds == entry.exchange_seconds
                assert entry.exposed_seconds == 0.0
            else:
                assert entry.hidden_seconds == 0.0
                assert entry.exposed_seconds == entry.exchange_seconds
