"""Cluster fault plane: link drops and stragglers cost time, not physics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster.machine import SimulatedCluster
from repro.faults import FaultPlan, load_plan_arg
from repro.faults.plan import FAULT_SITES
from repro.md.simulation import MDConfig

CONFIG = MDConfig(n_atoms=128)


def _run(n_nodes=2, device="opteron", faults=None, n_steps=4):
    cluster = SimulatedCluster(device=device, n_nodes=n_nodes)
    return cluster.run(CONFIG, n_steps, faults=faults)


class TestSites:
    def test_cluster_sites_are_registered(self):
        assert "cluster.link.drop" in FAULT_SITES
        assert "cluster.node.straggler" in FAULT_SITES

    def test_cluster_storm_preset(self):
        plan = FaultPlan.cluster_storm()
        assert plan.sites["cluster.link.drop"].rate > 0.0
        assert plan.sites["cluster.node.straggler"].rate > 0.0
        assert plan.sites["cluster.node.straggler"].payload["factor"] > 1.0
        assert not plan.is_zero

    def test_load_plan_arg_accepts_cluster_storm(self):
        assert (
            load_plan_arg("cluster-storm").canonical_json()
            == FaultPlan.cluster_storm().canonical_json()
        )


class TestDeterminism:
    def test_same_plan_twice_is_byte_identical(self):
        plan = FaultPlan.cluster_storm()
        first = _run(faults=plan)
        second = _run(faults=plan)
        assert first.state_digest() == second.state_digest()
        assert first.step_seconds == second.step_seconds
        assert json.dumps(first.fault_events, sort_keys=True) == json.dumps(
            second.fault_events, sort_keys=True
        )

    def test_zero_rate_plan_is_free(self):
        clean = _run(faults=None)
        armed = _run(faults=FaultPlan.none())
        assert armed.step_seconds == clean.step_seconds
        assert armed.state_digest() == clean.state_digest()
        assert armed.fault_events == ()


class TestRecovery:
    def test_faults_never_perturb_the_trajectory(self):
        plan = FaultPlan.cluster_storm()
        clean = _run(faults=None)
        faulted = _run(faults=plan)
        assert np.array_equal(
            faulted.final_positions, clean.final_positions
        )
        assert np.array_equal(
            faulted.final_velocities, clean.final_velocities
        )

    def test_injected_faults_are_charged_and_accounted(self):
        plan = FaultPlan.cluster_storm()
        clean = _run(faults=None, n_steps=6)
        faulted = _run(faults=plan, n_steps=6)
        summary = faulted.fault_summary
        assert summary["injected"] > 0
        assert summary["fully_accounted"]
        assert faulted.total_seconds > clean.total_seconds
        assert faulted.breakdown.get("fault_recovery", 0.0) > 0.0

    def test_only_cluster_sites_fire(self):
        plan = FaultPlan.cluster_storm()
        faulted = _run(faults=plan, n_steps=6)
        sites = {event["site"] for event in faulted.fault_events}
        assert sites
        assert sites <= {"cluster.link.drop", "cluster.node.straggler"}


class TestValidation:
    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown cluster device"):
            SimulatedCluster(device="cray")

    def test_non_positive_nodes_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            SimulatedCluster(device="cell", n_nodes=0)

    def test_mismatched_fabric_rejected(self):
        from repro.arch.interconnect import make_cluster_fabric

        with pytest.raises(ValueError, match="fabric"):
            SimulatedCluster(
                device="cell", n_nodes=4, fabric=make_cluster_fabric(2, "switch")
            )

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="n_steps"):
            SimulatedCluster(device="cell").run(CONFIG, -1)

    def test_non_positive_halo_skin_rejected(self):
        with pytest.raises(ValueError, match="halo_skin"):
            SimulatedCluster(device="cell", halo_skin=0.0)

    def test_zero_step_run_is_empty(self):
        result = SimulatedCluster(device="opteron", n_nodes=2).run(
            CONFIG, 0, observe=False
        )
        assert result.step_seconds == ()
        assert result.seconds_per_step == 0.0
        assert result.ledger == ()

    def test_ledger_round_trips_to_dict(self):
        result = _run(n_steps=1)
        entry = result.ledger[0].to_dict()
        assert entry["bytes_sent"] == result.ledger[0].bytes_sent
        assert set(entry) >= {"ghost_atoms", "exchange_seconds"}
