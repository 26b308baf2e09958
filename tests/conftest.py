"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.md import MDConfig, cubic_lattice


@pytest.fixture
def small_config() -> MDConfig:
    """A fast workload whose box still accommodates the 2.5-sigma cutoff."""
    return MDConfig(n_atoms=128)


@pytest.fixture
def small_system(small_config):
    """(config, box, potential, positions) for a 128-atom lattice."""
    box = small_config.make_box()
    potential = small_config.make_potential()
    positions = cubic_lattice(small_config.n_atoms, box)
    return small_config, box, potential, positions


@pytest.fixture
def fixed_ensemble_timings(monkeypatch):
    """Fixed timings for the ``ensemble`` experiment's throughput ladder.

    Plumbing tests run that experiment inline, and its host-timed
    speedup band can fail on a busy host; these timings put batched at
    4x sequential.  The rest of the experiment (bit-identity, counter
    additivity) still runs for real, and the speedup itself is gated on
    real timings by ``benchmarks/test_ensemble_throughput.py`` and
    ``scripts/record_bench.py --ensemble --check``.
    """
    from repro.experiments import ensemble
    from repro.vm.bench import EnsembleBench

    def bench_ensemble(replica_counts, rows_per_replica, repeats, **_kwargs):
        return [
            EnsembleBench(mode, r, rows_per_replica, (seconds * r,) * repeats)
            for r in replica_counts
            for mode, seconds in (
                ("fused-sequential", 4e-3), ("fused-batched", 1e-3)
            )
        ]

    monkeypatch.setattr(ensemble, "bench_ensemble", bench_ensemble)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20070326)  # IPDPS 2007 conference date
