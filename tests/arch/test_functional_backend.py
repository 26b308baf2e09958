"""The functional force path against the dense all-pairs scan.

Every fast-mode device integrates through
:func:`repro.arch.device._functional_backend`: the pair list once its
grid of list-radius-wide cells has three cells per side (512 atoms and
up at the default density and cutoff), the dense ``all-pairs`` scan
below that.  Over 10-step trajectories it must give
``make_force_backend("all-pairs")``'s physics: the final state, the
interacting-pair counts and the per-row tallies bit for bit at every
size.  Where the list runs, each evaluation's potential energy equals
the order-fixed prefix-sum oracle's bit for bit, and the dense scan's
pairwise energy is held to that oracle within the term-count bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import device as device_module
from repro.faults import FaultPlan, SiteSpec
from repro.gpu.device import GpuDevice
from repro.md import (
    CellListForceBackend,
    MDConfig,
    MDSimulation,
    compute_forces,
    make_force_backend,
)
from repro.md.lattice import cubic_lattice
from tests.md.pe_oracle import pe_tolerance, prefix_oracle

STEPS = 10
SIZES = (128, 256, 512, 1024, 2048)


class Recording:
    """A force backend that keeps every result and the positions it saw."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.results = []
        self.positions = []

    def __call__(self, positions: np.ndarray):
        result = self.backend(positions)
        self.results.append(result)
        self.positions.append(np.array(positions, copy=True))
        return result


def integrate(config: MDConfig, backend: Recording) -> MDSimulation:
    sim = MDSimulation(config, force_backend=backend)
    sim.run(STEPS)
    return sim


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("n_atoms", SIZES)
def test_functional_path_is_the_all_pairs_trajectory(n_atoms, dtype):
    config = MDConfig(n_atoms=n_atoms, dtype=dtype)
    box, potential = config.make_box(), config.make_potential()
    production = device_module._functional_backend(box, potential, config.np_dtype)
    # the size rule: the list from three list-radius-wide cells per side
    assert isinstance(production, CellListForceBackend) == (n_atoms >= 512)
    listed = Recording(production)
    dense = Recording(
        make_force_backend("all-pairs", box, potential, dtype=config.np_dtype)
    )
    sim = integrate(config, listed)
    reference = integrate(config, dense)

    assert sim.state.positions.tobytes() == reference.state.positions.tobytes()
    assert sim.state.velocities.tobytes() == reference.state.velocities.tobytes()
    assert len(listed.results) == len(dense.results) == STEPS + 1
    for got, want in zip(listed.results, dense.results):
        assert got.interacting_pairs == want.interacting_pairs
        assert np.array_equal(got.row_interacting, want.row_interacting)
        assert got.accelerations.tobytes() == want.accelerations.tobytes()
    for got, want in zip(sim.records, reference.records):
        assert got.interacting_pairs == want.interacting_pairs
        assert got.kinetic_energy.hex() == want.kinetic_energy.hex()
    if n_atoms >= 512:
        for positions, got, want in zip(
            listed.positions, listed.results, dense.results
        ):
            pe, row_interacting, scale = prefix_oracle(
                positions, box, potential, config.np_dtype
            )
            assert got.potential_energy.hex() == pe.hex()
            assert abs(want.potential_energy - pe) <= pe_tolerance(
                config.np_dtype, row_interacting, scale
            )
    else:
        assert [r.potential_energy.hex() for r in sim.records] == [
            r.potential_energy.hex() for r in reference.records
        ]


# binning a NaN coordinate warns; the clip keeps its cell id in range
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reused"])
def test_non_finite_positions_reach_the_caller_on_the_list_path(reuse):
    """A diverged state must still come back as non-finite forces, with
    the dense scan's pair count, whether the list is built from it or
    reused across it."""
    config = MDConfig(n_atoms=1024)
    box, potential = config.make_box(), config.make_potential()
    backend = device_module._functional_backend(box, potential, config.np_dtype)
    assert isinstance(backend, CellListForceBackend)
    positions = cubic_lattice(config.n_atoms, box)
    if reuse:
        backend(positions)
    positions[7] = np.nan
    result = backend(positions)
    assert (backend.rebuild_count, backend.reuse_count) == (1, int(reuse))
    assert not np.isfinite(result.accelerations).all()
    dense = compute_forces(positions, box, potential, dtype=config.np_dtype)
    assert result.interacting_pairs == dense.interacting_pairs


def test_list_path_resumes_from_a_checkpoint_as_if_uninterrupted():
    """A silent flip escapes the guard on the list path; the watchdog
    rewinds to a checkpoint, and the resumed run ends where the
    uninterrupted one does."""
    config = MDConfig(n_atoms=1024)
    plan = FaultPlan(
        sites={"vm.bitflip": SiteSpec(schedule=(4,), payload={"severity": "silent"})},
        checkpoint_interval=2,
    )
    device_module._trajectory.cache_clear()
    clean = GpuDevice().run(config, STEPS)
    resumed = GpuDevice().run(config, STEPS, faults=plan)
    assert resumed.fault_summary["restores"] >= 1
    assert resumed.fault_summary["fully_accounted"]
    assert resumed.final_positions.tobytes() == clean.final_positions.tobytes()
    assert resumed.final_velocities.tobytes() == clean.final_velocities.tobytes()
    assert [r.potential_energy.hex() for r in resumed.records] == [
        r.potential_energy.hex() for r in clean.records
    ]
