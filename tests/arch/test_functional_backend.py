"""The functional force path against the dense all-pairs scan.

Every fast-mode device integrates through
:func:`repro.arch.device._functional_backend`: the pair list once its
grid of list-radius-wide cells has three cells per side (512 atoms and
up at the default density and cutoff), the dense ``all-pairs`` scan
below that.  Over 10-step trajectories it must give
``make_force_backend("all-pairs")``'s physics: the final state, the
interacting-pair counts and the per-row tallies bit for bit at every
size, and the potential energy bit for bit wherever ``compute_forces``
sums it by per-row prefix sums too (its cell branch, 1024 atoms and
up).  At 512 atoms ``compute_forces`` scans all columns and sums energy
pairwise per row block, so there the energy is held to a bound argued
from the term count instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import device as device_module
from repro.faults import FaultPlan, SiteSpec
from repro.gpu.device import GpuDevice
from repro.md import CellListForceBackend, MDConfig, MDSimulation, make_force_backend
from repro.md.forces import _lj_rows

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


def pe_bound(positions, config: MDConfig, result) -> float:
    """How far two summation orders of one evaluation's pair energies
    may put its potential energy apart.

    The list sums each row left to right (at most ``c_max`` terms) and
    then the rows pairwise; the dense scan sums 256-row blocks pairwise
    and then the blocks in turn.  Each order's first-order rounding
    error is at most its deepest chain of additions times ``eps`` times
    ``sum |e_ij|``, so the two differ by at most
    ``(c_max + 4 log2 N + 16) * eps * 0.5 * sum |e_ij|``.  An order-fixed
    dense energy sum (ROADMAP item 1's old 2a) would make it bitwise.
    """
    dtype = config.np_dtype
    box, potential = config.make_box(), config.make_potential()
    pos = np.asarray(positions, dtype=np.float64).astype(dtype)
    n = pos.shape[0]
    _, pair_pe, _ = _lj_rows(pos, pos, np.arange(n), box, potential)
    scale = 0.5 * float(np.abs(pair_pe).sum(dtype=np.float64))
    terms = int(result.row_interacting.max()) + 4 * np.log2(n) + 16
    return terms * float(np.finfo(dtype).eps) * scale


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
    if n_atoms == 512:
        for positions, got, want in zip(
            dense.positions, listed.results, dense.results
        ):
            assert abs(got.potential_energy - want.potential_energy) <= pe_bound(
                positions, config, want
            )
    else:
        assert [r.potential_energy.hex() for r in sim.records] == [
            r.potential_energy.hex() for r in reference.records
        ]


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
