"""Microbenchmarks of this library's own hot kernels (real wall time).

These complement the paper-artifact benchmarks: they time the NumPy
force kernels and the VM interpreter so regressions in the
reproduction's substrate are caught by pytest-benchmark's statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell import build_spe_kernel, kernel_constants
from repro.cell.kernels import OPT_LEVELS
from repro.md import (
    MDConfig,
    compute_forces,
    compute_forces_27image,
    make_force_backend,
)
from repro.md.celllist import _pair_table, default_skin
from repro.md.forces import compute_pair_forces
from repro.md.lattice import cubic_lattice
from repro.vm.bench import bench_kernels, speedups
from repro.vm.sweep import PairSweep

CONFIG = MDConfig(n_atoms=1024)
BOX = CONFIG.make_box()
POTENTIAL = CONFIG.make_potential()
POSITIONS = cubic_lattice(CONFIG.n_atoms, BOX)

#: The paper's 2048-atom system and its pair-list radius, rcut + skin.
LIST_CONFIG = MDConfig(n_atoms=2048)
LIST_BOX = LIST_CONFIG.make_box()
LIST_POTENTIAL = LIST_CONFIG.make_potential()
LIST_POSITIONS = cubic_lattice(LIST_CONFIG.n_atoms, LIST_BOX)
LIST_RADIUS = LIST_POTENTIAL.rcut + default_skin(LIST_BOX, LIST_POTENTIAL)


def test_bench_allpairs_float64(benchmark):
    """The dense O(N^2) oracle at 1024 atoms.  No production path runs
    it at this size: the functional path runs the pair list from 512."""
    result = benchmark(compute_forces, POSITIONS, BOX, POTENTIAL)
    assert result.interacting_pairs > 0


def test_bench_allpairs_float32(benchmark):
    """The dense O(N^2) oracle in float32, as for float64 above."""
    result = benchmark(
        compute_forces, POSITIONS, BOX, POTENTIAL, dtype=np.float32
    )
    assert result.interacting_pairs > 0


def test_bench_27image_search(benchmark):
    small = POSITIONS[:256]
    result = benchmark(compute_forces_27image, small, BOX, POTENTIAL)
    assert result.interacting_pairs > 0


def test_bench_neighborlist(benchmark):
    backend = make_force_backend("verlet", BOX, POTENTIAL, skin=0.3)
    backend(POSITIONS)  # build the list; the timed calls reuse it

    result = benchmark(backend, POSITIONS)
    assert result.interacting_pairs > 0


def test_bench_pair_table_2048(benchmark):
    """One fresh 2048-atom pair-list search, the build behind every
    ``CellList`` rebuild; calling the search itself bypasses the shared
    tables, so every round builds."""
    table = benchmark(_pair_table, LIST_POSITIONS, LIST_BOX, LIST_RADIUS)
    assert table.n_pairs > 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bench_pair_forces_2048(benchmark, dtype):
    """One 2048-atom force evaluation over the pair list's table."""
    table = _pair_table(LIST_POSITIONS, LIST_BOX, LIST_RADIUS)
    result = benchmark(
        compute_pair_forces, LIST_POSITIONS, table, LIST_BOX, LIST_POTENTIAL,
        dtype=dtype,
    )
    assert result.interacting_pairs > 0


@pytest.mark.parametrize("backend", ["interp", "fused"])
def test_bench_vm_spe_kernel(benchmark, backend):
    """Batched VM execution of the fully-SIMDized SPE kernel, per backend."""
    program = build_spe_kernel("simd_acceleration", BOX.length)
    sweep = PairSweep(program, exec_backend=backend)
    constants = kernel_constants(POTENTIAL)
    positions = POSITIONS[:256]
    rows = np.arange(64)

    def run():
        return sweep.run(positions, constants, rows=rows)

    acc, _pe = benchmark(run)
    assert np.isfinite(acc).all()


@pytest.mark.parametrize("backend", ["interp", "fused"])
def test_bench_vm_original_kernel(benchmark, backend):
    """The scalar fig5 'original' kernel: the interpreter's worst case."""
    program = build_spe_kernel("original", BOX.length)
    sweep = PairSweep(program, exec_backend=backend)
    constants = kernel_constants(POTENTIAL)
    positions = POSITIONS[:256]
    rows = np.arange(64)

    def run():
        return sweep.run(positions, constants, rows=rows)

    acc, _pe = benchmark(run)
    assert np.isfinite(acc).all()


def test_fused_backend_speedup_on_fig5_ladder():
    """Acceptance gate: >= 2x pairs/sec for fused on every fig5 kernel.

    Uses the same measurement that writes BENCH_vm.json
    (scripts/record_bench.py), best-of-3 on identical inputs.
    """
    results = bench_kernels(
        kernels=[f"spe:{level}" for level in OPT_LEVELS],
        batch=1024, repeats=5,
    )
    ratios = speedups(results)
    assert set(ratios) == {f"spe:{level}" for level in OPT_LEVELS}
    slow = {k: round(v, 2) for k, v in ratios.items() if v < 2.0}
    assert not slow, f"fused backend below 2x on: {slow}"
