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
from repro.md.lattice import cubic_lattice
from repro.vm.bench import bench_kernels, speedups
from repro.vm.sweep import PairSweep

CONFIG = MDConfig(n_atoms=1024)
BOX = CONFIG.make_box()
POTENTIAL = CONFIG.make_potential()
POSITIONS = cubic_lattice(CONFIG.n_atoms, BOX)


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
