"""List-build scaling, production search vs O(N^2) reference — the O(N)
win, measured.

The acceptance bar for the production pair search (the linked-cell
``build_pairs_cells``): at N = 16384 it must build the same pair list at
least 5x faster than the O(N^2) reference scan ``build_pairs`` (it lands
around 30-50x on commodity hardware).
A second test checks the *asymptotic* shape: doubling N must grow the
cell-list build far slower than the ~4x an O(N^2) scan pays.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.md.box import PeriodicBox
from repro.md.celllist import build_pairs_cells
from repro.md.lattice import cubic_lattice
from repro.md.neighborlist import build_pairs

#: The paper's liquid density and a pair-list radius (rcut + skin).
_DENSITY = 0.8442
_RADIUS = 2.8


def _positions(n: int) -> tuple[PeriodicBox, np.ndarray]:
    box = PeriodicBox.from_density(n, _DENSITY)
    rng = np.random.default_rng(n)
    return box, box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.1, (n, 3)))


def _best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestCellListScaling:
    def test_cell_build_5x_faster_at_16384(self):
        n = 16384
        box, positions = _positions(n)
        # warm both paths (allocator, caches) before timing
        small_box, small_positions = _positions(512)
        build_pairs(small_positions, small_box, _RADIUS)
        build_pairs_cells(small_positions, small_box, _RADIUS)

        scan_s = _best_of(lambda: build_pairs(positions, box, _RADIUS), repeats=1)
        cell_s = _best_of(lambda: build_pairs_cells(positions, box, _RADIUS))
        speedup = scan_s / cell_s
        print(
            f"\nN={n}: blocked scan {scan_s:.3f}s, cell list {cell_s:.3f}s, "
            f"speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0

        # same pair list, bit for bit
        np.testing.assert_array_equal(
            build_pairs(positions, box, _RADIUS),
            build_pairs_cells(positions, box, _RADIUS),
        )

    def test_cell_build_scales_subquadratically(self):
        sizes = (8192, 16384)
        times = []
        for n in sizes:
            box, positions = _positions(n)
            build_pairs_cells(positions, box, _RADIUS)  # warm
            times.append(_best_of(lambda: build_pairs_cells(positions, box, _RADIUS)))
        growth = times[1] / times[0]
        print(f"\ncell-list build growth {sizes[0]}->{sizes[1]}: {growth:.2f}x")
        # O(N^2) would be ~4x; O(N) is ~2x. Allow generous noise headroom.
        assert growth < 3.0

    @pytest.mark.parametrize("n", (2048, 8192))
    def test_pair_sets_identical_at_scale(self, n):
        box, positions = _positions(n)
        np.testing.assert_array_equal(
            build_pairs(positions, box, _RADIUS),
            build_pairs_cells(positions, box, _RADIUS),
        )
