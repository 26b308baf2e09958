"""End-to-end tests of the experiment modules at small scale.

These are smoke + structure tests: the paper-shape bands themselves are
asserted at full scale by the benchmark suite; here we verify that each
experiment runs, produces the right table structure, and that the
scale-independent checks hold.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations, fig5_simd, fig6_launch, fig7_gpu
from repro.experiments import fig8_mta, fig9_scaling, table1_perf
from repro.experiments.common import (
    ExperimentResult,
    ShapeCheck,
    check_band,
    normalized_component,
    normalized_total,
    run_device,
)
from repro.experiments.paperdata import SHAPE_BANDS
from repro.opteron import OpteronDevice


class TestShapeCheck:
    def test_pass_fail(self):
        check = ShapeCheck("k", 1.5, 1.0, 2.0, 1.4, "d")
        assert check.passed
        assert "PASS" in str(check)
        bad = ShapeCheck("k", 5.0, 1.0, 2.0, 1.4, "d")
        assert not bad.passed

    def test_check_band_lookup(self):
        check = check_band("fig5_copysign_gain", 1.05)
        assert check.passed
        with pytest.raises(KeyError):
            check_band("nonexistent", 1.0)

    def test_bands_are_well_formed(self):
        for key, band in SHAPE_BANDS.items():
            assert band.low < band.high, key


class TestNormalization:
    def test_normalized_total_preserves_first_step_cost(self):
        result, scaled = run_device(
            __import__("repro.cell", fromlist=["CellDevice"]).CellDevice(n_spes=2),
            128,
            2,
            normalize_steps=10,
        )
        first = result.step_seconds[0]
        steady = result.step_seconds[1]
        assert scaled == pytest.approx(first + 9 * steady)

    def test_normalized_component(self):
        from repro.cell import CellDevice

        result = CellDevice(n_spes=2).run(
            __import__("repro.md", fromlist=["MDConfig"]).MDConfig(n_atoms=128), 2
        )
        launch10 = normalized_component(result, "thread_launch", 10)
        # launch-once: charged on step 0 only, so no scaling
        assert launch10 == pytest.approx(result.component("thread_launch"))
        total10 = normalized_total(result, 10)
        assert total10 > result.total_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            run_device(OpteronDevice(), 128, 0)


class TestExperimentsSmallScale:
    def _assert_structure(self, result: ExperimentResult):
        assert result.rows
        assert all(len(row) == len(result.headers) for row in result.rows)
        assert result.render()

    def test_fig5(self):
        result = fig5_simd.run(n_atoms=256, n_steps=2)
        self._assert_structure(result)
        # the ladder rows must be monotonically non-increasing in runtime
        seconds = [row[1] for row in result.rows]
        assert all(b <= a * 1.001 for a, b in zip(seconds, seconds[1:]))

    def test_fig6(self):
        result = fig6_launch.run(n_atoms=1024, n_steps=2)
        self._assert_structure(result)

    def test_table1(self):
        result = table1_perf.run(n_atoms=1024, n_steps=2)
        self._assert_structure(result)
        assert len(result.rows) == 4

    def test_fig7(self):
        result = fig7_gpu.run(atom_counts=(256, 512), n_steps=2)
        self._assert_structure(result)
        assert result.plot is not None

    def test_fig8(self):
        result = fig8_mta.run(atom_counts=(256, 512), n_steps=2)
        self._assert_structure(result)
        slowdowns = [row[3] for row in result.rows]
        assert all(s > 10 for s in slowdowns)

    def test_fig9(self):
        result = fig9_scaling.run(atom_counts=(256, 512, 1024), n_steps=2)
        self._assert_structure(result)
        assert result.rows[0][1] == pytest.approx(1.0)  # normalized at base

    def test_fig9_requires_256_base(self):
        with pytest.raises(ValueError):
            fig9_scaling.run(atom_counts=(512, 1024), n_steps=2)

    def test_fig9_runs_only_the_all_pairs_force_path(self):
        with pytest.raises(ValueError, match="all-pairs force path only"):
            fig9_scaling.run(atom_counts=(256, 512), n_steps=1, force_path="cell")
        pinned = fig9_scaling.run(
            atom_counts=(256, 512), n_steps=1, force_path="all-pairs"
        )
        assert pinned == fig9_scaling.run(atom_counts=(256, 512), n_steps=1)

    def test_ablation_neighborlist(self):
        result = ablations.run_neighborlist(n_atoms=256, n_steps=5)
        self._assert_structure(result)
        assert result.all_passed

    def test_ablation_gpu_reduction(self):
        result = ablations.run_gpu_reduction(n_atoms=256)
        self._assert_structure(result)
        assert result.all_passed

    def test_ablation_xmt(self):
        result = ablations.run_xmt_projection(n_atoms=256, n_steps=2)
        self._assert_structure(result)

    def test_ablation_precision(self):
        result = ablations.run_precision(n_atoms=256)
        self._assert_structure(result)
        assert result.all_passed
