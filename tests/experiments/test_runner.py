"""Tests for the experiment runner CLI."""

from __future__ import annotations

import pytest

from repro.experiments import runner


class TestRoster:
    def test_full_roster_covers_every_artifact(self):
        from repro.experiments.registry import EXPERIMENTS

        assert len(EXPERIMENTS) == 19
        assert all(callable(spec.resolve()) for spec in EXPERIMENTS)

    def test_quick_roster_same_length(self):
        # --quick shrinks each experiment's systems, never the roster
        from repro.harness.api import jobs_from_registry

        quick = [job.experiment_id for job in jobs_from_registry(quick=True)]
        full = [job.experiment_id for job in jobs_from_registry(quick=False)]
        assert quick == full
        assert len(full) == 19


class TestCli:
    def test_only_filter_runs_one_experiment(self, capsys):
        exit_code = runner.main(["--quick", "--only", "abl-precision"])
        out = capsys.readouterr().out
        assert "abl-precision" in out
        assert "fig7" not in out
        assert exit_code == 0

    def test_module_main_entry(self):
        import repro.__main__  # noqa: F401 - import must succeed

    def test_bad_flag_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["--bogus"])

    def test_unknown_only_id_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["--only", "fig99"])

    def test_list_prints_roster_without_running(self, capsys):
        exit_code = runner.main(["--list"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for eid in ("fig5", "table1", "abl-precision"):
            assert eid in out
        assert "SIMD optimization ladder" in out
        assert "PASS" not in out  # listing must not execute experiments


class TestVmExecFlag:
    def test_invalid_backend_rejected(self, capsys):
        # The VM backend is not a runner option: every value is rejected.
        for backend in ("fused", "vectorised"):
            with pytest.raises(SystemExit):
                runner.main(["--list", "--vm-exec", backend])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_force_path_rejected(self, capsys):
        # Every device runs one functional force path: no flag picks one.
        with pytest.raises(SystemExit):
            runner.main(["--quick", "--only", "fig9", "--force-path", "cell"])
        assert "unrecognized arguments: --force-path cell" in (
            capsys.readouterr().err
        )


class TestReplicasFlag:
    def test_replicas_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["--quick", "--replicas", "0"])
        assert "--replicas must be >= 1" in capsys.readouterr().err

    def test_non_integer_replicas_rejected(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["--quick", "--replicas", "two"])

    def test_replicas_reaches_the_ensemble_experiment(
        self, capsys, fixed_ensemble_timings
    ):
        exit_code = runner.main(
            ["--quick", "--only", "ensemble", "--replicas", "2"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "2 replicas" in out  # the override landed in the title
        assert "bit-identical to sequential runs" in out
        assert "FAIL" not in out

    def test_replicas_is_a_registry_param_only_where_accepted(self):
        from repro.experiments.registry import EXPERIMENTS

        by_id = {spec.experiment_id: spec for spec in EXPERIMENTS}
        ensemble = by_id["ensemble"].params(quick=True, replicas=3)
        assert ensemble["replicas"] == 3
        other = by_id["fig5"].params(quick=True, replicas=3)
        assert "replicas" not in other


class TestCrashIsolation:
    def test_one_raising_experiment_does_not_abort_the_roster(
        self, capsys, monkeypatch
    ):
        from repro.experiments import ablations
        from repro.experiments.registry import experiment_ids

        def explode(**_kwargs):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(ablations, "run_precision", explode)
        keep = {"abl-precision", "abl-reduce"}
        argv = ["--quick"]
        for eid in experiment_ids():
            if eid not in keep:
                argv += ["--skip", eid]
        exit_code = runner.main(argv)
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "[ERROR] abl-precision" in out
        assert "injected crash" in out  # traceback lands in the report
        assert "abl-reduce" in out  # the survivor still rendered
        assert "raised instead of completing" in out
