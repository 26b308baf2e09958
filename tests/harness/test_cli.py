"""End-to-end tests of the ``python -m repro.harness`` CLI."""

from __future__ import annotations

import pytest

from repro.harness import api, cli
from repro.harness.store import RunStore
from tests.harness.stub_jobs import stub_job

FP = "deadbeef" * 8


class TestRosterListing:
    def test_run_list_prints_ids_and_descriptions(self, capsys):
        assert cli.main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "abl-precision" in out
        assert "SIMD optimization ladder" in out

    def test_unknown_only_id_rejected(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--only", "fig99", "--runs-dir", str(tmp_path / "runs")]
        )
        assert code == 2
        assert "unknown experiment id" in capsys.readouterr().err


class TestRunShowList:
    def test_quick_single_experiment_then_cache_hit(self, tmp_path, capsys):
        runs_dir = str(tmp_path / "runs")
        argv = [
            "run", "--quick", "--only", "abl-precision", "--jobs", "0",
            "--runs-dir", runs_dir,
        ]
        assert cli.main(argv) == 0
        first_out = capsys.readouterr().out
        assert "(cached)" not in first_out

        assert cli.main(argv) == 0
        second_out = capsys.readouterr().out
        assert "(cached)" in second_out
        assert "1 cached" in second_out

        store = RunStore(runs_dir)
        run_ids = store.list_runs()
        assert len(run_ids) == 2

        assert cli.main(["list", "--runs-dir", runs_dir]) == 0
        assert run_ids[0] in capsys.readouterr().out

        assert cli.main(["show", run_ids[1], "--render", "--runs-dir", runs_dir]) == 0
        shown = capsys.readouterr().out
        assert "abl-precision" in shown
        assert "PASS" in shown  # rendered shape checks

    def test_show_unknown_run_errors(self, tmp_path, capsys):
        code = cli.main(["show", "nope", "--runs-dir", str(tmp_path / "runs")])
        assert code == 2
        assert "no manifest" in capsys.readouterr().err


class TestDiff:
    def _store_run(self, store, measured):
        return api.run_roster(
            [stub_job("stub-1", measured=measured)],
            store=store,
            max_workers=0,
            use_cache=False,
            fingerprint=FP,
        ).run_id

    def test_identical_runs_diff_clean(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        a = self._store_run(store, 1.0)
        b = self._store_run(store, 1.0)
        assert cli.main(["diff", a, b, "--runs-dir", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert "0 regression(s)" in out

    def test_band_regression_detected(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        good = self._store_run(store, 1.0)   # inside 0.5..1.5
        bad = self._store_run(store, 2.0)    # outside the band
        assert cli.main(["diff", good, bad, "--runs-dir", str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "stub-1/stub_band" in out
        assert "[PASS->FAIL]" in out

    def test_fix_is_not_a_regression(self, tmp_path, capsys):
        store = RunStore(tmp_path / "runs")
        bad = self._store_run(store, 2.0)
        good = self._store_run(store, 1.0)
        assert cli.main(["diff", bad, good, "--runs-dir", str(store.root)]) == 0
        assert "fixed" in capsys.readouterr().out


class TestVmExecAndReplicas:
    def test_invalid_vm_exec_rejected(self, capsys):
        # The VM backend is not a harness option: every value is rejected.
        for backend in ("fused", "vectorised"):
            with pytest.raises(SystemExit):
                cli.main(["run", "--list", "--vm-exec", backend])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_force_path_rejected(self, tmp_path, capsys):
        # Every device runs one functional force path: no flag picks one.
        with pytest.raises(SystemExit):
            cli.main(["run", "--quick", "--only", "fig9", "--force-path",
                      "cell", "--runs-dir", str(tmp_path / "runs")])
        assert "unrecognized arguments: --force-path cell" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "runs").exists()

    def test_replicas_below_one_rejected(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--replicas", "0", "--runs-dir", str(tmp_path / "runs")]
        )
        assert code == 2
        assert "--replicas must be >= 1" in capsys.readouterr().err

    def test_replicas_is_part_of_the_cache_key(
        self, tmp_path, capsys, fixed_ensemble_timings
    ):
        """Same roster, different --replicas: cache must miss; same
        --replicas again: cache must hit."""
        runs_dir = str(tmp_path / "runs")
        base = ["run", "--quick", "--only", "ensemble", "--jobs", "0",
                "--runs-dir", runs_dir]

        assert cli.main(base + ["--replicas", "2"]) == 0
        assert "(cached)" not in capsys.readouterr().out

        assert cli.main(base + ["--replicas", "3"]) == 0
        assert "(cached)" not in capsys.readouterr().out  # new key

        assert cli.main(base + ["--replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "(cached)" in out  # replicas keyed
        assert "1 cached" in out


class TestQuarantine:
    def seed(self, tmp_path):
        from repro.service.durability import PoisonRegistry, poison_path

        registry = PoisonRegistry(poison_path(tmp_path))
        registry.record_failure(
            "aaaa1111" * 8, experiment="boom", attempts=3, threshold=3
        )
        registry.record_failure("bbbb2222" * 8, experiment="flaky")
        return registry

    def test_list_shows_states_and_counts(self, tmp_path, capsys):
        self.seed(tmp_path)
        rc = cli.main(["quarantine", "list", "--runs-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "QUARANTINED" in out and "watching" in out
        assert "2 key(s) tracked, 1 quarantined" in out

    def test_bare_quarantine_defaults_to_list(self, tmp_path, capsys):
        rc = cli.main(["quarantine", "--runs-dir", str(tmp_path)])
        assert rc == 0
        assert "poison ledger is empty" in capsys.readouterr().out

    def test_release_by_prefix(self, tmp_path, capsys):
        registry = self.seed(tmp_path)
        rc = cli.main(
            ["quarantine", "release", "aaaa1111", "--runs-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "released" in capsys.readouterr().out
        assert not registry.is_quarantined("aaaa1111" * 8)
        assert registry.failures("bbbb2222" * 8) == 1  # untouched

    def test_release_unknown_prefix_errors(self, tmp_path, capsys):
        self.seed(tmp_path)
        rc = cli.main(
            ["quarantine", "release", "zzzz", "--runs-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "no tracked key" in capsys.readouterr().err

    def test_release_ambiguous_prefix_errors(self, tmp_path, capsys):
        from repro.service.durability import PoisonRegistry, poison_path

        registry = PoisonRegistry(poison_path(tmp_path))
        registry.record_failure("cafe0001")
        registry.record_failure("cafe0002")
        rc = cli.main(
            ["quarantine", "release", "cafe", "--runs-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_release_all(self, tmp_path, capsys):
        registry = self.seed(tmp_path)
        rc = cli.main(
            ["quarantine", "release", "--all", "--runs-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "released 2 key(s)" in capsys.readouterr().out
        assert registry.entries() == {}


class TestModuleEntry:
    def test_main_module_importable(self):
        import repro.harness.__main__  # noqa: F401 - import must succeed

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])
