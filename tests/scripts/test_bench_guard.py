"""record_bench.py: the BENCH_*.json overwrite guard, schema check and gates."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPTS = REPO_ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def record_bench():
    return load_script("record_bench")


def kernel_record(speedups: dict) -> dict:
    return {
        "schema": "repro.bench_vm/1",
        "recorded_unix": 1.75e9,
        "host": {"platform": "x", "python": "3", "numpy": "1"},
        "config": {"batch": 1024, "repeats": 3, "quick": True},
        "results": [
            {
                "kernel": k, "backend": "fused", "pairs": 1024,
                "repeats": 3, "best_seconds": 0.001,
                "pairs_per_second": 1024 / 0.001,
            }
            for k in speedups
        ],
        "speedup_fused_over_interp": dict(speedups),
    }


class TestRegressedSpeedups:
    def test_detects_drop_beyond_tolerance(self, record_bench):
        slow = record_bench.regressed_speedups(
            {"a": 10.0, "b": 4.0}, {"a": 8.0, "b": 3.9}, 0.15
        )
        assert slow == {"a": (10.0, 8.0)}  # b dropped only 2.5%

    def test_improvements_and_new_keys_pass(self, record_bench):
        assert record_bench.regressed_speedups(
            {"a": 2.0}, {"a": 3.0, "new": 0.1}, 0.15
        ) == {}

    def test_missing_new_key_is_not_a_regression(self, record_bench):
        # a kernel dropped from the suite can't be compared
        assert record_bench.regressed_speedups({"gone": 9.0}, {}, 0.15) == {}

    def test_zero_tolerance_flags_any_drop(self, record_bench):
        slow = record_bench.regressed_speedups(
            {"a": 2.0}, {"a": 1.999}, 0.0
        )
        assert "a" in slow

    def test_negative_tolerance_rejected(self, record_bench):
        with pytest.raises(ValueError):
            record_bench.regressed_speedups({}, {}, -0.1)


class TestWriteGuard:
    FIELD = "speedup_fused_over_interp"

    def test_refuses_regressed_overwrite(self, record_bench, tmp_path,
                                         capsys):
        out = tmp_path / "BENCH_vm.json"
        stored = kernel_record({"spe:simd": 10.0})
        out.write_text(json.dumps(stored))
        regressed = kernel_record({"spe:simd": 5.0})
        rc = record_bench.write_record(out, regressed)
        assert rc == record_bench.EXIT_REGRESSED == 3
        assert "REFUSED" in capsys.readouterr().err
        # the stored table survived untouched
        assert json.loads(out.read_text())[self.FIELD] == {"spe:simd": 10.0}

    def test_force_overwrites_regressed_table(self, record_bench, tmp_path):
        out = tmp_path / "BENCH_vm.json"
        out.write_text(json.dumps(kernel_record({"spe:simd": 10.0})))
        regressed = kernel_record({"spe:simd": 5.0})
        rc = record_bench.write_record(out, regressed, force=True)
        assert rc == 0
        assert json.loads(out.read_text())[self.FIELD] == {"spe:simd": 5.0}

    def test_improvement_writes_freely(self, record_bench, tmp_path):
        out = tmp_path / "BENCH_vm.json"
        out.write_text(json.dumps(kernel_record({"spe:simd": 2.0})))
        rc = record_bench.write_record(out, kernel_record({"spe:simd": 3.0}))
        assert rc == 0
        assert json.loads(out.read_text())[self.FIELD] == {"spe:simd": 3.0}

    def test_jitter_within_tolerance_writes(self, record_bench, tmp_path):
        out = tmp_path / "BENCH_vm.json"
        out.write_text(json.dumps(kernel_record({"spe:simd": 10.0})))
        rc = record_bench.write_record(out, kernel_record({"spe:simd": 9.0}))
        assert rc == 0  # 10% drop < 15% tolerance

    def test_fresh_file_writes(self, record_bench, tmp_path):
        out = tmp_path / "BENCH_vm.json"
        rc = record_bench.write_record(out, kernel_record({"spe:simd": 1.0}))
        assert rc == 0 and out.exists()

    def test_unparseable_existing_file_is_overwritten(self, record_bench,
                                                      tmp_path):
        out = tmp_path / "BENCH_vm.json"
        out.write_text("{corru")
        rc = record_bench.write_record(out, kernel_record({"spe:simd": 1.0}))
        assert rc == 0
        assert json.loads(out.read_text())["schema"] == "repro.bench_vm/1"

    def test_other_schema_is_not_compared(self, record_bench, tmp_path):
        out = tmp_path / "BENCH_vm.json"
        out.write_text(json.dumps({"schema": "something/else",
                                   self.FIELD: {"spe:simd": 99.0}}))
        rc = record_bench.write_record(out, kernel_record({"spe:simd": 1.0}))
        assert rc == 0

    def test_invalid_record_never_lands(self, record_bench, tmp_path):
        out = tmp_path / "BENCH_vm.json"
        record = kernel_record({"spe:simd": 1.0})
        del record["results"][0]["kernel"]
        assert record_bench.write_record(out, record, force=True) == 1
        assert not out.exists()


class TestSchemaValidator:
    def test_valid_record_passes(self, record_bench):
        assert record_bench.validate_record(
            kernel_record({"spe:simd": 2.0})
        ) == []

    def test_repo_bench_files_validate(self, record_bench):
        for name in ("BENCH_vm.json", "BENCH_vm2.json", "BENCH_tune.json",
                     "BENCH_cluster.json"):
            path = REPO_ROOT / name
            assert path.exists(), f"{name} missing from repo root"
            assert record_bench.validate_file(path) == []

    def test_missing_top_level_key_flagged(self, record_bench):
        record = kernel_record({"k": 1.0})
        del record["host"]
        problems = record_bench.validate_record(record)
        assert any("host" in p for p in problems)

    def test_unknown_schema_flagged(self, record_bench):
        problems = record_bench.validate_record({"schema": "nope/9"})
        assert problems and "unknown schema" in problems[0]

    def test_non_positive_speedup_flagged(self, record_bench):
        record = kernel_record({"k": 0.0})
        problems = record_bench.validate_record(record)
        assert any("positive" in p for p in problems)

    def test_missing_result_field_flagged(self, record_bench):
        record = kernel_record({"k": 1.0})
        del record["results"][0]["best_seconds"]
        problems = record_bench.validate_record(record)
        assert any("best_seconds" in p for p in problems)

    def test_empty_results_flagged(self, record_bench):
        record = kernel_record({"k": 1.0})
        record["results"] = []
        problems = record_bench.validate_record(record)
        assert any("results" in p for p in problems)

    def test_cli_explicit_missing_file_fails(self, record_bench, tmp_path,
                                             capsys):
        rc = record_bench.main(["--validate", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "missing" in capsys.readouterr().err

    def test_cli_default_skips_absent_files(self, record_bench, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setattr(record_bench, "REPO_ROOT", tmp_path)
        rc = record_bench.main(["--validate"])
        assert rc == 0
        assert "absent (skipped)" in capsys.readouterr().out

    def test_cli_valid_file_ok(self, record_bench, tmp_path, capsys):
        path = tmp_path / "BENCH_vm.json"
        path.write_text(json.dumps(kernel_record({"k": 1.5})))
        assert record_bench.main(["--validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out


def replay_committed(record_bench, monkeypatch, name: str) -> dict:
    """Stub ``name``'s measurement with the rows of its committed table."""
    spec = record_bench.SPECS[name]
    committed = json.loads((REPO_ROOT / spec.out).read_text())
    measured = (committed["config"], committed["results"],
                committed[spec.speedup_field])
    monkeypatch.setitem(record_bench.SPECS, name,
                        dataclasses.replace(spec, measure=lambda quick: measured))
    return committed


class TestSpecs:
    @pytest.mark.parametrize("name", ["vm", "ensemble", "tune", "cluster"])
    def test_stub_measurement_writes_a_valid_record(self, record_bench, name,
                                                    tmp_path, monkeypatch):
        committed = replay_committed(record_bench, monkeypatch, name)
        out = tmp_path / "bench.json"
        flags = [] if name == "vm" else [f"--{name}"]
        assert record_bench.main([*flags, "--check", "--out", str(out)]) == 0
        assert record_bench.validate_file(out) == []
        assert json.loads(out.read_text()).keys() == committed.keys()

    def test_mode_flags_are_mutually_exclusive(self, record_bench):
        with pytest.raises(SystemExit) as exc:
            record_bench.main(["--ensemble", "--cluster"])
        assert exc.value.code == 2

    def test_cluster_replay_catches_an_altered_digest(self, record_bench,
                                                      tmp_path, monkeypatch,
                                                      capsys):
        committed = replay_committed(record_bench, monkeypatch, "cluster")
        out = tmp_path / "BENCH_cluster.json"
        argv = ["--cluster", "--check", "--force", "--out", str(out)]
        out.write_text(json.dumps(committed))
        assert record_bench.main(argv) == 0

        altered = json.loads(json.dumps(committed))
        altered["results"][5]["state_digest"] = "0" * 64
        out.write_text(json.dumps(altered))
        stored = out.read_bytes()
        assert record_bench.main(argv) == 1
        err = capsys.readouterr().err
        assert "results[5].state_digest" in err
        # the refused table is never written, even with --force
        assert out.read_bytes() == stored

    def test_tune_replay_catches_an_altered_speedup(self, record_bench,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        committed = replay_committed(record_bench, monkeypatch, "tune")
        out = tmp_path / "BENCH_tune.json"
        argv = ["--tune", "--check", "--force", "--out", str(out)]
        out.write_text(json.dumps(committed))
        assert record_bench.main(argv) == 0

        altered = json.loads(json.dumps(committed))
        altered["results"][1]["tuned_per_second"] *= 1.01
        out.write_text(json.dumps(altered))
        stored = out.read_bytes()
        assert record_bench.main(argv) == 1
        assert "results[1].tuned_per_second" in capsys.readouterr().err
        # the refused table is never written, even with --force
        assert out.read_bytes() == stored
