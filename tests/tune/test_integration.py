"""End-to-end: artifacts -> attach_tuned -> run records -> diff -> gc.

Uses the real ``tunesweep`` experiment at quick scale, so these tests
exercise the exact path ``harness run`` takes after ``harness tune``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.api import attach_tuned, diff_runs, run_roster
from repro.harness.fingerprint import code_fingerprint
from repro.harness.jobs import Job, job_cache_key
from repro.harness.store import RunStore
from repro.tune.artifact import TunedStore, make_artifact, tuned_key

CODE_FP = "feedc0de" * 8


def _tunesweep_job() -> Job:
    return Job(
        job_id="tunesweep",
        experiment_id="tunesweep",
        module="repro.experiments.tunesweep",
        func="run",
        params={"quick": True, "repeats": 1},
    )


def _seed_artifact(
    store: TunedStore,
    *,
    values={"mta/mta.streams": 32},
    code_fp=CODE_FP,
    experiment_id="tunesweep",
):
    art = make_artifact(
        key=tuned_key(
            scenario_id="tunesweep-mta",
            experiment_id=experiment_id,
            device="mta",
            n=128,
            quick=True,
            knob_grids={"mta.streams": (16, 32, 64, 128, 256)},
            code_fingerprint=code_fp,
        ),
        scenario_id="tunesweep-mta",
        experiment_id=experiment_id,
        device="mta",
        n=128,
        quick=True,
        knobs=("mta.streams",),
        values=values,
        metric="steps",
        default_metric=100.0,
        best_metric=900.0,
        source="search",
        probes_run=4,
        trials=(),
        code_fingerprint=code_fp,
    )
    store.save(art)
    return art


class TestAttachTuned:
    def test_attaches_values_and_changes_the_cache_key(self, tmp_path):
        tuned_store = TunedStore(tmp_path)
        art = _seed_artifact(tuned_store)
        job = _tunesweep_job()
        (tuned_job,) = attach_tuned(
            [job], tuned_store=tuned_store, quick=True, fingerprint=CODE_FP
        )
        assert tuned_job.tuned["values"] == {"mta/mta.streams": 32}
        assert tuned_job.tuned["fingerprint"] == art.fingerprint
        assert art.key in tuned_job.tuned["keys"]
        assert job_cache_key(tuned_job, "f") != job_cache_key(job, "f")

    def test_no_artifact_passes_jobs_through_byte_identical(self, tmp_path):
        job = _tunesweep_job()
        (out,) = attach_tuned(
            [job], tuned_store=TunedStore(tmp_path),
            quick=True, fingerprint=CODE_FP,
        )
        assert out == job
        assert job_cache_key(out, "f") == job_cache_key(job, "f")

    def test_defaults_won_artifact_passes_jobs_through(self, tmp_path):
        tuned_store = TunedStore(tmp_path)
        _seed_artifact(tuned_store, values={})
        job = _tunesweep_job()
        (out,) = attach_tuned(
            [job], tuned_store=tuned_store, quick=True, fingerprint=CODE_FP
        )
        assert out == job

    def test_other_code_fingerprint_never_applies(self, tmp_path):
        tuned_store = TunedStore(tmp_path)
        _seed_artifact(tuned_store, code_fp="0" * 64)
        job = _tunesweep_job()
        (out,) = attach_tuned(
            [job], tuned_store=tuned_store, quick=True, fingerprint=CODE_FP
        )
        assert out == job


class TestTunedRoster:
    def test_record_carries_the_fingerprint_and_replays_cached(self, tmp_path):
        store = RunStore(tmp_path)
        tuned_store = TunedStore(tmp_path)
        art = _seed_artifact(tuned_store)
        jobs = attach_tuned(
            [_tunesweep_job()], tuned_store=tuned_store,
            quick=True, fingerprint=CODE_FP,
        )
        first = run_roster(jobs, store=store)
        assert first.failures == 0
        record = first.records[0]
        assert record["tuned"]["fingerprint"] == art.fingerprint
        assert art.key in record["tuned"]["keys"]

        second = run_roster(jobs, store=store)
        assert second.records[0]["cached"] is True
        assert second.records[0]["tuned"]["fingerprint"] == art.fingerprint

    def test_diff_gate_tuned_vs_untuned_shows_no_regression(self, tmp_path):
        # The bit-identity satellite: a tuned run must pass the
        # shape-band diff gate against its untuned twin — knobs only
        # move the simulated clock, so every check that passed still
        # passes.
        store = RunStore(tmp_path)
        tuned_store = TunedStore(tmp_path)
        _seed_artifact(tuned_store)
        untuned = run_roster([_tunesweep_job()], store=store)
        tuned = run_roster(
            attach_tuned(
                [_tunesweep_job()], tuned_store=tuned_store,
                quick=True, fingerprint=CODE_FP,
            ),
            store=store,
        )
        assert untuned.failures == 0 and tuned.failures == 0
        assert untuned.records[0]["cached"] is False
        assert tuned.records[0]["cached"] is False  # keys diverge
        lines, regressions = diff_runs(store, untuned.run_id, tuned.run_id)
        assert regressions == 0, "\n".join(lines)


class TestGcPruneTuned:
    def test_keep_and_drop_semantics(self, tmp_path):
        store = RunStore(tmp_path)
        tuned_store = TunedStore(tmp_path)
        current_fp = code_fingerprint()

        kept_current = _seed_artifact(tuned_store, code_fp=current_fp)
        dropped_stale = _seed_artifact(
            tuned_store, code_fp="0" * 64, experiment_id="stale-exp"
        )
        kept_referenced = _seed_artifact(
            tuned_store, code_fp="1" * 64, experiment_id="ref-exp"
        )
        run_id = store.new_run_id()
        store.write_job_record(
            run_id,
            {"job_id": "tunesweep", "experiment_id": "tunesweep",
             "status": "ok", "cache_key": "k",
             "tuned": {"keys": [kept_referenced.key]}},
        )
        # a run only survives gc (and anchors references) via its manifest
        store.write_manifest(run_id, {"run_id": run_id, "jobs": []})
        torn = tuned_store.path("deadbeef" * 8)
        torn.write_text('{"half a json doc')

        removed = store.gc(keep_runs=20, prune_tuned=True)
        assert removed["tuned_artifacts_removed"] == 2
        remaining = set(tuned_store.list_keys())
        assert kept_current.key in remaining
        assert kept_referenced.key in remaining
        assert dropped_stale.key not in remaining
        assert not torn.exists()

    def test_without_flag_tuned_artifacts_are_untouched(self, tmp_path):
        store = RunStore(tmp_path)
        tuned_store = TunedStore(tmp_path)
        _seed_artifact(tuned_store, code_fp="0" * 64)
        removed = store.gc(keep_runs=20)
        assert removed["tuned_artifacts_removed"] == 0
        assert len(tuned_store.list_keys()) == 1

    def test_dry_run_reports_but_keeps(self, tmp_path):
        store = RunStore(tmp_path)
        tuned_store = TunedStore(tmp_path)
        stale = _seed_artifact(tuned_store, code_fp="0" * 64)
        removed = store.gc(keep_runs=20, prune_tuned=True, dry_run=True)
        assert removed["tuned_artifacts_removed"] == 1
        assert stale.key in tuned_store.list_keys()


class TestHandEditedArtifactNeverRuns:
    def test_illegal_value_is_invisible_to_attach(self, tmp_path):
        tuned_store = TunedStore(tmp_path)
        art = _seed_artifact(tuned_store)
        path = tuned_store.path(art.key)
        data = json.loads(path.read_text())
        data["values"] = {"mta/mta.streams": "telepathy"}
        path.write_text(json.dumps(data))
        job = _tunesweep_job()
        (out,) = attach_tuned(
            [job], tuned_store=tuned_store, quick=True, fingerprint=CODE_FP
        )
        assert out == job  # loader rejected it -> defaults

    def test_retired_knob_is_invisible_to_attach(self, tmp_path):
        # an artifact tuned before a knob was retired names a knob the
        # registry no longer declares: the loader's KeyError path
        current_fp = code_fingerprint()
        tuned_store = TunedStore(tmp_path)
        art = _seed_artifact(tuned_store, code_fp=current_fp)
        path = tuned_store.path(art.key)
        data = json.loads(path.read_text())
        data["values"] = {"opteron/md.block": 64}
        path.write_text(json.dumps(data))
        assert tuned_store.load(art.key) is None
        job = _tunesweep_job()
        (out,) = attach_tuned(
            [job], tuned_store=tuned_store, quick=True, fingerprint=current_fp
        )
        assert out == job
