"""The service acceptance scenario, end to end over real HTTP.

Covers the contract the subsystem was built for: priority scheduling
across tenants, honest 429 backpressure, content-addressed dedup
without re-execution, and checkpoint resume after a SIGKILLed worker
with a bit-identical final state.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments import longrun
from repro.experiments.registry import ExperimentSpec
from repro.service.client import QuotaExceeded, ServiceClient
from tests.service.conftest import call, running_service, stub_spec

#: Sized like the quick registry entry but with a mid-run kill: the
#: checkpoint at step 3 exists when the worker dies at step 5.
_LONGRUN_PARAMS = {"n_atoms": 128, "n_steps": 8, "checkpoint_interval": 3}


def crashing_longrun_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="longcrash",
        module="repro.experiments.longrun",
        func="run",
        description="longrun with a deliberate worker kill",
        full_params={**_LONGRUN_PARAMS, "crash_at_step": 5},
        quick_params={**_LONGRUN_PARAMS, "crash_at_step": 5},
        accepts_checkpoint=True,
    )


class TestMixedPriorityTenants:
    def test_distinct_jobs_execute_in_priority_order(self, tmp_path):
        async def scenario():
            specs = {
                "nap": stub_spec("nap", "napping_job", seconds=0.8),
                # distinct params -> distinct cache keys -> all execute
                **{
                    f"ok{i}": stub_spec(f"ok{i}", "ok_job", value=float(i))
                    for i in range(1, 5)
                },
            }
            async with running_service(
                str(tmp_path), specs=specs, concurrency=1
            ) as svc:
                client = ServiceClient(port=svc.port)
                blocker = await call(client.submit, "nap", tenant="t1")
                plan = [  # (experiment, tenant, priority)
                    ("ok1", "t1", 50),
                    ("ok2", "t2", 5),
                    ("ok3", "t1", 20),
                    ("ok4", "t2", 0),
                ]
                ids = []
                for experiment, tenant, priority in plan:
                    doc = await call(
                        client.submit, experiment,
                        tenant=tenant, priority=priority,
                    )
                    ids.append((experiment, priority, doc["id"]))
                docs = []
                for experiment, priority, job_id in ids:
                    final = await call(client.wait, job_id, 60)
                    assert final["status"] == "succeeded", experiment
                    assert final["cached"] is False
                    docs.append((priority, final))
                await call(client.wait, blocker["id"], 60)
                return docs

        docs = asyncio.run(scenario())
        ordered = sorted(docs, key=lambda pair: pair[1]["started_unix"])
        assert [priority for priority, _doc in ordered] == [0, 5, 20, 50]


class TestQuotaBackpressure:
    def test_over_quota_tenant_sees_429_with_retry_after(self, tmp_path):
        gate = tmp_path / "release"

        async def scenario():
            specs = {"nap": stub_spec("nap", "gated_job", release_path=str(gate))}
            async with running_service(
                str(tmp_path), specs=specs, tenant_quota=1, concurrency=1
            ) as svc:
                client = ServiceClient(port=svc.port)
                first = await call(client.submit, "nap", tenant="burst")
                with pytest.raises(QuotaExceeded) as exc:
                    await call(client.submit, "nap", tenant="burst")
                stats = await call(client.stats)
                await call(client.cancel, first["id"])
                gate.touch()
                return exc.value, stats

        exc, stats = asyncio.run(scenario())
        assert exc.status == 429
        assert exc.retry_after >= 1
        assert exc.payload["retry_after_seconds"] == exc.retry_after
        assert stats["counters"]["service.jobs.rejected"] == 1.0


class TestDedup:
    def test_duplicate_submission_never_reexecutes(self, tmp_path):
        counter = tmp_path / "invocations.txt"

        async def scenario():
            specs = {
                "counted": stub_spec(
                    "counted", "flaky_job",
                    counter_path=str(counter), fail_times=0,
                ),
            }
            async with running_service(str(tmp_path / "runs"),
                                       specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                first = await call(client.submit, "counted", tenant="a")
                final = await call(client.wait, first["id"], 60)
                assert final["status"] == "succeeded"
                dup = await call(client.submit, "counted", tenant="b")
                stats = await call(client.stats)
                return dup, stats

        dup, stats = asyncio.run(scenario())
        assert dup["status"] == "succeeded"
        assert dup["cached"] is True
        # the experiment function ran exactly once across both submissions
        assert counter.read_text() == "1"
        assert stats["counters"]["service.jobs.cache_hits"] == 1.0
        assert stats["counters"]["service.jobs.completed"] == 2.0


class TestCrashResume:
    def test_sigkilled_worker_resumes_bit_identically(self, tmp_path):
        # ground truth: the same workload, uninterrupted, in-process
        clean = longrun.run(**_LONGRUN_PARAMS)
        clean_digest = dict(clean.rows)["final_positions_sha256"]

        async def scenario():
            specs = {"longcrash": crashing_longrun_spec()}
            async with running_service(
                str(tmp_path), specs=specs, concurrency=1,
                retries=1, backoff=0.05,
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "longcrash")
                final = await call(client.wait, doc["id"], 120)
                result = await call(client.result, doc["id"])
                return final, result, svc.store.list_checkpoints()

        final, result, checkpoints = asyncio.run(scenario())
        assert final["status"] == "succeeded"
        # first attempt died to SIGKILL, the retry finished the job
        assert final["attempts"] == 2
        rows = {row[0]: row[1] for row in result["result"]["rows"]}
        assert rows["steps_completed"] == _LONGRUN_PARAMS["n_steps"]
        # the retry picked up from the persisted checkpoint...
        assert rows["resumed_from_step"] > 0
        # ...and converged on exactly the uninterrupted trajectory
        assert rows["final_positions_sha256"] == clean_digest
        assert result["all_passed"] is True
        # the satisfied checkpoint was cleaned up on success
        assert checkpoints == []
