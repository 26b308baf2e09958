"""HTTP-layer tests: a real Service on a real socket, stub workloads."""

from __future__ import annotations

import asyncio
import json
import time
import urllib.request

import pytest

from repro.service.client import (
    JobNotFound,
    QuotaExceeded,
    ServiceClient,
    ServiceError,
)
from tests.harness.stub_jobs import GATE_TIMEOUT_S
from tests.service.conftest import call, running_service, stub_spec


def run(coro):
    return asyncio.run(coro)


class TestHealthAndStats:
    def test_healthz_reports_serving(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                health = await call(client.healthz)
                assert health["ok"] is True
                assert health["run_id"] == svc.run_id
                assert health["workers"] == 1

        run(scenario())

    def test_stats_exposes_queue_and_counters(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.stats)
                assert doc["queue"]["max_depth"] == svc.config.queue_depth
                assert doc["queue"]["retry_after"] >= 1
                assert "service.jobs.submitted" in doc["counters"]
                assert doc["jobs"]["total"] == 0

        run(scenario())


class TestSubmitAndFetch:
    def test_submit_runs_job_to_success(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "ok", tenant="alice")
                assert doc["status"] == "queued"
                assert doc["tenant"] == "alice"
                final = await call(client.wait, doc["id"], 60)
                assert final["status"] == "succeeded"
                assert final["cached"] is False
                assert final["all_passed"] is True
                result = await call(client.result, doc["id"])
                assert result["result"]["experiment_id"] == "stub"
                statuses = [e["status"] for e in final["events"]]
                assert statuses == ["queued", "running", "succeeded"]

        run(scenario())

    def test_unknown_experiment_is_404(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                with pytest.raises(JobNotFound, match="unknown experiment"):
                    await call(client.submit, "no-such-thing")

        run(scenario())

    def test_malformed_body_is_400(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                def post_garbage():
                    req = urllib.request.Request(
                        f"http://127.0.0.1:{svc.port}/v1/jobs",
                        data=b"{not json",
                        method="POST",
                    )
                    try:
                        urllib.request.urlopen(req)
                    except urllib.error.HTTPError as exc:
                        return exc.code, json.loads(exc.read())
                    raise AssertionError("expected HTTP 400")

                code, payload = await call(post_garbage)
                assert code == 400
                assert "not valid JSON" in payload["error"]

        run(scenario())

    def test_unknown_field_is_400(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)

                def bad_submit():
                    # bypass the client's argument validation
                    return client._request(
                        "POST", "/v1/jobs",
                        {"experiment": "ok", "nonsense": 1},
                    )

                with pytest.raises(ServiceError, match="unknown field"):
                    await call(bad_submit)

        run(scenario())

    def test_force_path_field_is_400(self, tmp_path):
        """Every device runs one functional force path: a body that
        still names one is refused before it reaches a worker."""

        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)

                def submit_with_path():
                    return client._request(
                        "POST", "/v1/jobs",
                        {"experiment": "ok", "force_path": "cell"},
                    )

                with pytest.raises(ServiceError) as excinfo:
                    await call(submit_with_path)
                assert excinfo.value.status == 400
                assert str(excinfo.value) == "unknown field(s): force_path"

        run(scenario())

    def test_unknown_job_id_is_404_everywhere(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                for fetch in (
                    client.job, client.result, client.counters,
                    client.trace, client.cancel,
                ):
                    with pytest.raises(JobNotFound):
                        await call(fetch, "job-nope")
                with pytest.raises(JobNotFound):
                    await call(lambda: list(client.events("job-nope")))

        run(scenario())

    def test_unrouted_path_and_bad_method(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                with pytest.raises(JobNotFound):
                    await call(client._request, "GET", "/v2/everything")
                with pytest.raises(ServiceError) as exc:
                    await call(client._request, "POST", "/v1/healthz")
                assert exc.value.status == 405

        run(scenario())

    def test_result_not_available_while_pending(self, tmp_path):
        gate = tmp_path / "release"

        async def scenario():
            specs = {"nap": stub_spec("nap", "gated_job", release_path=str(gate))}
            async with running_service(str(tmp_path), specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "nap")
                with pytest.raises(JobNotFound, match="no result yet"):
                    await call(client.result, doc["id"])
                await call(client.cancel, doc["id"])
                gate.touch()

        run(scenario())

    def test_counters_and_trace_404_without_observation(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "ok")
                await call(client.wait, doc["id"], 60)
                with pytest.raises(JobNotFound, match="no counters"):
                    await call(client.counters, doc["id"])
                with pytest.raises(JobNotFound, match="no trace"):
                    await call(client.trace, doc["id"])

        run(scenario())


class TestCaching:
    def test_identical_submission_replays_from_cache(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                first = await call(client.submit, "ok")
                await call(client.wait, first["id"], 60)
                dup = await call(client.submit, "ok", tenant="other")
                # came back terminal straight from POST — never queued
                assert dup["status"] == "succeeded"
                assert dup["cached"] is True
                assert dup["id"] != first["id"]
                stats = await call(client.stats)
                assert stats["counters"]["service.jobs.cache_hits"] == 1.0

        run(scenario())

    def test_no_cache_config_recomputes(self, tmp_path):
        async def scenario():
            async with running_service(
                str(tmp_path), use_cache=False
            ) as svc:
                client = ServiceClient(port=svc.port)
                first = await call(client.submit, "ok")
                await call(client.wait, first["id"], 60)
                dup = await call(client.submit, "ok")
                assert dup["status"] == "queued"
                final = await call(client.wait, dup["id"], 60)
                assert final["cached"] is False

        run(scenario())


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        gate = tmp_path / "release"

        async def scenario():
            specs = {
                "nap": stub_spec("nap", "gated_job", release_path=str(gate)),
                "ok": stub_spec("ok", "ok_job"),
            }
            async with running_service(str(tmp_path), specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                blocker = await call(client.submit, "nap")
                queued = await call(client.submit, "ok")
                out = await call(client.cancel, queued["id"])
                assert out["cancelled"] is True
                doc = await call(client.job, queued["id"])
                assert doc["status"] == "cancelled"
                await call(client.cancel, blocker["id"])
                gate.touch()

        run(scenario())

    def test_cancel_terminal_job_is_409(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "ok")
                await call(client.wait, doc["id"], 60)
                with pytest.raises(ServiceError) as exc:
                    await call(client.cancel, doc["id"])
                assert exc.value.status == 409

        run(scenario())

    def test_cancel_running_job_is_cooperative(self, tmp_path):
        async def scenario():
            specs = {"nap": stub_spec("nap", "napping_job", seconds=1.0)}
            async with running_service(str(tmp_path), specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "nap")
                # wait for it to actually start
                for _ in range(200):
                    if (await call(client.job, doc["id"]))["status"] == "running":
                        break
                    await asyncio.sleep(0.01)
                out = await call(client.cancel, doc["id"])
                assert out["cancelled"] is False
                assert out["cancel_requested"] is True
                final = await call(client.wait, doc["id"], 60)
                assert final["status"] == "cancelled"
                # the discarded attempt must not have seeded the cache
                dup = await call(client.submit, "nap")
                assert dup["status"] == "queued"
                await call(client.wait, dup["id"], 60)

        run(scenario())


class TestBackpressureHTTP:
    def test_quota_exceeded_is_429_with_retry_after(self, tmp_path):
        gate = tmp_path / "release"

        async def scenario():
            specs = {"nap": stub_spec("nap", "gated_job", release_path=str(gate))}
            async with running_service(
                str(tmp_path), specs=specs, tenant_quota=1
            ) as svc:
                client = ServiceClient(port=svc.port)
                first = await call(client.submit, "nap", tenant="greedy")
                with pytest.raises(QuotaExceeded) as exc:
                    await call(client.submit, "nap", tenant="greedy",
                               priority=0)
                assert exc.value.status == 429
                assert exc.value.retry_after >= 1
                assert "retry_after_seconds" in exc.value.payload
                await call(client.cancel, first["id"])
                gate.touch()

        run(scenario())


class TestEventsStream:
    def test_stream_replays_then_follows_live(self, tmp_path):
        async def scenario():
            specs = {"nap": stub_spec("nap", "napping_job", seconds=0.3)}
            async with running_service(str(tmp_path), specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "nap")
                # attach while the job is still in flight
                events = await call(
                    lambda: list(client.events(doc["id"], timeout=60))
                )
                statuses = [e["status"] for e in events]
                assert statuses == ["queued", "running", "succeeded"]
                assert [e["seq"] for e in events] == [0, 1, 2]

        run(scenario())

    def test_stream_of_finished_job_terminates(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "ok")
                await call(client.wait, doc["id"], 60)
                events = await call(lambda: list(client.events(doc["id"])))
                assert events[-1]["status"] == "succeeded"

        run(scenario())


class TestFailures:
    def test_raising_experiment_fails_with_traceback(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "boom")
                final = await call(client.wait, doc["id"], 60)
                assert final["status"] == "failed"
                assert "kaboom" in final["traceback"]
                stats = await call(client.stats)
                assert stats["counters"]["service.jobs.failed"] == 1.0

        run(scenario())

    def test_failed_record_is_not_cached(self, tmp_path):
        async def scenario():
            # quarantine_attempts high: this test is about cache
            # behavior, not the poison ledger
            async with running_service(
                str(tmp_path), quarantine_attempts=100
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "boom")
                await call(client.wait, doc["id"], 60)
                dup = await call(client.submit, "boom")
                assert dup["status"] == "queued"  # not served from cache
                await call(client.wait, dup["id"], 60)

        run(scenario())


class TestPersistence:
    def test_records_land_in_run_store(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "ok")
                await call(client.wait, doc["id"], 60)
                return svc.run_id, doc["id"], svc.store

        run_id, job_id, store = run(scenario())
        records = list(store.iter_job_records(run_id))
        assert any(r["job_id"] == job_id for r in records)
        manifest = store.read_manifest(run_id)
        assert manifest["job_count"] == 1
        assert manifest["meta"]["service"] is True

    def test_manifest_is_listable_by_harness_cli(self, tmp_path, capsys):
        async def scenario():
            async with running_service(str(tmp_path)) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "ok")
                await call(client.wait, doc["id"], 60)
                return svc.run_id

        run_id = run(scenario())
        from repro.harness.cli import main as harness_main

        assert harness_main(["list", "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert harness_main(["show", run_id, "--runs-dir", str(tmp_path)]) == 0


class TestShutdown:
    def test_shutdown_settles_queued_jobs_as_cancelled(self, tmp_path):
        gate = tmp_path / "release"

        async def release_once_queue_closes(service):
            # Only after shutdown has stopped dispatch may the blocker
            # finish; earlier, the worker would start the stranded job.
            deadline = time.monotonic() + GATE_TIMEOUT_S
            while not service.queue._closed:
                if time.monotonic() > deadline:
                    raise TimeoutError("shutdown never closed the queue")
                await asyncio.sleep(0.01)
            gate.touch()

        async def scenario():
            specs = {"nap": stub_spec("nap", "gated_job", release_path=str(gate))}
            async with running_service(str(tmp_path), specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                blocker = await call(client.submit, "nap")
                stranded = await call(client.submit, "nap", priority=50)
                await call(client.cancel, blocker["id"])
                stranded_id = stranded["id"]
                service = svc
                releaser = asyncio.ensure_future(release_once_queue_closes(svc))
            # context manager exit ran shutdown()
            await releaser
            return service.jobs[stranded_id].status

        assert run(scenario()) == "cancelled"
