"""The warm worker: one long-lived harness pool per service slot.

Jobs on a slot reuse one worker process until a timeout, a worker
death or a preemption forces a rebuild; per-job state (tuned config,
observation session) never leaks from one job into the next; and a
stopped node leaves no worker behind.  Stub jobs report ``os.getpid()``
so every test reads which process ran a job.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments.registry import spec_for
from repro.harness.fingerprint import code_fingerprint
from repro.service.client import ServiceClient, ServiceError
from repro.tune.artifact import TunedStore, make_artifact, tuned_key
from tests.harness.procs import GONE_TIMEOUT, alive, wait_gone
from tests.service.conftest import call, running_service, stub_spec

REPO_ROOT = Path(__file__).resolve().parents[2]
SPAWNED = "service.workers.spawned"


def run(coro):
    return asyncio.run(coro)


def pid_specs(**extra):
    """Six pid jobs (``pid-0`` ... ``pid-5``), each its own cache key."""
    pids = {f"pid-{i}": stub_spec(f"pid-{i}", "pid_job") for i in range(6)}
    return {**pids, **extra}


async def run_pid_job(client: ServiceClient, tag: int) -> tuple[int, dict]:
    """Run pid job ``tag``; return (the worker's pid, final doc)."""
    doc = await call(client.submit, f"pid-{tag}")
    final = await call(client.wait, doc["id"], 60)
    assert final["status"] == "succeeded", final.get("traceback")
    result = await call(client.result, doc["id"])
    return int(result["result"]["rows"][0][1]), final


async def spawned(client: ServiceClient) -> float:
    return (await call(client.stats))["counters"][SPAWNED]


class TestWarmSlot:
    def test_successful_jobs_share_one_worker(self, tmp_path):
        async def scenario():
            async with running_service(str(tmp_path), specs=pid_specs()) as svc:
                client = ServiceClient(port=svc.port)
                assert await spawned(client) == 0.0  # lazy: nothing at boot
                pids = [(await run_pid_job(client, tag))[0] for tag in range(5)]
                return pids, await spawned(client)

        pids, count = run(scenario())
        assert len(set(pids)) == 1
        assert pids[0] != os.getpid()
        assert count == 1.0
        # the drained node closed the slot's pool
        assert wait_gone(pids[0])

    def test_job_after_a_sigkilled_worker_runs_in_a_new_worker(self, tmp_path):
        specs = pid_specs(kill=stub_spec("kill", "sigkill_job"))

        async def scenario():
            async with running_service(
                str(tmp_path), specs=specs, retries=0, quarantine_attempts=100
            ) as svc:
                client = ServiceClient(port=svc.port)
                first, _ = await run_pid_job(client, 0)
                doc = await call(client.submit, "kill")
                killed = await call(client.wait, doc["id"], 60)
                after_crash, _ = await run_pid_job(client, 1)
                # a worker that dies while idle is replaced before the
                # next job reaches it: that job spends no extra attempt
                os.kill(after_crash, signal.SIGKILL)
                assert wait_gone(after_crash)
                after_idle_kill, final = await run_pid_job(client, 2)
                return (first, killed, after_crash, after_idle_kill, final,
                        await spawned(client))

        first, killed, after_crash, after_idle_kill, final, count = run(scenario())
        assert killed["status"] == "failed"
        assert "worker process died" in killed["traceback"]
        assert len({first, after_crash, after_idle_kill}) == 3
        assert final["attempts"] == 1
        assert count == 3.0

    def test_job_after_a_hang_preemption_runs_in_a_new_worker(self, tmp_path):
        specs = pid_specs(
            stalled=stub_spec(
                "stalled", "stalled_job", touch_path=str(tmp_path / "started")
            )
        )

        async def scenario():
            async with running_service(
                str(tmp_path / "runs"),
                specs=specs,
                retries=0,
                quarantine_attempts=100,
                journal_fsync=False,
                hang_seconds=1.0,
                hang_retries=0,
                supervise_interval=0.1,
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "stalled")
                hung = await call(client.wait, doc["id"], 60)
                after, _ = await run_pid_job(client, 0)
                return hung, after, await spawned(client)

        hung, after, count = run(scenario())
        assert hung["status"] == "failed" and "hung" in hung["traceback"]
        assert after != os.getpid()
        # the frozen worker's pool, then the one the next job ran in
        assert count == 2.0

    def test_job_after_a_timeout_runs_in_a_new_worker(self, tmp_path):
        specs = pid_specs(nap=stub_spec("nap", "napping_job", seconds=60.0))

        async def scenario():
            async with running_service(
                str(tmp_path), specs=specs, retries=0, timeout=2.0,
                quarantine_attempts=100,
            ) as svc:
                client = ServiceClient(port=svc.port)
                first, _ = await run_pid_job(client, 0)
                doc = await call(client.submit, "nap")
                timed_out = await call(client.wait, doc["id"], 60)
                after, _ = await run_pid_job(client, 1)
                return first, timed_out, after, await spawned(client)

        first, timed_out, after, count = run(scenario())
        assert timed_out["status"] == "failed"
        assert "timeout" in timed_out["traceback"]
        assert after != first
        assert not alive(first)
        assert count == 2.0


def _seed_tuned_artifact(root: Path, experiment_id: str, values: dict) -> None:
    fingerprint = code_fingerprint()
    grids = {"mta.streams": (16, 32, 64, 128, 256)}
    TunedStore(root).save(
        make_artifact(
            key=tuned_key(
                scenario_id="warm-mta",
                experiment_id=experiment_id,
                device="mta",
                n=512,
                quick=True,
                knob_grids=grids,
                code_fingerprint=fingerprint,
            ),
            scenario_id="warm-mta",
            experiment_id=experiment_id,
            device="mta",
            n=512,
            quick=True,
            knobs=("mta.streams",),
            values=values,
            metric="steps",
            default_metric=1.0,
            best_metric=2.0,
            source="search",
            probes_run=1,
            trials=(),
            code_fingerprint=fingerprint,
        )
    )


_FRESH = """
import json, sys
from repro.experiments.registry import spec_for
from repro.harness.jobs import Job, execute_job

spec = spec_for(sys.argv[1])
job = Job(job_id="fresh", experiment_id=spec.experiment_id, module=spec.module,
          func=spec.func, params=spec.params(quick=True))
print(json.dumps(execute_job(job.payload())))
"""


def _fresh_process_result(experiment_id: str) -> dict:
    """The untuned, unobserved quick result from a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c", _FRESH, experiment_id],
        capture_output=True, env=env, timeout=120, check=True,
    )
    record = json.loads(out.stdout)
    assert record["status"] == "ok", record["traceback"]
    return record["result"]


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class TestPerJobState:
    def test_tuned_job_leaves_the_next_untuned_job_untouched(self, tmp_path):
        # abl-xmt's result moves with the MTA stream count
        runs = tmp_path / "runs"
        _seed_tuned_artifact(runs, "abl-xmt", {"mta/mta.streams": 32})
        specs = {"abl-xmt": spec_for("abl-xmt")}

        async def scenario():
            async with running_service(str(runs), specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                out = {}
                for tuned in (True, False):
                    doc = await call(client.submit, "abl-xmt", quick=True, tuned=tuned)
                    final = await call(client.wait, doc["id"], 120)
                    assert final["status"] == "succeeded", final.get("traceback")
                    out[tuned] = (await call(client.result, doc["id"]))["result"]
                return out, await spawned(client)

        results, count = run(scenario())
        assert count == 1.0  # both jobs ran in the one warm worker
        fresh = _fresh_process_result("abl-xmt")
        assert _canonical(results[True]) != _canonical(fresh)
        assert _canonical(results[False]) == _canonical(fresh)

    def test_observed_job_leaves_the_next_plain_job_unobserved(self, tmp_path):
        specs = {"fig6": spec_for("fig6")}

        async def scenario():
            async with running_service(str(tmp_path), specs=specs) as svc:
                client = ServiceClient(port=svc.port)
                docs = {}
                for observe in (True, False):
                    doc = await call(
                        client.submit, "fig6", quick=True, observe=observe
                    )
                    final = await call(client.wait, doc["id"], 120)
                    assert final["status"] == "succeeded", final.get("traceback")
                    docs[observe] = doc["id"]
                observed = await call(client.counters, docs[True])
                plain = await call(client.result, docs[False])
                errors = []
                for fetch in (client.counters, client.trace):
                    try:
                        await call(fetch, docs[False])
                    except ServiceError as exc:
                        errors.append(exc.status)
                record = svc.jobs[docs[False]].record
                return observed, plain, errors, record, await spawned(client)

        observed, plain, errors, record, count = run(scenario())
        assert count == 1.0
        assert observed  # the observed job did collect
        assert errors == [404, 404]
        assert not plain["result"].get("counters")
        assert record.get("trace") is None
        assert _canonical(plain["result"]) == _canonical(_fresh_process_result("fig6"))


_LISTENING = re.compile(r"listening on http://[\w.\-]+:(\d+)")


def _group_empty(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def _children(pid: int) -> list[int]:
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == pid:
            out.append(int(entry.name))
    return out


class TestNodeShutdown:
    def test_graceful_sigterm_leaves_no_child(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--concurrency", "2", "--runs-dir", str(tmp_path / "runs"),
             "--no-journal-fsync"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, start_new_session=True,
        )
        try:
            match = _LISTENING.search(proc.stdout.readline().decode())
            assert match, "the node never printed its address"
            client = ServiceClient(port=int(match.group(1)), timeout=60.0)
            doc = client.submit("fig5", quick=True)
            assert client.wait(doc["id"], timeout=120)["status"] == "succeeded"
            workers = _children(proc.pid)
            assert workers  # the slot's worker stays warm after the job
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            deadline = time.monotonic() + GONE_TIMEOUT
            while not _group_empty(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert _group_empty(proc.pid)
            assert not any(alive(pid) for pid in workers)
        finally:
            if proc.poll() is None:
                proc.kill()
            if not _group_empty(proc.pid):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
