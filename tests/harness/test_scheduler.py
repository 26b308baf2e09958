"""Scheduler behavior: fan-out, crash isolation, retry, timeout."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.jobs import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_PREEMPTED,
    STATUS_TIMEOUT,
)
from repro.harness.scheduler import _backoff_delay, _job_key, _Pool, run_jobs
from tests.harness.procs import alive, wait_gone
from tests.harness.stub_jobs import stub_job

REPO_ROOT = Path(__file__).resolve().parents[2]


def _payloads(jobs):
    return [job.payload(cache_key=f"key-{job.job_id}") for job in jobs]


class TestBackoffJitter:
    def test_deterministic_for_same_key_and_attempt(self):
        assert _backoff_delay(0.25, 2, "cache-key-a") == _backoff_delay(
            0.25, 2, "cache-key-a"
        )

    def test_jitter_decorrelates_jobs(self):
        delays = {_backoff_delay(0.25, 1, f"key-{i}") for i in range(16)}
        assert len(delays) == 16  # a retry herd spreads out

    def test_jitter_bounded_to_half_extra(self):
        for attempt in (1, 2, 3):
            base = 0.25 * 2.0 ** (attempt - 1)
            delay = _backoff_delay(0.25, attempt, "some-key")
            assert base <= delay <= 1.5 * base

    def test_no_key_is_pure_exponential(self):
        assert _backoff_delay(0.25, 1) == 0.25
        assert _backoff_delay(0.25, 3) == 1.0

    def test_attempts_reschedule_on_distinct_delays(self):
        a = _backoff_delay(0.25, 1, "k")
        b = _backoff_delay(0.25, 2, "k")
        assert b != 2 * a  # jitter re-derived per attempt, not scaled

    def test_job_key_prefers_cache_key(self):
        assert _job_key({"cache_key": "ck", "job_id": "jid"}) == "ck"
        assert _job_key({"cache_key": None, "job_id": "jid"}) == "jid"
        assert _job_key({}) == ""


class TestInline:
    def test_records_in_roster_order(self):
        jobs = [stub_job(f"s{i}", value=float(i)) for i in range(3)]
        seen = []
        records = run_jobs(
            _payloads(jobs), max_workers=0, on_record=lambda r: seen.append(r["job_id"])
        )
        assert seen == ["s0", "s1", "s2"]
        assert all(records[j.job_id]["status"] == STATUS_OK for j in jobs)
        assert records["s2"]["result"]["rows"] == [["x", 2.0]]

    def test_exception_contained_with_traceback(self):
        jobs = [stub_job("good"), stub_job("bad", func="boom_job", message="pow")]
        records = run_jobs(_payloads(jobs), max_workers=0)
        assert records["good"]["status"] == STATUS_OK
        assert records["bad"]["status"] == STATUS_FAILED
        assert "pow" in records["bad"]["traceback"]
        assert "RuntimeError" in records["bad"]["traceback"]

    def test_retry_until_success(self, tmp_path):
        counter = tmp_path / "attempts"
        job = stub_job(
            "flaky", func="flaky_job", counter_path=str(counter), fail_times=2
        )
        records = run_jobs(
            [job.payload()], max_workers=0, retries=3, backoff=0.01
        )
        assert records["flaky"]["status"] == STATUS_OK
        assert records["flaky"]["attempts"] == 3
        assert counter.read_text() == "3"

    def test_retry_budget_exhausted(self, tmp_path):
        counter = tmp_path / "attempts"
        job = stub_job(
            "flaky", func="flaky_job", counter_path=str(counter), fail_times=10
        )
        records = run_jobs([job.payload()], max_workers=0, retries=1, backoff=0.01)
        assert records["flaky"]["status"] == STATUS_FAILED
        assert records["flaky"]["attempts"] == 2

    def test_stdout_captured_into_record(self, capsys):
        records = run_jobs([stub_job("s").payload()], max_workers=0)
        assert "stub stdout line" in records["s"]["stdout"]
        assert "stub stdout line" not in capsys.readouterr().out


class TestPool:
    def test_parallel_jobs_overlap(self, tmp_path):
        """Four gated jobs fan out: all four are running at once.

        The runner's ``--jobs 4`` fan-out in miniature, with no host
        clock: every job marks that it started
        and then waits for one release file, which the test creates only
        once all four marks exist.  A pool running fewer than four jobs
        at a time never gets there; its first job times out unreleased.
        """
        release = tmp_path / "release"
        jobs = [
            stub_job(
                f"gate{i}", func="gated_job", release_path=str(release),
                started_path=str(tmp_path / f"started{i}"),
            )
            for i in range(4)
        ]
        records = {}
        pool = threading.Thread(
            target=lambda: records.update(run_jobs(_payloads(jobs), max_workers=4))
        )
        pool.start()
        try:
            deadline = time.monotonic() + 60.0
            started = []
            while len(started) < 4 and time.monotonic() < deadline:
                started = sorted(tmp_path.glob("started*"))
                time.sleep(0.01)
            assert len(started) == 4, f"only {len(started)} of 4 jobs started"
            assert not records  # nothing finished: none was released
        finally:
            release.touch()
            pool.join()
        assert sorted(records) == [f"gate{i}" for i in range(4)]
        assert all(r["status"] == STATUS_OK for r in records.values())

    def test_crash_isolation_in_pool(self):
        jobs = [
            stub_job("a"),
            stub_job("bad", func="boom_job"),
            stub_job("b"),
        ]
        records = run_jobs(_payloads(jobs), max_workers=2)
        assert records["a"]["status"] == STATUS_OK
        assert records["b"]["status"] == STATUS_OK
        assert records["bad"]["status"] == STATUS_FAILED
        assert "kaboom" in records["bad"]["traceback"]

    def test_retry_across_processes(self, tmp_path):
        counter = tmp_path / "attempts"
        jobs = [
            stub_job("ok1"),
            stub_job("flaky", func="flaky_job", counter_path=str(counter), fail_times=1),
        ]
        records = run_jobs(_payloads(jobs), max_workers=2, retries=2, backoff=0.01)
        assert records["flaky"]["status"] == STATUS_OK
        assert records["flaky"]["attempts"] == 2
        assert records["ok1"]["attempts"] == 1

    def test_timeout_terminates_runaway_job(self):
        jobs = [
            stub_job("runaway", func="napping_job", seconds=60.0),
            stub_job("quick", func="napping_job", seconds=0.1),
        ]
        start = time.perf_counter()
        records = run_jobs(_payloads(jobs), max_workers=2, timeout=1.0)
        wall = time.perf_counter() - start
        assert records["runaway"]["status"] == STATUS_TIMEOUT
        assert "timeout" in records["runaway"]["traceback"]
        assert records["quick"]["status"] == STATUS_OK
        assert wall < 20.0  # nowhere near the 60s nap

    def test_timeout_consumes_retry_budget(self):
        job = stub_job("runaway", func="napping_job", seconds=60.0)
        records = run_jobs([job.payload()], max_workers=1, timeout=0.4, retries=1, backoff=0.01)
        assert records["runaway"]["status"] == STATUS_TIMEOUT
        assert records["runaway"]["attempts"] == 2

    def test_innocent_bystander_requeued_without_attempt(self):
        """A sibling killed by another job's timeout reruns for free."""
        jobs = [
            stub_job("runaway", func="napping_job", seconds=60.0),
            stub_job("short", func="napping_job", seconds=0.2),
            stub_job("late", func="napping_job", seconds=0.9),
        ]
        records = run_jobs(_payloads(jobs), max_workers=2, timeout=1.2)
        assert records["runaway"]["status"] == STATUS_TIMEOUT
        assert records["short"]["status"] == STATUS_OK
        # "late" started ~0.2s in; the runaway's expiry at 1.2s tears the
        # pool down mid-nap, and it must still complete with attempts=1.
        assert records["late"]["status"] == STATUS_OK
        assert records["late"]["attempts"] == 1


def _pid_of(records, job_id):
    record = records[job_id]
    assert record["status"] == STATUS_OK, record["traceback"]
    return int(record["result"]["rows"][0][1])


def _run_pid(pool, tag):
    job = stub_job(f"pid{tag}", func="pid_job", tag=tag)
    return _pid_of(run_jobs([job.payload()], pool=pool), job.job_id)


@pytest.fixture
def pool():
    pool = _Pool(1)
    yield pool
    pool.close()


class TestCallerOwnedPool:
    def test_owned_pool_is_torn_down_on_return(self):
        job = stub_job("pid", func="pid_job")
        pid = _pid_of(run_jobs([job.payload()], max_workers=1), "pid")
        assert wait_gone(pid)

    def test_worker_stays_warm_across_calls(self, pool):
        pids = {_run_pid(pool, tag) for tag in range(3)}
        assert len(pids) == 1
        assert alive(pids.pop())
        assert pool.generation == 1

    def test_failed_job_keeps_the_worker(self, pool):
        first = _run_pid(pool, 0)
        bad = stub_job("bad", func="boom_job")
        assert run_jobs([bad.payload()], pool=pool)["bad"]["status"] == STATUS_FAILED
        assert _run_pid(pool, 1) == first

    def test_timeout_rebuilds_the_pool(self, pool):
        first = _run_pid(pool, 0)
        nap = stub_job("nap", func="napping_job", seconds=60.0)
        records = run_jobs([nap.payload()], pool=pool, timeout=0.5)
        assert records["nap"]["status"] == STATUS_TIMEOUT
        assert _run_pid(pool, 1) != first
        assert not alive(first)
        assert pool.generation == 2

    def test_crash_rebuilds_the_pool(self, pool):
        first = _run_pid(pool, 0)
        kill = stub_job("kill", func="sigkill_job")
        assert run_jobs([kill.payload()], pool=pool)["kill"]["status"] == STATUS_FAILED
        assert _run_pid(pool, 1) != first
        assert pool.generation == 2

    def test_preemption_rebuilds_the_pool(self, pool, tmp_path):
        first = _run_pid(pool, 0)
        started = tmp_path / "started"
        stalled = stub_job("stalled", func="stalled_job", touch_path=str(started))
        cancel = threading.Event()

        def preempt_once_started():
            deadline = time.monotonic() + 60.0
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            cancel.set()

        watcher = threading.Thread(target=preempt_once_started)
        watcher.start()
        records = run_jobs([stalled.payload()], pool=pool, cancel_event=cancel)
        watcher.join(timeout=60)
        assert records["stalled"]["status"] == STATUS_PREEMPTED
        # the stopped worker was reclaimed, and the next job gets a new one
        assert wait_gone(first)
        assert _run_pid(pool, 1) != first
        assert pool.generation == 2

    def test_worker_dead_while_idle_is_replaced(self, pool):
        first = _run_pid(pool, 0)
        os.kill(first, signal.SIGKILL)
        assert wait_gone(first)
        job = stub_job("after", func="pid_job")
        records = run_jobs([job.payload()], pool=pool)
        assert records["after"]["attempts"] == 1
        assert _pid_of(records, "after") != first
        assert pool.generation == 2

    def test_closed_pool_forks_nothing(self, pool):
        first = _run_pid(pool, 0)
        pool.close()
        assert wait_gone(first)
        with pytest.raises(RuntimeError):
            _run_pid(pool, 1)
        assert pool.generation == 1


_HOLDER = """
import sys, time
from repro.harness.scheduler import _Pool, run_jobs
from tests.harness.stub_jobs import stub_job

job = stub_job("pid", func="pid_job")
# held, not a temporary: a collected pool's worker exits on its own
pool = _Pool(1)
record = run_jobs([job.payload()], pool=pool)["pid"]
print(int(record["result"]["rows"][0][1]), flush=True)
time.sleep(600)
"""


def test_worker_exits_when_its_parent_is_sigkilled():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLDER],
        stdout=subprocess.PIPE, env=env, cwd=REPO_ROOT,
    )
    worker = None
    try:
        worker = int(holder.stdout.readline())
        assert alive(worker)
        holder.kill()
        holder.wait(timeout=30)
        assert wait_gone(worker), "the orphaned pool worker outlived its parent"
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait()
        holder.stdout.close()
        if worker is not None and alive(worker):
            os.kill(worker, signal.SIGKILL)
