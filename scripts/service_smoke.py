#!/usr/bin/env python
"""CI smoke for ``repro.service``: boot a real node, drive it, verify.

Usage::

    python scripts/service_smoke.py [--runs-dir DIR] [--log FILE]
                                    [--experiment ID] [--timeout S]
                                    [--chaos]

Spawns ``python -m repro.service --port 0`` as a subprocess (ephemeral
port parsed from its first output line), then drives it with the
Python client through the full lifecycle the service exists for:

1. a fresh quick experiment runs to ``succeeded`` through
   ``queued -> running -> succeeded`` transitions,
2. an identical resubmission is served from the content-addressed
   cache (``cached: true``) without re-executing,
3. a queued job is cancelled and settles as ``cancelled``,
4. ``/v1/stats`` accounts for all of it (cache hits, completions).

``--chaos`` runs the durability drill instead: boot a node, submit a
mixed batch of quick experiments, SIGKILL the process mid-run, restart
over the same ``runs/`` directory, and assert every acknowledged job
still settles — replayed from the WAL journal when the kill caught it
unsettled, served from the content-addressed cache when it had already
finished — with results bit-identical to an uninterrupted control run.

Every boot runs in its own session, and each one's process group must
empty within ``GROUP_DEADLINE`` seconds of its stop: a graceful stop
closes the node's warm pool workers, and a SIGKILLed node's workers
exit on their own once their parent is gone.  A worker that outlives
its node fails the smoke.

The server's combined stdout/stderr goes to ``--log`` so CI can upload
it as an artifact.  Exits non-zero on any violated expectation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import ServiceClient, ServiceError  # noqa: E402

_LISTENING = re.compile(r"listening on http://[\w.\-]+:(?P<port>\d+)")

#: Seconds a stopped node's process group gets to empty.
GROUP_DEADLINE = 10.0


class SmokeFailure(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def wait_for_port(log_path: Path, proc: subprocess.Popen,
                  deadline_seconds: float, *, offset: int = 0) -> int:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SmokeFailure(
                f"service exited early (rc={proc.returncode}); see log"
            )
        match = _LISTENING.search(log_path.read_text()[offset:])
        if match:
            return int(match.group("port"))
        time.sleep(0.1)
    raise SmokeFailure("service never printed its listening address")


def spawn_node(runs_dir: str, log_path: Path,
               extra_args: tuple[str, ...] = ()) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    with log_path.open("a") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service",
             "--port", "0", "--runs-dir", runs_dir, *extra_args],
            stdout=log, stderr=subprocess.STDOUT,
            cwd=REPO_ROOT, env=env, start_new_session=True,
        )


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after the command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat[stat.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


def expect_group_empty(proc: subprocess.Popen, what: str) -> None:
    """Fail unless ``proc``'s session leaves no process behind in time."""
    deadline = time.monotonic() + GROUP_DEADLINE
    while (left := group_members(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    expect(not left, f"{what}: process(es) {left} outlived the node "
           f"by {GROUP_DEADLINE:g} s")


def stop_node(proc: subprocess.Popen) -> None:
    """Best-effort teardown on a failure path: the node, then its group."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already empty


def drive(client: ServiceClient, experiment: str, timeout: float) -> None:
    health = client.healthz()
    expect(health["ok"] is True, "healthz not ok")
    print(f"healthz ok (run {health['run_id']})")

    # 1. fresh submission runs to success
    fresh = client.submit(experiment, quick=True, tenant="smoke")
    expect(fresh["status"] in ("queued", "succeeded"),
           f"unexpected submit status {fresh['status']}")
    final = client.wait(fresh["id"], timeout=timeout)
    expect(final["status"] == "succeeded",
           f"fresh job ended {final['status']}: "
           f"{final.get('traceback', '')[:400]}")
    statuses = [event["status"] for event in final["events"]]
    expect(statuses == ["queued", "running", "succeeded"],
           f"unexpected transition sequence {statuses}")
    print(f"fresh {experiment} succeeded via {' -> '.join(statuses)}")

    # 2. identical resubmission is a cache hit, no re-execution
    dup = client.submit(experiment, quick=True, tenant="smoke-b")
    expect(dup["status"] == "succeeded", "duplicate did not short-circuit")
    expect(dup["cached"] is True, "duplicate was not served from cache")
    dup_statuses = [event["status"] for event in dup["events"]]
    expect("running" not in dup_statuses,
           f"duplicate re-executed: {dup_statuses}")
    print("duplicate served from cache without re-execution")

    # 3. cancel a job; accept either the queued or the cooperative path
    doomed = client.submit("longrun", quick=True, tenant="smoke",
                           priority=50)
    cancel = client.cancel(doomed["id"])
    doomed_final = client.wait(doomed["id"], timeout=timeout)
    expect(doomed_final["status"] == "cancelled",
           f"cancelled job ended {doomed_final['status']}")
    kind = "queued" if cancel.get("cancelled") else "running (cooperative)"
    print(f"cancelled a {kind} job -> status cancelled")

    # 4. stats account for everything above
    stats = client.stats()
    counters = stats["counters"]
    expect(counters["service.jobs.cache_hits"] >= 1.0, "no cache hit counted")
    expect(counters["service.jobs.completed"] >= 2.0,
           "completions not counted")
    expect(counters["service.jobs.cancelled"] >= 1.0,
           "cancellation not counted")
    expect(stats["jobs"]["succeeded"] >= 2, "stats lost succeeded jobs")
    expect(stats["jobs"]["cancelled"] >= 1, "stats lost the cancelled job")
    print(f"stats ok: {stats['jobs']}")


# Mixed batch for the chaos drill: distinct quick experiments so every
# submission owns its own cache key.  table1 leads — it is the slowest
# quick job, which widens the window in which the SIGKILL catches work
# genuinely in flight.  Every member reports *modeled* numbers, so the
# recovered results can be compared bit-for-bit against the control
# run; ensemble is deliberately absent (it live-benchmarks the VM, and
# wall-clock throughput is not reproducible across runs).
CHAOS_BATCH = (
    "table1", "fig5", "fig9", "abl-precision", "longrun",
    "abl-nextgen", "abl-cache", "abl-reduce", "fig6", "abl-xmt",
)

# Replay must re-run interrupted jobs, so the restarted node gets the
# same knobs the first boot had; one worker keeps most of the batch
# queued when the kill lands.
_CHAOS_NODE_ARGS = ("--concurrency", "1", "--tenant-quota", "32")


def _settle_after_restart(client: ServiceClient, experiment: str,
                          job_id: str, timeout: float) -> dict:
    """Resolve one pre-kill submission on the restarted node.

    Jobs the kill caught unsettled were replayed from the journal and
    keep their id.  Jobs that settled before the kill are gone from the
    new node's registry (their segment compacted) — resubmitting must
    hit the content-addressed cache instead of re-executing.
    """
    try:
        final = client.wait(job_id, timeout=timeout)
    except ServiceError as exc:
        if exc.status != 404:
            raise
        doc = client.submit(experiment, quick=True, tenant="chaos")
        expect(doc.get("cached") is True,
               f"{experiment}: settled pre-kill but not served from cache")
        final = client.wait(doc["id"], timeout=timeout)
    expect(final["status"] == "succeeded",
           f"{experiment} ended {final['status']} after restart: "
           f"{final.get('traceback', '')[:400]}")
    terminal = [e for e in final["events"]
                if e["status"] in ("succeeded", "failed", "cancelled")]
    expect(len(terminal) == 1,
           f"{experiment} double-settled: {final['events']}")
    return final


def chaos(args) -> int:
    tmp = tempfile.TemporaryDirectory(prefix="service-chaos-")
    chaos_runs = args.runs_dir or str(Path(tmp.name) / "runs")
    control_runs = str(Path(tmp.name) / "runs-control")
    args.log.write_text("")  # truncate; every boot appends
    proc = None
    try:
        # -- boot A: accept the batch, then die mid-run ---------------
        proc = spawn_node(chaos_runs, args.log, _CHAOS_NODE_ARGS)
        port = wait_for_port(args.log, proc, deadline_seconds=30.0)
        client = ServiceClient(port=port, timeout=args.timeout)
        ids = {
            exp: client.submit(exp, quick=True, tenant="chaos")["id"]
            for exp in CHAOS_BATCH
        }
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            statuses = [j["status"] for j in client.jobs()]
            if "running" in statuses:
                break
            time.sleep(0.05)
        expect("running" in statuses, "no job ever started on boot A")
        proc.kill()  # SIGKILL: no drain, no journal compaction
        proc.wait(timeout=15)
        expect_group_empty(proc, "boot A (SIGKILLed)")
        proc = None
        print(f"boot A accepted {len(ids)} jobs, SIGKILLed mid-run "
              f"({statuses.count('running')} running, "
              f"{statuses.count('queued')} queued); no worker outlived it")

        # -- boot B: same runs dir; the WAL owes us every job ---------
        offset = len(args.log.read_text())
        proc = spawn_node(chaos_runs, args.log, _CHAOS_NODE_ARGS)
        port = wait_for_port(args.log, proc, deadline_seconds=30.0,
                             offset=offset)
        client = ServiceClient(port=port, timeout=args.timeout)
        recovered_results = {}
        replayed = 0
        for exp, job_id in ids.items():
            final = _settle_after_restart(client, exp, job_id, args.timeout)
            if any("replayed from journal" in e.get("detail", "")
                   for e in final["events"]):
                replayed += 1
            recovered_results[exp] = client.result(final["id"])["result"]
        stats = client.stats()
        expect(stats["counters"].get("service.journal.recovered", 0) >= 1,
               "restart recovered nothing from the journal")
        expect(replayed >= 1, "no job carries the replay marker")
        print(f"boot B settled all {len(ids)} jobs "
              f"({replayed} replayed from the journal)")
        proc.terminate()
        proc.wait(timeout=15)
        expect_group_empty(proc, "boot B (SIGTERM)")
        proc = None

        # -- control: the same batch, never interrupted ---------------
        offset = len(args.log.read_text())
        proc = spawn_node(control_runs, args.log, _CHAOS_NODE_ARGS)
        port = wait_for_port(args.log, proc, deadline_seconds=30.0,
                             offset=offset)
        client = ServiceClient(port=port, timeout=args.timeout)
        control_ids = {
            exp: client.submit(exp, quick=True, tenant="chaos")["id"]
            for exp in CHAOS_BATCH
        }
        for exp, job_id in control_ids.items():
            final = client.wait(job_id, timeout=args.timeout)
            expect(final["status"] == "succeeded",
                   f"control {exp} ended {final['status']}")
            want = json.dumps(client.result(job_id)["result"],
                              sort_keys=True)
            got = json.dumps(recovered_results[exp], sort_keys=True)
            expect(got == want,
                   f"{exp}: recovered result differs from control run")
        print("recovered results bit-identical to the uninterrupted run")
        proc.terminate()
        proc.wait(timeout=15)
        expect_group_empty(proc, "control boot (SIGTERM)")
        proc = None
        print("SERVICE CHAOS SMOKE OK")
        return 0
    except (SmokeFailure, ServiceError, OSError) as exc:
        print(f"SERVICE CHAOS SMOKE FAILED: {exc}", file=sys.stderr)
        if args.log.exists():
            print("---- service log tail ----", file=sys.stderr)
            print("\n".join(args.log.read_text().splitlines()[-40:]),
                  file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            stop_node(proc)
        tmp.cleanup()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs-dir", default=None,
                        help="run-store root (default: a temp dir)")
    parser.add_argument("--log", type=Path,
                        default=Path("service_smoke.log"),
                        help="file capturing the server's output")
    parser.add_argument("--experiment", default="fig5",
                        help="quick experiment to submit (default fig5)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-job wait timeout in seconds")
    parser.add_argument("--chaos", action="store_true",
                        help="run the SIGKILL/restart durability drill "
                        "instead of the lifecycle smoke")
    args = parser.parse_args(argv)

    if args.chaos:
        return chaos(args)

    tmp = None
    runs_dir = args.runs_dir
    if runs_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="service-smoke-")
        runs_dir = tmp.name

    proc = None
    try:
        args.log.write_text("")  # truncate; spawn_node appends
        proc = spawn_node(runs_dir, args.log, ("--concurrency", "1"))
        port = wait_for_port(args.log, proc, deadline_seconds=30.0)
        print(f"service up on port {port}; log -> {args.log}")
        client = ServiceClient(port=port, timeout=args.timeout)
        drive(client, args.experiment, args.timeout)
        proc.terminate()
        proc.wait(timeout=15)
        expect_group_empty(proc, "node (SIGTERM)")
        proc = None
        print("SERVICE SMOKE OK")
        return 0
    except (SmokeFailure, ServiceError, OSError) as exc:
        print(f"SERVICE SMOKE FAILED: {exc}", file=sys.stderr)
        if args.log.exists():
            print("---- service log tail ----", file=sys.stderr)
            print("\n".join(args.log.read_text().splitlines()[-40:]),
                  file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            stop_node(proc)
        if tmp is not None:
            tmp.cleanup()


if __name__ == "__main__":
    sys.exit(main())
