"""Harness orchestration: roster → jobs → cache → scheduler → run store.

:func:`run_roster` is the one entry point every front-end shares — the
``python -m repro.harness`` CLI, the legacy
``repro.experiments.runner`` shim, and the tests (which feed it stub
jobs instead of the real registry).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.harness.fingerprint import code_fingerprint
from repro.harness.jobs import STATUS_OK, Job, job_cache_key
from repro.harness.scheduler import run_jobs
from repro.harness.store import RunStore

__all__ = [
    "RunOutcome",
    "attach_tuned",
    "jobs_from_registry",
    "run_roster",
    "diff_runs",
    "manifest_essence",
    "COUNTER_REGRESSION_TOLERANCE",
]

#: Relative drift above which a hardware counter difference between two
#: observed runs counts as a regression in ``diff``.  Exact counters
#: (count/bytes units) are deterministic, so any drift at all on them is
#: already suspicious; 5% keeps the gate robust for derived quantities.
COUNTER_REGRESSION_TOLERANCE = 0.05


@dataclasses.dataclass(frozen=True)
class RunOutcome:
    """What a roster execution produced."""

    run_id: str | None
    manifest: dict[str, Any]
    records: tuple[dict[str, Any], ...]  # roster order

    @property
    def failures(self) -> int:
        return self.manifest["failures"]

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def jobs_from_registry(
    *,
    quick: bool = False,
    fault_plan: Mapping[str, Any] | None = None,
    replicas: int | None = None,
    only: Iterable[str] | None = None,
    skip: Iterable[str] = (),
    observe: bool = False,
) -> list[Job]:
    """Build the experiment roster as harness jobs.

    ``only``/``skip`` filter by experiment id and raise ``KeyError`` on
    unknown ids (so CLI typos fail loudly before any compute).
    ``fault_plan`` (a JSON-native ``FaultPlan.to_dict()``) reaches the
    specs that accept it and lands in their job params — so it is part
    of the cache key, and runs under different plans never alias.
    ``replicas`` reaches the specs that accept it the same way (and is
    likewise part of the cache key).  ``observe`` runs every job under
    an observation session: hardware counters land in the result, trace
    documents in the run store.
    """
    from repro.experiments.registry import EXPERIMENTS, spec_for

    for eid in list(only or []) + list(skip):
        spec_for(eid)  # raises KeyError on unknown ids
    wanted = set(only) if only else None
    skipped = set(skip)
    jobs = []
    for spec in EXPERIMENTS:
        eid = spec.experiment_id
        if (wanted is not None and eid not in wanted) or eid in skipped:
            continue
        jobs.append(
            Job(
                job_id=eid,
                experiment_id=eid,
                module=spec.module,
                func=spec.func,
                params=spec.params(
                    quick=quick,
                    fault_plan=fault_plan,
                    replicas=replicas,
                ),
                observe=observe,
            )
        )
    return jobs


def attach_tuned(
    jobs: Sequence[Job],
    *,
    tuned_store: Any | None = None,
    quick: bool = False,
    fingerprint: str | None = None,
) -> list[Job]:
    """Attach persisted tuned configs to the jobs they were tuned for.

    For each job, the tuned store is consulted for artifacts matching
    (experiment id, quick, code fingerprint); when any apply, the
    merged values ride along in ``Job.tuned`` — the worker applies them
    ambiently around the experiment function, the tuned-config
    fingerprint joins the cache key, and the run record shows exactly
    what was applied.  Jobs with no matching artifact (or whose
    artifacts carry empty winning values, i.e. the defaults won) pass
    through untouched, so their cache keys stay byte-identical to
    untuned runs.
    """
    from repro.tune.artifact import TunedStore, merge_for_experiment

    if tuned_store is None:
        tuned_store = TunedStore()
    fingerprint = fingerprint or code_fingerprint()
    assignments: dict[str, Any] = {}
    out: list[Job] = []
    for job in jobs:
        if job.experiment_id not in assignments:
            assignments[job.experiment_id] = merge_for_experiment(
                tuned_store,
                job.experiment_id,
                quick=quick,
                code_fingerprint=fingerprint,
            )
        assignment = assignments[job.experiment_id]
        if assignment is None or not assignment.values:
            out.append(job)
            continue
        out.append(
            dataclasses.replace(
                job,
                tuned={
                    "values": dict(assignment.values),
                    "fingerprint": assignment.fingerprint,
                    "keys": list(assignment.keys),
                },
            )
        )
    return out


def _summary_row(record: Mapping[str, Any]) -> dict[str, Any]:
    return {
        "job_id": record["job_id"],
        "experiment_id": record["experiment_id"],
        "cache_key": record.get("cache_key"),
        "status": record["status"],
        "cached": bool(record.get("cached", False)),
        "attempts": record.get("attempts", 1),
        "wall_seconds": record.get("wall_seconds", 0.0),
        "all_passed": record.get("all_passed"),
    }


def run_roster(
    jobs: Sequence[Job],
    *,
    store: RunStore | None = None,
    max_workers: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.25,
    use_cache: bool = True,
    invalidate: Iterable[str] = (),
    run_meta: Mapping[str, Any] | None = None,
    fingerprint: str | None = None,
    on_record: Callable[[dict[str, Any]], None] | None = None,
) -> RunOutcome:
    """Execute a job roster and (optionally) persist it.

    With ``store=None`` the run is ephemeral — no cache, no artifacts —
    which is exactly what the legacy runner shim wants.  ``on_record``
    fires for every job (cached replays included) as its record becomes
    available.  A job counts as a *failure* when it did not finish
    (``status != "ok"``) or finished outside its paper-shape bands
    (``all_passed`` false); the manifest records both notions.
    """
    wall_start = time.perf_counter()
    fingerprint = fingerprint or code_fingerprint()

    if store is not None:
        for eid in invalidate:
            store.invalidate(eid)

    keyed: list[tuple[Job, str]] = [
        (job, job_cache_key(job, fingerprint)) for job in jobs
    ]
    records_by_id: dict[str, dict[str, Any]] = {}
    to_run: list[dict[str, Any]] = []
    for job, key in keyed:
        cached = (
            store.cache_get(key) if (use_cache and store is not None) else None
        )
        if cached is not None and cached.get("status") == STATUS_OK:
            replay = dict(cached)
            replay["cached"] = True
            records_by_id[job.job_id] = replay
            if on_record is not None:
                on_record(replay)
        else:
            to_run.append(job.payload(cache_key=key))

    def fresh_record(record: dict[str, Any]) -> None:
        record["cached"] = False
        records_by_id[record["job_id"]] = record
        if on_record is not None:
            on_record(record)

    run_jobs(
        to_run,
        max_workers=max_workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        on_record=fresh_record,
    )

    ordered = tuple(records_by_id[job.job_id] for job, _key in keyed)
    not_ok = sum(1 for r in ordered if r["status"] != STATUS_OK)
    band_fail = sum(1 for r in ordered if r.get("all_passed") is False)

    run_id = store.new_run_id() if store is not None else None
    manifest: dict[str, Any] = {
        "run_id": run_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "code_fingerprint": fingerprint,
        "meta": dict(run_meta or {}),
        "jobs": [_summary_row(r) for r in ordered],
        "job_count": len(ordered),
        "cached_count": sum(1 for r in ordered if r.get("cached")),
        "not_ok_count": not_ok,
        "band_failure_count": band_fail,
        "failures": not_ok + band_fail,
        "wall_seconds_total": time.perf_counter() - wall_start,
    }
    if store is not None:
        for record in ordered:
            store.write_job_record(run_id, record)
            if record.get("trace"):
                store.write_trace(run_id, record["job_id"], record["trace"])
            if record["status"] == STATUS_OK and not record.get("cached"):
                store.cache_put(record["cache_key"], record)
        store.write_manifest(run_id, manifest)
    return RunOutcome(run_id=run_id, manifest=manifest, records=ordered)


def manifest_essence(manifest: Mapping[str, Any]) -> list[tuple[Any, ...]]:
    """The deterministic projection of a manifest.

    Everything that must be identical between a serial and a parallel
    run of the same roster: ids, cache keys, statuses, band outcomes.
    Wall-clock and timestamps are excluded by construction.
    """
    return [
        (
            row["job_id"],
            row["experiment_id"],
            row["cache_key"],
            row["status"],
            row["all_passed"],
        )
        for row in manifest["jobs"]
    ]


def _checks_by_experiment(
    store: RunStore, run_id: str
) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for record in store.iter_job_records(run_id):
        checks = {}
        counters: dict[str, float] = {}
        if record.get("result"):
            for check in record["result"].get("checks", []):
                checks[check["key"]] = check
            counters = dict(record["result"].get("counters") or {})
        out[record["experiment_id"]] = {
            "status": record["status"],
            "all_passed": record.get("all_passed"),
            "checks": checks,
            "counters": counters,
        }
    return out


def diff_runs(store: RunStore, run_a: str, run_b: str) -> tuple[list[str], int]:
    """Compare two stored runs' shape checks; return (lines, regressions).

    A *regression* is a check that passed in ``run_a`` and fails in
    ``run_b``, an experiment that was ok in ``run_a`` and did not
    finish in ``run_b``, or — when both runs were observed — a hardware
    counter whose relative drift exceeds
    :data:`COUNTER_REGRESSION_TOLERANCE`.  Measured-value drift within
    a shape band is reported but not counted.
    """
    a = _checks_by_experiment(store, run_a)
    b = _checks_by_experiment(store, run_b)
    lines: list[str] = []
    regressions = 0

    for eid in sorted(set(a) | set(b)):
        if eid not in b:
            lines.append(f"{eid}: only in {run_a}")
            continue
        if eid not in a:
            lines.append(f"{eid}: only in {run_b}")
            continue
        ea, eb = a[eid], b[eid]
        if ea["status"] == STATUS_OK and eb["status"] != STATUS_OK:
            regressions += 1
            lines.append(
                f"{eid}: REGRESSION — was ok, now {eb['status']}"
            )
            continue
        if ea["status"] != STATUS_OK or eb["status"] != STATUS_OK:
            lines.append(f"{eid}: status {ea['status']} -> {eb['status']}")
            continue
        for key in sorted(set(ea["checks"]) | set(eb["checks"])):
            ca, cb = ea["checks"].get(key), eb["checks"].get(key)
            if ca is None or cb is None:
                lines.append(
                    f"{eid}/{key}: only in {run_a if cb is None else run_b}"
                )
                continue
            if ca["measured"] == cb["measured"] and ca["passed"] == cb["passed"]:
                continue
            flag = ""
            if ca["passed"] and not cb["passed"]:
                regressions += 1
                flag = " REGRESSION"
            elif not ca["passed"] and cb["passed"]:
                flag = " fixed"
            lines.append(
                f"{eid}/{key}: {ca['measured']:.6g} -> {cb['measured']:.6g} "
                f"(band {cb['low']:.4g}..{cb['high']:.4g}) "
                f"[{'PASS' if ca['passed'] else 'FAIL'}->"
                f"{'PASS' if cb['passed'] else 'FAIL'}]{flag}"
            )
        # Hardware-counter gate: only when both runs observed this
        # experiment — a plain-vs-observed diff is not a regression.
        if ea["counters"] and eb["counters"]:
            from repro.obs.counters import diff_counters

            for name, va, vb, drift in diff_counters(
                ea["counters"], eb["counters"],
                tolerance=COUNTER_REGRESSION_TOLERANCE,
            ):
                regressions += 1
                lines.append(
                    f"{eid}/{name}: counter {va:.6g} -> {vb:.6g} "
                    f"({drift:+.1%} drift) COUNTER REGRESSION"
                )
    if not lines:
        lines.append("runs are identical on every shape check")
    return lines, regressions
