"""The closed-loop search: probe candidates, pick a winner, persist it.

For each :class:`~repro.tune.probe.TuneScenario` the tuner

1. short-circuits to an existing artifact for the scenario's
   content-addressed key (same knob grids + same code = same problem;
   zero probes re-executed),
2. otherwise enumerates the knob-grid candidates — the defaults
   baseline (empty assignment) always first, then the cartesian product
   of the declared candidate grids, deterministically subsampled to the
   probe budget when the grid is larger,
3. prices each candidate on the simulated clock by running the
   scenario's device probe through
   :func:`repro.harness.jobs.execute_job` with ``cache_key=None``
   (worker machinery, no store/cache pollution),
4. adopts the best non-default candidate only if it beats the priced
   defaults by :data:`MIN_GAIN` (a tie never flips to a non-default
   config), and
5. persists the outcome — including the full trial table — as a
   :class:`~repro.tune.artifact.TunedArtifact` under ``runs/tuned/``.

A zero/exhausted budget or an all-probes-failed scenario degrades to a
defaults artifact (``source="budget-exhausted"``/``"probe-failed"``),
so tuning can never leave a workload worse than untuned.

The search is deterministic: probes price the simulated clock,
candidate order is fixed, subsampling is seeded by the scenario key,
and winner selection breaks ties toward the earlier candidate
(defaults first).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from typing import Any, Callable, Iterable, Mapping

from repro.tune.artifact import (
    SOURCE_BUDGET_EXHAUSTED,
    SOURCE_PROBE_FAILED,
    SOURCE_SEARCH,
    TunedArtifact,
    TunedStore,
    make_artifact,
    tuned_key,
)
from repro.tune.probe import PROBE_EXPERIMENT_ID, SCENARIOS, TuneScenario, scenario_for
from repro.tune.spec import ensure_declared, tunable

__all__ = [
    "MIN_GAIN",
    "ProbeError",
    "TuneOutcome",
    "candidates_for",
    "tune_scenario",
    "tune_scenarios",
]

#: minimum relative simulated-throughput gain over the defaults before a
#: non-default candidate is adopted: a config that buys less than this
#: is not worth the tuned cache key and run record it brings, so the
#: defaults every untuned run shares stand
MIN_GAIN = 0.02

#: Measurement signature: scoped values -> (per_second, seconds, accuracy).
Measure = Callable[[Mapping[str, Any]], tuple[float, float, float]]


class ProbeError(RuntimeError):
    """One probe job failed; carries the worker traceback."""


@dataclasses.dataclass(frozen=True)
class TuneOutcome:
    """What one :func:`tune_scenario` call did."""

    artifact: TunedArtifact
    #: True when an existing artifact satisfied the key (zero probes)
    cached: bool
    probes_run: int


def candidates_for(
    scenario: TuneScenario, budget: int, key: str
) -> list[dict[str, Any]]:
    """Candidate assignments, deterministically ordered and budgeted.

    The first candidate is always the empty assignment (consumer
    defaults).  When the full grid exceeds ``budget``, a
    ``random.Random`` seeded from the scenario key subsamples the
    non-default candidates — same scenario, same grids, same budget =>
    same candidate list on every host.
    """
    ensure_declared()
    grids = [
        (knob, tunable(knob).candidates) for knob in sorted(scenario.knobs)
    ]
    combos: list[dict[str, Any]] = []
    for values in itertools.product(*(grid for _, grid in grids)):
        combos.append({
            f"{scenario.device}/{knob}": value
            for (knob, _), value in zip(grids, values)
        })
    if budget < 1:
        return []
    if len(combos) > budget - 1:
        rng = random.Random(int(key[:16], 16))
        combos = [combos[i] for i in sorted(rng.sample(range(len(combos)), budget - 1))]
    return [{}] + combos


def _measure_via_worker(scenario: TuneScenario, quick: bool) -> Measure:
    """The default measurement: a probe payload through execute_job.

    ``cache_key=None`` keeps probes out of the result cache, and no
    store ever sees the record — probe jobs cannot pollute run history.
    """
    from repro.harness.jobs import STATUS_OK, execute_job
    from repro.tune.context import config_fingerprint

    counter = itertools.count()

    def measure(values: Mapping[str, Any]) -> tuple[float, float, float]:
        payload = {
            "job_id": f"tune-{scenario.scenario_id}-{next(counter)}",
            "experiment_id": PROBE_EXPERIMENT_ID,
            "module": "repro.tune.probe",
            "func": "probe_job",
            "params": {"scenario_id": scenario.scenario_id, "quick": quick},
            "cache_key": None,
            "observe": False,
            "tuned": {
                "values": dict(values),
                "fingerprint": config_fingerprint(values),
            },
        }
        record = execute_job(payload)
        if record["status"] != STATUS_OK:
            raise ProbeError(
                f"probe {payload['job_id']} failed:\n{record['traceback']}"
            )
        row = record["result"]["rows"][0]
        # headers: scenario, device, n, metric, per_second, seconds, accuracy
        return float(row[4]), float(row[5]), float(row[6])

    return measure


def _observation():
    """One ``tune``-device Observation from the ambient session, or None.

    Each :func:`tune_scenario` call is one "run" of the tuner, so its
    ``tune.*`` counters group under one device entry (tune, tune#2, ...)
    exactly like repeated device runs do.
    """
    from repro.obs.context import ambient_observation

    return ambient_observation("tune")


def tune_scenario(
    scenario: TuneScenario | str,
    *,
    quick: bool = False,
    budget: int = 16,
    store: TunedStore | None = None,
    force: bool = False,
    code_fingerprint: str | None = None,
    measure: Measure | None = None,
) -> TuneOutcome:
    """Search one scenario's knob space and persist the winning config."""
    if isinstance(scenario, str):
        scenario = scenario_for(scenario)
    if store is None:
        store = TunedStore()
    if code_fingerprint is None:
        from repro.harness.fingerprint import code_fingerprint as fp

        code_fingerprint = fp()
    ensure_declared()
    obs = _observation()

    def charge(name: str, value: float) -> None:
        if obs is not None:
            obs.charge(name, value)

    charge("tune.scenarios", 1)

    knob_grids = {knob: tunable(knob).candidates for knob in scenario.knobs}
    key = tuned_key(
        scenario_id=scenario.scenario_id,
        experiment_id=scenario.experiment_id,
        device=scenario.device,
        n=scenario.size(quick),
        quick=quick,
        knob_grids=knob_grids,
        code_fingerprint=code_fingerprint,
    )
    if not force:
        existing = store.load(key)
        if existing is not None:
            charge("tune.cache_hits", 1)
            return TuneOutcome(artifact=existing, cached=True, probes_run=0)

    if measure is None:
        measure = _measure_via_worker(scenario, quick)

    candidates = candidates_for(scenario, budget, key)
    trials: list[dict[str, Any]] = []
    probes_run = 0
    started = time.perf_counter()
    for values in candidates:
        trial: dict[str, Any] = {"values": dict(values)}
        try:
            per_second, seconds, accuracy = measure(values)
        except ProbeError as exc:
            charge("tune.probe_failures", 1)
            trial.update(ok=False, error=str(exc).splitlines()[0])
        else:
            trial.update(
                ok=True,
                per_second=float(per_second),
                seconds=float(seconds),
                accuracy=float(accuracy),
            )
        probes_run += 1
        charge("tune.probes", 1)
        trials.append(trial)
    charge("tune.seconds", time.perf_counter() - started)

    baseline = trials[0] if trials else None
    if baseline is None or not baseline.get("ok"):
        # No usable baseline: either the budget admitted zero probes or
        # the defaults themselves failed.  Fall back to defaults.
        source = SOURCE_BUDGET_EXHAUSTED if baseline is None else SOURCE_PROBE_FAILED
        charge("tune.fallbacks", 1)
        artifact = make_artifact(
            key=key,
            scenario_id=scenario.scenario_id,
            experiment_id=scenario.experiment_id,
            device=scenario.device,
            n=scenario.size(quick),
            quick=quick,
            knobs=scenario.knobs,
            values={},
            metric=scenario.metric,
            default_metric=0.0,
            best_metric=0.0,
            source=source,
            probes_run=probes_run,
            trials=trials,
            code_fingerprint=code_fingerprint,
        )
        store.save(artifact)
        return TuneOutcome(artifact=artifact, cached=False, probes_run=probes_run)

    default_metric = baseline["per_second"]
    best = baseline
    for trial in trials[1:]:
        if trial.get("ok") and trial["per_second"] > best["per_second"]:
            best = trial
    # Adoption gate: a non-default winner must clear the gain threshold
    # over the measured defaults, else the defaults stand.
    if best is not baseline and best["per_second"] < default_metric * (1.0 + MIN_GAIN):
        best = baseline
    if best is not baseline:
        charge("tune.adopted", 1)
    artifact = make_artifact(
        key=key,
        scenario_id=scenario.scenario_id,
        experiment_id=scenario.experiment_id,
        device=scenario.device,
        n=scenario.size(quick),
        quick=quick,
        knobs=scenario.knobs,
        values=best["values"],
        metric=scenario.metric,
        default_metric=default_metric,
        best_metric=best["per_second"],
        source=SOURCE_SEARCH,
        probes_run=probes_run,
        trials=trials,
        code_fingerprint=code_fingerprint,
    )
    store.save(artifact)
    return TuneOutcome(artifact=artifact, cached=False, probes_run=probes_run)


def tune_scenarios(
    scenario_ids: Iterable[str] | None = None,
    *,
    quick: bool = False,
    budget: int = 16,
    store: TunedStore | None = None,
    force: bool = False,
    code_fingerprint: str | None = None,
    on_outcome: Callable[[TuneScenario, TuneOutcome], None] | None = None,
) -> dict[str, TuneOutcome]:
    """Tune every (or the named) scenario; returns outcomes by id."""
    if store is None:
        store = TunedStore()
    if scenario_ids is None:
        chosen = SCENARIOS
    else:
        chosen = tuple(scenario_for(sid) for sid in scenario_ids)
    outcomes: dict[str, TuneOutcome] = {}
    for scenario in chosen:
        outcome = tune_scenario(
            scenario,
            quick=quick,
            budget=budget,
            store=store,
            force=force,
            code_fingerprint=code_fingerprint,
        )
        outcomes[scenario.scenario_id] = outcome
        if on_outcome is not None:
            on_outcome(scenario, outcome)
    return outcomes
