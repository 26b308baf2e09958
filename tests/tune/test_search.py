"""The closed-loop search with an injected measurement function.

Every test drives :func:`tune_scenario` through a deterministic fake
``measure``, so the search logic (candidate enumeration, adoption gate,
fallbacks, artifact caching, counters) is exercised without running a
single real probe.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.context import collect
from repro.tune.artifact import (
    SOURCE_BUDGET_EXHAUSTED,
    SOURCE_PROBE_FAILED,
    SOURCE_SEARCH,
    TunedStore,
)
from repro.tune.probe import scenario_for
from repro.tune.search import (
    MIN_GAIN,
    ProbeError,
    candidates_for,
    tune_scenario,
    tune_scenarios,
)

CODE_FP = "feedc0de" * 8
MTA = scenario_for("tunesweep-mta")


def exec_speed_measure(values):
    """Deterministic: 16 streams 9x, 32 streams 3x, the rest/defaults 1x."""
    speed = {16: 900.0, 32: 300.0}.get(values.get("mta/mta.streams"), 100.0)
    return speed, 1.0 / speed, 0.0


class TestCandidates:
    def test_defaults_first_then_full_grid(self):
        cands = candidates_for(MTA, budget=16, key="ab" * 32)
        assert cands[0] == {}
        for streams in (16, 32, 64, 128, 256):
            assert {"mta/mta.streams": streams} in cands
        assert len(cands) == 6

    def test_deterministic_subsample_under_budget(self):
        key = "cd" * 32
        a = candidates_for(MTA, budget=2, key=key)
        b = candidates_for(MTA, budget=2, key=key)
        assert a == b  # same key + budget => same candidate list
        assert a[0] == {} and len(a) == 2

    def test_zero_budget_admits_nothing(self):
        assert candidates_for(MTA, budget=0, key="ef" * 32) == []

    def test_multi_knob_scenario_takes_the_cartesian_product(self):
        both = dataclasses.replace(
            scenario_for("table1-cell"), knobs=("cell.partition", "mta.streams")
        )
        cands = candidates_for(both, budget=64, key="01" * 32)
        streams = {c.get("cell/mta.streams") for c in cands[1:]}
        parts = {c.get("cell/cell.partition") for c in cands[1:]}
        assert len(cands) == 1 + len(streams) * len(parts)
        assert "cyclic" in parts and "block" in parts


class TestSearch:
    def test_adopts_the_fastest_candidate(self, tmp_path):
        outcome = tune_scenario(
            "tunesweep-mta", quick=True, store=TunedStore(tmp_path),
            code_fingerprint=CODE_FP, measure=exec_speed_measure,
        )
        art = outcome.artifact
        assert not outcome.cached
        assert outcome.probes_run == 6
        assert art.source == SOURCE_SEARCH
        assert art.values == {"mta/mta.streams": 16}
        assert art.speedup == pytest.approx(9.0)
        assert len(art.trials) == 6

    def test_same_measure_twice_is_the_same_winner(self, tmp_path):
        kwargs = dict(
            quick=True, code_fingerprint=CODE_FP, measure=exec_speed_measure,
        )
        a = tune_scenario(
            "tunesweep-mta", store=TunedStore(tmp_path / "a"), **kwargs
        ).artifact
        b = tune_scenario(
            "tunesweep-mta", store=TunedStore(tmp_path / "b"), **kwargs
        ).artifact
        assert a.key == b.key
        assert a.values == b.values
        assert a.trials == b.trials

    def test_sub_threshold_gain_keeps_the_defaults(self, tmp_path):
        def barely_faster(values):
            # 1% gain: under MIN_GAIN, so the defaults stand
            speed = 101.0 if values else 100.0
            return speed, 1.0 / speed, 0.0

        assert MIN_GAIN > 0.01
        art = tune_scenario(
            "tunesweep-mta", quick=True, store=TunedStore(tmp_path),
            code_fingerprint=CODE_FP, measure=barely_faster,
        ).artifact
        assert art.source == SOURCE_SEARCH
        assert art.values == {}  # defaults stand
        assert art.speedup == pytest.approx(1.0)

    def test_cached_artifact_short_circuits(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, store=store, code_fingerprint=CODE_FP,
        )
        first = tune_scenario(
            "tunesweep-mta", measure=exec_speed_measure, **kwargs
        )

        def exploding(values):
            raise AssertionError("cached search must run zero probes")

        second = tune_scenario("tunesweep-mta", measure=exploding, **kwargs)
        assert second.cached and second.probes_run == 0
        assert second.artifact == first.artifact

    def test_force_reruns_past_a_cached_artifact(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, store=store, code_fingerprint=CODE_FP,
            measure=exec_speed_measure,
        )
        tune_scenario("tunesweep-mta", **kwargs)
        again = tune_scenario("tunesweep-mta", force=True, **kwargs)
        assert not again.cached and again.probes_run == 6


class TestFallbacks:
    def test_zero_budget_degrades_to_defaults(self, tmp_path):
        art = tune_scenario(
            "tunesweep-mta", quick=True, budget=0,
            store=TunedStore(tmp_path), code_fingerprint=CODE_FP,
            measure=exec_speed_measure,
        ).artifact
        assert art.source == SOURCE_BUDGET_EXHAUSTED
        assert art.values == {}
        assert art.speedup == pytest.approx(1.0)

    def test_failed_baseline_degrades_to_defaults(self, tmp_path):
        def always_fails(values):
            raise ProbeError("probe tune-x failed:\nboom")

        store = TunedStore(tmp_path)
        outcome = tune_scenario(
            "tunesweep-mta", quick=True, store=store,
            code_fingerprint=CODE_FP, measure=always_fails,
        )
        art = outcome.artifact
        assert art.source == SOURCE_PROBE_FAILED
        assert art.values == {}
        assert outcome.probes_run == 6  # every probe was attempted
        assert all(not t["ok"] for t in art.trials)
        # the fallback is persisted: the next call is a cache hit
        assert store.load(art.key) is not None

    def test_fallback_artifact_still_short_circuits_later(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, budget=0, store=store, code_fingerprint=CODE_FP,
            measure=exec_speed_measure,
        )
        tune_scenario("tunesweep-mta", **kwargs)
        assert tune_scenario("tunesweep-mta", **kwargs).cached


class TestTuneScenarios:
    def test_filters_to_named_scenarios(self, tmp_path):
        outcomes = tune_scenarios(
            ["tunesweep-mta"], quick=True, store=TunedStore(tmp_path),
            code_fingerprint=CODE_FP,
        )
        # injected measure is per-scenario only via tune_scenario, so
        # this goes through the real probe path — keep it to the
        # simulated-time MTA scenario and just assert the shape of the
        # outcome map
        assert list(outcomes) == ["tunesweep-mta"]
        assert outcomes["tunesweep-mta"].artifact.scenario_id == "tunesweep-mta"

    def test_unknown_scenario_raises(self, tmp_path):
        with pytest.raises(KeyError):
            tune_scenarios(
                ["tunesweep-quantum"], quick=True,
                store=TunedStore(tmp_path), code_fingerprint=CODE_FP,
            )


class TestCounters:
    def test_search_charges_tune_counters(self, tmp_path):
        with collect() as session:
            tune_scenario(
                "tunesweep-mta", quick=True, store=TunedStore(tmp_path),
                code_fingerprint=CODE_FP, measure=exec_speed_measure,
            )
        counters = session.merged_counters()
        assert counters["tune/tune.scenarios"] == 1
        assert counters["tune/tune.probes"] == 6
        assert counters["tune/tune.adopted"] == 1
        assert counters["tune/tune.seconds"] > 0.0

    def test_cache_hit_charges_no_probes(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, store=store, code_fingerprint=CODE_FP,
            measure=exec_speed_measure,
        )
        tune_scenario("tunesweep-mta", **kwargs)
        with collect() as session:
            tune_scenario("tunesweep-mta", **kwargs)
        counters = session.merged_counters()
        assert counters["tune/tune.cache_hits"] == 1
        assert "tune/tune.probes" not in counters
