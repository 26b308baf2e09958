"""Tuned-config artifacts: keys, persistence, merging, concurrency.

The multi-process helpers live at module scope so
``ProcessPoolExecutor`` can pickle them by dotted name (same pattern as
``tests/harness/test_store_concurrency.py``).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.tune.artifact import (
    SOURCE_SEARCH,
    TunedStore,
    make_artifact,
    merge_for_experiment,
    tuned_key,
)

CODE_FP = "feedc0de" * 8
WRITES_PER_WRITER = 25


def _key(**overrides) -> str:
    base = dict(
        scenario_id="tunesweep-mta",
        experiment_id="tunesweep",
        device="mta",
        n=512,
        quick=True,
        knob_grids={"mta.streams": (16, 32, 64)},
        code_fingerprint=CODE_FP,
    )
    base.update(overrides)
    return tuned_key(**base)


def _artifact(key=None, **overrides):
    base = dict(
        key=key or _key(),
        scenario_id="tunesweep-mta",
        experiment_id="tunesweep",
        device="mta",
        n=512,
        quick=True,
        knobs=("mta.streams",),
        values={"mta/mta.streams": 64},
        metric="rows_per_second",
        default_metric=100.0,
        best_metric=900.0,
        source=SOURCE_SEARCH,
        probes_run=4,
        trials=({"values": {}, "ok": True, "per_second": 100.0},),
        code_fingerprint=CODE_FP,
    )
    base.update(overrides)
    return make_artifact(**base)


def hammer_same_key(args: tuple[str, str, int]) -> int:
    """Repeatedly save the SAME artifact key from one process."""
    root, writer, count = args
    store = TunedStore(root)
    for i in range(count):
        store.save(
            _artifact(
                best_metric=900.0 + i,
                trials=({"values": {}, "ok": True, "writer": writer,
                         "iteration": i, "bulk": "y" * 4096},),
            )
        )
    return count


class TestKey:
    def test_stable_for_identical_inputs(self):
        assert _key() == _key()

    def test_widening_a_grid_is_a_new_problem(self):
        widened = _key(
            knob_grids={"mta.streams": (16, 32, 64, 256)}
        )
        assert widened != _key()

    def test_code_fingerprint_changes_the_key(self):
        assert _key(code_fingerprint="0" * 64) != _key()

    def test_every_scenario_dimension_is_keyed(self):
        assert _key(n=8192) != _key()
        assert _key(quick=False) != _key()
        assert _key(device="gpu") != _key()
        assert _key(experiment_id="table1") != _key()


class TestStoreRoundtrip:
    def test_save_then_load(self, tmp_path):
        store = TunedStore(tmp_path)
        art = _artifact()
        path = store.save(art)
        assert path == tmp_path / "tuned" / f"{art.key}.json"
        loaded = store.load(art.key)
        assert loaded == art
        assert loaded.speedup == pytest.approx(9.0)

    def test_missing_key_loads_none(self, tmp_path):
        assert TunedStore(tmp_path).load("no-such-key") is None

    def test_torn_json_loads_none(self, tmp_path):
        store = TunedStore(tmp_path)
        art = _artifact()
        path = store.save(art)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load(art.key) is None

    def test_hand_edited_illegal_value_loads_none(self, tmp_path):
        # from_dict re-validates: an edited artifact cannot smuggle an
        # out-of-grid value into a run
        store = TunedStore(tmp_path)
        art = _artifact()
        path = store.save(art)
        data = json.loads(path.read_text())
        data["values"] = {"mta/mta.streams": "telepathy"}
        path.write_text(json.dumps(data))
        assert store.load(art.key) is None

    def test_no_temp_litter_after_save(self, tmp_path):
        store = TunedStore(tmp_path)
        store.save(_artifact())
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_defaults_win_artifact_speedup_is_one(self, tmp_path):
        art = _artifact(values={}, best_metric=100.0)
        assert art.speedup == pytest.approx(1.0)
        assert art.values == {}


class TestMerge:
    def test_merges_matching_scenarios(self, tmp_path):
        store = TunedStore(tmp_path)
        store.save(_artifact())
        store.save(
            _artifact(
                key=_key(scenario_id="tunesweep-cell", device="cell",
                         knob_grids={"cell.partition": ("block", "cyclic")}),
                scenario_id="tunesweep-cell",
                device="cell",
                knobs=("cell.partition",),
                values={"cell/cell.partition": "cyclic"},
            )
        )
        merged = merge_for_experiment(
            store, "tunesweep", quick=True, code_fingerprint=CODE_FP
        )
        assert merged is not None
        assert merged.values == {
            "mta/mta.streams": 64,
            "cell/cell.partition": "cyclic",
        }
        assert len(merged.keys) == 2

    def test_other_experiment_quick_or_code_never_applies(self, tmp_path):
        store = TunedStore(tmp_path)
        store.save(_artifact())
        for kwargs in (
            dict(experiment_id="table1", quick=True, cfp=CODE_FP),
            dict(experiment_id="tunesweep", quick=False, cfp=CODE_FP),
            dict(experiment_id="tunesweep", quick=True, cfp="0" * 64),
        ):
            assert (
                merge_for_experiment(
                    store,
                    kwargs["experiment_id"],
                    quick=kwargs["quick"],
                    code_fingerprint=kwargs["cfp"],
                )
                is None
            )

    def test_empty_store_merges_to_none(self, tmp_path):
        assert (
            merge_for_experiment(
                TunedStore(tmp_path), "tunesweep",
                quick=True, code_fingerprint=CODE_FP,
            )
            is None
        )


class TestConcurrentTuners:
    def test_same_key_from_two_processes_never_tears(self, tmp_path):
        # Two tuners racing on one key must leave one COMPLETE artifact
        # from one of them — unique-per-writer temp names make the final
        # rename atomic, and no temp litter survives.
        with ProcessPoolExecutor(max_workers=2) as pool:
            done = list(
                pool.map(
                    hammer_same_key,
                    [(str(tmp_path), "a", WRITES_PER_WRITER),
                     (str(tmp_path), "b", WRITES_PER_WRITER)],
                )
            )
        assert done == [WRITES_PER_WRITER, WRITES_PER_WRITER]
        store = TunedStore(tmp_path)
        keys = store.list_keys()
        assert len(keys) == 1
        final = store.load(keys[0])  # parses + validates -> not torn
        assert final is not None
        trial = final.trials[0]
        assert trial["writer"] in ("a", "b")
        assert trial["iteration"] == WRITES_PER_WRITER - 1
        assert trial["bulk"] == "y" * 4096
        assert list(tmp_path.rglob("*.tmp")) == []
