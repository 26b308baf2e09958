"""TunableSpec registry: declaration, validation, physics safety."""

from __future__ import annotations

import pytest

from repro.tune.spec import (
    TUNABLES,
    TunableSpec,
    all_tunables,
    register_tunable,
    tunable,
    validate_values,
)

#: every knob the shipped backends must declare
EXPECTED_KNOBS = {
    "md.block",
    "md.skin",
    "md.cell_buffer",
    "md.rebuild_delay",
    "cell.partition",
    "gpu.row_block",
    "mta.streams",
}


def _spec(**overrides) -> TunableSpec:
    base = dict(
        name="test.knob",
        backend="md",
        kind="int",
        default=2,
        candidates=(1, 2, 4),
        low=1,
        high=8,
    )
    base.update(overrides)
    return TunableSpec(**base)


class TestRegistration:
    def test_every_backend_knob_is_declared(self):
        assert EXPECTED_KNOBS <= {spec.name for spec in all_tunables()}

    def test_physics_affecting_knob_is_rejected(self):
        # The bit-identity contract: dtype (or cutoff, dt, ...) changes
        # trajectories, so it must never become tunable.
        dtype_spec = _spec(
            name="md.dtype",
            kind="choice",
            default="float32",
            candidates=("float32", "float64"),
            low=None,
            high=None,
            affects_physics=True,
        )
        with pytest.raises(ValueError, match="affects physics"):
            register_tunable(dtype_spec)
        assert "md.dtype" not in TUNABLES

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            register_tunable(_spec(kind="enum"))

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty candidate"):
            register_tunable(_spec(candidates=()))

    def test_default_must_be_a_candidate(self):
        with pytest.raises(ValueError, match="not in"):
            register_tunable(_spec(default=3))

    def test_candidates_must_respect_bounds(self):
        with pytest.raises(ValueError, match="> high bound"):
            register_tunable(_spec(candidates=(1, 2, 16)))

    def test_duplicate_identical_registration_is_idempotent(self):
        spec = tunable("md.block")
        assert register_tunable(spec) is spec

    def test_duplicate_conflicting_registration_rejected(self):
        existing = tunable("md.block")
        import dataclasses

        conflicting = dataclasses.replace(existing, default=existing.candidates[0])
        if conflicting == existing:
            conflicting = dataclasses.replace(existing, default=existing.candidates[1])
        with pytest.raises(ValueError, match="already registered differently"):
            register_tunable(conflicting)


class TestValueValidation:
    def test_choice_rejects_non_member(self):
        with pytest.raises(ValueError):
            tunable("cell.partition").validate("jit")

    def test_int_rejects_bool(self):
        with pytest.raises(ValueError):
            tunable("md.block").validate(True)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="low bound"):
            tunable("md.skin").validate(0.0)

    def test_validate_values_accepts_scoped_and_bare_keys(self):
        validate_values({"md.block": 128, "cell/cell.partition": "cyclic"})

    def test_validate_values_rejects_unknown_knob(self):
        with pytest.raises(KeyError):
            validate_values({"md.nonsense": 1})

    def test_validate_values_rejects_illegal_value(self):
        with pytest.raises(ValueError):
            validate_values({"gpu/gpu.row_block": 0})
