"""Ambient tuned-config stack: scoping, shadowing, fingerprints."""

from __future__ import annotations

import pytest

from repro.tune.context import (
    active_values,
    applied,
    config_fingerprint,
    tuned_value,
)


class TestLookup:
    def test_inactive_stack_returns_none(self):
        assert tuned_value("md.block") is None
        assert tuned_value("md.block", device="cell") is None
        assert active_values() == {}

    def test_bare_key_applies_to_every_device(self):
        with applied({"md.block": 128}):
            assert tuned_value("md.block", device="cell") == 128
            assert tuned_value("md.block", device="gpu") == 128
            assert tuned_value("md.block") == 128

    def test_scoped_key_beats_bare_key(self):
        with applied({"md.block": 128, "cell/md.block": 512}):
            assert tuned_value("md.block", device="cell") == 512
            assert tuned_value("md.block", device="gpu") == 128

    def test_scoped_key_invisible_to_other_devices(self):
        with applied({"cell/md.block": 512}):
            assert tuned_value("md.block", device="gpu") is None
            assert tuned_value("md.block") is None

    def test_inner_frame_shadows_outer(self):
        with applied({"md.block": 128, "md.skin": 0.45}):
            with applied({"md.block": 512}):
                assert tuned_value("md.block") == 512
                # un-shadowed keys fall through to the outer frame
                assert tuned_value("md.skin") == 0.45
            assert tuned_value("md.block") == 128

    def test_exit_pops_the_frame(self):
        with applied({"md.block": 128}):
            pass
        assert tuned_value("md.block") is None

    def test_frame_popped_even_on_error(self):
        with pytest.raises(RuntimeError):
            with applied({"md.block": 128}):
                raise RuntimeError("probe blew up")
        assert tuned_value("md.block") is None

    def test_active_values_merges_inner_wins(self):
        with applied({"md.block": 128, "md.skin": 0.45}):
            with applied({"md.block": 512}):
                assert active_values() == {"md.block": 512, "md.skin": 0.45}


class TestValidationAtApply:
    def test_illegal_value_rejected_before_push(self):
        with pytest.raises(ValueError):
            with applied({"md.block": 0}):
                pass
        assert active_values() == {}

    def test_unknown_knob_rejected(self):
        with pytest.raises(KeyError):
            with applied({"md.imaginary": 1}):
                pass


class TestFingerprint:
    def test_order_independent(self):
        a = config_fingerprint({"md.block": 128, "gpu/gpu.row_block": 256})
        b = config_fingerprint({"gpu/gpu.row_block": 256, "md.block": 128})
        assert a == b

    def test_value_sensitive(self):
        a = config_fingerprint({"md.block": 128})
        b = config_fingerprint({"md.block": 256})
        assert a != b

    def test_empty_mapping_has_a_stable_fingerprint(self):
        assert config_fingerprint({}) == config_fingerprint({})
