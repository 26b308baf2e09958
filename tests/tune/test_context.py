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
        assert tuned_value("mta.streams") is None
        assert tuned_value("mta.streams", device="mta") is None
        assert active_values() == {}

    def test_bare_key_applies_to_every_device(self):
        with applied({"mta.streams": 128}):
            assert tuned_value("mta.streams", device="mta") == 128
            assert tuned_value("mta.streams", device="cell") == 128
            assert tuned_value("mta.streams") == 128

    def test_scoped_key_beats_bare_key(self):
        with applied({"mta.streams": 128, "mta/mta.streams": 512}):
            assert tuned_value("mta.streams", device="mta") == 512
            assert tuned_value("mta.streams", device="cell") == 128

    def test_scoped_key_invisible_to_other_devices(self):
        with applied({"mta/mta.streams": 512}):
            assert tuned_value("mta.streams", device="cell") is None
            assert tuned_value("mta.streams") is None

    def test_inner_frame_shadows_outer(self):
        with applied({"mta.streams": 128, "cell.partition": "cyclic"}):
            with applied({"mta.streams": 512}):
                assert tuned_value("mta.streams") == 512
                # un-shadowed keys fall through to the outer frame
                assert tuned_value("cell.partition") == "cyclic"
            assert tuned_value("mta.streams") == 128

    def test_exit_pops_the_frame(self):
        with applied({"mta.streams": 128}):
            pass
        assert tuned_value("mta.streams") is None

    def test_frame_popped_even_on_error(self):
        with pytest.raises(RuntimeError):
            with applied({"mta.streams": 128}):
                raise RuntimeError("probe blew up")
        assert tuned_value("mta.streams") is None

    def test_active_values_merges_inner_wins(self):
        with applied({"mta.streams": 128, "cell.partition": "cyclic"}):
            with applied({"mta.streams": 512}):
                assert active_values() == {
                    "mta.streams": 512, "cell.partition": "cyclic"
                }


class TestValidationAtApply:
    def test_illegal_value_rejected_before_push(self):
        with pytest.raises(ValueError):
            with applied({"mta.streams": 0}):
                pass
        assert active_values() == {}

    def test_unknown_knob_rejected(self):
        with pytest.raises(KeyError):
            with applied({"md.imaginary": 1}):
                pass


class TestFingerprint:
    def test_order_independent(self):
        a = config_fingerprint({"mta.streams": 128, "cell/cell.partition": "cyclic"})
        b = config_fingerprint({"cell/cell.partition": "cyclic", "mta.streams": 128})
        assert a == b

    def test_value_sensitive(self):
        a = config_fingerprint({"mta.streams": 128})
        b = config_fingerprint({"mta.streams": 256})
        assert a != b

    def test_empty_mapping_has_a_stable_fingerprint(self):
        assert config_fingerprint({}) == config_fingerprint({})
