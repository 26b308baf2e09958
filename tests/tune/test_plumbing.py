"""Knob consumers: tuned values reach the device models, physics stays put.

Covers the resolution priority every consumer promises (explicit
argument > tuned > default) and the bit-identity contract: every knob
moves only the simulated clock, so every candidate must leave the
trajectory exactly at the untuned one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.device import CellDevice
from repro.experiments.common import paper_config
from repro.mta.device import MTADevice
from repro.tune.context import applied
from repro.tune.spec import all_tunables


#: the device model that consumes each knob family
CONSUMERS = {"cell": CellDevice, "mta": MTADevice}


def _trajectory_bits(result):
    return (
        [record.total_energy.hex() for record in result.records],
        result.final_positions,
        result.final_velocities,
    )


class TestPhysicsNeutral:
    @pytest.mark.parametrize(
        "spec", all_tunables(), ids=lambda spec: spec.name
    )
    def test_every_candidate_keeps_the_untuned_trajectory(self, spec):
        # no knob reaches the force path: every candidate of every knob
        # prices the untuned trajectory, bit for bit
        config = paper_config(512)
        device = CONSUMERS[spec.backend]
        energies, positions, velocities = _trajectory_bits(
            device().run(config, 2)
        )
        for value in spec.candidates:
            with applied({f"{device.tune_family}/{spec.name}": value}):
                tuned = _trajectory_bits(device().run(config, 2))
            assert tuned[0] == energies, value
            assert np.array_equal(tuned[1], positions), value
            assert np.array_equal(tuned[2], velocities), value


class TestCellPartition:
    def test_tuned_partition_resolves_at_prepare(self):
        from repro.cell.device import CellDevice
        from repro.cell.partition import RowPartition

        device = CellDevice()
        config = paper_config(64)
        with applied({"cell/cell.partition": "cyclic"}):
            device.prepare(config)
            assert device.partition is RowPartition.CYCLIC
        device.prepare(config)  # config popped -> back to the default
        assert device.partition is RowPartition.BLOCK

    def test_explicit_partition_beats_tuned(self):
        from repro.cell.device import CellDevice
        from repro.cell.partition import RowPartition

        device = CellDevice(partition="block")
        with applied({"cell/cell.partition": "cyclic"}):
            device.prepare(paper_config(64))
        assert device.partition is RowPartition.BLOCK

    def test_partition_strategies_are_bit_identical(self):
        # every pair is still examined by exactly one SPE, so the
        # trajectory must match to the last bit
        from repro.cell.device import CellDevice

        config = paper_config(256)  # box must exceed twice the LJ cutoff
        energies = {}
        for strategy in ("block", "cyclic"):
            result = CellDevice(partition=strategy).run(config, 2)
            energies[strategy] = [r.total_energy for r in result.records]
        assert energies["block"] == energies["cyclic"]


class TestMtaStreams:
    def test_tuned_stream_request_reaches_the_model(self):
        from repro.mta.device import MTADevice

        device = MTADevice()
        with applied({"mta/mta.streams": 32}):
            device.run(paper_config(256), 1)
        assert device.streams.n_streams == 32

    def test_explicit_argument_beats_tuned(self):
        from repro.mta.device import MTADevice

        with applied({"mta/mta.streams": 32}):
            device = MTADevice(n_streams=64)
        assert device.streams.n_streams == 64

    def test_untuned_default_is_the_calibrated_count(self):
        from repro.arch import calibration as cal
        from repro.mta.device import MTADevice

        assert MTADevice().streams.n_streams == cal.MTA_N_STREAMS

