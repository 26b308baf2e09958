"""Percentile rule, metric arithmetic, host-speed factor, peak-RSS
reading, reference checks."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import metrics
import verify
from service_mix import read_peak_rss_mb


def test_tail_needs_ten_samples_beyond_it():
    assert metrics.tail(list(range(10))) is None
    assert metrics.tail(list(range(11))) == (100.0 / 11, 0)
    pct, value = metrics.tail(list(range(80)))
    assert (pct, value) == (87.5, 69)
    assert sum(1 for v in range(80) if v > value) == 10
    assert metrics.tail(list(range(100, 0, -1))) == (90.0, 90)


REF = hostspeed.REFERENCE_PROBE_S


def two_speed_host():
    """Full reference speed over [0, 1], half speed over [10, 11]."""
    speed = hostspeed.HostSpeed()
    speed.samples = [(0.5, REF), (1.0, REF), (10.5, 2 * REF), (11.0, 2 * REF)]
    return speed


def test_host_speed_is_the_mean_over_the_interval():
    speed = two_speed_host()
    assert speed.factor(0.0, 1.0) == 1.0
    assert speed.factor(10.0, 11.0) == 0.5
    assert speed.factor(0.0, 11.0) == 0.75
    assert speed.factor(4.0, 4.1) == 1.0  # none inside: the nearest sample
    assert speed.corrected(3.0, 10.2, 10.8) == 1.5


def test_pinned_runs_the_block_and_its_processes_on_one_cpu():
    allowed = os.sched_getaffinity(0)
    with hostspeed.pinned() as cpu:
        assert os.sched_getaffinity(0) == {cpu}
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
            capture_output=True, text=True, check=True)
        assert child.stdout.strip() == f"[{cpu}]"
    assert os.sched_getaffinity(0) == allowed


def test_scale_times_scales_only_times():
    got = metrics.scale_times({"a.self_s": 2.0, "b_ms": 4.0, "c.calls": 3.0}, 0.5)
    assert got == {"a.self_s": 1.0, "b_ms": 2.0, "c.calls": 3.0}


def test_idle_sleeps_and_samples():
    speed = hostspeed.HostSpeed()
    begun = time.monotonic()
    speed.idle(0.2)
    assert 0.2 <= time.monotonic() - begun < 0.3
    assert len(speed.samples) >= 3
    assert all(0 < p < 0.1 for _t, p in speed.samples)
    speed.idle(-1.0)  # already late: returns at once, no sample
    assert time.monotonic() - begun < 0.3


def test_batch_end_to_end_corrects_each_op_then_takes_medians():
    def op(op_id, at, wall):
        return {"id": op_id, "start": at, "end": at + 1.0, "wall_s": wall, "cpu_s": wall / 2}

    passes = [
        {"maxrss_kb": 1024, "ops": [op("a", 0.0, 1.0), op("b", 10.0, 4.0)]},
        {"maxrss_kb": 3072, "ops": [op("a", 10.0, 2.0), op("b", 0.0, 3.0)]},
        {"maxrss_kb": 2048, "ops": [op("a", 0.0, 3.0), op("b", 0.0, 2.0)]},
    ]
    setups = [{"spawned": 0.0, "ready": 0.3}, {"spawned": 10.0, "ready": 10.4},
              {"spawned": 0.0, "ready": 0.1}]
    got = metrics.batch_end_to_end(setups, passes, two_speed_host())
    # corrected a: 1, 1, 3 -> median 1; b: 2, 3, 2 -> median 2; 1.5 s per op
    assert got == pytest.approx({"setup_s": 0.2, "latency_ms": 1500.0, "cpu_ms": 750.0,
                                 "peak_rss_mb": 2.0})


def test_failed_request_reads_as_infinite_latency():
    summary = metrics.latency_summary("cold", [1.0] * 10 + [float("inf")] * 11)
    assert summary["cold_tail_ms"] == metrics.INF_MS
    assert summary["cold_n"] == 21


def test_peak_rss_reads_vmhwm(tmp_path: Path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmPeak:\t 999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1 kB\n")
    assert read_peak_rss_mb(status) == 2.0
    assert read_peak_rss_mb(Path("/proc/self/status")) > 1.0
    status.write_text("Name:\tpython\n")
    with pytest.raises(ValueError):
        read_peak_rss_mb(status)


REFERENCE = {
    "status": "ok",
    "rows": [["cell", 1.0, "x"]],
    "checks": {"passes": [2.0, True], "known_fail": [0.05, False]},
}


def test_reference_match_and_tolerance():
    assert verify.compare(REFERENCE, REFERENCE) == []
    near = {**REFERENCE, "rows": [["cell", 1.0 + 1e-9, "x"]]}
    assert verify.compare(near, REFERENCE) == []
    far = {**REFERENCE, "rows": [["cell", 1.0 + 1e-5, "x"]]}
    assert verify.compare(far, REFERENCE)


def test_pass_to_fail_fails_but_fail_to_pass_does_not():
    worse = {**REFERENCE, "checks": {"passes": [2.0, False], "known_fail": [0.05, False]}}
    assert any("PASS -> FAIL" in p for p in verify.compare(worse, REFERENCE))
    better = {**REFERENCE, "checks": {"passes": [2.0, True], "known_fail": [0.05, True]}}
    assert verify.compare(better, REFERENCE) == []


def test_raised_op_digest_and_missing_reference_fail():
    assert verify.compare({"status": "failed", "error": "boom"}, REFERENCE)
    digest = {"status": "ok", "sha256": "a", "seconds": [1.0]}
    assert verify.compare({**digest, "sha256": "b"}, digest)
    assert verify.compare(digest, None)
