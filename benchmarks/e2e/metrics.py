"""Metric names, units, and the arithmetic that turns samples into them."""

from __future__ import annotations

import statistics
from typing import Any, Sequence

from hostspeed import HostSpeed
from layers import LAYER_METRICS
from workloads import OP_IDS

#: Reported with tracing off; times are scaled to the reference host
#: (see ``hostspeed``).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SERVICE_METRICS: tuple[tuple[str, str], ...] = (
    ("service.cold_p50_ms", "ms"),
    ("service.cold_tail_ms", "ms"),
    ("service.cold_tail_pct", "%"),
    ("service.cold_n", "count"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_tail_ms", "ms"),
    ("service.hit_tail_pct", "%"),
    ("service.hit_n", "count"),
    ("service.lateness_tail_ms", "ms"),
    ("service.backlog_ratio", "ratio"),
    ("service.admit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("harness.job_ms", "ms"),
    ("service.dispatch_ms", "ms"),
    ("service.attempts_per_job", "count"),
    ("service.jobs.cache_hits", "count"),
    ("service.journal.appended", "count"),
)

#: Reported by a traced run; a layer a workload never reaches reads 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    LAYER_METRICS
    + SERVICE_METRICS
    + tuple((f"op.{op_id}.wall_s", "s") for op_id in OP_IDS)
)

#: JSON has no infinity; a failed request's latency is reported as this.
INF_MS = 1e9


def tail(values: Sequence[float], beyond: int = 10) -> tuple[float, float] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``, or ``None`` when there are too few
    samples for any percentile to qualify.
    """
    if len(values) <= beyond:
        return None
    ordered = sorted(values)
    index = len(ordered) - beyond - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def finite(value: float) -> float:
    """``value``, with +inf replaced by :data:`INF_MS` for JSON."""
    return INF_MS if value == float("inf") else value


def per_op_ms(passes: Sequence[dict[str, Any]], key: str, speed: HostSpeed) -> float:
    """Mean over a pass's ops of each op's median across passes, each
    reading corrected by the CPU speed sampled while that op ran."""
    readings: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            readings.setdefault(op["id"], []).append(
                speed.corrected(op[key], op["start"], op["end"]))
    return sum(statistics.median(r) for r in readings.values()) / len(readings) * 1e3


def batch_end_to_end(
    setups: Sequence[dict[str, Any]], passes: Sequence[dict[str, Any]], speed: HostSpeed
) -> dict[str, float]:
    """Medians over fresh-process set-ups and passes, times corrected for
    the host's speed (see ``hostspeed``)."""
    return {
        "setup_s": statistics.median(
            speed.corrected(s["ready"] - s["spawned"], s["spawned"], s["ready"])
            for s in setups),
        "latency_ms": per_op_ms(passes, "wall_s", speed),
        "cpu_ms": per_op_ms(passes, "cpu_s", speed),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024.0 for p in passes),
    }


def latency_summary(prefix: str, latencies_ms: Sequence[float]) -> dict[str, float]:
    found = tail(latencies_ms)
    pct, value = found if found is not None else (0.0, 0.0)
    return {
        f"{prefix}_p50_ms": finite(statistics.median(latencies_ms)) if latencies_ms else 0.0,
        f"{prefix}_tail_ms": finite(value),
        f"{prefix}_tail_pct": pct,
        f"{prefix}_n": float(len(latencies_ms)),
    }


def scale_times(values: dict[str, float], factor: float) -> dict[str, float]:
    """``values`` with every time (a name ending ``_s`` or ``_ms``)
    multiplied by a host-speed ``factor``."""
    return {name: value * factor if name.endswith(("_s", "_ms")) else value
            for name, value in values.items()}


def zeros(names: Sequence[tuple[str, str]]) -> dict[str, float]:
    return {name: 0.0 for name, _unit in names}
