#!/usr/bin/env python
"""Record, gate and validate the repo's host-side perf tables (BENCH_*.json).

Usage::

    python scripts/record_bench.py [--quick] [--check] [--force] [--out FILE]
    python scripts/record_bench.py --ensemble|--tune|--cluster [--quick] [--check]
    python scripts/record_bench.py --validate [FILE ...]

Each table is one :class:`BenchSpec` in :data:`SPECS`, and one path
serves them all: measure, build the record, validate it against the
spec's schema before writing, refuse (exit 3) to overwrite a stored
table whose speedups the new one undercuts by more than
:data:`REGRESS_TOLERANCE` unless ``--force``, and with ``--check`` run
the spec's gate (exit 1 on a failed bound, 2 when the gated quantity
was not measured).

``vm`` (default, ``BENCH_vm.json``): pairs/sec of every shipped pair
kernel (the fig5 SPE ladder and the GPU MD shader) under both VM
execution backends.  Gate: fused >= :data:`MIN_FUSED_SPEEDUP` x the
interpreter on :data:`GATE_KERNEL`.

``ensemble`` (``BENCH_vm2.json``): replicas/sec through one whole fused
timestep, R replicas batched into one call against R single-replica
calls of the same closure.  Gate: the bound in :mod:`repro.vm.bench`,
batched >= ``ENSEMBLE_MIN_SPEEDUP`` x sequential at every measured
R >= ``ENSEMBLE_GATE_REPLICAS``.

``tune`` (``BENCH_tune.json``): the closed-loop autotuner over every
scenario in :data:`repro.tune.probe.SCENARIOS` (winners persist under
``runs/tuned/`` for later runs to auto-load), with the tuned-vs-default
speedup on the simulated clock and the accuracy x speed Pareto front
per scenario.  The probes price simulated seconds, so the table is
deterministic: a run at the stored table's config must reproduce every
row and speedup of it.  Gate: tuned >= default on every (experiment,
device) cell — true by construction, a candidate that does not beat
the defaults by the search's margin is never adopted — and a
per-device geomean >= :data:`MIN_TUNE_GEOMEAN` on some device.

``cluster`` (``BENCH_cluster.json``): the fixed-size strong-scaling
sweep over the simulated cluster (:mod:`repro.cluster`), one
slab-decomposed run per (device model, node count), with simulated
seconds per step, speedup over one node and the exact ghost-exchange
byte ledger.  A failed conservation audit on any cell stops the run
(exit 1) before anything is written.  Simulated time is deterministic,
so the gate asks for equality: K-node state digests equal the one-node
run's, and a run at the stored table's config reproduces every
simulated column of it (the stored table is read before the write, so
``--force`` cannot skip this); and every device beats one node at the
largest K by :data:`MIN_CLUSTER_SPEEDUP`.

``--validate`` checks files against their declared schema (the four
repo tables when none is named, skipping absent ones) and prints one
line per violation.  It is stdlib-only, so it runs before any project
import could fail.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: ``vm`` gate: fused/interp pairs-per-second ratio on this kernel.
GATE_KERNEL = "spe:simd_acceleration"
MIN_FUSED_SPEEDUP = 1.0

#: ``tune`` gate: every cell's tuned/default ratio (1.0 up to rounding),
#: and the per-device geomean the best device must reach.
MIN_TUNED_RATIO = 0.999
MIN_TUNE_GEOMEAN = 1.3
#: Probes per scenario; covers every shipped knob grid.
TUNE_BUDGET = 16

#: ``cluster`` fabric, and the largest-K speedup every device must reach.
CLUSTER_TOPOLOGY = "switch"
MIN_CLUSTER_SPEEDUP = 1.0

#: A new table may undercut the stored one by this fraction before the
#: overwrite is refused (benchmarks on shared CI runners jitter; a real
#: regression moves further than this).
REGRESS_TOLERANCE = 0.15

#: Exit code for "refusing to overwrite with a regressed table" —
#: distinct from a failed gate (1) and usage errors (2).
EXIT_REGRESSED = 3

#: What a spec's ``measure`` returns: (config, result rows, speedups).
Measurement = tuple[dict, list[dict], dict[str, float]]


class NotMeasured(Exception):
    """The quantity a gate bounds is absent from the record (exit 2)."""


@dataclass(frozen=True)
class BenchSpec:
    """One BENCH table: where it lives, its schema, how it is measured and gated."""

    out: str
    schema: str
    speedup_field: str
    row_fields: dict[str, type]
    measure: Callable[[bool], Measurement]
    gate: Callable[[dict], list[str]]
    show: Callable[[dict], None]
    #: Simulated, not host-timed: a run at the stored table's config
    #: must reproduce its rows and speedups exactly.
    deterministic: bool = False


def _host() -> dict:
    import numpy as np

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _measure_vm(quick: bool) -> Measurement:
    from repro.vm.bench import bench_kernels, speedups

    sizing = {"batch": 1024, "repeats": 3 if quick else 7}
    results = bench_kernels(**sizing)
    rows = [r.to_dict() for r in results]
    return {**sizing, "quick": quick}, rows, speedups(results)


def _gate_vm(record: dict) -> list[str]:
    ratio = record["speedup_fused_over_interp"].get(GATE_KERNEL)
    if ratio is None:
        raise NotMeasured(f"gate kernel {GATE_KERNEL!r} not measured")
    if ratio < MIN_FUSED_SPEEDUP:
        return [
            f"fused backend is {ratio:.2f}x the interpreter on "
            f"{GATE_KERNEL} (required >= {MIN_FUSED_SPEEDUP:.2f}x)"
        ]
    return []


def _show_vm(record: dict) -> None:
    rows = record["results"]
    width = max(len(r["kernel"]) for r in rows)
    for r in rows:
        print(f"{r['kernel']:<{width}}  {r['backend']:<8}  "
              f"{r['pairs_per_second'] / 1e6:8.3f} Mpairs/s")
    for kernel, ratio in sorted(record["speedup_fused_over_interp"].items()):
        print(f"{kernel:<{width}}  speedup   {ratio:8.2f}x")


def _measure_ensemble(quick: bool) -> Measurement:
    from repro.vm.bench import (
        SAMPLE_SECONDS,
        bench_ensemble,
        ensemble_speedups,
    )

    config = {
        "replica_counts": [1, 2, 4, 8] if quick else [1, 2, 4, 8, 16],
        "rows_per_replica": 256,
        "repeats": 3 if quick else 7,
        "quick": quick,
    }
    results = bench_ensemble(
        replica_counts=tuple(config["replica_counts"]),
        rows_per_replica=config["rows_per_replica"],
        repeats=config["repeats"],
        sample_seconds=SAMPLE_SECONDS,
    )
    # JSON object keys are strings; keep replica counts readable.
    ratios = {str(r): v for r, v in sorted(ensemble_speedups(results).items())}
    return config, [r.to_dict() for r in results], ratios


def _gate_ensemble(record: dict) -> list[str]:
    from repro.vm.bench import ENSEMBLE_GATE_REPLICAS, ENSEMBLE_MIN_SPEEDUP

    gated = {
        int(r): v
        for r, v in record["speedup_batched_over_sequential"].items()
        if int(r) >= ENSEMBLE_GATE_REPLICAS
    }
    if not gated:
        raise NotMeasured(
            f"no replica count >= {ENSEMBLE_GATE_REPLICAS} measured"
        )
    slow = {r: round(v, 2) for r, v in gated.items()
            if v < ENSEMBLE_MIN_SPEEDUP}
    if slow:
        return [
            f"fused-batched below {ENSEMBLE_MIN_SPEEDUP:.2f}x replicas/sec "
            f"over fused-sequential at R={sorted(slow)}: {slow}"
        ]
    return []


def _show_ensemble(record: dict) -> None:
    for r in record["results"]:
        print(f"R={r['replicas']:<3} {r['mode']:<20} "
              f"{r['replicas_per_second']:10.1f} replicas/s "
              f"({r['best_seconds'] * 1e3:.3f} ms)")
    ratios = record["speedup_batched_over_sequential"]
    for replicas in sorted(ratios, key=int):
        print(f"R={replicas:<3} speedup              {ratios[replicas]:10.2f}x")


def _measure_tune(quick: bool) -> Measurement:
    from repro.reporting.pareto import pareto_front
    from repro.tune.artifact import TunedStore
    from repro.tune.search import tune_scenarios

    # force=True: the bench always re-measures — a stale cached artifact
    # must never masquerade as today's numbers.  The persisted artifacts
    # still land under runs/tuned/ for subsequent runs to auto-load.
    outcomes = tune_scenarios(
        quick=quick,
        budget=TUNE_BUDGET,
        store=TunedStore(REPO_ROOT / "runs"),
        force=True,
    )
    rows = []
    ratios: dict[str, float] = {}
    for sid, outcome in sorted(outcomes.items()):
        art = outcome.artifact
        rows.append(
            {
                "scenario": art.scenario_id,
                "experiment": art.experiment_id,
                "device": art.device,
                "n": art.n,
                "metric": art.metric,
                "default_per_second": art.default_metric,
                "tuned_per_second": art.best_metric,
                "speedup": art.speedup,
                "winner": dict(art.values),
                "source": art.source,
                "probes": art.probes_run,
                "pareto": [
                    {
                        "values": dict(t.get("values", {})),
                        "per_second": t.get("per_second"),
                        "accuracy": t.get("accuracy"),
                    }
                    for t in pareto_front(art.trials)
                ],
            }
        )
        ratios[sid] = art.speedup
    config = {"budget": TUNE_BUDGET, "quick": quick}
    return config, rows, ratios


def _gate_tune(record: dict) -> list[str]:
    ratios = record["speedup_tuned_over_default"]
    slower = {sid: round(v, 3) for sid, v in ratios.items()
              if v < MIN_TUNED_RATIO}
    if slower:
        return [f"tuned below default on {sorted(slower)}: {slower}"]
    by_device: dict[str, list[float]] = {}
    for r in record["results"]:
        by_device.setdefault(r["device"], []).append(r["speedup"])
    geomeans = {d: statistics.geometric_mean(v) for d, v in by_device.items()}
    best = max(geomeans, key=geomeans.get)
    if geomeans[best] < MIN_TUNE_GEOMEAN:
        return [
            "no device reaches a tuned/default speedup geomean "
            f">= {MIN_TUNE_GEOMEAN:.2f}x; best is {best} at "
            f"{geomeans[best]:.2f}x ({geomeans})"
        ]
    return []


def _show_tune(record: dict) -> None:
    from repro.reporting.pareto import render_pareto

    rows = record["results"]
    width = max(len(r["scenario"]) for r in rows)
    for r in rows:
        print(f"{r['scenario']:<{width}}  {r['device']:<7} "
              f"{r['speedup']:6.2f}x  {r['winner'] or '(defaults)'}")
    for r in rows:
        print()
        print(render_pareto(
            r["pareto"],
            title=f"pareto front [{r['scenario']}]: accuracy tolerance vs speed",
        ))


def _measure_cluster(quick: bool) -> Measurement:
    from repro.cluster.machine import SimulatedCluster
    from repro.experiments.common import paper_config
    from repro.obs.invariants import cluster_conservation_problems
    from repro.obs.observe import Observation

    config = {
        "n_atoms": 1024 if quick else 2048,
        "n_steps": 2 if quick else 4,
        "node_counts": [1, 2, 4, 8],
        "devices": ["cell", "gpu"] if quick else ["cell", "gpu", "mta", "opteron"],
        "topology": CLUSTER_TOPOLOGY,
        "quick": quick,
    }
    md_config = paper_config(config["n_atoms"])
    n_steps = config["n_steps"]
    rows = []
    ratios: dict[str, float] = {}
    audit: list[str] = []
    for device in config["devices"]:
        baseline = None
        for k in config["node_counts"]:
            cluster = SimulatedCluster(
                device=device, n_nodes=k, topology=CLUSTER_TOPOLOGY
            )
            result = cluster.run(
                md_config, n_steps, observe=Observation(device=cluster.name)
            )
            audit.extend(
                f"{device}/K={k}: {p}"
                for p in cluster_conservation_problems(result.counters, result)
            )
            if baseline is None:
                baseline = result.seconds_per_step
            speedup = baseline / result.seconds_per_step
            ratios[f"{device}/{k}"] = speedup
            rows.append(
                {
                    "device": device,
                    "nodes": k,
                    "topology": CLUSTER_TOPOLOGY,
                    "seconds_per_step": result.seconds_per_step,
                    "speedup_over_one_node": speedup,
                    "exchange_bytes": result.exchange_bytes,
                    "ghost_atoms_per_step": result.ghost_atoms
                    // max(1, n_steps),
                    "hidden_exchange_seconds": sum(
                        e.hidden_seconds for e in result.ledger
                    ),
                    "state_digest": result.state_digest(),
                }
            )
    if audit:
        raise SystemExit(
            "FAIL: ghost-exchange conservation audit:\n"
            + "\n".join(f"  - {p}" for p in audit)
        )
    return config, rows, ratios


def _gate_cluster(record: dict) -> list[str]:
    failures = []
    reference: dict[str, str] = {}
    for r in record["results"]:
        reference.setdefault(r["device"], r["state_digest"])
    diverged = sorted({r["device"] for r in record["results"]
                       if r["state_digest"] != reference[r["device"]]})
    if diverged:
        failures.append(
            "decomposed state digest diverges from the one-node run on "
            f"{diverged} (bit-identity broken)"
        )
    ratios = record["speedup_over_one_node"]
    kmax = max(record["config"]["node_counts"])
    slow = {d: round(ratios[f"{d}/{kmax}"], 3)
            for d in record["config"]["devices"]
            if ratios[f"{d}/{kmax}"] < MIN_CLUSTER_SPEEDUP}
    if slow:
        failures.append(
            f"K={kmax} below {MIN_CLUSTER_SPEEDUP:.2f}x over one node on: {slow}"
        )
    return failures


def _show_cluster(record: dict) -> None:
    for r in record["results"]:
        print(
            f"{r['device']:<8} K={r['nodes']:<2} "
            f"{r['seconds_per_step'] * 1e3:9.4f} ms/step  "
            f"{r['speedup_over_one_node']:6.2f}x  "
            f"{r['exchange_bytes'] / 1e6:8.3f} MB exchanged"
        )


SPECS: dict[str, BenchSpec] = {
    "vm": BenchSpec(
        "BENCH_vm.json", "repro.bench_vm/1", "speedup_fused_over_interp",
        {"kernel": str, "backend": str, "pairs": int, "repeats": int,
         "best_seconds": float, "pairs_per_second": float},
        _measure_vm, _gate_vm, _show_vm,
    ),
    "ensemble": BenchSpec(
        "BENCH_vm2.json", "repro.bench_vm2/1", "speedup_batched_over_sequential",
        {"mode": str, "replicas": int, "rows_per_replica": int, "repeats": int,
         "best_seconds": float, "replicas_per_second": float},
        _measure_ensemble, _gate_ensemble, _show_ensemble,
    ),
    "tune": BenchSpec(
        "BENCH_tune.json", "repro.bench_tune/1", "speedup_tuned_over_default",
        {"scenario": str, "experiment": str, "device": str, "n": int,
         "metric": str, "default_per_second": float,
         "tuned_per_second": float, "speedup": float, "winner": dict,
         "source": str, "probes": int, "pareto": list},
        _measure_tune, _gate_tune, _show_tune,
        deterministic=True,
    ),
    "cluster": BenchSpec(
        "BENCH_cluster.json", "repro.bench_cluster/1", "speedup_over_one_node",
        {"device": str, "nodes": int, "topology": str,
         "seconds_per_step": float, "speedup_over_one_node": float,
         "exchange_bytes": int, "ghost_atoms_per_step": int,
         "hidden_exchange_seconds": float, "state_digest": str},
        _measure_cluster, _gate_cluster, _show_cluster,
        deterministic=True,
    ),
}

#: The spec recorded when no mode flag is given.
DEFAULT_SPEC = "vm"


_REQUIRED_TOP = ("schema", "recorded_unix", "host", "config", "results")


def _spec_for(schema: object) -> BenchSpec | None:
    return next((s for s in SPECS.values() if s.schema == schema), None)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_finite(value: object) -> bool:
    return _is_number(value) and math.isfinite(value) and value > 0.0


def validate_record(record: object) -> list[str]:
    """Structural violations of one decoded BENCH record (empty = ok)."""
    if not isinstance(record, dict):
        return ["top level is not a JSON object"]
    spec = _spec_for(record.get("schema"))
    if spec is None:
        return [
            f"unknown schema {record.get('schema')!r}; expected one of "
            + ", ".join(sorted(s.schema for s in SPECS.values()))
        ]
    problems = [f"missing top-level key {key!r}"
                for key in _REQUIRED_TOP if key not in record]
    if "recorded_unix" in record and not _positive_finite(
        record["recorded_unix"]
    ):
        problems.append("recorded_unix is not a positive number")

    results = record.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results is not a non-empty list")
        results = []
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            problems.append(f"results[{i}] is not an object")
            continue
        for field, kind in spec.row_fields.items():
            value = row.get(field)
            if value is None:
                problems.append(f"results[{i}] missing {field!r}")
            elif kind is float and not _is_number(value):
                problems.append(f"results[{i}].{field} is not a number")
            elif kind is int and isinstance(value, bool):
                problems.append(f"results[{i}].{field} is not int")
            elif kind is not float and not isinstance(value, kind):
                problems.append(f"results[{i}].{field} is not {kind.__name__}")
        if "best_seconds" in row and not _positive_finite(row["best_seconds"]):
            problems.append(f"results[{i}].best_seconds must be > 0")

    field = spec.speedup_field
    speedups = record.get(field)
    if not isinstance(speedups, dict) or not speedups:
        problems.append(f"{field} is not a non-empty object")
    else:
        problems.extend(
            f"{field}[{key!r}] is not a positive number"
            for key, value in speedups.items() if not _positive_finite(value)
        )
    return problems


def validate_file(path: Path) -> list[str]:
    try:
        record = json.loads(path.read_text())
    except OSError as exc:
        return [f"unreadable: {exc}"]
    except json.JSONDecodeError as exc:
        return [f"not valid JSON: {exc}"]
    return validate_record(record)


def validate_files(names: list[str]) -> int:
    """``--validate``: named files must exist; the repo defaults may be absent."""
    paths = ([Path(n) for n in names] if names
             else [REPO_ROOT / spec.out for spec in SPECS.values()])
    failures = 0
    for path in paths:
        if not path.exists():
            if names:
                print(f"{path}: missing", file=sys.stderr)
                failures += 1
            else:
                print(f"{path.name}: absent (skipped)")
            continue
        problems = validate_file(path)
        for problem in problems:
            print(f"{path.name}: {problem}", file=sys.stderr)
        if problems:
            failures += 1
        else:
            print(f"{path.name}: ok")
    return 1 if failures else 0


def regressed_speedups(
    old: dict, new: dict, tolerance: float
) -> dict[str, tuple[float, float]]:
    """Keys measured in both tables where new < old * (1 - tolerance)."""
    if tolerance < 0.0:
        raise ValueError("tolerance must be >= 0")
    slow: dict[str, tuple[float, float]] = {}
    for key, prev in old.items():
        cur = new.get(key)
        if cur is not None and float(cur) < float(prev) * (1.0 - tolerance):
            slow[key] = (float(prev), float(cur))
    return slow


def stored_record(out: Path, schema: str) -> dict | None:
    """The stored record at ``out`` iff it parses and matches ``schema``."""
    try:
        existing = json.loads(out.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(existing, dict) and existing.get("schema") == schema:
        return existing
    return None


def replay_problems(spec: BenchSpec, stored: dict | None, record: dict) -> list[str]:
    """Where a deterministic ``record`` departs from ``stored`` at the same config."""
    if not spec.deterministic or stored is None or stored.get("config") != record["config"]:
        return []
    invalid = validate_record(stored)
    if invalid:
        return [f"stored table: {problem}" for problem in invalid]
    old_rows, new_rows = stored["results"], record["results"]
    problems = []
    if len(old_rows) != len(new_rows):
        problems.append(f"{len(new_rows)} rows, stored table has {len(old_rows)}")
    for i, (old, new) in enumerate(zip(old_rows, new_rows)):
        problems.extend(
            f"results[{i}].{field}: stored {old[field]!r}, now {new[field]!r}"
            for field in spec.row_fields if old[field] != new[field]
        )
    field = spec.speedup_field
    old, new = stored[field], record[field]
    problems.extend(
        f"{field}[{key!r}]: stored {old.get(key)!r}, now {new.get(key)!r}"
        for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)
    )
    return problems


def write_record(out: Path, record: dict, force: bool = False) -> int:
    """Validate ``record`` and write it, refusing to clobber a faster table.

    The BENCH files are the repo's perf history — one accidental run on
    a loaded machine must not silently rewrite it downward.  ``force``
    overrides (e.g. after an intentional trade-off).
    """
    problems = validate_record(record)
    if problems:
        print(f"INVALID: not writing {out.name}:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    field = _spec_for(record["schema"]).speedup_field
    stored = stored_record(out, record["schema"])
    if stored is not None and not force:
        old = {k: v for k, v in (stored.get(field) or {}).items()
               if isinstance(v, (int, float))}
        slow = regressed_speedups(old, record[field], REGRESS_TOLERANCE)
        if slow:
            print(
                f"REFUSED: new table regresses {out.name} beyond "
                f"{REGRESS_TOLERANCE:.0%} on {len(slow)} speedup(s); "
                "re-run on an idle machine or pass --force:",
                file=sys.stderr,
            )
            for key in sorted(slow):
                prev, cur = slow[key]
                print(f"  {key}: {prev:.2f}x -> {cur:.2f}x", file=sys.stderr)
            return EXIT_REGRESSED
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def run_spec(
    spec: BenchSpec, out: Path, *, quick: bool, check: bool, force: bool
) -> int:
    """Measure ``spec`` and write its table to ``out``; with ``check``,
    gate it first and write nothing unless the gate and the replay hold."""
    config, rows, speedups = spec.measure(quick)
    record = {
        "schema": spec.schema,
        "recorded_unix": time.time(),
        "host": _host(),
        "config": config,
        "results": rows,
        spec.speedup_field: speedups,
    }
    if check:
        try:
            failures = spec.gate(record) + replay_problems(
                spec, stored_record(out, spec.schema), record
            )
        except NotMeasured as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            print(f"not writing {out}", file=sys.stderr)
            return 1
    rc = write_record(out, record, force)
    if rc:
        return rc
    spec.show(record)
    print(f"wrote {out}")
    if check:
        print(f"gate ok: {out.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: the table's BENCH file "
                        "at the repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes and fewer repeats (CI-sized)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the table's gate holds")
    parser.add_argument("--force", action="store_true",
                        help="overwrite the stored table even if the new "
                        "one regresses it")
    mode = parser.add_mutually_exclusive_group()
    for name, spec in SPECS.items():
        if name != DEFAULT_SPEC:
            mode.add_argument(f"--{name}", dest="spec", action="store_const",
                              const=name, help=f"record {spec.out}")
    mode.add_argument("--validate", nargs="*", metavar="FILE",
                      help="check BENCH files against their schema instead "
                      "(default: the repo's tables)")
    parser.set_defaults(spec=DEFAULT_SPEC)
    args = parser.parse_args(argv)

    if args.validate is not None:
        return validate_files(args.validate)
    spec = SPECS[args.spec]
    return run_spec(spec, args.out or REPO_ROOT / spec.out,
                    quick=args.quick, check=args.check, force=args.force)


if __name__ == "__main__":
    sys.exit(main())
