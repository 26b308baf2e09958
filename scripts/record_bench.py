#!/usr/bin/env python
"""Record VM throughput per backend into BENCH_vm.json / BENCH_vm2.json.

Usage::

    python scripts/record_bench.py [--quick] [--out BENCH_vm.json]
    python scripts/record_bench.py --quick --check
    python scripts/record_bench.py --ensemble [--quick] [--check]
    python scripts/record_bench.py --tune [--quick] [--check]
    python scripts/record_bench.py --cluster [--quick] [--check]

Default mode measures pairs/sec for every shipped pair kernel (the fig5
SPE ladder plus the GPU MD shader) under both VM execution backends and
writes a machine-readable record, so the repo's perf history is
diffable from this commit onward.  ``--check`` is the CI gate: it exits
nonzero if the fused backend is slower than the interpreter on the
fig5 SIMD kernel (``--gate-kernel``/``--min-speedup`` to adjust).

``--ensemble`` instead measures replicas/sec through one whole fused
timestep (force + integration, batched replicas) against R sequential
single-replica calls of the same fused closure, writing
``BENCH_vm2.json``.  Its ``--check`` gate requires fused-batched to reach
``--min-ensemble-speedup`` (default 2x) at every measured replica count
>= 8.

``--tune`` runs the closed-loop autotuner over every scenario in
:data:`repro.tune.probe.SCENARIOS` (persisting winning configs under
``runs/tuned/`` for later runs to auto-load) and writes
``BENCH_tune.json`` with the tuned-vs-default speedup per scenario plus
each scenario's accuracy-tolerance × speed Pareto front.  Its
``--check`` gate requires tuned >= default on *every* (experiment,
device) cell — true by construction, since a candidate that does not
measurably beat the defaults is never adopted — and a per-device
speedup geomean >= ``--min-tune-geomean`` (default 1.3x) on at least
one device.

``--cluster`` runs the fixed-size strong-scaling sweep over the
simulated cluster (:mod:`repro.cluster`): one slab-decomposed run per
(device model, node count) cell, writing ``BENCH_cluster.json`` with
simulated seconds per step, the speedup over the same device's one-node
run, and the exact ghost-exchange byte ledger.  The numbers are
*simulated* time from the calibrated device models — deterministic, so
the stored table is reproducible to the digit.  Its ``--check`` gate
requires every device to beat its one-node run at the largest node
count (``--min-cluster-speedup``, default 1.0) and the ghost-exchange
conservation audit to pass on every cell.

Either mode refuses (exit 3) to overwrite an existing BENCH file when
the new table regresses any stored speedup by more than
``--regress-tolerance`` (default 0.15) — pass ``--force`` to overwrite
anyway.  ``scripts/assert_bench_schema.py`` validates the files.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.vm.bench import (  # noqa: E402
    bench_ensemble,
    bench_kernels,
    ensemble_speedups,
    speedups,
)

#: Replica counts the ensemble gate applies to (R >= this must hit the
#: minimum speedup).
GATE_REPLICAS = 8

#: ``--regress-tolerance`` default: a new table may undercut the stored
#: one by this fraction before the overwrite is refused (benchmarks on
#: shared CI runners jitter; a real regression moves further than this).
REGRESS_TOLERANCE = 0.15

#: Exit code for "refusing to overwrite with a regressed table" —
#: distinct from the speed-gate failure (1) and usage errors (2).
EXIT_REGRESSED = 3


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


def _existing_record(out: Path, schema: str) -> dict | None:
    """The stored record at ``out`` iff it parses and matches ``schema``."""
    try:
        existing = json.loads(out.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return existing if existing.get("schema") == schema else None


def _write_record(
    args: argparse.Namespace, out: Path, record: dict, speedup_field: str
) -> int:
    """Write ``record``, refusing to clobber a faster stored table.

    The BENCH files are the repo's perf history — one accidental run on
    a loaded machine must not silently rewrite it downward.  ``--force``
    overrides (e.g. after an intentional trade-off).
    """
    existing = _existing_record(out, record["schema"])
    if existing is not None and not args.force:
        old = {
            k: v for k, v in (existing.get(speedup_field) or {}).items()
            if isinstance(v, (int, float))
        }
        slow = regressed_speedups(
            old, record[speedup_field], args.regress_tolerance
        )
        if slow:
            print(
                f"REFUSED: new table regresses {out.name} beyond "
                f"{args.regress_tolerance:.0%} on {len(slow)} speedup(s); "
                "re-run on an idle machine or pass --force:",
                file=sys.stderr,
            )
            for key in sorted(slow):
                prev, cur = slow[key]
                print(f"  {key}: {prev:.2f}x -> {cur:.2f}x", file=sys.stderr)
            return EXIT_REGRESSED
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def _host() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _run_kernels(args: argparse.Namespace, out: Path) -> int:
    if args.quick:
        sizing = {"batch": 1024, "repeats": 3}
    else:
        sizing = {"batch": 1024, "repeats": 7}

    results = bench_kernels(**sizing)
    ratios = speedups(results)
    record = {
        "schema": "repro.bench_vm/1",
        "recorded_unix": time.time(),
        "host": _host(),
        "config": {**sizing, "quick": args.quick},
        "results": [r.to_dict() for r in results],
        "speedup_fused_over_interp": ratios,
    }
    rc = _write_record(args, out, record, "speedup_fused_over_interp")
    if rc:
        return rc

    width = max(len(r.kernel) for r in results)
    for r in results:
        print(f"{r.kernel:<{width}}  {r.backend:<8}  "
              f"{r.pairs_per_second / 1e6:8.3f} Mpairs/s")
    for kernel, ratio in sorted(ratios.items()):
        print(f"{kernel:<{width}}  speedup   {ratio:8.2f}x")
    print(f"wrote {out}")

    if args.check:
        ratio = ratios.get(args.gate_kernel)
        if ratio is None:
            print(f"error: gate kernel {args.gate_kernel!r} not measured",
                  file=sys.stderr)
            return 2
        if ratio < args.min_speedup:
            print(
                f"FAIL: fused backend is {ratio:.2f}x the interpreter on "
                f"{args.gate_kernel} (required >= {args.min_speedup:.2f}x)",
                file=sys.stderr,
            )
            return 1
        print(f"gate ok: {args.gate_kernel} fused/interp = {ratio:.2f}x "
              f">= {args.min_speedup:.2f}x")
    return 0


def _run_ensemble(args: argparse.Namespace, out: Path) -> int:
    if args.quick:
        sizing = {
            "replica_counts": (1, 2, 4, 8),
            "rows_per_replica": 256,
            "repeats": 3,
        }
    else:
        sizing = {
            "replica_counts": (1, 2, 4, 8, 16),
            "rows_per_replica": 256,
            "repeats": 7,
        }

    results = bench_ensemble(**sizing)
    ratios = ensemble_speedups(results)
    record = {
        "schema": "repro.bench_vm2/1",
        "recorded_unix": time.time(),
        "host": _host(),
        "config": {
            "replica_counts": list(sizing["replica_counts"]),
            "rows_per_replica": sizing["rows_per_replica"],
            "repeats": sizing["repeats"],
            "quick": args.quick,
        },
        "results": [r.to_dict() for r in results],
        # JSON object keys are strings; keep replica counts readable.
        "speedup_batched_over_sequential": {
            str(r): ratio for r, ratio in sorted(ratios.items())
        },
    }
    rc = _write_record(args, out, record, "speedup_batched_over_sequential")
    if rc:
        return rc

    for r in results:
        print(f"R={r.replicas:<3} {r.mode:<20} "
              f"{r.replicas_per_second:10.1f} replicas/s "
              f"({r.best_seconds * 1e3:.3f} ms)")
    for replicas, ratio in sorted(ratios.items()):
        print(f"R={replicas:<3} speedup              {ratio:10.2f}x")
    print(f"wrote {out}")

    if args.check:
        gated = {r: v for r, v in ratios.items() if r >= GATE_REPLICAS}
        if not gated:
            print(f"error: no replica count >= {GATE_REPLICAS} measured",
                  file=sys.stderr)
            return 2
        slow = {r: round(v, 2) for r, v in gated.items()
                if v < args.min_ensemble_speedup}
        if slow:
            print(
                f"FAIL: fused-batched below "
                f"{args.min_ensemble_speedup:.2f}x replicas/sec over "
                f"fused-sequential at R={sorted(slow)}: {slow}",
                file=sys.stderr,
            )
            return 1
        floor = min(gated.values())
        print(f"gate ok: batched/sequential >= {floor:.2f}x at every "
              f"R >= {GATE_REPLICAS} (required "
              f">= {args.min_ensemble_speedup:.2f}x)")
    return 0


def _geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=float)))))


def _run_tune(args: argparse.Namespace, out: Path) -> int:
    from repro.reporting.pareto import pareto_front, render_pareto
    from repro.tune.artifact import TunedStore
    from repro.tune.search import tune_scenarios

    budget = args.budget
    repeats = 2 if args.quick else 3
    # force=True: the bench always re-measures — a stale cached artifact
    # must never masquerade as today's numbers.  The persisted artifacts
    # still land under runs/tuned/ for subsequent runs to auto-load.
    store = TunedStore(REPO_ROOT / "runs")
    outcomes = tune_scenarios(
        quick=args.quick,
        budget=budget,
        repeats=repeats,
        store=store,
        force=True,
    )

    rows = []
    ratios: dict[str, float] = {}
    for sid, outcome in sorted(outcomes.items()):
        art = outcome.artifact
        front = pareto_front(art.trials)
        rows.append(
            {
                "scenario": art.scenario_id,
                "experiment": art.experiment_id,
                "device": art.device,
                "n": art.n,
                "metric": art.metric,
                "objective": art.objective,
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
                    for t in front
                ],
            }
        )
        ratios[sid] = art.speedup
    record = {
        "schema": "repro.bench_tune/1",
        "recorded_unix": time.time(),
        "host": _host(),
        "config": {"budget": budget, "repeats": repeats, "quick": args.quick},
        "results": rows,
        "speedup_tuned_over_default": ratios,
    }
    rc = _write_record(args, out, record, "speedup_tuned_over_default")
    if rc:
        return rc

    width = max(len(r["scenario"]) for r in rows)
    for r in rows:
        winner = r["winner"] or "(defaults)"
        print(
            f"{r['scenario']:<{width}}  {r['device']:<7} "
            f"{r['speedup']:6.2f}x  {winner}"
        )
    for r in rows:
        art = outcomes[r["scenario"]].artifact
        print()
        print(render_pareto(
            art.trials,
            title=f"pareto [{r['scenario']}]: accuracy tolerance vs speed",
        ))
    print(f"\nwrote {out}; tuned artifacts under {store.dir}")

    if args.check:
        slower = {
            sid: round(v, 3) for sid, v in ratios.items() if v < 0.999
        }
        if slower:
            print(
                f"FAIL: tuned below default on {sorted(slower)}: {slower}",
                file=sys.stderr,
            )
            return 1
        by_device: dict[str, list[float]] = {}
        for r in rows:
            by_device.setdefault(r["device"], []).append(r["speedup"])
        geomeans = {d: _geomean(v) for d, v in by_device.items()}
        best_device = max(geomeans, key=geomeans.get)
        if geomeans[best_device] < args.min_tune_geomean:
            print(
                "FAIL: no device reaches a tuned/default speedup geomean "
                f">= {args.min_tune_geomean:.2f}x; best is {best_device} at "
                f"{geomeans[best_device]:.2f}x ({geomeans})",
                file=sys.stderr,
            )
            return 1
        print(
            "gate ok: tuned >= default on every (experiment, device) cell; "
            f"{best_device} geomean = {geomeans[best_device]:.2f}x "
            f">= {args.min_tune_geomean:.2f}x"
        )
    return 0


def _run_cluster(args: argparse.Namespace, out: Path) -> int:
    from repro.cluster.machine import SimulatedCluster
    from repro.experiments.common import paper_config
    from repro.obs.invariants import cluster_conservation_problems
    from repro.obs.observe import Observation

    if args.quick:
        sizing = {
            "n_atoms": 1024,
            "n_steps": 2,
            "node_counts": (1, 2, 4, 8),
            "devices": ("cell", "gpu"),
        }
    else:
        sizing = {
            "n_atoms": 2048,
            "n_steps": 4,
            "node_counts": (1, 2, 4, 8),
            "devices": ("cell", "gpu", "mta", "opteron"),
        }
    topology = args.topology
    config = paper_config(sizing["n_atoms"])

    rows = []
    ratios: dict[str, float] = {}
    audit_problems: list[str] = []
    equivalence_ok = True
    for device in sizing["devices"]:
        baseline = None
        reference_digest = None
        for k in sizing["node_counts"]:
            cluster = SimulatedCluster(
                device=device, n_nodes=k, topology=topology
            )
            obs = Observation(device=cluster.name)
            result = cluster.run(config, sizing["n_steps"], observe=obs)
            audit_problems.extend(
                f"{device}/K={k}: {p}"
                for p in cluster_conservation_problems(result.counters, result)
            )
            digest = result.state_digest()
            if k == sizing["node_counts"][0]:
                baseline = result.seconds_per_step
                reference_digest = digest
            equivalence_ok = equivalence_ok and digest == reference_digest
            speedup = baseline / result.seconds_per_step
            ratios[f"{device}/{k}"] = speedup
            rows.append(
                {
                    "device": device,
                    "nodes": k,
                    "topology": topology,
                    "seconds_per_step": result.seconds_per_step,
                    "speedup_over_one_node": speedup,
                    "exchange_bytes": result.exchange_bytes,
                    "ghost_atoms_per_step": result.ghost_atoms
                    // max(1, sizing["n_steps"]),
                    "hidden_exchange_seconds": sum(
                        e.hidden_seconds for e in result.ledger
                    ),
                    "state_digest": digest,
                }
            )

    record = {
        "schema": "repro.bench_cluster/1",
        "recorded_unix": time.time(),
        "host": _host(),
        "config": {
            "n_atoms": sizing["n_atoms"],
            "n_steps": sizing["n_steps"],
            "node_counts": list(sizing["node_counts"]),
            "devices": list(sizing["devices"]),
            "topology": topology,
            "quick": args.quick,
        },
        "results": rows,
        "speedup_over_one_node": ratios,
    }
    rc = _write_record(args, out, record, "speedup_over_one_node")
    if rc:
        return rc

    for r in rows:
        print(
            f"{r['device']:<8} K={r['nodes']:<2} "
            f"{r['seconds_per_step'] * 1e3:9.4f} ms/step  "
            f"{r['speedup_over_one_node']:6.2f}x  "
            f"{r['exchange_bytes'] / 1e6:8.3f} MB exchanged"
        )
    print(f"wrote {out}")

    if args.check:
        if not equivalence_ok:
            print(
                "FAIL: decomposed state digest diverges from the one-node "
                "run (bit-identity broken)",
                file=sys.stderr,
            )
            return 1
        if audit_problems:
            print("FAIL: ghost-exchange conservation audit:", file=sys.stderr)
            for problem in audit_problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        kmax = max(sizing["node_counts"])
        slow = {
            d: round(ratios[f"{d}/{kmax}"], 3)
            for d in sizing["devices"]
            if ratios[f"{d}/{kmax}"] < args.min_cluster_speedup
        }
        if slow:
            print(
                f"FAIL: K={kmax} below {args.min_cluster_speedup:.2f}x over "
                f"one node on: {slow}",
                file=sys.stderr,
            )
            return 1
        floor = min(ratios[f"{d}/{kmax}"] for d in sizing["devices"])
        print(
            f"gate ok: bit-identical, conserved, and K={kmax} >= "
            f"{floor:.2f}x over one node on every device (required >= "
            f"{args.min_cluster_speedup:.2f}x)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: repo-root BENCH_vm.json, "
                        "or BENCH_vm2.json with --ensemble)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller batches and fewer repeats (CI-sized)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the mode's speed gate holds")
    parser.add_argument("--ensemble", action="store_true",
                        help="measure batched-replica whole-timestep "
                        "throughput instead of per-kernel pairs/sec")
    parser.add_argument("--tune", action="store_true",
                        help="run the autotuner over every scenario and "
                        "record tuned-vs-default speedups")
    parser.add_argument("--cluster", action="store_true",
                        help="record the simulated-cluster strong-scaling "
                        "table (fixed size, K nodes per device model)")
    parser.add_argument("--topology", default="switch",
                        help="cluster fabric topology for --cluster "
                        "(default: switch)")
    parser.add_argument("--min-cluster-speedup", type=float, default=1.0,
                        help="minimum largest-K speedup over one node, per "
                        "device, for --cluster --check (default 1.0)")
    parser.add_argument("--budget", type=int, default=16,
                        help="max probes per scenario for --tune "
                        "(default 16; covers every shipped grid)")
    parser.add_argument("--min-tune-geomean", type=float, default=1.3,
                        help="minimum per-device tuned/default speedup "
                        "geomean (on the best device) for --tune --check")
    parser.add_argument("--gate-kernel", default="spe:simd_acceleration",
                        help="kernel the kernel-mode --check gate applies to")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="minimum fused/interp ratio for --check")
    parser.add_argument("--min-ensemble-speedup", type=float, default=2.0,
                        help="minimum fused-batched/fused-sequential "
                        f"replicas-per-second ratio at R >= {GATE_REPLICAS} "
                        "for --ensemble --check")
    parser.add_argument("--regress-tolerance", type=float,
                        default=REGRESS_TOLERANCE, metavar="FRAC",
                        help="overwrite refusal threshold: refuse when any "
                        "stored speedup drops by more than this fraction "
                        f"(default {REGRESS_TOLERANCE})")
    parser.add_argument("--force", action="store_true",
                        help="overwrite the stored table even if the new "
                        "one regresses it")
    args = parser.parse_args(argv)
    if args.regress_tolerance < 0.0:
        parser.error("--regress-tolerance must be >= 0")

    if sum((args.ensemble, args.tune, args.cluster)) > 1:
        parser.error("--ensemble, --tune and --cluster are mutually exclusive")
    if args.cluster:
        out = args.out or REPO_ROOT / "BENCH_cluster.json"
        return _run_cluster(args, out)
    if args.tune:
        out = args.out or REPO_ROOT / "BENCH_tune.json"
        return _run_tune(args, out)
    if args.ensemble:
        out = args.out or REPO_ROOT / "BENCH_vm2.json"
        return _run_ensemble(args, out)
    out = args.out or REPO_ROOT / "BENCH_vm.json"
    return _run_kernels(args, out)


if __name__ == "__main__":
    sys.exit(main())
