#!/usr/bin/env python
"""CI gate: fault-plane runs are deterministic and fully accounted.

Usage::

    python scripts/assert_determinism.py [--plan storm] [--n-atoms N]
    [--n-steps N]
    python scripts/assert_determinism.py --cluster [--plan cluster-storm]
    [--n-atoms N] [--n-steps N] [--nodes K ...] [--devices D ...]

Runs every cell twice under the same fault plan, plus twice clean.  A
cell is a device model (cell, cell-vm, gpu, gpu-vm, mta) by default, or
a (device, K) simulated-cluster cell with ``--cluster``.  ``cell-vm``
and ``gpu-vm`` run the Cell and GPU models on the instruction-level VM,
where ``vm.bitflip`` lands in real output registers.  Asserts:

* the two runs produce **byte-identical** fault event logs, simulated
  step timings, final positions/velocities and, for cluster cells,
  state digests (determinism — same seed, same chaos),
* every injected fault is detected and recovered, none aborted (full
  event-log accounting),
* the faulted trajectory is **bit-identical** to the clean run (recovery
  restores physics exactly; cluster link drops and stragglers cost
  simulated time only),
* a zero-rate plan (``--plan none``) costs exactly nothing — timings
  equal the clean run to the bit (arming the fault plane is free),
* memoised ≡ live: a clean device run prices the process-wide trajectory
  memo, so the second clean run is a guaranteed memo hit and must be
  byte-equal to the first; under ``--plan none`` both must also be
  byte-equal to the zero-rate run, which steps the simulation live,
* every decomposed cluster cell reproduces its device's smallest-K
  digest (the K = 1 equivalence contract, re-checked so the gate
  stands alone in CI).

Exit code 0 on success, 1 with a findings list otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _device_cells():
    """(label, group, factory) per device model; no digest groups."""
    from repro.cell.device import CellDevice
    from repro.gpu.device import GpuDevice
    from repro.mta.device import MTADevice

    devices = {
        "cell": lambda: CellDevice(n_spes=8),
        "cell-vm": lambda: CellDevice(n_spes=8, mode="vm"),
        "gpu": lambda: GpuDevice(),
        "gpu-vm": lambda: GpuDevice(mode="vm"),
        "mta": lambda: MTADevice(),
    }
    return [(name, None, make) for name, make in sorted(devices.items())]


def _cluster_cells(args):
    """(label, group, factory) per (device, K); grouped by device."""
    from repro.cluster.machine import SimulatedCluster

    cells = []
    for device in args.devices:
        for k in sorted(set(args.nodes)):
            def make(device=device, k=k):
                return SimulatedCluster(
                    device=device, n_nodes=k, topology=args.topology
                )

            cells.append((f"{device}/K={k}", device, make))
    return cells


def _outputs(result) -> tuple:
    """A run's simulated outputs, floats as hex and arrays as bytes."""
    return (
        tuple(s.hex() for s in result.step_seconds),
        tuple(sorted((k, v.hex()) for k, v in result.breakdown.items())),
        repr(result.records),
        result.final_positions.tobytes(),
        result.final_velocities.tobytes(),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cluster", action="store_true",
                        help="check (device, K) simulated-cluster cells "
                        "instead of single device models")
    parser.add_argument("--plan", default=None,
                        help="'storm', 'cluster-storm', 'none', or a JSON "
                        "plan file (default: storm, or cluster-storm with "
                        "--cluster)")
    parser.add_argument("--n-atoms", type=int, default=None,
                        help="default 128, or 256 with --cluster")
    parser.add_argument("--n-steps", type=int, default=None,
                        help="default 6, or 4 with --cluster")
    parser.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 4],
                        help="node counts for --cluster")
    parser.add_argument("--devices", nargs="+", default=["cell", "opteron"],
                        help="device models for --cluster")
    parser.add_argument("--topology", default="switch",
                        help="cluster fabric topology for --cluster")
    args = parser.parse_args(argv)
    if args.plan is None:
        args.plan = "cluster-storm" if args.cluster else "storm"
    if args.n_atoms is None:
        args.n_atoms = 256 if args.cluster else 128
    if args.n_steps is None:
        args.n_steps = 4 if args.cluster else 6

    import numpy as np

    from repro.faults import load_plan_arg
    from repro.md.simulation import MDConfig

    plan = load_plan_arg(args.plan)
    config = MDConfig(n_atoms=args.n_atoms)
    cells = _cluster_cells(args) if args.cluster else _device_cells()

    problems: list[str] = []
    reference: dict[str, tuple[str, str]] = {}
    for label, group, make in cells:
        clean = make().run(config, args.n_steps)
        clean_again = make().run(config, args.n_steps)
        first = make().run(config, args.n_steps, faults=plan)
        second = make().run(config, args.n_steps, faults=plan)

        if _outputs(clean_again) != _outputs(clean):
            problems.append(f"{label}: repeated clean run differs from the first")

        log_a = json.dumps(first.fault_events, sort_keys=True)
        log_b = json.dumps(second.fault_events, sort_keys=True)
        if log_a != log_b:
            problems.append(f"{label}: event logs differ between identical runs")
        if first.step_seconds != second.step_seconds:
            problems.append(f"{label}: simulated timings differ between runs")
        if not (
            np.array_equal(first.final_positions, second.final_positions)
            and np.array_equal(first.final_velocities, second.final_velocities)
        ):
            problems.append(f"{label}: final state differs between runs")
        if group is not None and first.state_digest() != second.state_digest():
            problems.append(
                f"{label}: state digests differ between identical runs"
            )

        summary = first.fault_summary
        if not summary.get("fully_accounted", False):
            problems.append(
                f"{label}: event log not fully accounted "
                f"({summary.get('injected')} injected, "
                f"{summary.get('recovered')} recovered, "
                f"{summary.get('aborted')} aborted)"
            )
        if not (
            np.array_equal(first.final_positions, clean.final_positions)
            and np.array_equal(first.final_velocities, clean.final_velocities)
        ):
            problems.append(f"{label}: faulted trajectory deviates from clean run")
        if plan.is_zero:
            if _outputs(first) != _outputs(clean):
                problems.append(
                    f"{label}: zero-rate plan changed the clean run's outputs"
                )
        elif summary.get("injected", 0) and first.total_seconds <= clean.total_seconds:
            problems.append(f"{label}: faults injected but nothing charged")

        if group is not None:
            digest = clean.state_digest()
            first_label, first_digest = reference.setdefault(group, (label, digest))
            if digest != first_digest:
                problems.append(
                    f"{label}: decomposed digest diverges from {first_label}"
                )

        tally = {
            k: summary.get(k, 0)
            for k in ("injected", "recovered", "restores", "aborted")
        }
        print(f"{label}: {tally} — ok")

    if problems:
        print(f"FAIL: plan {args.plan!r}:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    kind = "cluster cell(s)" if args.cluster else "device(s)"
    print(
        f"OK: plan {args.plan!r} deterministic, accounted, and bit-faithful "
        f"on {len(cells)} {kind}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
