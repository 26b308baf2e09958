"""Run every experiment and render a combined report.

``python -m repro.experiments.runner [--quick]`` regenerates every
table and figure of the paper plus the ablations, printing the measured
values, the paper references, and the pass/fail of every shape check.

This module is a thin compatibility shim over :mod:`repro.harness`:
the roster lives in :mod:`repro.experiments.registry` and execution
goes through :func:`repro.harness.api.run_roster` (inline, uncached,
ephemeral — no ``runs/`` artifacts).  That buys crash isolation for
free: an exception in one experiment is reported with its traceback
and the rest of the roster still runs.  For parallel execution, the
result cache, and stored run artifacts, use ``python -m repro.harness``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.common import ExperimentResult

__all__ = ["main"]

#: Where ``--trace`` drops its Chrome trace-event artifacts.
DEFAULT_TRACE_DIR = Path("runs") / "traces"


def _print_record(
    record: Mapping[str, Any],
    show_counters: bool = False,
    trace_dir: Path | None = None,
) -> None:
    if record["status"] == "ok":
        print(ExperimentResult.from_dict(record["result"]).render())
        if show_counters:
            counters = record["result"].get("counters") or {}
            if counters:
                width = max(len(name) for name in counters)
                print("hardware counters:")
                for name in sorted(counters):
                    print(f"  {name:<{width}}  {counters[name]:.6g}")
        if trace_dir is not None and record.get("trace"):
            from repro.reporting import ascii_timeline

            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{record['experiment_id']}.trace.json"
            path.write_text(
                json.dumps(record["trace"], indent=2, sort_keys=True) + "\n"
            )
            print(ascii_timeline(record["trace"]), end="")
            print(f"trace: {path}  (load in chrome://tracing or ui.perfetto.dev)")
    else:
        print(f"[ERROR] {record['experiment_id']}: experiment {record['status']}")
        if record.get("traceback"):
            print(record["traceback"].rstrip())
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small systems, short sweeps"
    )
    parser.add_argument(
        "--only", default=None, help="run a single experiment id (e.g. fig7)"
    )
    parser.add_argument(
        "--skip",
        action="append",
        default=[],
        metavar="ID",
        help="skip an experiment id (repeatable)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment ids and descriptions, then exit",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="fault plan for the chaos experiment: 'storm', 'none', or a "
        "path to a JSON plan file (applies to experiments that accept one)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="R",
        help="replica count for the ensemble experiment (overrides the "
        "roster default; applies to experiments that accept one)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="observe every experiment, print an ASCII timeline, and write "
        f"Chrome trace-event JSON under {DEFAULT_TRACE_DIR}/",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=f"directory for --trace artifacts (default: {DEFAULT_TRACE_DIR})",
    )
    parser.add_argument(
        "--counters",
        action="store_true",
        help="observe every experiment and print its hardware-counter summary",
    )
    parser.add_argument(
        "--tuned",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="auto-load tuned configs from runs/tuned/ (default on; "
        "--no-tuned runs everything at backend defaults)",
    )
    args = parser.parse_args(argv)

    if args.replicas is not None and args.replicas < 1:
        parser.error("--replicas must be >= 1")

    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults import load_plan_arg

        try:
            fault_plan = load_plan_arg(args.fault_plan).to_dict()
        except ValueError as exc:
            parser.error(str(exc))

    if args.list:
        from repro.harness.cli import print_roster

        print_roster()
        return 0

    from repro.harness import api

    observe = args.trace or args.counters
    try:
        jobs = api.jobs_from_registry(
            quick=args.quick,
            fault_plan=fault_plan,
            replicas=args.replicas,
            only=[args.only] if args.only else None,
            skip=args.skip,
            observe=observe,
        )
    except KeyError as exc:
        parser.error(exc.args[0])

    if args.tuned:
        jobs = api.attach_tuned(jobs, quick=args.quick)

    trace_dir = None
    if args.trace:
        trace_dir = Path(args.trace_dir) if args.trace_dir else DEFAULT_TRACE_DIR

    outcome = api.run_roster(
        jobs,
        store=None,  # ephemeral: no runs/ artifacts, no cache
        max_workers=0,  # inline, roster order, monkeypatch-friendly
        use_cache=False,
        on_record=partial(
            _print_record, show_counters=args.counters, trace_dir=trace_dir
        ),
    )
    failures = outcome.failures
    if failures:
        crashed = outcome.manifest["not_ok_count"]
        if crashed:
            print(f"{crashed} experiment(s) raised instead of completing")
        band = outcome.manifest["band_failure_count"]
        if band:
            print(f"{band} experiment(s) outside their paper-shape bands")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
