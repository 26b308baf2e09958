"""``python -m repro.harness`` — the experiment-execution CLI.

Subcommands::

    run   [--quick] [--jobs N] [--only ID ...] [--skip ID ...]
          [--force-path NAME] [--fault-plan PLAN] [--timeout S]
          [--retries N] [--no-cache] [--invalidate ID ...]
          [--trace] [--counters] [--no-tuned] [--runs-dir DIR] [--list]
    tune  [--quick] [--only SCENARIO ...] [--budget N] [--force-tune]
          [--counters] [--runs-dir DIR] [--list]
    list  [--runs-dir DIR]            # stored runs, oldest first
    show  RUN_ID [--render] [--runs-dir DIR]
    diff  RUN_A RUN_B [--runs-dir DIR]   # shape-band regressions
    gc    [--keep K] [--prune-cache] [--prune-tuned] [--prune-journal]
          [--dry-run] [--runs-dir DIR]
    quarantine  [list | release (KEY | --all)] [--runs-dir DIR]

``run`` exits non-zero when any job failed to finish or finished
outside its paper-shape bands; ``diff`` exits non-zero on regressions.
``tune`` searches each scenario's knob space with short device probes
priced on the simulated clock and persists the winning config under
``runs/tuned/``; later ``run``s auto-load matching configs
(``--no-tuned`` opts out).
``gc`` keeps the newest K runs (default 20) and sweeps orphaned
traces, stale ``*.tmp`` files, and satisfied checkpoints; with
``--prune-cache`` it also drops cache entries no kept run references,
with ``--prune-tuned`` it drops tuned configs that are stale
(other code tree, referenced by nothing), and with ``--prune-journal``
it drops compacted service WAL segments (live segments are never
touched — they may carry jobs a restarted node still owes).
``quarantine`` inspects the service's poison ledger and releases
quarantined job content so it may run again.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Mapping

from repro.harness import api
from repro.harness.store import DEFAULT_RUNS_DIR, RunStore

__all__ = ["main"]


def _add_runs_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runs-dir",
        default=DEFAULT_RUNS_DIR,
        metavar="DIR",
        help=f"run-store root (default: ./{DEFAULT_RUNS_DIR})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the experiment roster")
    run.add_argument("--quick", action="store_true", help="small systems, short sweeps")
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1; 0 = inline in this process)",
    )
    run.add_argument("--only", action="append", default=[], metavar="ID",
                     help="run only this experiment id (repeatable)")
    run.add_argument("--skip", action="append", default=[], metavar="ID",
                     help="skip an experiment id (repeatable)")
    run.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="per-job timeout in seconds (requires --jobs >= 1)")
    run.add_argument("--retries", type=int, default=0, metavar="N",
                     help="extra attempts per failed/timed-out job")
    run.add_argument("--backoff", type=float, default=0.25, metavar="S",
                     help="base retry backoff (doubles per attempt)")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute everything; do not read or reuse the cache")
    run.add_argument("--invalidate", action="append", default=[], metavar="ID",
                     help="drop cached records for an experiment id first (repeatable)")
    run.add_argument("--trace", action="store_true",
                     help="observe every job: store Chrome trace-event JSON "
                     "under runs/<run_id>/traces/ and counters in results")
    run.add_argument("--counters", action="store_true",
                     help="observe every job and print its hardware-counter "
                     "summary (implied by --trace for collection)")
    run.add_argument("--list", action="store_true",
                     help="list experiment ids and descriptions, then exit")
    from repro.md.forcefield import available_backends

    run.add_argument("--force-path", default="all-pairs",
                     choices=available_backends(),
                     help="functional force engine for the fig9 sweep")
    run.add_argument("--fault-plan", default=None, metavar="PLAN",
                     help="fault plan for the chaos experiment: 'storm', "
                     "'none', or a path to a JSON plan file; ships through "
                     "job params, so it IS part of the cache key")
    run.add_argument("--replicas", type=int, default=None, metavar="R",
                     help="replica count for the ensemble experiment; ships "
                     "through job params, so it IS part of the cache key")
    run.add_argument("--tuned", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="auto-load tuned configs from runs/tuned/ for "
                     "experiments with a matching artifact (default on; "
                     "--no-tuned runs everything at backend defaults)")
    _add_runs_dir(run)

    tune = sub.add_parser(
        "tune", help="search the knob space and persist tuned configs")
    tune.add_argument("--quick", action="store_true",
                      help="small probe systems, one probe step")
    tune.add_argument("--only", action="append", default=[],
                      metavar="SCENARIO",
                      help="tune only this scenario id (repeatable)")
    tune.add_argument("--budget", type=int, default=16, metavar="N",
                      help="max probes per scenario, defaults baseline "
                      "included (default 16)")
    tune.add_argument("--force-tune", action="store_true",
                      help="re-search even when an artifact already "
                      "satisfies the scenario key")
    tune.add_argument("--counters", action="store_true",
                      help="collect and print the tune.* counter summary")
    tune.add_argument("--list", action="store_true",
                      help="list tuning scenarios and their knobs, then exit")
    _add_runs_dir(tune)

    lst = sub.add_parser("list", help="list stored runs")
    _add_runs_dir(lst)

    show = sub.add_parser("show", help="show one stored run")
    show.add_argument("run_id")
    show.add_argument("--render", action="store_true",
                      help="render each job's full result table")
    _add_runs_dir(show)

    diff = sub.add_parser("diff", help="compare two runs' shape checks")
    diff.add_argument("run_a")
    diff.add_argument("run_b")
    _add_runs_dir(diff)

    gc = sub.add_parser("gc", help="prune old runs and orphaned artifacts")
    gc.add_argument("--keep", type=int, default=20, metavar="K",
                    help="newest runs to keep (default 20)")
    gc.add_argument("--prune-cache", action="store_true",
                    help="also drop cache entries no kept run references")
    gc.add_argument("--prune-tuned", action="store_true",
                    help="also drop stale tuned configs (tuned against "
                    "another code tree and referenced by no kept record)")
    gc.add_argument("--prune-journal", action="store_true",
                    help="also drop compacted (.settled) service WAL "
                    "segments; live segments are never pruned")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without removing it")
    _add_runs_dir(gc)

    quarantine = sub.add_parser(
        "quarantine", help="inspect/release the service poison ledger")
    _add_runs_dir(quarantine)  # bare `quarantine` defaults to list
    qsub = quarantine.add_subparsers(dest="quarantine_command")
    qlist = qsub.add_parser("list", help="show quarantined job content")
    _add_runs_dir(qlist)
    qrelease = qsub.add_parser(
        "release", help="forget a quarantined cache key so it may run again")
    qrelease.add_argument("cache_key", nargs="?", default=None,
                          help="cache key (prefix accepted if unambiguous)")
    qrelease.add_argument("--all", action="store_true",
                          help="release every quarantined key")
    _add_runs_dir(qrelease)
    return parser


def print_roster(out=None) -> None:
    """The ``--list`` listing: id + one-line description per experiment."""
    from repro.experiments.registry import EXPERIMENTS

    out = out if out is not None else sys.stdout
    width = max(len(spec.experiment_id) for spec in EXPERIMENTS)
    for spec in EXPERIMENTS:
        print(f"{spec.experiment_id:<{width}}  {spec.description}", file=out)


def _status_line(record: Mapping[str, Any]) -> str:
    status = record["status"]
    if status == "ok":
        bands = "bands ok" if record.get("all_passed") else "BANDS FAIL"
        status = f"ok, {bands}"
    cached = " (cached)" if record.get("cached") else ""
    return (
        f"[{record['job_id']}] {status}{cached} "
        f"— {record.get('wall_seconds', 0.0):.2f}s"
        f", attempt {record.get('attempts', 1)}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list:
        print_roster()
        return 0
    if args.replicas is not None and args.replicas < 1:
        print("error: --replicas must be >= 1", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults import load_plan_arg

        try:
            fault_plan = load_plan_arg(args.fault_plan).to_dict()
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    observe = args.trace or args.counters
    try:
        jobs = api.jobs_from_registry(
            quick=args.quick,
            force_path=args.force_path,
            fault_plan=fault_plan,
            replicas=args.replicas,
            only=args.only or None,
            skip=args.skip,
            observe=observe,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    store = RunStore(args.runs_dir)
    if args.tuned:
        from repro.tune.artifact import TunedStore

        jobs = api.attach_tuned(
            jobs, tuned_store=TunedStore(args.runs_dir), quick=args.quick
        )
        for job in jobs:
            if job.tuned:
                print(
                    f"[{job.job_id}] tuned config "
                    f"{job.tuned['fingerprint'][:16]}… "
                    f"({len(job.tuned['values'])} knob(s))"
                )
    outcome = api.run_roster(
        jobs,
        store=store,
        max_workers=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        use_cache=not args.no_cache,
        invalidate=args.invalidate,
        run_meta={
            "quick": args.quick,
            "jobs": args.jobs,
            "force_path": args.force_path,
            "fault_plan": args.fault_plan,
            "replicas": args.replicas,
            "only": args.only,
            "skip": args.skip,
            "trace": args.trace,
            "counters": args.counters,
            "tuned": args.tuned,
        },
        on_record=lambda record: print(_status_line(record), flush=True),
    )
    if args.counters:
        for record in outcome.records:
            counters = (record.get("result") or {}).get("counters") or {}
            if not counters:
                continue
            print(f"\n[{record['job_id']}] hardware counters:")
            width = max(len(name) for name in counters)
            for name in sorted(counters):
                print(f"  {name:<{width}}  {counters[name]:.6g}")
    if args.trace and outcome.run_id is not None:
        for job_id in store.list_traces(outcome.run_id):
            print(f"trace: {store.trace_path(outcome.run_id, job_id)}")
    m = outcome.manifest
    print(
        f"run {outcome.run_id}: {m['job_count']} job(s), "
        f"{m['cached_count']} cached, {m['not_ok_count']} did not finish, "
        f"{m['band_failure_count']} outside paper-shape bands "
        f"({m['wall_seconds_total']:.2f}s)"
    )
    return outcome.exit_code


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tune.artifact import TunedStore
    from repro.tune.probe import SCENARIOS
    from repro.tune.search import tune_scenarios

    if args.list:
        width = max(len(s.scenario_id) for s in SCENARIOS)
        for s in SCENARIOS:
            print(
                f"{s.scenario_id:<{width}}  {s.experiment_id} on {s.device} "
                f"(n={s.n}): {', '.join(s.knobs)}"
            )
        return 0
    known = {s.scenario_id for s in SCENARIOS}
    for sid in args.only:
        if sid not in known:
            print(
                f"error: unknown scenario {sid!r}; known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
    store = TunedStore(args.runs_dir)

    def report(scenario, outcome) -> None:
        art = outcome.artifact
        if outcome.cached:
            line = "cached artifact, 0 probes"
        else:
            line = f"{outcome.probes_run} probe(s), source={art.source}"
        winner = art.values or "(defaults)"
        print(
            f"[{scenario.scenario_id}] {line} — winner {winner} "
            f"({art.speedup:.2f}x over defaults)",
            flush=True,
        )

    def search() -> dict[str, Any]:
        return tune_scenarios(
            args.only or None,
            quick=args.quick,
            budget=args.budget,
            store=store,
            force=args.force_tune,
            on_outcome=report,
        )

    if args.counters:
        from repro.obs.context import collect

        with collect() as session:
            outcomes = search()
        counters = session.merged_counters()
        if counters:
            print("\ntuning counters:")
            width = max(len(name) for name in counters)
            for name in sorted(counters):
                print(f"  {name:<{width}}  {counters[name]:.6g}")
    else:
        outcomes = search()
    adopted = sum(
        1 for o in outcomes.values() if o.artifact.values and not o.cached
    )
    cached = sum(1 for o in outcomes.values() if o.cached)
    print(
        f"tuned {len(outcomes)} scenario(s): {adopted} new non-default "
        f"config(s), {cached} already tuned — artifacts under {store.dir}"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    store = RunStore(args.runs_dir)
    runs = store.list_runs()
    if not runs:
        print(f"no runs under {store.root}")
        return 0
    for run_id in runs:
        m = store.read_manifest(run_id)
        print(
            f"{run_id}  jobs={m['job_count']} cached={m['cached_count']} "
            f"failures={m['failures']}  {m['created']}"
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    store = RunStore(args.runs_dir)
    try:
        manifest = store.read_manifest(args.run_id)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"run {args.run_id}  created {manifest['created']}")
    print(f"code fingerprint {manifest['code_fingerprint'][:16]}…")
    for row in manifest["jobs"]:
        print("  " + _status_line(row))
    print(
        f"{manifest['failures']} failure(s) "
        f"({manifest['not_ok_count']} did not finish, "
        f"{manifest['band_failure_count']} outside bands)"
    )
    if args.render:
        from repro.experiments.common import ExperimentResult

        for record in store.iter_job_records(args.run_id):
            print()
            if record.get("result"):
                print(ExperimentResult.from_dict(record["result"]).render())
            else:
                print(f"[{record['job_id']}] {record['status']}")
                if record.get("traceback"):
                    print(record["traceback"])
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    store = RunStore(args.runs_dir)
    try:
        lines, regressions = api.diff_runs(store, args.run_a, args.run_b)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def _cmd_gc(args: argparse.Namespace) -> int:
    store = RunStore(args.runs_dir)
    try:
        removed = store.gc(
            keep_runs=args.keep,
            prune_cache=args.prune_cache,
            prune_tuned=args.prune_tuned,
            prune_journal=args.prune_journal,
            dry_run=args.dry_run,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb}: {removed['runs_removed']} run(s), "
        f"{removed['orphan_traces_removed']} orphan trace(s), "
        f"{removed['tmp_files_removed']} tmp file(s), "
        f"{removed['checkpoints_removed']} satisfied checkpoint(s), "
        f"{removed['cache_entries_removed']} unreferenced cache entr(ies), "
        f"{removed['tuned_artifacts_removed']} stale tuned artifact(s), "
        f"{removed['journal_segments_removed']} compacted journal "
        f"segment(s), {removed['heartbeats_removed']} stale heartbeat(s)"
    )
    return 0


def _cmd_quarantine(args: argparse.Namespace) -> int:
    from repro.service.durability import PoisonRegistry, poison_path

    registry = PoisonRegistry(poison_path(args.runs_dir))
    command = args.quarantine_command or "list"
    entries = registry.entries()
    quarantined = {
        key: entry for key, entry in sorted(entries.items())
        if entry.get("quarantined")
    }
    if command == "list":
        if not entries:
            print("poison ledger is empty")
            return 0
        for key, entry in sorted(entries.items()):
            state = "QUARANTINED" if entry.get("quarantined") else "watching"
            experiment = entry.get("experiment") or "?"
            print(
                f"{key[:16]}…  {state:<11}  {experiment:<12} "
                f"{int(entry.get('failures', 0))} failure(s)"
            )
        print(
            f"{len(entries)} key(s) tracked, {len(quarantined)} quarantined"
        )
        return 0
    # release
    if args.all:
        count = registry.release_all()
        print(f"released {count} key(s)")
        return 0
    if not args.cache_key:
        print("error: give a cache key (or --all)", file=sys.stderr)
        return 2
    matches = [k for k in entries if k.startswith(args.cache_key)]
    if not matches:
        print(f"error: no tracked key matches {args.cache_key!r}",
              file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(
            f"error: {args.cache_key!r} is ambiguous "
            f"({len(matches)} matches)", file=sys.stderr,
        )
        return 2
    registry.release(matches[0])
    print(f"released {matches[0][:16]}…")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return {
        "run": _cmd_run,
        "tune": _cmd_tune,
        "list": _cmd_list,
        "show": _cmd_show,
        "diff": _cmd_diff,
        "gc": _cmd_gc,
        "quarantine": _cmd_quarantine,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
