#!/usr/bin/env python3
"""End-to-end host-time benchmark of the reproduction.

Measures how long the reproduction itself takes (host wall clock, CPU
and memory), end to end and split by layer, on four workloads; see
README.md for what each one is for.  Every sample runs the program in a
fresh process and a fresh working directory under ``_work/``, every
time is corrected for the host's speed while it was measured (see
``hostspeed.py``), and every op's output is checked against the
committed references.

One run, as the regression check calls it (prints a JSON result as its
last line)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

A report over all workloads, samples interleaved round-robin, followed
by one traced run per workload::

    python3 benchmarks/e2e/run.py [--workload W]... [--seed S] [--samples N] [--out DIR]

Maintenance::

    python3 benchmarks/e2e/run.py --smoke            # tiny sizes, schema check
    python3 benchmarks/e2e/run.py --check [--smoke]  # pins and tracer coverage
    python3 benchmarks/e2e/run.py --record           # rewrite reference/*.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any

import hostspeed
import layers
import metrics
import service_mix
import verify
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

DEFAULT_SECONDS = 30
SETUP_SAMPLES = 7
SMOKE_SETUP_SAMPLES = 2
CHILD_TIMEOUT = 150.0


def preflight() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program sources at {SRC / 'repro'}; "
                 "run from a full checkout of the repository")
    sys.path.insert(1, str(SRC))


class BenchError(RuntimeError):
    """The benchmark itself could not produce a measurement."""


@dataclasses.dataclass
class RunResult:
    workload: str
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    metrics: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)
    #: traced batch runs: layers that fired, and the traced pass's times
    fired: set[str] = dataclasses.field(default_factory=set)
    traced_wall_s: float = 0.0
    self_sum_s: float = 0.0

    def record(self, label: str, problems: list[str]) -> None:
        """Count one attempted op; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def line(self, names: tuple[tuple[str, str], ...]) -> dict[str, Any]:
        """The JSON result of a single run."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit} for name, unit in names
            },
        }


# -- processes ----------------------------------------------------------------


def new_work_dir() -> Path:
    work = WORK_DIR / uuid.uuid4().hex[:12]
    (work / "tmp").mkdir(parents=True)
    return work


def program_env(work: Path) -> dict[str, str]:
    """The environment every program process gets: the sources on the
    path, temp files inside the work dir, no ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work / "tmp")
    return env


def spawn_child(
    workload: str, seed: int, speed: hostspeed.HostSpeed, *, run_pass: bool,
    smoke: bool, trace_path: Path | None = None,
) -> dict[str, Any]:
    """Run ``child.py`` once, sampling the CPU's speed meanwhile; returns
    its report, with ``spawned`` and ``ready`` on the monotonic clock."""
    work = new_work_dir()
    report_path = work / "report.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed), str(report_path)]
    cmd += ["--pass"] if run_pass else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--trace", str(trace_path)] if trace_path else []
    with open(work / "child.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=program_env(work), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = speed.wait(proc, CHILD_TIMEOUT)
        except TimeoutError:
            raise BenchError(f"{workload} child timed out; log in {work}") from None
        finally:
            service_mix.kill_group(proc)  # and whatever it left behind
    if code != 0:
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"{workload} child exited {code}:\n{tail}")
    report = json.loads(report_path.read_text())
    shutil.rmtree(work)
    return {**report, "spawned": spawned}


# -- batch workloads ------------------------------------------------------------


def batch_run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
              out_dir: Path) -> RunResult:
    """Untraced: fresh-process passes, then set-up-only processes up to
    the set-up sample count; a pass starts only if it, taken to last as
    long as the previous one, and those set-ups still end within
    ``seconds``.  Traced: one plain and one traced pass, so the tracing
    overhead is measured, not assumed.  Everything runs on one CPU,
    which the speed probes share."""
    result = RunResult(workload)
    refs = verify.load(workload, smoke)["ops"]
    wanted = SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES
    setups: list[dict[str, Any]] = []
    passes: list[dict[str, Any]] = []
    started = time.monotonic()
    with hostspeed.pinned():
        speed = hostspeed.HostSpeed()
        if trace:
            out_dir.mkdir(parents=True, exist_ok=True)
            for trace_path in (None, out_dir / f"trace-{workload}.json"):
                passes.append(spawn_child(workload, seed, speed, run_pass=True,
                                          smoke=smoke, trace_path=trace_path))
        else:
            last = setup_cost = 0.0
            while not passes or (time.monotonic() - started + last
                                 + max(0, wanted - len(passes) - 1) * setup_cost <= seconds):
                begun = time.monotonic()
                passes.append(spawn_child(workload, seed, speed, run_pass=True, smoke=smoke))
                last = time.monotonic() - begun
                # a set-up-only process costs about its spawn-to-ready time
                setup_cost = passes[-1]["ready"] - begun + hostspeed.INTERVAL
            setups = passes + [
                spawn_child(workload, seed, speed, run_pass=False, smoke=smoke)
                for _ in range(wanted - len(passes))
            ]

    for report in passes:
        for op in report["ops"]:
            result.record(op["id"], verify.compare(op["output"], refs.get(op["ref"])))
    result.notes.append(
        f"{len(passes)} pass(es) of {len(passes[0]['ops'])} ops"
        + (f", md seed {passes[0]['md_seed']}" if passes[0]["md_seed"] is not None else "")
    )
    if not trace:
        result.notes.append(
            f"{len(setups)} set-ups; host speed "
            f"{speed.factor(started, time.monotonic()):.3f} of the reference")
        result.metrics = metrics.batch_end_to_end(setups, passes, speed)
        return result

    plain, traced = passes
    plain_wall, traced_wall = (
        speed.corrected(p["wall_s"], p["ready"], p["ready"] + p["wall_s"]) for p in passes)
    traced_speed = traced_wall / traced["wall_s"]
    values = metrics.zeros(metrics.PER_LAYER)
    values.update(metrics.scale_times(traced["layers"], traced_speed))
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    values["trace.unattributed_s"] = traced_wall - traced["self_sum_s"] * traced_speed
    for op in plain["ops"]:
        values[f"op.{op['id']}.wall_s"] = speed.corrected(op["wall_s"], op["start"], op["end"])
    result.metrics = values
    result.fired = set(traced["fired"])
    result.traced_wall_s = traced_wall
    result.self_sum_s = traced["self_sum_s"] * traced_speed
    return result


# -- the service workload -----------------------------------------------------------


def boot(node: service_mix.Node, speed: hostspeed.HostSpeed) -> float:
    """Boot ``node``; returns its set-up seconds, corrected."""
    spawned = time.monotonic()
    node.start(speed)
    ready = time.monotonic()
    return speed.corrected(ready - spawned, spawned, ready)


def boot_only(speed: hostspeed.HostSpeed) -> float:
    work = new_work_dir()
    node = service_mix.Node(work, program_env(work))
    try:
        return boot(node, speed)
    finally:
        node.stop()
        shutil.rmtree(work)


def service_run(seed: int, seconds: float, trace: bool, smoke: bool) -> RunResult:
    """Untraced: boot-only nodes for set-up samples; then boot, prime,
    open loop, settle and verify, all within about ``seconds``.  As in
    a batch run, the nodes share one CPU with the speed probes."""
    from repro.service.client import ServiceError

    result = RunResult("service-mix")
    reference = verify.load("service-mix")["ops"]["faults"]
    setups = []
    with hostspeed.pinned():
        speed = hostspeed.HostSpeed()
        if not trace:
            setups += [boot_only(speed)
                       for _ in range((SMOKE_SETUP_SAMPLES if smoke else SETUP_SAMPLES) - 1)]
        work = new_work_dir()
        node = service_mix.Node(work, program_env(work))
        try:
            setups.append(boot(node, speed))
            data = service_mix.drive(node, seed, service_mix.loop_seconds(seconds), speed)
        except (ServiceError, OSError) as exc:
            raise BenchError(f"service-mix: {exc!r}; node log in {work}") from exc
        finally:
            node.stop()
    shutil.rmtree(work)

    primed = {}
    for plan_seed, record in data["primed_records"].items():
        primed[plan_seed] = workloads.record_output(record)
        result.record(f"primed plan {plan_seed}", verify.compare(primed[plan_seed], reference))
    requests = data["requests"]
    for i, (req, record) in enumerate(zip(requests, data["records"])):
        if record is None:
            problems = [f"{req.error or req.doc}"]
        else:
            output = workloads.record_output(record)
            problems = verify.compare(output, reference)
            if req.kind == "hit":
                problems += [f"vs its primed original: {p}"
                             for p in verify.compare(output, primed[req.plan["seed"]])]
        result.record(f"request {i} ({req.kind})", problems)

    values, invalid = service_mix.summarize(data, speed)
    loop_speed = speed.factor(*data["loop"])
    result.notes.append(
        f"{len(requests)} requests at {service_mix.RATE:g}/s "
        f"({values['service.cold_n']:.0f} cold), {len(setups)} boots; "
        f"cold p50 {values['service.cold_p50_ms']:.1f} ms, "
        f"tail p{values['service.cold_tail_pct']:.1f} {values['service.cold_tail_ms']:.1f} ms; "
        f"host speed {loop_speed:.3f} of the reference over the loop"
        + (f"; INVALID sample: {', '.join(invalid)}" if invalid else "")
    )
    if trace:
        result.metrics = {**metrics.zeros(metrics.PER_LAYER), **values}
        return result
    result.metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms": values["service.cold_p50_ms"],
        "cpu_ms": data["cpu_s"] / len(requests) * 1e3 * loop_speed,
        "peak_rss_mb": data["peak_rss_mb"],
    }
    return result


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool = False, out_dir: Path = OUT_DIR) -> RunResult:
    if workload == "service-mix":
        return service_run(seed, seconds, trace, smoke)
    return batch_run(workload, seed, seconds, trace, smoke, out_dir)


# -- modes ----------------------------------------------------------------------------


def print_result(result: RunResult, names: tuple[tuple[str, str], ...]) -> None:
    print(f"[{result.workload}] {'; '.join(result.notes)}")
    print(f"[{result.workload}] {result.attempted - result.failed}/{result.attempted} "
          "ops match the references")
    for problem in result.problems[:20]:
        print(f"  FAIL {problem}")
    for name, unit in names:
        value = result.metrics[name]
        if value:
            print(f"  {name:34s} {value:14.6g} {unit}")


def single_run_mode(args: argparse.Namespace) -> int:
    if len(args.workload or []) != 1:
        sys.exit("run.py: --trace needs exactly one --workload")
    workload = args.workload[0]
    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = run_once(workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                      Path(args.out))
    print_result(result, names)
    print(json.dumps(result.line(names)))
    return 0


def report_mode(args: argparse.Namespace) -> int:
    """Samples interleaved round-robin, then one traced run per workload."""
    selected = args.workload or list(workloads.WORKLOADS)
    samples: dict[str, list[RunResult]] = {w: [] for w in selected}
    for index in range(args.samples):
        for workload in selected:
            result = run_once(workload, args.seed + index, args.seconds, False, args.smoke)
            print_result(result, metrics.END_TO_END)
            samples[workload].append(result)
    traced = {w: run_once(w, args.seed, args.seconds, True, args.smoke, Path(args.out))
              for w in selected}

    print("\nend-to-end (tracing off): median over samples [min .. max]")
    summary: dict[str, Any] = {}
    failed = 0
    for workload in selected:
        runs = samples[workload]
        failed += sum(r.failed for r in runs) + traced[workload].failed
        summary[workload] = {"end_to_end": {}, "per_layer": traced[workload].metrics,
                             "problems": [p for r in runs for p in r.problems]}
        print(f"{workload}: {sum(r.attempted for r in runs)} ops, "
              f"{sum(r.failed for r in runs)} failed")
        for name, unit in metrics.END_TO_END:
            values = [r.metrics[name] for r in runs]
            summary[workload]["end_to_end"][name] = values
            print(f"  {name:14s} {statistics.median(values):12.6g} {unit:3s} "
                  f"[{min(values):.6g} .. {max(values):.6g}] n={len(values)}")
    print("\nper layer (one traced run each)")
    for workload in selected:
        print_result(traced[workload], metrics.PER_LAYER)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / "summary.json").write_text(json.dumps(summary, indent=1))
    return 1 if failed else 0


def check_mode(args: argparse.Namespace) -> int:
    """Registry drift (warning), and one traced pass per batch workload:
    every declared layer must fire where it dominates, self time must
    fit in the traced wall, and outputs must match."""
    status = 0
    for line in workloads.registry_drift():
        print(f"warning: pinned workload drifted from the registry: {line}")
    selected = [w for w in (args.workload or workloads.BATCH_WORKLOADS)
                if w in workloads.BATCH_WORKLOADS]
    for workload in selected:
        result = run_once(workload, args.seed, 1, True, args.smoke, Path(args.out))
        missing = sorted(layers.required(workload) - result.fired)
        share = result.metrics["md.forces.self_s"] / result.traced_wall_s
        print(f"[{workload}] traced wall {result.traced_wall_s:.3f} s, "
              f"self time {result.self_sum_s:.3f} s, md.forces share {share:.1%}, "
              f"layers fired: {', '.join(sorted(result.fired))}")
        if missing:
            status = 1
            print(f"  FAIL declared layers never fired: {', '.join(missing)}")
        if result.self_sum_s > result.traced_wall_s * (1 + 1e-9):
            status = 1
            print("  FAIL summed self time exceeds the traced wall")
        if result.failed:
            status = 1
            for problem in result.problems:
                print(f"  FAIL {problem}")
    print("check " + ("failed" if status else "ok"))
    return status


def smoke_mode(args: argparse.Namespace) -> int:
    """Every workload at tiny sizes, both result kinds, checked against
    the names and units in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in args.workload or list(workloads.WORKLOADS):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            names = metrics.PER_LAYER if trace else metrics.END_TO_END
            seconds = 2 if workload == "service-mix" else 1
            result = run_once(workload, args.seed, seconds, trace, True, Path(args.out))
            print_result(result, names)
            line = json.loads(json.dumps(result.line(names)))
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(line)}")
            if got != expected:
                problems.append(f"{workload}: {key} names/units differ from BENCHMARK.json")
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{workload}: outputs do not match the references")
            for name, m in line["metrics"].items():
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{workload}: {name} = {value!r}")
                elif not trace and value <= 0:
                    problems.append(f"{workload}: end-to-end {name} is {value}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def record_mode(args: argparse.Namespace) -> int:
    """Rewrite the reference outputs from the current program."""
    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    for smoke in (False, True):
        for workload in (*workloads.BATCH_WORKLOADS, "service-mix"):
            if smoke and workload == "service-mix":
                continue  # smoke requests are the same quick jobs
            seeds = range(len(workloads.SIM_SEEDS)) if workload == "sim-models" else (0,)
            ops: dict[str, Any] = {}
            for seed in seeds:
                report = spawn_child(workload, seed, hostspeed.HostSpeed(), run_pass=True,
                                     smoke=smoke)
                for op in report["ops"]:
                    ops.setdefault(op["ref"], op["output"])
            path = verify.reference_path(workload, smoke)
            path.write_text(json.dumps({"workload": workload, "smoke": smoke, "ops": ops},
                                       indent=1, sort_keys=True) + "\n")
            print(f"wrote {path.relative_to(ROOT)} ({len(ops)} ops)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run, result as JSON on the last line")
    parser.add_argument("--samples", type=int, default=3)
    parser.add_argument("--out", default=str(OUT_DIR), help="traces and summary")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    preflight()
    # a SIGTERM unwinds through the finally blocks that stop every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.trace is not None:
            return single_run_mode(args)
        if args.record:
            return record_mode(args)
        if args.check:
            return check_mode(args)
        if args.smoke:
            return smoke_mode(args)
        return report_mode(args)
    except RuntimeError as exc:  # BenchError, or a node that would not boot
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
