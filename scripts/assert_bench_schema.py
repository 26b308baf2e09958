#!/usr/bin/env python
"""Validate the repo's BENCH_*.json perf records structurally.

Usage::

    python scripts/assert_bench_schema.py                 # both defaults
    python scripts/assert_bench_schema.py BENCH_vm.json   # explicit files

Checks each file against its declared schema (``repro.bench_vm/1`` for
per-kernel tables, ``repro.bench_vm2/1`` for ensemble tables,
``repro.bench_tune/1`` for autotuner tables, ``repro.bench_cluster/1``
for simulated-cluster strong-scaling tables): required
top-level keys, per-result row fields and types, and that every
recorded speedup is a positive finite number.  Exits 1 with one line
per violation, so CI catches a hand-edited or truncated table before
``record_bench.py --check`` trusts it as the comparison baseline.

Stdlib only — this must run before any project import could fail.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: schema id -> (speedup field, per-result required {field: type})
SCHEMAS: dict[str, tuple[str, dict[str, type]]] = {
    "repro.bench_vm/1": (
        "speedup_fused_over_interp",
        {
            "kernel": str,
            "backend": str,
            "pairs": int,
            "repeats": int,
            "best_seconds": float,
            "pairs_per_second": float,
        },
    ),
    "repro.bench_vm2/1": (
        "speedup_batched_over_sequential",
        {
            "mode": str,
            "replicas": int,
            "rows_per_replica": int,
            "repeats": int,
            "best_seconds": float,
            "replicas_per_second": float,
        },
    ),
    "repro.bench_cluster/1": (
        "speedup_over_one_node",
        {
            "device": str,
            "nodes": int,
            "topology": str,
            "seconds_per_step": float,
            "speedup_over_one_node": float,
            "exchange_bytes": int,
            "ghost_atoms_per_step": int,
            "hidden_exchange_seconds": float,
            "state_digest": str,
        },
    ),
    "repro.bench_tune/1": (
        "speedup_tuned_over_default",
        {
            "scenario": str,
            "experiment": str,
            "device": str,
            "n": int,
            "metric": str,
            "objective": str,
            "default_per_second": float,
            "tuned_per_second": float,
            "speedup": float,
            "winner": dict,
            "source": str,
            "probes": int,
            "pareto": list,
        },
    ),
}

_REQUIRED_TOP = ("schema", "recorded_unix", "host", "config", "results")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_finite(value: object) -> bool:
    return _is_number(value) and math.isfinite(value) and value > 0.0


def validate_record(record: object) -> list[str]:
    """Structural violations of one decoded BENCH record (empty = ok)."""
    if not isinstance(record, dict):
        return ["top level is not a JSON object"]
    problems: list[str] = []
    schema = record.get("schema")
    if schema not in SCHEMAS:
        return [
            f"unknown schema {schema!r}; expected one of "
            + ", ".join(sorted(SCHEMAS))
        ]
    for key in _REQUIRED_TOP:
        if key not in record:
            problems.append(f"missing top-level key {key!r}")
    speedup_field, row_fields = SCHEMAS[schema]

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
        for field, kind in row_fields.items():
            value = row.get(field)
            if value is None:
                problems.append(f"results[{i}] missing {field!r}")
            elif kind is float and not _is_number(value):
                problems.append(f"results[{i}].{field} is not a number")
            elif kind is int and isinstance(value, bool):
                problems.append(f"results[{i}].{field} is not int")
            elif kind in (int, str, dict, list) and not isinstance(value, kind):
                problems.append(
                    f"results[{i}].{field} is not {kind.__name__}"
                )
        for field in ("best_seconds",):
            if field in row and not _positive_finite(row[field]):
                problems.append(f"results[{i}].{field} must be > 0")

    speedups = record.get(speedup_field)
    if not isinstance(speedups, dict) or not speedups:
        problems.append(f"{speedup_field} is not a non-empty object")
    else:
        for key, value in speedups.items():
            if not _positive_finite(value):
                problems.append(
                    f"{speedup_field}[{key!r}] is not a positive number"
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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        paths = [Path(arg) for arg in argv]
        missing_is_error = True
    else:
        paths = [
            REPO_ROOT / "BENCH_vm.json",
            REPO_ROOT / "BENCH_vm2.json",
            REPO_ROOT / "BENCH_tune.json",
            REPO_ROOT / "BENCH_cluster.json",
        ]
        missing_is_error = False

    failures = 0
    for path in paths:
        if not path.exists():
            if missing_is_error:
                print(f"{path}: missing", file=sys.stderr)
                failures += 1
            else:
                print(f"{path.name}: absent (skipped)")
            continue
        problems = validate_file(path)
        if problems:
            failures += 1
            for problem in problems:
                print(f"{path.name}: {problem}", file=sys.stderr)
        else:
            print(f"{path.name}: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
