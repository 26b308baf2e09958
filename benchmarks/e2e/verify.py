"""Checking op outputs against the committed references.

An op fails when any of these holds:

* it raised, or its harness status is not ``ok``;
* a shape check that passes in the reference now fails (a check that
  fails in the reference and now passes is not a failure — the quick
  roster's two ``abl-balance`` band misses are part of the reference);
* a numeric value (table cell, check measurement, simulated seconds)
  drifts beyond a relative tolerance of 1e-6, or a digest differs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-6
#: absolute floor for values that are exactly zero in the reference
ATOL = 1e-12


def reference_path(workload: str, smoke: bool = False) -> Path:
    return REFERENCE_DIR / f"{'smoke-' if smoke else ''}{workload}.json"


def load(workload: str, smoke: bool = False) -> dict[str, Any]:
    return json.loads(reference_path(workload, smoke).read_text())


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def compare(output: dict[str, Any], reference: dict[str, Any] | None) -> list[str]:
    """Problems with one op output; empty when it matches."""
    if reference is None:
        return ["no reference recorded for this op"]
    if output.get("status") != "ok":
        return [f"status {output.get('status')}: {output.get('error', '')}".strip()]
    problems = []
    if "sha256" in reference and output.get("sha256") != reference["sha256"]:
        problems.append("final-state sha256 differs")
    for key in ("seconds", "rows"):
        if key in reference and not _same(output.get(key), reference[key]):
            problems.append(f"{key} differ beyond rtol {RTOL:g}")
    checks = output.get("checks", {})
    for key, (measured, passed) in reference.get("checks", {}).items():
        if key not in checks:
            problems.append(f"check {key} missing")
            continue
        now_measured, now_passed = checks[key]
        if passed and not now_passed:
            problems.append(f"check {key} PASS -> FAIL")
        if measured is not None and not _same(now_measured, measured):
            problems.append(f"check {key}: {now_measured!r} vs reference {measured!r}")
    for key in sorted(set(checks) - set(reference.get("checks", {}))):
        problems.append(f"check {key} not in the reference")
    return problems
