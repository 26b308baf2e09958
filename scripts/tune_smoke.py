#!/usr/bin/env python
"""CI smoke for the closed-loop autotuner.

Exercises the full tune → persist → auto-load loop through the real
CLI in an isolated runs directory:

1. ``harness tune --quick --only tunesweep-mta`` must produce a tuned
   artifact under ``<runs>/tuned/`` whose winner beats the defaults
   (fewer MTA streams on a small system — a simulated-time objective,
   so the margin is deterministic),
2. ``harness run --quick --only tunesweep`` must auto-load that config:
   the stored run record carries the tuned-config fingerprint,
3. a second ``harness tune`` of the same scenario must short-circuit on
   the persisted artifact — zero probes re-executed.

Exits nonzero with a one-line diagnosis on the first violated step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _harness(runs_dir: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.harness", *args, "--runs-dir", str(runs_dir)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"FAIL: harness {' '.join(args)} exited {proc.returncode}"
        )
    return proc


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="tune-smoke-") as tmp:
        runs_dir = Path(tmp) / "runs"

        # 1. tune: must persist an artifact with a non-default winner
        _harness(runs_dir, "tune", "--quick", "--only", "tunesweep-mta")
        tuned_dir = runs_dir / "tuned"
        artifacts = sorted(tuned_dir.glob("*.json"))
        if not artifacts:
            raise SystemExit(f"FAIL: no tuned artifact under {tuned_dir}")
        artifact = json.loads(artifacts[0].read_text())
        if artifact.get("source") != "search":
            raise SystemExit(
                f"FAIL: artifact source is {artifact.get('source')!r}, "
                "expected 'search'"
            )
        if not artifact.get("values"):
            raise SystemExit(
                "FAIL: tuner adopted no values (expected a smaller MTA "
                "stream request to beat the default)"
            )
        print(
            f"ok: tuned artifact {artifact['key'][:16]}… "
            f"winner={artifact['values']} ({artifact['speedup']:.2f}x)"
        )

        # 2. run: the tuned config must auto-load into the run record
        _harness(runs_dir, "run", "--quick", "--only", "tunesweep")
        run_dirs = [
            p for p in runs_dir.iterdir()
            if p.is_dir() and (p / "manifest.json").exists()
        ]
        if len(run_dirs) != 1:
            raise SystemExit(f"FAIL: expected 1 stored run, found {len(run_dirs)}")
        record = json.loads((run_dirs[0] / "jobs" / "tunesweep.json").read_text())
        tuned = record.get("tuned") or {}
        if tuned.get("fingerprint") != artifact["fingerprint"]:
            raise SystemExit(
                f"FAIL: run record tuned fingerprint {tuned.get('fingerprint')!r} "
                f"!= artifact fingerprint {artifact['fingerprint']!r}"
            )
        if artifact["key"] not in (tuned.get("keys") or []):
            raise SystemExit(
                "FAIL: run record does not reference the tuned artifact key"
            )
        print(f"ok: run auto-loaded tuned config {tuned['fingerprint'][:16]}…")

        # 3. re-tune: the persisted artifact must satisfy the key, 0 probes
        proc = _harness(runs_dir, "tune", "--quick", "--only", "tunesweep-mta")
        if "cached artifact, 0 probes" not in proc.stdout:
            sys.stderr.write(proc.stdout)
            raise SystemExit("FAIL: second tune re-ran probes instead of "
                             "short-circuiting on the persisted artifact")
        print("ok: second tune short-circuited with 0 probes")
    print("tune smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
