"""Figure 9 — runtime growth relative to the 256-atom run, MTA vs Opteron.

"We observe that the runtime on the Opteron processor increases at a
relatively faster rate by increasing the number of atoms ... the effect
of cache misses are shown in the Opteron processor runs as the array
sizes become larger than the cache capacities ...  The increases in the
MTA runtime, on the other hand, are proportional to the increase in the
floating-point computation requirements."

The *excess* columns divide each normalized runtime by the pure-flops
growth of the examined-pair count, so 1.0 means "proportional to the
computation" — the MTA sits there by construction of the architecture,
the Opteron departs once the position array outgrows its L1.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    PAPER_STEPS,
    ExperimentResult,
    ShapeCheck,
    check_band,
    run_device,
)
from repro.experiments.paperdata import PAPER_ATOM_COUNTS
from repro.mta import MTADevice
from repro.opteron import OpteronDevice
from repro.reporting import ascii_plot

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "MTA vs Opteron O(N^2) scaling ratios from a 256-atom base (Fig 9)"

_BASE_ATOMS = 256


def run(
    atom_counts: Sequence[int] = PAPER_ATOM_COUNTS[1:],
    n_steps: int = 2,
    force_path: str = "all-pairs",
) -> ExperimentResult:
    """The fig9 sweep over ``atom_counts``, starting at 256 atoms.

    Every device runs the one functional force path, and the simulated
    MTA/Opteron timings price the paper's O(N^2) kernel from each
    step's interacting pairs.  ``force_path`` accepts only
    ``"all-pairs"`` and raises ``ValueError`` on anything else: pinned
    job lists (the e2e benchmark's quick roster) still pass it, and
    dropping the parameter would turn those calls into ``TypeError``.
    """
    if force_path != "all-pairs":
        raise ValueError(
            f"fig9 runs the all-pairs force path only, got {force_path!r}"
        )
    if atom_counts[0] != _BASE_ATOMS:
        raise ValueError(f"the sweep must start at {_BASE_ATOMS} atoms")
    mta_seconds: list[float] = []
    opt_seconds: list[float] = []
    for n in atom_counts:
        _mres, msec = run_device(
            MTADevice(fully_multithreaded=True),
            n,
            n_steps,
            normalize_steps=PAPER_STEPS,
        )
        _ores, osec = run_device(
            OpteronDevice(), n, n_steps, normalize_steps=PAPER_STEPS
        )
        mta_seconds.append(msec)
        opt_seconds.append(osec)

    def flops_growth(n: int) -> float:
        return (n * (n - 1)) / (_BASE_ATOMS * (_BASE_ATOMS - 1))

    rows = []
    mta_ratio: list[float] = []
    opt_ratio: list[float] = []
    for i, n in enumerate(atom_counts):
        mr = mta_seconds[i] / mta_seconds[0]
        orr = opt_seconds[i] / opt_seconds[0]
        mta_ratio.append(mr)
        opt_ratio.append(orr)
        growth = flops_growth(n)
        rows.append(
            (
                n,
                round(mr, 2),
                round(orr, 2),
                round(growth, 2),
                round(mr / growth, 4),
                round(orr / growth, 4),
            )
        )

    top = len(atom_counts) - 1
    #: The L1 capacity knee: 64 KB / 24 B per atom ~ 2731 atoms.
    knee_atoms = 2731
    checks = [
        check_band(
            "fig9_mta_excess_8192", mta_ratio[top] / flops_growth(atom_counts[top])
        ),
    ]
    if atom_counts[top] >= 4096:
        checks.append(
            check_band("fig9_opteron_vs_mta_8192", opt_ratio[top] / mta_ratio[top])
        )
    # Below the knee the two normalized curves must coincide.
    pre_knee = [
        o / m
        for n, o, m in zip(atom_counts, opt_ratio, mta_ratio)
        if n <= knee_atoms
    ]
    if pre_knee:
        checks.append(check_band("fig9_pre_knee_agreement", max(pre_knee)))
    plot = ascii_plot(
        {
            "MTA": list(zip(atom_counts, mta_ratio)),
            "Opteron": list(zip(atom_counts, opt_ratio)),
        },
        logx=True,
        logy=True,
        title="Figure 9: runtime increase relative to 256 atoms",
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="Increase in runtime with respect to the 256-atom run",
        headers=(
            "atoms",
            "mta_ratio",
            "opteron_ratio",
            "flops_growth",
            "mta_excess",
            "opteron_excess",
        ),
        rows=tuple(rows),
        checks=tuple(checks),
        plot=plot,
        notes=(
            "Opteron excess >1 appears at the L1 capacity knee (~2731 "
            "atoms for a 64 KB L1 and 24-byte positions); the MTA has no "
            "caches to overflow.",
        ),
    )


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
