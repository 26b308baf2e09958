"""Ablations and extensions beyond the paper's reported experiments.

* ``neighborlist`` — the pairlist optimization the paper explicitly
  skipped (section 3.4): how much the Opteron's *functional* kernel
  gains from a pair list, measured by examined-pair counts (the cost
  driver on every device).
* ``gpu_reduction`` — the PE-readback trick vs the multi-pass gather
  reduction the paper rejected, priced on the GPU model.
* ``xmt_projection`` — the paper's future work: the MD kernel on
  XMT-class clocks and processor counts.
* ``xmt_network`` — the locality warning of section 3.3.1: the XMT's
  torus memory network as a roofline against a uniform-memory machine.
* ``cache_patterns`` — section 3.4's motivation measured: sequential vs
  random-gather vs sorted-gather position access through the K8 caches.
* ``nextgen_gpu`` — the unified-shader (G80/CUDA) projection the paper
  anticipates ("that number is growing").
* ``load_balance`` — block vs cyclic SPE row partitioning on an
  inhomogeneous (droplet) system, using measured per-row interacting
  counts.
* ``precision`` — single vs double precision force agreement, the
  paper's "outstanding issue" for Cell/GPU adoption.
"""

from __future__ import annotations

import numpy as np

from repro.arch import calibration as cal
from repro.experiments.common import (
    PAPER_STEPS,
    ExperimentResult,
    ShapeCheck,
    paper_config,
    run_device,
)
from repro.gpu import GpuDevice, build_reduction_shader, reduction_pass_count
from repro.gpu.pipelines import PipelineArray
from repro.md import (
    MDConfig,
    compute_forces,
    cubic_lattice,
)
from repro.mta import MTADevice

__all__ = [
    "DESCRIPTIONS",
    "run_neighborlist",
    "run_gpu_reduction",
    "run_xmt_projection",
    "run_xmt_network",
    "run_cache_patterns",
    "run_nextgen_gpu",
    "run_load_balance",
    "run_precision",
]

#: One-line roster descriptions keyed by experiment id
#: (``--list`` / harness job metadata).
DESCRIPTIONS = {
    "abl-nlist": "Force-path ablation: O(N^2) all-pairs vs the pair list",
    "abl-reduce": "PE-in-w readback vs multi-pass gather reduction on the GPU",
    "abl-xmt": "Projection of the kernel onto XMT-class hardware",
    "abl-xmt-net": "XMT network-locality penalty, quantified (section 3.3.1)",
    "abl-cache": "Cache-friendliness of MD access patterns (section 3.4)",
    "abl-nextgen": "Projection onto the unified-shader GPU generation (G80)",
    "abl-balance": "Static block vs cyclic row partitioning across SPEs",
    "abl-precision": "Single vs double precision energy drift on each device",
}


def _own_check(key: str, measured: float, low: float, high: float, desc: str) -> ShapeCheck:
    return ShapeCheck(
        key=key,
        measured=measured,
        low=low,
        high=high,
        paper_value=(low + high) / 2.0,
        description=desc,
    )


def run_neighborlist(
    n_atoms: int = 1024, n_steps: int = 20, skin: float = 0.3
) -> ExperimentResult:
    """Force-path ablation: O(N^2) all-pairs vs the pair list.

    The all-pairs kernel and both list backend names, ``verlet`` and
    ``cell``, run the same trajectory; both names run the one linked-cell
    list, so their rows agree by construction.  The table compares total
    pair visits, list rebuild/reuse statistics, and the final total
    energy against the all-pairs reference.  A static cross-check
    additionally asserts the linked-cell search finds *exactly* the
    O(N^2) reference scan's pairs for the same ``rcut + skin``.
    """
    config = paper_config(n_atoms)
    box = config.make_box()
    potential = config.make_potential()
    from repro.md import MDSimulation, build_pairs_cells
    from repro.md.neighborlist import build_pairs

    reference = MDSimulation(config)  # the paper's all-pairs path
    reference.run(n_steps)
    reference_energy = reference.records[-1].total_energy
    allpairs_examined = (n_steps + 1) * n_atoms * (n_atoms - 1) // 2

    from repro.md import make_force_backend

    runs: dict[str, dict[str, float | int]] = {}
    for name in ("verlet", "cell"):
        lists = make_force_backend(name, box, potential, skin=skin)
        examined = 0

        def counting(positions: np.ndarray, _inner=lists):
            nonlocal examined
            result = _inner(positions)
            examined += result.pairs_examined
            return result

        sim = MDSimulation(config, force_backend=counting)
        sim.run(n_steps)
        runs[name] = {
            "examined": examined,
            "rebuilds": lists.rebuild_count,
            "reuses": lists.reuse_count,
            "energy_err": abs(sim.records[-1].total_energy - reference_energy)
            / abs(reference_energy),
        }

    # Static exactness cross-check at the same radius, same positions.
    probe = reference.state.positions
    reference_pairs = build_pairs(probe, box, potential.rcut + skin)
    cell_pairs = build_pairs_cells(probe, box, potential.rcut + skin)
    pair_count_gap = abs(reference_pairs.shape[0] - cell_pairs.shape[0])

    rows = [("all-pairs O(N^2)", allpairs_examined, 1.0, "-", "-")]
    for name, label in (("verlet", "verlet list"), ("cell", "cell list")):
        stats = runs[name]
        rows.append(
            (
                label,
                stats["examined"],
                round(allpairs_examined / stats["examined"], 2),
                stats["rebuilds"],
                stats["reuses"],
            )
        )
    reuse_note = ", ".join(
        f"{name}: {runs[name]['rebuilds']} rebuilds / {runs[name]['reuses']} reuses "
        f"({100.0 * runs[name]['reuses'] / max(1, runs[name]['rebuilds'] + runs[name]['reuses']):.0f}% reused)"
        for name in ("verlet", "cell")
    )
    checks = (
        _own_check(
            "abl_nlist_reduction",
            allpairs_examined / runs["verlet"]["examined"],
            3.0,
            200.0,
            "pair-visit reduction from the Verlet list",
        ),
        _own_check(
            "abl_nlist_energy",
            runs["verlet"]["energy_err"],
            0.0,
            1e-8,
            "verlet-list relative total-energy deviation vs all-pairs",
        ),
        _own_check(
            "abl_nlist_cell_energy",
            runs["cell"]["energy_err"],
            0.0,
            1e-8,
            "cell-list relative total-energy deviation vs all-pairs",
        ),
        _own_check(
            "abl_nlist_cell_pairs_exact",
            float(pair_count_gap),
            0.0,
            0.0,
            "cell-list vs verlet-list pair-count gap at the same radius",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-nlist",
        title=f"Pairlist ablation ({n_atoms} atoms, {n_steps} steps, "
        f"skin {skin})",
        headers=("kernel", "pairs_examined", "reduction", "rebuilds", "reuses"),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "The paper deliberately skips this optimization; the ratio "
            "shows what the O(N^2) formulation pays for it.",
            f"list reuse — {reuse_note}",
            "Both list names run one linked-cell list, built in O(N); "
            "the static check compares its pairs with the O(N^2) "
            "reference scan.",
        ),
    )


def run_gpu_reduction(n_atoms: int = 2048) -> ExperimentResult:
    """PE-in-w readback vs multi-pass gather reduction on the GPU."""
    pipelines = PipelineArray()
    fanin = 4
    shader = build_reduction_shader(fanin)
    passes = reduction_pass_count(n_atoms, fanin)
    reduction_seconds = 0.0
    remaining = n_atoms
    per_pass_overhead = cal.GPU_STEP_OVERHEAD_S  # each pass is a full dispatch
    import math

    for _ in range(passes):
        remaining = math.ceil(remaining / fanin)
        metrics = {"elements": float(remaining)}
        reduction_seconds += (
            pipelines.execute_seconds(shader, metrics) + per_pass_overhead
        )
    # The PE-in-w trick: the readback already moves 4-component vectors,
    # so the PE column is free; the host sums it in linear time.
    host_sum_seconds = 10.0 * n_atoms / cal.OPTERON_CLOCK_HZ

    rows = (
        ("PE in 4th component + host sum", 0, round(host_sum_seconds * 1e6, 2)),
        (f"{passes}-pass gather reduction (fanin {fanin})", passes,
         round(reduction_seconds * 1e6, 2)),
    )
    overhead_ratio = reduction_seconds / host_sum_seconds
    checks = (
        _own_check(
            "abl_gpu_reduction_overhead",
            overhead_ratio,
            10.0,
            1e7,
            "multi-pass reduction cost vs free readback (x)",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-reduce",
        title=f"GPU PE accumulation strategies ({n_atoms} atoms, per step)",
        headers=("strategy", "extra_passes", "time_us"),
        rows=rows,
        checks=checks,
        notes=(
            '"this method introduces significant overheads" — quantified.',
        ),
    )


def run_xmt_projection(n_atoms: int = 2048, n_steps: int = 2) -> ExperimentResult:
    """The paper's future work: project the kernel onto XMT-class hardware."""
    rows = []
    seconds: dict[str, float] = {}
    cases = (
        ("MTA-2, 1 processor", 1, cal.MTA_CLOCK_HZ),
        ("XMT, 1 processor", 1, cal.XMT_CLOCK_HZ),
        ("XMT, 8 processors", 8, cal.XMT_CLOCK_HZ),
        ("XMT, 64 processors", 64, cal.XMT_CLOCK_HZ),
    )
    for label, procs, hz in cases:
        device = MTADevice(fully_multithreaded=True, n_processors=procs, clock_hz=hz)
        _res, sec = run_device(device, n_atoms, n_steps, normalize_steps=PAPER_STEPS)
        seconds[label] = sec
        rows.append((label, round(sec, 4)))

    clock_gain = seconds["MTA-2, 1 processor"] / seconds["XMT, 1 processor"]
    # Saturation caps multi-processor scaling: P processors need
    # 128 * P concurrent threads, and the force loop offers N of them.
    measured_scaling = seconds["XMT, 8 processors"] / seconds["XMT, 64 processors"]
    cap8 = min(8.0 * cal.MTA_N_STREAMS, float(n_atoms)) / cal.MTA_N_STREAMS
    cap64 = min(64.0 * cal.MTA_N_STREAMS, float(n_atoms)) / cal.MTA_N_STREAMS
    expected = min(cap64, 64.0) / min(cap8, 8.0)
    checks = (
        _own_check(
            "abl_xmt_clock_gain",
            clock_gain,
            2.2,
            2.8,
            "XMT clock-rate gain over MTA-2 (500 vs 200 MHz)",
        ),
        _own_check(
            "abl_xmt_scaling",
            measured_scaling,
            0.75 * expected,
            1.1 * expected,
            f"8->64 processor force-loop scaling (saturation cap {expected:.2g}x)",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-xmt",
        title=f"XMT projection ({n_atoms} atoms, 10 steps) — "
        '"we anticipate significant performance gains from the upcoming '
        'XMT technology"',
        headers=("system", "runtime_s"),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "Multi-processor scaling assumes the N-thread force loop "
            "keeps all processors saturated (N >= 128 * P).",
        ),
    )


def run_xmt_network(
    n_atoms: int = 262144,
    processors: tuple[int, ...] = (64, 512, 1024, 2048),
) -> ExperimentResult:
    """The locality warning of section 3.3.1, quantified.

    Projects a large bio-molecular workload onto XMT partitions with the
    3D-torus memory network vs a hypothetical uniform-memory machine.
    The interacting fraction is measured at a feasible size (it is
    density-determined, so intensive); the per-pair instruction stream
    is exact.  Beyond the network's bisection crossover the torus
    machine stops scaling — "data placement and access locality will be
    an important consideration when programming these systems".
    """
    from repro.md import compute_forces as _cf
    from repro.mta.xmt import XMTDevice

    probe_config = MDConfig(n_atoms=1024)
    probe_box = probe_config.make_box()
    probe = _cf(
        cubic_lattice(probe_config.n_atoms, probe_box),
        probe_box,
        probe_config.make_potential(),
    )
    fraction = 2.0 * probe.interacting_pairs / (1024 * 1023)
    box_length = MDConfig(n_atoms=n_atoms).make_box().length

    rows = []
    efficiencies = []
    for p in processors:
        torus = XMTDevice(n_processors=p)
        flat = XMTDevice(n_processors=p, uniform_memory=True)
        torus_s = sum(
            torus.projected_step_seconds(n_atoms, fraction, box_length).values()
        )
        flat_s = sum(
            flat.projected_step_seconds(n_atoms, fraction, box_length).values()
        )
        efficiency = flat_s / torus_s
        efficiencies.append(efficiency)
        rows.append(
            (p, round(flat_s, 4), round(torus_s, 4), round(efficiency, 3))
        )

    checks = (
        _own_check(
            "abl_xmt_net_small_p_efficient",
            efficiencies[0],
            0.95,
            1.001,
            f"torus efficiency at P={processors[0]} (below bisection crossover)",
        ),
        _own_check(
            "abl_xmt_net_large_p_bound",
            efficiencies[-1],
            0.0,
            0.8,
            f"torus efficiency at P={processors[-1]} (network-bound; the\n"
            "paper's 8000-processor regime would be thread-limited for this\n"
            "workload before the network even matters)",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-xmt-net",
        title=f"XMT torus-network roofline, projected {n_atoms}-atom workload "
        "(per time step)",
        headers=("processors", "uniform_s", "torus_s", "efficiency"),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "Projection from the exact kernel instruction stream + the "
            "measured interacting fraction; no functional run at this N.",
        ),
    )


def run_nextgen_gpu(
    atom_counts: tuple[int, ...] = (256, 1024, 2048),
    n_steps: int = 2,
) -> ExperimentResult:
    """Projection onto the unified-shader generation (G80/CUDA).

    The paper: "the parallelism is increasing; the next generation from
    NVIDIA contained 24 pipelines, and that number is growing" — and its
    conclusions ask for "a standard programming interface".  This
    ablation runs the same workload on the streaming 7900GTX model and
    the CUDA-class projection (shared-memory tiling, on-chip reduction)
    to quantify what the programming-model change buys.
    """
    from repro.experiments.common import normalized_total
    from repro.gpu.nextgen import NextGenGpuDevice

    rows = []
    gains = []
    for n in atom_counts:
        config = MDConfig(n_atoms=n)
        old = GpuDevice().run(config, n_steps)
        new = NextGenGpuDevice().run(config, n_steps)
        old_s = normalized_total(old, PAPER_STEPS)
        new_s = normalized_total(new, PAPER_STEPS)
        gains.append(old_s / new_s)
        rows.append((n, round(old_s, 4), round(new_s, 4), round(old_s / new_s, 2)))

    checks = (
        _own_check(
            "abl_nextgen_speedup_2048",
            gains[-1],
            3.0,
            12.0,
            f"G80-class gain over the 7900GTX model at {atom_counts[-1]} atoms",
        ),
        _own_check(
            "abl_nextgen_gain_grows",
            1.0 if all(b >= a * 0.95 for a, b in zip(gains, gains[1:])) else 0.0,
            1.0,
            1.0,
            "the unified-shader advantage grows with system size",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-nextgen",
        title="Streaming (7900GTX) vs CUDA-class (G80) GPU projection "
        "(10-step totals)",
        headers=("atoms", "g71_s", "g80_s", "gain"),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "Same arithmetic stream; only the memory/programming model "
            "differs — shared-memory tiling amortizes the per-pair fetch "
            "and scatter enables the on-chip reduction.",
        ),
    )


def run_cache_patterns(n_atoms: int = 8192) -> ExperimentResult:
    """Section 3.4's motivation, measured: "the MD simulations do not
    exhibit a cache friendly memory access pattern ... multiple accesses
    to the position arrays in a random manner is required".

    Three position-array access patterns go through the Opteron's cache
    hierarchy: the paper's all-pairs sequential scan, a neighbor-list
    gather in random order, and the same gather with spatially-sorted
    indices.  Random gather is the pattern real pairlist MD produces —
    and the one the MTA's uniform-latency memory shrugs off.
    """
    from repro.arch import calibration as c
    from repro.md import CellList
    from repro.opteron.costmodel import make_opteron_hierarchy

    config = MDConfig(n_atoms=n_atoms)
    box = config.make_box()
    potential = config.make_potential()
    positions = cubic_lattice(n_atoms, box)
    pair_list = CellList(box, potential, skin=0.3)
    pair_list.update(positions)
    rng = np.random.default_rng(config.seed)

    element = c.VEC3_F64_BYTES

    def atom_addresses(order: np.ndarray) -> np.ndarray:
        return np.asarray(order, dtype=np.int64) * element

    sequential = atom_addresses(np.arange(n_atoms))
    gather_targets = pair_list.pairs[:, 1]
    shuffled_pairs = rng.permutation(len(gather_targets))
    random_gather = atom_addresses(gather_targets[shuffled_pairs])
    sorted_gather = atom_addresses(np.sort(gather_targets))

    rows = []
    miss_rates: dict[str, float] = {}
    stalls: dict[str, float] = {}
    for label, trace in (
        ("sequential all-pairs scan", sequential),
        ("neighbor-list gather, random order", random_gather),
        ("neighbor-list gather, sorted", sorted_gather),
    ):
        hierarchy = make_opteron_hierarchy()
        hierarchy.access(trace)  # warm
        hierarchy.reset_stats()
        stall = hierarchy.access(trace)
        l1 = hierarchy.stats()["L1"]
        miss_rates[label] = l1.miss_rate
        stalls[label] = stall / trace.size
        rows.append(
            (
                label,
                trace.size,
                round(l1.miss_rate, 4),
                round(stall / trace.size, 3),
            )
        )

    checks = (
        _own_check(
            "abl_cache_sorting_helps",
            miss_rates["neighbor-list gather, sorted"]
            / max(1e-12, miss_rates["neighbor-list gather, random order"]),
            0.0,
            0.9,
            "sorted gather misses vs random gather (x)",
        ),
        _own_check(
            "abl_cache_random_stall_dominates",
            stalls["neighbor-list gather, random order"]
            / max(1e-12, stalls["neighbor-list gather, sorted"]),
            5.0,
            1e6,
            "random-gather stall vs locality-sorted gather (x)",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-cache",
        title=f"Position-array access patterns through the K8 caches "
        f"({n_atoms} atoms)",
        headers=("pattern", "accesses", "L1_miss_rate", "stall_cyc_per_access"),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "The MTA-2 model charges none of these stalls — its whole "
            "architectural bet (section 3.3).",
        ),
    )


def run_load_balance(n_atoms: int = 1024, n_spes: int = 8) -> ExperimentResult:
    """Static block vs cyclic row partitioning across SPEs.

    The paper assigns each SPE a contiguous block of rows ("each SPE
    checks approximately one eighth of the total number (N^2) of atom
    pairs") — fine for its homogeneous liquid.  This ablation builds an
    inhomogeneous system (all atoms condensed into one octant of the
    box, a droplet) and measures what the block layout costs when local
    density varies: the step ends when the slowest SPE does.
    """
    from repro.cell.kernels import build_spe_kernel
    from repro.cell.partition import RowPartition, partitioned_kernel_seconds

    config = MDConfig(n_atoms=n_atoms)
    box = config.make_box()
    potential = config.make_potential()

    # droplet: lattice compressed into one octant, rows ordered by
    # position so a block partition concentrates the dense region
    droplet_box_positions = 0.5 * cubic_lattice(n_atoms, box)
    order = np.lexsort(droplet_box_positions.T)
    droplet = droplet_box_positions[order]
    result = compute_forces(droplet, box, potential)
    assert result.row_interacting is not None

    program = build_spe_kernel("simd_acceleration", box.length)
    rows = []
    timings = {}
    for strategy in (RowPartition.BLOCK, RowPartition.CYCLIC):
        timing = partitioned_kernel_seconds(
            program,
            result.row_interacting,
            n_spes=n_spes,
            strategy=strategy,
            clock_hz=cal.SPE_CLOCK_HZ,
        )
        timings[strategy] = timing
        rows.append(
            (
                strategy.value,
                round(timing.step_seconds * 1e3, 3),
                round(timing.mean_seconds * 1e3, 3),
                f"{100 * timing.imbalance:.1f}%",
            )
        )

    block = timings[RowPartition.BLOCK]
    cyclic = timings[RowPartition.CYCLIC]
    checks = (
        _own_check(
            "abl_balance_cyclic_wins",
            block.step_seconds / cyclic.step_seconds,
            1.005,
            2.0,
            "block-partition step time vs cyclic on the droplet (x)",
        ),
        _own_check(
            "abl_balance_cyclic_flat",
            cyclic.imbalance,
            0.0,
            0.02,
            "cyclic partition residual imbalance",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-balance",
        title=f"SPE row-partition load balance on a droplet "
        f"({n_atoms} atoms, {n_spes} SPEs, per force evaluation)",
        headers=("partition", "step_ms (max SPE)", "mean_ms", "imbalance"),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "The effect is small even on a droplet: the all-pairs kernel "
            "spends most of its per-pair cost on the distance check, which "
            "is density-independent — the quantitative reason the paper "
            "could ignore load balance entirely.",
        ),
    )


def run_precision(n_atoms: int = 512) -> ExperimentResult:
    """Single vs double precision force agreement (the 'outstanding issue')."""
    config = MDConfig(n_atoms=n_atoms)
    box = config.make_box()
    potential = config.make_potential()
    # Perturb the lattice: on a perfect lattice every force cancels by
    # symmetry and a relative error metric is meaningless.
    rng = np.random.default_rng(config.seed)
    positions = box.wrap(
        cubic_lattice(n_atoms, box) + rng.normal(0.0, 0.05, size=(n_atoms, 3))
    )
    f32 = compute_forces(positions, box, potential, dtype=np.float32)
    f64 = compute_forces(positions, box, potential, dtype=np.float64)
    scale = float(np.max(np.abs(f64.accelerations))) or 1.0
    max_err = float(np.max(np.abs(f32.accelerations - f64.accelerations))) / scale
    pe_err = abs(f32.potential_energy - f64.potential_energy) / abs(
        f64.potential_energy
    )
    rows = (
        ("max |dF| / max |F|", f"{max_err:.3e}"),
        ("relative |dPE|", f"{pe_err:.3e}"),
        ("float32 PE", f"{f32.potential_energy:.6f}"),
        ("float64 PE", f"{f64.potential_energy:.6f}"),
    )
    checks = (
        _own_check(
            "abl_precision_force",
            max_err,
            0.0,
            1e-4,
            "float32 force error vs float64 (relative)",
        ),
        _own_check(
            "abl_precision_pe",
            pe_err,
            0.0,
            1e-4,
            "float32 PE error vs float64 (relative)",
        ),
    )
    return ExperimentResult(
        experiment_id="abl-precision",
        title=f"Single- vs double-precision force evaluation ({n_atoms} atoms)",
        headers=("quantity", "value"),
        rows=rows,
        checks=checks,
        notes=(
            "Cell/GPU run float32 in the paper; Opteron/MTA run float64 "
            "(section 3.5).  Forces agree to ~1e-6 relative on this "
            "workload — adequate for the paper's 10-step comparisons.",
        ),
    )
