"""The streaming-GPU device model (paper section 5.2).

Per time step, the host uploads the position texture over PCIe, the
pipeline array executes the MD shader once per output atom (each
invocation scanning all N positions), and the host reads back the
acceleration+PE array — "these costs are included", while the one-time
JIT/setup cost "occurs only once ... so it is not included", matching
the Figure-7 accounting exactly (setup is reported separately by
:class:`repro.arch.device.DeviceRunResult`).
"""

from __future__ import annotations

import numpy as np

from repro.arch import calibration as cal
from repro.arch.device import Device
from repro.arch.interconnect import PCIeBus, TransferModel
from repro.arch.profilecounts import KernelMetrics
from repro.gpu.kernels import build_md_shader, shader_constants
from repro.gpu.pipelines import GPU_ISSUE_SLOTS, PipelineArray
from repro.md.box import PeriodicBox
from repro.md.forces import ForceResult, compute_forces
from repro.md.lj import LennardJones
from repro.md.simulation import MDConfig
from repro.obs.observe import Observation
from repro.tune.context import tuned_value
from repro.tune.spec import TunableSpec, register_tunable
from repro.vm.schedule import count_issues
from repro.vm.sweep import PairSweep

__all__ = ["GpuDevice", "gpu_row_block", "make_pcie_bus"]

# The pair-batch width of the functional rasterization: how many output
# rows each driver dispatch materializes as an (rows x N) pair batch.
# Purely a batching choice — every (i, j) pair still contributes exactly
# once, so results are bit-identical across widths.
register_tunable(TunableSpec(
    name="gpu.row_block",
    backend="gpu",
    kind="int",
    default=128,
    candidates=(32, 64, 128, 256, 512),
    low=1,
    high=4096,
    description="output rows per GPU pair-batch dispatch",
    effect="wider batches cut dispatch overhead until the pair batch "
           "overflows cache; narrow batches waste closure setup",
))


def make_pcie_bus() -> PCIeBus:
    return PCIeBus(
        link=TransferModel(
            latency_s=cal.PCIE_LATENCY_S,
            bandwidth_bytes_per_s=cal.PCIE_BANDWIDTH_BPS,
            name="pcie",
        ),
        readback_sync_s=cal.GPU_READBACK_SYNC_S,
    )


def gpu_row_block() -> int:
    """Output rows per GPU pair-batch dispatch: tuned ``gpu.row_block`` > 128."""
    tuned = tuned_value("gpu.row_block", "gpu")
    return int(tuned) if tuned is not None else 128


class GpuDevice(Device):
    """GeForce 7900GTX-class streaming GPU + host CPU."""

    precision = "float32"
    tune_family = "gpu"

    def __init__(self, mode: str = "fast", force_path: str = "all-pairs") -> None:
        if mode not in ("fast", "vm"):
            raise ValueError(f"mode must be 'fast' or 'vm', got {mode!r}")
        self.mode = mode
        self.force_path = force_path
        self.name = "gpu-7900gtx"
        self.pipelines = PipelineArray()
        self.pcie = make_pcie_bus()
        self._shader_cache: dict[float, object] = {}
        self._sweep_cache: dict[float, PairSweep] = {}

    def prepare(self, config: MDConfig) -> None:
        self._box_length = config.make_box().length
        self._potential = config.make_potential()

    def _shader(self, box_length: float):
        key = round(box_length, 12)
        if key not in self._shader_cache:
            self._shader_cache[key] = build_md_shader(box_length)
        return self._shader_cache[key]

    def force_backend(self, sim_box: PeriodicBox, potential: LennardJones):
        if self.mode == "fast":
            return self.functional_backend(sim_box, potential)

        key = round(sim_box.length, 12)
        sweep = self._sweep_cache.get(key)
        if sweep is None:
            if len(self._sweep_cache) > 4:
                self._sweep_cache.clear()
            sweep = PairSweep(self._shader(sim_box.length).program)
            self._sweep_cache[key] = sweep
        constants = shader_constants(potential, sim_box.length)
        row_block = gpu_row_block()
        # Cached machines carry state across runs: disarm any stale
        # fault session before optionally arming this run's.
        sweep.machine.install_fault_session(None)
        if self.fault_session is not None:
            # vm mode flips bits in the real render-target registers.
            self.fault_session.adopt_machine(sweep.machine)

        def vm_backend(positions: np.ndarray) -> ForceResult:
            n = positions.shape[0]
            acc, pe_rows = sweep.run(positions, constants, row_block=row_block)
            # interacting count from the pair distances (host-side tally,
            # only for bookkeeping — the shader itself is branchless)
            reference = compute_forces(positions, sim_box, potential, dtype=np.float32)
            return ForceResult(
                accelerations=acc.astype(np.float64),
                potential_energy=0.5 * float(pe_rows.sum(dtype=np.float64)),
                interacting_pairs=reference.interacting_pairs,
                pairs_examined=n * (n - 1) // 2,
            )

        return vm_backend

    def setup_breakdown(self) -> dict[str, float]:
        """One-time JIT compile + texture/FBO setup (excluded from totals)."""
        return {"jit_setup": cal.GPU_JIT_SETUP_S}

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        shader = self._shader(self._box_length)
        # The shader runs once per output atom over all N inputs:
        # ordered-pair trips = N * N (the scan includes the masked
        # self-pair, unlike the host kernels' N * (N - 1)).
        shader_metrics = dict(metrics.as_dict())
        shader_metrics["pairs"] = float(metrics.n_atoms) ** 2
        array_bytes = metrics.n_atoms * cal.VEC4_F32_BYTES
        shader_seconds = self.pipelines.execute_seconds(shader, shader_metrics)
        session = self.fault_session
        if session is not None:
            # Readback corruption: the host checksums the acceleration
            # texture and re-reads it over PCIe until clean.
            session.charge(session.faulty_transfer(
                "gpu.pcie.corrupt",
                self.pcie.readback_time(array_bytes),
                detection="payload-checksum",
            ))
            # A failed pass is reported by the driver; the whole
            # rasterization re-executes (plus one driver round trip).
            session.charge(session.transient(
                "gpu.shader.fail",
                lambda decision: self.pipelines.repass_seconds(
                    shader, shader_metrics
                ) + cal.GPU_STEP_OVERHEAD_S,
                detection="driver-status",
                action="shader pass re-executed",
            ))
        return {
            "shader": shader_seconds,
            "pcie_upload": self.pcie.upload_time(array_bytes),
            "pcie_readback": self.pcie.readback_time(array_bytes),
            "driver": cal.GPU_STEP_OVERHEAD_S,
            "host": self._host_seconds(metrics.n_atoms),
        }

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        n = metrics.n_atoms
        array_bytes = n * cal.VEC4_F32_BYTES
        shader = self._shader(self._box_length)
        shader_metrics = dict(metrics.as_dict())
        shader_metrics["pairs"] = float(n) ** 2
        obs.charge_many({
            "gpu.pcie.bytes_up": array_bytes,
            "gpu.pcie.bytes_down": array_bytes,
            "gpu.pcie.bytes": 2 * array_bytes,
            "gpu.pcie.transfers": 2,
            "gpu.shader.passes": 1,
            "gpu.shader.invocations": n,
            "gpu.shader.pair_trips": n * n,
            "gpu.shader.issues": count_issues(
                shader.program, shader_metrics, issue_slots=GPU_ISSUE_SLOTS
            ),
        })
        # Timeline: upload, then all pipelines rasterize concurrently,
        # then readback; driver overhead and host integration close out.
        upload = parts.get("pcie_upload", 0.0)
        shade = parts.get("shader", 0.0)
        readback = parts.get("pcie_readback", 0.0)
        driver = parts.get("driver", 0.0)
        host = parts.get("host", 0.0)
        recovery = parts.get("fault_recovery", 0.0)
        if upload > 0.0:
            obs.span_at("pcie", "pcie", 0.0, upload,
                        args={"step": step_index, "dir": "upload"})
        if shade > 0.0:
            for pipe in range(self.pipelines.n_pipelines):
                obs.span_at("shader_pass", f"pipe{pipe}", upload, shade,
                            args={"step": step_index})
        if readback > 0.0:
            obs.span_at("pcie", "pcie", upload + shade, readback,
                        args={"step": step_index, "dir": "readback"})
        after = upload + shade + readback
        if driver > 0.0:
            obs.span_at("driver", "host", after, driver,
                        args={"step": step_index})
        if host > 0.0:
            obs.span_at("host", "host", after + driver, host,
                        args={"step": step_index})
        if recovery > 0.0:
            obs.span_at("fault_recovery", "host", after + driver + host,
                        recovery, args={"step": step_index})

    @staticmethod
    def _host_seconds(n_atoms: int) -> float:
        """Integration + PE summation on the host CPU (linear time,
        "the CPU ... is well suited to this scalar task")."""
        cycles = 60.0 * n_atoms
        return cycles / cal.OPTERON_CLOCK_HZ
