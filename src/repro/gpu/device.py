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

from repro.arch import calibration as cal
from repro.arch.device import Device, StepComponent
from repro.arch.interconnect import PCIeBus, TransferModel
from repro.arch.profilecounts import KernelMetrics
from repro.gpu.kernels import build_md_shader, shader_constants
from repro.gpu.pipelines import GPU_ISSUE_SLOTS, PipelineArray
from repro.md.box import PeriodicBox
from repro.md.lj import LennardJones
from repro.obs.observe import Observation
from repro.vm.schedule import count_issues

__all__ = ["GpuDevice", "make_pcie_bus"]


def make_pcie_bus() -> PCIeBus:
    return PCIeBus(
        link=TransferModel(
            latency_s=cal.PCIE_LATENCY_S,
            bandwidth_bytes_per_s=cal.PCIE_BANDWIDTH_BPS,
            name="pcie",
        ),
        readback_sync_s=cal.GPU_READBACK_SYNC_S,
    )


class GpuDevice(Device):
    """GeForce 7900GTX-class streaming GPU + host CPU."""

    precision = "float32"

    def __init__(self, mode: str = "fast") -> None:
        if mode not in ("fast", "vm"):
            raise ValueError(f"mode must be 'fast' or 'vm', got {mode!r}")
        self.mode = mode
        self.name = "gpu-7900gtx"
        self.pipelines = PipelineArray()
        self.pcie = make_pcie_bus()

    def build_program(self, box_length: float):
        return build_md_shader(box_length)

    def vm_force_backend(self, sim_box: PeriodicBox, potential: LennardJones):
        # host-side tally on the functional path, only for bookkeeping:
        # the shader itself is branchless
        tally = self.functional_backend(sim_box, potential)

        def interacting_pairs(positions, machine, before) -> int:
            return tally(positions).interacting_pairs

        return self.vm_backend(
            sim_box,
            self.program(sim_box.length).program,
            shader_constants(potential, sim_box.length),
            interacting_pairs,
        )

    def setup_breakdown(self) -> dict[str, float]:
        """One-time JIT compile + texture/FBO setup (excluded from totals)."""
        return {"jit_setup": cal.GPU_JIT_SETUP_S}

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        shader = self.program()
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
                self.program().program, shader_metrics, issue_slots=GPU_ISSUE_SLOTS
            ),
        })

    def timeline(self, parts):
        # Upload, then all pipelines rasterize concurrently, then
        # readback; driver overhead and host integration close out.
        pipes = tuple(f"pipe{pipe}" for pipe in range(self.pipelines.n_pipelines))
        return (
            StepComponent("pcie_upload", ("pcie",), span="pcie",
                          args={"dir": "upload"}),
            StepComponent("shader", pipes, span="shader_pass"),
            StepComponent("pcie_readback", ("pcie",), span="pcie",
                          args={"dir": "readback"}),
            StepComponent("driver", ("host",)),
            StepComponent("host", ("host",)),
            StepComponent("fault_recovery", ("host",)),
        )

    @staticmethod
    def _host_seconds(n_atoms: int) -> float:
        """Integration + PE summation on the host CPU (linear time,
        "the CPU ... is well suited to this scalar task")."""
        cycles = 60.0 * n_atoms
        return cycles / cal.OPTERON_CLOCK_HZ
