"""A next-generation (G80/CUDA-class) GPU projection.

The paper closes on exactly this: "the parallelism is increasing; the
next generation from NVIDIA contained 24 pipelines, and that number is
growing", and its outstanding issues include "a standard programming
interface to these diverse set of high-performance computing
platforms".  The G80, released weeks before the paper appeared,
answered both — unified scalar processors and CUDA.

This model projects the MD kernel onto that architecture to quantify
what the programming-model change buys:

* **unified scalar SPs** — 128 stream processors at a hot shader clock;
* **shared-memory tiling** — a thread block stages a tile of positions
  once and every thread reuses it, so the per-pair *texture fetch* cost
  of the streaming model collapses to an amortized shared-memory load;
* **on-chip reduction** — scatter/shared memory make the PE sum a
  log-depth block reduction instead of a readback trick or multi-pass
  gather.

The same VM shader program supplies the arithmetic stream; only the
cost table and the fetch amortization differ — which is the honest
claim: CUDA changed the memory model, not the flops.
"""

from __future__ import annotations

import dataclasses
import math

from repro.arch import calibration as cal
from repro.arch.clock import Clock
from repro.arch.device import Device, StepComponent
from repro.arch.profilecounts import KernelMetrics
from repro.gpu.device import make_pcie_bus
from repro.gpu.kernels import build_md_shader
from repro.obs.observe import Observation
from repro.vm.schedule import count_issues

__all__ = ["NextGenGpuSpec", "NextGenGpuDevice"]

#: G80 (GeForce 8800 GTX) launch specs.
G80_SHADER_CLOCK_HZ = 1.35e9
G80_N_SPS = 128
#: Threads per block staging one shared-memory tile of positions.
G80_TILE_ATOMS = 128


@dataclasses.dataclass(frozen=True)
class NextGenGpuSpec:
    """Architectural parameters of the projected part."""

    n_processors: int = G80_N_SPS
    shader_clock_hz: float = G80_SHADER_CLOCK_HZ
    tile_atoms: int = G80_TILE_ATOMS
    #: sustained fraction of peak scalar issue (CUDA MD kernels of the
    #: era reached 30-50% of peak on this pattern)
    efficiency: float = 0.4
    #: shared-memory load cost per pair, cycles (the staging fetch is
    #: amortized over tile_atoms reuses)
    shared_load_cycles: float = 1.0

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError("n_processors must be >= 1")
        if self.shader_clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.tile_atoms < 1:
            raise ValueError("tile_atoms must be >= 1")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")


#: Per-opcode issue slots on a scalar SP: 4-wide vector ops decompose
#: into 4 scalar issues; swizzles are register moves (free); the
#: texture fetch becomes an amortized shared-memory access.
_SCALAR_SLOTS: dict[str, float] = {
    "fa": 4.0,
    "fs": 4.0,
    "fm": 4.0,
    "fma": 4.0,
    "fms": 4.0,
    "fnms": 4.0,
    "fdiv": 16.0,
    "fsqrt": 16.0,
    "frest": 4.0,
    "frsqest": 4.0,
    "fround": 4.0,
    "fabs": 4.0,
    "fmin": 4.0,
    "fmax": 4.0,
    "fclt": 4.0,
    "fcgt": 4.0,
    "fceq": 4.0,
    "and_": 4.0,
    "or_": 4.0,
    "selb": 4.0,
    "il": 1.0,
    "ilv": 1.0,
    "mov": 0.0,
    "splat": 0.0,
    "shufb": 0.0,
    "rotqbyi": 0.0,
    "lqd": 4.0,
    "stqd": 4.0,
    "texfetch": 0.0,  # replaced by the amortized shared load below
}


class NextGenGpuDevice(Device):
    """CUDA-class projection of the MD kernel."""

    precision = "float32"

    def __init__(self, spec: NextGenGpuSpec | None = None) -> None:
        self.spec = spec or NextGenGpuSpec()
        self.name = f"gpu-nextgen-{self.spec.n_processors}sp"
        self.clock = Clock(self.spec.shader_clock_hz, "g80")
        self.pcie = make_pcie_bus()

    def build_program(self, box_length: float):
        return build_md_shader(box_length)

    @property
    def issue_rate(self) -> float:
        return self.spec.n_processors * self.clock.hz * self.spec.efficiency

    def kernel_seconds(self, metrics: KernelMetrics) -> float:
        """Compute time for one force evaluation."""
        shader = self.program()
        metric_map = dict(metrics.as_dict())
        pairs = float(metrics.n_atoms) ** 2
        metric_map["pairs"] = pairs
        issues = count_issues(
            shader.program, metric_map, issue_slots=_SCALAR_SLOTS
        )
        # staging: each tile is loaded once per block and reused;
        # amortized per-pair shared-memory access replaces the texfetch
        issues += pairs * self.spec.shared_load_cycles
        staging = (
            pairs / self.spec.tile_atoms
        ) * 4.0  # one vec4 global load per tile row per block
        issues += staging
        return issues / self.issue_rate

    def reduction_seconds(self, n_atoms: int) -> float:
        """On-chip log-depth PE reduction (scatter + shared memory)."""
        if n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        depth = math.ceil(math.log2(max(2, n_atoms)))
        return self.clock.seconds(depth * 32.0)

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        array_bytes = metrics.n_atoms * cal.VEC4_F32_BYTES
        return {
            "kernel": self.kernel_seconds(metrics),
            "reduction": self.reduction_seconds(metrics.n_atoms),
            "pcie_upload": self.pcie.upload_time(array_bytes),
            "pcie_readback": self.pcie.readback_time(array_bytes),
            "driver": cal.GPU_STEP_OVERHEAD_S / 4.0,  # leaner CUDA dispatch
            "host": 60.0 * metrics.n_atoms / cal.OPTERON_CLOCK_HZ,
        }

    def setup_breakdown(self) -> dict[str, float]:
        return {"jit_setup": cal.GPU_JIT_SETUP_S / 2.0}

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        n = metrics.n_atoms
        array_bytes = n * cal.VEC4_F32_BYTES
        obs.charge_many({
            "gpu.pcie.bytes_up": array_bytes,
            "gpu.pcie.bytes_down": array_bytes,
            "gpu.pcie.bytes": 2 * array_bytes,
            "gpu.pcie.transfers": 2,
            "gpu.shader.passes": 1,
            "gpu.shader.invocations": n,
            "gpu.shader.pair_trips": n * n,
            # invert kernel_seconds back to scalar issue slots (the
            # staging and shared-load surcharges included)
            "gpu.shader.issues": self.kernel_seconds(metrics) * self.issue_rate,
        })

    def timeline(self, parts):
        # One "gpu" lane: the SP array is a single dispatch domain here
        # (per-SM lanes would imply a block schedule this model doesn't
        # simulate).
        return (
            StepComponent("pcie_upload", ("pcie",), span="pcie",
                          args={"dir": "upload"}),
            StepComponent("kernel", ("gpu",)),
            StepComponent("reduction", ("gpu",)),
            StepComponent("pcie_readback", ("pcie",), span="pcie",
                          args={"dir": "readback"}),
            StepComponent("driver", ("host",)),
            StepComponent("host", ("host",)),
        )
