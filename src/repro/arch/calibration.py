"""Every calibration constant of the performance models, in one place.

Each value is either taken directly from the paper, from period
datasheets for the named parts, or is a tuning constant whose role and
justification is stated.  The benchmark suite asserts *shape* targets
(orderings, ratios, crossovers) from the paper's prose, so these numbers
are load-bearing and must not be scattered through the code.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Clocks
# --------------------------------------------------------------------------

#: Baseline processor: "a 2.2 GHz Opteron system" (abstract, section 5).
OPTERON_CLOCK_HZ = 2.2e9

#: Cell BE SPE clock (3.2 GHz in the QS20-era blades the paper used).
SPE_CLOCK_HZ = 3.2e9

#: PPE clock — same 3.2 GHz physical clock as the SPEs.
PPE_CLOCK_HZ = 3.2e9

#: NVIDIA GeForce 7900GTX core clock (650 MHz, G71 datasheet).
GPU_CLOCK_HZ = 650.0e6

#: MTA-2 processor clock: the paper says the MTA-2 clock is "about 11x
#: slower than the 2.2 GHz Opteron" (section 5.3) => 200 MHz ("200 GHz"
#: in the text is a typo for 200 MHz).
MTA_CLOCK_HZ = 200.0e6

# --------------------------------------------------------------------------
# Parallel widths
# --------------------------------------------------------------------------

#: "one 64-bit Power Processing Element (PPE) and eight Synergistic
#: Processing Elements (SPEs)" (section 3.1).
CELL_N_SPES = 8

#: GeForce 7900GTX fragment pipelines ("the next generation from NVIDIA
#: contained 24 pipelines", section 3.2 — the 7900GTX is that part).
GPU_N_PIPELINES = 24

#: "128 in the MTA-2 system processors" hardware streams (section 3.3).
MTA_N_STREAMS = 128

#: Largest possible MTA-2 system (section 3.3.1) — used by the XMT
#: projection ablation, not the single-processor experiments.
MTA_MAX_PROCESSORS = 256

# --------------------------------------------------------------------------
# Cell: threads, DMA, mailboxes, local store
# --------------------------------------------------------------------------

#: Seconds to create one SPE thread (spe_create_thread + context load on
#: the paper's 2.6-series kernel).  Tuning constant: chosen so that with
#: respawn-per-step the 8-SPE version is only ~1.5x faster than 1 SPE
#: while launch-once restores ~4.5x (Figure 6's story).
SPE_THREAD_LAUNCH_S = 14.0e-3

#: Mailbox send/receive cost, seconds.  "channels ('mailboxes') ... for
#: blocking sends or receives of information on the order of bytes"
#: (section 5.1): microseconds, i.e. negligible next to thread launch.
SPE_MAILBOX_S = 2.0e-6

#: EIB DMA: ~25.6 GB/s per SPE peak to main memory, a few microseconds
#: of command setup.
EIB_DMA_LATENCY_S = 1.0e-6
EIB_DMA_BANDWIDTH_BPS = 25.6e9
EIB_DMA_MAX_TRANSFER_BYTES = 16 * 1024

#: SPE local store (section 3.1: "a small (256KB) fixed-latency local
#: store"); reserve covers kernel text + stack + runtime.
SPE_LOCAL_STORE_BYTES = 256 * 1024
SPE_LOCAL_STORE_RESERVED_BYTES = 48 * 1024

#: SPE taken-branch penalty, cycles: "no branch prediction" (section
#: 3.1); the SPU pipeline flush is ~18 cycles.
SPE_BRANCH_PENALTY_CYCLES = 18

#: PPE scalar slowdown vs. the optimized SPE kernel.  The PPE runs the
#: *original* scalar kernel (no SIMDization) and is an in-order core with
#: a long pipeline; Table 1 reports 8 SPEs = 26x PPE-only.  Tuning
#: constant applied as a CPI multiplier on the PPE cost table.
PPE_CPI_FACTOR = 1.4

# --------------------------------------------------------------------------
# GPU: PCIe, driver, JIT
# --------------------------------------------------------------------------

#: PCIe x16 gen-1 effective host<->GPU bandwidth (~1.4 GB/s measured on
#: period hardware, 4 GB/s theoretical) and per-transaction latency.
PCIE_BANDWIDTH_BPS = 1.4e9
PCIE_LATENCY_S = 15.0e-6

#: Readback synchronization: the GPU pipeline must drain before glReadPixels
#: returns; milliseconds on 2006 drivers.  Tuning constant: sets the
#: small-N side of Figure 7's crossover together with the per-step
#: driver overhead below.
GPU_READBACK_SYNC_S = 1.2e-3

#: Per-time-step driver/API overhead (texture binds, FBO setup, shader
#: dispatch): a few ms on 2006-era OpenGL stacks.
GPU_STEP_OVERHEAD_S = 2.0e-3

#: One-time setup: "There is a startup cost associated with the GPU
#: implementation; however, it is a fraction of a second" (section 5.2).
GPU_JIT_SETUP_S = 0.35

#: Texture-fetch issue cost per fetch, shader cycles.  G71 fragment
#: units co-issue math with texture fetches imperfectly; fetching a
#: non-cached texel costs several cycles of the pipeline.
GPU_TEXFETCH_CYCLES = 4

#: Fraction of peak pipeline issue actually achieved by the shader.
#: The MD inner loop issues one dependent texture fetch per partner
#: position, which throttles the math pipes; measured arithmetic
#: efficiencies of G71-era GPGPU kernels were 10-20% of peak.  Tuning
#: constant: lands the 2048-atom GPU time ~6x below the Opteron.
GPU_PIPELINE_EFFICIENCY = 0.205

# --------------------------------------------------------------------------
# MTA-2
# --------------------------------------------------------------------------

#: Saturated MTA-2 processor: one instruction per cycle (section 3.3).
MTA_ISSUE_PER_CYCLE = 1.0

#: A single stream can issue a new instruction at most once every ~21
#: cycles (the MTA pipeline depth): this is the serial-code slowdown that
#: punishes the partially-multithreaded version in Figure 8.
MTA_SERIAL_ISSUE_GAP_CYCLES = 21

#: Threads the compiler materializes per parallel loop; saturation needs
#: >= MTA_N_STREAMS ready streams.
MTA_THREADS_PER_LOOP = 128

# --------------------------------------------------------------------------
# Opteron memory hierarchy (AMD K8, 2.2 GHz, 2006)
# --------------------------------------------------------------------------

OPTERON_L1_BYTES = 64 * 1024
OPTERON_L1_WAYS = 2
OPTERON_L1_LINE_BYTES = 64
#: L2 load-to-use penalty beyond L1.  The raw K8 figure is ~12 cycles;
#: the paper-era kernel issues dependent loads with no software
#: prefetch, so queuing, DTLB walks and bank conflicts push the
#: effective per-miss cost to ~24.  Tuning constant: sets the size of
#: Figure 9's post-knee divergence.
OPTERON_L2_PENALTY_CYCLES = 24.0

OPTERON_L2_BYTES = 1024 * 1024
OPTERON_L2_WAYS = 16
OPTERON_L2_LINE_BYTES = 64
#: Main-memory penalty beyond L2 (K8 + DDR: ~180 cycles at 2.2 GHz).
OPTERON_MEMORY_PENALTY_CYCLES = 180.0

# --------------------------------------------------------------------------
# XMT projection (the paper's "future plans" — ablation abl-xmt)
# --------------------------------------------------------------------------

#: "The XMT multithreaded processors will operate at a higher clock rate"
#: (section 3.3.1): 500 MHz per the Cray XMT announcement.
XMT_CLOCK_HZ = 500.0e6

#: "the XMT design allows systems with up to 8000 processors".
XMT_MAX_PROCESSORS = 8192

# --------------------------------------------------------------------------
# Workload element sizes
# --------------------------------------------------------------------------

#: Positions/accelerations on Cell and GPU travel as 4-component
#: single-precision vectors ("on a GPU we must use 4-component arrays",
#: section 5.2; SPE registers are 128-bit).
VEC4_F32_BYTES = 16

#: Double-precision 3-vectors on the Opteron/MTA side.
VEC3_F64_BYTES = 24

# --------------------------------------------------------------------------
# Kernel branch behaviour
# --------------------------------------------------------------------------

#: P(taken) of the per-axis reflection search's if on a uniform liquid.
#: Geometry-determined (the Cell path measures it on the VM per run);
#: the models that do not measure it price their kernels with this.
REFLECT_TAKE = 0.04

# --------------------------------------------------------------------------
# Cluster interconnect (node-to-node, 2006-era fabric)
# --------------------------------------------------------------------------

#: Node-to-node message latency.  InfiniBand 4x SDR blades of the
#: period reached ~4 us MPI half-round-trip; the Cell blades the paper
#: anticipates ("future work ... multiple Cell processors") shipped
#: with exactly this class of fabric.
CLUSTER_LINK_LATENCY_S = 4.0e-6

#: Effective per-port node-to-node bandwidth.  IB 4x SDR moves 8 Gb/s
#: on the wire; protocol + PCI-X host adapters of 2006 landed ~0.9 GB/s
#: of payload.
CLUSTER_LINK_BANDWIDTH_BPS = 0.9e9

#: Per-message host-side pack/unpack cost (gathering boundary atom rows
#: into a send buffer and scattering received ghosts).  Charged once
#: per message on top of the wire time.
CLUSTER_PACK_S_PER_MESSAGE = 1.5e-6
