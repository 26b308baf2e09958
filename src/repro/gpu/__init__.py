"""The streaming GPU model: shader contract, pipelines, PCIe, device."""

from repro.gpu.device import GpuDevice, make_pcie_bus
from repro.gpu.kernels import (
    build_md_shader,
    build_reduction_shader,
    gpu_reduce,
    reduction_pass_count,
    shader_constants,
)
from repro.gpu.pipelines import GPU_ISSUE_SLOTS, PipelineArray
from repro.gpu.shader import MAX_INPUT_ARRAYS, ShaderContractError, ShaderProgram

__all__ = [
    "GPU_ISSUE_SLOTS",
    "GpuDevice",
    "MAX_INPUT_ARRAYS",
    "PipelineArray",
    "ShaderContractError",
    "ShaderProgram",
    "build_md_shader",
    "build_reduction_shader",
    "gpu_reduce",
    "make_pcie_bus",
    "reduction_pass_count",
    "shader_constants",
]
