"""The Cell Broadband Engine model: SPEs, PPE, DMA, mailboxes, kernels."""

from repro.cell.device import CellDevice, PPEOnlyDevice
from repro.cell.dma import MDTrafficPlan, make_dma_engine
from repro.cell.kernels import (
    OPT_LEVELS,
    OptimizationFlags,
    build_spe_kernel,
    kernel_constants,
)
from repro.cell.mailbox import Mailbox
from repro.cell.partition import (
    PartitionTiming,
    RowPartition,
    partition_rows,
    partitioned_kernel_seconds,
)
from repro.cell.ppe import PPE, PPE_COST_TABLE
from repro.cell.scheduler import LaunchStrategy, SpeThreadScheduler
from repro.cell.spe import SPE, SPE_COST_TABLE

__all__ = [
    "CellDevice",
    "LaunchStrategy",
    "MDTrafficPlan",
    "Mailbox",
    "OPT_LEVELS",
    "OptimizationFlags",
    "PPE",
    "PartitionTiming",
    "RowPartition",
    "partition_rows",
    "partitioned_kernel_seconds",
    "PPEOnlyDevice",
    "PPE_COST_TABLE",
    "SPE",
    "SPE_COST_TABLE",
    "SpeThreadScheduler",
    "build_spe_kernel",
    "kernel_constants",
    "make_dma_engine",
]
