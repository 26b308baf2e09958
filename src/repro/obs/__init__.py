"""Simulated-hardware observability: counters and timeline traces.

The paper's whole argument is mechanistic — SPE launch vs. mailbox
overhead (Fig. 6), per-step PCIe readback (Fig. 7), MTA stream
saturation (Fig. 8) — and the device models compute all of those
quantities internally.  This package captures them as first-class
artifacts instead of discarding them:

* :class:`~repro.obs.counters.CounterSet` — typed per-device hardware
  counters (DMA bytes and transactions, mailbox round trips, SPE
  dual-issue and branch statistics, PCIe bytes, shader passes, MTA
  issue slots and full/empty updates, cache hits), charged at the point
  of simulation and subject to conservation invariants.
* :class:`~repro.obs.trace.Tracer` — simulated-time spans on one lane
  per SPE/pipeline/processor, exportable as Chrome trace-event JSON and
  renderable as an ASCII timeline.  Every run has a ``step`` span per
  step; inside it each device model's ``timeline`` declaration lays
  its components end to end: ``thread_launch``, ``dma``, ``spe_exec``,
  ``mailbox_wait``, ``ppe_host`` (Cell), ``ppe_kernel`` (PPE only),
  ``pcie``, ``shader_pass``, ``driver``, ``host`` (GPU), ``kernel``,
  ``reduction`` (next-gen GPU), ``force_loop``, ``pe_reduction``,
  ``integration`` (MTA-2), ``network_wait`` (XMT), ``kernel``,
  ``memory_stall``, ``integration`` (Opteron) and ``fault_recovery``.
* :class:`~repro.obs.observe.Observation` — the ``observe=`` argument
  of :meth:`repro.arch.device.Device.run`; pairs a counter set with a
  tracer and a simulated-time cursor.
* :mod:`~repro.obs.context` — ambient collection across whole
  experiments (the ``--trace``/``--counters`` CLI path): every
  ``Device.run`` inside a ``collect()`` block is observed without any
  experiment code changing.

Observation is strictly read-only with respect to the simulation: the
``observe=None`` path allocates nothing and every timing/physics result
is byte-identical with observation on or off.
"""

from repro.obs.counters import (
    COUNTER_SPECS,
    CounterSet,
    CounterSpec,
    diff_counters,
    spec_for,
)
from repro.obs.observe import Observation
from repro.obs.trace import Span, Tracer, chrome_trace, validate_chrome_trace
from repro.obs.context import ObservationSession, ambient_observation, collect

__all__ = [
    "COUNTER_SPECS",
    "CounterSet",
    "CounterSpec",
    "Observation",
    "ObservationSession",
    "Span",
    "Tracer",
    "ambient_observation",
    "chrome_trace",
    "collect",
    "diff_counters",
    "spec_for",
    "validate_chrome_trace",
]
