"""Declarative experiment roster: id → (callable, serializable config).

Every artifact of the paper (Table 1, Figs 5–9) and every ablation is
described here as an :class:`ExperimentSpec` — a *data* record naming
the module/function to run plus JSON-serializable parameter dicts for
the full-scale and ``--quick`` variants.  The harness derives cache
keys and cross-process job payloads from these specs; the legacy runner
derives its ``(id, factory)`` roster from them.  Adding an experiment
means adding one entry to :data:`EXPERIMENTS` (and a ``DESCRIPTION`` in
the module); every front-end picks it up.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Callable, Mapping

from repro.experiments import (
    ablations,
    cluster_scaling,
    ensemble,
    faultstorm,
    fig5_simd,
    fig6_launch,
    fig7_gpu,
    fig8_mta,
    fig9_scaling,
    longrun,
    table1_perf,
    tunesweep,
)

__all__ = ["ExperimentSpec", "EXPERIMENTS", "spec_for", "experiment_ids"]

#: The reduced sweep shared by the quick fig7/fig8/fig9 variants.
_QUICK_SWEEP = (256, 512, 1024)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One schedulable experiment: identity, entry point, parameters.

    ``full_params``/``quick_params`` must stay JSON-serializable — they
    are hashed into the job's cache key and shipped to worker processes
    verbatim.
    """

    experiment_id: str
    module: str
    func: str
    description: str
    full_params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    quick_params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: the chaos experiment threads a serialized FaultPlan through.
    accepts_fault_plan: bool = False
    #: the ensemble experiment threads a replica count through.
    accepts_replicas: bool = False
    #: longrun persists/resumes a checkpoint file.  The path is *not*
    #: part of :meth:`params` — it must never land in the cache key, so
    #: the service injects it into the job payload after the key is
    #: computed (derived from that key, in fact).
    accepts_checkpoint: bool = False

    def params(
        self,
        *,
        quick: bool = False,
        fault_plan: Mapping[str, Any] | None = None,
        replicas: int | None = None,
    ) -> dict[str, Any]:
        """The resolved keyword arguments for one invocation.

        ``fault_plan`` is the JSON-native ``FaultPlan.to_dict()`` form —
        it must stay serializable because it lands in the job params and
        therefore in the cache key (a run under a different plan is a
        different experiment).  ``replicas`` likewise lands in the job
        params of the specs that accept it — an R-replica run and an
        R'-replica run never share a cache entry.
        """
        resolved = dict(self.quick_params if quick else self.full_params)
        if self.accepts_fault_plan and fault_plan is not None:
            resolved["fault_plan"] = dict(fault_plan)
        if self.accepts_replicas and replicas is not None:
            resolved["replicas"] = int(replicas)
        return resolved

    def resolve(self) -> Callable[..., Any]:
        """Import and return the experiment entry point."""
        return getattr(importlib.import_module(self.module), self.func)


def _spec(
    experiment_id: str,
    module_obj: Any,
    func: str,
    description: str,
    quick_params: Mapping[str, Any],
    full_params: Mapping[str, Any] | None = None,
    accepts_fault_plan: bool = False,
    accepts_replicas: bool = False,
    accepts_checkpoint: bool = False,
) -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id=experiment_id,
        module=module_obj.__name__,
        func=func,
        description=description,
        full_params=dict(full_params or {}),
        quick_params=dict(quick_params),
        accepts_fault_plan=accepts_fault_plan,
        accepts_replicas=accepts_replicas,
        accepts_checkpoint=accepts_checkpoint,
    )


#: Roster order matches the paper's presentation order (figures, then
#: Table 1's companions, then the ablations).
EXPERIMENTS: tuple[ExperimentSpec, ...] = (
    _spec(
        "fig5",
        fig5_simd,
        "run",
        fig5_simd.DESCRIPTION,
        quick_params={"n_atoms": 512, "n_steps": 3},
    ),
    # fig6/table1 assert 2048-atom ratios; quick runs 2 functional
    # steps and lets the normalization recover the 10-step convention.
    _spec(
        "fig6",
        fig6_launch,
        "run",
        fig6_launch.DESCRIPTION,
        quick_params={"n_atoms": 2048, "n_steps": 2},
    ),
    _spec(
        "table1",
        table1_perf,
        "run",
        table1_perf.DESCRIPTION,
        quick_params={"n_atoms": 2048, "n_steps": 2},
    ),
    _spec(
        "fig7",
        fig7_gpu,
        "run",
        fig7_gpu.DESCRIPTION,
        quick_params={"atom_counts": _QUICK_SWEEP, "n_steps": 2},
    ),
    _spec(
        "fig8",
        fig8_mta,
        "run",
        fig8_mta.DESCRIPTION,
        quick_params={"atom_counts": _QUICK_SWEEP, "n_steps": 2},
    ),
    _spec(
        "fig9",
        fig9_scaling,
        "run",
        fig9_scaling.DESCRIPTION,
        quick_params={"atom_counts": _QUICK_SWEEP, "n_steps": 2},
    ),
    _spec(
        "abl-nlist",
        ablations,
        "run_neighborlist",
        ablations.DESCRIPTIONS["abl-nlist"],
        quick_params={"n_atoms": 512, "n_steps": 10},
    ),
    _spec(
        "abl-reduce",
        ablations,
        "run_gpu_reduction",
        ablations.DESCRIPTIONS["abl-reduce"],
        quick_params={"n_atoms": 512},
    ),
    _spec(
        "abl-xmt",
        ablations,
        "run_xmt_projection",
        ablations.DESCRIPTIONS["abl-xmt"],
        quick_params={"n_atoms": 512, "n_steps": 2},
    ),
    _spec(
        "abl-xmt-net",
        ablations,
        "run_xmt_network",
        ablations.DESCRIPTIONS["abl-xmt-net"],
        quick_params={},
    ),
    _spec(
        "abl-cache",
        ablations,
        "run_cache_patterns",
        ablations.DESCRIPTIONS["abl-cache"],
        quick_params={"n_atoms": 4096},
    ),
    _spec(
        "abl-nextgen",
        ablations,
        "run_nextgen_gpu",
        ablations.DESCRIPTIONS["abl-nextgen"],
        quick_params={"atom_counts": (256, 1024)},
    ),
    _spec(
        "abl-balance",
        ablations,
        "run_load_balance",
        ablations.DESCRIPTIONS["abl-balance"],
        quick_params={"n_atoms": 512},
    ),
    _spec(
        "abl-precision",
        ablations,
        "run_precision",
        ablations.DESCRIPTIONS["abl-precision"],
        quick_params={"n_atoms": 256},
    ),
    _spec(
        "faults",
        faultstorm,
        "run",
        faultstorm.DESCRIPTION,
        quick_params={"n_atoms": 128, "n_steps": 6},
        full_params={"n_atoms": 256, "n_steps": 12},
        accepts_fault_plan=True,
    ),
    _spec(
        "ensemble",
        ensemble,
        "run",
        ensemble.DESCRIPTION,
        quick_params={"n_rows": 128, "replicas": 4},
        full_params={"n_rows": 256, "replicas": 8},
        accepts_replicas=True,
    ),
    _spec(
        "longrun",
        longrun,
        "run",
        longrun.DESCRIPTION,
        quick_params={"n_atoms": 128, "n_steps": 8, "checkpoint_interval": 3},
        full_params={"n_atoms": 256, "n_steps": 24, "checkpoint_interval": 5},
        accepts_checkpoint=True,
    ),
    _spec(
        "cluster",
        cluster_scaling,
        "run",
        cluster_scaling.DESCRIPTION,
        quick_params={
            "n_atoms": 512,
            "n_steps": 2,
            "node_counts": (1, 2, 4),
            "devices": ("cell", "gpu"),
        },
        full_params={
            "n_atoms": 2048,
            "n_steps": 4,
            "node_counts": (1, 2, 4, 8),
            "devices": ("cell", "gpu", "mta", "opteron"),
        },
    ),
    _spec(
        "tunesweep",
        tunesweep,
        "run",
        tunesweep.DESCRIPTION,
        quick_params={"quick": True, "repeats": 1},
        full_params={"quick": False, "repeats": 2},
    ),
)

_BY_ID = {spec.experiment_id: spec for spec in EXPERIMENTS}


def experiment_ids() -> tuple[str, ...]:
    return tuple(spec.experiment_id for spec in EXPERIMENTS)


def spec_for(experiment_id: str) -> ExperimentSpec:
    try:
        return _BY_ID[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment id {experiment_id!r}; "
            f"known ids: {', '.join(experiment_ids())}"
        ) from None
