"""The tracer patches every binding and does its self-time arithmetic right."""

import pytest

from tracer import Tracer, aggregate, self_times


@pytest.fixture
def tracer():
    tracer = Tracer()
    yield tracer
    tracer.uninstall()


def test_identity_patch_reaches_from_import_bindings(tracer):
    import repro.md.forcefield as forcefield
    import repro.md.forces as forces
    import repro.md.simulation as simulation
    from repro.md import MDConfig, MDSimulation

    original = forces.compute_forces
    assert simulation.compute_forces is original
    assert forcefield.compute_forces is original

    tracer.patch_function("repro.md.forces", "compute_forces", "md.forces")
    for module in (forces, simulation, forcefield):
        assert module.compute_forces is not original
        assert module.compute_forces.__bench_original__ is original

    config = MDConfig(n_atoms=256)
    MDSimulation(config)  # default backend: simulation's binding
    backend = forcefield.make_force_backend(
        "all-pairs", config.make_box(), config.make_potential()
    )
    backend(MDSimulation(config).state.positions)  # forcefield's binding
    assert tracer.counts["md.forces"]["calls"] == 3

    tracer.uninstall()
    for module in (forces, simulation, forcefield):
        assert module.compute_forces is original


def test_default_arguments_are_patched(tracer):
    from repro.harness import jobs, scheduler

    original = jobs.execute_job
    assert scheduler.run_jobs.__kwdefaults__["execute"] is original
    tracer.patch_function("repro.harness.jobs", "execute_job", "harness.execute_job")
    assert scheduler.run_jobs.__kwdefaults__["execute"] is not original
    tracer.uninstall()
    assert scheduler.run_jobs.__kwdefaults__["execute"] is original


def test_methods_are_patched_per_defining_class(tracer):
    from repro.arch.cache import Cache

    original = Cache.__dict__["access"]
    tracer.patch_method(Cache, "access", "arch.cache")
    cache = Cache(size_bytes=1024, line_bytes=64, ways=2)
    cache.access([0, 64, 0])
    assert tracer.counts["arch.cache"]["calls"] == 1
    tracer.uninstall()
    assert Cache.__dict__["access"] is original


def test_nested_same_layer_call_counts_once(tracer):
    inner = tracer.wrap("layer", lambda: None)
    outer = tracer.wrap("layer", lambda: inner())
    outer()
    assert tracer.counts["layer"]["calls"] == 1
    assert len(tracer.spans) == 2


def _span(layer, start, end, parent):
    return [layer, float(start), float(end), parent]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0, 10, -1),
        _span("a", 1, 4, 0),
        _span("b", 2, 3, 1),
        _span("a", 5, 6, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0  # the root's duration, no more


def test_aggregate_sums_self_time_and_time_under_a_layer():
    spans = [
        _span("init", 0, 4, -1),
        _span("forces", 1, 3, 0),
        _span("step", 4, 10, -1),
        _span("forces", 5, 9, 2),
    ]
    agg = aggregate(spans, under="init")
    assert agg["forces"]["self_s"] == 6.0
    assert agg["forces"]["inclusive_s"] == 6.0
    assert agg["forces"]["under_s"] == 2.0
    assert agg["init"]["self_s"] == 2.0
    assert agg["step"]["self_s"] == 2.0
