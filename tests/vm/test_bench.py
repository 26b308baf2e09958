"""The ensemble speedup statistic in :mod:`repro.vm.bench`."""

from __future__ import annotations

from repro.vm.bench import EnsembleBench, ensemble_speedups


def _pair(replicas: int, sequential, batched) -> list[EnsembleBench]:
    return [
        EnsembleBench("fused-sequential", replicas, 256, tuple(sequential)),
        EnsembleBench("fused-batched", replicas, 256, tuple(batched)),
    ]


def test_each_repeat_is_compared_with_its_own_pair():
    # the host ran fast only while the first sequential sample was
    # taken: a ratio of per-mode bests reads 1/1.5, the paired ratios
    # read 2/3, 2, 2
    results = _pair(8, (1.0, 3.0, 3.0), (1.5, 1.5, 1.5))
    assert ensemble_speedups(results) == {8: 2.0}


def test_the_median_ignores_one_outlying_pair():
    results = _pair(4, (4.0, 4.0, 4.0, 4.0, 4.0), (2.0, 2.0, 0.5, 2.0, 2.0))
    assert ensemble_speedups(results) == {4: 2.0}


def test_unpaired_replica_counts_are_skipped():
    results = _pair(2, (1.0,), (0.5,)) + [
        EnsembleBench("fused-batched", 8, 256, (1.0,))
    ]
    assert ensemble_speedups(results) == {2: 2.0}


def test_rows_record_every_sample():
    (row, _) = _pair(8, (3.0, 1.0, 2.0), (1.0, 1.0, 1.0))
    record = row.to_dict()
    assert record["samples"] == [3.0, 1.0, 2.0]
    assert record["repeats"] == 3
    assert record["best_seconds"] == 1.0
    assert record["replicas_per_second"] == 8.0
