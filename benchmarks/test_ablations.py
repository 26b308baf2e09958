"""Benchmarks: the ablation/extension experiments of DESIGN.md.

* abl-nlist     — the pairlist optimization the paper skipped
* abl-reduce    — GPU PE-readback trick vs multi-pass reduction
* abl-xmt       — the paper's future-work XMT projection
* abl-precision — single vs double precision agreement
"""

from __future__ import annotations

from benchmarks.conftest import run_and_assert
from repro.experiments import ablations


def test_ablation_neighborlist(benchmark):
    result = run_and_assert(
        benchmark, lambda: ablations.run_neighborlist(n_atoms=1024, n_steps=20)
    )
    allpairs, verlet, cell = result.rows
    assert verlet[1] < allpairs[1]
    assert cell[1:] == verlet[1:]  # both names run one list


def test_ablation_gpu_reduction(benchmark):
    result = run_and_assert(
        benchmark, lambda: ablations.run_gpu_reduction(n_atoms=2048)
    )
    free, multipass = result.rows
    assert multipass[2] > free[2]


def test_ablation_xmt_projection(benchmark):
    result = run_and_assert(
        benchmark, lambda: ablations.run_xmt_projection(n_atoms=2048, n_steps=2)
    )
    seconds = {row[0]: row[1] for row in result.rows}
    assert seconds["XMT, 1 processor"] < seconds["MTA-2, 1 processor"]
    assert seconds["XMT, 64 processors"] <= seconds["XMT, 8 processors"]


def test_ablation_precision(benchmark):
    run_and_assert(benchmark, lambda: ablations.run_precision(n_atoms=512))


def test_ablation_xmt_network(benchmark):
    result = run_and_assert(benchmark, ablations.run_xmt_network)
    efficiencies = [row[3] for row in result.rows]
    assert all(b <= a + 1e-9 for a, b in zip(efficiencies, efficiencies[1:]))


def test_ablation_cache_patterns(benchmark):
    result = run_and_assert(benchmark, ablations.run_cache_patterns)
    by_label = {row[0]: row for row in result.rows}
    random_row = by_label["neighbor-list gather, random order"]
    sorted_row = by_label["neighbor-list gather, sorted"]
    assert random_row[3] > sorted_row[3]


def test_ablation_nextgen_gpu(benchmark):
    result = run_and_assert(benchmark, ablations.run_nextgen_gpu)
    assert all(row[2] < row[1] for row in result.rows)  # G80 always wins here


def test_ablation_load_balance(benchmark):
    result = run_and_assert(benchmark, ablations.run_load_balance)
    block, cyclic = result.rows
    assert block[1] > cyclic[1]  # block partition is the slower step
