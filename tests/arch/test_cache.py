"""Tests for the set-associative LRU cache simulator.

The simulator steps every set at once; :class:`ListLRU` below is the
per-line list walk it replaced, kept here as the oracle it must match
hit for hit.  Caches of at most two ways take a closed form instead of
the round loop; :class:`RoundLoopCache` runs them on the round loop, so
the two paths can be held to the same state call for call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cache import Cache, CacheHierarchy, CacheStats


def _cache(size=1024, line=64, ways=2):
    return Cache(size_bytes=size, line_bytes=line, ways=ways)


class RoundLoopCache(Cache):
    """A cache that serves every trace with the set-parallel round loop,
    the path caches of more than two ways take."""

    def _access_closed(self, lines: np.ndarray) -> np.ndarray:
        return self._access_rounds(lines)


def _contents(cache: Cache) -> list[list[tuple[int, int]]]:
    """Each set's valid ``(tag, last-use stamp)`` pairs, LRU first."""
    contents = []
    for tags, ages in zip(cache._tags.tolist(), cache._ages.tolist()):
        contents.append(sorted((age, tag) for tag, age in zip(tags, ages) if age >= 0))
    return [[(tag, age) for age, tag in ways] for ways in contents]


class ListLRU:
    """The obviously-correct oracle: one MRU-last tag list per set."""

    def __init__(self, n_sets: int, ways: int, line_bytes: int = 64) -> None:
        self.n_sets, self.ways, self.line_bytes = n_sets, ways, line_bytes
        self.flush()

    def flush(self) -> None:
        self.sets: list[list[int]] = [[] for _ in range(self.n_sets)]

    def access(self, byte_addresses) -> np.ndarray:
        hits = []
        for line in np.asarray(byte_addresses, dtype=np.int64) // self.line_bytes:
            lru = self.sets[int(line) & (self.n_sets - 1)]
            hit = int(line) in lru
            if hit:
                lru.remove(int(line))
            elif len(lru) >= self.ways:
                lru.pop(0)
            lru.append(int(line))
            hits.append(hit)
        return np.array(hits, dtype=bool)


class TestGeometry:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Cache(0, 64, 2)
        with pytest.raises(ValueError):
            Cache(1024, 0, 2)
        with pytest.raises(ValueError):
            Cache(1024, 64, 0)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            Cache(3 * 64 * 2, 64, 2)  # 3 sets

    def test_set_count(self):
        assert _cache().n_sets == 1024 // (64 * 2)


class TestLRUBehavior:
    def test_cold_miss_then_hit(self):
        c = _cache()
        assert c.access_line(5) is False
        assert c.access_line(5) is True

    def test_lru_eviction_order(self):
        c = Cache(size_bytes=2 * 64, line_bytes=64, ways=2)  # 1 set, 2 ways
        c.access_line(0)
        c.access_line(1)
        c.access_line(0)  # 0 is now MRU
        c.access_line(2)  # evicts 1 (LRU)
        assert c.access_line(0) is True
        assert c.access_line(1) is False

    def test_cyclic_scan_beyond_capacity_always_misses(self):
        """The classic LRU pathology driving Figure 9: a repeated
        sequential scan of an array one line larger than the cache hits
        nothing."""
        c = Cache(size_bytes=4 * 64, line_bytes=64, ways=4)  # 4 lines
        lines = [0, 1, 2, 3, 4]
        for _ in range(3):
            for line in lines:
                c.access_line(line)
        c.reset_stats()
        for line in lines:
            c.access_line(line)
        assert c.stats.hits == 0

    def test_scan_within_capacity_all_hits_after_warmup(self):
        c = Cache(size_bytes=8 * 64, line_bytes=64, ways=8)
        lines = list(range(6))
        for line in lines:
            c.access_line(line)
        c.reset_stats()
        for line in lines:
            c.access_line(line)
        assert c.stats.miss_rate == 0.0

    def test_flush_invalidates(self):
        c = _cache()
        c.access_line(1)
        c.flush()
        assert c.access_line(1) is False

    def test_access_array_api(self):
        c = _cache()
        hits = c.access(np.array([0, 64, 0, 64]))
        np.testing.assert_array_equal(hits, [False, False, True, True])

    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_naive_lru_model(self, trace):
        """The simulator must agree with an obviously-correct reference."""
        ways, n_sets = 2, 4
        c = Cache(size_bytes=ways * n_sets * 64, line_bytes=64, ways=ways)
        reference = ListLRU(n_sets, ways)
        for line in trace:
            assert c.access_line(line) == reference.access([line * 64])[0]

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_property_bigger_cache_never_fewer_hits_fully_assoc(self, trace):
        """LRU inclusion property: for fully-associative LRU caches a
        larger capacity never hits less on the same trace."""
        small = Cache(size_bytes=4 * 64, line_bytes=64, ways=4)
        large = Cache(size_bytes=16 * 64, line_bytes=64, ways=16)
        for line in trace:
            small.access_line(line)
            large.access_line(line)
        assert large.stats.hits >= small.stats.hits


_traces = st.lists(
    st.integers(min_value=-64, max_value=4096).map(lambda line: line * 64),
    max_size=200,
).map(lambda lines: np.array(lines, dtype=np.int64))


_calls = st.lists(
    st.one_of(
        st.just(None),  # a flush
        st.lists(st.integers(min_value=0, max_value=40), max_size=60).map(
            lambda lines: np.array(lines, dtype=np.int64) * 64
        ),
    ),
    min_size=1,
    max_size=8,
)


class TestListOracle:
    @pytest.mark.parametrize(
        "n_sets, ways", [(1, 1), (64, 1), (1, 16), (4, 2), (512, 2)]
    )
    @given(warm=_traces, measure=_traces, after=_traces)
    @settings(max_examples=40, deadline=None)
    def test_access_matches_oracle_across_calls(
        self, n_sets, ways, warm, measure, after
    ):
        cache = Cache(size_bytes=n_sets * ways * 64, line_bytes=64, ways=ways)
        oracle = ListLRU(n_sets, ways)
        np.testing.assert_array_equal(cache.access(warm), oracle.access(warm))
        cache.reset_stats()
        hits = cache.access(measure)
        np.testing.assert_array_equal(hits, oracle.access(measure))
        assert cache.stats.accesses == measure.size
        assert cache.stats.hits == int(hits.sum())
        cache.flush()
        oracle.flush()
        np.testing.assert_array_equal(cache.access(after), oracle.access(after))
        assert cache.stats.accesses == measure.size + after.size

    @pytest.mark.parametrize("n_sets, ways", [(1, 1), (8, 1), (1, 2), (4, 2)])
    @given(calls=_calls)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_equals_round_loop(self, n_sets, ways, calls):
        # Few lines over few sets: repeats, ping-pongs and evictions.
        closed = Cache(size_bytes=n_sets * ways * 64, line_bytes=64, ways=ways)
        rounds = RoundLoopCache(size_bytes=n_sets * ways * 64, line_bytes=64, ways=ways)
        for trace in calls:
            if trace is None:
                closed.flush()
                rounds.flush()
            else:
                np.testing.assert_array_equal(closed.access(trace), rounds.access(trace))
            assert closed.stats == rounds.stats
            assert _contents(closed) == _contents(rounds)

    def test_abl_cache_random_gather_matches_oracle(self):
        # The Figure-9 ablation's worst trace: a neighbor-list gather in
        # random order at 8192 atoms, warm pass then measured pass.
        from repro.arch import calibration as c
        from repro.md import CellList, MDConfig
        from repro.md.lattice import cubic_lattice
        from repro.opteron.costmodel import make_opteron_hierarchy

        config = MDConfig(n_atoms=8192)
        box = config.make_box()
        pair_list = CellList(box, config.make_potential(), skin=0.3)
        pair_list.update(cubic_lattice(config.n_atoms, box))
        targets = pair_list.pairs[:, 1]
        order = np.random.default_rng(config.seed).permutation(len(targets))
        trace = targets[order].astype(np.int64) * c.VEC3_F64_BYTES

        hierarchy = make_opteron_hierarchy()
        oracles = [
            ListLRU(cache.n_sets, cache.ways, cache.line_bytes)
            for cache, _penalty in hierarchy.levels
        ]
        for _ in range(2):  # warm, then measured
            outstanding = trace
            for (cache, _penalty), oracle in zip(hierarchy.levels, oracles):
                hits = cache.access(outstanding)
                assert np.array_equal(hits, oracle.access(outstanding))
                outstanding = outstanding[~hits]


class TestStats:
    def test_counters(self):
        c = _cache()
        c.access(np.array([0, 0, 64]))
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.miss_rate == pytest.approx(2 / 3)

    def test_empty_miss_rate(self):
        assert CacheStats().miss_rate == 0.0

    def test_merge(self):
        merged = CacheStats(10, 4).merge(CacheStats(5, 1))
        assert merged.accesses == 15
        assert merged.hits == 5


class TestHierarchy:
    def _hierarchy(self):
        l1 = Cache(size_bytes=2 * 64, line_bytes=64, ways=2, name="L1")
        l2 = Cache(size_bytes=8 * 64, line_bytes=64, ways=8, name="L2")
        return CacheHierarchy([(l1, 10.0), (l2, 100.0)], memory_penalty_cycles=0.0)

    def test_requires_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy([], memory_penalty_cycles=0.0)

    def test_l1_hit_costs_nothing(self):
        h = self._hierarchy()
        h.access(np.array([0]))
        assert h.access(np.array([0])) == 0.0

    def test_miss_cascade_charges_both_levels(self):
        h = self._hierarchy()
        # cold: miss L1 (10) and miss L2 (100)
        assert h.access(np.array([0])) == 110.0

    def test_l2_hit_after_l1_eviction(self):
        h = self._hierarchy()
        h.access(np.array([0, 64, 128]))  # 0 evicted from 1-set... depends
        # touch something resident in L2 but maybe not L1: cost is 0 or 10
        stall = h.access(np.array([0]))
        assert stall in (0.0, 10.0)

    def test_stats_exposed_per_level(self):
        h = self._hierarchy()
        h.access(np.array([0, 0]))
        stats = h.stats()
        assert stats["L1"].accesses == 2
        assert stats["L2"].accesses == 1  # only the L1 miss probed L2
