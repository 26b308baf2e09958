"""Set-associative LRU cache simulation.

The Opteron cost model feeds the MD kernel's memory-access pattern
through a real cache hierarchy to obtain miss rates, rather than
curve-fitting the super-quadratic runtime growth of the paper's
Figure 9.  The simulator is exact (true LRU per set); the cost model
keeps traces short by exploiting the kernel's periodicity (the same
position-array scan repeats for every atom), so exactness is affordable.

Sets are independent, so a trace runs set-parallel: round k serves the
k-th access of every set at once against ``(sets, ways)`` tag and age
arrays — a hit where a valid way holds the tag, else a fill of the
oldest way (an empty way first).  That is exactly per-set LRU in trace
order.  A trace takes as many rounds as its busiest set has accesses,
so the worst case, a trace that lands in one set, takes one round per
access.

A cache of at most two ways (the K8 L1 is 2-way) needs no rounds: it
has a closed form.  Group the trace by set, each set's group led by
the lines it holds now (LRU, then MRU; an empty way is a sentinel that
matches no line), and collapse runs of the same line.  In the collapsed
sequence a set holds exactly its last ``ways`` entries, so an access
hits when it repeats the line before it (it was collapsed) or, with two
ways, equals the line two places back.  The last ``ways`` entries of
each group are the set's new contents, written back with the stamps the
round loop would give them.  That is one stable sort of the trace and
a few shifts and gathers, however the trace spreads over the sets.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["Cache", "CacheStats", "CacheHierarchy"]


@dataclasses.dataclass
class CacheStats:
    """Access tallies for one cache level."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            accesses=self.accesses + other.accesses, hits=self.hits + other.hits
        )


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``argsort(keys, kind="stable")`` of non-negative keys below ``bound``.

    Keys that fit 16 bits sort as ``uint16``, which numpy radix-sorts in
    a few times less time than it merge-sorts ``int64``; the order is
    the same.
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


class Cache:
    """One set-associative, true-LRU, write-allocate cache level."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int, name: str = "L") -> None:
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("cache geometry values must be positive")
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError(
                f"size {size_bytes} not divisible by line*ways = {line_bytes * ways}"
            )
        n_sets = size_bytes // (line_bytes * ways)
        if n_sets & (n_sets - 1) != 0:
            raise ValueError(f"number of sets must be a power of two, got {n_sets}")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = n_sets
        self.stats = CacheStats()
        self.flush()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        """Invalidate all lines (stats are kept)."""
        self._tags = np.zeros((self.n_sets, self.ways), dtype=np.int64)
        #: last-use stamp per way; -1 marks an empty way
        self._ages = np.full((self.n_sets, self.ways), -1, dtype=np.int64)
        self._clock = 0

    def access_line(self, line_address: int) -> bool:
        """Touch one line (already divided by line size); True on hit."""
        return bool(self.access(np.array([line_address * self.line_bytes]))[0])

    def access(self, byte_addresses: np.ndarray) -> np.ndarray:
        """Touch a sequence of byte addresses; returns a boolean hit mask."""
        lines = np.asarray(byte_addresses, dtype=np.int64) // self.line_bytes
        count = lines.size
        if count == 0:
            return np.zeros(0, dtype=bool)
        # Negative lines could equal the closed form's sentinels.
        if self.ways <= 2 and lines.min() >= 0:
            hits = self._access_closed(lines)
        else:
            hits = self._access_rounds(lines)
        self._clock += count
        self.stats.accesses += count
        self.stats.hits += int(np.count_nonzero(hits))
        return hits

    def _access_closed(self, lines: np.ndarray) -> np.ndarray:
        """Hit mask of ``lines`` for ``ways <= 2``, by the closed form."""
        ways, n_sets = self.ways, self.n_sets
        head = ways * n_sets
        tags, ages = self._tags, self._ages
        # Each set's current lines, LRU first; an empty way is a negative
        # sentinel, distinct per (set, way), that no line ever equals.
        by_age = np.argsort(ages, axis=1, kind="stable")
        held = np.take_along_axis(tags, by_age, axis=1)
        held_ages = np.take_along_axis(ages, by_age, axis=1)
        empty = held_ages < 0
        held[empty] = -1 - np.flatnonzero(empty)
        # Group (held lines, then the trace) by set, each group in order.
        keys = np.concatenate((np.repeat(np.arange(n_sets), ways), lines & (n_sets - 1)))
        ends = np.cumsum(np.bincount(keys, minlength=n_sets))
        order = _stable_order(keys, n_sets)
        del keys
        seq = np.concatenate((held.reshape(-1), lines))[order]
        # Collapse runs: ``kept`` indexes the first of each run.  Held
        # lines are distinct and no line equals another set's, so a run
        # never spans two groups.
        repeat = np.empty(seq.size, dtype=bool)
        repeat[0] = False
        np.equal(seq[1:], seq[:-1], out=repeat[1:])
        kept = np.flatnonzero(~repeat)
        runs = seq[kept]
        hit_seq = repeat
        if ways == 2:
            hit_seq[kept[2:]] = runs[2:] == runs[:-2]
        hits = np.empty(seq.size, dtype=bool)
        hits[order] = hit_seq
        hits = hits[head:]
        # New contents: the last ``ways`` runs of each group, stamped with
        # their last use (a held line not touched keeps its stamp).
        last_run = np.searchsorted(kept, ends - 1, side="right") - 1
        old_ages = held_ages.reshape(-1)
        for way in range(ways):
            run = last_run - (ways - 1 - way)
            last = (kept[run + 1] if way < ways - 1 else ends) - 1
            source = order[last]
            stamp = np.where(
                source < head,
                old_ages[np.minimum(source, head - 1)],
                self._clock + source - head,
            )
            tags[:, way] = np.where(stamp < 0, 0, runs[run])
            ages[:, way] = stamp
        return hits

    def _access_rounds(self, lines: np.ndarray) -> np.ndarray:
        """Hit mask of ``lines`` by set-parallel rounds, for any ``ways``."""
        count = lines.size
        hits = np.zeros(count, dtype=bool)
        sets = lines & (self.n_sets - 1)
        # Trace positions grouped by round (k-th access of its set), each
        # round's positions in set order, so no set repeats in a round.
        by_set = _stable_order(sets, self.n_sets)
        per_set = np.bincount(sets, minlength=self.n_sets)
        first = np.cumsum(per_set) - per_set
        rank = np.arange(count) - first[sets[by_set]]
        order = by_set[_stable_order(rank, int(per_set.max()))]
        bounds = np.cumsum(np.bincount(rank))
        tags, ages = self._tags, self._ages
        lo = 0
        for hi in bounds.tolist():
            where = order[lo:hi]
            lo = hi
            s, tag = sets[where], lines[where]
            row_tags, row_ages = tags[s], ages[s]
            match = (row_tags == tag[:, None]) & (row_ages >= 0)
            hit = match.any(axis=1)
            way = np.where(hit, match.argmax(axis=1), row_ages.argmin(axis=1))
            tags[s, way] = tag
            ages[s, way] = self._clock + where
            hits[where] = hit
        return hits


class CacheHierarchy:
    """An inclusive two-plus-level hierarchy with per-level penalties.

    ``levels`` is an ordered list of (cache, miss_penalty_cycles); a miss
    at level i probes level i+1.  A miss at the last level costs the
    additional ``memory_penalty_cycles``.
    """

    def __init__(
        self,
        levels: list[tuple[Cache, float]],
        memory_penalty_cycles: float,
    ) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one cache level")
        if memory_penalty_cycles < 0:
            raise ValueError("memory penalty must be non-negative")
        self.levels = levels
        self.memory_penalty_cycles = memory_penalty_cycles

    def flush(self) -> None:
        for cache, _penalty in self.levels:
            cache.flush()

    def reset_stats(self) -> None:
        for cache, _penalty in self.levels:
            cache.reset_stats()

    def access(self, byte_addresses: np.ndarray) -> float:
        """Run addresses through the hierarchy; returns total stall cycles."""
        addresses = np.asarray(byte_addresses, dtype=np.int64)
        stall = 0.0
        outstanding = addresses
        for cache, penalty in self.levels:
            if outstanding.size == 0:
                break
            hits = cache.access(outstanding)
            misses = outstanding[~hits]
            stall += penalty * misses.size
            outstanding = misses
        stall += self.memory_penalty_cycles * outstanding.size
        return stall

    def stats(self) -> dict[str, CacheStats]:
        return {cache.name: cache.stats for cache, _ in self.levels}
