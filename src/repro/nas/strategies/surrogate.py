"""kNN-surrogate search with nearest-provider transfer (extension).

Scores unseen architectures with a k-nearest-neighbour model over
architecture distance, proposes the most promising of a random pool, and
points the scheduler at the nearest evaluated candidate as the weight
provider — Section V-B's "other strategies" extension point.
"""

from __future__ import annotations

import numpy as np

from .base import Proposal, Strategy, is_failure_score


class SurrogateSearch(Strategy):
    def __init__(self, space, rng=None, pool_size: int = 32, k: int = 3,
                 warmup: int = 8, explore: float = 0.1, gate=None):
        super().__init__(space, rng, gate=gate)
        self.pool_size = pool_size
        self.k = k
        self.warmup = warmup
        self.explore = explore
        self._evaluated: list[tuple[int, tuple, float]] = []
        self._asked = 0

    def _predict(self, arch_seq) -> float:
        dists = np.array([
            self.space.distance(arch_seq, seq)
            for _, seq, _ in self._evaluated
        ], dtype=np.float64)
        scores = np.array([s for _, _, s in self._evaluated],
                          dtype=np.float64)
        nearest = np.argsort(dists)[: self.k]
        weights = 1.0 / (1.0 + dists[nearest])
        return float(np.average(scores[nearest], weights=weights))

    def _nearest_id(self, arch_seq) -> int:
        dists = [self.space.distance(arch_seq, seq)
                 for _, seq, _ in self._evaluated]
        return self._evaluated[int(np.argmin(dists))][0]

    def ask(self) -> Proposal:
        self._asked += 1
        if self._asked <= self.warmup or not self._evaluated or \
                self.rng.random() < self.explore:
            return self._admit(lambda: Proposal(self.space.sample(self.rng)))
        pool = [self.space.sample(self.rng) for _ in range(self.pool_size)]
        if self.gate is not None:
            # statically invalid pool members never reach the surrogate —
            # but only *pre-screened* (stat-free): the proposal actually
            # emitted is booked once below by _admit, the single
            # accounting choke point, so trace.static_stats counts every
            # ask identically across warmup/explore/surrogate phases
            pool = [s for s in pool if self.gate.prescreen(s)]
        # walk the pool best-first; a gate (e.g. the zero-cost proxy
        # tier) can veto the top pick, in which case the next-ranked
        # member is proposed, falling back to fresh samples if the
        # whole pool is vetoed
        ranked = iter(sorted(pool, key=self._predict, reverse=True))

        def propose() -> Proposal:
            seq = next(ranked, None)
            if seq is None:
                seq = self.space.sample(self.rng)
            return Proposal(seq, parent_id=self._nearest_id(seq))
        return self._admit(propose)

    def tell(self, candidate_id, arch_seq, score) -> None:
        # FAILURE_SCORE records never enter the kNN training set: one
        # -1000 neighbour drags every nearby _predict average to the
        # floor, and _nearest_id could select a provider whose
        # checkpoint was never written.
        if is_failure_score(score):
            return
        self._evaluated.append((candidate_id, tuple(arch_seq), float(score)))
