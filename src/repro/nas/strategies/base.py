"""Strategy protocol: the ask/tell interface the schedulers drive.

``ask()`` returns a :class:`Proposal`; the scheduler evaluates it and
calls ``tell(candidate_id, arch_seq, score)`` when the result lands.
Strategies must tolerate several ``ask()`` calls before the matching
``tell`` (asynchronous clusters evaluate many candidates in flight).

Every strategy accepts an optional *pre-flight gate*
(:class:`repro.analysis.PreflightGate`): when set, proposals are
statically screened before they leave ``ask`` and invalid candidates
are resampled — zero forward passes are spent on them, and the gate's
stats record how many were rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..estimation import FAILURE_SCORE


def is_failure_score(score) -> bool:
    """True for the FAILURE_SCORE sentinel (and anything at or below it,
    or non-finite) — scores the scheduler books for contained faults and
    unbuildable candidates.  Strategies must keep such records out of
    their learning state: a failed candidate has no checkpoint and must
    never be selected as a mutation parent or weight provider."""
    score = float(score)
    return not np.isfinite(score) or score <= FAILURE_SCORE


@dataclass(frozen=True)
class Proposal:
    arch_seq: tuple
    parent_id: Optional[int] = None   # provider when evolution bred it


class Strategy:
    #: resampling budget when the gate keeps rejecting proposals
    MAX_GATE_RETRIES = 32

    def __init__(self, space, rng=None, gate=None):
        self.space = space
        self.rng = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator) else rng
        self.gate = gate

    def ask(self) -> Proposal:
        raise NotImplementedError

    def tell(self, candidate_id: int, arch_seq, score: float) -> None:
        raise NotImplementedError

    def restore(self, records) -> None:
        """Rebuild ask/tell state from replayed trace records — the
        resume path (``run_search(resume=...)``) calls this with every
        journaled completion, in completion order, before the search
        continues.  The default replays them through :meth:`tell`;
        strategies with ask-side counters override to restore those too."""
        for r in records:
            self.tell(r.candidate_id, r.arch_seq, r.score)

    def _admit(self, make_proposal: Callable[[], Proposal]) -> Proposal:
        """Draw proposals until one passes the gate (or the retry budget
        runs out — then the last draw is returned and the runtime
        ``BuildError`` path handles it, so a fully-invalid neighbourhood
        cannot live-lock the search)."""
        proposal = make_proposal()
        if self.gate is None:
            return proposal
        for _ in range(self.MAX_GATE_RETRIES):
            if self.gate.admits(proposal.arch_seq):
                return proposal
            proposal = make_proposal()
        return proposal
