"""Failure-score containment in the strategies.

The scheduler books contained faults as FAILURE_SCORE records; the
strategies must keep those records out of their learning state — a
failed candidate has no checkpoint, so breeding from it (or pointing
the provider policy at it) would transfer weights that were never
written.  These tests pin the `tell` exclusions, the single
gate-accounting choke point in SurrogateSearch.ask, and the end-to-end
invariants under chaos and resume.
"""

import numpy as np

from repro.analysis import PreflightGate
from repro.checkpoint import CheckpointStore
from repro.cluster import run_search
from repro.cluster.resilience import ChaosEvaluator, RetryPolicy
from repro.cluster.evaluator import SerialEvaluator
from repro.nas import (
    FAILURE_SCORE,
    RegularizedEvolution,
    SurrogateSearch,
    is_failure_score,
)
from repro.cluster.trace import TraceRecord


def _record(cid, seq, score, ok=True):
    return TraceRecord(candidate_id=cid, arch_seq=tuple(seq), score=score,
                       ok=ok)


def test_is_failure_score_contract():
    assert is_failure_score(FAILURE_SCORE)
    assert is_failure_score(FAILURE_SCORE - 1.0)
    assert is_failure_score(float("nan"))
    assert is_failure_score(float("-inf"))
    assert not is_failure_score(0.0)
    assert not is_failure_score(-999.0)   # worst legitimate score


# ---------------------------------------------------------------------------
# tell-side exclusions
# ---------------------------------------------------------------------------

def test_evolution_tell_excludes_failures(space):
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=2)
    p = strategy.ask()
    strategy.tell(0, p.arch_seq, FAILURE_SCORE)
    assert len(strategy.population) == 0
    strategy.tell(1, strategy.ask().arch_seq, 0.4)
    assert [m.candidate_id for m in strategy.population] == [1]


def test_aging_tournament_never_breeds_failed_member(space):
    """The aging tournament picks the *oldest* sampled member — before
    the fix, a failed candidate 0 would win every aging tournament and
    become mutation parent / weight provider forever."""
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=4, tournament="aging")
    for cid in range(5):
        strategy.ask()
        score = FAILURE_SCORE if cid == 0 else float(cid)
        strategy.tell(cid, space.sample(np.random.default_rng(cid)), score)
    for _ in range(8):
        assert strategy.ask().parent_id != 0


def test_surrogate_tell_excludes_failures(space):
    strategy = SurrogateSearch(space, rng=0, warmup=2)
    seqs = [space.sample(np.random.default_rng(i)) for i in range(3)]
    strategy.tell(0, seqs[0], 0.9)
    strategy.tell(1, seqs[1], FAILURE_SCORE)
    strategy.tell(2, seqs[2], 0.8)
    assert [cid for cid, _, _ in strategy._evaluated] == [0, 2]
    # kNN prediction averages real scores only — one -1000 neighbour
    # would drag every nearby estimate to the floor
    assert strategy._predict(seqs[1]) > 0.0
    # and the nearest-provider lookup can only return real candidates
    assert strategy._nearest_id(seqs[1]) in (0, 2)


def test_restore_skips_failed_records(space):
    """Resume replays journaled records through restore; failed ones
    must not be re-admitted into the population (but still fast-forward
    the ask counter past warmup)."""
    rng = np.random.default_rng(0)
    records = [
        _record(cid, space.sample(rng),
                FAILURE_SCORE if cid % 2 else float(cid),
                ok=cid % 2 == 0)
        for cid in range(6)
    ]
    evo = RegularizedEvolution(space, rng=0, population_size=8,
                               sample_size=2)
    evo.restore(records)
    assert [m.candidate_id for m in evo.population] == [0, 2, 4]
    assert evo._asked >= 6                   # warmup is not re-entered

    sur = SurrogateSearch(space, rng=0, warmup=2)
    sur.restore(records)
    assert [cid for cid, _, _ in sur._evaluated] == [0, 2, 4]


# ---------------------------------------------------------------------------
# SurrogateSearch.ask: one accounting choke point
# ---------------------------------------------------------------------------

def test_surrogate_ask_books_gate_stats_once_per_ask(space):
    """Before the fix the surrogate phase called gate.admits on every
    pool member (pool_size bookings per ask) while warmup/explore
    booked once — trace.static_stats depended on which phase proposals
    came from.  Now every emitted proposal is booked exactly once by
    Strategy._admit."""
    gate = PreflightGate(space)
    strategy = SurrogateSearch(space, rng=0, warmup=2, explore=0.0,
                               pool_size=16, gate=gate)
    n_asks = 8
    for cid in range(n_asks):
        p = strategy.ask()
        strategy.tell(cid, p.arch_seq, float(cid) / n_asks)
    assert strategy._asked > strategy.warmup     # surrogate phase reached
    assert gate.stats.admitted == n_asks         # one admission per ask
    assert gate.stats.checked == gate.stats.admitted + gate.stats.rejected


def test_surrogate_phase_proposals_carry_provider(space):
    strategy = SurrogateSearch(space, rng=0, warmup=2, explore=0.0,
                               gate=PreflightGate(space))
    for cid in range(4):
        p = strategy.ask()
        strategy.tell(cid, p.arch_seq, float(cid))
    p = strategy.ask()                           # surrogate-ranked pick
    assert p.parent_id in {cid for cid, _, _ in strategy._evaluated}


# ---------------------------------------------------------------------------
# end-to-end: chaos + resume
# ---------------------------------------------------------------------------

def test_chaos_failed_candidates_never_become_providers(problem, space,
                                                        tmp_path):
    """No failed candidate may ever appear as provider_id (its
    checkpoint was never written) or as a breeding parent_id."""
    store = CheckpointStore(tmp_path)
    strategy = RegularizedEvolution(space, rng=0, population_size=4,
                                    sample_size=4, tournament="aging")
    ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.35, seed=5)
    trace = run_search(problem, strategy, 16, scheme="lcs", store=store,
                       evaluator=ev, seed=0,
                       retry=RetryPolicy(max_attempts=1))
    failed = {r.candidate_id for r in trace if not r.ok}
    assert failed                                # chaos actually struck
    assert len(trace) == 16
    for r in trace:
        assert r.provider_id not in failed
        assert r.parent_id not in failed
    assert not {m.candidate_id for m in strategy.population} & failed


def test_resume_does_not_readmit_failed_records(problem, space, tmp_path):
    journal = tmp_path / "run.jsonl"
    ev = ChaosEvaluator(SerialEvaluator(), crash_prob=0.4, seed=7)
    first = RegularizedEvolution(space, rng=0, population_size=4,
                                 sample_size=2)
    trace = run_search(problem, first, 8, evaluator=ev, seed=0,
                       journal=journal)
    failed = {r.candidate_id for r in trace if not r.ok}
    assert failed and len(failed) < 8            # mixed outcome run

    resumed = RegularizedEvolution(space, rng=0, population_size=4,
                                   sample_size=2)
    trace2 = run_search(problem, resumed, 12, seed=0, resume=journal)
    assert len(trace2) == 12
    pop_ids = {m.candidate_id for m in resumed.population}
    assert not pop_ids & failed
    # the replayed failures are still in the trace (accounting intact)
    assert {r.candidate_id for r in trace2 if not r.ok} >= failed
