"""The benchmark's workloads and the layer boundaries its traced run wraps.

Each workload is one search set-up that a worker process builds (the
timed set-up), runs once on a :class:`~repro.cluster.SerialEvaluator`
and turns into an :class:`Outcome`.  The workloads pass only the
arguments that define them, so a change of a library default shows up
here.  Why each workload exists, and which layer metrics it should
move, is recorded in ``workloads.json``.

``--seed`` makes every input: the datasets, the weight initialisation
and data order of each candidate and, on ``service-burst``, each
session's proposal stream.  The two single-search workloads draw their
proposals from the fixed stream :data:`PROPOSAL_SEED` with the aging
tournament, which picks parents by age rather than by score.  A
candidate's cost depends on its architecture by a factor of ten, and a
score-driven tournament lets the seed steer the search towards cheap or
dear architectures: 64-candidate searches under the paper's
best-of-sample tournament took 3.4-8.8 s from seed to seed.  With the
proposals fixed, the seed still changes every score (and the digest
the run checks) but not the amount of work, so runs on different seeds
compare.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import cluster
from repro.apps import get_app, make_image_dataset
from repro.checkpoint import CheckpointStore, ShardedCheckpointStore
from repro.cluster import SerialEvaluator
from repro.experiments.config import get_config
from repro.nas import (
    ActivationOp,
    DenseOp,
    FlattenOp,
    IdentityOp,
    Problem,
    RegularizedEvolution,
    SearchSpace,
)
from repro.service import AdmissionError, SearchService, SessionSpec

#: proposal stream of the single-search workloads (see module docstring)
PROPOSAL_SEED = 0


@dataclass
class Session:
    session_id: str
    state: str
    submitted_at_s: float     # from the start of the search
    last_unit: Optional[str]  # completion that finished it (DONE)
    queue_wait_s: float       # submit to first dispatch
    fault_stats: Optional[dict]


@dataclass
class Outcome:
    wall_s: float
    expected_records: int
    traces: list
    sessions: list
    #: (unit key, latency_s, completed_at_s) in completion order; the
    #: completion time counts from the start of the search
    completions: list
    admission_errors: int = 0
    rows: list = field(default_factory=list)   # (session, id, arch, score)

    @property
    def records(self) -> list:
        return [r for t in self.traces for r in t.records]


def _smoke_problem(app: str, seed: int) -> Problem:
    overrides = get_config("smoke").app_overrides[app]
    return get_app(app).problem(seed=seed, **overrides)


def _single_search(trace, wall_s: float, expected: int) -> Outcome:
    """One search is one session, submitted when the search starts."""
    records = trace.records
    completions = sorted(((str(r.candidate_id), r.end_time - r.start_time,
                           r.end_time) for r in records), key=lambda c: c[2])
    session = Session(
        session_id="search", state="done", submitted_at_s=0.0,
        last_unit=completions[-1][0] if completions else None,
        queue_wait_s=min((r.start_time for r in records), default=0.0),
        fault_stats=trace.fault_stats)
    return Outcome(wall_s=wall_s, expected_records=expected,
                   traces=[trace], sessions=[session],
                   completions=completions,
                   rows=[("search", r.candidate_id, r.arch_seq, r.score)
                         for r in records])


class EvoCifar10:
    """The paper-shaped search: LCS transfer from the parent's
    checkpoint under regularized evolution, synchronous checkpoint
    store, default engine."""

    name = "evo-cifar10"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.candidates = 8 if tiny else 64
        self.problem = _smoke_problem("cifar10", seed)
        self.strategy = RegularizedEvolution(
            self.problem.space, rng=PROPOSAL_SEED,
            population_size=4 if tiny else 16, sample_size=2 if tiny else 8,
            tournament="aging")
        self.store = CheckpointStore(Path(workdir) / "store")

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        trace = cluster.run_search(
            self.problem, self.strategy, self.candidates, scheme="lcs",
            store=self.store, evaluator=SerialEvaluator(), seed=self.seed)
        return _single_search(trace, time.perf_counter() - t0,
                              self.candidates)


class FastpathMnist:
    """Every opt-in fast path: plan engine, synflow admission (data
    agnostic, so admission does not follow the seed either) and the
    zero-copy supernet backend; no checkpoint store."""

    name = "fastpath-mnist"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.candidates = 8 if tiny else 64
        self.problem = _smoke_problem("mnist", seed)
        self.strategy = RegularizedEvolution(
            self.problem.space, rng=PROPOSAL_SEED,
            population_size=4 if tiny else 16, sample_size=2 if tiny else 8,
            tournament="aging")

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        trace = cluster.run_search(
            self.problem, self.strategy, self.candidates, scheme="lcs",
            engine="plan", zero_cost="synflow", transfer_backend="supernet",
            evaluator=SerialEvaluator(), seed=self.seed)
        return _single_search(trace, time.perf_counter() - t0,
                              self.candidates)


def burst_problem(seed: int) -> Problem:
    """A tiny dense space: training is a few milliseconds, so the
    service, journal and checkpoint layers carry the burst."""
    space = SearchSpace("burst", (4, 4, 3))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable("hidden", [DenseOp(12, "relu"), DenseOp(24, "relu"),
                                  DenseOp(24, "tanh")])
    space.add_variable("act", [IdentityOp(), ActivationOp("relu")])
    space.add_variable("extra", [IdentityOp(), DenseOp(12, "relu")])
    space.add_fixed(DenseOp(3), name="head")
    data = make_image_dataset(n_train=32, n_val=16, height=4, width=4,
                              channels=3, classes=3, seed=seed)
    return Problem("burst", space, data, learning_rate=1e-2,
                   batch_size=16)


class ServiceBurst:
    """A burst of tenant sessions on one :class:`SearchService` with a
    sharded store and per-session journals, driven to completion."""

    name = "service-burst"
    TENANTS = 8
    CANDIDATES = 8

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.num_sessions = 4 if tiny else 128
        self.problem = burst_problem(seed)
        self._stamps: list = []
        workdir = Path(workdir)
        self.service = SearchService(
            evaluator=SerialEvaluator(),
            store=ShardedCheckpointStore(workdir / "store", num_shards=4),
            journal_dir=workdir / "journals",
            max_active_sessions=8, max_pending_sessions=self.num_sessions,
            tenant_quota=1)

    def _spec(self, i: int) -> SessionSpec:
        return SessionSpec(
            problem=self.problem,
            strategy=RegularizedEvolution(self.problem.space,
                                          rng=(self.seed, i),
                                          population_size=4, sample_size=2),
            num_candidates=self.CANDIDATES, tenant=f"t{i % self.TENANTS}",
            scheme="lcs", seed=self.seed * 1000 + i,
            on_record=functools.partial(self._stamp, i))

    def _stamp(self, index: int, record) -> None:
        """The tenant's end of the record stream: when each result
        reached its tenant."""
        self._stamps.append((index, record, time.perf_counter()))

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        handles, submitted, errors = {}, {}, 0
        for i in range(self.num_sessions):
            submitted[i] = time.perf_counter()
            try:
                handles[i] = self.service.submit(self._spec(i))
            except AdmissionError:
                errors += 1
        self.service.drive()
        wall = time.perf_counter() - t0
        last_unit, completions = {}, []
        for i, record, at in self._stamps:
            key = f"{handles[i].session_id}/{record.candidate_id}"
            last_unit[i] = key
            completions.append((key, record.end_time - record.start_time,
                                at - t0))
        traces, sessions, rows = [], [], []
        for i, handle in handles.items():
            trace = handle.result()
            traces.append(trace)
            sessions.append(Session(
                session_id=handle.session_id, state=handle.poll().state,
                submitted_at_s=submitted[i] - t0,
                last_unit=last_unit.get(i),
                queue_wait_s=min((r.start_time for r in trace.records),
                                 default=0.0),
                fault_stats=trace.fault_stats))
            rows += [(handle.session_id, r.candidate_id, r.arch_seq, r.score)
                     for r in trace.records]
        return Outcome(wall_s=wall,
                       expected_records=self.num_sessions * self.CANDIDATES,
                       traces=traces, sessions=sessions,
                       completions=completions, admission_errors=errors,
                       rows=rows)


WORKLOADS = {w.name: w for w in (EvoCifar10, ServiceBurst, FastpathMnist)}


# -- layer boundaries of the traced run ---------------------------------

def _candidate(driver, cid) -> str:
    return f"{driver.key_prefix}{cid}"


def _submit_candidate(driver) -> str:
    return _candidate(driver, driver.submitted)


def _complete_candidate(driver, ticket, result) -> Optional[str]:
    pend = driver._pending.get(ticket)
    return None if pend is None else _candidate(driver,
                                                pend.record.candidate_id)


def boundaries() -> list:
    """``(owner, attribute, span name, candidate-of-call)`` for every
    wrapped layer entry point, under the name the program calls it by."""
    from repro.analysis import PreflightGate, ZeroCostGate
    from repro.cluster import TraceJournal, scheduler
    from repro.nas import estimation
    from repro.transfer import SupernetTransferBackend

    return [
        (estimation, "fit", "tensor.fit", None),
        (estimation, "evaluate", "tensor.evaluate", None),
        (Problem, "build_model", "tensor.build", None),
        (CheckpointStore, "load", "checkpoint.load", None),
        (CheckpointStore, "save", "checkpoint.save", None),
        (ShardedCheckpointStore, "load", "checkpoint.load", None),
        (ShardedCheckpointStore, "save", "checkpoint.save", None),
        (estimation, "transfer_weights", "transfer.copy", None),
        (SupernetTransferBackend, "bind", "transfer.bind", None),
        (PreflightGate, "admits", "analysis.admits", None),
        (ZeroCostGate, "proxy_score", "analysis.proxy", None),
        (RegularizedEvolution, "ask", "nas.ask", None),
        (RegularizedEvolution, "tell", "nas.tell", None),
        (TraceJournal, "append", "cluster.journal", None),
        (cluster, "run_search", "cluster.driver.run_search", None),
        (scheduler.SearchDriver, "submit_next", "cluster.driver.submit",
         _submit_candidate),
        (scheduler.SearchDriver, "complete", "cluster.driver.complete",
         _complete_candidate),
        (scheduler.SearchDriver, "finalize", "cluster.driver.finalize",
         None),
        (SearchService, "submit", "service.submit", None),
        (SearchService, "drive", "service.drive", None),
    ]


def instrument(recorder) -> None:
    for owner, attr, name, candidate in boundaries():
        recorder.wrap(owner, attr, name, candidate)
