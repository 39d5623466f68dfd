"""Discrete-event cluster simulator (paper §IX, Figs. 10-11).

The paper measures scalability on 8/16/32-GPU allocations of ThetaGPU;
we reproduce the *dynamics* with a virtual-clock simulator while keeping
the *scores* real (DESIGN.md "Virtual clock, real scores").

:meth:`SimulatedCluster.run` is an event loop over a
:class:`~repro.cluster.SearchDriver`.  The driver owns the candidate
lifecycle exactly as :func:`~repro.cluster.run_search` runs it — ask,
provider policy, provider load with quarantine, transfer, training,
checkpoint save, tell — and the simulator keeps only what a virtual
cluster alone knows:

* a heap of G GPUs with per-GPU speeds (``gpu_speeds`` models Table
  II's A100/K80 mix) and a serial dispatcher that charges
  ``dispatch_latency`` per submission plus ``proxy_seconds`` per fresh
  zero-cost score (what caps NT3's scaling in the paper);
* every completion whose virtual end time has passed is told to the
  strategy before the next ask;
* the time a candidate is charged comes from a per-application
  :class:`CostModel`: training grows affinely with the parameter count;
  each checkpoint load and save costs modelled seconds derived from the
  real checkpoint byte sizes, a supernet bind a small fixed cost.

Fault model (DESIGN.md "Fault tolerance"): ``run(faults=FaultModel(...))``
injects the cluster pathologies the paper's 32-GPU campaigns live with,
in virtual time but with *real* side effects where it matters:

* **crashes** — an attempt consumes a uniform fraction of its training
  time, then fails; the ``retry`` policy replays it (backoff, jitter
  included, charged to the virtual clock) or the candidate lands as a
  failed record;
* **stragglers** — a slow node multiplies the attempt's duration;
* **corrupt checkpoints** — the saved file is *actually truncated on
  disk*, so a later provider load genuinely raises
  :class:`CorruptCheckpointError`, is quarantined, and the child
  cold-starts.

Fault counters land in ``trace.fault_stats``, so the paper's 1.4–1.5×
speedup claims can be re-measured under failure rates (the
``ablation-faults`` experiment).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .resilience import RetryPolicy
from .scheduler import SearchDriver
from .trace import Trace


@dataclass(frozen=True)
class FaultModel:
    """Failure rates for a simulated campaign (all independent draws
    from the run's dedicated fault rng, so a seeded run replays the
    exact same fault schedule)."""

    crash_prob: float = 0.0        # attempt dies partway through training
    straggler_prob: float = 0.0    # attempt lands on a slow node
    straggler_factor: float = 4.0  # how slow that node is
    corrupt_prob: float = 0.0      # saved checkpoint is truncated on disk

    def __post_init__(self):
        for name in ("crash_prob", "straggler_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")


@dataclass(frozen=True)
class CostModel:
    """Virtual-time cost of one candidate estimation task."""

    base_seconds: float = 20.0        # fixed cost: startup, data loading
    seconds_per_param: float = 1e-4   # marginal training cost per weight
    dispatch_latency: float = 0.5     # serial scheduler, per submission
    proxy_seconds: float = 1.0        # one zero-cost proxy score (fresh)
    ckpt_latency: float = 0.05        # fixed latency per checkpoint I/O
    write_bandwidth: float = 200e6    # bytes/s, candidate -> store
    read_bandwidth: float = 400e6     # bytes/s, store -> candidate
    #: supernet view re-binding: O(tensor count) slice bookkeeping, no
    #: payload — this replaces *both* load_seconds and save_seconds on
    #: the zero-copy path, which is the entire speedup claim
    slice_seconds: float = 1e-4

    def train_seconds(self, num_params: int, speed: float = 1.0) -> float:
        return (self.base_seconds + self.seconds_per_param * num_params) / speed

    def save_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.write_bandwidth

    def load_seconds(self, nbytes: int) -> float:
        return self.ckpt_latency + nbytes / self.read_bandwidth


class _SimDriver(SearchDriver):
    """A :class:`SearchDriver` whose checkpoint I/O costs modelled
    seconds: the simulator trains for real but books virtual time."""

    def __init__(self, cost: CostModel, *args, **kw):
        super().__init__(*args, **kw)
        self.cost = cost

    def _io_seconds(self, kind, key, measured):
        nbytes = self.store.nbytes(key)
        if kind == "load":
            # paid before corruption is discovered, like a parallel FS
            return self.cost.load_seconds(nbytes)
        return self.cost.save_seconds(nbytes)


class SimulatedCluster:
    """G virtual GPUs fed by a serial dispatcher; real model training."""

    def __init__(self, problem, store, *, num_gpus: int = 8,
                 cost_model: Optional[CostModel] = None,
                 gpu_speeds: Optional[Sequence[float]] = None):
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.problem = problem
        self.store = store
        self.num_gpus = num_gpus
        self.cost = cost_model or CostModel()
        if gpu_speeds is None:
            gpu_speeds = [1.0] * num_gpus
        if len(gpu_speeds) != num_gpus:
            raise ValueError("need one speed factor per GPU")
        self.gpu_speeds = [float(s) for s in gpu_speeds]

    def run(self, strategy, num_candidates: int, *,
            scheme: str = "baseline", provider_policy="parent",
            seed: int = 0, transfer_backend="checkpoint",
            static_gate=None, zero_cost=None,
            faults: Optional[FaultModel] = None,
            retry: Optional[RetryPolicy] = None) -> Trace:
        cost = self.cost
        driver = _SimDriver(
            cost, self.problem, strategy, num_candidates,
            scheme=scheme, store=self.store,
            provider_policy=provider_policy, seed=seed,
            static_gate=static_gate, zero_cost=zero_cost,
            name=f"{self.problem.name}-{scheme}-g{self.num_gpus}",
            transfer_backend=transfer_backend,
            retry=retry or RetryPolicy(max_attempts=3, base_delay=1.0,
                                       jitter=0.0),
        )
        gate = getattr(strategy, "gate", None)
        # dedicated stream: the fault schedule never perturbs provider
        # selection, so faults=None and faults=FaultModel() (all-zero
        # rates) produce bit-identical traces
        fault_rng = np.random.default_rng((seed, 0xFA17))
        # (free_time, gpu_index) — earliest-free GPU gets the next task
        gpus = [(0.0, g) for g in range(self.num_gpus)]
        heapq.heapify(gpus)
        completions: list = []   # (end_time, candidate_id, record)
        dispatcher_free = 0.0

        def drain(until: float) -> None:
            while completions and completions[0][0] <= until:
                driver._land(heapq.heappop(completions)[2])

        for candidate_id in range(num_candidates):
            free_time, gpu = heapq.heappop(gpus)
            dispatch_at = max(dispatcher_free, free_time)
            drain(dispatch_at)
            proxied_before = gate.stats.proxy_scored if gate else 0
            pend = driver._prepare()
            record = pend.record
            dispatcher_free = dispatch_at + cost.dispatch_latency
            if gate is not None:
                # every fresh proxy score this ask triggered (rejected
                # candidates included) occupies the serial dispatcher
                fresh_scores = gate.stats.proxy_scored - proxied_before
                dispatcher_free += fresh_scores * cost.proxy_seconds
            record.start_time = dispatcher_free
            if driver.backend is not None:
                # zero-copy: only the slice bookkeeping of the bind
                record.add_io_blocked(cost.slice_seconds)

            # real training, virtual time
            result = pend.task()
            duration = cost.train_seconds(result.num_params,
                                          self.gpu_speeds[gpu])
            extra_seconds, crashed = self._inject(
                faults, fault_rng, driver, record, duration)
            driver._apply(record, result)
            if crashed:
                driver._mark_failed(record,
                                    "injected: crash (retries exhausted)")
                if driver.backend is not None and result.ok:
                    # a crashed candidate must not leave its training in
                    # the shared store: scrub its slices back to fresh
                    # values via a rebuilt model of the same shape
                    try:
                        driver.backend.scrub(self.problem.build_model(
                            record.arch_seq, rng=seed + candidate_id))
                    except Exception:
                        pass   # unbuildable arch never touched the store
            else:
                driver._keep_weights(record, result)
                if record.ckpt_bytes:
                    self._maybe_corrupt(driver, record, faults, fault_rng)
            record.end_time = (record.start_time + duration
                               + extra_seconds + record.io_blocked)
            heapq.heappush(completions,
                           (record.end_time, candidate_id, record))
            heapq.heappush(gpus, (record.end_time, gpu))

        drain(float("inf"))
        trace = driver.finalize()
        if faults is not None:
            trace.fault_stats = driver.fault_stats.as_dict()
        if gate is not None:
            # virtual proxy cost actually charged to the dispatcher
            # (wall-clock proxy_seconds in the stats is the real compute)
            trace.static_stats["proxy_virtual_seconds"] = \
                gate.stats.proxy_scored * cost.proxy_seconds
        return trace

    @staticmethod
    def _inject(faults, fault_rng, driver, record, duration):
        """Straggler and crash draws for one candidate: the extra
        virtual seconds they cost and whether retries ran out."""
        extra_seconds = 0.0
        if faults is None:
            return extra_seconds, False
        stats, retry = driver.fault_stats, driver.retry
        if faults.straggler_prob and \
                float(fault_rng.uniform()) < faults.straggler_prob:
            stats.record_fault("straggler")
            extra_seconds += duration * (faults.straggler_factor - 1.0)
        while faults.crash_prob and \
                float(fault_rng.uniform()) < faults.crash_prob:
            stats.record_fault("injected")
            # the attempt dies a uniform fraction into training
            extra_seconds += duration * float(fault_rng.uniform())
            if not retry.should_retry(record.attempts):
                stats.failed_records += 1
                return extra_seconds, True
            backoff = retry.delay(record.attempts, driver._retry_rng)
            extra_seconds += backoff
            stats.backoff_seconds += backoff
            stats.retries += 1
            record.attempts += 1
        return extra_seconds, False

    def _maybe_corrupt(self, driver, record, faults, fault_rng) -> None:
        """Draw a corrupt-write fault for the checkpoint just written;
        on a hit, truncate it on disk."""
        if faults is not None and faults.corrupt_prob and \
                float(fault_rng.uniform()) < faults.corrupt_prob:
            # genuinely truncate the file: a later provider load hits
            # CorruptCheckpointError and the quarantine path
            driver.fault_stats.record_fault("corrupt_write")
            key = driver._key(record.candidate_id)
            path = self.store.path(key)
            blob = path.read_bytes()
            path.write_bytes(blob[:max(1, len(blob) // 3)])
