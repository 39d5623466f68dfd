"""Timed perf gates for the training hot path, checkpoint I/O, zero-cost
admission and the supernet backend.

Run pinned to one CPU, against the committed baseline::

    PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1 taskset -c 0 \\
        python -m pytest benchmarks/test_perf_gates.py \\
        --benchmark-compare=benchmarks/perf_baseline.json \\
        --benchmark-compare-fail=median:100% \\
        --benchmark-json=perf_gates.json

Three kinds of gate live here:

* **drift** — every test with a ``benchmark`` argument times one body
  under ``benchmark.pedantic`` (``ROUNDS`` rounds after ``WARMUP``
  warmup rounds).  ``--benchmark-compare-fail=median:100%`` fails a body
  whose median is more than 2x the baseline's.
* **ratio** — the same test times the frozen side (reference kernels, a
  pickle round trip, a checkpoint handoff, ...) as the median of
  ``timeit.repeat`` and asserts the floor the timed body keeps over it.
* **bars** — the zero-cost and supernet acceptance bars, measured fresh
  at full size on every run (10-20 s each).  Which zero-cost scorer the
  headline picks depends on measured proxy cost.

End-to-end search throughput is perfbench's job (``perfbench/run.py``);
deterministic invariants (zero-copy binds, fault isolation) are tier-1
tests under ``tests/``.

The baseline is one pytest-benchmark JSON.  Re-record it from the parent
commit's code with the command above, replacing the compare options by
``--benchmark-json=benchmarks/perf_baseline.json``; a change that moves a
timed body on purpose re-records that body's entry from its own code.
"""

from __future__ import annotations

import contextlib
import pickle
import statistics
import time
import timeit

import numpy as np
import pytest

import repro.tensor.autodiff_ops as ops
import repro.tensor.optimizers as optimizers
import repro.tensor.reference_ops as ref
from repro.analysis.zerocost import SCORERS, get_scorer, proxy_batch
from repro.apps import get_app, make_image_dataset
from repro.apps.mnist import problem as mnist_problem
from repro.checkpoint import CheckpointStore
from repro.cluster import run_search
from repro.cluster.transport import (
    _ATTACH_CACHE_MAX,
    load_handle_weights,
    make_transport,
)
from repro.experiments.zerocost import (
    MAX_PROXY_EPOCH_FRAC,
    MAX_TAU_DROP,
    MIN_EVALS_CUT,
    PROXY_BATCH_SIZE,
    headline_verdict,
    measure_frontier,
)
from repro.metrics import kendall_tau
from repro.nas import (
    ActivationOp,
    DenseOp,
    FlattenOp,
    IdentityOp,
    Problem,
    RandomSearch,
    SearchSpace,
    estimate_candidate,
)
from repro.tensor import fit
from repro.tensor.training import evaluate
from repro.transfer import SuperNet, SupernetTransferBackend, transfer_weights

SEED = 0
ROUNDS = 15
WARMUP = 3
#: fixed CIFAR-10 candidate: (16,3,relu)/(32,3,relu) convs, one max-pool
#: and batch-norm per block, dense 64 -> dense 32 head-side
CIFAR10_SEQ = (4, 1, 1, 4, 0, 1, 12, 1, 1, 12, 0, 1, 12, 1, 1, 12, 0, 1,
               3, 2, 0)


def timed(benchmark, fn) -> float:
    """Time ``fn`` as this test's drift-gated body; median seconds."""
    benchmark.pedantic(fn, rounds=ROUNDS, warmup_rounds=WARMUP)
    return benchmark.stats.stats.median


def frozen(fn, *, repeat: int = ROUNDS) -> float:
    """Median seconds of the frozen side of a ratio gate."""
    for _ in range(WARMUP):
        fn()
    return statistics.median(timeit.repeat(fn, number=1, repeat=repeat))


def dense_problem() -> Problem:
    """Dense app with ~1 MB checkpoints, so per-candidate checkpoint I/O
    is a visible share of a candidate's turnaround."""
    space = SearchSpace("bench-dense", (6, 6, 2))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable("dense0", [
        DenseOp(256, "relu"), DenseOp(384, "relu"), DenseOp(512, "relu"),
    ])
    space.add_variable("act0", [IdentityOp(), ActivationOp("relu")])
    space.add_variable("dense1", [DenseOp(256, "relu"), DenseOp(512, "relu")])
    space.add_fixed(DenseOp(4), name="head")
    ds = make_image_dataset(n_train=64, n_val=32, height=6, width=6,
                            channels=2, classes=4, seed=SEED)
    return Problem("bench-dense", space, ds, learning_rate=1e-2,
                   batch_size=32, estimation_epochs=1, max_epochs=3,
                   es_min_epochs=2)


# ---------------------------------------------------------------------------
# kernels vs the frozen reference_ops
# ---------------------------------------------------------------------------

def _fwdbwd(fwd, bwd, x, *args):
    def run():
        out, cache = fwd(x, *args)
        return bwd(out, cache)
    return run


def _conv2d(mod, dtype):
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(32, 12, 12, 16)).astype(dtype)
    kern = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
    return _fwdbwd(mod.conv2d_forward, mod.conv2d_backward, x, kern,
                   np.zeros(16, dtype=np.float32))


def _conv1d(mod, dtype):
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(32, 256, 4)).astype(dtype)
    kern = rng.normal(size=(3, 4, 8)).astype(np.float32)
    return _fwdbwd(mod.conv1d_forward, mod.conv1d_backward, x, kern,
                   np.zeros(8, dtype=np.float32))


def _dense(mod, dtype):
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=(256, 256)).astype(dtype)
    kern = rng.normal(size=(256, 128)).astype(np.float32)
    return _fwdbwd(mod.dense_forward, mod.dense_backward, x, kern,
                   np.zeros(128, dtype=np.float32))


def _maxpool2d(mod, dtype):
    x = np.random.default_rng(SEED).normal(size=(32, 12, 12, 32))
    return _fwdbwd(mod.maxpool2d_forward, mod.maxpool2d_backward,
                   x.astype(dtype), 2)


def _avgpool2d(mod, dtype):
    x = np.random.default_rng(SEED).normal(size=(32, 12, 12, 32))
    return _fwdbwd(mod.avgpool2d_forward, mod.avgpool2d_backward,
                   x.astype(dtype), 2)


def _maxpool1d(mod, dtype):
    x = np.random.default_rng(SEED).normal(size=(32, 256, 8))
    return _fwdbwd(mod.maxpool1d_forward, mod.maxpool1d_backward,
                   x.astype(dtype), 2)


def _batchnorm(mod, dtype):
    x = np.random.default_rng(SEED).normal(size=(32, 12, 12, 32))
    x = x.astype(dtype)
    gamma = np.ones(32, dtype=np.float32)
    beta = np.zeros(32, dtype=np.float32)

    def run():
        mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
        out, cache = mod.batchnorm_forward(x, gamma, beta, mean, var,
                                           batch_stats=True)
        return mod.batchnorm_backward(out, cache)
    return run


#: forward+backward bodies, built as ``case(module, activation dtype)``
KERNELS = {
    "conv2d_fwdbwd": _conv2d,
    "conv1d_fwdbwd": _conv1d,
    "dense_fwdbwd": _dense,
    "maxpool2d_fwdbwd": _maxpool2d,
    "avgpool2d_fwdbwd": _avgpool2d,
    "maxpool1d_fwdbwd": _maxpool1d,
    "batchnorm_fwdbwd": _batchnorm,
}
#: speed-up floors over the old stack (float64 activations; the frozen
#: kernel where one exists, the unchanged dense kernel otherwise)
LEGACY_FLOORS = {
    "conv2d_fwdbwd": (ref, 1.5),
    "dense_fwdbwd": (ops, 1.2),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel(benchmark, name):
    new = timed(benchmark, KERNELS[name](ops, np.float32))
    if name in LEGACY_FLOORS:
        mod, floor = LEGACY_FLOORS[name]
        legacy = frozen(KERNELS[name](mod, np.float64))
        assert legacy / new >= floor, (legacy, new)


def test_adam_step(benchmark):
    rng = np.random.default_rng(SEED)
    grad = rng.normal(size=(3, 3, 32, 64)).astype(np.float32)
    param = rng.normal(size=grad.shape).astype(np.float32)
    opt = optimizers.Adam(learning_rate=1e-3)
    timed(benchmark, lambda: opt._update("p", param, grad))


_PATCHED_OPS = (
    "conv2d_forward", "conv2d_backward", "conv1d_forward", "conv1d_backward",
    "maxpool2d_forward", "maxpool2d_backward",
    "maxpool1d_forward", "maxpool1d_backward",
)
#: patched backward kernels that layers call with a ``need_gx`` flag; the
#: frozen kernels predate it and always compute the input gradient
_NEED_GX_OPS = ("conv2d_backward", "conv1d_backward")


def _ignore_need_gx(fn):
    def backward(gout, cache, need_gx=True):
        return fn(gout, cache)
    return backward


def _legacy_step(self, network):
    grads, slots = [], []
    for name, layer, pname in network.trainable():
        g = layer.grads.get(pname)
        if g is None:
            continue
        grads.append(g)
        slots.append((name, layer, pname))
    if not grads:
        return
    if self.clipnorm is not None:
        grads = ref.clip_gradients(grads, self.clipnorm)
    self.iterations += 1
    for (name, layer, pname), g in zip(slots, grads):
        layer.params[pname] = self._legacy_update(
            name, layer.params[pname], g.astype(np.float32))


def _legacy_state(self, name):
    return self.__dict__.setdefault("_legacy_states", {}).setdefault(name, {})


def _legacy_sgd_update(self, name, param, grad):
    return ref.sgd_update(param, grad, _legacy_state(self, name),
                          learning_rate=self.learning_rate,
                          momentum=self.momentum)


def _legacy_adam_update(self, name, param, grad):
    return ref.adam_update(param, grad, _legacy_state(self, name),
                           learning_rate=self.learning_rate,
                           beta1=self.beta1, beta2=self.beta2, eps=self.eps)


def _legacy_rmsprop_update(self, name, param, grad):
    return ref.rmsprop_update(param, grad, _legacy_state(self, name),
                              learning_rate=self.learning_rate,
                              rho=self.rho, eps=self.eps)


@contextlib.contextmanager
def legacy_stack():
    """Swap the optimized kernels and optimizer updates for the frozen
    pre-optimization implementations."""
    saved_ops = {n: getattr(ops, n) for n in _PATCHED_OPS}
    saved_step = optimizers.Optimizer.step
    try:
        for n in _PATCHED_OPS:
            fn = getattr(ref, n)
            setattr(ops, n, _ignore_need_gx(fn) if n in _NEED_GX_OPS else fn)
        optimizers.Optimizer.step = _legacy_step
        optimizers.SGD._legacy_update = _legacy_sgd_update
        optimizers.Adam._legacy_update = _legacy_adam_update
        optimizers.RMSProp._legacy_update = _legacy_rmsprop_update
        yield
    finally:
        for n, fn in saved_ops.items():
            setattr(ops, n, fn)
        optimizers.Optimizer.step = saved_step
        for cls in (optimizers.SGD, optimizers.Adam, optimizers.RMSProp):
            if "_legacy_update" in cls.__dict__:
                delattr(cls, "_legacy_update")


def test_candidate_train(benchmark):
    """One CIFAR-10 candidate trained for 2 epochs and validated: float32
    and the optimized kernels vs float64 data on the legacy stack."""
    prob = get_app("cifar10").problem(seed=SEED)
    ds = prob.dataset
    seq = prob.space.validate_seq(CIFAR10_SEQ)

    def train(x_train, y_train, x_val, y_val):
        model = prob.build_model(seq, rng=SEED)
        fit(model, x_train, y_train, x_val=x_val, y_val=y_val, epochs=2,
            batch_size=prob.batch_size, loss=ds.loss, metric=ds.metric,
            optimizer=prob.optimizer, learning_rate=prob.learning_rate,
            rng=SEED)
        return evaluate(model, x_val, y_val, ds.metric)

    data64 = [a.astype(np.float64)
              for a in (ds.x_train, ds.y_train, ds.x_val, ds.y_val)]

    def train_legacy():
        with legacy_stack():
            return train(*data64)

    new = timed(benchmark, lambda: train(ds.x_train, ds.y_train, ds.x_val,
                                         ds.y_val))
    legacy = frozen(train_legacy, repeat=5)
    assert legacy / new >= 1.1, (legacy, new)


# ---------------------------------------------------------------------------
# provider transport
# ---------------------------------------------------------------------------

def bench_weights() -> dict:
    """A ~1 MB named-tensor dict shaped like a small dense candidate."""
    rng = np.random.default_rng(SEED)
    return {
        "dense0.kernel": rng.normal(size=(72, 512)).astype(np.float32),
        "dense0.bias": np.zeros(512, dtype=np.float32),
        "dense1.kernel": rng.normal(size=(512, 512)).astype(np.float32),
        "dense1.bias": np.zeros(512, dtype=np.float32),
        "head.kernel": rng.normal(size=(512, 4)).astype(np.float32),
        "head.bias": np.zeros(4, dtype=np.float32),
    }


def test_attach(benchmark):
    """Resolving providers a worker has attached vs pickling the weights
    across on every task."""
    w = bench_weights()
    payload = pickle.dumps(w)
    with make_transport("auto") as transport:
        # as many distinct providers as a worker keeps attached, so each
        # resolve in a round is a warm hit on a different segment
        handles = [transport.publish(f"prov{i}", w)
                   for i in range(_ATTACH_CACHE_MAX)]
        attach = timed(benchmark, lambda: [load_handle_weights(h)
                                           for h in handles]) / len(handles)
        assert len(pickle.dumps(handles[0])) * 100 <= len(payload)
    round_trip = frozen(lambda: pickle.loads(pickle.dumps(w)))
    assert attach < round_trip, (attach, round_trip)


# ---------------------------------------------------------------------------
# zero-cost admission
# ---------------------------------------------------------------------------

ZC_APPS = ("cifar10", "mnist")


@pytest.mark.parametrize("scorer", sorted(SCORERS))
@pytest.mark.parametrize("app", ZC_APPS)
def test_proxy_score(benchmark, ctx, app, scorer):
    """One proxy score vs one estimation epoch of the same candidate."""
    problem = ctx.problem(app)
    seq = problem.space.sample(np.random.default_rng(SEED))
    batch = proxy_batch(problem.dataset,
                        min(PROXY_BATCH_SIZE, problem.batch_size))
    score = get_scorer(scorer).score
    proxy = timed(benchmark, lambda: score(problem, seq, seed=SEED,
                                           batch=batch))
    epoch = frozen(lambda: estimate_candidate(problem, seq, seed=SEED),
                   repeat=5) / max(problem.estimation_epochs, 1)
    assert proxy < epoch, (proxy, epoch)


@pytest.mark.parametrize("app", ZC_APPS)
def test_zerocost_bars(ctx, app):
    """The cascade's acceptance bars on 60 sampled candidates."""
    n = 60
    study, rows = measure_frontier(ctx.problem(app), n_candidates=n,
                                   seed=SEED)
    headline = headline_verdict(study, rows)
    assert headline["evals_cut"] >= MIN_EVALS_CUT, headline
    assert headline["tau_drop"] <= MAX_TAU_DROP, headline
    assert headline["proxy_epoch_frac"] < MAX_PROXY_EPOCH_FRAC, headline

    (partial,) = [r for r in rows if r.tier == "partial"]
    cascades = [r for r in rows if r.tier == "cascade"]
    assert partial.partial_evals == n
    assert all(0 < r.partial_evals < n for r in cascades)
    assert all(-1.0 <= r.tau <= 1.0 for r in cascades)
    assert min(r.cost_seconds for r in cascades) < partial.cost_seconds


# ---------------------------------------------------------------------------
# supernet transfer backend
# ---------------------------------------------------------------------------

def test_supernet_bind(benchmark, tmp_path):
    """A view re-bind vs a checkpoint handoff (load, selective LCS copy,
    compressed save) for the same provider/receiver pair."""
    problem = dense_problem()
    rng = np.random.default_rng(SEED)
    provider_arch = problem.space.sample(rng)
    receiver_arch = problem.space.sample(rng)
    provider_weights = problem.build_model(provider_arch, rng=1).get_weights()
    assert sum(a.nbytes for a in provider_weights.values()) > 1_000_000

    store = CheckpointStore(tmp_path, compress=True)
    store.save("prov", provider_weights)
    backend = SupernetTransferBackend(SuperNet(problem.space, seed=SEED))
    backend.bind(problem.build_model(provider_arch, rng=1))

    def bind():
        backend.bind(problem.build_model(receiver_arch, rng=2),
                     provider_arch)

    def checkpoint_handoff():
        receiver = problem.build_model(receiver_arch, rng=2)
        transfer_weights(receiver, store.load("prov"), matcher="lcs")
        store.save("cand", receiver.get_weights())

    bound = timed(benchmark, bind)
    handoff = frozen(checkpoint_handoff)
    assert handoff / bound >= 5.0, (handoff, bound)


def _backend_race(problem, n, tmp_path):
    """The same random-search trace under LCS with a compressed store
    and under the supernet backend, both scored against a 3x-longer cold
    reference."""
    def one_run(**kw):
        t0 = time.perf_counter()
        trace = run_search(problem, RandomSearch(problem.space, rng=SEED), n,
                           scheme="lcs", provider_policy="nearest",
                           seed=SEED, **kw)
        return trace, time.perf_counter() - t0

    lcs, lcs_wall = one_run(store=CheckpointStore(tmp_path, compress=True))
    sup, sup_wall = one_run(transfer_backend="supernet")
    archs = [r.arch_seq for r in lcs.records]
    assert archs == [r.arch_seq for r in sup.records]
    reference = [
        estimate_candidate(problem, arch, seed=SEED + cid,
                           epochs=3 * problem.estimation_epochs).score
        for cid, arch in enumerate(archs)]
    tau_lcs = kendall_tau([r.score for r in lcs.records], reference)
    tau_sup = kendall_tau([r.score for r in sup.records], reference)
    return lcs, sup, lcs_wall / sup_wall, abs(tau_sup - tau_lcs)


def test_supernet_bars(tmp_path):
    """At least one app is >= 1.3x faster end to end with the supernet
    backend while its Kendall tau stays within 0.03 of LCS."""
    races = {
        "dense": _backend_race(dense_problem(), 24, tmp_path / "dense"),
        "mnist": _backend_race(mnist_problem(seed=SEED), 48,
                               tmp_path / "mnist"),
    }
    for app, (lcs, sup, _, _) in races.items():
        assert lcs.transfer_stats["copied_bytes"] > 0, app
        assert sup.transfer_stats["copied_bytes"] == 0, app
        assert sup.transfer_stats["resliced_params"] > 0, app
        blocked = statistics.fmean(r.io_blocked for r in sup.records)
        assert blocked <= 0.5e-3, (app, blocked)
    speedups = {app: race[2] for app, race in races.items()}
    tau_deltas = {app: race[3] for app, race in races.items()}
    assert max(speedups.values()) >= 1.1, speedups
    assert any(speedups[a] >= 1.3 and tau_deltas[a] <= 0.03 for a in races), \
        (speedups, tau_deltas)
