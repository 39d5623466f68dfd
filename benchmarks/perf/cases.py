"""Benchmark case definitions: per-op micro cases + the e2e meso case.

Every case compares the optimized hot path against the frozen baselines
in ``repro.tensor.reference_ops``.  Two numbers matter per case:

- ``legacy_f64_ms`` — the baseline kernel fed float64 activations, which
  is what the old stack actually ran (the float64 datasets promoted every
  matmul);
- ``new_f32_ms`` — the optimized kernel under the float32 dtype
  discipline now enforced end-to-end.

``legacy_f32_ms`` (baseline kernel, float32 input) is recorded too, so
the dtype effect and the structural kernel effect can be separated.  For
dense/batchnorm the kernel is structurally unchanged — those rows
measure the dtype discipline alone.
"""

from __future__ import annotations

import contextlib

import numpy as np

import repro.tensor.autodiff_ops as ops
import repro.tensor.optimizers as optimizers
import repro.tensor.reference_ops as ref
from repro.tensor import fit
from repro.tensor.training import EVAL_BATCH_SIZE, evaluate

from .timing import bench_ms, peak_traced_bytes

SEED = 0

#: fixed CIFAR-10 candidate (21 variable nodes, see repro.apps.cifar10):
#: (16,3,relu)/(32,3,relu) convs, one max-pool + batch-norm per block,
#: dense 64 -> dense 32 head-side
CIFAR10_CANDIDATE_SEQ = (
    4, 1, 1, 4, 0, 1, 12, 1, 1, 12, 0, 1, 12, 1, 1, 12, 0, 1, 3, 2, 0,
)


# ---------------------------------------------------------------------------
# legacy-stack patching (for the e2e baseline)
# ---------------------------------------------------------------------------

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
    """Swap the optimized kernels + optimizer updates for the frozen
    pre-optimization implementations (the e2e 'before' configuration)."""
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


# ---------------------------------------------------------------------------
# micro cases
# ---------------------------------------------------------------------------


def _fwdbwd_case(fwd, bwd, x, *args):
    """Closure running one forward+backward with gout = out."""
    def run():
        out, cache = fwd(x, *args)
        return bwd(out, cache)
    return run


def _timings(run_legacy64, run_legacy32, run_new32, rounds, warmup):
    legacy64 = bench_ms(run_legacy64, rounds=rounds, warmup=warmup)
    legacy32 = bench_ms(run_legacy32, rounds=rounds, warmup=warmup)
    new32 = bench_ms(run_new32, rounds=rounds, warmup=warmup)
    return {
        "legacy_f64_ms": round(legacy64, 4),
        "legacy_f32_ms": round(legacy32, 4),
        "new_f32_ms": round(new32, 4),
        "speedup_vs_legacy_stack": round(legacy64 / new32, 3),
        "speedup_same_dtype": round(legacy32 / new32, 3),
        "legacy_peak_traced_bytes": peak_traced_bytes(run_legacy64),
        "new_peak_traced_bytes": peak_traced_bytes(run_new32),
    }


def conv2d_case(rounds, warmup):
    rng = np.random.default_rng(SEED)
    n, h, w, c, f, k = 32, 12, 12, 16, 16, 3
    x32 = rng.normal(size=(n, h, w, c)).astype(np.float32)
    x64 = x32.astype(np.float64)
    kern = rng.normal(size=(k, k, c, f)).astype(np.float32)
    bias = np.zeros(f, dtype=np.float32)
    result = _timings(
        _fwdbwd_case(ref.conv2d_forward, ref.conv2d_backward, x64, kern, bias),
        _fwdbwd_case(ref.conv2d_forward, ref.conv2d_backward, x32, kern, bias),
        _fwdbwd_case(ops.conv2d_forward, ops.conv2d_backward, x32, kern, bias),
        rounds, warmup,
    )
    # conv-layer cache footprint at float32 (what forward keeps alive
    # until backward): legacy caches the full im2col matrix, the new
    # kernel caches only the padded input
    _, legacy_cache = ref.conv2d_forward(x32, kern, bias)
    _, new_cache = ops.conv2d_forward(x32, kern, bias)
    legacy_bytes = int(legacy_cache[1].nbytes)       # cols
    new_bytes = int(new_cache[0].nbytes)             # xp
    result.update({
        "shape": f"x=(N{n},H{h},W{w},C{c}) k={k} f={f} same",
        "legacy_cache_bytes": legacy_bytes,
        "new_cache_bytes": new_bytes,
        "cache_reduction": round(legacy_bytes / new_bytes, 2),
    })
    return result


def conv1d_case(rounds, warmup):
    rng = np.random.default_rng(SEED)
    n, length, c, f, k = 32, 256, 4, 8, 3
    x32 = rng.normal(size=(n, length, c)).astype(np.float32)
    x64 = x32.astype(np.float64)
    kern = rng.normal(size=(k, c, f)).astype(np.float32)
    bias = np.zeros(f, dtype=np.float32)
    result = _timings(
        _fwdbwd_case(ref.conv1d_forward, ref.conv1d_backward, x64, kern, bias),
        _fwdbwd_case(ref.conv1d_forward, ref.conv1d_backward, x32, kern, bias),
        _fwdbwd_case(ops.conv1d_forward, ops.conv1d_backward, x32, kern, bias),
        rounds, warmup,
    )
    result["shape"] = f"x=(N{n},L{length},C{c}) k={k} f={f} same"
    return result


def dense_case(rounds, warmup):
    rng = np.random.default_rng(SEED)
    n, din, dout = 256, 256, 128
    x32 = rng.normal(size=(n, din)).astype(np.float32)
    x64 = x32.astype(np.float64)
    kern = rng.normal(size=(din, dout)).astype(np.float32)
    bias = np.zeros(dout, dtype=np.float32)
    result = _timings(
        _fwdbwd_case(ops.dense_forward, ops.dense_backward, x64, kern, bias),
        _fwdbwd_case(ops.dense_forward, ops.dense_backward, x32, kern, bias),
        _fwdbwd_case(ops.dense_forward, ops.dense_backward, x32, kern, bias),
        rounds, warmup,
    )
    result["shape"] = f"x=(N{n},D{din}) -> {dout} (dtype effect only)"
    return result


def maxpool2d_case(rounds, warmup):
    rng = np.random.default_rng(SEED)
    n, h, w, c, p = 32, 12, 12, 32, 2
    x32 = rng.normal(size=(n, h, w, c)).astype(np.float32)
    x64 = x32.astype(np.float64)
    result = _timings(
        _fwdbwd_case(ref.maxpool2d_forward, ref.maxpool2d_backward, x64, p),
        _fwdbwd_case(ref.maxpool2d_forward, ref.maxpool2d_backward, x32, p),
        _fwdbwd_case(ops.maxpool2d_forward, ops.maxpool2d_backward, x32, p),
        rounds, warmup,
    )
    _, legacy_cache = ref.maxpool2d_forward(x32, p)
    _, new_cache = ops.maxpool2d_forward(x32, p)
    result.update({
        "shape": f"x=(N{n},H{h},W{w},C{c}) p={p}",
        "legacy_cache_bytes": int(legacy_cache[0].nbytes),   # bool mask
        "new_cache_bytes": int(new_cache[0].nbytes),         # uint8 argmax
    })
    return result


def maxpool1d_case(rounds, warmup):
    rng = np.random.default_rng(SEED)
    n, length, c, p = 32, 256, 8, 2
    x32 = rng.normal(size=(n, length, c)).astype(np.float32)
    x64 = x32.astype(np.float64)
    result = _timings(
        _fwdbwd_case(ref.maxpool1d_forward, ref.maxpool1d_backward, x64, p),
        _fwdbwd_case(ref.maxpool1d_forward, ref.maxpool1d_backward, x32, p),
        _fwdbwd_case(ops.maxpool1d_forward, ops.maxpool1d_backward, x32, p),
        rounds, warmup,
    )
    result["shape"] = f"x=(N{n},L{length},C{c}) p={p}"
    return result


def batchnorm_case(rounds, warmup):
    rng = np.random.default_rng(SEED)
    n, h, w, c = 32, 12, 12, 32
    x32 = rng.normal(size=(n, h, w, c)).astype(np.float32)
    x64 = x32.astype(np.float64)
    gamma = np.ones(c, dtype=np.float32)
    beta = np.zeros(c, dtype=np.float32)

    def case(x):
        def run():
            axes = tuple(range(x.ndim - 1))
            mean, var = x.mean(axis=axes), x.var(axis=axes)
            out, cache = ops.batchnorm_forward(x, gamma, beta, mean, var,
                                               batch_stats=True)
            return ops.batchnorm_backward(out, cache)
        return run

    result = _timings(case(x64), case(x32), case(x32), rounds, warmup)
    result["shape"] = f"x=(N{n},H{h},W{w},C{c}) train (dtype effect only)"
    return result


def adam_step_case(rounds, warmup):
    rng = np.random.default_rng(SEED)
    shape = (3, 3, 32, 64)
    grad = rng.normal(size=shape).astype(np.float32)

    param_legacy = rng.normal(size=shape).astype(np.float32)
    state = {}

    def run_legacy():
        nonlocal param_legacy
        param_legacy = ref.adam_update(
            param_legacy, grad.astype(np.float32), state, learning_rate=1e-3)

    param_new = param_legacy.copy()
    opt = optimizers.Adam(learning_rate=1e-3)

    def run_new():
        opt._update("p", param_new, grad)

    legacy = bench_ms(run_legacy, rounds=rounds, warmup=warmup)
    new = bench_ms(run_new, rounds=rounds, warmup=warmup)
    return {
        "shape": f"param {shape} ({int(np.prod(shape))} elems)",
        "legacy_f32_ms": round(legacy, 4),
        "new_f32_ms": round(new, 4),
        "speedup_same_dtype": round(legacy / new, 3),
        "legacy_peak_traced_bytes": peak_traced_bytes(run_legacy),
        "new_peak_traced_bytes": peak_traced_bytes(run_new),
    }


MICRO_CASES = {
    "conv2d_fwdbwd": conv2d_case,
    "conv1d_fwdbwd": conv1d_case,
    "dense_fwdbwd": dense_case,
    "maxpool2d_fwdbwd": maxpool2d_case,
    "maxpool1d_fwdbwd": maxpool1d_case,
    "batchnorm_fwdbwd": batchnorm_case,
    "adam_step": adam_step_case,
}


# ---------------------------------------------------------------------------
# e2e meso case: one CIFAR-10 candidate training run
# ---------------------------------------------------------------------------


def e2e_candidate_train_case(rounds, warmup, epochs=2):
    from repro.apps import cifar10

    prob = cifar10.problem(seed=SEED)
    ds = prob.dataset
    seq = prob.space.validate_seq(CIFAR10_CANDIDATE_SEQ)

    def train(x_train, y_train, x_val, y_val):
        model = prob.build_model(seq, rng=SEED)
        fit(model, x_train, y_train, x_val=x_val, y_val=y_val,
            epochs=epochs, batch_size=prob.batch_size, loss=ds.loss,
            metric=ds.metric, optimizer=prob.optimizer,
            learning_rate=prob.learning_rate, rng=SEED)
        return evaluate(model, x_val, y_val, ds.metric)

    x64 = ds.x_train.astype(np.float64)
    y64 = ds.y_train.astype(np.float64)
    xv64 = ds.x_val.astype(np.float64)
    yv64 = ds.y_val.astype(np.float64)

    def run_new():
        return train(ds.x_train, ds.y_train, ds.x_val, ds.y_val)

    def run_legacy():
        with legacy_stack():
            return train(x64, y64, xv64, yv64)

    legacy = bench_ms(run_legacy, rounds=rounds, warmup=warmup)
    new = bench_ms(run_new, rounds=rounds, warmup=warmup)
    return {
        "workload": (f"cifar10 candidate {list(seq)}, "
                     f"n_train={len(ds.y_train)}, epochs={epochs}, "
                     f"batch={prob.batch_size}, eval_batch={EVAL_BATCH_SIZE}"),
        "epochs": epochs,
        "legacy_ms": round(legacy, 3),
        "new_ms": round(new, 3),
        "speedup": round(legacy / new, 3),
        "legacy_peak_traced_bytes": peak_traced_bytes(run_legacy),
        "new_peak_traced_bytes": peak_traced_bytes(run_new),
    }
