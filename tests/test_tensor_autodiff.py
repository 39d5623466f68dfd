"""Gradient checks: backprop vs central finite differences."""

import numpy as np
import pytest

from repro.nas import (
    ActivationOp,
    AvgPool1DOp,
    AvgPool2DOp,
    BatchNormOp,
    ConcatenateOp,
    Conv1DOp,
    Conv2DOp,
    DenseOp,
    FlattenOp,
    MaxPool1DOp,
    MaxPool2DOp,
    SearchSpace,
)
from repro.tensor import get_loss

EPS = 1e-3
RTOL = 5e-2


def _fixed_space(input_shape, ops):
    space = SearchSpace("gradcheck", input_shape)
    for i, op in enumerate(ops):
        space.add_fixed(op, name=f"n{i}")
    return space


def _loss_of(network, x, y, loss_fn):
    lval, _ = loss_fn(network.forward(x, training=False), y)
    return float(lval)


def _check_gradients(space, input_shape, classes=3, loss="mse"):
    rng = np.random.default_rng(0)
    network = space.build_network((), np.random.default_rng(1))
    x = rng.normal(size=(4,) + input_shape).astype(np.float64)
    out_dim = network.layers[-1].output_shape[0]
    if loss == "categorical_crossentropy":
        y = np.eye(out_dim, dtype=np.float64)[rng.integers(0, out_dim, 4)]
    else:
        y = rng.normal(size=(4, out_dim))
    loss_fn = get_loss(loss)

    logits = network.forward(x, training=False)
    _, grad = loss_fn(logits, y)
    network.backward(grad)

    checked = 0
    for name, layer, pname in network.trainable():
        analytic = layer.grads[pname]
        flat = layer.params[pname].reshape(-1)
        idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + EPS
            hi = _loss_of(network, x, y, loss_fn)
            flat[i] = orig - EPS
            lo = _loss_of(network, x, y, loss_fn)
            flat[i] = orig
            numeric = (hi - lo) / (2 * EPS)
            a = float(analytic.reshape(-1)[i])
            assert a == pytest.approx(numeric, rel=RTOL, abs=1e-3), (
                f"{name}.{pname}[{i}]: analytic={a} numeric={numeric}")
            checked += 1
    assert checked > 0


def test_dense_gradients():
    space = _fixed_space((5,), [DenseOp(7, "tanh"), DenseOp(3)])
    _check_gradients(space, (5,))


def test_dense_crossentropy_gradients():
    space = _fixed_space((5,), [DenseOp(6, "relu"), DenseOp(3)])
    _check_gradients(space, (5,), loss="categorical_crossentropy")


def test_conv2d_pipeline_gradients():
    space = _fixed_space((6, 6, 2), [
        Conv2DOp(3, kernel_size=3, activation="tanh"),
        MaxPool2DOp(),
        FlattenOp(),
        DenseOp(3),
    ])
    _check_gradients(space, (6, 6, 2))


def test_conv1d_pipeline_gradients():
    space = _fixed_space((8, 2), [
        Conv1DOp(3, kernel_size=3, activation="tanh"),
        AvgPool1DOp(),
        FlattenOp(),
        DenseOp(3),
    ])
    _check_gradients(space, (8, 2))


def test_batchnorm_gradients():
    # Inference-mode check: running statistics are constants, so the
    # finite-difference loss stays a pure function of gamma/beta.
    space = _fixed_space((5,), [DenseOp(6), BatchNormOp(), DenseOp(3)])
    _check_gradients(space, (5,))


# ---------------------------------------------------------------------------
# the training step: forward(training=True) -> loss -> backward
# ---------------------------------------------------------------------------


def _train_loss(network, x, y, loss_fn):
    lval, grad = loss_fn(network.forward(x, training=True), y)
    return float(lval), grad


def _check_train_step_gradients(space, loss="mse"):
    """FD-check the gradients of the step ``fit`` runs against its own
    loss.

    This reaches what the inference-mode checks above cannot: batch
    statistics for BatchNorm, multi-input concat and fan-out gradient
    accumulation.  Nothing in these spaces draws randomness, so the
    training-mode loss is a pure function of the parameters.
    """
    rng = np.random.default_rng(0)
    network = space.build_network((), np.random.default_rng(1))
    n = 4
    xs = [rng.normal(size=(n,) + tuple(s)).astype(np.float64)
          for s in network.input_shapes]
    x = xs if len(xs) > 1 else xs[0]
    out_dim = network.layers[-1].output_shape[0]
    if loss == "categorical_crossentropy":
        y = np.eye(out_dim, dtype=np.float64)[rng.integers(0, out_dim, n)]
    else:
        y = rng.normal(size=(n, out_dim))
    loss_fn = get_loss(loss)
    _, grad = _train_loss(network, x, y, loss_fn)
    network.backward(grad)
    analytic = {(name, pname): layer.grads[pname].copy()
                for name, layer, pname in network.trainable()}

    checked = 0
    for name, layer, pname in network.trainable():
        flat = layer.params[pname].reshape(-1)
        pick = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for i in pick:
            orig = flat[i]
            flat[i] = orig + EPS
            hi, _ = _train_loss(network, x, y, loss_fn)
            flat[i] = orig - EPS
            lo, _ = _train_loss(network, x, y, loss_fn)
            flat[i] = orig
            numeric = (hi - lo) / (2 * EPS)
            a = float(analytic[(name, pname)].reshape(-1)[i])
            assert a == pytest.approx(numeric, rel=RTOL, abs=1e-3), (
                f"{name}.{pname}[{i}]: analytic={a} numeric={numeric}")
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("act", ["relu", "tanh", "sigmoid", "elu"])
def test_train_step_dense_activation_gradients(act):
    _check_train_step_gradients(
        _fixed_space((5,), [DenseOp(7, act), DenseOp(3)]))


def test_train_step_softmax_crossentropy_gradients():
    _check_train_step_gradients(
        _fixed_space((5,), [DenseOp(6, "relu"), DenseOp(3)]),
        loss="categorical_crossentropy")


def test_train_step_mae_gradients():
    _check_train_step_gradients(
        _fixed_space((5,), [DenseOp(6, "tanh"), DenseOp(2)]), loss="mae")


def test_train_step_conv2d_maxpool_gradients():
    _check_train_step_gradients(
        _fixed_space((6, 6, 2), [
            Conv2DOp(3, kernel_size=3, activation="tanh"),
            MaxPool2DOp(), FlattenOp(), DenseOp(3),
        ]),
        loss="categorical_crossentropy")


def test_train_step_conv2d_avgpool_gradients():
    _check_train_step_gradients(
        _fixed_space((6, 6, 2), [
            Conv2DOp(3, kernel_size=3, activation="relu"),
            AvgPool2DOp(), FlattenOp(), DenseOp(3),
        ]))


def test_train_step_conv1d_maxpool_gradients():
    _check_train_step_gradients(
        _fixed_space((8, 2), [
            Conv1DOp(3, kernel_size=3, activation="tanh"),
            MaxPool1DOp(), FlattenOp(), DenseOp(3),
        ]))


def test_train_step_conv1d_avgpool_gradients():
    _check_train_step_gradients(
        _fixed_space((8, 2), [
            Conv1DOp(3, kernel_size=3, activation="elu"),
            AvgPool1DOp(), FlattenOp(), DenseOp(3),
        ]))


def test_train_step_batchnorm_training_mode_gradients():
    _check_train_step_gradients(
        _fixed_space((5,), [DenseOp(6), BatchNormOp(), DenseOp(3)]))


def test_train_step_standalone_activation_gradients():
    _check_train_step_gradients(
        _fixed_space((5,), [DenseOp(6), ActivationOp("tanh"), DenseOp(3)]))


def test_train_step_multi_input_concat_gradients():
    space = SearchSpace("gradcheck", [(4,), (3,)])
    space.add_fixed(DenseOp(5, "relu"), name="t0", after="input:0")
    space.add_fixed(DenseOp(5, "tanh"), name="t1", after="input:1")
    space.add_fixed(ConcatenateOp(), name="cat", after=["t0", "t1"])
    space.add_fixed(DenseOp(3), name="head")
    _check_train_step_gradients(space)


def test_train_step_fanout_accumulated_gradients():
    # one producer feeding two consumers exercises the gradient fan-in
    # accumulation
    space = SearchSpace("gradcheck", (5,))
    space.add_fixed(DenseOp(6, "relu"), name="shared")
    space.add_fixed(DenseOp(4, "relu"), name="a", after="shared")
    space.add_fixed(DenseOp(4, "tanh"), name="b", after="shared")
    space.add_fixed(ConcatenateOp(), name="cat", after=["a", "b"])
    space.add_fixed(DenseOp(3), name="head")
    _check_train_step_gradients(space)
