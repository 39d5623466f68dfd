"""Network construction, weights dict, space-built model and
backward-liveness tests."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.nas import Conv2DOp, DenseOp, FlattenOp, SearchSpace
from repro.tensor import get_loss, get_optimizer
from repro.tensor.layers import BuildError
from repro.tensor.network import Liveness


def test_built_network_runs_and_counts_params(space, problem):
    seq = space.validate_seq((1, 1, 1))   # Dense(8,relu) / relu / Dense(8)
    model = problem.build_model(seq, rng=0)
    x = np.zeros((2, 6, 6, 2))
    assert model.forward(x).shape == (2, 4)
    # flatten(72) -> dense0(8) -> act -> dense1(8) -> head(4)
    expected = (72 * 8 + 8) + (8 * 8 + 8) + (8 * 4 + 4)
    assert model.num_parameters() == expected


def test_get_set_weights_round_trip(space, problem):
    seq = space.sample(np.random.default_rng(0))
    a = problem.build_model(seq, rng=0)
    b = problem.build_model(seq, rng=1)
    weights = a.get_weights()
    assert all(isinstance(k, str) and "." in k for k in weights)
    b.set_weights(weights)
    x = np.random.default_rng(2).normal(size=(3, 6, 6, 2))
    assert np.allclose(a.forward(x), b.forward(x))


def test_weight_names_follow_node_naming(space, problem):
    seq = space.validate_seq((1, 0, 0))
    model = problem.build_model(seq, rng=0)
    names = set(model.get_weights())
    assert "head_dense.kernel" in names
    assert "head_dense.bias" in names
    assert any(n.startswith("dense0_dense.") for n in names)


def test_same_seed_same_init(space, problem):
    seq = space.sample(np.random.default_rng(3))
    w0 = problem.build_model(seq, rng=7).get_weights()
    w1 = problem.build_model(seq, rng=7).get_weights()
    assert all(np.array_equal(w0[k], w1[k]) for k in w0)


def test_identity_choices_add_no_parameters():
    space = SearchSpace("t", (4, 4, 1))
    space.add_fixed(FlattenOp(), name="flatten")
    space.add_variable("d", [DenseOp(4), DenseOp(8)])
    space.add_fixed(DenseOp(2), name="head")
    small = space.build_network(space.validate_seq((0,)),
                                np.random.default_rng(0))
    big = space.build_network(space.validate_seq((1,)),
                              np.random.default_rng(0))
    assert big.num_parameters() > small.num_parameters()


# ---------------------------------------------------------------------------
# backward liveness: dead gradients are skipped, live ones are unchanged
# ---------------------------------------------------------------------------

APPS = ("cifar10", "mnist", "nt3", "uno")

GENERATED = settings(derandomize=True, database=None, deadline=None,
                     max_examples=16,
                     suppress_health_check=[HealthCheck.too_slow])


@lru_cache(maxsize=None)
def _problem(app):
    return get_app(app).problem(seed=0)


def _arch_seqs(app):
    counts = _problem(app).space.choice_counts()
    return st.tuples(*(st.integers(0, c - 1) for c in counts))


def _build_or_reject(prob, seq):
    try:
        return prob.build_model(seq, rng=0)
    except BuildError:
        assume(False)


def _all_live(live):
    """A liveness that runs every layer's backward and computes every
    input gradient, network inputs included."""
    return Liveness(
        parents=live.parents, runs_bwd=(True,) * len(live.runs_bwd),
        need_gx=tuple((True,) * len(pis) for pis in live.parents))


def _upstream_trainable_oracle(network):
    """Brute force: per layer, does it or any ancestor hold a trained
    tensor?  Walks every ancestor path; only the trained-tensor rule
    (``Network.trainable``) is shared with the liveness sweep."""
    trained = {layer.name for _, layer, _ in network.trainable()}

    def reaches(name):
        if name.startswith("input:"):
            return False
        return name in trained or any(
            reaches(p) for p in network._inputs_of[name])

    return [reaches(layer.name) for layer in network.layers]


@pytest.mark.parametrize("app", APPS)
def test_liveness_matches_upstream_trainable_oracle(app):
    prob = _problem(app)

    @GENERATED
    @given(seq=_arch_seqs(app))
    def check(seq):
        network = _build_or_reject(prob, seq)
        live = network.liveness
        oracle = _upstream_trainable_oracle(network)
        assert list(live.runs_bwd) == oracle
        index = {layer.name: i for i, layer in enumerate(network.layers)}
        for li, layer in enumerate(network.layers):
            want = tuple(not p.startswith("input:") and oracle[index[p]]
                         for p in network._inputs_of[layer.name])
            assert live.need_gx[li] == want, layer.name

    check()


@pytest.mark.parametrize("app", APPS)
def test_generated_liveness_step_matches_all_live_step_bitwise(app):
    """One training step with ``network.liveness`` leaves parameter
    gradients and post-optimizer weights bitwise equal to the same step
    with every gradient computed."""
    prob = _problem(app)
    ds = prob.dataset
    n = 16
    idx = np.random.default_rng(0).permutation(ds.y_train.shape[0])[:n]
    if isinstance(ds.x_train, (list, tuple)):
        xb = [a[idx] for a in ds.x_train]
    else:
        xb = ds.x_train[idx]
    yb = ds.y_train[idx]
    loss_fn = get_loss(prob.loss)

    @GENERATED
    @given(seq=_arch_seqs(app))
    def check(seq):
        lean = _build_or_reject(prob, seq)
        full = prob.build_model(seq, rng=0)
        full.liveness = _all_live(full.liveness)
        for model in (lean, full):
            _, grad = loss_fn(model.forward(xb, training=True), yb)
            model.backward(grad)
        for name, layer, pname in lean.trainable():
            other = full._by_name[layer.name].grads[pname]
            assert np.array_equal(layer.grads[pname], other), name
        for model in (lean, full):
            get_optimizer(prob.optimizer, prob.learning_rate).step(model)
        wl, wf = lean.get_weights(), full.get_weights()
        assert wl.keys() == wf.keys()
        for key in wl:
            assert np.array_equal(wl[key], wf[key]), key

    check()


def test_first_conv_skips_its_dead_input_gradient():
    space = SearchSpace("liveness", (6, 6, 2))
    for i, op in enumerate([
            Conv2DOp(3, kernel_size=3, activation="relu"),
            Conv2DOp(4, kernel_size=3, activation="tanh"),
            FlattenOp(), DenseOp(3)]):
        space.add_fixed(op, name=f"n{i}")
    network = space.build_network((), np.random.default_rng(1))
    first, second = network.layers[0], network.layers[1]
    calls = {}

    def spy(layer):
        inner = layer.backward

        def backward(gout, need_gx=True):
            gx = inner(gout, need_gx=need_gx)
            calls[layer.name] = (need_gx, gx)
            return gx
        layer.backward = backward

    spy(first)
    spy(second)
    x = np.random.default_rng(0).normal(size=(4, 6, 6, 2)).astype(np.float32)
    network.backward(np.ones_like(network.forward(x, training=True)))
    assert calls[first.name][0] is False and calls[first.name][1] is None
    assert calls[second.name][0] is True
    assert calls[second.name][1].shape == (4,) + first.output_shape
    trained = list(network.trainable())
    assert trained
    for name, layer, pname in trained:
        assert layer.grads[pname].shape == layer.params[pname].shape, name

    # computing every gradient, input gradients included, leaves the
    # parameter gradients bit-identical
    lean = {name: layer.grads[pname].copy()
            for name, layer, pname in trained}
    network.liveness = _all_live(network.liveness)
    network.backward(np.ones_like(network.forward(x, training=True)))
    assert calls[first.name][0] is True
    for name, layer, pname in trained:
        assert np.array_equal(layer.grads[pname], lean[name]), name
