"""save_bundle/load_bundle round trips."""

import numpy as np

from repro.tensor import load_bundle, save_bundle


def test_round_trip_preserves_weights_config_and_order(tmp_path):
    weights = {
        "b_layer.kernel": np.arange(6, dtype=np.float32).reshape(2, 3),
        "a_layer.bias": np.ones(3, dtype=np.float32),
        "a_layer.kernel": np.full((3, 3), 0.5, dtype=np.float32),
    }
    config = {"arch_seq": [1, 2, 3], "score": 0.75, "scheme": "lcs"}
    path = save_bundle(tmp_path / "m.ckpt", weights, config)
    loaded_config, loaded = load_bundle(path)
    assert loaded_config == config
    # insertion order is part of the contract: shape sequences depend on it
    assert list(loaded) == list(weights)
    for k in weights:
        assert np.array_equal(loaded[k], weights[k])
        assert loaded[k].dtype == weights[k].dtype


def test_round_trip_of_model_weights(tmp_path, space, problem):
    seq = space.sample(np.random.default_rng(0))
    model = problem.build_model(seq, rng=0)
    path = save_bundle(tmp_path / "model.ckpt", model.get_weights(),
                       {"arch_seq": list(seq)})
    config, weights = load_bundle(path)
    clone = problem.build_model(space.validate_seq(config["arch_seq"]),
                                rng=99)
    clone.set_weights(weights)
    x = np.random.default_rng(1).normal(size=(2, 6, 6, 2))
    assert np.allclose(model.forward(x), clone.forward(x))
