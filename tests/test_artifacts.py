"""Validate the committed results/default checkpoint artifacts.

The recorded EXPERIMENTS.md run left cifar10 LCS checkpoints under
results/default/ckpt/; this guards them against the truncation that lost
the original seed capture.  Every file is read through
:class:`CheckpointStore`, so each load is CRC-checked and none unpickles."""

from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore

REPO = Path(__file__).resolve().parent.parent
CKPT_ROOT = REPO / "results" / "default" / "ckpt"
RUN_DIRS = sorted(CKPT_ROOT.glob("cifar10_lcs_s0_g*_n60"))


def test_recorded_run_dirs_exist():
    assert CKPT_ROOT.is_dir()
    assert [d.name for d in RUN_DIRS] == [
        "cifar10_lcs_s0_g16_n60",
        "cifar10_lcs_s0_g32_n60",
        "cifar10_lcs_s0_g8_n60",
    ]


@pytest.mark.parametrize("run_dir", RUN_DIRS, ids=lambda d: d.name)
def test_checkpoints_load(run_dir):
    store = CheckpointStore(run_dir)
    assert len(store) == 60, f"expected 60 checkpoints in {run_dir}"
    # one file per key: nothing else lives in a run directory
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        store.path(key).name for key in store.keys())
    for key in store.keys():
        weights = store.load(key)
        assert weights, f"{key} holds no weight tensors"
        assert any(n.endswith(".kernel") for n in weights)
        for n, arr in weights.items():
            assert np.isfinite(arr).all(), f"{key}:{n} non-finite"


@pytest.mark.parametrize("run_dir", RUN_DIRS, ids=lambda d: d.name)
def test_checkpoint_metadata(run_dir):
    store = CheckpointStore(run_dir)
    assert store.keys()
    for key in store.keys():
        meta = store.load_meta(key)
        assert meta["scheme"] == "lcs"
        assert isinstance(meta["arch_seq"], list)
        assert np.isfinite(meta["score"])
