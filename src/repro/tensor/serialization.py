"""Whole-model bundles: architecture config + weights in one file.

A bundle stores an arbitrary JSON-serialisable ``config`` (typically
``{"app": ..., "arch_seq": [...]}``) as the header meta of one
:mod:`repro.checkpoint.codec` blob, next to the ordered named weights,
so a discovered model can be re-instantiated without the originating
search session.  Extension per DESIGN.md "Beyond the paper".
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# repro.checkpoint imports repro.analysis, which imports repro.tensor, so
# the codec is imported on first use rather than at module import.


def save_bundle(path, weights: dict[str, np.ndarray], config: dict) -> Path:
    from ..checkpoint.codec import encode

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode(weights, config))
    return path


def load_bundle(path) -> tuple[dict, dict[str, np.ndarray]]:
    """``(config, weights)``; the weights are read-only views."""
    from ..checkpoint.codec import decode_views

    weights, config = decode_views(Path(path).read_bytes(), key="bundle",
                                   path=path)
    return config, weights
