"""Directory-backed checkpoint store (the HDF5/parallel-FS stand-in).

One checkpoint = one ``<key>.ckpt`` file in the
:mod:`~repro.checkpoint.codec` format: the tensor order, the optional
user metadata and a CRC32 live in the file's own header, so a save is a
single atomic file replace and ``load`` never needs pickle.  Sizes are
real on-disk bytes — they feed Figure 11 and the simulator's I/O cost
model.

Concurrency contract: the store itself is **lock-free** — it owns no
shared in-memory state, and every save is an atomic ``os.replace`` of a
fully written temp file, so concurrent readers see either the old or
the new checkpoint, never a torn one.  The whole-program concurrency
analyzer (lint R007/R008) finds no lock order through this module —
store calls are leaves in the lock graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import decode_views, encode

SUFFIX = ".ckpt"
#: Sidecar directory corrupt checkpoints are quarantined into.
QUARANTINE_DIR = ".quarantine"


@dataclass(frozen=True)
class CheckpointInfo:
    key: str
    path: Path
    nbytes: int


class CheckpointStore:
    def __init__(self, root, compress: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compress = compress

    # -- paths ----------------------------------------------------------
    def path(self, key: str) -> Path:
        return self.root / f"{key}{SUFFIX}"

    def exists(self, key: str) -> bool:
        return self.path(key).exists()

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob(f"*{SUFFIX}"))

    # -- save / load ----------------------------------------------------
    def save(self, key: str, weights: dict[str, np.ndarray],
             meta: dict | None = None) -> CheckpointInfo:
        """Atomic save: one temp write, one fsync, one ``os.replace``, so
        readers see the old version or the new — weights and meta
        together — never a torn file.  A failed save removes its temp
        file."""
        path = self.path(key)
        tmp = path.with_name(path.name + ".tmp")
        blob = encode(weights, meta, compress=self.compress)
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return CheckpointInfo(key, path, len(blob))

    def _read(self, key: str):
        path = self.path(key)
        return decode_views(path.read_bytes(), key=key, path=path)

    def load(self, key: str) -> dict[str, np.ndarray]:
        """Named tensors as read-only views, in saved order.  One read:
        the bytes CRC-checked are the bytes decoded, so a concurrent
        ``os.replace`` cannot slip unverified content in.  Raises
        :class:`CorruptCheckpointError` when the file fails the codec's
        checks — see :meth:`quarantine` for recovery."""
        return self._read(key)[0]

    def load_meta(self, key: str) -> dict | None:
        """The meta saved with ``key``; ``None`` when there is none or
        the key does not exist."""
        try:
            return self._read(key)[1]
        except FileNotFoundError:
            return None

    # -- corrupt-checkpoint quarantine ----------------------------------
    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def quarantine(self, key: str) -> Path:
        """Move a corrupt checkpoint into the ``.quarantine/`` sidecar
        directory so it stops poisoning loads but stays on disk for
        post-mortem; returns the quarantined path.  After quarantine
        ``exists(key)`` is False and the scheduler cold-starts the
        candidate."""
        qroot = self.quarantine_root
        qroot.mkdir(parents=True, exist_ok=True)
        dest = qroot / self.path(key).name
        if self.path(key).exists():
            self.path(key).replace(dest)
        return dest

    def quarantined_keys(self) -> list[str]:
        if not self.quarantine_root.exists():
            return []
        return sorted(p.stem for p in self.quarantine_root.glob(f"*{SUFFIX}"))

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)

    # -- size accounting ------------------------------------------------
    def nbytes(self, key: str) -> int:
        return self.path(key).stat().st_size

    def sizes(self) -> dict[str, int]:
        return {key: self.nbytes(key) for key in self.keys()}

    def total_bytes(self) -> int:
        return sum(self.sizes().values())

    def __len__(self) -> int:
        return len(self.keys())

    def __repr__(self):
        return f"<CheckpointStore {self.root} ({len(self)} checkpoints)>"
