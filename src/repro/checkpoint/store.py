"""Directory-backed npz checkpoint store (the HDF5/parallel-FS stand-in).

One checkpoint = ``<key>.npz`` holding the named tensors plus a
``<key>.json`` sidecar carrying the tensor order and the optional user
metadata.  Keeping the order index in the sidecar (instead of an
object-dtype array inside the npz, as older stores did) means ``load``
never needs ``allow_pickle=True`` — no pickle on the I/O hot path and
no object-array deserialisation cost.  Legacy archives that still embed
an ``__order__`` object array remain readable through a fallback.
Sizes are real on-disk bytes — they feed Figure 11 and the simulator's
I/O cost model.

Concurrency contract: the store itself is **lock-free** — it owns no
shared in-memory state, and every save is an atomic ``os.replace`` of a
fully written temp file, so concurrent readers see either the old or
the new checkpoint, never a torn one.  Callers that layer mutable state
on top (:class:`~repro.checkpoint.cache.WeightCache`,
:class:`~repro.checkpoint.prefetch.ProviderPrefetcher`,
``AsyncCheckpointWriter``) bring their own locks; the whole-program
concurrency analyzer (lint R007/R008) verifies those, and finds no lock
order through this module — store calls are leaves in the lock graph.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Legacy in-archive order index (object dtype, needs pickle); new saves
#: put the order in the JSON sidecar under the same reserved name.
_ORDER_KEY = "__order__"
#: Sidecar key for the user metadata in the new sidecar format.
_META_KEY = "__meta__"
#: Sidecar key for the CRC32 of the npz payload (new saves only; old
#: sidecars without it load unchecked for backward compatibility).
_CRC_KEY = "__crc32__"
#: Sidecar directory corrupt checkpoints are quarantined into.
QUARANTINE_DIR = ".quarantine"


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via temp-file + fsync + ``os.replace``
    so a crash mid-write never leaves a torn file at the canonical name
    — readers see the old content or the new, nothing in between."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CorruptCheckpointError(Exception):
    """``load`` found the checkpoint on disk but could not decode it
    (truncated npz, bad zip magic, missing member, unreadable sidecar).

    Distinct from :class:`FileNotFoundError` — the caller's recovery is
    different: a corrupt checkpoint should be quarantined and the
    candidate cold-started, a missing one is simply not a provider.
    """

    def __init__(self, key: str, path, cause: Exception):
        super().__init__(f"corrupt checkpoint {key!r} at {path}: {cause!r}")
        self.key = key
        self.path = Path(path)
        self.cause = cause


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
        return self.root / f"{key}.npz"

    def meta_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def exists(self, key: str) -> bool:
        return self.path(key).exists()

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.npz"))

    # -- save / load ----------------------------------------------------
    def save(self, key: str, weights: dict[str, np.ndarray],
             meta: dict | None = None) -> CheckpointInfo:
        """Atomic save: npz and sidecar are each written to a temp file
        in the same directory, fsynced, then ``os.replace``d — a crash
        mid-save never leaves a garbage archive at the canonical key.
        The sidecar carries a CRC32 of the npz payload; :meth:`load`
        verifies it, catching bit-rot that still parses as valid zip."""
        path = self.path(key)
        payload = {name: np.asarray(arr) for name, arr in weights.items()}
        buf = io.BytesIO()
        if self.compress:
            np.savez_compressed(buf, **payload)
        else:
            np.savez(buf, **payload)
        blob = buf.getvalue()
        _atomic_write_bytes(path, blob)
        sidecar = {_ORDER_KEY: list(weights.keys()), _META_KEY: meta,
                   _CRC_KEY: zlib.crc32(blob) & 0xFFFFFFFF}
        _atomic_write_bytes(self.meta_path(key),
                            json.dumps(sidecar).encode())
        return CheckpointInfo(key, path, path.stat().st_size)

    def _sidecar(self, key: str) -> dict | None:
        mp = self.meta_path(key)
        if not mp.exists():
            return None
        return json.loads(mp.read_text())

    def load(self, key: str) -> dict[str, np.ndarray]:
        """Ordered named tensors, insertion order preserved.

        Raises :class:`CorruptCheckpointError` when the archive exists
        but cannot be decoded (truncated/garbage npz, missing member,
        malformed sidecar) — or decodes fine but its bytes no longer
        match the CRC32 recorded at save time (bit-rot that still
        parses as a valid zip) — see :meth:`quarantine` for recovery.

        The archive is read once: the bytes that were CRC-checked are the
        bytes decoded, so a concurrent ``os.replace`` of the file cannot
        slip unverified content in between."""
        path = self.path(key)
        try:
            sidecar = self._sidecar(key)
            blob = path.read_bytes()
            if sidecar is not None and _CRC_KEY in sidecar:
                crc = zlib.crc32(blob) & 0xFFFFFFFF
                if crc != sidecar[_CRC_KEY]:
                    raise CorruptCheckpointError(key, path, ValueError(
                        f"CRC32 mismatch: sidecar records "
                        f"{sidecar[_CRC_KEY]:#010x}, archive hashes "
                        f"{crc:#010x}"))
            if sidecar is not None and _ORDER_KEY in sidecar:
                order = [str(n) for n in sidecar[_ORDER_KEY]]
                # allow_pickle stays False
                with np.load(io.BytesIO(blob)) as data:
                    return {name: data[name] for name in order}
            # legacy archives: order index embedded as an object array
            with np.load(io.BytesIO(blob)) as data:
                if _ORDER_KEY not in data.files:
                    # npz member order is zip-entry order == insertion order
                    return {name: data[name] for name in data.files}
            with np.load(io.BytesIO(blob), allow_pickle=True) as data:
                order = [str(n) for n in data[_ORDER_KEY]]
                return {name: data[name] for name in order}
        except FileNotFoundError:
            raise
        except (ValueError, KeyError, OSError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError) as exc:
            raise CorruptCheckpointError(key, path, exc) from exc

    # -- corrupt-checkpoint quarantine ----------------------------------
    @property
    def quarantine_root(self) -> Path:
        return self.root / QUARANTINE_DIR

    def quarantine(self, key: str) -> Path:
        """Move a corrupt checkpoint (npz + sidecar) into the
        ``.quarantine/`` sidecar directory so it stops poisoning loads
        but stays on disk for post-mortem; returns the quarantined npz
        path.  After quarantine ``exists(key)`` is False and the
        scheduler cold-starts the candidate."""
        qroot = self.quarantine_root
        qroot.mkdir(parents=True, exist_ok=True)
        dest = qroot / self.path(key).name
        if self.path(key).exists():
            self.path(key).replace(dest)
        mp = self.meta_path(key)
        if mp.exists():
            mp.replace(qroot / mp.name)
        return dest

    def quarantined_keys(self) -> list[str]:
        if not self.quarantine_root.exists():
            return []
        return sorted(p.stem for p in self.quarantine_root.glob("*.npz"))

    def load_meta(self, key: str) -> dict | None:
        sidecar = self._sidecar(key)
        if sidecar is None:
            return None
        if _ORDER_KEY in sidecar:              # new sidecar format
            return sidecar.get(_META_KEY)
        return sidecar                          # legacy: raw user meta

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)
        self.meta_path(key).unlink(missing_ok=True)

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
