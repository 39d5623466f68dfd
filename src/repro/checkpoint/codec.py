"""The one format for named tensors on disk and in shared memory.

Checkpoints, transport-published weights and model bundles are each one
blob (little-endian integers)::

    offset 0    magic       b"RPCKPT" + 2-byte format version
    offset 8    u32         header length H
    offset 12   u32         CRC32 of every byte of the blob except these 4
    offset 16   H bytes     JSON header: ``tensors`` as ``[name, dtype.str,
                            shape, offset]`` rows in order, ``meta``,
                            payload length ``nbytes``, ``compressed``
                zero pad    up to the next multiple of ALIGN
    payload     raw tensor bytes, each tensor at an ALIGN-aligned offset
                (one zlib stream of those bytes when ``compressed``)

The CRC lives in the preamble, not the JSON, so it covers the header and
padding too: a flipped byte anywhere is caught.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"RPCKPT\x00\x01"
#: Byte alignment of the payload start and of every tensor within it.
ALIGN = 64
#: magic, header length, CRC32
_PREAMBLE = struct.Struct("<8sII")


class CorruptCheckpointError(Exception):
    """A checkpoint exists but cannot be decoded: bad magic, CRC
    mismatch, unreadable header or wrong length.  Unlike
    :class:`FileNotFoundError`, the recovery is to quarantine it and
    cold-start the candidate."""

    def __init__(self, key: str, path, cause: Exception):
        super().__init__(f"corrupt checkpoint {key!r} at {path}: {cause!r}")
        self.key = key
        self.path = None if path is None else Path(path)
        self.cause = cause


def _aligned(n: int) -> int:
    return -(-n // ALIGN) * ALIGN


def _crc(blob: memoryview) -> int:
    """CRC32 of the blob minus its own field (bytes 12-15)."""
    return zlib.crc32(blob[_PREAMBLE.size:], zlib.crc32(blob[:12]))


def encode(weights: dict, meta=None, *, compress: bool = False) -> bytearray:
    """One blob holding ``weights`` (in order, each stored C-contiguous)
    and the JSON ``meta``; ``compress`` deflates the payload with zlib."""
    arrays = [(name, np.asarray(arr)) for name, arr in weights.items()]
    table, end = [], 0
    for name, arr in arrays:
        offset = _aligned(end)
        table.append([name, arr.dtype.str, list(arr.shape), offset])
        end = offset + arr.nbytes
    raw = bytearray(end)
    for (_, _, _, offset), (_, arr) in zip(table, arrays):
        np.frombuffer(raw, arr.dtype, arr.size, offset) \
            .reshape(arr.shape)[...] = arr
    payload = zlib.compress(raw) if compress else raw
    header = json.dumps({"tensors": table, "meta": meta,
                         "nbytes": len(payload),
                         "compressed": bool(compress)},
                        separators=(",", ":")).encode()
    blob = bytearray(_aligned(_PREAMBLE.size + len(header)))
    _PREAMBLE.pack_into(blob, 0, MAGIC, len(header), 0)
    blob[_PREAMBLE.size:_PREAMBLE.size + len(header)] = header
    blob += payload
    struct.pack_into("<I", blob, 12, _crc(memoryview(blob)))
    return blob


def decode_views(buf, *, key: str = "<buffer>", path=None):
    """``(weights, meta)`` from a blob written by :func:`encode`, after
    one CRC pass; ``weights`` holds read-only views onto ``buf`` (onto
    the inflated payload when compressed), in saved order.  Raises
    :class:`CorruptCheckpointError` naming ``key`` and ``path``."""
    mv = memoryview(buf)
    try:
        if len(mv) < _PREAMBLE.size or mv[:len(MAGIC)] != MAGIC:
            raise ValueError("bad magic: not a checkpoint blob")
        _, hlen, crc = _PREAMBLE.unpack_from(mv)
        actual = _crc(mv)
        if actual != crc:
            raise ValueError(f"CRC32 mismatch: header records {crc:#010x}, "
                             f"{len(mv)} bytes hash to {actual:#010x}")
        header = json.loads(bytes(mv[_PREAMBLE.size:_PREAMBLE.size + hlen]))
        start = _aligned(_PREAMBLE.size + hlen)
        if len(mv) != start + header["nbytes"]:
            raise ValueError(f"wrong length: {len(mv)} bytes, header "
                             f"expects {start + header['nbytes']}")
        payload = mv[start:]
        if header["compressed"]:
            payload = zlib.decompress(payload)
        weights = {}
        for name, dtype, shape, offset in header["tensors"]:
            view = np.frombuffer(payload, np.dtype(dtype), math.prod(shape),
                                 offset).reshape(shape)
            view.flags.writeable = False
            weights[name] = view
        return weights, header["meta"]
    except (ValueError, KeyError, TypeError, OverflowError,
            zlib.error) as exc:
        raise CorruptCheckpointError(key, path, exc) from exc
