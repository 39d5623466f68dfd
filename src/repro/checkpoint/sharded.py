"""Consistent-hash sharded checkpoint store with per-shard breakers.

One service-scale store = ``num_shards`` directory shards, each a plain
:class:`CheckpointStore` (atomic saves, CRC-verified loads, its own
``.quarantine/`` sidecar directory).  Keys are placed by consistent
hashing — a ring of virtual nodes, so adding a shard remaps only
~1/num_shards of the keyspace — and the public API is the
:class:`CheckpointStore` surface, so every existing consumer
(scheduler, simulator, service) works unchanged against a sharded
root.

**Per-shard circuit breaker** (the fault-isolation half): a shard whose
saves keep failing (disk full, permission flip, NFS partition) trips
its breaker after ``failure_threshold`` consecutive failures and leaves
the *write* rotation — subsequent saves walk the ring to the next
healthy shard instead of erroring the search, and the degradation is
booked (``rerouted_writes``/``trips``) rather than raised.  After
``cooldown`` seconds the breaker half-opens: one probe write is allowed
through; success closes it, failure re-opens it.  Reads are never
gated — a read probes the placement index, then the ring order — so
checkpoints written before a shard degraded stay loadable.  Only when
*every* shard refuses a write does :meth:`save` raise
:class:`StoreUnavailableError`; the scheduler contains even that as a
``ckpt_write`` fault (the candidate simply has no checkpoint).

Concurrency: the placement index, the breakers and the degradation
counters are guarded by ``self._lock``; actual shard I/O happens
outside the lock (store calls stay leaves in the lock graph, see
DESIGN.md "Concurrency model").
"""

from __future__ import annotations

import bisect
import time
import zlib
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..analysis.lockcheck import make_lock
from .store import CheckpointInfo, CheckpointStore

__all__ = [
    "ShardBreaker",
    "ShardedCheckpointStore",
    "StoreUnavailableError",
]

#: Lock-discipline assertion (lint R004/R007): the placement index,
#: breaker transitions and degradation counters are shared by every
#: thread that calls the store.  Every write must hold ``self._lock``;
#: shard I/O happens outside it.
_GUARDED_ATTRS = ("_placement", "rerouted_writes", "failed_writes")


class StoreUnavailableError(Exception):
    """Every shard's breaker refused the write (or every attempted
    shard save failed) — the store as a whole is down.  The scheduler
    contains this as a ``ckpt_write`` fault instead of crashing."""


class ShardBreaker:
    """Circuit breaker for one shard's write path.

    States: ``closed`` (healthy) → ``open`` after ``failure_threshold``
    *consecutive* save failures (writes rerouted around this shard) →
    ``half_open`` once ``cooldown`` seconds have passed (one probe
    write allowed) → ``closed`` again on success, back to ``open`` on
    failure.  Not thread-safe on its own — the owning
    :class:`ShardedCheckpointStore` serializes access under its lock.
    """

    def __init__(self, failure_threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.failures = 0              # lifetime failures, never reset
        self.trips = 0                 # closed/half_open -> open edges
        self._opened_at: Optional[float] = None

    def allows_write(self) -> bool:
        """Whether a save may be routed to this shard right now; an
        ``open`` breaker past its cooldown transitions to ``half_open``
        (and admits the probe write)."""
        if self.state == "open":
            if self._clock() - self._opened_at >= self.cooldown:
                self.state = "half_open"
                return True
            return False
        return True                    # closed and half_open both admit

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = "closed"

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if (self.state == "half_open"
                or self.consecutive_failures >= self.failure_threshold):
            self.state = "open"
            self._opened_at = self._clock()
            self.trips += 1
            self.consecutive_failures = 0

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
        }

    def __repr__(self):
        return (f"<ShardBreaker {self.state} failures={self.failures} "
                f"trips={self.trips}>")


def _ring_hash(token: str) -> int:
    """Stable 32-bit ring position (crc32: fast, seeded nowhere, and
    identical across processes — unlike ``hash()``)."""
    return zlib.crc32(token.encode()) & 0xFFFFFFFF


class ShardedCheckpointStore:
    """Consistent-hash directory shards behind the plain store API."""

    def __init__(self, root, num_shards: int = 4, *,
                 compress: bool = False, virtual_nodes: int = 16,
                 failure_threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.num_shards = int(num_shards)
        self.shards = [
            CheckpointStore(self.root / f"shard_{i:02d}", compress=compress)
            for i in range(self.num_shards)
        ]
        self.breakers = [
            ShardBreaker(failure_threshold, cooldown, clock)
            for _ in range(self.num_shards)
        ]
        ring = []
        for idx in range(self.num_shards):
            for v in range(virtual_nodes):
                ring.append((_ring_hash(f"shard-{idx}#vnode-{v}"), idx))
        ring.sort()
        self._ring_keys = [h for h, _ in ring]
        self._ring_shards = [i for _, i in ring]
        self._lock = make_lock("ShardedCheckpointStore._lock")
        self._placement: dict[str, int] = {}   # key -> shard, this process
        self.rerouted_writes = 0
        self.failed_writes = 0

    # -- ring ------------------------------------------------------------
    def _ring_order(self, key: str) -> list[int]:
        """Distinct shard indices in ring order starting at ``key``'s
        position — element 0 is the primary, the rest the reroute
        fallbacks."""
        start = bisect.bisect_left(self._ring_keys, _ring_hash(key)) \
            % len(self._ring_keys)
        order: list[int] = []
        for off in range(len(self._ring_shards)):
            idx = self._ring_shards[(start + off) % len(self._ring_shards)]
            if idx not in order:
                order.append(idx)
                if len(order) == self.num_shards:
                    break
        return order

    def shard_index(self, key: str) -> int:
        """The primary shard for ``key`` (health ignored)."""
        return self._ring_order(key)[0]

    def _locate(self, key: str) -> Optional[int]:
        """Shard currently holding ``key``: placement-index fast path,
        then the ring order (covers keys written by an earlier process
        or rerouted around a tripped shard)."""
        with self._lock:
            idx = self._placement.get(key)
        if idx is not None and self.shards[idx].exists(key):
            return idx
        for i in self._ring_order(key):
            if self.shards[i].exists(key):
                with self._lock:
                    self._placement[key] = i
                return i
        return None

    # -- save / load -----------------------------------------------------
    def save(self, key: str, weights: dict[str, np.ndarray],
             meta: dict | None = None) -> CheckpointInfo:
        """Save to the first healthy shard in ring order.  A failing
        shard books a breaker failure and the write reroutes; only a
        store-wide outage raises :class:`StoreUnavailableError`."""
        last_exc: Optional[Exception] = None
        prev: Optional[int] = None
        for pos, idx in enumerate(self._ring_order(key)):
            with self._lock:
                allowed = self.breakers[idx].allows_write()
            if not allowed:
                continue
            try:
                info = self.shards[idx].save(key, weights, meta)
            except Exception as exc:
                last_exc = exc
                with self._lock:
                    self.breakers[idx].record_failure()
                    self.failed_writes += 1
                continue
            with self._lock:
                self.breakers[idx].record_success()
                prev = self._placement.get(key)
                self._placement[key] = idx
                if pos > 0:
                    self.rerouted_writes += 1
            if prev is not None and prev != idx:
                # the key moved shards (its old home tripped): drop the
                # stale copy so ring-order reads can't resurrect it
                self.shards[prev].delete(key)
            return info
        raise StoreUnavailableError(
            f"no shard accepted the write for {key!r}: "
            f"{sum(b.state == 'open' for b in self.breakers)}/"
            f"{self.num_shards} breakers open"
        ) from last_exc

    def load(self, key: str) -> dict[str, np.ndarray]:
        idx = self._locate(key)
        if idx is None:
            raise FileNotFoundError(f"no shard holds checkpoint {key!r}")
        return self.shards[idx].load(key)

    def load_meta(self, key: str) -> dict | None:
        idx = self._locate(key)
        return None if idx is None else self.shards[idx].load_meta(key)

    def exists(self, key: str) -> bool:
        return self._locate(key) is not None

    # -- path (the shard the key lives on, else its primary) -------------
    def path(self, key: str) -> Path:
        idx = self._locate(key)
        return self.shards[self.shard_index(key) if idx is None
                           else idx].path(key)

    # -- quarantine ------------------------------------------------------
    def quarantine(self, key: str) -> Path:
        """Quarantine into the *owning shard's* ``.quarantine/`` — each
        fault domain keeps its own post-mortem evidence."""
        idx = self._locate(key)
        if idx is None:
            idx = self.shard_index(key)
        dest = self.shards[idx].quarantine(key)
        with self._lock:
            self._placement.pop(key, None)
        return dest

    def quarantined_keys(self) -> list[str]:
        out: set[str] = set()
        for shard in self.shards:
            out.update(shard.quarantined_keys())
        return sorted(out)

    def delete(self, key: str) -> None:
        for shard in self.shards:
            shard.delete(key)
        with self._lock:
            self._placement.pop(key, None)

    # -- enumeration / size accounting -----------------------------------
    def keys(self) -> list[str]:
        out: set[str] = set()
        for shard in self.shards:
            out.update(shard.keys())
        return sorted(out)

    def nbytes(self, key: str) -> int:
        idx = self._locate(key)
        if idx is None:
            raise FileNotFoundError(f"no shard holds checkpoint {key!r}")
        return self.shards[idx].nbytes(key)

    def sizes(self) -> dict[str, int]:
        return {key: self.nbytes(key) for key in self.keys()}

    def total_bytes(self) -> int:
        return sum(self.sizes().values())

    def __len__(self) -> int:
        return len(self.keys())

    # -- degradation surface ---------------------------------------------
    def breaker_stats(self) -> dict:
        """Health summary the scheduler attaches to
        ``trace.fault_stats["store"]`` when anything degraded."""
        with self._lock:
            per_shard = [b.as_dict() for b in self.breakers]
            return {
                "num_shards": self.num_shards,
                "shards": per_shard,
                "open_shards": [i for i, b in enumerate(per_shard)
                                if b["state"] != "closed"],
                "trips": sum(b["trips"] for b in per_shard),
                "failed_writes": self.failed_writes,
                "rerouted_writes": self.rerouted_writes,
            }

    def reset_breakers(self) -> None:
        """Force every breaker closed (operator override)."""
        with self._lock:
            for b in self.breakers:
                b.record_success()

    def __repr__(self):
        return (f"<ShardedCheckpointStore {self.root} "
                f"({self.num_shards} shards, {len(self)} checkpoints)>")
