"""Speculative provider prefetch: a background reader warms the cache.

While evaluator workers train, the scheduler already knows which
candidates are *likely* weight providers for the next proposals (the
strategy's current population).  :class:`ProviderPrefetcher` loads those
checkpoints on a background thread into a :class:`WeightCache`, so by
the time the provider is actually selected the load is a cache hit and
its disk cost is **hidden** behind training instead of blocking the
ask→submit→tell loop.

Prefetch is advisory: a failed or late prefetch only means the consumer
falls back to a synchronous load.  Load seconds are recorded on the
cache entry (``hidden_seconds``) so trace accounting can attribute the
hidden I/O cost to the record that consumed it.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Optional

from ..analysis.lockcheck import make_lock
from .cache import WeightCache
from .codec import CorruptCheckpointError

_STOP = object()

#: Lock-discipline assertion (lint R004/R007): state shared between the
#: requesting thread and the background reader.  Every write must hold
#: ``self._lock``; the whole-program analyzer verifies the set matches
#: what it infers.  The prefetcher->cache nesting in :meth:`request`
#: is the repo's one sanctioned lock-under-lock acquisition (see
#: ``repro.analysis.lockcheck.LOCK_HIERARCHY``).
_GUARDED_ATTRS = ("_inflight", "_closed", "requested", "loaded", "skipped",
                  "errors", "corrupt", "last_error", "hidden_seconds")


class ProviderPrefetcher:
    def __init__(self, store, cache: WeightCache, max_pending: int = 32):
        self.store = store
        self.cache = cache
        self._queue: queue.Queue = queue.Queue(maxsize=max_pending)
        self._lock = make_lock("ProviderPrefetcher._lock")
        self._inflight: set[str] = set()
        self._closed = False
        self.requested = 0
        self.loaded = 0
        self.skipped = 0
        self.errors = 0
        self.corrupt = 0
        self.last_error: Optional[str] = None
        self.hidden_seconds = 0.0
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def _run(self) -> None:
        while True:
            key = self._queue.get()
            if key is _STOP:
                return
            try:
                if key in self.cache:        # raced with a sync load
                    continue
                t0 = time.perf_counter()
                weights = self.store.load(key)
                dt = time.perf_counter() - t0
                self.cache.put(key, weights, hidden_seconds=dt)
                with self._lock:
                    self.loaded += 1
                    self.hidden_seconds += dt
            except Exception as exc:        # advisory: consumer falls back
                # errors are *counted and surfaced*, never silently eaten:
                # stats() feeds trace.io_stats["prefetch"] so a run that
                # limped along on cold loads says so in its trace
                with self._lock:
                    self.errors += 1
                    if isinstance(exc, CorruptCheckpointError):
                        self.corrupt += 1
                    self.last_error = f"{key}: {exc!r}"
            finally:
                with self._lock:
                    self._inflight.discard(key)

    def request(self, keys) -> None:
        """Enqueue ``keys`` for background loading.  Keys already cached,
        already queued, or absent from the store are skipped; a full
        queue drops the remainder (prefetch never blocks the caller)."""
        if self._closed:
            return
        for key in keys:
            with self._lock:
                if key in self._inflight:
                    continue
                skip = key in self.cache or not self.store.exists(key)
                if skip:
                    self.skipped += 1
                    continue
                self._inflight.add(key)
            try:
                self._queue.put_nowait(key)
                with self._lock:
                    self.requested += 1
            except queue.Full:
                with self._lock:
                    self._inflight.discard(key)
                return

    def close(self) -> None:
        """Stop the background reader.  Idempotent: a second ``close()``
        (service shutdown racing session teardown) is a no-op — and a
        *concurrent* second close blocks until the worker has actually
        stopped, so every caller returns to a fully-torn-down object."""
        with self._lock:
            first = not self._closed
            self._closed = True
        if first:
            self._queue.put(_STOP)
        self._worker.join()

    def stats(self) -> dict:
        with self._lock:
            return {
                "requested": self.requested,
                "loaded": self.loaded,
                "skipped": self.skipped,
                "errors": self.errors,
                "corrupt": self.corrupt,
                "last_error": self.last_error,
                "hidden_seconds": self.hidden_seconds,
            }

    def __enter__(self) -> "ProviderPrefetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
