"""Checkpoint store + cache/prefetch/write-behind/sharded extensions,
all on one file format (:mod:`repro.checkpoint.codec`)."""

from .cache import DEFAULT_CACHE_BYTES, WeightCache, make_cache, weights_nbytes
from .codec import CorruptCheckpointError
from .multilevel import AsyncCheckpointWriter
from .prefetch import ProviderPrefetcher
from .sharded import ShardBreaker, ShardedCheckpointStore, StoreUnavailableError
from .store import CheckpointInfo, CheckpointStore

__all__ = [
    "CheckpointStore",
    "CheckpointInfo",
    "CorruptCheckpointError",
    "AsyncCheckpointWriter",
    "WeightCache",
    "ProviderPrefetcher",
    "ShardBreaker",
    "ShardedCheckpointStore",
    "StoreUnavailableError",
    "make_cache",
    "weights_nbytes",
    "DEFAULT_CACHE_BYTES",
]
