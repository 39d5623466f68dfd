"""Checkpoint store and its sharded extension, both on one file format
(:mod:`repro.checkpoint.codec`)."""

from .codec import CorruptCheckpointError
from .sharded import ShardBreaker, ShardedCheckpointStore, StoreUnavailableError
from .store import CheckpointInfo, CheckpointStore

__all__ = [
    "CheckpointStore",
    "CheckpointInfo",
    "CorruptCheckpointError",
    "ShardBreaker",
    "ShardedCheckpointStore",
    "StoreUnavailableError",
]
