"""Zero-copy provider transport: round trips, handles, searches.

A transport changes how a loaded provider reaches the evaluation task
(shared memory or an mmapped file instead of the weights themselves),
never what the search computes: transport traces are semantically
identical to ones that hand the weights over directly.
"""

import pickle

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore
from repro.cluster import Trace, run_search
from repro.cluster.transport import (
    MmapFileTransport,
    SharedMemoryTransport,
    WeightHandle,
    load_handle_weights,
    make_transport,
    resolve_provider_ref,
)
from repro.nas import RegularizedEvolution


def semantics(trace):
    """The score-relevant view of a trace: everything but timing."""
    return [(r.candidate_id, r.arch_seq, r.score, r.ok, r.provider_id,
             r.transferred, round(r.transfer_coverage, 12), r.parent_id)
            for r in trace]


def evolution(space):
    return RegularizedEvolution(space, rng=0, population_size=4,
                                sample_size=2)


def search(problem, space, tmp_path, tag, n=10, **kw):
    store = CheckpointStore(tmp_path / tag)
    trace = run_search(problem, evolution(space), n, scheme="lcs",
                       store=store, seed=0, **kw)
    return trace, store


# ---------------------------------------------------------------------------
# zero-copy transport
# ---------------------------------------------------------------------------

def sample_weights():
    rng = np.random.default_rng(7)
    return {"conv.kernel": rng.normal(size=(3, 3, 2, 4)).astype(np.float32),
            "dense.bias": rng.normal(size=6).astype(np.float64),
            "scalar": np.float32(2.5) * np.ones((), dtype=np.float32)}


@pytest.mark.parametrize("backend", [SharedMemoryTransport,
                                     MmapFileTransport])
def test_transport_round_trip_and_reuse(backend):
    w = sample_weights()
    with backend() as t:
        h1 = t.publish("prov", w)
        h2 = t.publish("prov", w)            # same key → same segment
        assert h1 is h2
        assert isinstance(h1, WeightHandle) and h1.kind == t.kind
        out = load_handle_weights(h1)
        assert list(out) == list(w)
        for k in w:
            assert np.array_equal(out[k], np.asarray(w[k]))
            assert not out[k].flags.writeable
        assert t.stats()["publishes"] == 1
        assert t.stats()["reuses"] == 1
        assert t.stats()["live_segments"] == 1


@pytest.mark.parametrize("backend", [SharedMemoryTransport,
                                     MmapFileTransport])
def test_handles_survive_pickling(backend):
    w = sample_weights()
    with backend() as t:
        handle = pickle.loads(pickle.dumps(t.publish("p", w)))
        out = resolve_provider_ref(handle)
        assert all(np.array_equal(out[k], np.asarray(w[k])) for k in w)


def test_resolve_provider_ref_passthrough():
    assert resolve_provider_ref(None) is None
    d = {"a": np.zeros(2, dtype=np.float32)}
    assert resolve_provider_ref(d) is d
    with pytest.raises(TypeError):
        resolve_provider_ref(42)


def test_make_transport_normalisation():
    assert make_transport(None) is None
    assert make_transport(False) is None
    assert isinstance(make_transport("shm"), SharedMemoryTransport)
    assert isinstance(make_transport("mmap"), MmapFileTransport)
    auto = make_transport("auto")
    assert isinstance(auto, (SharedMemoryTransport, MmapFileTransport))
    auto.close()
    existing = MmapFileTransport()
    assert make_transport(existing) is existing
    existing.close()
    with pytest.raises(ValueError):
        make_transport("carrier-pigeon")


def test_transport_release_and_close_destroy_segments(tmp_path):
    t = MmapFileTransport(root=tmp_path / "seg")
    h = t.publish("p", sample_weights())
    import os
    assert os.path.exists(h.name)
    t.release("p")
    assert not os.path.exists(h.name)
    h2 = t.publish("q", sample_weights())
    t.close()
    assert not os.path.exists(h2.name)


def test_serial_search_with_transport_matches_sync(problem, space,
                                                   tmp_path):
    sync, _ = search(problem, space, tmp_path, "s", n=8)
    via_shm, _ = search(problem, space, tmp_path, "t", n=8,
                        transport="auto")
    assert semantics(via_shm) == semantics(sync)
    assert via_shm.io_stats["transport"]["publishes"] > 0
    # every second of checkpoint I/O blocks the loop
    for r in list(sync) + list(via_shm):
        assert r.overhead == r.io_blocked


def test_process_pool_with_transport_matches_sync(problem, space,
                                                  tmp_path):
    from repro.cluster import ProcessPoolEvaluator

    sync, _ = search(problem, space, tmp_path, "s", n=6)
    ev = ProcessPoolEvaluator(num_workers=1)   # 1 worker ⇒ deterministic
    try:
        pooled, _ = search(problem, space, tmp_path, "p", n=6,
                           evaluator=ev)
    finally:
        ev.close()
    assert semantics(pooled) == semantics(sync)
    # transport auto-enables for process pools on transfer schemes
    assert pooled.io_stats["transport"]["publishes"] > 0


# ---------------------------------------------------------------------------
# trace serialisation of the I/O fields
# ---------------------------------------------------------------------------

def test_trace_jsonl_round_trips_io_fields(problem, space, tmp_path):
    shipped, _ = search(problem, space, tmp_path, "t", n=6,
                        transport="auto")
    path = shipped.save_jsonl(tmp_path / "t.jsonl")
    loaded = Trace.load_jsonl(path)
    assert loaded.io_stats == shipped.io_stats
    for a, b in zip(loaded, shipped):
        assert (a.overhead, a.io_blocked, a.ckpt_bytes) == \
            (b.overhead, b.io_blocked, b.ckpt_bytes)
