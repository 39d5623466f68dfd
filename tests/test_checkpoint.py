"""CheckpointStore, AsyncCheckpointWriter."""

import os
import pickle
import queue
import threading
import time

import numpy as np
import pytest

from repro.checkpoint import AsyncCheckpointWriter, CheckpointStore
from repro.checkpoint.codec import MAGIC, decode_views
from repro.cluster import SearchDriver
from repro.cluster.trace import TraceRecord
from repro.nas import RandomSearch


def weights(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "d.kernel": rng.normal(size=(8, 4)).astype(np.float32),
        "d.bias": rng.normal(size=4).astype(np.float32),
    }


def test_save_load_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    w = weights()
    store.save("m_000001", w, meta={"score": 0.5, "arch_seq": [1, 2]})
    assert store.exists("m_000001")
    loaded = store.load("m_000001")
    assert list(loaded) == list(w)          # order preserved
    assert all(np.array_equal(loaded[k], w[k]) for k in w)
    assert store.load_meta("m_000001") == {"score": 0.5, "arch_seq": [1, 2]}


def test_keys_len_sizes_delete(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(3):
        store.save(f"m_{i:06d}", weights(i))
    assert len(store) == 3
    assert store.keys() == [f"m_{i:06d}" for i in range(3)]
    assert all(n > 0 for n in store.sizes().values())
    assert store.total_bytes() == sum(store.sizes().values())
    store.delete("m_000001")
    assert not store.exists("m_000001")
    assert len(store) == 2


def test_missing_key_raises(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(FileNotFoundError):
        store.load("nope")
    assert store.load_meta("nope") is None


def test_compressed_store_is_smaller_for_redundant_data(tmp_path):
    w = {"d.kernel": np.zeros((64, 64), dtype=np.float32)}
    plain = CheckpointStore(tmp_path / "plain")
    packed = CheckpointStore(tmp_path / "packed", compress=True)
    plain.save("k", w)
    packed.save("k", w)
    assert packed.nbytes("k") < plain.nbytes("k")
    assert np.array_equal(packed.load("k")["d.kernel"], w["d.kernel"])


def test_load_never_needs_pickle(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path)
    w = weights()
    store.save("k", w, meta={"score": 0.5})
    # one self-describing file per key: order and meta live in its header
    assert [p.name for p in tmp_path.iterdir()] == ["k.ckpt"]
    assert store.path("k").read_bytes().startswith(MAGIC)

    def forbidden(*args, **kwargs):
        raise AssertionError("checkpoint load must not unpickle")

    for name in ("load", "loads"):
        monkeypatch.setattr(pickle, name, forbidden)
    monkeypatch.setattr(np, "load", forbidden)
    loaded = store.load("k")
    assert list(loaded) == list(w)
    assert all(np.array_equal(loaded[k], w[k]) for k in w)
    assert all(not v.flags.writeable for v in loaded.values())
    assert store.load_meta("k") == {"score": 0.5}


def test_async_writer_flushes_to_store(tmp_path):
    store = CheckpointStore(tmp_path)
    with AsyncCheckpointWriter(store) as writer:
        for i in range(5):
            writer.save(f"m_{i:06d}", weights(i), meta={"i": i})
        writer.flush()
        assert len(store) == 5
    assert store.load_meta("m_000003") == {"i": 3}


class FlakyStore(CheckpointStore):
    """Fails the first ``fail`` saves, then behaves normally."""

    def __init__(self, root, fail=1):
        super().__init__(root)
        self.fail = fail

    def save(self, key, weights, meta=None):
        if self.fail > 0:
            self.fail -= 1
            raise OSError(f"disk full while writing {key}")
        return super().save(key, weights, meta)


class SlowStore(CheckpointStore):
    """Blocks every save on an event — lets tests fill the queue."""

    def __init__(self, root):
        super().__init__(root)
        self.gate = threading.Event()

    def save(self, key, weights, meta=None):
        self.gate.wait(timeout=10.0)
        return super().save(key, weights, meta)


def test_async_writer_raises_first_error_on_flush(tmp_path):
    store = FlakyStore(tmp_path, fail=1)
    writer = AsyncCheckpointWriter(store)
    writer.save("bad", weights(0))
    writer.save("good", weights(1))
    with pytest.raises(OSError, match="disk full"):
        writer.flush()
    # errors are cleared once raised; healthy writes flush cleanly
    writer.flush()
    assert store.exists("good") and not store.exists("bad")
    writer.close()


def test_async_writer_close_raises_but_stops_worker(tmp_path):
    writer = AsyncCheckpointWriter(FlakyStore(tmp_path, fail=1))
    writer.save("bad", weights())
    with pytest.raises(OSError):
        writer.close()
    assert not writer._worker.is_alive()
    writer.close()                               # idempotent after error
    with pytest.raises(RuntimeError):
        writer.save("late", weights())


def test_async_writer_queue_full_backpressure(tmp_path):
    store = SlowStore(tmp_path)
    writer = AsyncCheckpointWriter(store, max_queue=1)
    writer.save("k0", weights(0))                # picked up by the worker
    for attempt in range(200):                   # fill the 1-slot queue
        try:
            writer.save("k1", weights(1), block=False)
            break
        except queue.Full:  # pragma: no cover - depends on thread timing
            time.sleep(0.005)                    # let the worker take k0
    with pytest.raises(queue.Full):
        writer.save("k2", weights(2), block=False)
    with pytest.raises(queue.Full):
        writer.save("k3", weights(3), timeout=0.01)
    assert "k3" not in writer.pending_keys()
    store.gate.set()                             # release the writer
    writer.close()
    assert store.exists("k0") and store.exists("k1")


def test_async_writer_snapshots_arrays_and_records_results(tmp_path):
    store = CheckpointStore(tmp_path)
    writer = AsyncCheckpointWriter(store)
    w = weights()
    writer.save("k", w)
    w["d.bias"][:] = -1.0                        # mutate after enqueue
    writer.flush()
    assert not np.array_equal(store.load("k")["d.bias"], w["d.bias"])
    infos = writer.results()
    assert infos["k"].nbytes == store.nbytes("k")
    assert writer.durations()["k"] > 0.0
    assert writer.pending_keys() == set()
    writer.close()


# ---------------------------------------------------------------------------
# atomic saves + payload CRC
# ---------------------------------------------------------------------------

def test_save_leaves_no_temp_files(tmp_path):
    store = CheckpointStore(tmp_path)
    for i in range(5):
        store.save(f"m_{i:06d}", weights(i))
    leftovers = list(tmp_path.glob("*.tmp"))
    assert leftovers == []


def test_interrupted_save_never_tears_existing_checkpoint(tmp_path,
                                                          monkeypatch):
    """A crash mid-save (simulated: os.replace raises) must leave the
    previously saved checkpoint fully intact — readers see old-or-new,
    never a torn file at the canonical name."""
    import os as _os

    store = CheckpointStore(tmp_path)
    w_old = weights(0)
    store.save("m_000001", w_old)

    real_replace = _os.replace

    def dying_replace(src, dst):
        raise OSError("crash before rename")

    monkeypatch.setattr("repro.checkpoint.store.os.replace", dying_replace)
    with pytest.raises(OSError, match="crash before rename"):
        store.save("m_000001", weights(1))
    monkeypatch.setattr("repro.checkpoint.store.os.replace", real_replace)
    # the old checkpoint still loads, bit-perfect, CRC included
    loaded = store.load("m_000001")
    assert all(np.array_equal(loaded[k], w_old[k]) for k in w_old)


@pytest.mark.parametrize("die_at", [1, 2], ids=["first", "second"])
def test_save_killed_after_temp_write_keeps_a_whole_version(
        tmp_path, monkeypatch, space, problem, die_at):
    """A save killed at its first or second ``os.replace``, after the temp
    file is written: the key still loads as one whole version — the
    previous one, with its own meta, when the save did not return — so
    the scheduler quarantines nothing and no temp file is listed."""
    store = CheckpointStore(tmp_path)
    w_old, w_new = weights(0), weights(1)
    store.save("m_000001", w_old, meta={"score": 0.5})
    real_replace = os.replace
    calls = []

    def dying_replace(src, dst):
        calls.append(dst)
        if len(calls) == die_at:
            raise OSError("killed after the temp write")
        real_replace(src, dst)

    monkeypatch.setattr("repro.checkpoint.store.os.replace", dying_replace)
    try:
        store.save("m_000001", w_new, meta={"score": 0.9})
        saved = True
    except OSError:
        saved = False
    monkeypatch.undo()
    w_want, meta_want = ((w_new, {"score": 0.9}) if saved
                         else (w_old, {"score": 0.5}))
    driver = SearchDriver(problem, RandomSearch(space, rng=0), 1,
                          scheme="lcs", store=store)
    loaded = driver._load_provider("m_000001", TraceRecord(0, (), 0.0))
    assert loaded is not None
    assert all(np.array_equal(loaded[k], w_want[k]) for k in w_want)
    assert store.load_meta("m_000001") == meta_want
    assert driver.fault_stats.quarantined == 0
    assert store.quarantined_keys() == []
    assert store.keys() == ["m_000001"]


def test_save_is_one_fsync_and_one_replace(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path)
    counts = {"fsync": 0, "replace": 0}
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        counts["fsync"] += 1
        real_fsync(fd)

    def replace(src, dst):
        counts["replace"] += 1
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    for i in range(3):
        store.save(f"m_{i:06d}", weights(i), meta={"i": i})
    assert counts == {"fsync": 3, "replace": 3}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"m_{i:06d}.ckpt" for i in range(3)]


def test_crc_mismatch_raises_corrupt_checkpoint(tmp_path):
    from repro.checkpoint import CorruptCheckpointError

    store = CheckpointStore(tmp_path)
    store.save("m_000001", weights())
    path = store.path("m_000001")
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(CorruptCheckpointError, match="CRC32"):
        store.load("m_000001")


def test_crc_roundtrips_for_compressed_stores(tmp_path):
    store = CheckpointStore(tmp_path, compress=True)
    w = weights()
    store.save("m_000001", w)
    loaded = store.load("m_000001")
    assert all(np.array_equal(loaded[k], w[k]) for k in w)


def test_load_decodes_the_bytes_it_verified(tmp_path, monkeypatch):
    """A concurrent ``os.replace`` right after the CRC check must not
    make ``load`` decode the new, never-verified archive."""
    import types
    import zlib

    import repro.checkpoint.codec as codec_mod

    store = CheckpointStore(tmp_path / "a")
    w_old, w_new = weights(0), weights(1)
    store.save("m_000001", w_old)
    other = CheckpointStore(tmp_path / "b")
    other.save("m_000001", w_new)
    path = store.path("m_000001")
    swapped = []

    def crc32_then_swap(data, *args):
        crc = zlib.crc32(data, *args)
        if not swapped:
            staged = path.with_name("swap.tmp")
            staged.write_bytes(other.path("m_000001").read_bytes())
            os.replace(staged, path)
            swapped.append(True)
        return crc

    monkeypatch.setattr(codec_mod, "zlib",
                        types.SimpleNamespace(crc32=crc32_then_swap))
    loaded = store.load("m_000001")
    assert swapped
    assert all(np.array_equal(loaded[k], w_old[k]) for k in w_old)
    # the file on disk now holds the other checkpoint's tensors
    monkeypatch.undo()
    raw, _ = decode_views(path.read_bytes())
    assert np.array_equal(raw["d.kernel"], w_new["d.kernel"])


# ---------------------------------------------------------------------------
# idempotent close (service shutdown races session teardown)
# ---------------------------------------------------------------------------

def test_async_writer_double_close_is_noop(tmp_path):
    store = CheckpointStore(tmp_path)
    writer = AsyncCheckpointWriter(store)
    writer.save("k", weights())
    writer.close()
    writer.close()                           # second close: no-op
    assert store.exists("k")
    with pytest.raises(RuntimeError):
        writer.save("k2", weights())


def test_async_writer_concurrent_close_from_two_threads(tmp_path):
    store = CheckpointStore(tmp_path)
    writer = AsyncCheckpointWriter(store)
    for i in range(8):
        writer.save(f"k{i}", weights(i))
    errors = []

    def closer():
        try:
            writer.close()
        except Exception as exc:             # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=closer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    # every closer returned only after the worker fully drained
    assert len(store.keys()) == 8
    assert not writer._worker.is_alive()


def test_prefetcher_double_close_is_noop(tmp_path):
    from repro.checkpoint import ProviderPrefetcher, WeightCache

    store = CheckpointStore(tmp_path)
    store.save("k", weights())
    pf = ProviderPrefetcher(store, WeightCache())
    pf.request(["k"])
    pf.close()
    pf.close()                               # second close: no-op
    assert not pf._worker.is_alive()
    pf.request(["k"])                        # post-close requests ignored


def test_prefetcher_concurrent_close_from_two_threads(tmp_path):
    from repro.checkpoint import ProviderPrefetcher, WeightCache

    store = CheckpointStore(tmp_path)
    pf = ProviderPrefetcher(store, WeightCache())
    threads = [threading.Thread(target=pf.close) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not pf._worker.is_alive()
