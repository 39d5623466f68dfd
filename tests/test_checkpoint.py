"""CheckpointStore: round trips, atomic saves, CRC checks."""

import os
import pickle

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore
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
