"""Runtime lock sanitizer: inversion/re-entry/hierarchy detection.

Tests that provoke violations use a **private** registry so the global
one (asserted clean by the conftest teardown fixture under
``REPRO_LOCKCHECK=1``) never records them.
"""

import json
import threading

import pytest

from repro.analysis import lockcheck
from repro.analysis.lockcheck import (
    LOCK_HIERARCHY,
    LockCheckError,
    LockCheckRegistry,
    SanitizedLock,
    make_lock,
)


@pytest.fixture()
def reg():
    return LockCheckRegistry()


def test_basic_acquire_release(reg):
    lock = SanitizedLock("t.basic", reg=reg)
    assert not lock.locked()
    with lock:
        assert lock.locked()
        assert reg.held_names() == ["t.basic"]
    assert not lock.locked()
    assert reg.held_names() == []
    assert reg.violations() == []
    assert reg.acquisitions == 1


def test_nesting_records_edges(reg):
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)
    with a:
        with b:
            pass
    assert ("t.a", "t.b") in reg.edges()
    assert reg.violations() == []


def test_ab_ba_inversion_across_two_threads(reg):
    """The canonical AB/BA deadlock shape, taken sequentially so the
    test itself cannot deadlock: thread 1 records A->B, thread 2 then
    acquires B->A and the registry flags the inversion."""
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)

    def ab():
        with a:
            with b:
                pass

    def ba():
        with b:
            with a:
                pass

    for fn in (ab, ba):
        t = threading.Thread(target=fn)
        t.start()
        t.join()

    kinds = [v["kind"] for v in reg.violations()]
    assert kinds == ["inversion"]
    (v,) = reg.violations()
    assert v["edge"] == ["t.b", "t.a"]
    assert v["inverse_site"]            # where A->B was first seen


def test_same_thread_inversion_also_detected(reg):
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    assert [v["kind"] for v in reg.violations()] == ["inversion"]


def test_reentry_on_plain_lock_raises(reg):
    lock = SanitizedLock("t.plain", reg=reg)
    with lock:
        with pytest.raises(LockCheckError, match="re-acquired"):
            lock.acquire()
    assert [v["kind"] for v in reg.violations()] == ["reentry"]


def test_reentry_on_rlock_is_fine(reg):
    lock = SanitizedLock("t.re", reentrant=True, reg=reg)
    with lock:
        with lock:
            assert lock.locked()
    assert reg.violations() == []
    assert not lock.locked()


def test_same_name_instance_pair_not_flagged(reg):
    # two instances of the same class's lock: ordering by address is a
    # sharded-design idiom, not an inversion (see module docstring)
    l1 = SanitizedLock("t.shard", reg=reg)
    l2 = SanitizedLock("t.shard", reg=reg)
    with l1:
        with l2:
            pass
    with l2:
        with l1:
            pass
    assert reg.violations() == []


def test_declared_hierarchy_rank_violation(reg):
    outer = SanitizedLock("SuperNet._lock", reg=reg)             # rank 30
    inner = SanitizedLock("_PoolEvaluator._lock", reg=reg)       # rank 20
    assert outer.rank == LOCK_HIERARCHY["SuperNet._lock"]
    with outer:
        with inner:
            pass
    kinds = [v["kind"] for v in reg.violations()]
    assert "hierarchy" in kinds
    v = next(v for v in reg.violations() if v["kind"] == "hierarchy")
    assert v["edge"] == ["SuperNet._lock", "_PoolEvaluator._lock"]
    assert v["ranks"] == [30, 20]


def test_sanctioned_hierarchy_order_is_clean(reg):
    outer = SanitizedLock("_PoolEvaluator._lock", reg=reg)
    inner = SanitizedLock("SuperNet._lock", reg=reg)
    with outer:
        with inner:
            pass
    assert reg.violations() == []


def test_report_and_dump(tmp_path, reg):
    a = SanitizedLock("t.a", reg=reg)
    b = SanitizedLock("t.b", reg=reg)
    with a:
        with b:
            pass
    report = reg.report()
    assert report["acquisitions"] == 2
    assert report["edges"] == [
        {"outer": "t.a", "inner": "t.b", "site": report["edges"][0]["site"]}]
    assert report["violations"] == []
    assert report["hierarchy"] == LOCK_HIERARCHY
    path = tmp_path / "lockcheck.json"
    reg.dump(path)
    assert json.loads(path.read_text())["acquisitions"] == 2


def test_reset(reg):
    a = SanitizedLock("t.a", reg=reg)
    with a:
        pass
    reg.reset()
    assert reg.report()["acquisitions"] == 0
    assert reg.edges() == {}


def test_timeout_and_nonblocking_acquire(reg):
    lock = SanitizedLock("t.t", reg=reg)
    assert lock.acquire(blocking=False)
    done = []

    def contender():
        done.append(lock.acquire(blocking=False))

    t = threading.Thread(target=contender)
    t.start()
    t.join()
    assert done == [False]
    assert reg.held_names() == ["t.t"]   # failed acquire not recorded
    lock.release()


def test_make_lock_disabled_returns_plain_locks(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKCHECK", raising=False)
    assert not lockcheck.enabled()
    assert not isinstance(make_lock("t.x"), SanitizedLock)
    # plain locks still support the full surface used in the repo
    lock = make_lock("t.x")
    with lock:
        pass
    rlock = make_lock("t.x", reentrant=True)
    with rlock:
        with rlock:
            pass


def test_make_lock_env_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_LOCKCHECK", "1")
    assert lockcheck.enabled()
    lock = make_lock("t.env")
    assert isinstance(lock, SanitizedLock)
    assert not lock.reentrant
    rlock = make_lock("t.env.re", reentrant=True)
    assert isinstance(rlock, SanitizedLock) and rlock.reentrant


def test_force_enables_programmatically(monkeypatch):
    monkeypatch.delenv("REPRO_LOCKCHECK", raising=False)
    lockcheck.force(True)
    try:
        assert isinstance(make_lock("t.forced"), SanitizedLock)
    finally:
        lockcheck.force(False)
    assert not isinstance(make_lock("t.forced"), SanitizedLock)


def test_sanitized_locks_work_under_real_concurrency(reg):
    """Smoke: 4 threads hammering one sanitized lock stay correct."""
    lock = SanitizedLock("t.hammer", reg=reg)
    state = {"n": 0}

    def worker():
        for _ in range(200):
            with lock:
                state["n"] += 1

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert state["n"] == 800
    assert reg.violations() == []
    assert reg.acquisitions == 800
