import base64
import json
import random

import pytest

from causal_kv.durability import ChangeLog, change_line
from causal_kv.engine import Document, genesis_change, set_op
from causal_kv.kvstore import Store
from causal_kv.node import Node, NodeConfig

from test_sync import Bus


def logged_store(tmp_path, mode="counter", fsync=False):
    log = ChangeLog(tmp_path, fsync=fsync)
    doc = log.load()
    if not doc.changes:
        doc.apply_remote(genesis_change(mode))
        log.append(doc.get_change(doc.genesis_hash))
    store = Store(doc, mode, "bytes", 1)
    store.commit_hooks.append(log.append)
    return store, log


def test_empty_directory_loads_a_fresh_genesis_document(tmp_path):
    store, log = logged_store(tmp_path)
    assert len(store.doc.changes) == 1
    assert log.path.read_bytes().count(b"\n") == 1


def test_put_appends_exactly_one_line(tmp_path):
    store, log = logged_store(tmp_path)
    before = log.path.read_bytes().count(b"\n")
    store.put(b"a", b"1")
    assert log.path.read_bytes().count(b"\n") == before + 1


def test_crash_restart_restores_leaves_and_heads(tmp_path):
    store, log = logged_store(tmp_path)
    rng = random.Random(5)
    for i in range(50):
        if rng.random() < 0.8:
            store.put(b"k%d" % rng.randint(0, 9), b"v%d" % i)
        else:
            store.delete_range(b"k%d" % rng.randint(0, 9))
    log.close()  # hard stop: nothing beyond what reached the file survives

    reloaded = ChangeLog(tmp_path).load()
    assert reloaded.leaves_snapshot() == store.doc.leaves_snapshot()
    assert reloaded.heads == store.doc.heads
    assert list(reloaded.changes) == list(store.doc.changes)


def test_remote_changes_are_logged_too(tmp_path):
    origin = Document.with_genesis("hash")
    origin.commit(2, [set_op(("kvs", "x"), "remote")])

    store, log = logged_store(tmp_path, mode="hash")
    for change in origin.missing_changes(store.doc.version_vector()):
        status, applied = store.doc.apply_remote(change)
        for c in applied:
            log.append(c)
    log.close()
    reloaded = ChangeLog(tmp_path).load()
    assert reloaded.leaves_snapshot() == store.doc.leaves_snapshot()


def test_reload_then_resave_is_byte_identical(tmp_path):
    store, log = logged_store(tmp_path)
    for i in range(10):
        store.put(b"a", b"v%d" % i)
    log.close()
    original = log.path.read_bytes()

    reloaded = ChangeLog(tmp_path).load()
    resaved = b"".join(change_line(c) for c in reloaded.changes.values())
    assert resaved == original


def test_torn_final_line_loads_the_prefix_state(tmp_path):
    store, log = logged_store(tmp_path)
    store.put(b"a", b"1")
    pre_crash = dict(store.doc.leaves_snapshot())
    store.put(b"a", b"2")
    log.close()

    raw = log.path.read_bytes()
    log.path.write_bytes(raw[:-20])  # chop into the final line
    reloaded = ChangeLog(tmp_path).load()
    assert reloaded.leaves_snapshot() == pre_crash
    # the file was truncated back to the good prefix
    assert log.path.read_bytes().endswith(b"\n")


def test_corrupt_middle_line_truncates_from_there(tmp_path):
    store, log = logged_store(tmp_path)
    store.put(b"a", b"1")
    good_state = dict(store.doc.leaves_snapshot())
    store.put(b"a", b"2")
    log.close()

    lines = log.path.read_bytes().splitlines(keepends=True)
    corrupted = lines[2][:10] + b"garbage" + lines[2][10:]
    log.path.write_bytes(b"".join(lines[:2]) + corrupted)
    reloaded = ChangeLog(tmp_path).load()
    assert reloaded.leaves_snapshot() == good_state


def test_tampered_change_fails_hash_verification_on_load(tmp_path):
    store, log = logged_store(tmp_path)
    store.put(b"a", b"1")
    log.close()

    lines = log.path.read_bytes().splitlines(keepends=True)
    obj = json.loads(lines[1])
    obj["ops"][1]["value"] = "ZXZpbA=="
    lines[1] = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    log.path.write_bytes(b"".join(lines))
    reloaded = ChangeLog(tmp_path).load()
    assert len(reloaded.changes) == 1  # only genesis survives


def test_every_log_prefix_is_a_valid_document(tmp_path):
    store, log = logged_store(tmp_path)
    for i in range(10):
        store.put(b"k%d" % (i % 3), b"v%d" % i)
    log.close()
    lines = log.path.read_bytes().splitlines(keepends=True)
    for n in range(1, len(lines) + 1):
        prefix_dir = tmp_path / f"prefix{n}"
        prefix_dir.mkdir()
        (prefix_dir / "changes.log").write_bytes(b"".join(lines[:n]))
        doc = ChangeLog(prefix_dir).load()
        assert len(doc.changes) == n
        assert doc.pending_count() == 0


def test_fsync_mode_round_trips(tmp_path):
    store, log = logged_store(tmp_path, fsync=True)
    store.put(b"a", b"1")
    log.close()
    assert ChangeLog(tmp_path).load().leaves_snapshot() == store.doc.leaves_snapshot()


def test_fsync_mode_syncs_the_directory_on_create_and_after_truncation(tmp_path, monkeypatch):
    import os
    import stat

    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    store, log = logged_store(tmp_path, fsync=True)
    store.put(b"a", b"1")
    log.close()
    assert synced.count(True) == 1, "creating changes.log syncs its directory once"

    log.path.write_bytes(log.path.read_bytes()[:-20])  # a torn final line
    synced.clear()
    ChangeLog(tmp_path, fsync=True).load()
    assert synced == [True], "the truncation is followed by a directory sync"

    synced.clear()
    ChangeLog(tmp_path, fsync=True).load()
    assert synced == [], "an intact log is neither truncated nor synced"


def test_restarting_in_a_different_mode_is_refused(tmp_path):
    node = Node(NodeConfig(node_id=1, mode="counter", data_dir=str(tmp_path)))
    node.log.close()
    with pytest.raises(ValueError, match="different revision mode"):
        Node(NodeConfig(node_id=1, mode="hash", data_dir=str(tmp_path)))


def _history_with_one_failed_append(mode, seed, fail_at, tmp_path):
    """Node 1 (logged) and node 2 take random puts, exchange broadcasts and run
    sync rounds; node 1's fail_at-th log append raises. Returns the hashes of
    the puts node 1 acked, the origin of each append, and node 1."""
    bus = Bus()
    a = bus.add(1, mode=mode, peers=[2], data_dir=str(tmp_path))
    b = bus.add(2, mode=mode, peers=[1])
    bus.pump()
    origins = []
    real_append = a.log.append

    def flaky_append(change):
        origins.append("local" if change.actor == 1 else "remote")
        if len(origins) == fail_at:
            raise OSError("injected append failure")
        real_append(change)

    a.log.append = flaky_append
    rng = random.Random(seed)
    acked = []
    for step in range(30):
        r = rng.random()
        key = base64.b64encode(b"k%d" % rng.randrange(4)).decode()
        value = base64.b64encode(b"v%d" % step).decode()
        if r < 0.4:
            if a.dispatch({"id": step, "op": "put", "key": key, "value": value})["ok"]:
                acked.append(next(reversed(a.doc.changes)))
        elif r < 0.8:
            b.dispatch({"id": step, "op": "put", "key": key, "value": value})
        elif r < 0.9:
            bus.pump()
        elif rng.random() < 0.5:
            a.sync_with(2)
            bus.pump()
        else:
            b.sync_with(1)
            bus.pump()
    return acked, origins, a


@pytest.mark.parametrize("mode", ["counter", "hash"])
def test_one_failed_append_at_any_position_loses_no_acked_put(mode, tmp_path):
    failed_origins = set()
    for seed in range(3):
        _, origins, clean = _history_with_one_failed_append(mode, seed, 0, tmp_path / f"{seed}-clean")
        clean.log.close()
        for fail_at in range(1, len(origins) + 1):
            data_dir = tmp_path / f"{seed}-{fail_at}"
            acked, seen, node = _history_with_one_failed_append(mode, seed, fail_at, data_dir)
            assert seen[:fail_at] == origins[:fail_at]  # the same history up to the failure
            failed_origins.add(seen[fail_at - 1])
            node.log.close()
            restarted = Node(NodeConfig(node_id=1, mode=mode, data_dir=str(data_dir)))
            restarted.log.close()
            missing = [h for h in acked if not restarted.doc.has_change(h)]
            assert not missing, f"seed {seed}: failing append {fail_at} lost acked puts"
            assert node.degraded
            status = node.dispatch({"id": 1, "op": "status"})
            assert status["ok"] and status["degraded"] is True
            refused = node.dispatch({"id": 2, "op": "put", "key": "YQ==", "value": "YQ=="})
            assert refused["error"]["code"] == "degraded"
    assert failed_origins == {"local", "remote"}
