"""The read indexes checked against brute-force oracles: the sorted key index
behind scans and the per-leaf writer lists behind hash-mode historical reads,
on two merged replicas and on a third copy rebuilt from the log."""

import base64
import json
import random

import pytest

from causal_kv.durability import ChangeLog
from causal_kv.engine import Document, set_op
from causal_kv.kvstore import ApiError, Store
from causal_kv.watch import WatchManager

from oracles import SnapView, range_oracle, replay_oracle
from test_sync import Bus

MODES = [(mode, schema) for mode in ("counter", "hash") for schema in ("bytes", "json")]
KEYS = [b"k%02d" % i for i in range(12)]


def random_value(rng, schema, step):
    if schema == "bytes":
        return b"v%d" % step
    fields = {f"f{i}": step for i in range(3) if rng.random() < 0.6} or {"f0": step}
    if rng.random() < 0.5:
        fields["g"] = {"h": rng.randrange(3)}
    return json.dumps(fields).encode()


def random_request(store, rng, step, schema):
    """One random put, delete_range, txn, lease_grant or lease_revoke."""
    key = rng.choice(KEYS)
    r = rng.random()
    try:
        if r < 0.45:
            leases = store.lease_list()
            lease = rng.choice(leases).id if leases and rng.random() < 0.3 else None
            store.put(key, random_value(rng, schema, step), lease=lease)
        elif r < 0.6:
            end = rng.choice([None, b"\x00", rng.choice(KEYS)])
            store.delete_range(key, end)
        elif r < 0.75:
            success = [
                {"op": "put", "key": rng.choice(KEYS), "value": random_value(rng, schema, step)},
                {"op": "delete_range", "key": rng.choice(KEYS), "range_end": rng.choice(KEYS)},
                {"op": "range", "key": key, "range_end": b"\x00", "limit": 2},
            ]
            store.txn([{"key": key, "target": "value", "value": b"v0"}], success, success[:1])
        elif r < 0.87:
            store.lease_grant(60)
        else:
            leases = store.lease_list()
            if leases:
                store.lease_revoke(rng.choice(leases).id)
    except ApiError:
        pass


def merged_replicas(mode, schema, seed, tmp_path):
    """Two nodes that take random requests with lagging delivery and then sync,
    plus a store over a third document rebuilt from node 1's log."""
    bus = Bus()
    a = bus.add(1, mode=mode, schema=schema, peers=[2], data_dir=str(tmp_path))
    b = bus.add(2, mode=mode, schema=schema, peers=[1])
    bus.pump()
    # components that are not base64 stay out of the key index, as in the oracle
    a.store._commit([set_op(("kvs", "not base64!", "value"), "x")])
    rng = random.Random(seed)
    for step in range(80):
        random_request(rng.choice((a, b)).store, rng, step, schema)
        if rng.random() < 0.25:
            bus.pump()
    a.sync_with(2)
    b.sync_with(1)
    bus.pump()
    assert a.doc.heads == b.doc.heads
    a.log.close()
    rebuilt = ChangeLog(tmp_path).load()
    assert rebuilt.heads == a.doc.heads
    return [a.store, b.store, Store(rebuilt, mode, schema, member_id=3)]


def random_scans(rng, n):
    for _ in range(n):
        key = rng.choice(KEYS[:-1])
        end = rng.choice([None, b"\x00", rng.choice(KEYS), key])
        yield key, end, rng.choice([None, 0, 1, 3, 10])


@pytest.mark.parametrize("mode,schema", MODES)
def test_ranges_and_historical_reads_match_the_oracles(mode, schema, tmp_path):
    for seed in range(3):
        rng = random.Random(f"{seed}:reads")
        for store in merged_replicas(mode, schema, seed, tmp_path / str(seed)):
            view = SnapView(store.doc.leaves_snapshot())
            for key, end, limit in random_scans(rng, 40):
                _, items = store.range(key, end, limit=limit)
                assert [i.to_wire() for i in items] == range_oracle(store, key, end, limit, view)
            changes = list(store.doc.changes.values())
            for _ in range(10):
                if mode == "counter":
                    at = rng.randint(1, store.current_revision())
                    view, max_rev = SnapView(store.doc.leaves_snapshot()), at
                else:
                    at = [c.hash for c in rng.sample(changes, rng.randint(1, 2))]
                    view, max_rev = SnapView(replay_oracle(changes, at)), None
                    assert store.doc.state_at(at) == replay_oracle(changes, at)
                for key, end, limit in random_scans(rng, 5):
                    _, items = store.range(key, end, at=at, limit=limit)
                    assert [i.to_wire() for i in items] == range_oracle(store, key, end, limit, view, max_rev)


@pytest.mark.parametrize("mode,schema", MODES)
def test_limited_scan_reads_only_its_answer_and_the_dead_keys_it_passes(mode, schema, monkeypatch):
    store = Store(Document.with_genesis(mode), mode, schema, member_id=1)
    value = b"v" if schema == "bytes" else b'{"f":1}'
    store.txn([], [{"op": "put", "key": b"k%05d" % i, "value": value} for i in range(20000)], [])
    store.delete_range(b"k10000", b"k10005")
    store.delete_range(b"k10007", b"k10009")
    reads, decodes = [], []
    read_item, b64decode = Store.read_item, base64.b64decode
    monkeypatch.setattr(Store, "read_item", lambda self, key, *a: reads.append(key) or read_item(self, key, *a))
    monkeypatch.setattr(base64, "b64decode", lambda *a, **kw: decodes.append(a) or b64decode(*a, **kw))
    _, items = store.range(b"k09998", b"\x00", limit=10)
    assert [i.key for i in items] == [b"k09998", b"k09999", b"k10005", b"k10006"] + [b"k%05d" % i for i in range(10009, 10015)]
    dead_in_range = 7
    assert len(reads) <= 10 + dead_in_range
    assert len(decodes) <= len(reads)  # values only: no key is decoded to find the range
    reads.clear()
    store.range(b"k12000", b"k13000", limit=10)
    assert len(reads) == 10


class CountingDict(dict):
    """The document's change store, counting lookups by hash."""

    lookups = 0

    def __getitem__(self, digest):
        self.lookups += 1
        return super().__getitem__(digest)


@pytest.mark.parametrize("schema", ["bytes", "json"])
def test_historical_reads_and_watch_replay_never_replay_the_closure(schema, monkeypatch):
    store = Store(Document.with_genesis("hash"), "hash", schema, member_id=1)
    value = (lambda i: b"%d" % i) if schema == "bytes" else (lambda i: b'{"f":%d,"g":{"h":%d}}' % (i, i))
    at = None
    for i in range(2000):
        if i % 400 == 0:
            store.put(b"watched", value(i))
            at = list(store.doc.heads) if i == 800 else at
        store.put(b"other%d" % (i % 50), value(i))
    writes = 5 if schema == "bytes" else 10  # puts of the watched key times its leaves
    store.doc.changes = CountingDict(store.doc.changes)

    def no_replay(*_):
        raise AssertionError("a historical read went through state_at")

    monkeypatch.setattr(Document, "state_at", no_replay)
    _, items = store.range(b"watched", at=at)
    assert items[0].value == value(800)
    assert store.doc.changes.lookups <= len(at) + writes

    store.doc.changes.lookups = 0
    events = []
    WatchManager(store).create(b"watched", None, at, lambda _id, batch: events.extend(batch))
    assert [e.value for e in events] == [value(1200), value(1600)]
    assert store.doc.changes.lookups <= len(events) * writes


def test_a_non_canonical_base64_key_component_stays_out_of_the_key_index():
    from causal_kv.engine import change_to_wire
    from causal_kv.node import Node, NodeConfig

    n1, n2 = (Node(NodeConfig(node_id=i, mode="hash")) for i in (1, 2))
    assert n1.dispatch({"id": 1, "op": "put", "key": "YQ==", "value": "MQ=="})["ok"]
    for change in n1.doc.missing_changes(n2.doc.version_vector()):
        n2.doc.apply_remote(change)
    pushes = []
    assert n1.dispatch({"id": 2, "op": "watch_create", "key": "YQ=="}, watch_sink=pushes.append)["ok"]
    # "YR==" differs from "YQ==" only in padding bits, which decoding ignores
    peer_change = n2.doc.commit(2, [set_op(("kvs", "YR==", "value"), "Mg==")])
    n1.handle_peer_message({"type": "change", "from": 2, "change": change_to_wire(peer_change)})
    assert n1.doc.has_change(peer_change.hash), "the change itself is accepted, not rejected at the wire"
    resp = n1.dispatch({"id": 3, "op": "range", "key": "YQ==", "range_end": "AA=="})
    assert resp["count"] == 1
    assert [(kv["key"], kv["value"]) for kv in resp["kvs"]] == [("YQ==", "MQ==")]
    assert pushes == [], "a watch on b'a' sees no event from a change that did not write it"
