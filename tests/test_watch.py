import pytest

from causal_kv.engine import Document
from causal_kv.kvstore import ApiError, Store
from causal_kv.watch import WatchManager


class Sink:
    def __init__(self):
        self.events = []

    def __call__(self, watch_id, events):
        self.events.extend(events)


class Node:
    """Minimal store + watch wiring: local commits and remote merges fan out."""

    def __init__(self, mode="counter", schema="bytes", member_id=1):
        self.store = Store(Document.with_genesis(mode), mode, schema, member_id)
        self.watches = WatchManager(self.store)
        self.store.commit_hooks.append(lambda change: self.watches.on_change(change, "local"))

    def pull_from(self, other):
        for change in other.store.doc.missing_changes(self.store.doc.version_vector()):
            status, applied = self.store.doc.apply_remote(change)
            for c in applied:
                self.watches.on_change(c, "remote")


def test_watch_then_put_yields_one_event():
    node = Node()
    sink = Sink()
    node.watches.create(b"a", None, None, sink)
    node.store.put(b"a", b"1")
    assert len(sink.events) == 1
    assert sink.events[0].type == "put"
    assert sink.events[0].value == b"1"
    assert sink.events[0].mod_revision == 2


def test_cancel_then_put_yields_nothing():
    node = Node()
    sink = Sink()
    watch_id = node.watches.create(b"a", None, None, sink)
    assert node.watches.cancel(watch_id)
    node.store.put(b"a", b"1")
    assert sink.events == []
    assert not node.watches.cancel(watch_id)


def test_watch_range_matches_interval():
    node = Node()
    sink = Sink()
    node.watches.create(b"a", b"c", None, sink)
    node.store.put(b"a", b"1")
    node.store.put(b"b", b"2")
    node.store.put(b"c", b"3")
    assert [e.key for e in sink.events] == [b"a", b"b"]


def test_delete_yields_delete_event():
    node = Node()
    sink = Sink()
    node.watches.create(b"a", None, None, sink)
    node.store.put(b"a", b"1")
    node.store.delete_range(b"a")
    assert [e.type for e in sink.events] == ["put", "delete"]
    assert sink.events[1].mod_revision == 3


def test_counter_replay_from_start_revision():
    node = Node()
    node.store.put(b"a", b"1")  # rev 2
    node.store.put(b"a", b"2")  # rev 3
    node.store.delete_range(b"a")  # rev 4
    sink = Sink()
    node.watches.create(b"a", None, 1, sink)
    assert [(e.type, e.mod_revision) for e in sink.events] == [("put", 2), ("put", 3), ("delete", 4)]
    assert sink.events[0].value == b"1"


def test_counter_replay_respects_start_position():
    node = Node()
    node.store.put(b"a", b"1")  # rev 2
    node.store.put(b"a", b"2")  # rev 3
    sink = Sink()
    node.watches.create(b"a", None, 2, sink)
    assert [(e.type, e.mod_revision) for e in sink.events] == [("put", 3)]


def test_counter_watch_start_beyond_current_revision_errors():
    node = Node()
    with pytest.raises(ApiError) as err:
        node.watches.create(b"a", None, 99, Sink())
    assert err.value.code == "future_revision"


def test_no_start_watch_skips_existing_history():
    node = Node()
    node.store.put(b"a", b"1")
    sink = Sink()
    node.watches.create(b"a", None, None, sink)
    assert sink.events == []
    node.store.put(b"a", b"2")
    assert len(sink.events) == 1


def fig3_cluster():
    """Two counter-mode nodes with from-genesis watches, driven through the
    write-sync-conflict-merge sequence, returning both nodes and their sinks."""
    s1, s2 = Node(member_id=1), Node(member_id=2)
    sink1, sink2 = Sink(), Sink()
    s1.watches.create(b"a", None, 1, sink1)
    s2.watches.create(b"a", None, 1, sink2)
    s1.store.put(b"a", b"1")  # revision 2
    s2.pull_from(s1)
    s1.store.put(b"a", b"2")  # revision 3 at S1
    s2.store.put(b"a", b"3")  # revision 3 at S2, concurrently
    s1.pull_from(s2)
    s2.pull_from(s1)
    return s1, s2, sink1, sink2


def test_merge_resend_rule_loser_gets_second_event_at_same_revision():
    s1, s2, sink1, sink2 = fig3_cluster()
    # identify which node's concurrent write lost the merge
    winner_value = s1.store.range(b"a")[1][0].value
    assert winner_value == s2.store.range(b"a")[1][0].value
    loser_sink, winner_sink = (sink1, sink2) if winner_value == b"3" else (sink2, sink1)
    loser_revs = [e.mod_revision for e in loser_sink.events]
    winner_revs = [e.mod_revision for e in winner_sink.events]
    assert loser_revs == [2, 3, 3], "losing stream re-sends revision 3"
    assert winner_revs == [2, 3], "winning stream does not re-send"
    assert loser_sink.events[-1].value == winner_value
    assert winner_sink.events[-1].value == winner_value


def test_streams_end_on_the_converged_value_regardless_of_node():
    s1, s2, sink1, sink2 = fig3_cluster()
    assert sink1.events[-1].value == sink2.events[-1].value


def test_watch_winner_rule_converges_across_three_nodes():
    import random

    rng = random.Random(13)
    nodes = [Node(member_id=i) for i in (1, 2, 3)]
    sinks = []
    for node in nodes:
        sink = Sink()
        node.watches.create(b"k", None, 1, sink)
        sinks.append(sink)
    for step in range(30):
        rng.choice(nodes).store.put(b"k", b"v%d" % step)
        if rng.random() < 0.4:
            a, b = rng.sample(nodes, 2)
            a.pull_from(b)
            b.pull_from(a)
    for _ in range(3):  # full cluster sync
        for a in nodes:
            for b in nodes:
                if a is not b:
                    a.pull_from(b)
    values = {node.store.range(b"k")[1][0].value for node in nodes}
    assert len(values) == 1
    converged = values.pop()
    for sink in sinks:
        assert sink.events, "every watcher saw traffic"
        assert sink.events[-1].value == converged, "last delivered event is the winner"


def test_counter_replay_over_a_key_range_is_rev_ordered():
    node = Node()
    node.store.put(b"a", b"1")  # rev 2
    node.store.put(b"b", b"2")  # rev 3
    node.store.put(b"a", b"3")  # rev 4
    node.store.delete_range(b"b")  # rev 5
    sink = Sink()
    node.watches.create(b"a", b"\x00", 1, sink)
    assert [(e.mod_revision, e.key, e.type) for e in sink.events] == [
        (2, b"a", "put"),
        (3, b"b", "put"),
        (4, b"a", "put"),
        (5, b"b", "delete"),
    ]


def test_hash_mode_events_carry_change_and_frontier():
    node = Node(mode="hash")
    sink = Sink()
    node.watches.create(b"a", None, None, sink)
    node.store.put(b"a", b"1")
    event = sink.events[0]
    assert event.change in node.store.doc.changes
    assert event.heads == node.store.doc.heads
    assert event.mod_revision is None


def test_hash_mode_duplicate_delivery_emits_once():
    origin = Node(mode="hash", member_id=1)
    replica = Node(mode="hash", member_id=2)
    sink = Sink()
    replica.watches.create(b"a", None, None, sink)
    origin.store.put(b"a", b"1")
    change = list(origin.store.doc.changes.values())[-1]
    status, applied = replica.store.doc.apply_remote(change)
    for c in applied:
        replica.watches.on_change(c, "remote")
    # same change again via another path: duplicate, no event
    status, applied = replica.store.doc.apply_remote(change)
    assert status == "duplicate"
    for c in applied:
        replica.watches.on_change(c, "remote")
    assert len(sink.events) == 1


def test_hash_mode_replay_from_old_frontier_in_causal_order():
    node = Node(mode="hash")
    start = list(node.store.doc.heads)
    node.store.put(b"a", b"1")
    node.store.put(b"a", b"2")
    node.store.put(b"a", b"3")
    sink = Sink()
    node.watches.create(b"a", None, start, sink)
    assert [e.value for e in sink.events] == [b"1", b"2", b"3"]
    assert all(e.type == "put" for e in sink.events)


def test_hash_mode_replay_unknown_frontier_errors():
    node = Node(mode="hash")
    with pytest.raises(ApiError) as err:
        node.watches.create(b"a", None, ["ab" * 32], Sink())
    assert err.value.code == "unknown_hash"


def test_hash_mode_from_genesis_watch_is_complete():
    # the delivered event multiset matches the committed changes touching the key
    origin = Node(mode="hash", member_id=1)
    replica = Node(mode="hash", member_id=2)
    sink = Sink()
    replica.watches.create(b"a", None, None, sink)
    for i in range(5):
        origin.store.put(b"a", b"v%d" % i)
    origin.store.delete_range(b"a")
    replica.pull_from(origin)
    changes_touching_a = [
        c.hash
        for c in origin.store.doc.changes.values()
        if any(op.path[:2] == ("kvs", "YQ==") for op in c.ops)
    ]
    assert sorted(e.change for e in sink.events) == sorted(changes_touching_a)
    assert [e.type for e in sink.events].count("delete") == 1


def test_hash_json_field_removal_update_is_a_put_not_a_delete():
    import json as _json

    node = Node(mode="hash", schema="json")
    node.store.put(b"k", b'{"a": 1, "b": 2}')
    sink = Sink()
    node.watches.create(b"k", None, None, sink)
    node.store.put(b"k", b'{"a": 1}')  # commits only del ops, but the key lives
    assert [e.type for e in sink.events] == ["put"]
    assert _json.loads(sink.events[0].value) == {"a": 1}
    node.store.delete_range(b"k")
    assert [e.type for e in sink.events] == ["put", "delete"]


def test_txn_touching_two_watched_keys_emits_two_events():
    node = Node()
    sink = Sink()
    node.watches.create(b"a", b"\x00", None, sink)
    node.store.txn(
        [],
        [
            {"op": "put", "key": b"k1", "value": b"1"},
            {"op": "put", "key": b"k2", "value": b"2"},
        ],
        [],
    )
    assert sorted(e.key for e in sink.events) == [b"k1", b"k2"]
    assert {e.mod_revision for e in sink.events} == {2}


def test_lease_only_change_is_not_a_key_event():
    node = Node()
    sink = Sink()
    lease = node.store.lease_grant(5)
    node.watches.create(b"a", None, None, sink)
    node.store.put(b"a", b"1", lease=lease)
    assert len(sink.events) == 1  # the put itself, nothing for the lease record
