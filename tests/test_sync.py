"""Peer replication: broadcast, version-vector rounds, transitive propagation."""

from causal_kv.engine import change_to_wire, set_op
from causal_kv.node import Node, NodeConfig


class Bus:
    """In-memory message fabric: explicit delivery, per-link drop switches."""

    def __init__(self):
        self.nodes = {}
        self.queue = []  # (src, dst, msg)
        self.cut = set()  # (src, dst) pairs that drop
        self.log = []  # (src, dst, msg, delivered)

    def add(self, node_id, **cfg):
        peers = cfg.pop("peers")
        node = Node(
            NodeConfig(node_id=node_id, peers={p: None for p in peers}, **cfg),
            send=lambda dst, msg, src=node_id: self.queue.append((src, dst, msg)),
            clock=lambda: 0.0,
        )
        self.nodes[node_id] = node
        node.register_member()
        return node

    def pump(self):
        """Deliver queued messages (and their replies) to quiescence."""
        count = 0
        while self.queue:
            src, dst, msg = self.queue.pop(0)
            delivered = (src, dst) not in self.cut
            self.log.append((src, dst, msg, delivered))
            if not delivered:
                continue
            count += 1
            reply = self.nodes[dst].handle_peer_message(msg)
            if reply is not None:
                self.queue.append((dst, src, reply))
        return count

    def messages(self, kind=None):
        return [m for (_, _, m, d) in self.log if d and (kind is None or m["type"] == kind)]


def mesh_bus(n, mode="counter"):
    """Fully meshed n-node bus with boot traffic already drained."""
    bus = Bus()
    ids = list(range(1, n + 1))
    nodes = [bus.add(i, mode=mode, peers=[p for p in ids if p != i]) for i in ids]
    bus.pump()
    bus.log.clear()
    return (bus, *nodes)


def two_node_bus(mode="counter"):
    return mesh_bus(2, mode=mode)


def put(node, key, value):
    import base64

    return node.dispatch(
        {"id": 1, "op": "put", "key": base64.b64encode(key).decode(), "value": base64.b64encode(value).decode()}
    )


# -- optimistic broadcast ----------------------------------------------------------


def test_commit_broadcasts_once_to_each_peer():
    bus, n1, n2, n3 = mesh_bus(3)
    put(n1, b"a", b"1")
    bus.pump()
    sent = [(s, d) for (s, d, m, _) in bus.log if m["type"] == "change"]
    assert sorted(sent) == [(1, 2), (1, 3)]


def test_broadcast_is_fire_and_forget_under_partition():
    bus, n1, n2, n3 = mesh_bus(3)
    bus.cut = {(1, 3), (3, 1)}
    resp = put(n1, b"a", b"1")
    assert resp["ok"], "commit succeeds regardless of peer reachability"
    bus.pump()
    attempts = [(s, d) for (s, d, m, _) in bus.log if m["type"] == "change"]
    delivered = [(s, d) for (s, d, m, ok) in bus.log if m["type"] == "change" and ok]
    assert sorted(attempts) == [(1, 2), (1, 3)], "sent to both peers"
    assert delivered == [(1, 2)], "one delivery"
    assert n2.doc.heads == n1.doc.heads
    assert n3.doc.heads != n1.doc.heads


def test_received_broadcast_is_never_relayed():
    bus = Bus()
    n1 = bus.add(1, peers=[2])
    bus.add(2, peers=[1, 3])
    bus.add(3, peers=[2])
    bus.pump()
    bus.log.clear()
    put(n1, b"a", b"1")
    bus.pump()
    senders = {(s, d) for (s, d, m, _) in bus.log if m["type"] == "change"}
    assert senders == {(1, 2)}, "node 2 does not forward the broadcast change"


def test_commit_during_full_partition_stays_readable_locally():
    bus, n1, n2 = two_node_bus()
    bus.cut = {(1, 2), (2, 1)}
    resp = put(n1, b"a", b"1")
    assert resp["ok"] and resp["header"]["revision"] == 2
    import base64

    read = n1.dispatch({"id": 2, "op": "range", "key": base64.b64encode(b"a").decode()})
    assert read["count"] == 1


# -- periodic version-vector exchange ---------------------------------------------


def test_identical_documents_sync_transfers_nothing():
    bus, n1, n2 = two_node_bus()
    bus.log.clear()
    n1.sync_with(2)
    bus.pump()
    assert [m["type"] for m in bus.messages()] == ["sync_req", "sync_resp"]
    assert bus.messages("sync_resp")[0]["changes"] == []


def test_sync_repairs_a_dropped_broadcast():
    bus, n1, n2 = two_node_bus()
    bus.cut = {(1, 2)}
    put(n1, b"a", b"1")
    bus.pump()
    assert n2.doc.heads != n1.doc.heads
    bus.cut = set()
    bus.log.clear()
    n2.sync_with(1)  # receiver-initiated pull
    bus.pump()
    assert n2.doc.heads == n1.doc.heads
    changes_moved = sum(len(m["changes"]) for m in bus.messages("sync_resp"))
    missed = 1  # only the dropped change should move
    assert changes_moved == missed


def test_sync_transfers_exactly_the_missed_changes():
    bus, n1, n2 = two_node_bus()
    n1.sync_with(2)  # establish the shared frontier first
    bus.pump()
    bus.cut = {(1, 2), (2, 1)}
    for i in range(7):
        put(n1, b"k%d" % i, b"v")
    bus.pump()
    bus.cut = set()
    bus.log.clear()
    n1.sync_with(2)
    bus.pump()
    assert n1.doc.heads == n2.doc.heads
    assert sum(len(m["changes"]) for m in bus.messages("sync_resp")) == 7


def test_sync_round_overhead_amortizes_over_batch_size():
    # one repair round costs the same number of messages whether it carries
    # 1 change or 100; per-change sync overhead decays with batch size
    messages_per_round = {}
    for batch in (1, 10, 100):
        bus, n1, n2 = two_node_bus()
        n1.sync_with(2)
        bus.pump()
        bus.cut = {(1, 2), (2, 1)}
        for i in range(batch):
            put(n1, b"k%03d" % i, b"v")
        bus.pump()
        bus.cut = set()
        bus.log.clear()
        n1.sync_with(2)
        bus.pump()
        assert n1.doc.heads == n2.doc.heads
        assert sum(len(m["changes"]) for m in bus.messages("sync_resp")) == batch
        messages_per_round[batch] = len(bus.messages())
    assert len(set(messages_per_round.values())) == 1, messages_per_round


def test_sync_payload_bytes_scale_with_the_diff_not_the_document():
    import json

    bus, n1, n2 = two_node_bus()
    for i in range(50):
        put(n1, b"base%02d" % i, b"v")  # replicated live via broadcast
    bus.pump()
    n1.sync_with(2)  # refresh the shared frontier
    bus.pump()
    bus.cut = {(1, 2), (2, 1)}
    put(n1, b"missed", b"v")
    bus.pump()
    bus.cut = set()
    bus.log.clear()
    n1.sync_with(2)
    bus.pump()
    assert n1.doc.heads == n2.doc.heads
    moved_bytes = sum(len(json.dumps(m)) for m in bus.messages("sync_resp"))
    full_doc_bytes = sum(len(json.dumps(change_to_wire(c))) for c in n1.doc.changes.values())
    assert moved_bytes < full_doc_bytes / 5, "repair traffic must not approach a full transfer"


def test_first_contact_with_unknown_frontier_falls_back_to_full_transfer():
    bus, n1, n2 = two_node_bus()
    bus.cut = {(1, 2), (2, 1)}
    put(n1, b"a", b"1")
    bus.pump()
    bus.cut = set()
    bus.log.clear()
    n1.sync_with(2)  # n2 has never seen n1's head; n1's vector still places it
    bus.pump()
    assert n1.doc.heads == n2.doc.heads
    # reply: nothing n1 lacks; push: the one change n2 lacks; empty ack
    assert [len(m["changes"]) for m in bus.messages("sync_resp")] == [0, 1, 0]


def test_sync_merges_divergence_in_both_directions():
    bus, n1, n2 = two_node_bus()
    bus.cut = {(1, 2), (2, 1)}
    put(n1, b"a", b"1")
    put(n2, b"b", b"2")
    bus.pump()
    bus.cut = set()
    bus.log.clear()
    n1.sync_with(2)
    bus.pump()
    assert n1.doc.heads == n2.doc.heads
    assert n1.doc.leaves_snapshot() == n2.doc.leaves_snapshot()
    round_ = [(m["type"], m.get("ack", False), len(m.get("changes", ()))) for m in bus.messages()]
    assert round_ == [
        ("sync_req", False, 0),
        ("sync_resp", False, 1),
        ("sync_resp", True, 1),
        ("sync_resp", True, 0),
    ]


def test_chain_topology_propagates_transitively():
    bus = Bus()
    n1 = bus.add(1, peers=[2])
    n2 = bus.add(2, peers=[1, 3])
    n3 = bus.add(3, peers=[2])
    bus.cut = {(1, 2), (2, 1), (2, 3), (3, 2)}  # broadcasts dropped
    put(n1, b"a", b"1")
    bus.pump()
    bus.cut = set()
    # tick 1: every node syncs each peer; tick 2 moves it the second hop
    for _ in range(2):
        for node in (n1, n2, n3):
            for pid in node.sync.peer_states:
                node.sync_with(pid)
            bus.pump()
    assert n1.doc.heads == n2.doc.heads == n3.doc.heads


def test_duplicate_deliveries_never_reapply():
    bus, n1, n2 = two_node_bus()
    put(n1, b"a", b"1")
    bus.pump()
    snapshot = n2.doc.leaves_snapshot()
    n1.sync_with(2)
    n1.sync_with(2)
    bus.pump()
    assert n2.doc.leaves_snapshot() == snapshot
    assert len(n2.doc.changes) == len(n1.doc.changes)


def test_tampered_peer_change_is_rejected():
    bus, n1, n2 = two_node_bus()
    change = n1.doc.commit(1, [set_op(("kvs", "eA=="), "1")])
    wire = change_to_wire(change)
    wire["ops"][0]["value"] = "evil"
    before = len(n2.doc.changes)
    n2.handle_peer_message({"type": "change", "from": 1, "change": wire})
    assert len(n2.doc.changes) == before


# -- peer state and replication status ----------------------------------------------


def hash_bus():
    bus = Bus()
    n1 = bus.add(1, mode="hash", peers=[2, 3])
    n2 = bus.add(2, mode="hash", peers=[1])
    n3 = bus.add(3, mode="hash", peers=[1])
    bus.pump()
    bus.log.clear()
    return bus, n1, n2, n3


def test_replication_status_false_before_any_sync():
    bus, n1, n2, n3 = hash_bus()
    bus.cut = {(1, 2), (2, 1), (1, 3), (3, 1)}
    put(n1, b"a", b"1")
    bus.pump()
    status = n1.sync.replication_status(list(n1.doc.heads))
    assert status == {2: False, 3: False}


def test_replication_status_true_after_one_sync_round():
    bus, n1, n2, n3 = hash_bus()
    bus.cut = {(1, 2), (2, 1), (1, 3), (3, 1)}
    put(n1, b"a", b"1")
    bus.pump()
    head = list(n1.doc.heads)
    bus.cut = {(1, 3), (3, 1)}  # node 3 still unreachable
    n1.sync_with(2)
    bus.pump()
    status = n1.sync.replication_status(head)
    assert status == {2: True, 3: False}
    assert n2.doc.has_change(head[0]), "status only claims what the peer actually holds"


def test_replication_status_genesis_true_after_any_sync():
    bus, n1, n2, n3 = hash_bus()
    n1.sync_with(2)
    bus.pump()
    status = n1.sync.replication_status([n1.doc.genesis_hash])
    assert status[2] is True


def test_shared_heads_track_common_frontier():
    bus, n1, n2 = two_node_bus(mode="hash")
    put(n1, b"a", b"1")
    bus.pump()  # broadcast reached n2
    n1.sync_with(2)
    bus.pump()
    assert n1.sync.peer_states[2].vv == n2.doc.version_vector()


def test_peer_vv_is_replaced_so_a_restarted_peer_is_not_credited():
    bus, n1, n2 = two_node_bus(mode="hash")
    put(n1, b"a", b"1")
    bus.pump()
    head = list(n1.doc.heads)
    n1.sync_with(2)
    bus.pump()
    assert n1.sync.replication_status(head) == {2: True}
    # node 2 restarts with an empty log and starts a round; node 1's reply is lost
    restarted = Node(
        NodeConfig(node_id=2, mode="hash", peers={1: None}),
        send=lambda dst, msg: bus.queue.append((2, dst, msg)),
    )
    bus.nodes[2] = restarted
    bus.cut = {(1, 2)}
    restarted.sync_with(1)
    bus.pump()
    assert n1.sync.peer_states[2].vv == restarted.doc.version_vector()
    assert n1.sync.replication_status(head) == {2: False}
    bus.cut = set()
    n1.sync_with(2)
    bus.pump()
    assert restarted.doc.heads == n1.doc.heads
    assert n1.sync.replication_status(head) == {2: True}


def test_malformed_sync_message_is_dropped_without_reply(caplog):
    bus, n1, n2 = two_node_bus()
    n2.sync_with(1)
    bus.pump()
    before = {pid: dict(state.vv) for pid, state in n1.sync.peer_states.items()}
    assert before[2]
    bad_vvs = [{"x": 1}, {"-1": 1}, {"1": -1}, {"1": True}, {"1": 1.5}, {"1": "2"}, [1, 2], None]
    bad_fields = [{"vv": bad, "changes": []} for bad in bad_vvs] + [
        {"vv": {}, "changes": 5},
        {"from": [2], "vv": {}},
        {"from": True, "vv": {}},
    ]
    bad_msgs = [
        {"type": kind, "from": 2, **bad} for bad in bad_fields for kind in ("sync_req", "sync_resp")
    ] + ["notadict", [1]]
    for bad in bad_msgs:
        caplog.clear()
        assert n1.handle_peer_message(bad) is None
        assert {pid: dict(state.vv) for pid, state in n1.sync.peer_states.items()} == before
        assert any("dropped malformed" in r.getMessage() for r in caplog.records)
