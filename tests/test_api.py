"""Client protocol semantics through Node.dispatch, plus live TCP smoke tests."""

import base64
import json
import socket
import threading
import time

import pytest

from causal_kv.node import Node, NodeConfig
from causal_kv.server import OUTBUF_LIMIT, Server


def e(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


def make_node(mode="counter", schema="bytes", node_id=1, **kw):
    return Node(NodeConfig(node_id=node_id, mode=mode, schema=schema, **kw))


# -- request/response shape ---------------------------------------------------


def test_status_on_fresh_counter_node():
    node = make_node()
    resp = node.dispatch({"id": 7, "op": "status"})
    assert resp["ok"] is True
    assert resp["id"] == 7
    assert resp["header"]["member_id"] == 1
    assert resp["header"]["revision"] == 1
    assert resp["mode"] == "counter"


def test_status_on_fresh_hash_node_reports_genesis_frontier():
    node = make_node(mode="hash")
    resp = node.dispatch({"id": 1, "op": "status"})
    assert resp["header"]["heads"] == [node.doc.genesis_hash]
    assert "revision" not in resp["header"]


def test_unknown_op_is_an_error_response():
    node = make_node()
    resp = node.dispatch({"id": 3, "op": "frobnicate"})
    assert resp["ok"] is False
    assert resp["id"] == 3
    assert resp["error"]["code"] == "malformed"


def test_pipelined_puts_return_strictly_increasing_revisions():
    node = make_node()
    revisions = []
    for i in range(100):
        resp = node.dispatch({"id": i, "op": "put", "key": e(b"k%d" % (i % 10)), "value": e(b"v")})
        assert resp["ok"], resp
        revisions.append(resp["header"]["revision"])
    assert revisions == list(range(2, 102))


def test_header_revision_never_decreases_across_responses():
    node = make_node()
    seen = []
    for op in ["status", "put", "range", "status", "put"]:
        req = {"id": 1, "op": op, "key": e(b"a"), "value": e(b"v")}
        seen.append(node.dispatch(req)["header"]["revision"])
    assert seen == sorted(seen)


def test_put_range_delete_round_trip_through_wire_encoding():
    node = make_node()
    node.dispatch({"id": 1, "op": "put", "key": e(b"k"), "value": e(b"hello")})
    resp = node.dispatch({"id": 2, "op": "range", "key": e(b"k")})
    assert resp["count"] == 1
    item = resp["kvs"][0]
    assert base64.b64decode(item["key"]) == b"k"
    assert base64.b64decode(item["value"]) == b"hello"
    assert item["mod_revision"] == 2
    resp = node.dispatch({"id": 3, "op": "delete_range", "key": e(b"k")})
    assert resp["deleted"] == 1


def test_put_prev_kv():
    node = make_node()
    node.dispatch({"id": 1, "op": "put", "key": e(b"k"), "value": e(b"old")})
    resp = node.dispatch({"id": 2, "op": "put", "key": e(b"k"), "value": e(b"new"), "prev_kv": True})
    assert base64.b64decode(resp["prev_kv"]["value"]) == b"old"
    resp = node.dispatch({"id": 3, "op": "put", "key": e(b"fresh"), "value": e(b"v"), "prev_kv": True})
    assert resp["prev_kv"] is None


def test_txn_through_the_wire():
    node = make_node()
    node.dispatch({"id": 1, "op": "put", "key": e(b"a"), "value": e(b"1")})
    resp = node.dispatch(
        {
            "id": 2,
            "op": "txn",
            "compares": [{"key": e(b"a"), "target": "value", "value": e(b"1")}],
            "success": [
                {"op": "put", "key": e(b"b"), "value": e(b"2")},
                {"op": "range", "key": e(b"a")},
            ],
            "failure": [],
        }
    )
    assert resp["ok"] and resp["succeeded"] is True
    assert resp["responses"][0] == {"op": "put"}
    assert resp["responses"][1]["count"] == 1


def test_error_codes_surface_with_exact_strings():
    counter = make_node()
    hashed = make_node(mode="hash", node_id=2)
    cases = [
        (hashed, {"op": "range", "key": e(b"a"), "at": ["ff" * 32]}, "unknown_hash"),
        (counter, {"op": "range", "key": e(b"a"), "at": 99}, "future_revision"),
        (counter, {"op": "put", "key": e(b"a"), "value": e(b"v"), "lease": 5}, "unknown_lease"),
        (counter, {"op": "replication_status", "heads": ["ab"]}, "mode_unsupported"),
        (counter, {"op": "put", "key": e(b"a")}, "malformed"),
        (counter, {"op": "range"}, "malformed"),
        (counter, {"op": "txn", "compares": [1]}, "malformed"),
    ]
    for node, req, code in cases:
        resp = node.dispatch({"id": 1, **req})
        assert resp["ok"] is False, req
        assert resp["error"]["code"] == code


def test_empty_range_is_ok_not_key_not_found():
    node = make_node()
    resp = node.dispatch({"id": 1, "op": "range", "key": e(b"missing")})
    assert resp["ok"] is True
    assert resp["count"] == 0


def test_lease_grant_and_revoke_through_wire():
    node = make_node()
    resp = node.dispatch({"id": 1, "op": "lease_grant", "ttl": 5})
    lease_id = resp["lease_id"]
    assert resp["ttl"] == 5
    node.dispatch({"id": 2, "op": "put", "key": e(b"a"), "value": e(b"v"), "lease": lease_id})
    resp = node.dispatch({"id": 3, "op": "lease_revoke", "lease_id": lease_id})
    assert resp["ok"]
    assert node.dispatch({"id": 4, "op": "range", "key": e(b"a")})["count"] == 0


def test_member_list_through_wire():
    node = make_node(name="alpha", client_urls=["tcp://127.0.0.1:9"])
    node.register_member()
    resp = node.dispatch({"id": 1, "op": "member_list"})
    assert resp["members"][0]["name"] == "alpha"
    assert resp["members"][0]["client_urls"] == ["tcp://127.0.0.1:9"]
    assert node.dispatch({"id": 2, "op": "status"})["header"]["revision"] == 1


def test_watch_create_needs_a_push_capable_transport():
    node = make_node()
    resp = node.dispatch({"id": 1, "op": "watch_create", "key": e(b"a")})
    assert resp["ok"] is False and resp["error"]["code"] == "malformed"


def test_watch_wire_frames():
    node = make_node()
    frames = []
    create = node.dispatch({"id": 1, "op": "watch_create", "key": e(b"a")}, watch_sink=frames.append)
    watch_id = create["watch_id"]
    node.dispatch({"id": 2, "op": "put", "key": e(b"a"), "value": e(b"1")})
    assert len(frames) == 1
    frame = frames[0]
    assert frame["watch_id"] == watch_id
    assert frame["events"][0]["type"] == "put"
    assert frame["events"][0]["mod_revision"] == 2
    node.dispatch({"id": 3, "op": "watch_cancel", "watch_id": watch_id})
    node.dispatch({"id": 4, "op": "put", "key": e(b"a"), "value": e(b"2")})
    assert len(frames) == 1


def test_replication_status_wire_shape():
    node = make_node(mode="hash", peers={2: None})
    resp = node.dispatch({"id": 1, "op": "replication_status", "heads": [node.doc.genesis_hash]})
    assert resp["ok"]
    assert resp["peers"] == {"2": False}
    resp = node.dispatch({"id": 2, "op": "replication_status", "heads": ["ff" * 32]})
    assert resp["error"]["code"] == "unknown_hash"


def test_site_local_requests_send_no_peer_messages():
    sends = []
    node = Node(NodeConfig(node_id=1, peers={2: None}), send=lambda p, m: sends.append((p, m)))
    sends.clear()
    node.dispatch({"id": 1, "op": "range", "key": e(b"a")})
    assert sends == [], "reads never touch the network"
    node.dispatch({"id": 2, "op": "put", "key": e(b"a"), "value": e(b"v")})
    kinds = [m["type"] for _, m in sends]
    assert kinds == ["change"], "a put only fans out its own change, fire-and-forget"


def test_failed_durable_append_fails_the_request_and_flags_the_node(tmp_path):
    node = make_node(data_dir=str(tmp_path / "d"))

    def broken_append(change):
        raise OSError("disk full")

    node.log.append = broken_append
    resp = node.dispatch({"id": 1, "op": "put", "key": e(b"a"), "value": e(b"v")})
    assert resp["ok"] is False
    assert node.degraded is True
    # memory is ahead of disk: the value exists in the document
    assert node.store.range(b"a")[1][0].value == b"v"


def test_watch_queue_overflow_closes_the_connection():
    from causal_kv.server import _Connection, _encode_frame

    frame = {"n": "x" * 100}
    conn = _Connection(sock=None)  # never written: the buffer only fills
    for _ in range(OUTBUF_LIMIT // len(_encode_frame(frame))):
        conn.push(frame)
    assert not conn.closed
    conn.push(frame)
    assert conn.closed
    assert json.loads(conn.out.splitlines()[-1])["error"]["code"] == "watch_overflow"


# -- live TCP smoke tests ---------------------------------------------------------


class TcpClient:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=5)
        self.frames = []
        self.lock = threading.Condition()
        self.eof = False
        threading.Thread(target=self._read_loop, daemon=True).start()

    def _read_loop(self):
        try:
            with self.sock.makefile("rb") as reader:
                for line in reader:
                    with self.lock:
                        self.frames.append(json.loads(line))
                        self.lock.notify_all()
        except OSError:
            pass
        with self.lock:
            self.eof = True
            self.lock.notify_all()

    def send(self, obj):
        self.sock.sendall(json.dumps(obj).encode() + b"\n")

    def _take(self, pred, deadline=5.0):
        end = time.time() + deadline
        with self.lock:
            while True:
                for i, frame in enumerate(self.frames):
                    if pred(frame):
                        return self.frames.pop(i)
                remaining = end - time.time()
                if remaining <= 0 or self.eof:
                    raise AssertionError(f"no matching frame; saw {self.frames}")
                self.lock.wait(timeout=remaining)

    def request(self, obj, deadline=5.0):
        self.send(obj)
        return self._take(lambda f: f.get("id") == obj["id"], deadline)

    def wait_eof(self, deadline=5.0):
        end = time.time() + deadline
        with self.lock:
            while not self.eof and time.time() < end:
                self.lock.wait(timeout=0.1)
            return self.eof

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # send FIN now; a lingering
        except OSError:  # makefile ref would otherwise hold the fd open
            pass
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def tcp_node():
    server = Server(NodeConfig(node_id=1)).start()
    yield server.node, server.address
    server.stop()


def test_tcp_request_response_and_watch_push(tcp_node):
    node, address = tcp_node
    client = TcpClient(address)
    resp = client.request({"id": 1, "op": "status"})
    assert resp["ok"] and resp["header"]["revision"] == 1

    resp = client.request({"id": 2, "op": "watch_create", "key": e(b"a")})
    watch_id = resp["watch_id"]

    writer = TcpClient(address)
    resp = writer.request({"id": 3, "op": "put", "key": e(b"a"), "value": e(b"1")})
    assert resp["ok"]

    push = client._take(lambda f: "watch_id" in f)
    assert push["watch_id"] == watch_id
    assert push["events"][0]["type"] == "put"
    assert base64.b64decode(push["events"][0]["value"]) == b"1"
    client.close()
    writer.close()


def test_tcp_pipelined_puts_answer_in_order_with_increasing_revisions(tcp_node):
    _node, address = tcp_node
    sock = socket.create_connection(address, timeout=5)
    frames = b"".join(
        json.dumps({"id": i, "op": "put", "key": e(b"k%d" % (i % 7)), "value": e(b"v")}).encode() + b"\n"
        for i in range(100)
    )
    sock.sendall(frames)  # no waiting between requests
    responses = []
    with sock.makefile("rb") as reader:
        for line in reader:
            responses.append(json.loads(line))
            if len(responses) == 100:
                break
    sock.close()
    assert [r["id"] for r in responses] == list(range(100)), "responses never reordered"
    revisions = [r["header"]["revision"] for r in responses]
    assert revisions == list(range(2, 102))


def test_tcp_unknown_op_keeps_connection_open(tcp_node):
    _node, address = tcp_node
    client = TcpClient(address)
    resp = client.request({"id": 1, "op": "nope"})
    assert resp["ok"] is False
    resp = client.request({"id": 2, "op": "status"})
    assert resp["ok"] is True
    client.close()


def test_tcp_unparseable_frame_closes_connection(tcp_node):
    _node, address = tcp_node
    client = TcpClient(address)
    client.sock.sendall(b"this is not json\n")
    assert client.wait_eof()
    client.close()


def test_tcp_disconnect_cancels_the_connections_watches(tcp_node):
    node, address = tcp_node
    client = TcpClient(address)
    watch_id = client.request({"id": 1, "op": "watch_create", "key": e(b"a")})["watch_id"]
    assert node.watches.registration(watch_id) is not None
    client.close()
    deadline = time.time() + 5
    while node.watches.registration(watch_id) is not None and time.time() < deadline:
        time.sleep(0.02)
    assert node.watches.registration(watch_id) is None


def test_tcp_a_frame_that_raises_closes_only_its_connection(tcp_node, monkeypatch):
    node, address = tcp_node
    victim, bystander = TcpClient(address), TcpClient(address)
    assert bystander.request({"id": 1, "op": "status"})["ok"]

    def raising_dispatch(request, watch_sink=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(node, "dispatch", raising_dispatch)
    victim.send({"id": 2, "op": "status"})
    assert victim.wait_eof()
    monkeypatch.undo()
    assert bystander.request({"id": 3, "op": "status"})["ok"], "the loop kept serving"
    victim.close()
    bystander.close()


def test_concurrent_client_threads_see_serialized_commits(tcp_node):
    import concurrent.futures

    _node, address = tcp_node
    clients = [TcpClient(address) for _ in range(8)]

    def worker(c):
        revisions = []
        for i in range(c, 200, 8):
            resp = clients[c].request({"id": i, "op": "put", "key": e(b"k%d" % (i % 5)), "value": e(b"v")})
            assert resp["ok"]
            revisions.append(resp["header"]["revision"])
        return revisions

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        revisions = sorted(r for rs in pool.map(worker, range(8)) for r in rs)
    for client in clients:
        client.close()
    assert revisions == list(range(2, 202)), "every commit got its own revision"


def _free_port() -> int:
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_two_live_nodes_replicate_over_tcp(tmp_path):
    ports = {1: _free_port(), 2: _free_port()}
    addrs = {nid: ("127.0.0.1", port) for nid, port in ports.items()}
    runtime = {}
    try:
        for nid, other in ((1, 2), (2, 1)):
            server = Server(
                NodeConfig(
                    node_id=nid,
                    peers={other: addrs[other]},
                    data_dir=str(tmp_path / f"n{nid}"),
                    sync_interval_ms=50,
                ),
                port=ports[nid],
            )
            server.node.register_member()
            runtime[nid] = server.start()

        client = TcpClient(addrs[1])
        resp = client.request({"id": 1, "op": "put", "key": e(b"shared"), "value": e(b"42")})
        assert resp["ok"]

        reader = TcpClient(addrs[2])
        deadline = time.time() + 10
        while time.time() < deadline:
            resp = reader.request({"id": 9, "op": "range", "key": e(b"shared")})
            if resp["count"] == 1:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("value never replicated to node 2 over TCP")
        assert base64.b64decode(resp["kvs"][0]["value"]) == b"42"
        client.close()
        reader.close()
    finally:
        for server in runtime.values():
            server.stop()


def _status(address) -> dict:
    with socket.create_connection(address, timeout=5) as sock, sock.makefile("rb") as reader:
        sock.sendall(b'{"id":1,"op":"status"}\n')
        return json.loads(reader.readline())


def test_a_node_runs_the_same_threads_however_many_connections_it_holds():
    peers = [socket.create_server(("127.0.0.1", 0)) for _ in range(2)]  # accept, never answer
    server = Server(
        NodeConfig(node_id=1, peers={i + 2: p.getsockname() for i, p in enumerate(peers)}, sync_interval_ms=10)
    ).start()
    clients = []
    try:
        idle = threading.active_count()
        clients = [socket.create_connection(server.address, timeout=5) for _ in range(20)]
        for sock in clients:
            sock.sendall(b'{"id":1,"op":"status"}\n')
            assert json.loads(sock.makefile("rb").readline())["ok"]
        for p in peers:
            p.settimeout(5)
            clients.append(p.accept()[0])  # a sync round opened the link
        assert len(server.peers.links) == 2
        assert len(server.conns) == 22
        assert threading.active_count() == idle
    finally:
        server.stop()
        for sock in clients + peers:
            sock.close()


def test_a_peer_that_never_reads_neither_stalls_puts_nor_grows_the_buffer():
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.bind(("127.0.0.1", 0))
    stalled.listen()
    stalled.setblocking(False)
    port = stalled.getsockname()[1]
    node1 = Server(NodeConfig(node_id=1, mode="hash", peers={2: ("127.0.0.1", port)}, sync_interval_ms=20)).start()
    held, node2 = [], None
    try:
        value = e(bytes(range(256)) * 256)  # 64 KiB: its broadcast alone is about 87 KB
        peak = 0
        with socket.create_connection(node1.address, timeout=1.0) as client, client.makefile("rb") as reader:
            for i in range(200):
                client.sendall(json.dumps({"id": i, "op": "put", "key": e(b"k%03d" % i), "value": value}).encode() + b"\n")
                resp = json.loads(reader.readline())  # the 1 s socket timeout bounds each ack
                assert resp["ok"] and resp["id"] == i
                link = node1.peers.links.get(2)
                buffered = len(link.out) if link is not None else 0
                assert buffered <= OUTBUF_LIMIT
                peak = max(peak, buffered)
                try:
                    held.append(stalled.accept()[0])
                except BlockingIOError:
                    pass
        assert peak > OUTBUF_LIMIT - 200_000, "the kernel absorbed every broadcast; the cap was never reached"
        heads = _status(node1.address)["header"]["heads"]

        for sock in held + [stalled]:
            sock.close()
        node2 = Server(NodeConfig(node_id=2, mode="hash", peers={1: node1.address}, sync_interval_ms=20), port=port)
        node2.start()
        deadline = time.time() + 30
        while _status(node2.address)["header"]["heads"] != heads:
            assert time.time() < deadline, "node 2 never caught up with node 1's acked puts"
            time.sleep(0.05)
    finally:
        node1.stop()
        if node2 is not None:
            node2.stop()
        for sock in held + [stalled]:
            sock.close()
