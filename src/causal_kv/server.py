"""Live TCP service for one node: a single-threaded selectors loop.

The loop owns the listen socket, every accepted connection and every outbound
peer link, all non-blocking with TCP_NODELAY. Client requests ({"op": ...}) and
peer messages ({"type": ...}) share the listen port and are routed by the field
they carry; an outbound peer link carries peer messages only. Each tick reads
every readable connection once and routes its complete lines. The frames this
produces are appended to their connection's output buffer, and each buffer is
written at most once per tick, when its socket is writable.

Nothing waits on a peer: a sync round opens a missing peer link with a
non-blocking connect, and until the link exists, messages to that peer are
dropped. A frame that would take a buffer past OUTBUF_LIMIT bytes is not
queued: a peer message is dropped like a lost broadcast, for anti-entropy to
repair, and a client gets watch_overflow and is closed. Timers run one sync
round per peer per interval, on the simulator's staggered phases, and the
lease-expiry tick once a second.
"""

from __future__ import annotations

import errno
import json
import logging
import selectors
import socket
import threading
import time

from .engine import canonical_json_bytes
from .node import Node, NodeConfig
from .sync import sync_phases

logger = logging.getLogger(__name__)

# Output bytes a connection may buffer; a larger frame, such as a big catch-up,
# is queued only into an empty buffer. Over the cap a peer link drops messages
# but stays open: closing it would cut, again and again, the catch-up filling it.
OUTBUF_LIMIT = 4 << 20
LEASE_TICK_S = 1.0
RECV_BYTES = 1 << 16
OVERFLOW = {"id": 0, "ok": False, "error": {"code": "watch_overflow", "msg": "watcher too slow"}}


def _encode_frame(obj) -> bytes:
    return canonical_json_bytes(obj) + b"\n"


class _Connection:
    """One socket's partial input line, pending output and watches.
    `peer_id` is set on outbound peer links."""

    def __init__(self, sock: socket.socket, peer_id: int | None = None):
        self.sock = sock
        self.peer_id = peer_id
        self.inbuf = bytearray()
        self.out = bytearray()
        self.closed = False  # takes no more input or output; closed after one last write
        self.watch_ids: set[int] = set()

    def push(self, obj: dict) -> None:
        """Buffer one frame; over OUTBUF_LIMIT, drop a peer message or overflow a client."""
        if self.closed:
            return
        frame = _encode_frame(obj)
        if self.out and len(self.out) + len(frame) > OUTBUF_LIMIT:
            if "type" not in obj:
                self.out = bytearray(_encode_frame(OVERFLOW))
                self.closed = True
            return
        self.out += frame


class Server:
    """One node and the selectors loop that serves it: run() it, or start() it in a thread."""

    def __init__(self, config: NodeConfig, host: str = "127.0.0.1", port: int = 0):
        if config.sync_interval_ms < 10:
            raise ValueError("sync interval must be at least 10 ms")
        self.sel = selectors.DefaultSelector()
        self.conns: set[_Connection] = set()
        self.peers = PeerClient(self, config.peers)
        self.node = Node(config, send=self.peers.send)
        self.listener = socket.create_server((host, port))
        self.listener.setblocking(False)
        self.sel.register(self.listener, selectors.EVENT_READ)
        self.address = self.listener.getsockname()
        self._waker, self._wake = socket.socketpair()  # stop() from another thread
        self.sel.register(self._waker, selectors.EVENT_READ)
        self._thread: threading.Thread | None = None

    def start(self) -> "Server":
        self._thread = threading.Thread(target=self.run, daemon=True, name="loop")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._wake.send(b"\0")
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def run(self) -> None:
        """Serve until stop() or KeyboardInterrupt, then close every socket."""
        interval = self.node.config.sync_interval_ms / 1000.0
        start = time.monotonic()
        sync_due = {pid: start + phase for pid, phase in sync_phases(self.node.sync.peer_states, interval).items()}
        lease_due = start + LEASE_TICK_S
        try:
            while True:
                timeout = max(0.0, min([lease_due, *sync_due.values()]) - time.monotonic())
                for key, mask in self.sel.select(timeout):
                    if key.fileobj is self._waker:
                        return
                    if key.fileobj is self.listener:
                        self._accept()
                    elif mask & selectors.EVENT_READ:
                        self._read(key.data)
                now = time.monotonic()
                for pid, due in sync_due.items():
                    if due <= now:
                        self.peers.connect(pid)
                        self.node.sync_with(pid)
                        sync_due[pid] = due + interval * (1 + (now - due) // interval)  # skip missed rounds
                if lease_due <= now:
                    self.node.lease_tick()
                    lease_due = now + LEASE_TICK_S
                self._write_all()
        finally:
            self.close()

    def add(self, sock: socket.socket, peer_id: int | None = None) -> _Connection:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock, peer_id)
        self.sel.register(sock, selectors.EVENT_READ, conn)
        self.conns.add(conn)
        return conn

    def _accept(self) -> None:
        try:
            sock, _addr = self.listener.accept()
        except OSError:
            return
        self.add(sock)

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        conn.inbuf += data
        if b"\n" not in data:
            return  # a long frame arrives in many reads: join them once, at its end
        *lines, conn.inbuf = conn.inbuf.split(b"\n")
        for line in lines:
            if conn.closed:
                return
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                self._close(conn)  # unparseable frame
                return
            try:
                self._route(conn, obj)
            except Exception:
                # one connection's bad frame must not stop the loop that serves every other
                logger.exception("node %d: closing a connection whose frame raised", self.node.config.node_id)
                self._close(conn)
                return

    def _route(self, conn: _Connection, obj) -> None:
        peer_msg = isinstance(obj, dict) and "type" in obj
        if conn.peer_id is not None or peer_msg:
            if peer_msg and obj["type"] == "sync_req" and conn.out:
                return  # the answer to its last request is still queued; this one would repeat it
            reply = self.node.handle_peer_message(obj)
            if reply is not None:
                conn.push(reply)
            return
        response = self.node.dispatch(obj, watch_sink=conn.push)
        if isinstance(obj, dict) and obj.get("op") == "watch_create" and response.get("ok"):
            conn.watch_ids.add(response["watch_id"])
        conn.push(response)

    def _write_all(self) -> None:
        for conn in list(self.conns):
            if conn.out:
                try:
                    del conn.out[: conn.sock.send(conn.out)]
                except BlockingIOError:
                    pass
                except OSError:
                    self._close(conn)
                    continue
            if conn.closed:
                self._close(conn)
                continue
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
            if events != self.sel.get_key(conn.sock).events:
                self.sel.modify(conn.sock, events, conn)

    def _close(self, conn: _Connection) -> None:
        if conn not in self.conns:
            return
        self.conns.discard(conn)
        conn.closed = True
        self.sel.unregister(conn.sock)
        conn.sock.close()
        for watch_id in conn.watch_ids:
            self.node.watches.cancel(watch_id)
        if conn.peer_id is not None and self.peers.links.get(conn.peer_id) is conn:
            del self.peers.links[conn.peer_id]

    def close(self) -> None:
        for conn in list(self.conns):
            self._close(conn)
        for sock in (self.listener, self._waker, self._wake):
            sock.close()
        self.sel.close()


class PeerClient:
    """Outbound peer links of one loop. send() only appends to a link's buffer;
    a peer without a link drops its messages until connect() opens one."""

    def __init__(self, server: Server, addresses: dict[int, tuple[str, int]]):
        self.server = server
        self.addresses = addresses
        self.links: dict[int, _Connection] = {}

    def send(self, peer_id: int, msg: dict) -> None:
        link = self.links.get(peer_id)
        if link is not None:
            link.push(msg)

    def connect(self, peer_id: int) -> None:
        """Start a non-blocking connect if the peer has no link; the loop
        writes the link's buffer once the socket turns writable."""
        if peer_id in self.links:
            return
        try:
            family, kind, proto, _, addr = socket.getaddrinfo(*self.addresses[peer_id], type=socket.SOCK_STREAM)[0]
            sock = socket.socket(family, kind, proto)
        except OSError as exc:
            logger.debug("peer %d unreachable: %s", peer_id, exc)
            return
        sock.setblocking(False)
        code = sock.connect_ex(addr)
        if code not in (0, errno.EINPROGRESS):
            logger.debug("peer %d unreachable: %s", peer_id, errno.errorcode.get(code, code))
            sock.close()
            return
        self.links[peer_id] = self.server.add(sock, peer_id)
