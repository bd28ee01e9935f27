"""Single-threaded load generator over causal-kv's newline-delimited JSON protocol.

One `selectors.SelectSelector` drives at most two connections: the default
epoll selector rounds timeouts up to whole milliseconds, which leaves a
generator about 1 ms late at 1000 req/s. Every socket sets TCP_NODELAY, as
etcd clients do, so the generator's own segments are never held back.

Open loop: each request is sent when due, regardless of completions, and its
latency is measured from when it was due. Closed loop: a fixed window of
requests stays outstanding on one connection.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field

now = time.perf_counter


class Conn:
    """One client connection. With quickack, every segment received is
    acknowledged at once: a watch stream never sends, so otherwise the
    server's next push waits on this kernel's delayed-ACK timer (up to 40 ms),
    and that timer, not the server, would set the tail of the lag."""

    def __init__(self, address, timeout: float = 5.0, quickack: bool = False):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(timeout)
        self.quickack = quickack
        self._buf = b""

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def read_frames(self) -> list[dict]:
        """Frames completed by one recv; call only when the socket is readable."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        if self.quickack:  # the kernel drops quickack mode again on its own
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        self._buf += data
        *lines, self._buf = self._buf.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def call(self, obj: dict) -> dict:
        """One request, waiting for the response with the same id."""
        self.send(encode(obj))
        deadline = now() + self.sock.gettimeout()
        while now() < deadline:
            for frame in self.read_frames():
                if frame.get("id") == obj["id"]:
                    return frame
        raise TimeoutError(f"no response to {obj['op']}")

    def close(self) -> None:
        self.sock.close()


def encode(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


@dataclass
class Request:
    rid: int
    kind: str  # write | read | scan | hist
    frame: bytes
    key: bytes = b""
    value: bytes | None = None
    due: float = 0.0  # seconds after the phase start (open loop)
    sent: float = 0.0
    done: float = 0.0
    response: dict | None = None

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))


@dataclass
class PhaseResult:
    start: float
    late: list[float] = field(default_factory=list)  # send time minus due time, seconds
    pushes: list[tuple[float, dict]] = field(default_factory=list)  # (arrival, watch frame)


def open_loop(client: Conn, requests: list[Request], watcher: Conn | None = None, grace_s: float = 5.0) -> PhaseResult:
    """Send each request at start + due; collect responses and watch pushes."""
    sel = selectors.SelectSelector()
    sel.register(client.sock, selectors.EVENT_READ, client)
    if watcher is not None:
        sel.register(watcher.sock, selectors.EVENT_READ, watcher)
    by_id = {r.rid: r for r in requests}
    result = PhaseResult(start=now() + 0.05)
    pending = 0
    i, n = 0, len(requests)
    deadline = None
    try:
        while True:
            t = now()
            while i < n and result.start + requests[i].due <= t:
                req = requests[i]
                req.sent = now()
                client.send(req.frame)
                result.late.append(req.sent - (result.start + req.due))
                pending += 1
                i += 1
                t = now()
            if i == n:
                if pending == 0:
                    break
                if deadline is None:
                    deadline = t + grace_s
                if t >= deadline:
                    break
                timeout = deadline - t
            else:
                timeout = max(0.0, result.start + requests[i].due - t)
            for key, _ in sel.select(timeout):
                arrival = now()
                for frame in key.data.read_frames():
                    if key.data is client and "id" in frame:
                        req = by_id.get(frame["id"])
                        if req is not None and req.response is None:
                            req.response = frame
                            req.done = arrival
                            pending -= 1
                    elif "events" in frame:
                        result.pushes.append((arrival, frame))
    finally:
        sel.close()
    return result


def closed_loop(client: Conn, requests: list[Request], window: int, watcher: Conn | None = None,
                pushes: list | None = None, timeout_s: float = 30.0, gaps: list[float] | None = None) -> float:
    """Keep `window` requests outstanding until all are answered; returns elapsed
    seconds. Watch pushes arriving meanwhile are appended to `pushes`. With
    gaps, request i is sent no sooner than gaps[i] seconds after an answer."""
    sel = selectors.SelectSelector()
    sel.register(client.sock, selectors.EVENT_READ, client)
    if watcher is not None:
        sel.register(watcher.sock, selectors.EVENT_READ, watcher)
    by_id = {r.rid: r for r in requests}
    start = ready = now()
    i = pending = answered = 0
    try:
        while answered < len(requests):
            while pending < window and i < len(requests) and now() >= ready:
                requests[i].sent = now()
                client.send(requests[i].frame)
                i += 1
                pending += 1
            if now() - start > timeout_s:
                break
            idle = pending == 0 and i < len(requests)
            for key, _ in sel.select(max(0.0, ready - now()) if idle else 1.0):
                arrival = now()
                for frame in key.data.read_frames():
                    if key.data is not client:
                        pushes.append((arrival, frame))
                        continue
                    req = by_id.get(frame.get("id"))
                    if req is not None and req.response is None:
                        req.response = frame
                        req.done = arrival
                        pending -= 1
                        answered += 1
                        if gaps and i < len(requests):
                            ready = arrival + gaps[i]
    finally:
        sel.close()
    return now() - start
