"""Class-level span tracing of causal-kv's public entry points, from outside.

`install` wraps methods on the classes (and `make_change` in the engine
module) before any node exists, so every instance created afterwards is
traced. Each wrapper records its duration and self time (duration minus the
time of directly nested traced calls, tracked on a thread-local stack) under
a span name, inherits the request id of the span that caused it, and updates
counters for the ratios the benchmark reports. Spans are kept in memory as
compact per-name arrays and written out once, when the traced process ends.
"""

from __future__ import annotations

import json
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns


def dispatch_kind(request) -> str:
    if not isinstance(request, dict):
        return "other"
    op = request.get("op")
    if op == "put":
        return "write"
    if op == "range":
        if "at" in request:
            return "hist"
        return "scan" if "range_end" in request else "read"
    return "other"


def _msg_bytes(msg) -> int:
    return len(json.dumps(msg, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()) + 1


class Tracer:
    def __init__(self):
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.self_times: dict[str, array] = defaultdict(lambda: array("q"))
        self.counts: Counter = Counter()
        self.dispatch_ns: dict[int, int] = {}  # client request id -> Node.dispatch duration
        self.nodes: list = []
        self.keys_listed = 0  # kvs keys enumerated by kvstore (always under the node lock)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, key=None, note=None, request_id=None, only_under=None) -> None:
        """Replace owner.attr with a timing wrapper.

        key(args) -> span name suffix; note(tracer, args, result, stack, frame)
        updates counters; request_id(args) starts a new request id for child spans;
        with only_under, calls are traced only inside a span of that name.
        """
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if only_under and not any(f[0] == only_under for f in stack):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            rid = request_id(args) if request_id else (parent[2] if parent else None)
            frame = [name, 0, rid, tracer.keys_listed]  # name, child ns, request id, keys listed at start
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
            span = name if key is None else f"{name}.{key(args)}"
            with tracer._lock:
                tracer.durations[span].append(dur)
                tracer.self_times[span].append(dur - frame[1])
                if request_id and rid is not None and span != f"{name}.other":
                    tracer.dispatch_ns[rid] = dur
                if note is not None:
                    note(tracer, args, result, stack, frame)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace owner.attr with an untimed hook, restored by uninstall."""
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped or patched attribute, newest first."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- aggregation --------------------------------------------------------

    def dump(self) -> dict:
        with self._lock:
            return {
                "durations": {k: list(v) for k, v in self.durations.items()},
                "self_times": {k: list(v) for k, v in self.self_times.items()},
                "counts": dict(self.counts),
                "dispatch_ns": {str(k): v for k, v in self.dispatch_ns.items()},
            }


def revs_per_key(node) -> float:
    """Revision entries a read of each key folds: the counter-mode revs map size
    averaged over keys; hash mode keeps only the latest value."""
    doc = node.store.doc
    keys = doc.children(("kvs",))
    if not keys or node.store.mode != "counter":
        return 1.0
    return sum(len(doc.children(("kvs", k, "revs"))) for k in keys) / len(keys)


def install(tracer: Tracer) -> None:
    from causal_kv import durability, engine, kvstore, node, server, sync, watch

    def note_apply(t, args, result, stack, frame):
        t.counts[f"engine.apply_remote.{result[0]}"] += 1

    def note_missing(t, args, result, stack, frame):
        t.counts["engine.missing_changes.changes"] += len(result)

    def note_range(t, args, result, stack, frame):
        if len(args) > 2 and args[2] is not None:
            t.counts["kvstore.scans"] += 1
            t.counts["kvstore.scan_keys_listed"] += t.keys_listed - frame[3]

    def note_broadcast(t, args, result, stack, frame):
        for _pid, msg in result:
            t.counts["sync.copies_sent"] += 1
            t.counts["sync.bytes_sent"] += _msg_bytes(msg)

    def note_sync_request(t, args, result, stack, frame):
        t.counts["sync.sync_req_sent"] += 1
        t.counts["sync.bytes_sent"] += _msg_bytes(result[1])

    def note_handle(t, args, result, stack, frame):
        if result is not None:
            t.counts["sync.sync_resp_sent"] += 1
            t.counts["sync.copies_sent"] += len(result.get("changes", ()))
            t.counts["sync.bytes_sent"] += _msg_bytes(result)

    tracer.wrap(server.PeerClient, "send", "server.peer_send")
    tracer.wrap(
        node.Node,
        "dispatch",
        "node.dispatch",
        key=lambda a: dispatch_kind(a[1]),
        request_id=lambda a: a[1].get("id") if isinstance(a[1], dict) else None,
    )
    tracer.wrap(
        node.Node,
        "handle_peer_message",
        "node.peer_msg",
        key=lambda a: a[1].get("type") if isinstance(a[1], dict) else "other",
    )
    tracer.wrap(kvstore.Store, "put", "kvstore.put")
    tracer.wrap(kvstore.Store, "range", "kvstore.range", note=note_range)
    tracer.wrap(engine.Document, "commit", "engine.commit")
    tracer.wrap(engine, "make_change", "engine.make_change")
    # replication only: log replay at start-up is timed as part of durability.load
    tracer.wrap(engine.Document, "apply_remote", "engine.apply_remote", note=note_apply,
                only_under="sync.handle_message")
    tracer.wrap(engine.Document, "state_at", "engine.state_at")
    tracer.wrap(engine.Document, "missing_changes", "engine.missing_changes", note=note_missing)
    tracer.wrap(durability.ChangeLog, "append", "durability.append")
    tracer.wrap(durability.ChangeLog, "load", "durability.load")
    tracer.wrap(watch.WatchManager, "on_change", "watch.on_change")
    tracer.wrap(sync.SyncManager, "broadcast_messages", "sync.broadcast", note=note_broadcast)
    tracer.wrap(sync.SyncManager, "sync_request", "sync.sync_request", note=note_sync_request)
    tracer.wrap(sync.SyncManager, "handle_message", "sync.handle_message", note=note_handle)

    to_wire = watch.WatchEvent.to_wire

    def counted_to_wire(self):
        tracer.count("watch.events")
        return to_wire(self)

    tracer.patch(watch.WatchEvent, "to_wire", counted_to_wire)

    # A scan lists every key of the kvs map and then decodes and range-checks
    # each; one hook on that listing counts the keys a scan examines.
    view_children = kvstore._DocView.children

    def counted_children(view, prefix):
        listed = view_children(view, prefix)
        if prefix == ("kvs",):
            tracer.keys_listed += len(listed)
        return listed

    tracer.patch(kvstore._DocView, "children", counted_children)

    node_init = node.Node.__init__

    def tracked_init(self, *args, **kwargs):
        node_init(self, *args, **kwargs)
        tracer.nodes.append(self)

    tracer.patch(node.Node, "__init__", tracked_init)
