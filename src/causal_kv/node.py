"""One datastore node: engine + kv store + watches + durability + replication.

The node is transport-agnostic and single-threaded: its runtime (the server's
event loop or the simulator) calls it from one thread. Client requests arrive
as decoded JSON objects through dispatch(); peer messages through
handle_peer_message(), whose return value (if any) the caller sends back.
Outbound fire-and-forget messages (broadcasts, sync requests) go straight to
the `send` callable handed in at construction, which must only queue them.

Per change, work is ordered: apply to the in-memory document, append to the
durable log, fan out watch events, send the broadcast - and only then build the
client response, so nothing about a change, its acknowledgement included,
leaves the node before the change is on disk. Once an append fails, memory
holds a change the log lacks and every later change would depend on it, so the
node turns degraded: it refuses every mutating request until it is restarted
from its log.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

from .durability import ChangeLog
from .engine import Change, Document, genesis_change
from .kvstore import ApiError, Store, b64d
from .sync import SyncManager
from .watch import WatchManager

logger = logging.getLogger(__name__)


@dataclass
class NodeConfig:
    node_id: int
    mode: str = "counter"
    schema: str = "bytes"
    cluster_id: int = 1
    name: str = ""
    peers: dict[int, object] = field(default_factory=dict)  # peer id -> address
    data_dir: str | None = None
    fsync: bool = False
    sync_interval_ms: int = 100
    peer_urls: list[str] = field(default_factory=list)
    client_urls: list[str] = field(default_factory=list)


class Node:
    def __init__(
        self,
        config: NodeConfig,
        send: Callable[[int, dict], object] | None = None,
        clock: Callable[[], float] | None = None,
    ):
        if config.node_id < 1:
            raise ValueError("node ids start at 1; 0 is reserved for genesis")
        self.config = config
        self.clock = clock or time.time
        self._send = send or (lambda peer_id, msg: None)
        self.degraded = False  # set when the durable log falls behind memory; never cleared

        self.log = ChangeLog(config.data_dir, fsync=config.fsync) if config.data_dir else None
        doc = self.log.load() if self.log else Document()
        if not doc.changes:
            g = genesis_change(config.mode)
            doc.apply_remote(g)
            if self.log:
                self.log.append(g)
        elif doc.genesis_hash != genesis_change(config.mode).hash:
            raise ValueError(
                f"data dir {config.data_dir} was initialized in a different revision mode"
            )
        self.store = Store(
            doc,
            config.mode,
            config.schema,
            member_id=config.node_id,
            cluster_id=config.cluster_id,
            clock=self.clock,
        )
        self.watches = WatchManager(self.store)
        self.sync = SyncManager(doc, config.node_id, config.peers, on_apply=self._on_remote_apply)
        self.store.commit_hooks.extend(
            [self._append_durable, self._watch_local, self._broadcast]
        )

    def register_member(self) -> None:
        """Join the cluster: commit this node's member record and seed the
        cluster id if absent. Called by the serving/simulation runtimes, not by
        construction, so a fresh node still sits exactly at genesis."""
        self.store.bootstrap_member(
            self.config.name or f"node{self.config.node_id}",
            self.config.peer_urls,
            self.config.client_urls,
        )

    # -- commit/apply hooks ------------------------------------------------------

    def _append_durable(self, change: Change) -> None:
        if self.log is None:
            return
        try:
            self.log.append(change)
        except OSError as exc:
            self.degraded = True
            raise ApiError("degraded", f"durable append failed: {exc}") from exc

    def _watch_local(self, change: Change) -> None:
        self.watches.on_change(change, "local")

    def _broadcast(self, change: Change) -> None:
        for peer_id, msg in self.sync.broadcast_messages(change):
            self._send(peer_id, msg)

    def _on_remote_apply(self, change: Change) -> None:
        if self.log is not None:
            try:
                self.log.append(change)
            except OSError as exc:
                self.degraded = True
                logger.error("node %d: durable append failed, now degraded: %s", self.config.node_id, exc)
        self.watches.on_change(change, "remote")

    # -- peer side ------------------------------------------------------------------

    def handle_peer_message(self, msg: dict) -> dict | None:
        return self.sync.handle_message(msg)

    def sync_with(self, peer_id: int) -> None:
        """Kick one periodic anti-entropy round with one configured peer."""
        self._send(*self.sync.sync_request(peer_id))

    def lease_tick(self) -> list[int]:
        return [] if self.degraded else self.store.lease_expire_scan()

    @property
    def doc(self) -> Document:
        return self.store.doc

    # -- client side -------------------------------------------------------------------

    def dispatch(self, request, watch_sink=None) -> dict:
        """Answer one client request object with one correlated response object."""
        req_id = request.get("id", 0) if isinstance(request, dict) else 0
        if not isinstance(req_id, int) or isinstance(req_id, bool):
            req_id = 0
        try:
            if not isinstance(request, dict):
                raise ApiError("malformed", "request must be a JSON object")
            op = request.get("op")
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ApiError("malformed", f"unknown op {op!r}")
            if self.degraded and op in self._MUTATING:
                raise ApiError("degraded", "the durable log lost a change; restart the node from its log")
            payload = handler(self, request, watch_sink)
            response = {"id": req_id, "ok": True, "header": self.store.header()}
            response.update(payload)
            return response
        except ApiError as exc:
            return self._error(req_id, exc.code, exc.msg)
        except (KeyError, TypeError, ValueError) as exc:
            return self._error(req_id, "malformed", f"{type(exc).__name__}: {exc}")

    def _error(self, req_id: int, code: str, msg: str) -> dict:
        return {"id": req_id, "ok": False, "header": self.store.header(), "error": {"code": code, "msg": msg}}

    # -- request handlers ------------------------------------------------------------

    def _handle_put(self, req, _sink):
        _header, prev = self.store.put(
            b64d(req["key"]),
            b64d(req["value"]),
            lease=req.get("lease"),
            return_prev=bool(req.get("prev_kv")),
        )
        payload = {}
        if req.get("prev_kv"):
            payload["prev_kv"] = prev.to_wire() if prev else None
        return payload

    def _handle_range(self, req, _sink):
        _header, items = self.store.range(
            b64d(req["key"]),
            b64d(req["range_end"]) if "range_end" in req else None,
            at=req.get("at"),
            limit=req.get("limit"),
        )
        return {"kvs": [item.to_wire() for item in items], "count": len(items)}

    def _handle_delete_range(self, req, _sink):
        _header, deleted = self.store.delete_range(
            b64d(req["key"]),
            b64d(req["range_end"]) if "range_end" in req else None,
        )
        return {"deleted": deleted}

    def _decode_txn_op(self, obj) -> dict:
        if not isinstance(obj, dict):
            raise ApiError("malformed", "txn ops must be objects")
        decoded = dict(obj)
        if "key" in decoded:
            decoded["key"] = b64d(decoded["key"])
        if "range_end" in decoded:
            decoded["range_end"] = b64d(decoded["range_end"])
        if decoded.get("op") == "put":
            decoded["value"] = b64d(obj["value"])
        return decoded

    def _handle_txn(self, req, _sink):
        compares = []
        for cmp in req.get("compares", ()):
            if not isinstance(cmp, dict):
                raise ApiError("malformed", "txn compares must be objects")
            target = cmp.get("target")
            operand = cmp.get("value")
            if target == "value":
                operand = b64d(operand)
            compares.append({"key": b64d(cmp["key"]), "target": target, "value": operand})
        success = [self._decode_txn_op(o) for o in req.get("success", ())]
        failure = [self._decode_txn_op(o) for o in req.get("failure", ())]
        _header, succeeded, responses = self.store.txn(compares, success, failure)
        return {"succeeded": succeeded, "responses": responses}

    def _handle_watch_create(self, req, sink):
        if sink is None:
            raise ApiError("malformed", "this transport cannot deliver watch events")
        def deliver(watch_id, events):
            sink({"watch_id": watch_id, "events": [e.to_wire() for e in events]})

        watch_id = self.watches.create(
            b64d(req["key"]),
            b64d(req["range_end"]) if "range_end" in req else None,
            req.get("start"),
            deliver,
        )
        return {"watch_id": watch_id}

    def _handle_watch_cancel(self, req, _sink):
        return {"canceled": self.watches.cancel(req["watch_id"])}

    def _handle_lease_grant(self, req, _sink):
        lease_id = self.store.lease_grant(req["ttl"], req.get("lease_id"))
        return {"lease_id": lease_id, "ttl": req["ttl"]}

    def _handle_lease_revoke(self, req, _sink):
        self.store.lease_revoke(req["lease_id"])
        return {}

    def _handle_member_list(self, req, _sink):
        return {"members": [m.to_wire() for m in self.store.member_list()]}

    def _handle_status(self, req, _sink):
        meta = self.store.cluster_meta()
        return {
            "cluster_id": meta["cluster_id"],
            "mode": meta["mode"],
            "schema": meta["schema"],
            "degraded": self.degraded,
        }

    def _handle_replication_status(self, req, _sink):
        if self.store.mode != "hash":
            raise ApiError("mode_unsupported", "replication status needs hash mode")
        hashes = req.get("heads")
        if not isinstance(hashes, list) or not hashes or not all(isinstance(h, str) for h in hashes):
            raise ApiError("malformed", "heads must be a non-empty list of change hashes")
        for digest in hashes:
            if not self.doc.has_change(digest):
                raise ApiError("unknown_hash", f"unknown change hash {digest}")
        status = self.sync.replication_status(hashes)
        return {"peers": {str(pid): ok for pid, ok in status.items()}}

    _HANDLERS = {
        "put": _handle_put,
        "range": _handle_range,
        "delete_range": _handle_delete_range,
        "txn": _handle_txn,
        "watch_create": _handle_watch_create,
        "watch_cancel": _handle_watch_cancel,
        "lease_grant": _handle_lease_grant,
        "lease_revoke": _handle_lease_revoke,
        "member_list": _handle_member_list,
        "status": _handle_status,
        "replication_status": _handle_replication_status,
    }
    _MUTATING = frozenset({"put", "delete_range", "txn", "lease_grant", "lease_revoke"})
