"""Two-tier replication between configured peers.

Optimistic tier: a freshly committed local change is sent once to every peer,
fire-and-forget, and never relayed further. Pessimistic tier: a periodic
anti-entropy round in which peers exchange version vectors (actor -> greatest
stored seq), each of which names exactly the changes its sender holds. A round
is at most four messages: `sync_req{vv}`; `sync_resp{vv, changes}` with what
the requester lacks; one `sync_resp` push marked `ack` with what the responder
lacks; and, only if that push applied something, one empty `ack` reply. An
`ack` is never answered with changes. All locally stored changes are eligible
for the periodic tier, which is what propagates changes transitively across
the topology.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .engine import Change, Document, change_from_wire, change_to_wire

logger = logging.getLogger(__name__)


@dataclass
class PeerState:
    """The version vector one direct peer last reported, replaced on each report."""

    peer_id: int
    vv: dict[int, int] = field(default_factory=dict)


def _vv_from_wire(obj) -> dict[int, int] | None:
    """Parse a wire version vector ({"actor": seq}); None if it is malformed."""
    if not isinstance(obj, dict):
        return None
    vv = {}
    for actor, seq in obj.items():
        if not (isinstance(actor, str) and actor.isascii() and actor.isdigit()):
            return None
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            return None
        vv[int(actor)] = seq
    return vv


def sync_phases(peers: Iterable[int], interval: float) -> dict[int, float]:
    """Each peer's round offset within the sync interval: peers are contacted one at a time."""
    ordered = sorted(peers)
    return {pid: interval * (idx + 1) / (len(ordered) + 1) for idx, pid in enumerate(ordered)}


class SyncManager:
    """Replication state machine for one node.

    Methods build peer-protocol messages or consume them; the owner performs the
    actual sends.
    """

    def __init__(
        self,
        doc: Document,
        node_id: int,
        peers: Iterable[int],
        on_apply: Callable[[Change], None] | None = None,
    ):
        self.doc = doc
        self.node_id = node_id
        self.on_apply = on_apply
        self.peer_states = {pid: PeerState(peer_id=pid) for pid in peers}

    # -- message construction ------------------------------------------------

    def broadcast_messages(self, change: Change) -> list[tuple[int, dict]]:
        """One change message per configured peer; never triggered by received changes."""
        msg = {"type": "change", "from": self.node_id, "change": change_to_wire(change)}
        return [(pid, msg) for pid in self.peer_states]

    def sync_request(self, peer_id: int) -> tuple[int, dict]:
        return peer_id, {"type": "sync_req", "from": self.node_id, "vv": self._wire_vv()}

    def _sync_resp(self, changes: list[Change], ack: bool) -> dict:
        return {
            "type": "sync_resp",
            "from": self.node_id,
            "vv": self._wire_vv(),
            "changes": [change_to_wire(c) for c in changes],
            "ack": ack,
        }

    def _wire_vv(self) -> dict[str, int]:
        return {str(actor): seq for actor, seq in self.doc.version_vector().items()}

    # -- message handling -------------------------------------------------------

    def handle_message(self, msg: dict) -> dict | None:
        """Consume one peer message; returns a reply to send back, if any."""
        if not isinstance(msg, dict):
            logger.warning("node %d: dropped malformed peer message: not an object", self.node_id)
            return None
        kind = msg.get("type")
        if kind == "change":
            self._apply_wire_changes([msg.get("change")])
            return None
        if kind not in ("sync_req", "sync_resp"):
            logger.warning("node %d: unknown peer message type %r", self.node_id, kind)
            return None
        sender = msg.get("from")
        their_vv = _vv_from_wire(msg.get("vv"))
        changes = msg.get("changes", [])
        if type(sender) is not int or their_vv is None or not isinstance(changes, list):
            logger.warning("node %d: dropped malformed %s", self.node_id, kind)
            return None
        applied = self._apply_wire_changes(changes) if kind == "sync_resp" else 0
        state = self.peer_states.get(sender)
        if state is not None:
            state.vv = their_vv
        if kind == "sync_req":
            return self._sync_resp(self.doc.missing_changes(their_vv), ack=False)
        if msg.get("ack"):
            return self._sync_resp([], ack=True) if applied else None
        outgoing = self.doc.missing_changes(their_vv)
        return self._sync_resp(outgoing, ack=True) if outgoing else None

    def _apply_wire_changes(self, wire_changes) -> int:
        applied_count = 0
        for obj in wire_changes:
            try:
                change = change_from_wire(obj)  # verifies the hash before applying
                status, applied = self.doc.apply_remote(change)
            except Exception as exc:
                logger.warning("node %d: rejected peer change: %s", self.node_id, exc)
                continue
            applied_count += len(applied)
            if self.on_apply:
                for c in applied:
                    self.on_apply(c)
        return applied_count

    # -- replication status --------------------------------------------------------

    def replication_status(self, hashes) -> dict[int, bool]:
        """Per direct peer: does its last-reported vector cover every queried hash?"""
        changes = [self.doc.get_change(h) for h in hashes]
        return {
            pid: all(state.vv.get(c.actor, 0) >= c.seq for c in changes)
            for pid, state in sorted(self.peer_states.items())
        }
