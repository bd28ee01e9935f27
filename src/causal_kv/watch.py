"""Watch streams over the key-value store.

Counter mode implements the merge re-send rule for mutable history: a merged
remote write is pushed to a watcher even at an already-delivered revision when
the incoming write wins, and suppressed when it loses, so every stream ends on
the converged value. Hash mode simply delivers each change affecting a watched
key exactly once per registration; merged history is immutable so events are
always complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .engine import Change, Document, decode_kv_key
from .kvstore import ApiError, Store, b64e

ZERO_STAMP = (0, "")


@dataclass
class WatchEvent:
    type: str  # "put" | "delete"
    key: bytes
    value: bytes | None = None
    mod_revision: int | None = None  # counter mode
    change: str | None = None  # hash mode: the change behind this event
    heads: tuple[str, ...] | None = None  # hash mode: resulting frontier

    def to_wire(self) -> dict:
        obj = {"type": self.type, "key": b64e(self.key)}
        if self.value is not None:
            obj["value"] = b64e(self.value)
        if self.mod_revision is not None:
            obj["mod_revision"] = self.mod_revision
        if self.change is not None:
            obj["change"] = self.change
            obj["heads"] = list(self.heads or ())
        return obj


@dataclass
class Registration:
    watch_id: int
    key: bytes
    range_end: bytes | None
    sink: Callable[[int, list[WatchEvent]], None]
    last_sent: dict[bytes, tuple[int, tuple[int, str]]] = field(default_factory=dict)

    def matches(self, key: bytes) -> bool:
        if self.range_end is None:
            return key == self.key
        if key < self.key:
            return False
        return self.range_end == b"\x00" or key < self.range_end


def _kvs_key(path) -> bytes | None:
    if len(path) < 2 or path[0] != "kvs":
        return None
    return decode_kv_key(path[1])


def affected_keys(change: Change, mode: str) -> dict[bytes, dict]:
    """Map each kvs key a change touches to what happened to it.

    Counter mode: {"rev": int, "deleted": bool}, exact because a tombstone is a
    null written at the revision root. Hash mode: {} - whether the key survived
    is read from document state, since a field-removal update also commits only
    del ops. Lease-pointer updates alone do not count as key events.
    """
    out: dict[bytes, dict] = {}
    for op in change.ops:
        key = _kvs_key(op.path)
        if key is None:
            continue
        if len(op.path) >= 3 and op.path[2] == "revs":
            rev = int(op.path[3])
            info = out.setdefault(key, {"rev": rev, "deleted": False})
            if len(op.path) == 4 and op.action == "set" and op.value is None:
                info["deleted"] = True
        elif len(op.path) >= 3 and op.path[2] == "value":
            out.setdefault(key, {})
    return out


class WatchManager:
    """Owns all registrations for one node and fans change events out to sinks."""

    def __init__(self, store: Store):
        self.store = store
        self.doc: Document = store.doc
        self._regs: dict[int, Registration] = {}
        self._next_id = 0

    # -- registration ---------------------------------------------------------

    def create(
        self,
        key: bytes,
        range_end: bytes | None,
        start,
        sink: Callable[[int, list[WatchEvent]], None],
    ) -> int:
        if not key:
            raise ApiError("malformed", "watch key must be non-empty")
        self._next_id += 1
        reg = Registration(watch_id=self._next_id, key=key, range_end=range_end, sink=sink)
        backlog: list[WatchEvent] = []
        if self.store.mode == "counter":
            backlog = self._init_counter(reg, start)
        else:
            backlog = self._init_hash(reg, start)
        self._regs[reg.watch_id] = reg
        if backlog:
            reg.sink(reg.watch_id, backlog)
        return reg.watch_id

    def cancel(self, watch_id: int) -> bool:
        return self._regs.pop(watch_id, None) is not None

    def registration(self, watch_id: int) -> Registration | None:
        return self._regs.get(watch_id)

    def _rev_stamp(self, key: bytes, rev: int) -> tuple[int, str]:
        """Winning stamp recorded at one revision of a key (max over its leaves)."""
        return self._max_stamp_under(("kvs", b64e(key), "revs", str(rev)))

    def _max_stamp_under(self, root) -> tuple[int, str]:
        best = ZERO_STAMP
        leaf = self.doc.leaf(root)
        if leaf is not None:
            best = (leaf.lamport, leaf.source)
        for comp in self.doc.children(root):
            sub = self._max_stamp_under(root + (comp,))
            if sub > best:
                best = sub
        return best

    def _init_counter(self, reg: Registration, start) -> list[WatchEvent]:
        if start is not None:
            if not isinstance(start, int) or isinstance(start, bool) or start < 1:
                raise ApiError("malformed", "counter mode watches start from an integer revision")
            if start > self.store.current_revision():
                raise ApiError("future_revision", f"revision {start} has not been assigned yet")
        backlog: list[WatchEvent] = []
        replayed: list[tuple[int, bytes, bool]] = []
        for key in self.store._keys_in_range(reg.key, reg.range_end):
            revs = self.store.revs_of(key)
            if not revs:
                continue
            top_rev, _ = revs[-1]
            reg.last_sent[key] = (top_rev, self._rev_stamp(key, top_rev))
            if start is not None:
                replayed.extend((rev, key, dead) for rev, dead in revs if rev > start)
        for rev, key, dead in sorted(replayed):
            backlog.append(self._counter_event(key, rev, dead))
        return backlog

    def _init_hash(self, reg: Registration, start) -> list[WatchEvent]:
        if start is None:
            return []
        if not isinstance(start, (list, tuple)) or not all(isinstance(h, str) for h in start):
            raise ApiError("malformed", "hash mode watches start from a list of change hashes")
        for digest in start:
            if not self.doc.has_change(digest):
                raise ApiError("unknown_hash", f"unknown change hash {digest}")
        backlog: list[WatchEvent] = []
        for change in self.doc.missing_changes(self.doc.frontier_vv(start)):
            for key in sorted(affected_keys(change, "hash")):
                if not reg.matches(key):
                    continue
                value = self.store.value_bytes_at_frontier(key, [change.hash])
                backlog.append(
                    WatchEvent(
                        type="put" if value is not None else "delete",
                        key=key,
                        value=value,
                        change=change.hash,
                        heads=(change.hash,),
                    )
                )
        return backlog

    # -- live events ------------------------------------------------------------

    def _counter_event(self, key: bytes, rev: int, deleted: bool) -> WatchEvent:
        if deleted:
            return WatchEvent(type="delete", key=key, mod_revision=rev)
        return WatchEvent(
            type="put", key=key, value=self.store.value_bytes_at_rev(key, rev), mod_revision=rev
        )

    def on_change(self, change: Change, origin: str) -> None:
        """Fan one just-applied change out to every interested registration.

        `origin` is "local" for commits on this node, "remote" for merged ones;
        remote counter-mode events pass the same-revision winner test first.
        """
        touched = affected_keys(change, self.store.mode)
        if not touched:
            return
        for reg in list(self._regs.values()):
            events: list[WatchEvent] = []
            for key, info in sorted(touched.items()):
                if not reg.matches(key):
                    continue
                if self.store.mode == "counter":
                    event = self._counter_live(reg, key, info, change, origin)
                else:
                    event = self._hash_live(reg, key, info, change)
                if event is not None:
                    events.append(event)
            if events:
                reg.sink(reg.watch_id, events)

    def _counter_live(self, reg, key, info, change, origin) -> WatchEvent | None:
        rev = info["rev"]
        stamp = change.stamp
        last_rev, last_stamp = reg.last_sent.get(key, (0, ZERO_STAMP))
        if origin != "local":
            if rev < last_rev:
                return None
            if rev == last_rev and stamp <= last_stamp:
                return None
        reg.last_sent[key] = (rev, stamp)
        return self._counter_event(key, rev, info["deleted"])

    def _hash_live(self, reg, key, info, change) -> WatchEvent:
        item = self.store.read_item(key)
        return WatchEvent(
            type="put" if item is not None else "delete",
            key=key,
            value=item.value if item is not None else None,
            change=change.hash,
            heads=self.doc.heads,
        )
