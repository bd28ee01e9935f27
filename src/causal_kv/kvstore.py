"""etcd-style key-value semantics over the CRDT document.

Two history-addressing modes share one document layout root:

* counter: a global integer revision under cluster/revision, incremented once
  per locally committed KV-mutating request. Each key keeps a map of revision ->
  value (or a null tombstone), so historical reads replay the revs map and
  deleted data stays readable at old revisions.
* hash: no counter. Each key stores only its latest value; history is addressed
  by change-DAG frontiers, and a historical read resolves each leaf it needs to
  the winning write among the changes the frontier's version vector covers.

Values are either opaque bytes (one leaf, whole-value last-writer-wins) or JSON
objects decomposed into one leaf per nested field, so concurrent edits to
different fields merge instead of conflicting.
"""

from __future__ import annotations

import base64
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .engine import (
    DELETED,
    Change,
    Document,
    Path,
    UnknownHashError,
    canonical_json_bytes,
    decode_kv_key,
    del_op,
    set_op,
)

MISSING = object()

REVISION_PATH = ("cluster", "revision")
CLUSTER_ID_PATH = ("cluster", "id")


class ApiError(Exception):
    """Client-facing failure with a wire error code."""

    def __init__(self, code: str, msg: str):
        super().__init__(msg)
        self.code = code
        self.msg = msg


def b64e(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def b64d(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ApiError("malformed", f"invalid base64: {exc}") from exc


@dataclass
class KvItem:
    """One key's value plus mode-dependent revision metadata."""

    key: bytes
    value: bytes
    create_revision: int | None = None
    mod_revision: int | None = None
    version: int | None = None
    lease: int | None = None

    def to_wire(self) -> dict:
        obj = {"key": b64e(self.key), "value": b64e(self.value)}
        if self.create_revision is not None:
            obj["create_revision"] = self.create_revision
            obj["mod_revision"] = self.mod_revision
            obj["version"] = self.version
        if self.lease is not None:
            obj["lease"] = self.lease
        return obj


@dataclass
class MemberRecord:
    id: int
    name: str
    peer_urls: list[str] = field(default_factory=list)
    client_urls: list[str] = field(default_factory=list)

    def to_wire(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "peer_urls": list(self.peer_urls),
            "client_urls": list(self.client_urls),
        }


@dataclass
class LeaseRecord:
    id: int
    ttl_seconds: int
    granted_at_ms: int
    grantor: int


# -- leaf views ---------------------------------------------------------------
# Reads run against the document, either current or as of a frontier's version
# vector (hash-mode history); the engine's writer lists resolve both.


class _DocView:
    def __init__(self, doc: Document, vv: dict[int, int] | None = None):
        self._doc = doc
        self._vv = vv

    def get(self, path: Path, default=MISSING):
        leaf = self._doc.leaf(path, self._vv)
        if leaf is None or leaf.value is DELETED:
            return default
        return leaf.value

    def children(self, prefix: Path) -> list[str]:
        return self._doc.children(prefix)

    def subtree(self, prefix: Path):
        return self._doc.iter_subtree(prefix, self._vv)


# -- JSON value handling -------------------------------------------------------


def parse_json_value(raw: bytes) -> dict:
    """Parse and validate a json-schema value: a non-empty object of nested
    objects and scalars (no arrays, no floats, no empty objects or keys)."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except Exception as exc:
        raise ApiError("malformed", f"value is not valid JSON: {exc}") from exc
    _validate_json_obj(obj, top=True)
    return obj


def _validate_json_obj(obj, top: bool) -> None:
    if not isinstance(obj, dict):
        raise ApiError("malformed", "json value must be an object")
    if not obj:
        raise ApiError("malformed", "empty JSON objects are not representable")
    for key, val in obj.items():
        if not isinstance(key, str) or not key:
            raise ApiError("malformed", "JSON field names must be non-empty strings")
        if isinstance(val, dict):
            _validate_json_obj(val, top=False)
        elif isinstance(val, float):
            raise ApiError("malformed", "float values are not supported in json schema")
        elif isinstance(val, list):
            raise ApiError("malformed", "arrays are not supported in json schema")
        elif val is not None and not isinstance(val, (str, int, bool)):
            raise ApiError("malformed", f"unsupported JSON value type {type(val).__name__}")


def flatten_json(obj: dict, prefix: Path = ()) -> dict[Path, object]:
    flat: dict[Path, object] = {}
    for key, val in obj.items():
        if isinstance(val, dict):
            flat.update(flatten_json(val, prefix + (key,)))
        else:
            flat[prefix + (key,)] = val
    return flat


def unflatten_json(flat: dict[Path, object]) -> dict:
    """Rebuild the nested object; on scalar/map conflicts from merges the map wins."""
    root: dict = {}
    for path in sorted(flat):
        node = root
        for comp in path[:-1]:
            child = node.get(comp)
            if not isinstance(child, dict):
                child = {}
                node[comp] = child
            node = child
        if not isinstance(node.get(path[-1]), dict):
            node[path[-1]] = flat[path]
    return root


def diff_json(old: dict[Path, object] | None, new: dict[Path, object]):
    """Field-wise diff: leaves to (re)set and leaves to remove."""
    old = old or {}
    changed = [(s, v) for s, v in new.items() if old.get(s, MISSING) != v]
    removed = [s for s in old if s not in new]
    return changed, removed


def _conflicts(a: Path, b: Path) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


class Store:
    """Stateless facade mapping etcd-style requests onto one node's document.

    All mutators funnel into a single engine commit per client request; hooks
    registered in commit_hooks (durability, watches, broadcast) run synchronously
    before the request returns.
    """

    def __init__(
        self,
        doc: Document,
        mode: str,
        schema: str,
        member_id: int,
        cluster_id: int = 1,
        clock: Callable[[], float] | None = None,
    ):
        if mode not in ("counter", "hash"):
            raise ValueError(f"unknown mode {mode!r}")
        if schema not in ("bytes", "json"):
            raise ValueError(f"unknown schema {schema!r}")
        self.doc = doc
        self.mode = mode
        self.schema = schema
        self.actor = member_id
        self.cluster_id = cluster_id
        self.clock = clock or (lambda: 0.0)
        self.commit_hooks: list[Callable[[Change], None]] = []
        self._revision_floor = 1 if mode == "counter" else 0
        self._lease_seq = 0

    # -- plumbing -------------------------------------------------------------

    def _next_revision(self) -> int | None:
        """The revision the next KV-mutating commit takes; None in hash mode."""
        return self.current_revision() + 1 if self.mode == "counter" else None

    def _commit(self, ops, rev: int | None = None) -> Change:
        """Commit `ops` as one change; a counter revision `rev` is written first."""
        if rev is not None:
            ops = [set_op(REVISION_PATH, rev), *ops]
        change = self.doc.commit(self.actor, ops)
        for hook in self.commit_hooks:
            hook(change)
        if rev is not None:
            self._revision_floor = rev
        return change

    def current_revision(self) -> int:
        leaf = self.doc.leaf(REVISION_PATH)
        if leaf is not None and leaf.value is not DELETED and leaf.value > self._revision_floor:
            self._revision_floor = leaf.value
        return self._revision_floor

    def header(self) -> dict:
        h = {"member_id": self.actor}
        if self.mode == "counter":
            h["revision"] = self.current_revision()
        else:
            h["heads"] = list(self.doc.heads)
        return h

    def _key_prefix(self, key: bytes) -> Path:
        return ("kvs", b64e(key))

    def _view_at(self, at):
        """Resolve the optional `at` position into a leaf view (plus rev bound)."""
        if at is None:
            return _DocView(self.doc), None
        if self.mode == "counter":
            if not isinstance(at, int) or isinstance(at, bool) or at < 1:
                raise ApiError("malformed", "counter mode addresses history by integer revision")
            if at > self.current_revision():
                raise ApiError("future_revision", f"revision {at} has not been assigned yet")
            return _DocView(self.doc), at
        if not isinstance(at, (list, tuple)) or not at or not all(isinstance(h, str) for h in at):
            raise ApiError("malformed", "hash mode addresses history by a list of change hashes")
        try:
            for digest in at:
                self.doc.get_change(digest)
        except UnknownHashError as exc:
            raise ApiError("unknown_hash", str(exc)) from exc
        return _DocView(self.doc, self.doc.frontier_vv(at)), None

    # -- reading ---------------------------------------------------------------

    def _counter_rev_entries(self, view, key: bytes, max_rev: int | None):
        """(rev, kind, fields) per revision of `key`, ascending; kind is
        "tombstone" or "fields" with [(suffix, value)] overlay leaves."""
        revs_prefix = self._key_prefix(key) + ("revs",)
        entries = []
        for comp in view.children(revs_prefix):
            rev = int(comp)
            if max_rev is not None and rev > max_rev:
                continue
            root = revs_prefix + (comp,)
            root_val = view.get(root)
            if root_val is None:  # null at the revision itself marks a deletion
                entries.append((rev, "tombstone", []))
                continue
            if root_val is not MISSING:
                entries.append((rev, "fields", [((), root_val)]))
                continue
            fields = sorted(
                (path[len(root):], value) for path, value in view.subtree(root)
            )
            if fields:
                entries.append((rev, "fields", fields))
        entries.sort()
        return entries

    def _fold_counter(self, view, key: bytes, max_rev: int | None):
        """Replay a key's revs map: returns (flat leaves, create, mod, version) or None."""
        entries = self._counter_rev_entries(view, key, max_rev)
        if not entries:
            return None
        flat: dict[Path, object] = {}
        exists = False
        create = mod = version = 0
        for rev, kind, fields in entries:
            mod = rev
            if kind == "tombstone":
                flat, exists, create, version = {}, False, 0, 0
                continue
            if not exists:
                exists, create = True, rev
            version += 1
            for suffix, value in fields:
                flat = {s: v for s, v in flat.items() if not _conflicts(s, suffix)}
                if value is not None:
                    flat[suffix] = value
        if not exists:
            return None
        return flat, create, mod, version

    def _value_bytes(self, flat: dict[Path, object]) -> bytes:
        if self.schema == "bytes":
            return b64d(flat[()])
        return canonical_json_bytes(unflatten_json(flat))

    def read_item(self, key: bytes, view=None, max_rev: int | None = None) -> KvItem | None:
        """Materialize one key as of the given view, or None if absent."""
        if view is None:
            view = _DocView(self.doc)
        prefix = self._key_prefix(key)
        lease = view.get(prefix + ("lease",))
        lease = None if lease is MISSING else lease
        if self.mode == "counter":
            folded = self._fold_counter(view, key, max_rev)
            if folded is None:
                return None
            flat, create, mod, version = folded
            return KvItem(
                key=key,
                value=self._value_bytes(flat),
                create_revision=create,
                mod_revision=mod,
                version=version,
                lease=lease,
            )
        value_root = prefix + ("value",)
        if self.schema == "bytes":
            raw = view.get(value_root)
            if raw is MISSING:
                return None
            return KvItem(key=key, value=b64d(raw), lease=lease)
        flat = {path[len(value_root):]: v for path, v in view.subtree(value_root)}
        flat.pop((), None)  # ignore any bare marker at the value root
        if not flat:
            return None
        return KvItem(key=key, value=self._value_bytes(flat), lease=lease)

    def _keys_in_range(self, key: bytes, range_end: bytes | None):
        """Keys ever written in [key, range_end), dead ones included, ascending.

        Lazy, so a limited scan reads no further than its answer; callers must
        not commit while iterating.
        """
        if range_end is None:
            yield key
            return
        keys = self.doc.kv_keys
        end = len(keys) if range_end == b"\x00" else bisect_left(keys, range_end)
        for i in range(bisect_left(keys, key), end):
            yield keys[i]

    def range(self, key: bytes, range_end: bytes | None = None, at=None, limit: int | None = None):
        """Site-local read of [key, range_end); values as of `at` when given."""
        if not key:
            raise ApiError("malformed", "key must be non-empty")
        if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool) or limit < 0):
            raise ApiError("malformed", "limit must be a non-negative integer")
        view, max_rev = self._view_at(at)
        items = []
        for k in self._keys_in_range(key, range_end):
            item = self.read_item(k, view, max_rev)
            if item is not None:
                items.append(item)
                if limit and len(items) >= limit:  # limit 0 means unlimited
                    break
        return self.header(), items

    # -- writing ---------------------------------------------------------------

    def _current_flat(self, key: bytes) -> dict[Path, object] | None:
        """The writer's read state for json diffs: the key's current flat fields."""
        view = _DocView(self.doc)
        if self.mode == "counter":
            folded = self._fold_counter(view, key, None)
            return folded[0] if folded else None
        value_root = self._key_prefix(key) + ("value",)
        flat = {path[len(value_root):]: v for path, v in view.subtree(value_root)}
        flat.pop((), None)
        return flat or None

    def _value_ops(self, key: bytes, raw: bytes, rev: int | None) -> list:
        """Leaf ops that write `raw` as the key's new value (diffed under json)."""
        prefix = self._key_prefix(key)
        if self.mode == "counter":
            root = prefix + ("revs", str(rev))
        else:
            root = prefix + ("value",)
        if self.schema == "bytes":
            return [set_op(root, b64e(raw))]
        new_flat = flatten_json(parse_json_value(raw))
        changed, removed = diff_json(self._current_flat(key), new_flat)
        if not changed and not removed:
            changed = sorted(new_flat.items())  # identical value: still a new revision
        ops = [set_op(root + suffix, value) for suffix, value in sorted(changed)]
        if self.mode == "counter":
            ops.extend(set_op(root + suffix, None) for suffix in sorted(removed))
        else:
            ops.extend(del_op(root + suffix) for suffix in sorted(removed))
        return ops

    def _lease_ops(self, key: bytes, lease: int | None) -> list:
        lease_path = self._key_prefix(key) + ("lease",)
        current = _DocView(self.doc).get(lease_path)
        if lease is not None:
            if not self._lease_exists(lease):
                raise ApiError("unknown_lease", f"lease {lease} does not exist")
            if current != lease:
                return [set_op(lease_path, lease)]
            return []
        if current is not MISSING:
            return [del_op(lease_path)]
        return []

    def _delete_ops(self, key: bytes, rev: int | None) -> list:
        prefix = self._key_prefix(key)
        if self.mode == "counter":
            ops = [set_op(prefix + ("revs", str(rev)), None)]
        else:
            ops = [del_op(path) for path, _ in self.doc.iter_subtree(prefix + ("value",))]
        lease_path = prefix + ("lease",)
        if _DocView(self.doc).get(lease_path) is not MISSING:
            ops.append(del_op(lease_path))
        return ops

    def put(self, key: bytes, value: bytes, lease: int | None = None, return_prev: bool = False):
        if not key:
            raise ApiError("malformed", "key must be non-empty")
        prev = self.read_item(key) if return_prev else None
        rev = self._next_revision()
        self._commit(self._value_ops(key, value, rev) + self._lease_ops(key, lease), rev)
        return self.header(), prev

    def delete_range(self, key: bytes, range_end: bytes | None = None):
        if not key:
            raise ApiError("malformed", "key must be non-empty")
        view = _DocView(self.doc)
        victims = [k for k in self._keys_in_range(key, range_end) if self.read_item(k, view) is not None]
        if not victims:
            return self.header(), 0
        rev = self._next_revision()
        self._commit([op for k in victims for op in self._delete_ops(k, rev)], rev)
        return self.header(), len(victims)

    # -- transactions ------------------------------------------------------------

    def _eval_compare(self, cmp: dict) -> bool:
        key = cmp["key"]
        target = cmp["target"]
        item = self.read_item(key)
        if target == "value":
            return item is not None and item.value == cmp["value"]
        if self.mode != "counter":
            raise ApiError("mode_unsupported", f"{target} compares need counter mode")
        if target == "mod_revision":
            return (item.mod_revision if item else 0) == cmp["value"]
        if target == "version":
            return (item.version if item else 0) == cmp["value"]
        raise ApiError("malformed", f"unknown compare target {target!r}")

    def txn(self, compares: list[dict], success: list[dict], failure: list[dict]):
        """Atomic compare-then-branch; every executed mutation lands in ONE change.

        Reads inside the txn observe the pre-txn state; in counter mode the whole
        transaction consumes a single revision.
        """
        succeeded = all(self._eval_compare(c) for c in compares)
        branch = success if succeeded else failure
        rev = self._next_revision()
        mut_ops = []
        responses = []
        view = _DocView(self.doc)
        for req in branch:
            kind = req.get("op")
            if kind == "put":
                if not req["key"]:
                    raise ApiError("malformed", "key must be non-empty")
                mut_ops.extend(self._value_ops(req["key"], req["value"], rev))
                mut_ops.extend(self._lease_ops(req["key"], req.get("lease")))
                responses.append({"op": "put"})
            elif kind == "range":
                _, items = self.range(req["key"], req.get("range_end"), None, req.get("limit"))
                responses.append({"op": "range", "kvs": [i.to_wire() for i in items], "count": len(items)})
            elif kind == "delete_range":
                victims = [
                    k
                    for k in self._keys_in_range(req["key"], req.get("range_end"))
                    if self.read_item(k, view) is not None
                ]
                for k in victims:
                    mut_ops.extend(self._delete_ops(k, rev))
                responses.append({"op": "delete_range", "deleted": len(victims)})
            elif kind == "txn":
                raise ApiError("malformed", "nested transactions are not supported")
            else:
                raise ApiError("malformed", f"unknown txn op {kind!r}")
        if mut_ops:
            self._commit(mut_ops, rev)
        return self.header(), succeeded, responses

    # -- leases ---------------------------------------------------------------------

    def _lease_exists(self, lease_id: int) -> bool:
        return _DocView(self.doc).get(("leases", str(lease_id), "ttl")) is not MISSING

    def lease_grant(self, ttl_seconds: int, lease_id: int | None = None) -> int:
        if not isinstance(ttl_seconds, int) or isinstance(ttl_seconds, bool) or ttl_seconds < 1:
            raise ApiError("malformed", "lease ttl must be an integer >= 1")
        if lease_id is None:
            self._lease_seq += 1
            lease_id = (self.actor << 32) | self._lease_seq
        if self._lease_exists(lease_id):
            raise ApiError("malformed", f"lease {lease_id} already exists")
        root = ("leases", str(lease_id))
        self._commit(
            [
                set_op(root + ("ttl",), ttl_seconds),
                set_op(root + ("granted_at_ms",), int(self.clock() * 1000)),
                set_op(root + ("grantor",), self.actor),
            ]
        )
        return lease_id

    def _attached_keys(self, lease_id: int) -> list[bytes]:
        view = _DocView(self.doc)
        attached = []
        for comp in view.children(("kvs",)):
            if view.get(("kvs", comp, "lease")) == lease_id and (key := decode_kv_key(comp)) is not None:
                attached.append(key)
        return sorted(attached)

    def lease_revoke(self, lease_id: int):
        """Delete the lease record and every key attached to it, in one change."""
        if not self._lease_exists(lease_id):
            raise ApiError("unknown_lease", f"lease {lease_id} does not exist")
        root = ("leases", str(lease_id))
        victims = [k for k in self._attached_keys(lease_id) if self.read_item(k) is not None]
        rev = self._next_revision() if victims else None
        ops = [op for k in victims for op in self._delete_ops(k, rev)]
        ops.extend(del_op(root + (name,)) for name in ("ttl", "granted_at_ms", "grantor"))
        self._commit(ops, rev)
        return self.header()

    def lease_list(self) -> list[LeaseRecord]:
        view = _DocView(self.doc)
        records = []
        for comp in view.children(("leases",)):
            ttl = view.get(("leases", comp, "ttl"))
            if ttl is MISSING:
                continue
            records.append(
                LeaseRecord(
                    id=int(comp),
                    ttl_seconds=ttl,
                    granted_at_ms=view.get(("leases", comp, "granted_at_ms"), 0),
                    grantor=view.get(("leases", comp, "grantor"), 0),
                )
            )
        return sorted(records, key=lambda r: r.id)

    def lease_expire_scan(self, now_ms: int | None = None) -> list[int]:
        """Revoke leases granted by this node whose ttl has elapsed on its clock."""
        if now_ms is None:
            now_ms = int(self.clock() * 1000)
        revoked = []
        for record in self.lease_list():
            if record.grantor != self.actor:
                continue
            if record.granted_at_ms + record.ttl_seconds * 1000 <= now_ms:
                self.lease_revoke(record.id)
                revoked.append(record.id)
        return revoked

    # -- membership and cluster metadata ---------------------------------------------

    def bootstrap_member(self, name: str, peer_urls: Iterable[str] = (), client_urls: Iterable[str] = ()):
        """First-start registration: add this node to the members map and seed
        the cluster id. No-op when already present; consumes no revision."""
        view = _DocView(self.doc)
        root = ("members", str(self.actor))
        ops = []
        if view.get(root + ("name",)) is MISSING:
            ops.append(set_op(root + ("name",), name))
            ops.append(set_op(root + ("peer_urls",), json.dumps(sorted(peer_urls))))
            ops.append(set_op(root + ("client_urls",), json.dumps(sorted(client_urls))))
        if view.get(CLUSTER_ID_PATH) is MISSING:
            ops.append(set_op(CLUSTER_ID_PATH, self.cluster_id))
        if ops:
            self._commit(ops)

    def member_list(self) -> list[MemberRecord]:
        view = _DocView(self.doc)
        members = []
        for comp in view.children(("members",)):
            name = view.get(("members", comp, "name"))
            if name is MISSING:
                continue
            members.append(
                MemberRecord(
                    id=int(comp),
                    name=name,
                    peer_urls=json.loads(view.get(("members", comp, "peer_urls"), "[]")),
                    client_urls=json.loads(view.get(("members", comp, "client_urls"), "[]")),
                )
            )
        return sorted(members, key=lambda m: m.id)

    def cluster_meta(self) -> dict:
        meta = {
            "cluster_id": _DocView(self.doc).get(CLUSTER_ID_PATH, self.cluster_id),
            "mode": self.mode,
            "schema": self.schema,
        }
        if self.mode == "counter":
            meta["revision"] = self.current_revision()
        else:
            meta["heads"] = list(self.doc.heads)
        return meta

    # -- watch support -----------------------------------------------------------------

    def revs_of(self, key: bytes) -> list[tuple[int, bool]]:
        """Counter mode: (revision, is_tombstone) history of a key, ascending."""
        return [
            (rev, kind == "tombstone")
            for rev, kind, _ in self._counter_rev_entries(_DocView(self.doc), key, None)
        ]

    def value_bytes_at_rev(self, key: bytes, rev: int) -> bytes | None:
        """Counter mode: the key's winning value folded up to `rev` (None if deleted)."""
        folded = self._fold_counter(_DocView(self.doc), key, rev)
        return None if folded is None else self._value_bytes(folded[0])

    def value_bytes_at_frontier(self, key: bytes, frontier) -> bytes | None:
        """Hash mode: the key's value in the history addressed by `frontier`."""
        item = self.read_item(key, _DocView(self.doc, self.doc.frontier_vv(frontier)))
        return None if item is None else item.value
