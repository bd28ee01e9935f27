"""Operation-based CRDT document: a hash-chained DAG of changes over a nested map.

A Change is the unit of replication: a batch of leaf operations plus the set of
frontier hashes it causally depends on. Changes are identified by the SHA-256 of
their canonical JSON encoding, so any two nodes that hold the same set of changes
hold byte-identical history. A Change derives its hash in its constructor, so no
Change carries a hash its content does not produce; the hash a peer or the log
claims is checked once, in change_from_wire. Concurrent writes to the same leaf
are resolved by a total order on (lamport, change hash); applying any
dependency-closed set of changes in any order converges to the same leaves and
heads.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable

GENESIS_ACTOR = 0
TOP_LEVEL_MAPS = ("kvs", "leases", "members", "cluster")

Path = tuple[str, ...]
Scalar = str | int | bool | None


class MalformedChangeError(ValueError):
    """Change fails structural validation (bad types, empty path, bad lamport)."""


class HashMismatchError(ValueError):
    """Claimed change hash does not match the canonical encoding."""


class UnknownHashError(KeyError):
    """A referenced change hash is not stored in this document."""

    def __init__(self, digest: str):
        super().__init__(digest)
        self.digest = digest

    def __str__(self) -> str:
        return f"unknown change hash {self.digest}"


class _Deleted:
    """Marker for a leaf removed by a del op; keeps the winning stamp in place."""

    def __repr__(self) -> str:
        return "<deleted>"


DELETED = _Deleted()


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json_bytes(obj) -> bytes:
    """Canonical JSON: sorted keys, no insignificant whitespace, minimal escaping, UTF-8."""
    return _CANONICAL.encode(obj).encode("utf-8")


def decode_kv_key(component: str) -> bytes | None:
    """The key a `kvs` path component names: canonical base64 only, since decoding
    ignores non-zero padding bits and "YR==" would name b"a" a second time."""
    try:
        key = base64.b64decode(component.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error):
        return None
    return key if base64.b64encode(key).decode("ascii") == component else None


def _check_scalar(value) -> None:
    if value is not None and not isinstance(value, (str, int, bool)):
        raise MalformedChangeError(f"leaf value must be a scalar, got {type(value).__name__}")


@dataclass(frozen=True)
class LeafOp:
    """One mutation of a single leaf in the nested map: set a scalar or delete it."""

    action: str  # "set" | "del"
    path: Path
    value: Scalar = None  # present only for "set"

    def __post_init__(self):
        if self.action not in ("set", "del"):
            raise MalformedChangeError(f"unknown op action {self.action!r}")
        if not self.path or any(not isinstance(c, str) or not c for c in self.path):
            raise MalformedChangeError("op path must be a non-empty sequence of non-empty strings")
        if self.action == "del" and self.value is not None:
            raise MalformedChangeError("del op carries no value")
        if self.action == "set":
            _check_scalar(self.value)

    def to_wire(self) -> dict:
        obj = {"action": self.action, "path": list(self.path)}
        if self.action == "set":
            obj["value"] = self.value
        return obj

    @classmethod
    def from_wire(cls, obj) -> "LeafOp":
        if not isinstance(obj, dict) or not isinstance(obj.get("path"), list):
            raise MalformedChangeError("op must be an object with a path list")
        return cls(action=obj.get("action"), path=tuple(obj["path"]), value=obj.get("value"))


def set_op(path: Iterable[str], value) -> LeafOp:
    return LeafOp("set", tuple(path), value)


def del_op(path: Iterable[str]) -> LeafOp:
    return LeafOp("del", tuple(path))


@dataclass(frozen=True)
class Change:
    """A hash-identified batch of leaf ops linked to its dependency frontier."""

    actor: int
    seq: int
    lamport: int
    deps: tuple[str, ...]  # ascending lowercase hex
    ops: tuple[LeafOp, ...]
    hash: str = field(init=False)  # lowercase hex SHA-256 of the canonical encoding

    def __post_init__(self):
        raw = canonical_change_bytes(self.actor, self.seq, self.lamport, self.deps, self.ops)
        object.__setattr__(self, "hash", hashlib.sha256(raw).hexdigest())

    @property
    def stamp(self) -> tuple[int, str]:
        return (self.lamport, self.hash)


def canonical_change_bytes(actor: int, seq: int, lamport: int, deps, ops) -> bytes:
    """The exact bytes that are hashed: the change object without its hash field."""
    obj = {
        "actor": actor,
        "seq": seq,
        "lamport": lamport,
        "deps": sorted(deps),
        "ops": [op.to_wire() for op in ops],
    }
    return canonical_json_bytes(obj)


def make_change(actor: int, seq: int, lamport: int, deps, ops) -> Change:
    """Build a Change with sorted deps and at least one op."""
    ops = tuple(ops)
    if not ops:
        raise MalformedChangeError("a change must carry at least one op")
    return Change(actor=actor, seq=seq, lamport=lamport, deps=tuple(sorted(deps)), ops=ops)


def change_to_wire(change: Change) -> dict:
    """Wire/log form: the canonical object plus the derived hash field."""
    obj = {
        "actor": change.actor,
        "seq": change.seq,
        "lamport": change.lamport,
        "deps": list(change.deps),
        "ops": [op.to_wire() for op in change.ops],
        "hash": change.hash,
    }
    return obj


def change_from_wire(obj) -> Change:
    """Parse and hash-verify a change received over the wire or from disk."""
    if not isinstance(obj, dict):
        raise MalformedChangeError("change must be a JSON object")
    try:
        actor = obj["actor"]
        seq = obj["seq"]
        lamport = obj["lamport"]
        deps = obj["deps"]
        ops = obj["ops"]
        claimed = obj["hash"]
    except KeyError as exc:
        raise MalformedChangeError(f"change missing field {exc}") from exc
    for name, val in (("actor", actor), ("seq", seq), ("lamport", lamport)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise MalformedChangeError(f"{name} must be a non-negative integer")
    if seq < 1 or lamport < 1:
        raise MalformedChangeError("seq and lamport are 1-based")
    if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
        raise MalformedChangeError("deps must be a list of hex strings")
    if not isinstance(ops, list):
        raise MalformedChangeError("ops must be a list")
    change = make_change(actor, seq, lamport, deps, [LeafOp.from_wire(o) for o in ops])
    if change.hash != claimed:
        raise HashMismatchError(f"claimed hash {claimed} but canonical encoding hashes to {change.hash}")
    return change


def genesis_change(mode: str) -> Change:
    """The deterministic initial change every node starts from.

    Creates the four top-level map markers; in counter mode it also seeds the
    global revision at 1 so all nodes agree on the first assignable revision.
    """
    ops = [set_op((name,), None) for name in TOP_LEVEL_MAPS]
    if mode == "counter":
        ops.append(set_op(("cluster", "revision"), 1))
    elif mode != "hash":
        raise ValueError(f"unknown revision mode {mode!r}")
    return make_change(actor=GENESIS_ACTOR, seq=1, lamport=1, deps=(), ops=ops)


def winner(a: tuple[int, str], b: tuple[int, str]) -> tuple[int, str]:
    """Pick the winning (lamport, hash) stamp: greater lamport, ties by greater hex hash."""
    return a if a >= b else b


@dataclass(slots=True)
class Leaf:
    """One change's write to one leaf path."""

    value: object  # scalar or DELETED
    lamport: int
    source: str  # hash of the change that wrote this value


def _leaf_stamp(leaf: Leaf) -> tuple[int, str]:
    return (leaf.lamport, leaf.source)


class Document:
    """Materialized CRDT state plus the full store of applied changes.

    Single-threaded by design: callers serialize access through one owner.
    """

    def __init__(self):
        self.changes: dict[str, Change] = {}  # insertion order == application order
        self.heads: tuple[str, ...] = ()
        self._pending: dict[str, list[Change]] = {}  # missing dep hash -> waiting changes
        self._pending_hashes: set[str] = set()
        # leaf path -> every stored change's write to it, ascending by stamp, so
        # the last entry is the current winner and a frontier's winner is the
        # last entry whose change the frontier's version vector covers
        self._writes: dict[Path, list[Leaf]] = {}
        self._children: dict[Path, list[str]] = {}  # interior path -> sorted child components
        # decoded kvs keys, ascending; components that are not canonical base64 are left out
        self.kv_keys: list[bytes] = []
        # per-change version vector: actor -> greatest seq in the change's closure;
        # valid because each change depends on its actor's previous change
        self._vv: dict[str, dict[int, int]] = {}
        # each actor's changes form a chain, so _by_actor[a][:n] holds seqs 1..n
        self._by_actor: dict[int, list[Change]] = {}

    # -- queries ------------------------------------------------------------

    def has_change(self, digest: str) -> bool:
        return digest in self.changes

    def get_change(self, digest: str) -> Change:
        try:
            return self.changes[digest]
        except KeyError:
            raise UnknownHashError(digest) from None

    @property
    def genesis_hash(self) -> str:
        return next(iter(self.changes))

    def next_seq(self, actor: int) -> int:
        return len(self._by_actor.get(actor, ())) + 1

    def pending_count(self) -> int:
        return len(self._pending_hashes)

    def leaf(self, path: Path, vv: dict[int, int] | None = None) -> Leaf | None:
        """The winning write to `path`; with `vv`, among the changes it covers."""
        writes = self._writes.get(path)
        if not writes:
            return None
        if vv is None:
            return writes[-1]
        for leaf in reversed(writes):
            change = self.changes[leaf.source]
            if change.seq <= vv.get(change.actor, 0):
                return leaf
        return None

    def live_value(self, path: Path):
        entry = self.leaf(path)
        if entry is None or entry.value is DELETED:
            return None
        return entry.value

    def leaves_snapshot(self) -> dict[Path, object]:
        """Current live leaves (deleted markers excluded)."""
        return {p: w[-1].value for p, w in self._writes.items() if w[-1].value is not DELETED}

    def children(self, prefix: Path) -> list[str]:
        """Sorted child components ever written under `prefix` (may include dead
        subtrees). The list is the index itself: callers must not modify it."""
        return self._children.get(prefix, [])

    def iter_subtree(self, prefix: Path = (), vv: dict[int, int] | None = None):
        """Yield (path, value) for live leaves at or under `prefix`, in sorted path
        order; with `vv`, as of the changes that version vector covers."""
        leaf = self.leaf(prefix, vv)
        if leaf is not None and leaf.value is not DELETED and prefix:
            yield prefix, leaf.value
        for component in self.children(prefix):
            yield from self.iter_subtree(prefix + (component,), vv)

    # -- mutation -----------------------------------------------------------

    def commit(self, actor: int, ops: Iterable[LeafOp]) -> Change:
        """Create and apply a local change on top of the current frontier."""
        ops = tuple(ops)
        if actor == GENESIS_ACTOR:
            raise ValueError("actor 0 is reserved for the genesis change")
        if not ops:
            raise ValueError("nothing to commit: ops is empty")
        if not self.changes:
            raise ValueError("document has no genesis change")
        lamport = 1 + max(self.changes[h].lamport for h in self.heads)
        change = make_change(actor, self.next_seq(actor), lamport, self.heads, ops)
        self._store(change)
        return change

    def apply_remote(self, change: Change) -> tuple[str, list[Change]]:
        """Integrate a change from elsewhere.

        Returns (status, applied): status is "applied", "buffered" or "duplicate";
        applied lists every change integrated by this call, in application order
        (the change itself plus any buffered changes it unblocked).
        """
        if change.hash in self.changes:
            return "duplicate", []
        self._validate_shape(change)
        if change.hash in self._pending_hashes:
            return "buffered", []
        missing = [d for d in change.deps if d not in self.changes]
        if missing:
            self._buffer(change, missing[0])
            return "buffered", []
        applied = [change]
        self._store(change)
        applied.extend(self._drain_pending(change.hash))
        return "applied", applied

    def _validate_shape(self, change: Change) -> None:
        if not change.deps:
            if (change.actor, change.seq, change.lamport) != (GENESIS_ACTOR, 1, 1):
                raise MalformedChangeError("only the genesis change may have empty deps")
        elif change.actor == GENESIS_ACTOR:
            raise MalformedChangeError("actor 0 is reserved for genesis")

    def _buffer(self, change: Change, missing_dep: str) -> None:
        self._pending.setdefault(missing_dep, []).append(change)
        self._pending_hashes.add(change.hash)

    def _drain_pending(self, arrived: str) -> list[Change]:
        applied = []
        queue = [arrived]
        while queue:
            digest = queue.pop(0)
            for waiter in self._pending.pop(digest, []):
                self._pending_hashes.discard(waiter.hash)
                if waiter.hash in self.changes:
                    continue
                still_missing = [d for d in waiter.deps if d not in self.changes]
                if still_missing:
                    self._buffer(waiter, still_missing[0])
                    continue
                try:
                    self._store(waiter)
                except MalformedChangeError:
                    continue  # drop it; raising would hide what this call already stored
                applied.append(waiter)
                queue.append(waiter.hash)
        return applied

    def _store(self, change: Change) -> None:
        if change.deps:
            expected = 1 + max(self.changes[d].lamport for d in change.deps)
            if change.lamport != expected:
                raise MalformedChangeError(
                    f"change {change.hash} lamport {change.lamport}, deps imply {expected}"
                )
        vv: dict[int, int] = {}
        for dep in change.deps:
            for actor, seq in self._vv[dep].items():
                if seq > vv.get(actor, 0):
                    vv[actor] = seq
        if vv.get(change.actor, 0) != change.seq - 1:
            raise MalformedChangeError(
                f"change {change.hash} has seq {change.seq} but its closure reaches "
                f"seq {vv.get(change.actor, 0)} for actor {change.actor}"
            )
        if change.seq <= len(self._by_actor.get(change.actor, ())):
            raise MalformedChangeError(
                f"change {change.hash} reuses seq {change.seq} of actor {change.actor}"
            )
        vv[change.actor] = change.seq
        self._vv[change.hash] = vv
        self.changes[change.hash] = change
        self._by_actor.setdefault(change.actor, []).append(change)
        # a later op on the same path within one change overrides an earlier one
        for path, op in {op.path: op for op in change.ops}.items():
            leaf = Leaf(op.value if op.action == "set" else DELETED, change.lamport, change.hash)
            writes = self._writes.get(path)
            if writes is None:
                self._writes[path] = [leaf]
                self._index_path(path)
            elif _leaf_stamp(leaf) > _leaf_stamp(writes[-1]):
                writes.append(leaf)  # the usual case: local commits always land here
            else:
                insort(writes, leaf, key=_leaf_stamp)
        self.heads = tuple(sorted((set(self.heads) - set(change.deps)) | {change.hash}))

    def _index_path(self, path: Path) -> None:
        """Enter a first-written path's components into the children and key indexes."""
        for depth in range(len(path) - 1, -1, -1):
            siblings = self._children.setdefault(path[:depth], [])
            i = bisect_left(siblings, path[depth])
            if i < len(siblings) and siblings[i] == path[depth]:
                return  # the shallower prefixes were indexed with this one
            siblings.insert(i, path[depth])
            if depth == 1 and path[0] == "kvs" and (key := decode_kv_key(path[1])) is not None:
                insort(self.kv_keys, key)

    # -- history ------------------------------------------------------------

    def state_at(self, frontier: Iterable[str]) -> dict[Path, object]:
        """Live leaves of exactly the ancestor closure of `frontier`.

        The closure is each actor chain's prefix up to the frontier's version
        vector, so each leaf takes its greatest-stamp write from that closure.
        """
        frontier = list(frontier)
        for digest in frontier:
            if digest not in self.changes:
                raise UnknownHashError(digest)
        vv = self.frontier_vv(frontier)
        snapshot = {}
        for path in self._writes:
            leaf = self.leaf(path, vv)
            if leaf is not None and leaf.value is not DELETED:
                snapshot[path] = leaf.value
        return snapshot

    def frontier_vv(self, heads: Iterable[str]) -> dict[int, int]:
        """Per-actor greatest seq in the closure of the known subset of `heads`."""
        vv: dict[int, int] = {}
        for digest in heads:
            for actor, seq in self._vv.get(digest, {}).items():
                if seq > vv.get(actor, 0):
                    vv[actor] = seq
        return vv

    def version_vector(self) -> dict[int, int]:
        """Per-actor greatest stored seq: names exactly the changes this document holds."""
        return {actor: len(ordered) for actor, ordered in self._by_actor.items()}

    def missing_changes(self, their_vv: dict[int, int]) -> list[Change]:
        """Stored changes a holder of version vector `their_vv` lacks.

        Topologically ordered, dependencies first. An empty vector yields the
        whole history; use frontier_vv to ask relative to a set of heads.
        """
        wanted = [
            change
            for actor, ordered in self._by_actor.items()
            for change in ordered[their_vv.get(actor, 0):]
        ]
        wanted.sort(key=lambda c: c.stamp)
        return wanted

    @classmethod
    def with_genesis(cls, mode: str) -> "Document":
        doc = cls()
        doc.apply_remote(genesis_change(mode))
        return doc
