"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the engine's incremental machinery: the replay oracle
resolves every leaf by a global max over (lamport, hash, op position) instead of
folding changes in order, so agreement between the two is meaningful.
"""

import base64
import binascii
import random

from causal_kv.engine import Document, del_op, set_op
from causal_kv.kvstore import MISSING


def closure_walk(by_hash, frontier):
    """Hashes reachable from `frontier` along dep edges, `frontier` included."""
    closure = set()
    stack = list(frontier)
    while stack:
        digest = stack.pop()
        if digest in closure:
            continue
        closure.add(digest)
        stack.extend(by_hash[digest].deps)
    return closure


def replay_oracle(changes, frontier):
    """Leaves implied by the ancestor closure of `frontier`, by brute force."""
    by_hash = {c.hash: c for c in changes}
    best = {}
    for change in (by_hash[h] for h in closure_walk(by_hash, frontier)):
        for idx, op in enumerate(change.ops):
            rank = (change.lamport, change.hash, idx)
            if op.path not in best or rank > best[op.path][0]:
                best[op.path] = (rank, op)
    return {path: op.value for path, (_, op) in best.items() if op.action == "set"}


def random_history(seed, max_changes=20, max_actors=3, keys=("a", "b", "c", "d")):
    """A dependency-closed batch of changes built by replicas that commit
    independently and sync at random moments. Returns them in one valid order."""
    rng = random.Random(seed)
    n_actors = rng.randint(1, max_actors)
    n_changes = rng.randint(1, max_changes)
    docs = {a: Document.with_genesis("hash") for a in range(1, n_actors + 1)}
    for _ in range(n_changes):
        actor = rng.randint(1, n_actors)
        doc = docs[actor]
        ops = [set_op(("kvs", rng.choice(keys)), rng.randint(0, 99)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            ops.append(del_op(("kvs", rng.choice(keys))))
        doc.commit(actor, ops)
        if rng.random() < 0.5:
            other = docs[rng.randint(1, n_actors)]
            for c in doc.missing_changes(other.version_vector()):
                other.apply_remote(c)
            for c in other.missing_changes(doc.version_vector()):
                doc.apply_remote(c)
    union = Document.with_genesis("hash")
    for doc in docs.values():
        for c in doc.missing_changes(union.version_vector()):
            union.apply_remote(c)
    return list(union.changes.values())


class SnapView:
    """A leaf view over a flat {path: value} snapshot, such as replay_oracle's,
    for Store.read_item: every lookup scans the whole snapshot."""

    def __init__(self, snapshot):
        self._snap = snapshot

    def get(self, path, default=MISSING):
        return self._snap.get(path, default)

    def children(self, prefix):
        n = len(prefix)
        return sorted({p[n] for p in self._snap if len(p) > n and p[:n] == prefix})

    def subtree(self, prefix):
        n = len(prefix)
        for path in sorted(p for p in self._snap if p[:n] == prefix):
            yield path, self._snap[path]


def decoded_kv_keys(components):
    """Every kvs component that is canonical base64 decoded, sorted; the rest skipped."""
    keys = []
    for comp in components:
        try:
            key = base64.b64decode(comp.encode("ascii"), validate=True)
        except (UnicodeEncodeError, binascii.Error):
            continue
        if base64.b64encode(key).decode("ascii") == comp:  # padding bits are ignored by decoding
            keys.append(key)
    return sorted(keys)


def range_oracle(store, key, range_end, limit, view, max_rev=None):
    """Store.range by brute force: decode and sort every kvs component any
    stored change wrote, then read each key of [key, range_end) through `view`."""
    if range_end is None:
        keys = [key]
    else:
        written = {op.path[1] for c in store.doc.changes.values() for op in c.ops if op.path[0] == "kvs" and len(op.path) > 1}
        keys = [k for k in decoded_kv_keys(written) if k >= key and (range_end == b"\x00" or k < range_end)]
    items = [item for item in (store.read_item(k, view, max_rev) for k in keys) if item is not None]
    return [item.to_wire() for item in (items[:limit] if limit else items)]
