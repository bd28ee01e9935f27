import hashlib
import itertools
import random

import pytest

from causal_kv import engine
from causal_kv.durability import ChangeLog
from causal_kv.engine import (
    Change,
    Document,
    HashMismatchError,
    MalformedChangeError,
    UnknownHashError,
    canonical_change_bytes,
    change_from_wire,
    change_to_wire,
    del_op,
    genesis_change,
    make_change,
    set_op,
    winner,
)

# Frozen oracle values: SHA-256 of the documented canonical bytes, computed with
# an external digest tool (sha256sum) over the exact byte strings asserted below.
GENESIS_COUNTER_HASH = "f846700673fad7afac7e95b2449cd5e516dda7d5f7a2d4de243bb6a7642e9944"
GENESIS_HASH_MODE_HASH = "6884f9fff9b7f86e15b93ecde05107c48344c248622b289fb5dee637bacb52d9"

FIXTURE_CANONICAL = (
    '{"actor":7,"deps":["f846700673fad7afac7e95b2449cd5e516dda7d5f7a2d4de243bb6a7642e9944"],'
    '"lamport":2,"ops":[{"action":"set","path":["cluster","revision"],"value":2},'
    '{"action":"set","path":["kvs","YQ==","revs","2"],"value":"MQ=="}],"seq":1}'
)
FIXTURE_SHA256 = "aafe8c4990fcba4551b5f2ad26bc8e5998fba4f4e3fcdbc06ba27eefa50bafbf"


from oracles import closure_walk, random_history, replay_oracle


# -- genesis ------------------------------------------------------------


def test_genesis_counter_canonical_bytes_and_hash():
    g = genesis_change("counter")
    raw = canonical_change_bytes(g.actor, g.seq, g.lamport, g.deps, g.ops)
    assert raw == (
        b'{"actor":0,"deps":[],"lamport":1,"ops":['
        b'{"action":"set","path":["kvs"],"value":null},'
        b'{"action":"set","path":["leases"],"value":null},'
        b'{"action":"set","path":["members"],"value":null},'
        b'{"action":"set","path":["cluster"],"value":null},'
        b'{"action":"set","path":["cluster","revision"],"value":1}],"seq":1}'
    )
    assert g.hash == GENESIS_COUNTER_HASH


def test_genesis_counter_sets_initial_revision():
    g = genesis_change("counter")
    assert set_op(("cluster", "revision"), 1) in g.ops


def test_genesis_hash_mode_has_no_revision_op():
    g = genesis_change("hash")
    assert all(op.path != ("cluster", "revision") for op in g.ops)
    assert g.hash == GENESIS_HASH_MODE_HASH


def test_genesis_is_deterministic():
    a, b = genesis_change("counter"), genesis_change("counter")
    assert canonical_change_bytes(a.actor, a.seq, a.lamport, a.deps, a.ops) == canonical_change_bytes(
        b.actor, b.seq, b.lamport, b.deps, b.ops
    )
    assert a.hash == b.hash
    assert genesis_change("hash").hash != a.hash


# -- canonical encoding / hashing ----------------------------------------


def test_fixture_change_matches_external_sha256_oracle():
    g = genesis_change("counter")
    c = make_change(
        actor=7,
        seq=1,
        lamport=2,
        deps=(g.hash,),
        ops=(set_op(("cluster", "revision"), 2), set_op(("kvs", "YQ==", "revs", "2"), "MQ==")),
    )
    raw = canonical_change_bytes(c.actor, c.seq, c.lamport, c.deps, c.ops)
    assert raw == FIXTURE_CANONICAL.encode("utf-8")
    assert c.hash == FIXTURE_SHA256
    assert hashlib.sha256(raw).hexdigest() == FIXTURE_SHA256


def test_wire_round_trip_preserves_hash():
    doc = Document.with_genesis("hash")
    c = doc.commit(3, [set_op(("kvs", "x"), "v"), del_op(("kvs", "y"))])
    parsed = change_from_wire(change_to_wire(c))
    assert parsed == c


def test_wire_rejects_tampered_change():
    doc = Document.with_genesis("hash")
    c = doc.commit(3, [set_op(("kvs", "x"), "v")])
    obj = change_to_wire(c)
    obj["ops"][0]["value"] = "tampered"
    with pytest.raises(HashMismatchError):
        change_from_wire(obj)


def test_wire_rejects_malformed_ops():
    with pytest.raises(MalformedChangeError):
        change_from_wire({"actor": 1, "seq": 1, "lamport": 2, "deps": ["ab"], "ops": [], "hash": "00"})
    with pytest.raises(MalformedChangeError):
        set_op((), 1)
    with pytest.raises(MalformedChangeError):
        set_op(("kvs", ""), 1)
    with pytest.raises(MalformedChangeError):
        set_op(("kvs", "x"), 1.5)


# -- commit ----------------------------------------------------------------


def test_first_commit_builds_on_genesis():
    doc = Document.with_genesis("counter")
    g_hash = doc.genesis_hash
    c = doc.commit(5, [set_op(("kvs", "a"), 1)])
    assert c.deps == (g_hash,)
    assert c.lamport == 2
    assert doc.heads == (c.hash,)


def test_sequential_commits_are_contiguous():
    doc = Document.with_genesis("counter")
    c1 = doc.commit(5, [set_op(("kvs", "a"), 1)])
    c2 = doc.commit(5, [set_op(("kvs", "a"), 2)])
    assert (c1.seq, c2.seq) == (1, 2)
    assert c2.deps == (c1.hash,)


def test_commit_rejects_empty_ops_and_actor_zero():
    doc = Document.with_genesis("counter")
    with pytest.raises(ValueError):
        doc.commit(5, [])
    with pytest.raises(ValueError):
        doc.commit(0, [set_op(("kvs", "a"), 1)])


# -- apply_remote -----------------------------------------------------------


def two_concurrent_docs():
    base = Document.with_genesis("hash")
    base.commit(1, [set_op(("kvs", "seed"), 0)])
    d1, d2 = Document.with_genesis("hash"), Document.with_genesis("hash")
    for c in base.missing_changes(d1.version_vector()):
        d1.apply_remote(c)
        d2.apply_remote(c)
    c1 = d1.commit(1, [set_op(("kvs", "a"), "one")])
    c2 = d2.commit(2, [set_op(("kvs", "a"), "two")])
    return d1, d2, c1, c2


def test_duplicate_apply_is_a_no_op():
    d1, d2, c1, _ = two_concurrent_docs()
    status, applied = d2.apply_remote(c1)
    assert status == "applied" and applied == [c1]
    before = d2.leaves_snapshot()
    status, applied = d2.apply_remote(c1)
    assert status == "duplicate" and applied == []
    assert d2.leaves_snapshot() == before


def test_concurrent_writes_converge_in_both_orders():
    d1, d2, c1, c2 = two_concurrent_docs()
    d1.apply_remote(c2)
    d2.apply_remote(c1)
    assert d1.leaves_snapshot() == d2.leaves_snapshot()
    assert d1.heads == d2.heads
    assert set(d1.heads) == {c1.hash, c2.hash}
    expected = replay_oracle(list(d1.changes.values()), d1.heads)
    assert d1.leaves_snapshot() == expected


def test_out_of_order_change_is_buffered_until_dep_arrives():
    d1 = Document.with_genesis("hash")
    c1 = d1.commit(1, [set_op(("kvs", "a"), 1)])
    c2 = d1.commit(1, [set_op(("kvs", "a"), 2)])

    d2 = Document.with_genesis("hash")
    status, applied = d2.apply_remote(c2)
    assert status == "buffered" and applied == []
    assert d2.pending_count() == 1
    assert d2.live_value(("kvs", "a")) is None

    status, applied = d2.apply_remote(c1)
    assert status == "applied"
    assert applied == [c1, c2]
    assert d2.pending_count() == 0
    assert d2.heads == (c2.hash,)
    assert d2.live_value(("kvs", "a")) == 2


def test_apply_remote_rejects_hash_mismatch():
    # a Change derives its hash, so no forged one can reach apply_remote
    d1 = Document.with_genesis("hash")
    c = d1.commit(1, [set_op(("kvs", "a"), 1)])
    with pytest.raises(TypeError):
        Change(actor=c.actor, seq=c.seq, lamport=c.lamport, deps=c.deps, ops=c.ops, hash="00" * 32)
    assert Change(actor=c.actor, seq=c.seq, lamport=c.lamport, deps=c.deps, ops=c.ops) == c


def count_hashing(monkeypatch):
    calls = []
    original = engine.canonical_change_bytes

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, "canonical_change_bytes", counted)
    return calls


def test_ingesting_a_peer_change_hashes_it_once(monkeypatch):
    src = Document.with_genesis("hash")
    wire = change_to_wire(src.commit(1, [set_op(("kvs", "a"), 1)]))
    doc = Document.with_genesis("hash")
    calls = count_hashing(monkeypatch)
    status, _ = doc.apply_remote(change_from_wire(wire))
    assert status == "applied"
    assert len(calls) == 1


def test_log_load_hashes_each_line_once(monkeypatch, tmp_path):
    src = Document.with_genesis("counter")
    for i in range(5):
        src.commit(1, [set_op(("kvs", "a"), i)])
    log = ChangeLog(tmp_path)
    for c in src.changes.values():
        log.append(c)
    log.close()
    calls = count_hashing(monkeypatch)
    loaded = ChangeLog(tmp_path).load()
    assert loaded.heads == src.heads
    assert len(calls) == len(src.changes) == 6


# -- winner rule -------------------------------------------------------------


def test_winner_prefers_higher_lamport():
    assert winner((3, "0a" * 32), (2, "ff" * 32)) == (3, "0a" * 32)


def test_winner_breaks_ties_by_hex():
    assert winner((3, "0a" * 32), (3, "ff" * 32)) == (3, "ff" * 32)


def test_winner_is_symmetric_over_random_stamps():
    rng = random.Random(42)
    for _ in range(1000):
        a = (rng.randint(1, 10), "%064x" % rng.getrandbits(256))
        b = (rng.randint(1, 10), "%064x" % rng.getrandbits(256))
        assert winner(a, b) == winner(b, a)
        assert winner(a, b) in (a, b)


# -- state_at ----------------------------------------------------------------


def test_state_at_current_heads_is_current_state():
    doc = Document.with_genesis("counter")
    doc.commit(1, [set_op(("kvs", "a"), 1)])
    doc.commit(1, [set_op(("kvs", "b"), 2), del_op(("kvs", "a"))])
    assert doc.state_at(doc.heads) == doc.leaves_snapshot()


def test_state_at_genesis_is_the_empty_top_level_maps():
    doc = Document.with_genesis("hash")
    doc.commit(1, [set_op(("kvs", "a"), 1)])
    snap = doc.state_at([doc.genesis_hash])
    assert snap == {("kvs",): None, ("leases",): None, ("members",): None, ("cluster",): None}


def test_state_at_historical_frontier():
    doc = Document.with_genesis("hash")
    c1 = doc.commit(1, [set_op(("kvs", "a"), 1)])
    doc.commit(1, [set_op(("kvs", "a"), 2)])
    snap = doc.state_at([c1.hash])
    assert snap[("kvs", "a")] == 1
    assert doc.live_value(("kvs", "a")) == 2
    assert snap == replay_oracle(list(doc.changes.values()), [c1.hash])


def test_state_at_unknown_hash_errors_with_the_hash():
    doc = Document.with_genesis("hash")
    with pytest.raises(UnknownHashError) as err:
        doc.state_at(["ab" * 32])
    assert err.value.digest == "ab" * 32


# -- missing_changes ----------------------------------------------------------


def test_missing_changes_equal_frontiers_is_empty():
    doc = Document.with_genesis("hash")
    doc.commit(1, [set_op(("kvs", "a"), 1)])
    assert doc.missing_changes(doc.version_vector()) == []


def test_missing_changes_from_genesis_returns_later_changes_in_topo_order():
    doc = Document.with_genesis("hash")
    commits = [doc.commit(1, [set_op(("kvs", "a"), i)]) for i in range(3)]
    missing = doc.missing_changes(doc.frontier_vv([doc.genesis_hash]))
    assert missing == commits
    fresh = Document.with_genesis("hash")
    for c in missing:
        status, _ = fresh.apply_remote(c)
        assert status == "applied"
    assert fresh.leaves_snapshot() == doc.leaves_snapshot()


def test_missing_changes_empty_frontier_returns_everything():
    doc = Document.with_genesis("hash")
    doc.commit(1, [set_op(("kvs", "a"), 1)])
    missing = doc.missing_changes({})
    assert [c.hash for c in missing] == list(doc.changes)
    assert missing[0].hash == doc.genesis_hash


def test_missing_changes_ignores_unknown_hashes():
    doc = Document.with_genesis("hash")
    doc.commit(1, [set_op(("kvs", "a"), 1)])
    assert len(doc.missing_changes(doc.frontier_vv(["ff" * 32]))) == 2


def test_missing_changes_agrees_with_closure_walk_on_random_frontiers():
    # the seq-vector fast path must match the literal graph definition
    for seed in range(20):
        changes = random_history(seed, max_changes=30, max_actors=4)
        doc = Document()
        for c in changes:
            doc.apply_remote(c)
        rng = random.Random(seed)
        stored = list(doc.changes)
        for _ in range(5):
            frontier = rng.sample(stored, k=rng.randint(1, min(4, len(stored))))
            closure = closure_walk(doc.changes, frontier)
            expected = sorted(
                (c for h, c in doc.changes.items() if h not in closure),
                key=lambda c: c.stamp,
            )
            assert doc.missing_changes(doc.frontier_vv(frontier)) == expected
            assert doc.state_at(frontier) == replay_oracle(changes, frontier)


def test_per_actor_seq_gaps_are_rejected():
    doc = Document.with_genesis("hash")
    c1 = doc.commit(1, [set_op(("kvs", "a"), 1)])
    gap = make_change(actor=1, seq=5, lamport=3, deps=(c1.hash,), ops=(set_op(("kvs", "a"), 2),))
    fresh = Document.with_genesis("hash")
    fresh.apply_remote(c1)
    with pytest.raises(MalformedChangeError):
        fresh.apply_remote(gap)


def test_reused_actor_seq_is_rejected():
    doc = Document.with_genesis("hash")
    doc.commit(1, [set_op(("kvs", "a"), 1)])
    fork = Document.with_genesis("hash").commit(1, [set_op(("kvs", "a"), 2)])
    with pytest.raises(MalformedChangeError):
        doc.apply_remote(fork)
    assert not doc.has_change(fork.hash)
    assert doc.version_vector() == {0: 1, 1: 1}
    assert len(doc.missing_changes({0: 1})) == 1


def test_malformed_buffered_change_is_dropped_when_released():
    src = Document.with_genesis("hash")
    dep = src.commit(2, [set_op(("kvs", "a"), 1)])
    bad = make_change(actor=3, seq=1, lamport=99, deps=(dep.hash,), ops=(set_op(("kvs", "b"), 2),))
    doc = Document.with_genesis("hash")
    assert doc.apply_remote(bad) == ("buffered", [])
    assert doc.apply_remote(dep) == ("applied", [dep])
    assert not doc.has_change(bad.hash)
    assert doc.pending_count() == 0


# -- whole-document properties ---------------------------------------------------


def assert_frontier_correct(doc):
    depended = {d for c in doc.changes.values() for d in c.deps}
    assert set(doc.heads) == {h for h in doc.changes if h not in depended}


def test_convergence_over_random_permutations():
    for seed in range(10):
        changes = random_history(seed)
        rng = random.Random(seed + 1000)
        snapshots = []
        for _ in range(2):
            order = changes[:]
            rng.shuffle(order)
            doc = Document()
            for c in order:
                doc.apply_remote(c)
            assert doc.pending_count() == 0
            assert_frontier_correct(doc)
            snapshots.append((doc.leaves_snapshot(), doc.heads))
        assert snapshots[0] == snapshots[1]
        oracle = replay_oracle(changes, snapshots[0][1])
        assert snapshots[0][0] == oracle


def test_lamport_monotone_along_dep_edges():
    changes = random_history(7)
    by_hash = {c.hash: c for c in changes}
    for c in changes:
        for d in c.deps:
            assert c.lamport > by_hash[d].lamport


def test_hash_integrity_of_stored_changes():
    changes = random_history(3)
    for c in changes:
        raw = canonical_change_bytes(c.actor, c.seq, c.lamport, c.deps, c.ops)
        assert hashlib.sha256(raw).hexdigest() == c.hash


def test_state_at_prefix_matches_independent_prefix_document():
    doc = Document.with_genesis("hash")
    hashes = [doc.genesis_hash]
    for i in range(5):
        hashes.append(doc.commit(1, [set_op(("kvs", "k"), i)]).hash)
    for i in range(1, len(hashes)):
        prefix_doc = Document()
        for h in hashes[:i + 1]:
            prefix_doc.apply_remote(doc.get_change(h))
        assert doc.state_at([hashes[i]]) == prefix_doc.leaves_snapshot()


def test_frontier_scan_on_a_thousand_change_document():
    # exhaustive heads check at the spec's stated scale
    doc = Document.with_genesis("hash")
    fork = Document.with_genesis("hash")
    for i in range(997):
        doc.commit(1, [set_op(("kvs", "k%d" % (i % 7)), i)])
    fork.commit(2, [set_op(("kvs", "other"), 1)])
    for c in fork.missing_changes(doc.version_vector()):
        doc.apply_remote(c)
    doc.commit(1, [set_op(("kvs", "merge"), True)])
    assert len(doc.changes) == 1000
    assert_frontier_correct(doc)
    for c in doc.changes.values():
        for d in c.deps:
            assert doc.changes[d].lamport < c.lamport


def test_same_leaf_permutations_exhaustive():
    # three concurrent writers to one leaf: all 6 application orders agree
    base = Document.with_genesis("hash")
    forks = []
    for actor in (1, 2, 3):
        d = Document.with_genesis("hash")
        forks.append(d.commit(actor, [set_op(("kvs", "a"), f"v{actor}")]))
    results = set()
    for order in itertools.permutations(forks):
        doc = Document.with_genesis("hash")
        for c in order:
            doc.apply_remote(c)
        results.add((doc.live_value(("kvs", "a")), doc.heads))
    assert len(results) == 1
