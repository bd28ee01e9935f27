import json

import pytest

from causal_kv.engine import Document, canonical_json_bytes
from causal_kv.kvstore import (
    ApiError,
    Store,
    b64e,
    diff_json,
    flatten_json,
    parse_json_value,
    unflatten_json,
)


def make_store(mode="counter", schema="bytes", member_id=1, clock=None):
    return Store(Document.with_genesis(mode), mode, schema, member_id, clock=clock or (lambda: 100.0))


def sync(a: Store, b: Store):
    for c in a.doc.missing_changes(b.doc.version_vector()):
        b.doc.apply_remote(c)
    for c in b.doc.missing_changes(a.doc.version_vector()):
        a.doc.apply_remote(c)


def jput(store, key, obj, **kw):
    return store.put(key, json.dumps(obj).encode(), **kw)


# -- put / range, counter mode ------------------------------------------------


def test_first_put_gets_revision_two():
    store = make_store()
    header, _ = store.put(b"a", b"1")
    assert header["revision"] == 2


def test_put_again_bumps_version_not_create_revision():
    store = make_store()
    store.put(b"a", b"1")
    store.put(b"a", b"2")
    _, items = store.range(b"a")
    item = items[0]
    assert item.value == b"2"
    assert item.create_revision == 2
    assert item.mod_revision == 3
    assert item.version == 2


def test_revisions_are_a_strict_plus_one_sequence():
    store = make_store()
    revisions = [store.put(b"k%d" % i, b"v")[0]["revision"] for i in range(5)]
    assert revisions == [2, 3, 4, 5, 6]


def test_get_absent_key_is_ok_and_empty():
    store = make_store()
    header, items = store.range(b"nope")
    assert items == []
    assert header["revision"] == 1


def test_range_interval_and_limit():
    store = make_store()
    for k in (b"a", b"b", b"c", b"d"):
        store.put(k, b"v" + k)
    _, items = store.range(b"a", b"c")
    assert [i.key for i in items] == [b"a", b"b"]
    _, items = store.range(b"a", b"\x00", limit=3)
    assert [i.key for i in items] == [b"a", b"b", b"c"]
    _, items = store.range(b"a", b"\x00", limit=0)  # 0 means unlimited
    assert len(items) == 4


@pytest.mark.parametrize("limit", [-1, True, 2.5, "2"])
def test_range_rejects_a_limit_that_is_not_a_non_negative_int(limit):
    store = make_store()
    for k in (b"a", b"b", b"c", b"d"):
        store.put(k, b"v" + k)
    with pytest.raises(ApiError) as err:
        store.range(b"a", b"\x00", limit=limit)
    assert err.value.code == "malformed"


def test_historical_read_at_old_revision():
    store = make_store()
    store.put(b"a", b"old")  # rev 2
    store.put(b"a", b"new")  # rev 3
    _, items = store.range(b"a", at=2)
    assert items[0].value == b"old"
    assert items[0].mod_revision == 2


def test_read_at_future_revision_errors():
    store = make_store()
    store.put(b"a", b"1")
    with pytest.raises(ApiError) as err:
        store.range(b"a", at=99)
    assert err.value.code == "future_revision"


def test_delete_then_read_at_old_revision_still_sees_value():
    store = make_store()
    store.put(b"a", b"1")  # rev 2
    _, deleted = store.delete_range(b"a")  # rev 3
    assert deleted == 1
    _, items = store.range(b"a")
    assert items == []
    _, items = store.range(b"a", at=2)
    assert items[0].value == b"1"


def test_delete_absent_key_deletes_nothing_and_keeps_revision():
    store = make_store()
    header_before = store.header()
    header, deleted = store.delete_range(b"ghost")
    assert deleted == 0
    assert header["revision"] == header_before["revision"]


def test_recreate_resets_version_and_create_revision():
    store = make_store()
    store.put(b"a", b"1")  # rev 2
    store.delete_range(b"a")  # rev 3
    store.put(b"a", b"2")  # rev 4
    _, items = store.range(b"a")
    assert items[0].create_revision == 4
    assert items[0].version == 1


# -- hash mode -------------------------------------------------------------------


def test_hash_mode_headers_carry_frontier_heads():
    store = make_store(mode="hash")
    header, _ = store.put(b"a", b"1")
    assert header["heads"] == list(store.doc.heads)
    assert len(header["heads"]) == 1
    assert "revision" not in header


def test_hash_mode_every_put_moves_the_frontier():
    store = make_store(mode="hash")
    heads = [tuple(store.put(b"a", b"v%d" % i)[0]["heads"]) for i in range(4)]
    assert len(set(heads)) == 4


def test_hash_mode_historical_read_at_frontier():
    store = make_store(mode="hash")
    h1 = store.put(b"a", b"one")[0]["heads"]
    store.put(b"a", b"two")
    _, items = store.range(b"a", at=h1)
    assert items[0].value == b"one"
    _, items = store.range(b"a")
    assert items[0].value == b"two"


def test_hash_mode_unknown_frontier_errors():
    store = make_store(mode="hash")
    with pytest.raises(ApiError) as err:
        store.range(b"a", at=["ab" * 32])
    assert err.value.code == "unknown_hash"


def test_hash_mode_delete_removes_entry_but_history_survives():
    store = make_store(mode="hash")
    pre_delete = store.put(b"a", b"1")[0]["heads"]
    store.delete_range(b"a")
    _, items = store.range(b"a")
    assert items == []
    _, items = store.range(b"a", at=pre_delete)
    assert items[0].value == b"1"


def test_counter_metadata_absent_in_hash_mode():
    store = make_store(mode="hash")
    store.put(b"a", b"1")
    _, items = store.range(b"a")
    assert items[0].create_revision is None
    assert items[0].mod_revision is None
    assert "revision" not in store.cluster_meta()
    assert "heads" in store.cluster_meta()


# -- concurrent-revision conflict (counter) ------------------------------------------


def fig2_scenario():
    s1 = make_store(member_id=1)
    s2 = make_store(member_id=2)
    s1.put(b"a", b"1")  # revision 2 at S1
    sync(s1, s2)
    h1, _ = s1.put(b"a", b"2")  # both assign revision 3 concurrently
    h2, _ = s2.put(b"a", b"3")
    sync(s1, s2)
    return s1, s2, h1, h2


def test_concurrent_puts_assign_the_same_revision_then_converge():
    s1, s2, h1, h2 = fig2_scenario()
    assert h1["revision"] == 3 and h2["revision"] == 3
    _, items1 = s1.range(b"a")
    _, items2 = s2.range(b"a")
    assert items1[0].mod_revision == 3 and items2[0].mod_revision == 3
    assert items1[0].value == items2[0].value
    assert items1[0].value in (b"2", b"3")


def test_revision_resumes_past_the_conflict():
    s1, s2, _, _ = fig2_scenario()
    assert s1.put(b"b", b"x")[0]["revision"] == 4
    assert s2.put(b"c", b"y")[0]["revision"] == 4


# -- json schema -------------------------------------------------------------------


def test_json_put_requires_an_object():
    store = make_store(schema="json")
    for bad in (b"not json", b"[1,2]", b"3", b"{}", b'{"a": 1.5}', b'{"a": []}'):
        with pytest.raises(ApiError) as err:
            store.put(b"k", bad)
        assert err.value.code == "malformed"


def test_json_single_field_update_touches_one_leaf():
    store = make_store(mode="hash", schema="json")
    jput(store, b"deploy", {"image": "becorp/nginx", "replicas": 2})
    before = len(store.doc.changes)
    jput(store, b"deploy", {"image": "becorp/nginx", "replicas": 3})
    change = list(store.doc.changes.values())[-1]
    assert len(store.doc.changes) == before + 1
    assert len(change.ops) == 1
    assert change.ops[0].path[-1] == "replicas"
    assert change.ops[0].value == 3


def test_json_read_returns_canonical_bytes():
    store = make_store(mode="hash", schema="json")
    jput(store, b"k", {"b": 2, "a": 1})
    _, items = store.range(b"k")
    assert items[0].value == b'{"a":1,"b":2}'


def test_json_nested_fields_round_trip():
    store = make_store(mode="hash", schema="json")
    obj = {"meta": {"owner": "me", "tags": {"env": "prod"}}, "n": 5}
    jput(store, b"k", obj)
    _, items = store.range(b"k")
    assert json.loads(items[0].value) == obj


def test_json_field_removal():
    store = make_store(mode="hash", schema="json")
    jput(store, b"k", {"a": 1, "b": 2})
    jput(store, b"k", {"a": 1})
    _, items = store.range(b"k")
    assert json.loads(items[0].value) == {"a": 1}


def test_json_counter_mode_history_folds_overlays():
    store = make_store(mode="counter", schema="json")
    jput(store, b"k", {"a": 1, "b": 2})  # rev 2
    jput(store, b"k", {"a": 1, "b": 9})  # rev 3, only b changes
    last = list(store.doc.changes.values())[-1]
    value_ops = [op for op in last.ops if op.path[:1] == ("kvs",)]
    assert len(value_ops) == 1, "single-field update writes one value leaf"
    _, items = store.range(b"k", at=2)
    assert json.loads(items[0].value) == {"a": 1, "b": 2}
    _, items = store.range(b"k")
    assert json.loads(items[0].value) == {"a": 1, "b": 9}
    assert items[0].version == 2


def test_json_concurrent_disjoint_field_edits_both_survive():
    for mode in ("counter", "hash"):
        s1 = Store(Document.with_genesis(mode), mode, "json", 1)
        s2 = Store(Document.with_genesis(mode), mode, "json", 2)
        jput(s1, b"deploy", {"image": "becorp/nginx", "replicas": 2})
        sync(s1, s2)
        jput(s1, b"deploy", {"image": "becorp/nginx", "replicas": 3})
        jput(s2, b"deploy", {"image": "docker/nginx", "replicas": 2})
        sync(s1, s2)
        for s in (s1, s2):
            _, items = s.range(b"deploy")
            assert json.loads(items[0].value) == {"image": "docker/nginx", "replicas": 3}, mode


def test_json_same_field_conflict_converges_to_one_value():
    s1 = make_store(mode="hash", schema="json", member_id=1)
    s2 = Store(Document.with_genesis("hash"), "hash", "json", 2)
    jput(s1, b"deploy", {"replicas": 2})
    sync(s1, s2)
    jput(s1, b"deploy", {"replicas": 3})
    jput(s2, b"deploy", {"replicas": 5})
    sync(s1, s2)
    v1 = json.loads(s1.range(b"deploy")[1][0].value)
    v2 = json.loads(s2.range(b"deploy")[1][0].value)
    assert v1 == v2
    assert v1["replicas"] in (3, 5)


def test_bytes_schema_whole_value_conflict_is_last_writer_wins():
    s1 = make_store(mode="hash", schema="bytes", member_id=1)
    s2 = Store(Document.with_genesis("hash"), "hash", "bytes", 2)
    s1.put(b"deploy", b'{"image": "becorp/nginx", "replicas": 2}')
    sync(s1, s2)
    s1.put(b"deploy", b'{"image": "becorp/nginx", "replicas": 3}')
    s2.put(b"deploy", b'{"image": "docker/nginx", "replicas": 2}')
    sync(s1, s2)
    v1 = s1.range(b"deploy")[1][0].value
    v2 = s2.range(b"deploy")[1][0].value
    assert v1 == v2
    assert v1 in (b'{"image": "becorp/nginx", "replicas": 3}', b'{"image": "docker/nginx", "replicas": 2}')


def test_json_concurrent_type_conflict_renders_identically_everywhere():
    # one writer turns a scalar field into an object while the other rewrites
    # the scalar: after merging, both nodes must render the same bytes
    s1 = Store(Document.with_genesis("hash"), "hash", "json", 1)
    s2 = Store(Document.with_genesis("hash"), "hash", "json", 2)
    jput(s1, b"k", {"a": 0})
    sync(s1, s2)
    jput(s1, b"k", {"a": 1})
    jput(s2, b"k", {"a": {"b": 2}})
    sync(s1, s2)
    v1 = s1.range(b"k")[1][0].value
    v2 = s2.range(b"k")[1][0].value
    assert v1 == v2


def test_flatten_diff_helpers():
    old = flatten_json({"a": {"b": 1}, "c": 2})
    new = flatten_json({"a": {"b": 1, "x": True}, "d": None})
    changed, removed = diff_json(old, new)
    assert dict(changed) == {("a", "x"): True, ("d",): None}
    assert set(removed) == {("c",)}
    assert unflatten_json(new) == {"a": {"b": 1, "x": True}, "d": None}
    assert parse_json_value(canonical_json_bytes({"a": 1})) == {"a": 1}


# -- transactions ----------------------------------------------------------------


def test_txn_empty_compares_run_success_branch():
    store = make_store()
    _, succeeded, responses = store.txn([], [{"op": "put", "key": b"a", "value": b"1"}], [])
    assert succeeded is True
    assert responses == [{"op": "put"}]
    assert store.range(b"a")[1][0].value == b"1"


def test_txn_failed_compare_runs_failure_branch():
    store = make_store()
    store.put(b"a", b"2")
    _, succeeded, _ = store.txn(
        [{"key": b"a", "target": "value", "value": b"1"}],
        [{"op": "put", "key": b"win", "value": b"1"}],
        [{"op": "put", "key": b"lose", "value": b"1"}],
    )
    assert succeeded is False
    assert store.range(b"win")[1] == []
    assert store.range(b"lose")[1] != []


def test_txn_multi_put_is_one_change_and_one_revision():
    store = make_store()
    heads_before = store.doc.heads
    changes_before = len(store.doc.changes)
    header, succeeded, _ = store.txn(
        [],
        [
            {"op": "put", "key": b"x", "value": b"1"},
            {"op": "put", "key": b"y", "value": b"2"},
            {"op": "put", "key": b"z", "value": b"3"},
        ],
        [],
    )
    assert succeeded
    assert len(store.doc.changes) == changes_before + 1
    assert len(store.doc.heads) == 1
    assert store.doc.heads != heads_before
    assert header["revision"] == 2
    for key in (b"x", b"y", b"z"):
        assert store.range(key)[1][0].mod_revision == 2


def test_txn_mod_revision_and_version_compares_counter_only():
    store = make_store()
    store.put(b"a", b"1")
    _, succeeded, _ = store.txn(
        [{"key": b"a", "target": "mod_revision", "value": 2}, {"key": b"a", "target": "version", "value": 1}],
        [{"op": "range", "key": b"a"}],
        [],
    )
    assert succeeded
    hstore = make_store(mode="hash")
    hstore.put(b"a", b"1")
    with pytest.raises(ApiError) as err:
        hstore.txn([{"key": b"a", "target": "version", "value": 1}], [], [])
    assert err.value.code == "mode_unsupported"


def test_txn_rejects_nested_txn():
    store = make_store()
    with pytest.raises(ApiError) as err:
        store.txn([], [{"op": "txn"}], [])
    assert err.value.code == "malformed"


def test_txn_with_only_reads_commits_nothing():
    store = make_store()
    store.put(b"a", b"1")
    n = len(store.doc.changes)
    header, succeeded, responses = store.txn([], [{"op": "range", "key": b"a"}], [])
    assert succeeded and responses[0]["count"] == 1
    assert len(store.doc.changes) == n
    assert header["revision"] == 2


# -- leases ---------------------------------------------------------------------


def test_lease_grant_attach_revoke_deletes_key():
    store = make_store()
    lease = store.lease_grant(5)
    store.put(b"a", b"1", lease=lease)
    store.lease_revoke(lease)
    assert store.range(b"a")[1] == []
    with pytest.raises(ApiError) as err:
        store.lease_revoke(lease)
    assert err.value.code == "unknown_lease"


def test_put_with_unknown_lease_fails():
    store = make_store()
    with pytest.raises(ApiError) as err:
        store.put(b"a", b"1", lease=42)
    assert err.value.code == "unknown_lease"


def test_lease_revoke_two_keys_is_one_change():
    store = make_store()
    lease = store.lease_grant(5, lease_id=7)
    store.put(b"a", b"1", lease=lease)
    store.put(b"b", b"2", lease=lease)
    n = len(store.doc.changes)
    store.lease_revoke(lease)
    assert len(store.doc.changes) == n + 1
    assert len(store.doc.heads) == 1
    assert store.range(b"a", b"\x00")[1] == []


def test_lease_expiry_scan_matches_revoke():
    now = {"t": 100.0}
    store = make_store(clock=lambda: now["t"])
    lease = store.lease_grant(5)
    store.put(b"a", b"1", lease=lease)
    assert store.lease_expire_scan() == []
    now["t"] = 104.9
    assert store.lease_expire_scan() == []
    now["t"] = 105.0
    assert store.lease_expire_scan() == [lease]
    assert store.range(b"a")[1] == []


def test_lease_expiry_only_enforced_by_grantor():
    clock = lambda: 1000.0
    s1 = Store(Document.with_genesis("counter"), "counter", "bytes", 1, clock=clock)
    s2 = Store(Document.with_genesis("counter"), "counter", "bytes", 2, clock=clock)
    lease = s1.lease_grant(1)
    s1.put(b"a", b"1", lease=lease)
    sync(s1, s2)
    assert s2.lease_expire_scan(now_ms=10**9) == []  # not the grantor
    assert s1.lease_expire_scan(now_ms=10**9) == [lease]
    sync(s1, s2)
    assert s2.range(b"a")[1] == []  # expiry observed via the replicated revoke


# -- members and cluster metadata ---------------------------------------------------


def test_single_node_cluster_lists_one_member():
    store = make_store()
    store.bootstrap_member("node1", ["tcp://p1"], ["tcp://c1"])
    members = store.member_list()
    assert len(members) == 1
    assert members[0].id == 1
    assert members[0].peer_urls == ["tcp://p1"]


def test_member_add_syncs_to_peer():
    s1 = make_store(member_id=1)
    s2 = Store(Document.with_genesis("counter"), "counter", "bytes", 2)
    s1.bootstrap_member("node1")
    s2.bootstrap_member("node2")
    assert len(s1.member_list()) == 1
    sync(s1, s2)
    assert [m.id for m in s1.member_list()] == [1, 2]
    assert [m.id for m in s2.member_list()] == [1, 2]


def test_bootstrap_consumes_no_revision():
    store = make_store()
    store.bootstrap_member("node1")
    assert store.header()["revision"] == 1
    assert store.put(b"a", b"1")[0]["revision"] == 2


def test_cluster_meta_modes():
    counter = make_store()
    counter.bootstrap_member("n")
    meta = counter.cluster_meta()
    assert meta["revision"] == 1 and meta["cluster_id"] == 1
    hashed = make_store(mode="hash")
    meta = hashed.cluster_meta()
    assert "revision" not in meta and meta["heads"]


# -- watch support helpers --------------------------------------------------------


def test_revs_of_and_value_at_rev():
    store = make_store()
    store.put(b"a", b"1")  # rev 2
    store.put(b"a", b"2")  # rev 3
    store.delete_range(b"a")  # rev 4
    assert store.revs_of(b"a") == [(2, False), (3, False), (4, True)]
    assert store.value_bytes_at_rev(b"a", 2) == b"1"
    assert store.value_bytes_at_rev(b"a", 3) == b"2"
    assert store.value_bytes_at_rev(b"a", 4) is None


def test_value_at_frontier():
    store = make_store(mode="hash")
    h1 = store.put(b"a", b"one")[0]["heads"]
    store.put(b"a", b"two")
    assert store.value_bytes_at_frontier(b"a", h1) == b"one"
    assert store.value_bytes_at_frontier(b"a", store.doc.heads) == b"two"


def test_b64_helpers_reject_garbage():
    assert b64e(b"abc") == "YWJj"
    with pytest.raises(ApiError):
        from causal_kv.kvstore import b64d

        b64d("not base64!!!")
