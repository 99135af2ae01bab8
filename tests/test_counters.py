"""Counter taxonomy and aggregation."""

from repro.stats.counters import Counters, DataKind, MsgKind


def test_sync_vs_miss_partition():
    kinds = set(MsgKind)
    sync = {k for k in kinds if k.is_sync}
    miss = {k for k in kinds if k.is_miss}
    assert sync | miss == kinds
    assert not (sync & miss)
    assert MsgKind.LOCK_GRANT in sync
    assert MsgKind.BARRIER_DEPART in sync
    assert MsgKind.DIFF_REQUEST in miss
    assert MsgKind.PAGE_RESPONSE in miss


def test_count_message_splits_bytes():
    c = Counters()
    c.count_message(MsgKind.DIFF_RESPONSE, 500, DataKind.MISS, 40)
    c.count_message(MsgKind.LOCK_GRANT, 100, DataKind.CONSISTENCY, 40)
    assert c.total_messages == 2
    assert c.miss_messages == 1
    assert c.sync_messages == 1
    assert c.miss_data_bytes == 500
    assert c.consistency_bytes == 100
    assert c.header_bytes == 80
    assert c.total_bytes == 680


def test_zero_payload_not_counted():
    c = Counters()
    c.count_message(MsgKind.LOCK_REQUEST, 0, DataKind.CONSISTENCY, 0)
    assert c.total_messages == 1
    assert c.total_bytes == 0


def test_as_dict_roundtrip():
    c = Counters()
    c.barriers = 3
    c.count_message(MsgKind.DIFF_REQUEST, 16, DataKind.CONSISTENCY, 40)
    d = c.as_dict()
    assert d["barriers"] == 3
    assert d["msg.diff_request"] == 1
    assert d["bytes.header"] == 40
    assert d["total_messages"] == 1


def test_fresh_counters_all_zero():
    d = Counters().as_dict()
    assert all(v == 0 for v in d.values())


def test_ablation_counters_roundtrip():
    """The mechanism-ablation counters ride as_dict and the jsonable
    round-trip like every other field (dataclasses.fields coverage
    means adding one can never silently vanish from summaries)."""
    import dataclasses

    c = Counters()
    c.pages_shipped_whole = 7
    c.eager_fetches = 11
    c.eager_releases = 13
    c.count_message(MsgKind.WRITE_NOTICE, 64, DataKind.CONSISTENCY, 40)
    d = c.as_dict()
    assert d["pages_shipped_whole"] == 7
    assert d["eager_fetches"] == 11
    assert d["eager_releases"] == 13
    assert d["msg.write_notice"] == 1
    restored = Counters.from_jsonable(c.to_jsonable())
    for f in dataclasses.fields(c):
        assert getattr(restored, f.name) == getattr(c, f.name), f.name


def test_as_dict_covers_every_field():
    """Every dataclass field appears in as_dict — scalar fields under
    their own name, dict fields flattened with msg./bytes. prefixes —
    so new counters can never be silently dropped from reports."""
    import dataclasses

    c = Counters()
    d = c.as_dict()
    for f in dataclasses.fields(c):
        value = getattr(c, f.name)
        if isinstance(value, dict):
            prefix = "msg." if f.name == "messages" else "bytes."
            for key in value:
                assert f"{prefix}{key.value}" in d, (f.name, key)
        else:
            assert f.name in d, f.name


def test_sync_kinds_are_exactly_lock_barrier_bound_and_notice():
    assert {k.value for k in MsgKind if k.is_sync} == {
        "lock_request", "lock_forward", "lock_grant", "lock_release",
        "barrier_arrive", "barrier_depart", "bound_update", "write_notice"}
    assert {k.value for k in MsgKind if k.is_miss} == {
        "diff_request", "diff_response", "page_request", "page_response"}


def _busy_counters():
    c = Counters()
    for n, kind in enumerate(MsgKind):
        for _ in range(n + 1):
            c.count_message(kind, 8 * n, list(DataKind)[n % 2], 40)
    c.page_faults = 5
    c.lock_wait_cycles = 123
    return c


def test_to_jsonable_roundtrips_unchanged():
    import json

    c = _busy_counters()
    doc = c.to_jsonable()
    restored = Counters.from_jsonable(json.loads(json.dumps(doc)))
    assert restored.to_jsonable() == doc
    assert list(restored.to_jsonable()) == list(doc)
    assert restored.as_dict() == c.as_dict()


def test_kinds_stay_dict_keys_across_copy_and_pickle():
    """Kinds hash by identity; a copied or unpickled ``Counters`` must
    still find, not duplicate, its keys."""
    import copy
    import pickle

    original = _busy_counters()
    for clone in (copy.deepcopy(original),
                  pickle.loads(pickle.dumps(original))):
        clone.count_message(MsgKind.LOCK_GRANT, 4, DataKind.MISS, 40)
        assert len(clone.messages) == len(MsgKind)
        assert len(clone.data_bytes) == len(DataKind)
        assert clone.messages[MsgKind.LOCK_GRANT] == \
            original.messages[MsgKind.LOCK_GRANT] + 1
        assert clone.data_bytes[DataKind.MISS] == \
            original.data_bytes[DataKind.MISS] + 4
