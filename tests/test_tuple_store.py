import random

import pytest

from tuplechain.model import MISS_PRIORITY, FieldSchema, Rule, best_rule
from tuplechain.tuple_store import (Entry, TouchCounter, TupleTable,
                                    add_owner, delete_marker, drop_owner,
                                    leave_marker, owners_of, report_hint)

S = FieldSchema((8, 8))


def pk(a, b):
    return S.pack((a, b))


def make_chain_tuples(*masks):
    """Link bare tuples in the given (head..tail) order."""
    tuples = [TupleTable(m) for m in masks]
    prev = None
    for t in tuples:
        t.prev = prev
        prev = t
    return tuples


# masks of the running example: t1 < t2 < t3 < t5
T1, T2, T3, T5 = (pk(0x80, 0xC0), pk(0xC0, 0xF0), pk(0xC0, 0xFC),
                  pk(0xF8, 0xFC))


def test_probe_masks_the_key():
    t3 = TupleTable(T3)
    e = t3.table[pk(0x00, 0xA8)] = Entry()
    assert t3.probe(pk(0x20, 0xA8)) is e
    assert TupleTable(T3).probe(pk(0x20, 0xA8)) is None


def test_probe_equals_linear_scan():
    rng = random.Random(3)
    t = TupleTable(pk(0xF0, 0xCC))
    for _ in range(40):
        t.table.setdefault(rng.getrandbits(16) & t.mask, Entry())
    for _ in range(300):
        key = rng.getrandbits(16)
        scan = [e for k, e in t.table.items() if k == (key & t.mask)]
        got = t.probe(key)
        assert got is (scan[0] if scan else None)


def test_leave_marker_recurses_down_the_chain():
    t1, t2, t3, t5 = make_chain_tuples(T1, T2, T3, T5)
    e1 = t5.table[pk(0x20, 0xA8)] = Entry()
    c = TouchCounter()
    k = leave_marker(e1, pk(0x20, 0xA8), 7, t5.prev, c)
    # the trail masks the key down: (0x00, 0xA8) in t3, then t2 and t1
    assert list(t3.table) == [pk(0x00, 0xA8)] and k is t3.table[pk(0x00, 0xA8)]
    assert list(t2.table) == [pk(0x00, 0xA0)]
    assert list(t1.table) == [pk(0x00, 0x80)]
    # each fresh marker has only the coming rule, priority 7, behind it
    assert all(t.table[key].ceil == 7
               for t, key in ((t3, pk(0x00, 0xA8)), (t2, pk(0x00, 0xA0)),
                              (t1, pk(0x00, 0x80))))
    assert e1.marker is k and e1 in owners_of(k)
    assert k.marker is t2.table[pk(0x00, 0xA0)]
    assert c.marker == 3  # one entry per preceding tuple


def test_leave_marker_at_chain_head():
    (t1,) = make_chain_tuples(T1)
    e = t1.table[pk(0x80, 0x40)] = Entry()
    assert leave_marker(e, pk(0x80, 0x40), 1, t1.prev,
                        TouchCounter()) is None
    assert e.marker is None


def test_marker_entries_bounded_per_rule():
    t1, t2, t3 = make_chain_tuples(T1, T2, T3)
    rng = random.Random(9)
    rules = 0
    for _ in range(25):
        key = rng.getrandbits(16) & t3.mask
        if key in t3.table:
            continue
        e = t3.table[key] = Entry()
        leave_marker(e, key, MISS_PRIORITY, t3.prev, TouchCounter())
        rules += 1
    # at most (chain length - 1) marker entries per rule
    assert len(t1.table) + len(t2.table) <= rules * 2


def test_hint_reporting_keeps_higher_priority_rule():
    # two markers report r2 and r1 upward; the shared owner has no rule
    # and adopts r2; its own owner holds the still-better r6
    t1, t2, t3, t5 = make_chain_tuples(T1, T2, T3, T5)
    r6 = Rule(pk(0x20, 0xA8), T5, priority=60, rule_id=6)
    e1 = t5.table[r6.fields] = Entry()
    e1.rule = r6
    e2 = leave_marker(e1, r6.fields, 60, t5.prev, TouchCounter())
    e1.hint = best_rule(r6, e2.hint)

    r2 = Rule(pk(0x00, 0xA0), T2, priority=20, rule_id=2)
    e3 = t2.table[pk(0x00, 0xA0)]
    e3.rule = r2
    e3.hint = best_rule(r2, e3.marker.hint)
    report_hint(e3, TouchCounter())

    r1 = Rule(pk(0x00, 0x80), T1, priority=10, rule_id=1)
    e4 = t1.table[pk(0x00, 0x80)]
    e4.rule = e4.hint = r1
    report_hint(e4, TouchCounter())

    assert e2.hint is r2
    assert e1.hint is r6


def test_report_hint_touches_each_owner_reached():
    # k in t2 owns three entries of t3, one of which owns two of t5
    t2, t3, t5 = make_chain_tuples(T2, T3, T5)
    entries = {}
    for t, key in ((t5, pk(0x48, 0xA4)), (t5, pk(0x50, 0xA4)),
                   (t3, pk(0x40, 0xA0)), (t3, pk(0x40, 0xA8))):
        e = entries[key] = t.table[key] = Entry()
        leave_marker(e, key, MISS_PRIORITY, t.prev, TouchCounter())
    k = t2.table[pk(0x40, 0xA0)]
    assert len(owners_of(k)) == 3 and len(t2.table) == 1
    r = Rule(pk(0x40, 0xA0), T2, priority=5, rule_id=1)
    k.rule = k.hint = r
    c = TouchCounter()
    report_hint(k, c)
    # every owner takes r, so the report goes on to the t5 entries
    assert (c.marker, c.hint) == (0, 3 + 2)
    assert all(e.hint is r for t in (t3, t5) for e in t.table.values())
    # reported again, no owner's hint changes: only k's owners are touched
    c = TouchCounter()
    report_hint(k, c)
    assert (c.marker, c.hint) == (0, 3)
    # a better rule in t3 stops what k reports at its owner
    own = t3.table[pk(0x40, 0xA4)]
    r2 = Rule(pk(0x40, 0xA4), T3, priority=9, rule_id=2)
    own.rule = own.hint = r2
    c = TouchCounter()
    report_hint(own, c)
    assert c.hint == 2 and entries[pk(0x48, 0xA4)].hint is r2
    k.hint = None
    c = TouchCounter()
    report_hint(k, c)
    assert c.hint == 3 and own.hint is r2
    assert entries[pk(0x40, 0xA0)].hint is None


def test_report_hint_no_owners_is_noop():
    e = Entry()
    e.hint = Rule(0, 0, 1, 0)
    c = TouchCounter()
    report_hint(e, c)
    assert c.hint == 0


def test_delete_marker_tears_down_sole_trail():
    t1, t2, t3 = make_chain_tuples(T1, T2, T3)
    key = pk(0x40, 0xA8)
    e = t3.table[key] = Entry()
    leave_marker(e, key, MISS_PRIORITY, t3.prev, TouchCounter())
    c = TouchCounter()
    delete_marker(e, key, t3.prev, c)
    del t3.table[key]
    assert not t1.table and not t2.table and not t3.table
    # one touch per marker dropped, in t2 and t1; no hint work
    assert (c.marker, c.hint) == (2, 0)


def test_delete_marker_spares_shared_marker():
    t2, t3 = make_chain_tuples(T2, T3)
    # the same key under t2's mask (0xC0, 0xF0)
    a, b = pk(0x40, 0xA4), pk(0x40, 0xA8)
    ea = t3.table[a] = Entry()
    eb = t3.table[b] = Entry()
    ka = leave_marker(ea, a, MISS_PRIORITY, t3.prev, TouchCounter())
    kb = leave_marker(eb, b, MISS_PRIORITY, t3.prev, TouchCounter())
    assert ka is kb and len(ka.owners) == 2
    c = TouchCounter()
    delete_marker(ea, a, t3.prev, c)
    assert ka in t2.table.values() and list(owners_of(ka)) == [eb]
    # the spared marker is the only one touched
    assert (c.marker, c.hint) == (1, 0)
    # one owner left: the slot holds that entry, not a one-item list
    assert ka.owners is eb


def test_owner_slot_takes_one_form_per_count():
    k, a, b, c = Entry(), Entry(), Entry(), Entry()
    assert k.owners is None and owners_of(k) == ()
    add_owner(k, a)
    assert k.owners is a and owners_of(k) == (a,)
    add_owner(k, b)
    add_owner(k, c)
    assert k.owners == [a, b, c]
    drop_owner(k, b)
    assert k.owners == [a, c]
    drop_owner(k, a)
    assert k.owners is c
    drop_owner(k, c)
    assert k.owners is None


@pytest.mark.parametrize("count", [0, 1, 2])
def test_drop_owner_rejects_a_stranger(count):
    k, stranger = Entry(), Entry()
    for o in (Entry(), Entry())[:count]:
        add_owner(k, o)
    before = list(owners_of(k))
    with pytest.raises(ValueError):
        drop_owner(k, stranger)
    assert list(owners_of(k)) == before


def _full_hint_recompute(tuples):
    """Topological pass from head to tail, the oracle for hint state."""
    want = {}
    for t in tuples:
        for e in t.table.values():
            up = want.get(id(e.marker)) if e.marker is not None else None
            want[id(e)] = best_rule(e.rule, up)
    return want


def test_incremental_hints_match_full_recomputation():
    rng = random.Random(11)
    tuples = make_chain_tuples(T1, T2, T3, T5)
    live = []
    c = TouchCounter()
    for step in range(400):
        if live and rng.random() < 0.4:
            t, key, e = live.pop(rng.randrange(len(live)))
            if e.owners:
                e.rule = None
                e.hint = e.marker.hint if e.marker else None
                report_hint(e, c)
            else:
                delete_marker(e, key, t.prev, c)
                del t.table[key]
        else:
            t = tuples[rng.randrange(len(tuples))]
            key = rng.getrandbits(16) & t.mask
            e = t.table.get(key)
            if e is None:
                e = t.table[key] = Entry()
                leave_marker(e, key, MISS_PRIORITY, t.prev, c)
            if e.rule is not None:
                continue
            e.rule = Rule(key, t.mask, rng.randrange(100), step)
            e.hint = best_rule(e.rule, e.marker.hint if e.marker else None)
            report_hint(e, c)
            live.append((t, key, e))
        if step % 50 == 0:
            want = _full_hint_recompute(tuples)
            for t in tuples:
                for e in t.table.values():
                    assert e.hint == want[id(e)]
