import random

import pytest

from tuplechain.chain import Chain, ChainError, DuplicateRuleError
from tuplechain.classifier import ChainSet
from tuplechain.model import (FieldSchema, Rule, best_rule, mask_less_than,
                              matches)
from tuplechain.tuple_store import TupleTable

S = FieldSchema((8, 8))


def pk(a, b):
    return S.pack((a, b))


T1, T2, T3, T5 = (pk(0x80, 0xC0), pk(0xC0, 0xF0), pk(0xC0, 0xFC),
                  pk(0xF8, 0xFC))


def new_chain(*masks):
    c = Chain()
    c.tuples = [TupleTable(m) for m in masks]
    c._relink()
    return c


def insert(c, mask, fields, pri, rid):
    t = next(t for t in c.tuples if t.mask == mask)
    r = Rule(fields & mask, mask, pri, rid)
    c.insert_rule(t, r)
    return r


def chain_oracle(c, key):
    """Probe every tuple linearly; the ground truth for chain lookups."""
    best = None
    for t in c.tuples:
        e = t.table.get(key & t.mask)
        if e is not None and e.rule is not None:
            best = best_rule(best, e.rule)
    return best


def random_chain(rng, length, rules_per_tuple=6):
    masks = []
    m = 0
    while len(masks) < length:
        free = [b for b in range(16) if not m >> b & 1]
        m |= 1 << rng.choice(free)
        masks.append(m)
    c = new_chain(*masks)
    rid = 0
    for t in c.tuples:
        for _ in range(rules_per_tuple):
            f = rng.getrandbits(16) & t.mask
            if f in t.table and t.table[f].rule is not None:
                continue
            c.insert_rule(t, Rule(f, t.mask, rng.randrange(50), rid))
            rid += 1
    return c


class TestLookup:
    def test_miss_branch_then_hit_skips_the_rest(self):
        # 4-tuple chain, tree t1 -succ-> t3 (fail t2, succ t5): the root
        # hits ra's marker, t3 misses, its fail child t2 hits, and that
        # hit's hint is the answer; t5 is skipped by t3's miss
        c = new_chain(T1, T2, T3, T5)
        ra = insert(c, T2, pk(0x40, 0xA0), 20, 0)
        insert(c, T5, pk(0x08, 0x54), 30, 1)   # populates t3 via marker
        key = pk(0x40 | 0x01, 0xA0 | 0x02)     # matches ra only
        best, probes = c.lookup(key)
        assert best is ra
        assert probes == 3                     # t1 hit, t3 miss, t2 hit

    def test_empty_chain(self):
        assert Chain().lookup(1234) == (None, 0)

    def test_probe_bound_and_oracle_on_random_chains(self):
        rng = random.Random(21)
        for _ in range(30):
            c = random_chain(rng, rng.randint(1, 16))
            bound = c.probe_bound()
            for _ in range(200):
                key = rng.getrandbits(16)
                best, probes = c.lookup(key)
                assert probes <= bound
                assert best is chain_oracle(c, key)

    def test_hit_set_is_a_prefix_of_the_chain(self):
        # tuples whose probe succeeds are downward closed in chain order
        rng = random.Random(5)
        for _ in range(20):
            c = random_chain(rng, 5)
            for _ in range(100):
                key = rng.getrandbits(16)
                hits = [t.table.get(key & t.mask) is not None
                        for t in c.tuples]
                assert hits == sorted(hits, reverse=True)


def tree_inorder(n):
    return [] if n is None else (
        tree_inorder(n.fail) + [n.table] + tree_inorder(n.succ))


def tree_height(n):
    return 0 if n is None else 1 + max(tree_height(n.fail),
                                       tree_height(n.succ))


class TestTreeShape:
    def test_miss_first_shape(self):
        for m in range(1, 65):
            c = new_chain(*[(1 << (i + 1)) - 1 for i in range(m)])
            assert tree_inorder(c.root) == [t.table for t in c.tuples], m
            assert tree_height(c.root) == c.probe_bound(), m
            # every tuple is empty, so any key misses them all
            _, probes = c.lookup(0)
            assert probes <= m.bit_length(), m  # balanced: 1 + floor(log2 m)
            if m & (m - 1) == 0:
                assert probes == 1, m


class TestRuleUpdates:
    def test_insert_at_head_hint_is_own_rule(self):
        c = new_chain(T1, T2)
        r = insert(c, T1, pk(0x80, 0x40), 5, 0)
        e = c.tuples[0].table[r.fields]
        assert e.hint is r and e.marker is None

    def test_low_priority_rule_keeps_marker_hint(self):
        c = new_chain(T2, T3)
        hi = insert(c, T2, pk(0x40, 0xA0), 50, 0)
        lo = insert(c, T3, pk(0x40, 0xA8), 1, 1)
        e = c.tuples[1].table[lo.fields]
        assert e.rule is lo and e.hint is hi

    def test_duplicate_entry_rejected(self):
        c = new_chain(T1)
        insert(c, T1, pk(0x80, 0x40), 5, 0)
        with pytest.raises(DuplicateRuleError):
            insert(c, T1, pk(0x80, 0x40), 6, 1)

    def test_delete_absent_rule_returns_false(self):
        c = new_chain(T1)
        assert not c.delete_rule(c.tuples[0], Rule(0, T1, 0, 9))

    def test_delete_takes_an_equal_but_distinct_rule(self):
        c = new_chain(T1, T2)
        r = insert(c, T2, pk(0x40, 0xA0), 5, 0)
        twin = Rule(r.fields, r.mask, r.priority, r.rule_id)
        assert twin is not r
        assert c.delete_rule(c.tuples[1], twin)
        assert all(not t.table for t in c.tuples) and c.audit() == []

    def test_delete_with_another_priority_removes_nothing(self):
        c = new_chain(T1, T2)
        r = insert(c, T2, pk(0x40, 0xA0), 5, 0)
        other = Rule(r.fields, r.mask, 6, r.rule_id)
        assert not c.delete_rule(c.tuples[1], other)
        assert [e.rule for e in c.tuples[1].table.values()] == [r]
        assert c.rule_count == 1 and c.audit() == []

    def test_delete_leaf_rule_removes_entry_and_trail(self):
        c = new_chain(T1, T2, T3)
        r = insert(c, T3, pk(0x40, 0xA8), 5, 0)
        assert c.delete_rule(c.tuples[2], r)
        assert all(not t.table for t in c.tuples)

    def test_delete_marker_holding_rule_keeps_entry(self):
        c = new_chain(T2, T3)
        deep = insert(c, T3, pk(0x40, 0xA8), 50, 0)
        shallow = insert(c, T2, pk(0x40, 0xA0), 60, 1)
        assert c.delete_rule(c.tuples[0], shallow)
        e = c.tuples[0].table[pk(0x40, 0xA0)]
        assert e.rule is None and e.owners  # lives on as a pure marker
        assert e.hint is None               # no rules below it any more
        assert c.tuples[1].table[deep.fields].hint is deep

    def test_insert_delete_fuzz_matches_oracle(self):
        rng = random.Random(33)
        c = new_chain(T1, T2, T3, T5)
        live = []
        rid = 0
        for step in range(2000):
            if live and rng.random() < 0.45:
                r = live.pop(rng.randrange(len(live)))
                t = next(t for t in c.tuples if t.mask == r.mask)
                assert c.delete_rule(t, r)
            else:
                t = c.tuples[rng.randrange(4)]
                f = rng.getrandbits(16) & t.mask
                if f in t.table and t.table[f].rule is not None:
                    continue
                r = Rule(f, t.mask, rng.randrange(40), rid)
                rid += 1
                c.insert_rule(t, r)
                live.append(r)
            if step % 100 == 99:
                assert c.audit() == []
                for _ in range(50):
                    key = rng.getrandbits(16)
                    assert c.lookup(key)[0] is chain_oracle(c, key)


class TestTupleOps:
    def test_can_host_empty_chain(self):
        assert Chain().can_host(T1) == 0

    def test_can_host_incomparable_mask(self):
        c = new_chain(T1, T2)
        assert c.can_host(pk(0x01, 0x00)) is None  # unrelated to both

    def test_can_host_agrees_with_brute_force(self):
        rng = random.Random(8)
        for _ in range(200):
            masks = rng.sample(range(1, 256), rng.randint(1, 5))
            chain_masks = sorted(
                {m for m in masks}, key=lambda m: m.bit_count())
            ordered = []
            for m in chain_masks:
                if all(mask_less_than(o, m) for o in ordered):
                    ordered.append(m)
            c = new_chain(*ordered)
            probe = rng.randrange(1, 256)
            if probe in ordered:
                continue
            valid = [at for at in range(len(ordered) + 1)
                     if (at == 0 or mask_less_than(ordered[at - 1], probe))
                     and (at == len(ordered)
                          or mask_less_than(probe, ordered[at]))]
            got = c.can_host(probe)
            assert got == (valid[0] if valid else None)
            assert len(valid) <= 1

    def test_insert_tuple_preserves_lookups(self):
        rng = random.Random(13)
        c = new_chain(T1, T3, T5)
        rid = 0
        for t in c.tuples:
            for _ in range(8):
                f = rng.getrandbits(16) & t.mask
                if f in t.table and t.table[f].rule is not None:
                    continue
                c.insert_rule(t, Rule(f, t.mask, rng.randrange(99), rid))
                rid += 1
        keys = [rng.getrandbits(16) for _ in range(1000)]
        before = [c.lookup(k)[0] for k in keys]
        assert c.can_host(T2) == 1
        t = TupleTable(T2)
        c.insert_tuple(t, 1)
        assert c.tuples[1] is t and c.audit() == []
        assert [c.lookup(k)[0] for k in keys] == before

    def test_insert_tuple_at_tail_no_marker_work(self):
        c = new_chain(T1, T2)
        insert(c, T2, pk(0x40, 0xA0), 5, 0)
        c.insert_tuple(TupleTable(T3), 2)
        assert c.audit() == []
        assert not c.tuples[2].table

    def test_insert_nonempty_tuple_rejected(self):
        c = new_chain(T1)
        t = TupleTable(T2)
        t.table[0] = object()
        with pytest.raises(ChainError):
            c.insert_tuple(t, 1)

    @pytest.mark.parametrize("mask", [T2, pk(0x40, 0x00)])
    def test_insert_unorderable_tuple_rejected(self, mask):
        # T2 is already in the chain; 0x4000 and T1 are incomparable
        c = new_chain(T1, T2)
        with pytest.raises(ChainError):
            c.insert_tuple(TupleTable(mask), c.can_host(mask))
        assert c.tuple_count == 2 and c.audit() == []

    @pytest.mark.parametrize("at", [0, 1, 3, -1])
    def test_insert_at_a_wrong_position_rejected(self, at):
        # T3 belongs at 2, after T1 and T2
        c = new_chain(T1, T2)
        with pytest.raises(ChainError):
            c.insert_tuple(TupleTable(T3), at)
        assert c.tuple_count == 2 and c.audit() == []


class TestAudit:
    def test_fresh_build_is_clean(self):
        rng = random.Random(1)
        assert random_chain(rng, 4).audit() == []

    def test_corrupted_hint_is_flagged(self):
        c = new_chain(T2, T3)
        insert(c, T3, pk(0x40, 0xA8), 50, 0)
        e = c.tuples[1].table[pk(0x40, 0xA8)]
        e.hint = None  # hand corruption
        assert any("hint law" in v for v in c.audit())

    def test_tree_one_level_too_tall_is_flagged(self):
        # right in-order over 7 tuples, height 4 against a bound of 3
        c = new_chain(*[(1 << (i + 1)) - 1 for i in range(7)])
        t0, t1, t2, t3, t4, t5, t6 = c.tuples
        for t in c.tuples:
            t.fail = t.succ = None
        t0.succ, t4.fail, t4.succ = t4, t2, t5
        t2.fail, t2.succ, t5.succ = t1, t3, t6
        c.root = t0
        assert tree_inorder(c.root) == [t.table for t in c.tuples]
        assert any("exceeds probe bound" in v for v in c.audit())

    def test_broken_order_is_flagged(self):
        c = new_chain(T1, T2)
        c.tuples.reverse()
        assert any("chain order" in v for v in c.audit())

    def test_stale_owner_link_is_flagged(self):
        # a tail entry dropped as delete_rule would drop it, but without
        # delete_marker: its marker in T1 keeps the owner link
        c = new_chain(T1, T2)
        insert(c, T1, pk(0x80, 0x40), 1, 0)
        insert(c, T2, pk(0xC0, 0x70), 2, 1)
        insert(c, T2, pk(0x80, 0x50), 3, 2)
        t1, t2 = c.tuples
        assert len(t1.table[pk(0x80, 0x40)].owners) == 2
        del t2.table[pk(0xC0, 0x70)]
        # entries keep no key, so the stray owner is named by its marker
        assert c.audit() == [f"an owner of {pk(0x80, 0x40):#x} is not in "
                             "the next tuple"]

    @pytest.mark.parametrize("corrupt, violation", [
        (lambda tail: [], "holds 0"),
        (lambda tail: [tail], "holds 1"),
        (lambda tail: [tail, tail], "repeats an entry"),
    ], ids=["empty", "one", "repeat"])
    def test_owner_list_form_is_checked(self, corrupt, violation):
        # head entry owned by one tail entry: its slot holds that entry
        c = new_chain(T1, T2)
        insert(c, T1, pk(0x80, 0x40), 1, 0)
        insert(c, T2, pk(0xC0, 0x70), 2, 1)
        t1, t2 = c.tuples
        head, tail = t1.table[pk(0x80, 0x40)], t2.table[pk(0xC0, 0x70)]
        assert head.owners is tail and c.audit() == []
        head.owners = corrupt(tail)
        assert any(violation in v for v in c.audit())

    def test_owner_list_only_for_two_or_more(self):
        # after a bulk build of a nested chain, each entry's owner slot
        # takes the one form for its owner count
        c = random_chain(random.Random(6), 6, rules_per_tuple=30)
        assert c.audit() == []
        nxt_of = dict(zip(c.tuples, c.tuples[1:] + [None]))
        forms = set()
        for t in c.tuples:
            for e in t.table.values():
                nxt = nxt_of[t]
                owned = [o for o in (nxt.table.values() if nxt else ())
                         if o.marker is e]
                if not owned:
                    assert e.owners is None
                elif len(owned) == 1:
                    assert e.owners is owned[0]
                else:
                    assert type(e.owners) is list
                    assert len(e.owners) == len(owned)
                    assert set(e.owners) == set(owned)
                forms.add(min(len(owned), 2))
        assert forms == {0, 1, 2}

    def test_tuple_naming_another_chain_is_flagged(self):
        c, other = new_chain(T1, T2), new_chain(T1, T2)
        c.tuples[1].chain = other
        assert c.audit() == [f"tuple {T2:#x} names another chain"]
        c.tuples[1].chain = None
        assert c.audit() == [f"tuple {T2:#x} names another chain"]

    def test_self_loop_is_flagged(self):
        c = new_chain(T1, T2, T3)
        c.root.succ = c.root
        assert c.audit() == ["tree meets more than its 3 tuples: a cycle "
                             "or a stray link"]

    @pytest.mark.parametrize("target", [
        lambda c: c.root,            # back to an ancestor: a cycle
        lambda c: c.tuples[1],       # a sibling, met twice
        lambda c: TupleTable(T3),    # a tuple outside the chain
    ])
    def test_leaf_with_a_stray_fail_is_flagged(self, target):
        # tree T1 -succ-> T3, whose children T2 and T5 are leaves
        c = new_chain(T1, T2, T3, T5)
        leaf = c.tuples[3]
        assert leaf.fail is leaf.succ is None and c.audit() == []
        leaf.fail = target(c)
        assert c.audit() == ["tree meets more than its 4 tuples: a cycle "
                             "or a stray link"]

    @staticmethod
    def assert_registered(cs):
        """The registry, each tuple's ``chain`` and each chain's
        ``tuples`` agree: one registered tuple per live mask, held by
        the chain it names."""
        live = {t.mask: t for ch in cs.chains for t in ch.tuples}
        assert cs.registry == live   # tuples compare by identity
        assert all(t.chain is ch for ch in cs.chains for t in ch.tuples)

    def test_random_splices_leave_no_stale_links(self):
        rng = random.Random(4)
        for _ in range(30):
            order = rng.sample(range(16), 10)
            masks = [sum(1 << b for b in order[:i + 1]) for i in range(10)]
            # the chain behind a chain set's registry, spliced and
            # dropped the way ChainSet.add and ChainSet.discard do
            cs = ChainSet()
            cs.fill({masks[0]: [Rule(rng.getrandbits(16) & masks[0],
                                     masks[0], 5, 0)]})
            (c,) = cs.chains
            self.assert_registered(cs)
            for m in rng.sample(masks[1:], 9):
                t = TupleTable(m)
                c.insert_tuple(t, c.can_host(m))
                cs.registry[m] = t
                assert c.audit() == []
                self.assert_registered(cs)
            # every spliced mask contains the head's, so the spliced
            # tuples form an empty run behind the head, dropped at once
            spliced = c.tuples[1:]
            assert c.drop_empty_tail() == spliced
            for t in spliced:
                del cs.registry[t.mask]
            assert c.audit() == []
            self.assert_registered(cs)
            for t in spliced:
                assert t.chain is t.prev is t.fail is t.succ is None
            assert c.tuples == [c.root]
            assert c.root.fail is None and c.root.succ is None


class TestLongChain:
    def test_fresh_key_insert_and_remove_on_1200_tuple_chain(self):
        # nested masks of up to 1200 bits; a key fresh under every mask
        # leaves a marker in all 1199 preceding tuples, a trail deeper
        # than the default recursion limit
        masks = [(1 << (i + 1)) - 1 for i in range(1200)]
        c = new_chain(*masks)
        for i, t in enumerate(c.tuples):
            c.insert_rule(t, Rule(0, t.mask, i, i))
        assert c.audit() == []
        tail = c.tuples[-1]
        r = Rule(tail.mask, tail.mask, 5000, 5000)
        c.insert_rule(tail, r)
        assert c.audit() == []
        assert all(len(t.table) == 2 for t in c.tuples)
        best, probes = c.lookup(tail.mask)
        assert best is r and probes <= c.probe_bound()
        assert c.delete_rule(tail, r)
        assert c.audit() == []
        assert all(len(t.table) == 1 for t in c.tuples)
