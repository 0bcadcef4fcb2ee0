import random

import pytest
from hypothesis import given, settings, strategies as st

from tuplechain.baselines import (LinearClassifier, TssClassifier,
                                  linear_lookup, linear_lookup_batch)
from tuplechain.chain import DuplicateRuleError
from tuplechain.model import MISS_PRIORITY, FieldSchema, Rule, matches

S = FieldSchema((8, 8))


def random_rules(rng, n, width=16):
    rules, seen = [], set()
    while len(rules) < n:
        m = rng.getrandbits(width)
        f = rng.getrandbits(width) & m
        if (m, f) in seen:
            continue
        seen.add((m, f))
        rules.append(Rule(f, m, rng.randrange(1000), len(rules)))
    return rules


class TestLinear:
    def test_empty(self):
        res = linear_lookup([], 42)
        assert res.rule is None and res.probes == 0

    def test_probes_equal_rule_count(self):
        rng = random.Random(1)
        rules = random_rules(rng, 17)
        assert linear_lookup(rules, 0).probes == 17

    def test_winner_is_best_match(self):
        rng = random.Random(2)
        rules = random_rules(rng, 60)
        for _ in range(300):
            key = rng.getrandbits(16)
            got = linear_lookup(rules, key).rule
            hits = [r for r in rules if matches(key, r)]
            if not hits:
                assert got is None
            else:
                assert got is max(hits, key=lambda r: r.sort_key())

    def test_classifier_updates(self):
        c = LinearClassifier()
        r = Rule(0x10, 0xF0, 5, 0)
        c.insert(r)
        assert c.lookup(0x1A).rule is r
        assert c.remove(r) and not c.remove(r)
        assert c.lookup(0x1A).rule is None

    def test_duplicates_rejected(self):
        r = Rule(1, 3, 5, 0)
        c = LinearClassifier([r])
        with pytest.raises(DuplicateRuleError):
            c.insert(Rule(1, 3, 5, 0))          # same id and entry
        with pytest.raises(DuplicateRuleError):
            c.insert(Rule(2, 3, 1, 0))          # same id
        with pytest.raises(DuplicateRuleError):
            c.insert(Rule(1, 3, 9, 1))          # same (fields, mask)
        with pytest.raises(DuplicateRuleError):
            LinearClassifier([r, Rule(2, 3, 1, 0)])
        assert list(c.rules.values()) == [r] and c.audit() == []
        assert c.remove(r)
        c.insert(Rule(1, 3, 9, 0))              # id and entry free again
        assert c.audit() == []
        c.rules[2, 3] = Rule(2, 3, 1, 0)        # id 0 stored twice
        assert c.audit() == ["rule id set out of sync"]

    def test_remove_takes_only_the_stored_rule(self):
        r = Rule(1, 3, 5, 0)
        c = LinearClassifier([r])
        assert not c.remove(Rule(1, 3, 6, 1))   # same entry, other rule
        assert not c.remove(Rule(2, 3, 5, 0))
        assert c.remove(r) and not c.rules and not c.rule_ids

    def test_bound_audit_and_memory(self):
        rng = random.Random(3)
        c = LinearClassifier(random_rules(rng, 40))
        assert c.probe_bound() == 40 == c.lookup(0).probes
        assert c.audit() == []
        assert c.stats().memory_bytes == 40 * (2 * 2 + 12)


class TestLinearBatch:
    def test_matches_scalar(self):
        rng = random.Random(3)
        rules = random_rules(rng, 80)
        keys = [rng.getrandbits(16) for _ in range(500)]
        got = linear_lookup_batch(rules, keys)
        for k, (pri, rid) in zip(keys, got):
            want = linear_lookup(rules, k)
            assert (pri, rid) == (want.priority, want.rule_id)

    def test_miss_sentinel(self):
        rules = [Rule(0xFF, 0xFF, 1, 0)]
        assert linear_lookup_batch(rules, [0x00]) == [(MISS_PRIORITY, None)]

    def test_tie_break_prefers_smaller_id(self):
        rules = [Rule(0, 0, 7, 9), Rule(0, 0, 7, 2)]
        assert linear_lookup_batch(rules, [5]) == [(7, 2)]

    def test_wide_schema_falls_back_to_scalar(self):
        wide = FieldSchema((64, 64))
        m = wide.pack(((1 << 64) - 1, 0))
        r = Rule(wide.pack((123, 0)) & m, m, 4, 0)
        keys = [wide.pack((123, 999)), wide.pack((124, 0))]
        assert linear_lookup_batch([r], keys) == [(4, 0),
                                                  (MISS_PRIORITY, None)]

    def test_chunking_boundary(self):
        # enough rules that the chunk size drops below the key count
        rng = random.Random(4)
        rules = random_rules(rng, 40)
        keys = [rng.getrandbits(16) for _ in range(64)]
        whole = linear_lookup_batch(rules, keys)
        per_key = [linear_lookup_batch(rules, [k])[0] for k in keys]
        assert whole == per_key

    @given(st.lists(st.tuples(st.integers(0, 2**16 - 1),
                              st.integers(0, 2**16 - 1),
                              st.integers(0, 100)),
                    min_size=0, max_size=20),
           st.integers(0, 2**16 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_scalar_property(self, specs, key):
        rules = [Rule(f & m, m, p, i)
                 for i, (f, m, p) in enumerate(specs)]
        want = linear_lookup(rules, key)
        assert linear_lookup_batch(rules, [key]) == \
            [(want.priority, want.rule_id)]


class TestTss:
    def test_probes_equal_tuple_count(self):
        # a lookup probes exactly the tuples whose ceiling is at least
        # the winner's priority; a key that matches nothing probes all
        rng = random.Random(5)
        rules = random_rules(rng, 100)
        c = TssClassifier(rules)
        assert c.tuple_count == len({r.mask for r in rules})
        tops = [max(r.priority for r in rules if r.mask == m)
                for m in {r.mask for r in rules}]
        for _ in range(50):
            key = rng.getrandbits(16)
            best = linear_lookup(rules, key).rule
            want = c.tuple_count if best is None else sum(
                t >= best.priority for t in tops)
            assert c.lookup(key).probes == want

    def test_matches_linear(self):
        rng = random.Random(6)
        rules = random_rules(rng, 120)
        c = TssClassifier(rules)
        for _ in range(500):
            key = rng.getrandbits(16)
            assert c.lookup(key).rule is linear_lookup(rules, key).rule

    def test_duplicate_entry_rejected(self):
        c = TssClassifier([Rule(0x10, 0xF0, 1, 0)])
        with pytest.raises(DuplicateRuleError):
            c.insert(Rule(0x10, 0xF0, 2, 1))

    def test_duplicate_id_rejected(self):
        r = Rule(0x10, 0xF0, 1, 0)
        c = TssClassifier([r])
        with pytest.raises(DuplicateRuleError):
            c.insert(Rule(0x20, 0xF0, 1, 0))
        assert c.audit() == [] and c.lookup(0x25).rule is None
        assert c.remove(r)
        c.insert(Rule(0x20, 0xF0, 1, 0))    # the id is free again
        c.rule_ids.add(7)
        assert c.audit() == ["rule id set out of sync"]

    def test_bound_audit_and_memory(self):
        rng = random.Random(8)
        rules = random_rules(rng, 100)
        c = TssClassifier(rules)
        assert c.probe_bound() == c.tuple_count
        assert c.audit() == []
        assert c.stats().memory_bytes == 100 * (3 * 2 + 24)
        tbl = c.tables[rules[0].mask][2]
        tbl[rules[0].fields ^ 1] = tbl.pop(rules[0].fields)  # misfile
        assert any("misfiled" in v for v in c.audit())

    def test_remove_drops_empty_tuple(self):
        r = Rule(0x10, 0xF0, 1, 0)
        c = TssClassifier([r])
        assert c.remove(r)
        assert c.tuple_count == 0
        assert not c.remove(r)

    def test_update_churn_matches_linear(self):
        rng = random.Random(7)
        c = TssClassifier()
        live = []
        for step in range(800):
            if live and rng.random() < 0.45:
                r = live.pop(rng.randrange(len(live)))
                assert c.remove(r)
            else:
                m = rng.getrandbits(8)
                f = rng.getrandbits(8) & m
                if any(x.mask == m and x.fields == f for x in live):
                    continue
                r = Rule(f, m, rng.randrange(50), step)
                c.insert(r)
                live.append(r)
            if step % 100 == 99:
                for _ in range(30):
                    key = rng.getrandbits(8)
                    assert c.lookup(key).rule is linear_lookup(
                        live, key).rule
