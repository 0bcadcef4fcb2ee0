import itertools
import random

import pytest
from hypothesis import given, strategies as st

from tuplechain.model import (MISS_PRIORITY, FieldSchema, MatchResult, Rule,
                              SchemaError, best_rule, mask_less_than,
                              matches)

S88 = FieldSchema((8, 8))


def pk(a, b):
    return S88.pack((a, b))


class TestSchema:
    def test_pack_unpack_roundtrip(self):
        s = FieldSchema((4, 16, 3))
        v = s.pack((0xA, 0xBEEF, 0b101))
        assert s.unpack(v) == (0xA, 0xBEEF, 0b101)

    def test_value_overflow_rejected(self):
        with pytest.raises(SchemaError):
            S88.pack((0x100, 0))

    def test_field_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            S88.pack((1, 2, 3))

    def test_bad_widths(self):
        with pytest.raises(SchemaError):
            FieldSchema((0, 8))
        with pytest.raises(SchemaError):
            FieldSchema(())

    def test_wide_fields(self):
        s = FieldSchema((128,) * 4)
        v = s.pack(((1 << 128) - 1, 0, 5, 1 << 100))
        assert s.unpack(v) == ((1 << 128) - 1, 0, 5, 1 << 100)


class TestMatches:
    def test_marker_key_matches_its_packet(self):
        # a key masked down must still match the derived entry
        rule = Rule(pk(0x00, 0xA8), pk(0xC0, 0xFC), 1, 0)
        assert matches(pk(0x20, 0xA8), rule)

    def test_wildcard_matches_everything(self):
        wild = Rule(0, 0, 0, 0)
        for _ in range(50):
            assert matches(random.getrandbits(16), wild)

    def test_agrees_with_per_bit_oracle(self):
        rng = random.Random(42)

        def bit_oracle(key, rule):
            for i in range(16):
                m = rule.mask >> i & 1
                if m and (key >> i & 1) != (rule.fields >> i & 1):
                    return False
            return True

        for _ in range(1000):
            mask = rng.getrandbits(16)
            rule = Rule(rng.getrandbits(16) & mask, mask, 0, 0)
            key = rng.getrandbits(16)
            assert matches(key, rule) == bit_oracle(key, rule)

    def test_non_canonical_rule_rejected(self):
        with pytest.raises(ValueError):
            Rule(fields=0xFF, mask=0x0F, priority=0, rule_id=1)

    def test_negative_mask_rejected(self):
        # fields 0 are canonical under any mask, and a schema check of
        # the form mask >= 2**width lets a negative mask through
        with pytest.raises(ValueError, match="negative"):
            Rule(0, -1, 9, 0)
        with pytest.raises(ValueError, match="negative"):
            Rule(0, -(1 << 70), 9, 0)

    def test_priority_at_or_below_miss_rejected(self):
        # such a rule would rank with a miss, or below one
        for p in (MISS_PRIORITY, MISS_PRIORITY - 1, -(1 << 70)):
            with pytest.raises(ValueError, match="miss priority"):
                Rule(0x12, 0xFF, p, 1)
        assert Rule(0x12, 0xFF, MISS_PRIORITY + 1, 1).priority > MISS_PRIORITY


class TestMaskOrder:
    def test_known_nested_pair(self):
        assert mask_less_than(pk(0x80, 0xC0), pk(0xC0, 0xF0))

    def test_strict(self):
        m = pk(0xF0, 0x0F)
        assert not mask_less_than(m, m)

    def test_exhaustive_single_field(self):
        for a, b in itertools.product(range(16), repeat=2):
            assert mask_less_than(a, b) == ((a & b == a) and a != b)

    def test_partial_order_properties(self):
        masks = range(16)
        for a, b, c in itertools.product(masks, repeat=3):
            if mask_less_than(a, b) and mask_less_than(b, c):
                assert mask_less_than(a, c)
            if mask_less_than(a, b):
                assert not mask_less_than(b, a)


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
       st.integers(0, 2**16 - 1))
def test_matches_monotone_under_containment(key, coarse, fine):
    # the formal core of the marker property: a hit under the finer mask
    # implies a hit on the entry derived by masking down
    coarse &= fine  # force containment (possibly equal)
    fine_rule = Rule(key & fine, fine, 0, 0)
    assert matches(key, fine_rule)
    derived = Rule(fine_rule.fields & coarse, coarse, 0, 1)
    assert matches(key, derived)


class TestBetter:
    def test_higher_priority_wins(self):
        a = Rule(0, 0, 10, 1)
        b = Rule(0, 0, 3, 2)
        assert best_rule(a, b) is a
        assert best_rule(b, a) is a

    def test_tie_breaks_on_smaller_id(self):
        a = Rule(0, 0, 5, 2)
        b = Rule(0, 0, 5, 7)
        assert best_rule(a, b) is a

    def test_equal_priorities_follow_sort_key_in_both_orders(self):
        rng = random.Random(8)
        for _ in range(500):
            pri = rng.randrange(-3, 3)
            a = Rule(0, 0, pri, rng.randrange(50))
            b = Rule(0, 0, pri if rng.random() < 0.7 else pri + 1,
                     rng.randrange(50, 100))
            want = max(a, b, key=Rule.sort_key)
            assert best_rule(a, b) is want
            assert best_rule(b, a) is want

    def test_miss_loses(self):
        a = Rule(0, 0, -100, 1)
        assert best_rule(None, a) is a
        assert best_rule(a, None) is a
        assert best_rule(None, None) is None

    def test_fold_is_order_independent(self):
        rng = random.Random(7)
        rules = [Rule(0, 0, rng.randrange(5), i) for i in range(12)]
        winners = set()
        for _ in range(20):
            rng.shuffle(rules)
            acc = None
            for r in rules:
                acc = best_rule(acc, r)
            winners.add(acc.rule_id)
        assert len(winners) == 1


def test_match_result_miss_sentinel():
    miss = MatchResult(None, probes=3)
    assert miss.priority == MISS_PRIORITY
    assert miss.rule_id is None
    hit = MatchResult(Rule(0, 0, 9, 4), probes=1)
    assert (hit.priority, hit.rule_id) == (9, 4)
