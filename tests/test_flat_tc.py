"""tc is the ETC whose one group is the flat group.

``TupleChainClassifier`` opens the head-mask-0 ("flat") group with the
classifier and keeps it when its chain set empties, so every mask routes
into it: the tests below grow tc from empty in the order that makes ETC
open one group per mask, drain it and grow it again, and check that it
stays one flat group over one chain list.  A tc build lays its masks out
highest ceiling first, ties to the higher mask value, so the same rules
in any order build one layout.
"""

import random

import pytest

from tuplechain.baselines import LinearClassifier
from tuplechain.chain import _Group
from tuplechain.classifier import TupleChainClassifier
from tuplechain.etc import EtcClassifier
from tuplechain.model import FieldSchema, Rule
from tuplechain.workload import TupleProfile, gen_rules

S = FieldSchema((8, 8))


def top_bits(k):
    return ((1 << k) - 1) << (16 - k)


def low_bits(k):
    return (1 << k) - 1


def layout(tc):
    """Chain masks in search order, each tuple's entry keys, the bound
    and the stats."""
    return ([[t.mask for t in c.tuples] for c in tc.chains],
            {t.mask: sorted(t.table) for c in tc.chains for t in c.tuples},
            tc.probe_bound(), tc.stats())


def rule_set(name):
    if name == "profile":
        return gen_rules(3, 400, S, TupleProfile(
            num_masks=24, num_chains=4, loose_masks=4)).rules
    rng = random.Random(5)
    pool = [rng.getrandbits(16) for _ in range(10)]
    rules, seen = [], set()
    while len(rules) < 150:
        m = rng.choice(pool)
        f = rng.getrandbits(16) & m
        if (m, f) not in seen:
            seen.add((m, f))
            # few priorities, so masks tie on their ceilings
            rules.append(Rule(f, m, rng.randrange(6), len(rules)))
    return rules


@pytest.mark.parametrize("name", ["random", "profile"])
def test_build_does_not_depend_on_rule_order(name):
    rules = rule_set(name)
    want = layout(TupleChainClassifier.build(S, rules))
    assert len(want[0]) > 1
    rng = random.Random(name)
    for _ in range(6):
        shuffled = rng.sample(rules, len(rules))
        tc = TupleChainClassifier.build(S, shuffled)
        assert layout(tc) == want
        assert tc.audit() == []
    assert layout(TupleChainClassifier.build(S, rules[::-1])) == want


def check_flat(tc, chains, live, rng):
    assert tc.groups == [tc._flat] and tc._flat.head_mask == 0
    assert list(tc._flat.head) == [0]
    assert tc.chains is chains
    assert tc.audit() == []
    oracle = LinearClassifier(live)
    for i in range(8):
        key = rng.getrandbits(16)
        if live and i % 2:   # half the keys hit a live rule
            r = rng.choice(live)
            key = r.fields | key & ~r.mask
        assert tc.lookup(key).rule is oracle.lookup(key).rule


def test_tc_stays_flat_as_it_grows():
    rng = random.Random(2)
    masks = [top_bits(k) for k in (3, 7, 12)] + \
        [low_bits(k) for k in (4, 10)] + [0x0F0F, 0]
    rules = []
    for m in masks:
        for f in {rng.getrandbits(16) & m for _ in range(6)}:
            rules.append(Rule(f, m, rng.randrange(50), len(rules)))
    # most specific first: each mask contains no mask before it, so
    # ETC, which routes a fresh mask to a group whose head it contains,
    # opens one group per mask
    rules.sort(key=lambda r: -r.mask.bit_count())
    etc = EtcClassifier(S)
    for r in rules:
        etc.insert(r)
    assert len(etc.groups) == len(masks)

    tc = TupleChainClassifier(S)
    chains = tc.chains
    check_flat(tc, chains, [], rng)
    for _ in range(2):
        live = []
        for r in rules:
            tc.insert(r)
            live.append(r)
            check_flat(tc, chains, live, rng)
        assert tc.stats().group_count == 0
        for r in rng.sample(rules, len(rules)):
            assert tc.remove(r)
            live.remove(r)
            check_flat(tc, chains, live, rng)
        assert chains == [] and not tc.registry and not tc.rule_ids


def test_tc_takes_no_head_width_and_counts_no_group():
    with pytest.raises(TypeError):
        TupleChainClassifier(S, min_head_bits=9)
    with pytest.raises(TypeError):
        TupleChainClassifier(S, 9)
    tc = TupleChainClassifier.build(S, rule_set("random"))
    assert tc.group_count == tc.stats().group_count == 0
    assert tc.groups == [tc._flat]
    assert TupleChainClassifier(S).group_count == 0


def test_audit_flags_a_group_beside_the_flat_one():
    rng = random.Random(3)
    rules = [Rule(f, top_bits(4), 1, i) for i, f in enumerate(
        {rng.getrandbits(16) & top_bits(4) for _ in range(8)})]
    tc = TupleChainClassifier.build(S, rules)
    assert tc.audit() == []
    tc.groups.append(_Group(top_bits(8)))
    assert tc.audit() == ["groups is not the flat group alone"]
