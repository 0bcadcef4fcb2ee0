"""tc and ETC share one lookup loop, ``chain.group_lookup``.

tc holds one head-mask-0 group whose one head entry fronts tc's own
``chains`` list, which tc reorders and edits in place.  The stream test
drives tc through every change to that list (a fresh mask spliced
mid-chain, a new chain, a ceiling rise that reorders the list, a chain
dropped) and checks the audit, which pins the group to the list, and
the linear oracle after every update.  The result tests pin the
``MatchResult`` the loop builds without its ``__init__`` to the public
constructor's.
"""

import random

import pytest

from tuplechain import etc as etc_mod
from tuplechain.baselines import LinearClassifier
from tuplechain.chain import Chain, _Group, group_lookup
from tuplechain.classifier import TupleChainClassifier, cover_bound
from tuplechain.etc import EtcClassifier
from tuplechain.model import MISS_PRIORITY, FieldSchema, MatchResult, Rule

from pruned import ceiling_walk, tree_walk

S = FieldSchema((8, 8))


def top_bits(k):
    return ((1 << k) - 1) << (16 - k)


def low_bits(k):
    return (1 << k) - 1


def draw(rng, mask, n, live, next_id, priority=None):
    """n new rules of mask, fewer if the mask has fewer free keys, none
    repeating a live (mask, fields)."""
    taken = {(r.mask, r.fields) for r in live}
    n = min(n, (1 << mask.bit_count()) - sum(m == mask for m, _ in taken))
    out = []
    while len(out) < n:
        f = rng.getrandbits(16) & mask
        if (mask, f) in taken:
            continue
        taken.add((mask, f))
        p = rng.randrange(200) if priority is None else priority
        out.append(Rule(f, mask, p, next_id + len(out)))
    return out


def check(tc, live, rng):
    assert tc.audit() == []
    (grp,) = tc.groups
    assert grp.head[0].chains is tc.chains
    oracle = LinearClassifier(live)
    for i in range(16):
        key = rng.getrandbits(16)
        if live and i % 2:   # half the keys hit a live rule
            r = rng.choice(live)
            key = r.fields | key & ~r.mask
        res = tc.lookup(key)
        assert res.rule is oracle.lookup(key).rule
        assert (res.rule, res.probes) == ceiling_walk(tc.chains, key)[:2]


@pytest.mark.parametrize("seed", range(3))
def test_one_group_fronts_chains_through_every_change(seed):
    rng = random.Random(seed)
    live = []
    for m in [top_bits(k) for k in (2, 8, 14)] + \
            [low_bits(k) for k in (3, 9, 15)]:
        live += draw(rng, m, 20, live, len(live))
    tc = TupleChainClassifier.build(S, live)
    chains = tc.chains
    check(tc, live, rng)
    n_chains = len(chains)

    def add(rs):
        for r in rs:
            tc.insert(r)
            live.append(r)
            check(tc, live, rng)

    # a fresh mask spliced mid-chain: top_bits(5) between 2 and 8
    add(draw(rng, top_bits(5), 4, live, len(live)))
    t = tc.registry[top_bits(5)]
    assert 0 < t.chain.tuples.index(t) < len(t.chain.tuples) - 1
    # a new chain: incomparable with both families
    odd = 0x0F0F
    add(draw(rng, odd, 4, live, len(live)))
    assert len(chains) == n_chains + 1
    # a ceiling rise that moves the new chain to the front
    last = tc.registry[odd].chain
    assert chains[0] is not last
    add(draw(rng, odd, 1, live, len(live), priority=1000))
    assert chains[0] is last
    # the chain dropped again
    for r in [r for r in live if r.mask == odd]:
        assert tc.remove(r)
        live.remove(r)
        check(tc, live, rng)
    assert last not in chains and len(chains) == n_chains
    # and everything, down to an empty list
    rng.shuffle(live)
    while live:
        assert tc.remove(live.pop())
        check(tc, live, rng)
    assert tc.chains is chains == []


def test_audit_pins_the_one_group():
    rng = random.Random(4)
    live = draw(rng, top_bits(4), 10, [], 0) + \
        draw(rng, low_bits(4), 10, [], 10)

    def broken(corrupt):
        tc = TupleChainClassifier.build(S, live)
        assert tc.audit() == []
        corrupt(tc)
        return tc.audit()

    def copy_chains(tc):
        tc.groups[0].head[0].chains = list(tc.chains)

    def lower_top(tc):
        tc.groups[0].top = MISS_PRIORITY

    def second_group(tc):
        tc.groups.append(_Group(0))

    def headed(tc):
        tc.groups[0].head_mask = 0xFF00

    assert broken(copy_chains) == [
        "the group's entry does not front these chains"]
    assert len(broken(lower_top)) == 1
    for corrupt in (second_group, headed):
        assert broken(corrupt) == [
            "groups is not one head-mask-0 group with one entry"]


def test_one_function_is_both_lookups():
    assert TupleChainClassifier.__dict__["lookup"] is group_lookup
    assert EtcClassifier.__dict__["lookup"] is group_lookup


@pytest.mark.parametrize("make", [
    TupleChainClassifier.build,
    lambda s, rules: EtcClassifier.build(s, rules, min_head_bits=2),
], ids=["tc", "etc"])
def test_results_equal_the_public_constructor(make):
    rng = random.Random(7)
    live = []
    for m in (top_bits(6), top_bits(9), low_bits(5), 0x0F0F):
        live += draw(rng, m, 15, live, len(live))
    c = make(S, live)
    hits = 0
    for i in range(200):
        key = rng.getrandbits(16)
        if i % 2:
            r = rng.choice(live)
            key = r.fields | key & ~r.mask
        res = c.lookup(key)
        made = MatchResult(res.rule, res.probes)
        assert type(res) is MatchResult
        assert res == made and made == res
        assert repr(res) == repr(made)
        assert (res.priority, res.rule_id) == (made.priority, made.rule_id)
        hits += res.rule is not None
    assert 0 < hits < 200


def test_chain_lookup_walks_the_chain_alone():
    rng = random.Random(8)
    live = []
    for k in (2, 6, 11):
        live += draw(rng, top_bits(k), 12, live, len(live))
    tc = TupleChainClassifier.build(S, live)
    (chain,) = tc.chains
    assert isinstance(chain, Chain)
    for _ in range(100):
        r = rng.choice(live)
        key = r.fields | rng.getrandbits(16) & ~r.mask
        got = chain.lookup(key)
        assert got.__class__ is tuple
        assert got == tree_walk(chain, key)
        res = tc.lookup(key)
        assert got == (res.rule, res.probes)


def test_fold_test_computes_each_cover_once(monkeypatch):
    """ETC's fold test asks for each ordered mask list's cover once."""
    rng = random.Random(9)
    live = []
    # one planned group over four nested masks, head 0xF000: each of
    # its 16 head keys holds the same mask list
    for k in (4, 7, 10, 13):
        live += draw(rng, top_bits(k), 40, live, len(live))
    assert {r.fields for r in live if r.mask == top_bits(4)} == \
        {k << 12 for k in range(16)}
    asked = []

    def counting(masks):
        asked.append(tuple(masks))
        return cover_bound(masks)

    monkeypatch.setattr(etc_mod, "cover_bound", counting)
    c = EtcClassifier.build(S, live, min_head_bits=4)
    # once for the group's own masks, once per distinct head entry list,
    # where asking per head entry would be 1 + 16 calls
    assert len(asked) == len(set(asked)) < 1 + 16
    assert c.audit() == []
