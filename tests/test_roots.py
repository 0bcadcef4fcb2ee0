"""tc and ETC search their chain lists in place, from each chain's
tree root, in ceiling order.  A chain's root moves only where the tuple
set changes, and a chain moves in the list only when its ceiling rises
or it comes or goes, so drive both classifiers through every such change
(mid-chain splices, new chains, new head entries and groups, then
removal down to nothing) and check them against the linear oracle after
every step."""

import random

import pytest

from tuplechain.baselines import LinearClassifier
from tuplechain.classifier import TupleChainClassifier
from tuplechain.etc import EtcClassifier
from tuplechain.model import FieldSchema, Rule

from pruned import ceiling_walk, etc_walk

S = FieldSchema((8, 8))
TOP = 0x8000


def top_bits(k):
    return ((1 << k) - 1) << (16 - k)


def low_bits(k):
    return TOP | (1 << k) - 1


def draw(rng, masks, n, live, next_id):
    """n new rules over masks, none repeating a live (mask, fields)."""
    taken = {(r.mask, r.fields) for r in live}
    out = []
    while len(out) < n:
        m = rng.choice(masks)
        # the top bit and bit 0 are set wherever the mask holds them, so
        # the low family's head 0x8007 sees at most a quarter of its
        # keys and the top family's 0xC000 at most half
        f = (rng.getrandbits(16) | TOP | 1) & m
        if (m, f) in taken:
            continue
        taken.add((m, f))
        out.append(Rule(f, m, rng.randrange(200), next_id + len(out)))
    return out


def check(tc, etc, live, rng):
    assert tc.audit() == []
    assert etc.audit() == []
    oracle = LinearClassifier(live)
    for i in range(24):
        key = rng.getrandbits(16)
        if live and i % 2:  # half the keys hit a live rule
            r = rng.choice(live)
            key = r.fields | key & ~r.mask
        want = oracle.lookup(key).rule
        for res, (best, probes, full) in (
                (tc.lookup(key), ceiling_walk(tc.chains, key)),
                (etc.lookup(key), etc_walk(etc, key))):
            assert res.rule is want is best
            assert res.probes == probes <= full


@pytest.mark.parametrize("seed", range(3))
def test_roots_follow_every_tuple_set_change(seed):
    rng = random.Random(seed)
    # Two nested families (one chain each) with their interior masks
    # held back, plus masks without the top bit: those fit no chain of
    # the build and contain no head mask, so they open chains and groups.
    base = [top_bits(k) for k in (2, 6, 10, 14)] + \
        [low_bits(k) for k in (3, 7, 11)]
    held = [top_bits(k) for k in (4, 8, 12)] + [low_bits(k) for k in (5, 9)]
    fresh = [rng.getrandbits(15) | 0x0101 for _ in range(3)]
    live = draw(rng, base, 120, [], 0)
    tc = TupleChainClassifier.build(S, live)
    etc = EtcClassifier.build(S, live, min_head_bits=3)
    # no head saves less than it costs, so none folds into a
    # head-mask-0 group that would take in the fresh masks
    assert all(g.head_mask for g in etc.groups)
    check(tc, etc, live, rng)
    chains, groups = len(tc.chains), etc.group_count
    heads = sum(len(g.head) for g in etc.groups)

    spliced = 0
    for m in held + fresh:
        for r in draw(rng, [m], 6, live, len(live)):
            tc.insert(r)
            etc.insert(r)
            live.append(r)
            check(tc, etc, live, rng)
        t = tc.registry[m]
        chain = t.chain
        spliced += 0 < chain.tuples.index(t) < len(chain.tuples) - 1
    assert spliced >= len(held) // 2
    assert len(tc.chains) > chains
    assert etc.group_count > groups
    assert sum(len(g.head) for g in etc.groups) > heads

    rng.shuffle(live)
    while live:
        r = live.pop()
        assert tc.remove(r)
        assert etc.remove(r)
        check(tc, etc, live, rng)
    assert tc.chains == [] and tc.registry == {}
    assert etc.groups == [] and etc.rule_ids == set()
