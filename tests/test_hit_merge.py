"""Each hit's hint merges into the running best where the walk finds it.

The lookup loop tc and ETC share raises the floor at every hit, before
the entry cut reads it, so a hit whose own hint outranks every rule
deeper on its trail ends its chain.  The stream tests drive tc and ETC
through builds, inserts and removals under three priority orders and
check every lookup against the linear oracle, the reference walk
exactly, and the older walk that merged once per chain, which may only
probe more.  The fixed cases pin the stop at a first hit that outranks
its whole trail, and the strict cut: a rule deeper on the trail that
ties the floor with a smaller id must still be reached.
"""

import random

import pytest

from tuplechain.baselines import LinearClassifier
from tuplechain.classifier import TupleChainClassifier
from tuplechain.etc import EtcClassifier
from tuplechain.model import FieldSchema, Rule

from pruned import ceiling_walk, etc_walk

S = FieldSchema((8, 8))


def top_bits(k, width=16):
    return ((1 << k) - 1) << (width - k)


def low_bits(k):
    return (1 << k) - 1


def stream_rules(rng, n, order):
    """n rules over two nested mask families, a few random masks and
    the catch-all.  ``"uniform"``: priorities drawn at random.
    ``"specific"``: most specific first, as in a real ACL, so the
    catch-alls come last.  ``"ties"``: three priorities in all."""
    masks = [top_bits(k) for k in (2, 5, 8, 11, 14)] + \
        [low_bits(k) for k in (3, 6, 9, 12, 15)] + \
        [rng.getrandbits(16) for _ in range(3)] + [0]
    rules, seen = [], set()
    while len(rules) < n:
        m = rng.choice(masks)
        f = rng.getrandbits(16) & m
        if (m, f) in seen:
            continue
        seen.add((m, f))
        rules.append(Rule(f, m, 0, len(rules)))
    if order == "specific":
        ranked = sorted(rules, key=lambda r: (-r.mask.bit_count(),
                                              rng.random()))
        pri = {r.rule_id: n - i for i, r in enumerate(ranked)}
    elif order == "ties":
        pri = {r.rule_id: rng.randrange(3) for r in rules}
    else:
        pri = {r.rule_id: rng.randrange(1 << 16) for r in rules}
    return [Rule(r.fields, r.mask, pri[r.rule_id], r.rule_id) for r in rules]


def walk(c, key, once=False):
    """The reference walk of a tc or ETC classifier."""
    if isinstance(c, EtcClassifier):
        return etc_walk(c, key, once)
    return ceiling_walk(c.chains, key, once=once)


def check(tc, etc, live, rng):
    """Every lookup: the oracle's rule, the reference walk's probes
    exactly, no more than the once-per-chain walk's.  Returns the
    (probes, once-per-chain probes) summed over tc and ETC."""
    assert tc.audit() == []
    assert etc.audit() == []
    oracle = LinearClassifier(live)
    spent = once = 0
    for i in range(60):
        key = rng.getrandbits(16)
        if live and i % 2:   # half the keys hit a live rule
            r = rng.choice(live)
            key = r.fields | key & ~r.mask
        want = oracle.lookup(key).rule
        for c in (tc, etc):
            res = c.lookup(key)
            best, probes, full = walk(c, key)
            old = walk(c, key, once=True)
            assert res.rule is want is best is old[0], key
            assert res.probes == probes <= old[1] <= full, key
            spent += probes
            once += old[1]
    return spent, once


@pytest.mark.parametrize("order", ["uniform", "specific", "ties"])
@pytest.mark.parametrize("seed", range(10))
def test_stream_matches_the_walks(order, seed):
    rng = random.Random(seed)
    rules = stream_rules(rng, 240, order)
    held = rules[::3]
    live = [r for r in rules if r not in held]
    tc = TupleChainClassifier.build(S, live)
    etc = EtcClassifier.build(S, live, min_head_bits=2)
    sums = [check(tc, etc, live, rng)]
    for step, r in enumerate(held):
        tc.insert(r)
        etc.insert(r)
        live.append(r)
        if step % 20 == 19:
            sums.append(check(tc, etc, live, rng))
    rng.shuffle(live)
    while len(live) > 30:
        r = live.pop()
        assert tc.remove(r) and etc.remove(r)
        if len(live) % 30 == 0:
            sums.append(check(tc, etc, live, rng))
    spent, once = map(sum, zip(*sums))
    assert spent < once     # merging at each hit saves probes


class TestTieAtTheFloor:
    """Chain (0xF000, 0xFF00).  The key's shallow entry holds rule 9 at
    priority 5, whose hint sets the floor to 5; deeper on its trail rule
    1 also has priority 5, so the entry's ceiling equals the floor.  A
    cut on ``<=`` would stop there and return rule 9."""

    SHALLOW, DEEP = 0xF000, 0xFF00
    KEY = 0x1234

    def rules(self):
        return [Rule(self.KEY & self.SHALLOW, self.SHALLOW, 5, 9),
                Rule(self.KEY & self.DEEP, self.DEEP, 5, 1)]

    @pytest.mark.parametrize("make", [
        lambda rules: TupleChainClassifier.build(S, rules),
        lambda rules: EtcClassifier.build(S, rules, min_head_bits=0),
        lambda rules: EtcClassifier.build(S, rules, min_head_bits=4),
    ], ids=["tc", "etc-folded", "etc-headed"])
    def test_deeper_smaller_id_wins(self, make):
        rules = self.rules()
        c = make(rules)
        assert c.audit() == []
        res = c.lookup(self.KEY)
        assert res.rule is rules[1]
        assert walk(c, self.KEY)[:2] == (res.rule, res.probes)


class TestNestedChainHead:
    """64 nested masks over one 64-bit field make one chain whose tree
    root is its head tuple.  A key on the trail below the top rule,
    which sits in the head tuple, stops at that first hit: nothing
    deeper ranks as high.  Where a deeper rule ties the top priority
    with a smaller id, the walk must go on and return it."""

    W = FieldSchema((64,))
    KEY = 0x0123_4567_89AB_CDEF | 1 << 63

    def rules(self, tie):
        masks = [top_bits(k, 64) for k in range(1, 65)]
        rules = [Rule(self.KEY & masks[0], masks[0], 1000, 5)]
        rules += [Rule(self.KEY & m, m, k, 100 + k)
                  for k, m in enumerate(masks[1:], 2)]
        if tie:
            rules[-1] = Rule(self.KEY, masks[-1], 1000, 1)
        return rules

    def test_top_rule_in_the_head_ends_the_chain(self):
        rules = self.rules(tie=False)
        tc = TupleChainClassifier.build(self.W, rules)
        assert len(tc.chains) == 1 and tc.chains[0].tuple_count == 64
        assert tc.chains[0].root is tc.chains[0].tuples[0]
        assert tc.audit() == []
        res = tc.lookup(self.KEY)
        assert (res.rule, res.probes) == (rules[0], 1)
        assert ceiling_walk(tc.chains, self.KEY) == (rules[0], 1, 7)
        # merged once per chain, the walk ran to the tail: 7 probes
        assert ceiling_walk(tc.chains, self.KEY, once=True)[:2] == \
            (rules[0], 7)
        etc = EtcClassifier.build(self.W, rules)
        assert etc.audit() == []
        res = etc.lookup(self.KEY)
        assert res.rule is rules[0]
        # a head probe, then the local chain's head tuple
        assert res.probes == 2
        assert walk(etc, self.KEY)[:2] == (res.rule, res.probes)
        assert walk(etc, self.KEY, once=True)[1] == 8

    def test_tie_below_the_head_is_reached(self):
        rules = self.rules(tie=True)
        for c in (TupleChainClassifier.build(self.W, rules),
                  EtcClassifier.build(self.W, rules)):
            assert c.audit() == []
            res = c.lookup(self.KEY)
            assert res.rule is rules[-1]
            assert walk(c, self.KEY)[:2] == (res.rule, res.probes)
