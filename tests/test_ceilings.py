"""Priority ceilings and the early exit they allow, in tc, ETC and tss.

tc and tss search their chains (tuples) highest ceiling first and stop
at the first one whose ceiling is strictly below the best priority
found; ETC walks its groups in creation order and skips each such
group.  Inside a chain, tc and ETC stop descending at a hit whose entry
ceiling is strictly below that floor.  The differential tests use rule
sets whose
priorities follow the mask or the file order, so ceilings differ from
chain to chain and the cut really fires; the tie tests pin the strict
comparison; the audit tests corrupt one ceiling or one order at a time.
"""

import random

import pytest

from tuplechain.baselines import LinearClassifier, TssClassifier
from tuplechain.chain import Chain
from tuplechain.classifier import TupleChainClassifier
from tuplechain.etc import EtcClassifier
from tuplechain.model import MISS_PRIORITY, FieldSchema, Rule
from tuplechain.tuple_store import TupleTable

from pruned import ceiling_walk, etc_walk

S = FieldSchema((8, 8))


def pk(a, b):
    return S.pack((a, b))


def top_bits(k):
    return ((1 << k) - 1) << (16 - k)


def low_bits(k):
    return (1 << k) - 1


# two nested families (a chain each) plus masks that fit neither
FAMILIES = [top_bits(k) for k in (2, 5, 8, 11, 14)] + \
    [low_bits(k) for k in (3, 6, 9, 12, 15)]


def correlated_rules(rng, n, how):
    """n rules over FAMILIES and three random masks.  ``"mask"``: the
    priority grows with the mask's bit count.  ``"file"``: rules come in
    runs of one mask family, and an earlier rule ranks higher, as in a
    ClassBench file."""
    masks = FAMILIES + [rng.getrandbits(16) for _ in range(3)]
    rng.shuffle(masks)
    rules, seen = [], set()
    while len(rules) < n:
        i = len(rules)
        if how == "mask":
            m = rng.choice(masks)
            pri = 100 * m.bit_count() + rng.randrange(100)
        else:
            at = int(i * len(masks) / n + rng.gauss(0, 1))
            m = masks[min(len(masks) - 1, max(0, at))]
            pri = n - i
        f = rng.getrandbits(16) & m
        if (m, f) in seen:
            continue
        seen.add((m, f))
        rules.append(Rule(f, m, pri, i))
    return rules


def build_all(rules):
    return {"tc": TupleChainClassifier.build(S, rules),
            "etc": EtcClassifier.build(S, rules, min_head_bits=2),
            "tss": TssClassifier.build(S, rules)}


def check(clfs, live, rng):
    """Same answers as the oracle, audits clean, exact pruned probe
    counts; returns (probes, unpruned probes) summed over tc and etc."""
    oracle = LinearClassifier(live)
    spent = unpruned = 0
    for name, c in clfs.items():
        assert c.audit() == [], name
    for i in range(150):
        key = rng.getrandbits(16)
        if live and i % 2:
            r = rng.choice(live)
            key = r.fields | key & ~r.mask
        want = oracle.lookup(key).rule
        for name, c in clfs.items():
            assert c.lookup(key).rule is want, (name, key)
        for res, (best, probes, full) in (
                (clfs["tc"].lookup(key), ceiling_walk(clfs["tc"].chains, key)),
                (clfs["etc"].lookup(key), etc_walk(clfs["etc"], key))):
            assert res.rule is best and res.probes == probes <= full
            spent += probes
            unpruned += full
    return spent, unpruned


@pytest.mark.parametrize("how", ["mask", "file"])
@pytest.mark.parametrize("seed", range(3))
def test_correlated_priorities_match_the_oracle(how, seed):
    rng = random.Random(seed)
    rules = correlated_rules(rng, 300, how)
    # a third held back, so inserts raise ceilings and open tuples
    held = rules[::3]
    live = [r for r in rules if r not in held]
    clfs = build_all(live)
    spent, unpruned = check(clfs, live, rng)
    assert spent < unpruned     # the cut fires
    for step, r in enumerate(held):
        for c in clfs.values():
            c.insert(r)
        live.append(r)
        if step % 25 == 24:
            check(clfs, live, rng)
    spent, unpruned = check(clfs, live, rng)
    assert spent < unpruned
    # removals never lower a ceiling; the stale bounds stay safe
    rng.shuffle(live)
    gone = []
    while len(live) > 40:
        r = live.pop()
        gone.append(r)
        for c in clfs.values():
            assert c.remove(r)
        if len(live) % 40 == 0:
            check(clfs, live, rng)
    # and the same rules back, over those stale ceilings and trails
    rng.shuffle(gone)
    for step, r in enumerate(gone[:len(gone) // 2]):
        for c in clfs.values():
            c.insert(r)
        live.append(r)
        if step % 25 == 24:
            check(clfs, live, rng)
    check(clfs, live, rng)
    # a fresh build makes every ceiling exact again
    clfs["tc"] = TupleChainClassifier.build(S, live)
    check(clfs, live, rng)


class TestTies:
    """Equal ceilings and equal priorities: the smaller rule id wins, so
    a chain whose ceiling equals the best priority found must still be
    searched.  A cut on ``>=`` fails one of the two id assignments."""

    A, B = pk(0xFF, 0x00), pk(0x00, 0xFF)   # incomparable: two chains
    KEY = pk(0x12, 0x34)

    def rules(self, id_a, id_b):
        return [Rule(self.KEY & self.A, self.A, 5, id_a),
                Rule(self.KEY & self.B, self.B, 5, id_b)]

    @pytest.mark.parametrize("ids", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("make", [
        lambda rules: TupleChainClassifier.build(S, rules),
        lambda rules: EtcClassifier.build(S, rules, min_head_bits=0),
        lambda rules: EtcClassifier.build(S, rules, min_head_bits=4),
        lambda rules: TssClassifier.build(S, rules),
    ], ids=["tc", "etc-one-group", "etc-two-groups", "tss"])
    def test_equal_ceiling_is_still_searched(self, ids, make):
        c = make(self.rules(*ids))
        assert c.audit() == []
        assert c.lookup(self.KEY).rule.rule_id == 1

    def test_search_keeps_equal_ceilings(self):
        # the loop tc and ETC share, over two hand-laid chains whose
        # equal ceilings put the larger id first
        c = TupleChainClassifier(S)
        for r in self.rules(2, 1):
            chain = Chain()
            chain.tuples = [TupleTable(r.mask)]
            chain._relink()
            chain.insert_rule(chain.tuples[0], r)
            c.chains.append(chain)
            assert chain.lookup(self.KEY) == (r, 1)
        c.groups[0].top = 5
        assert [ch.top for ch in c.chains] == [5, 5]
        res = c.lookup(self.KEY)
        assert (res.rule.rule_id, res.probes) == (1, 2)

    def test_earlier_group_cuts_both_equal_ceilings(self):
        # a rule of the first group outranks the equal ceilings of both
        # later groups, so their head probes are skipped
        c = EtcClassifier(S, min_head_bits=4)
        C = pk(0xF0, 0xF0)   # incomparable to A and B: a group of its own
        first = Rule(self.KEY & C, C, 6, 9)
        for r in [first] + self.rules(2, 1):
            c.insert(r)
        assert c.group_count == 3 and c.audit() == []
        res = c.lookup(self.KEY)
        assert (res.rule, res.probes) == (first, 2)
        assert etc_walk(c, self.KEY)[:2] == (first, 2)


class TestEntryCut:
    """A hit whose entry ceiling is below the best priority found ends
    its chain's walk.  Chain X, one tuple, holds the key's rule at 50
    and a 70 elsewhere; chain Y nests three tuples and holds a 60 on
    another trail, so its ceiling 60 does not cut it.  Y's tree is
    y2 -succ-> y3 (fail y1).  The key hits y2, whose entry holds 20
    with only y3's 30 behind it: ceiling 30, below 50."""

    X = pk(0x0F, 0x00)
    Y1, Y2, Y3 = pk(0x00, 0xF0), pk(0x00, 0xFF), pk(0xF0, 0xFF)
    KEY = pk(0x12, 0x34)

    def rules(self):
        return [Rule(pk(0x02, 0x00), self.X, 50, 0),
                Rule(pk(0x05, 0x00), self.X, 70, 1),
                Rule(pk(0x00, 0x30), self.Y1, 10, 2),
                Rule(pk(0x00, 0x34), self.Y2, 20, 3),
                Rule(pk(0x10, 0x34), self.Y3, 30, 4),
                Rule(pk(0x90, 0x55), self.Y3, 60, 5)]

    def test_walk_stops_at_the_low_ceiling(self):
        rules = self.rules()
        c = TupleChainClassifier.build(S, rules)
        assert [[t.mask for t in ch.tuples] for ch in c.chains] == \
            [[self.X], [self.Y1, self.Y2, self.Y3]]
        y = c.chains[1]
        assert y.root.mask == self.Y2 and y.top == 60
        assert y.root.table[pk(0x00, 0x34)].ceil == 30
        assert c.audit() == []
        res = c.lookup(self.KEY)
        # X: one probe; Y: y2 only, where y3 would be the next probe
        assert (res.rule, res.probes) == (rules[0], 2)
        assert ceiling_walk(c.chains, self.KEY) == (rules[0], 2, 3)

    def test_equal_ceiling_walks_on(self):
        # at 30 the key's own rule ties y3's 30 with a smaller id than
        # the rule there: the walk must go on to y3 and keep it
        rules = self.rules()
        rules[0] = Rule(pk(0x02, 0x00), self.X, 30, 9)
        c = TupleChainClassifier.build(S, rules)
        res = c.lookup(self.KEY)
        assert (res.rule, res.probes) == (rules[4], 3)


def test_marker_hit_without_hint_does_not_move_the_floor():
    # the head tuple holds a bare marker for the rule behind it; a key
    # that hits the marker and misses the rule finds nothing there
    r1 = Rule(pk(0x10, 0x00), pk(0xF0, 0x00), 1, 1)
    r2 = Rule(pk(0x23, 0x40), pk(0xFF, 0xF0), 5, 2)
    other = Rule(pk(0x00, 0x09), pk(0x00, 0x0F), 3, 3)
    c = TupleChainClassifier.build(S, [r1, r2, other])
    assert len(c.chains) == 2
    assert c.lookup(pk(0x29, 0x99)).rule is other
    assert c.lookup(pk(0x29, 0x90)).rule is None


def test_lowest_storable_priority_is_found():
    # At MISS_PRIORITY - 1 the head's fresh marker took a ceiling under
    # the search floor, so tc's walk stopped there and missed the rule
    # that etc, tss and linear found.  Rule refuses priorities at or
    # below MISS_PRIORITY; the lowest it stores is found by all four.
    schema = FieldSchema((4, 4))
    rules = [Rule(0x30, 0xF0, 1, 0), Rule(0x12, 0xFF, MISS_PRIORITY + 1, 1)]
    for cls in (TupleChainClassifier, EtcClassifier, TssClassifier,
                LinearClassifier):
        c = cls.build(schema, rules)
        assert c.lookup(0x12).rule is rules[1] and c.audit() == []


class TestEtcRouting:
    """Groups stay in creation order whatever their ceilings.  A fresh
    mask goes to the widest group head it contains, ties to the group
    created first, and a lookup skips each group whose ceiling is below
    the best rule found, but not the groups after it."""

    A, B, C = pk(0xF0, 0x00), pk(0x00, 0xF0), pk(0x0F, 0x00)

    def test_tie_routes_to_the_oldest_group(self):
        c = EtcClassifier(S, min_head_bits=4)
        a = Rule(pk(0x10, 0x00), self.A, 1, 0)
        b = Rule(pk(0x00, 0x10), self.B, 9, 1)
        c.insert(a)
        c.insert(b)
        ga, gb = c._mask_to_group[self.A][0], c._mask_to_group[self.B][0]
        assert c.groups == [ga, gb]
        live = [a, b]
        rid = 2
        for pri, lifted, fresh in ((20, self.A, pk(0xF0, 0xF0)),
                                   (30, self.B, pk(0xF8, 0xF0)),
                                   (40, self.A, pk(0xFC, 0xF0))):
            r = Rule(pk(0x30, 0x30) & fresh, fresh, 2, rid)
            c.insert(r)
            assert c._mask_to_group[fresh][0] is ga
            # raise a ceiling: the groups keep their places
            f = (rid + 1) << 4
            top = Rule(pk(f, f) & lifted, lifted, pri, rid + 1)
            c.insert(top)
            assert c._mask_to_group[lifted][0].top == pri
            assert c.groups == [ga, gb]
            live += [r, top]
            rid += 2
            assert c.audit() == []
        oracle = LinearClassifier(live)
        rng = random.Random(4)
        for _ in range(200):
            key = rng.getrandbits(16)
            assert c.lookup(key).rule is oracle.lookup(key).rule

    def test_later_group_with_a_higher_ceiling_still_wins(self):
        c = EtcClassifier(S, min_head_bits=4)
        rules = [Rule(pk(0x10, 0x00), self.A, 5, 0),
                 Rule(pk(0x00, 0x20), self.B, 1, 1),
                 Rule(pk(0x03, 0x00), self.C, 9, 2)]
        for r in rules:
            c.insert(r)
        assert [g.top for g in c.groups] == [5, 1, 9]
        key = pk(0x13, 0x20)
        res = c.lookup(key)
        # the middle group is skipped, head probe included
        assert (res.rule, res.probes) == (rules[2], 4)
        assert etc_walk(c, key)[:2] == (res.rule, res.probes)


class TestAudit:
    @staticmethod
    def rules():
        rng = random.Random(11)
        return correlated_rules(rng, 120, "mask")

    def test_chain_ceiling_below_a_rule_is_flagged(self):
        chain = TupleChainClassifier.build(S, self.rules()).chains[0]
        assert chain.audit() == []
        chain.top -= 1
        assert any(v.startswith(f"ceiling {chain.top} below rule ")
                   for v in chain.audit())

    @pytest.mark.parametrize("below", ["rule", "ceiling"])
    def test_entry_ceiling_below_an_owner_is_flagged(self, below):
        # head entry 0x8000 is the marker of 0xc000, which is the
        # marker of 0xc0f0's rule
        c = TupleChainClassifier.build(
            S, [Rule(pk(0x80, 0x00), pk(0x80, 0x00), 1, 0),
                Rule(pk(0xC0, 0x00), pk(0xC0, 0x00), 5, 1),
                Rule(pk(0xC0, 0xF0), pk(0xC0, 0xF0), 9, 2)])
        (chain,) = c.chains
        head = chain.tuples[0]
        e = head.table[pk(0x80, 0x00)]
        assert c.audit() == [] and e.ceil == 9
        # the owner holds 5 with ceiling 9
        e.ceil = 4 if below == "rule" else 8
        assert c.audit() == [f"group 0, head 0x0: chain 0: ceiling {e.ceil} "
                             f"of {pk(0x80, 0x00):#x} in tuple {head.mask:#x} "
                             "below an owner's"]

    def test_tss_ceiling_below_a_rule_is_flagged(self):
        c = TssClassifier.build(S, self.rules())
        assert c.audit() == []
        rec = c.order[0]
        rec[0] -= 1000
        assert any(v.startswith(f"ceiling {rec[0]} of tuple {rec[1]:#x} ")
                   for v in c.audit())

    @pytest.mark.parametrize("corrupt, want", [
        (lambda o: o[::-1], "tuples out of ceiling order"),
        (lambda o: o[1:], "tuple order out of sync with the tables"),
        (lambda o: o[:1] + o[:-1], "tuple order out of sync with the tables"),
    ])
    def test_tss_order_is_checked(self, corrupt, want):
        c = TssClassifier.build(S, self.rules())
        c.order = corrupt(c.order)
        assert c.audit() == [want]

    def test_etc_group_ceiling_below_a_local_ceiling_is_flagged(self):
        c = EtcClassifier.build(S, self.rules(), min_head_bits=6)
        grp = c.groups[-1]
        grp.top -= 1000
        assert any(v.endswith(f"local ceiling above the group's {grp.top}")
                   for v in c.audit())
