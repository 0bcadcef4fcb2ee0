import random
import re

import pytest

from tuplechain.baselines import (LinearClassifier, TssClassifier,
                                  linear_lookup)
from tuplechain.chain import Chain, DuplicateRuleError
from tuplechain.classifier import (ChainSet, TupleChainClassifier,
                                   ceiling_order, cover_bound)
from tuplechain.etc import EtcClassifier
from tuplechain.graph import PathCover, build_graph, min_path_cover
from tuplechain.model import FieldSchema, Rule
from tuplechain.tuple_store import Entry, TupleTable, owners_of
from tuplechain.workload import TupleProfile, gen_rules

from pruned import ceiling_walk

S = FieldSchema((8, 8))


def pk(a, b):
    return S.pack((a, b))


MASKS = [pk(*m) for m in [
    (0x80, 0xC0), (0xC0, 0xF0), (0xC0, 0xFC),
    (0xE0, 0xF8), (0xF8, 0xFC), (0xFF, 0xFF),
]]


def random_rules(rng, n, mask_pool=None):
    if mask_pool is None:
        mask_pool = [rng.getrandbits(16) for _ in range(8)]
    rules, seen = [], set()
    while len(rules) < n:
        m = rng.choice(mask_pool)
        f = rng.getrandbits(16) & m
        if (m, f) in seen:
            continue
        seen.add((m, f))
        rules.append(Rule(f, m, rng.randrange(1000), len(rules)))
    return rules


class TestBuild:
    def test_empty(self):
        c = TupleChainClassifier.build(S, [])
        assert c.lookup(0).rule is None
        assert c.stats().rule_count == 0

    def test_two_chain_walkthrough_probes(self):
        # six masks split optimally into two chains; the probe pattern
        # for a key hitting the second tuple of each.  Chain (3, 5),
        # ceiling 50, goes first, tree 3 -succ-> 5: the hit on 3 merges
        # rule 3 (25) at once, and nothing deeper on its trail ranks
        # that high, so the walk ends there, before 5.  Chain
        # (0, 1, 2, 4), ceiling 40, has tree 0 -succ-> 2 (fail 1,
        # succ 4): hit 0, whose entry's ceiling is rule 1's 20, below
        # 25, so the walk stops there too.  With no cut it would probe
        # 5, then miss 2 and hit 1 as well.
        rules = [
            Rule(pk(0x80, 0x40), MASKS[0], 10, 0),
            Rule(pk(0x40, 0xA0), MASKS[1], 20, 1),
            Rule(pk(0x00, 0x14), MASKS[2], 30, 2),
            Rule(pk(0x40, 0xA8), MASKS[3], 25, 3),
            Rule(pk(0x08, 0x54), MASKS[4], 40, 4),
            Rule(pk(0x12, 0x34), MASKS[5], 50, 5),
        ]
        cover = PathCover(build_graph(MASKS), ((0, 1, 2, 4), (3, 5)))
        c = TupleChainClassifier.build(S, rules, cover=cover)
        assert c.audit() == []
        res = c.lookup(pk(0x41, 0xA9))
        assert res.rule is rules[3]     # priority 25 beats 20
        assert res.probes == 2          # one in each chain
        assert ceiling_walk(c.chains, pk(0x41, 0xA9))[1:] == (2, 5)
        # merged once per chain, after its walk, rule 3 would not cut
        # its own chain: 3 probes
        assert ceiling_walk(c.chains, pk(0x41, 0xA9), once=True)[1:] == \
            (3, 5)

    def test_cover_must_match_masks(self):
        rules = [Rule(0, MASKS[0], 1, 0)]
        cover = PathCover(build_graph(MASKS), ((0, 1, 2, 4), (3, 5)))
        with pytest.raises(ValueError):
            TupleChainClassifier.build(S, rules, cover=cover)

    def test_rejects_oversized_fields(self):
        with pytest.raises(ValueError):
            TupleChainClassifier.build(S, [Rule(1 << 20, (1 << 21) - 1,
                                                0, 0)])

    def test_matches_linear_oracle(self):
        rng = random.Random(31)
        for trial in range(15):
            rules = random_rules(rng, rng.randint(1, 120))
            c = TupleChainClassifier.build(S, rules)
            assert c.audit() == []
            for _ in range(300):
                key = rng.getrandbits(16)
                got = c.lookup(key)
                want = linear_lookup(rules, key)
                assert got.rule is want.rule, f"trial {trial} key {key:#x}"

    def test_probe_bound_holds(self):
        rng = random.Random(77)
        rules = random_rules(rng, 200)
        c = TupleChainClassifier.build(S, rules)
        bound = c.probe_bound()
        for _ in range(2000):
            assert c.lookup(rng.getrandbits(16)).probes <= bound
        # the per-chain sum never exceeds the closed form l(1 + log2(m/l))
        builds = [c] + [TupleChainClassifier.build(
            S, random_rules(rng, rng.randint(1, 120))) for _ in range(30)]
        for c in builds:
            assert c.probe_bound() <= c.probe_bound_closed_form() + 1e-9


class TestUpdates:
    def test_incremental_equals_bulk(self):
        rng = random.Random(5)
        rules = random_rules(rng, 80)
        bulk = TupleChainClassifier.build(S, rules)
        inc = TupleChainClassifier(S)
        for r in rules:
            inc.insert(r)
        assert inc.audit() == []
        for _ in range(500):
            key = rng.getrandbits(16)
            assert inc.lookup(key).rule is bulk.lookup(key).rule

    def test_duplicate_id_rejected(self):
        c = TupleChainClassifier(S)
        c.insert(Rule(0, 0, 1, 7))
        with pytest.raises(DuplicateRuleError):
            c.insert(Rule(1, 0xFF, 2, 7))

    # two rules with the same fields and mask under different ids, at
    # the head tuple or behind it, where the second one's key is taken
    @pytest.mark.parametrize("cls", [TupleChainClassifier, EtcClassifier])
    @pytest.mark.parametrize("mask", [MASKS[0], MASKS[2]],
                             ids=["head", "behind"])
    def test_build_rejects_a_duplicate_entry(self, cls, mask):
        rules = [Rule(pk(0x80, 0x40), MASKS[0], 1, 0),
                 Rule(pk(0x40, 0xA0), MASKS[1], 2, 1),
                 Rule(pk(0x00, 0x14), MASKS[2], 3, 2)]
        dup = next(r for r in rules if r.mask == mask)
        with pytest.raises(DuplicateRuleError):
            cls.build(S, rules + [Rule(dup.fields, mask, 9, 3)])

    @pytest.mark.parametrize("bad, cls, schema", [
        pytest.param(bad, cls, S, id=f"bad{i}-{cls.__name__}")
        for i, bad in enumerate([Rule(1 << 20, 1 << 20, 1, 0),
                                 (0, 0, 1, 0)])
        for cls in (TupleChainClassifier, EtcClassifier,
                    TssClassifier, LinearClassifier)] + [
        # tss and linear made without a schema check no width, and
        # refuse anything else as tc and etc do
        pytest.param(bad, cls, None, id=f"{what}-{cls.__name__}-no-schema")
        for what, bad in (("not-a-rule", (0, 0, 1, 0)),
                          ("repeated-id", Rule(0, 0, 3, 1)))
        for cls in (TssClassifier, LinearClassifier)])
    def test_insert_rejects_what_build_rejects(self, bad, cls, schema):
        rules = [Rule(pk(0x80, 0), pk(0xC0, 0), 1, 1),
                 Rule(pk(0x80, 0x40), pk(0xC0, 0xC0), 2, 2)]
        with pytest.raises(ValueError) as built:
            cls.build(schema, rules + [bad])
        # the same error, type and message, as tc's and etc's
        same = f"^{re.escape(str(built.value))}$"
        for ref in (TupleChainClassifier, EtcClassifier):
            with pytest.raises(built.type, match=same):
                ref.build(S, rules + [bad])
        c = cls.build(schema, rules)
        before = c.stats()
        with pytest.raises(built.type, match=same):
            c.insert(bad)
        assert c.audit() == []
        assert c.stats() == before
        assert c.rule_ids == {1, 2}

    # every build checks its rules through check_rule, so all four
    # classes refuse the same rule with the same error
    @pytest.mark.parametrize("cls", [TupleChainClassifier, EtcClassifier,
                                     TssClassifier, LinearClassifier])
    def test_build_rejects_a_rule_too_wide_for_the_schema(self, cls):
        schema = FieldSchema((4, 4))
        fits = Rule(0x10, 0xF0, 2, 1)
        with pytest.raises(ValueError,
                           match="^rule 0 does not fit the schema$"):
            cls.build(schema, [fits, Rule(0x100, 0x100, 1, 0)])
        c = cls.build(schema, [fits])
        assert c.audit() == [] and c.rule_ids == {1}

    def test_remove_absent(self):
        c = TupleChainClassifier(S)
        assert not c.remove(Rule(0, 0, 1, 0))
        c.insert(Rule(0, pk(0xFF, 0x00), 1, 0))
        assert not c.remove(Rule(pk(1, 0), pk(0xFF, 0x00), 1, 9))

    def test_teardown_to_empty(self):
        rng = random.Random(13)
        rules = random_rules(rng, 150, mask_pool=MASKS)
        c = TupleChainClassifier.build(S, rules)
        rng.shuffle(rules)
        for r in rules:
            assert c.remove(r)
        st = c.stats()
        assert (st.rule_count, st.tuple_count, st.chain_count) == (0, 0, 0)
        assert not c.registry and not c.rule_ids

    def test_churn_fuzz_audits_clean(self):
        rng = random.Random(2)
        c = TupleChainClassifier(S)
        live, rid = [], 0
        for step in range(1500):
            if live and rng.random() < 0.45:
                r = live.pop(rng.randrange(len(live)))
                assert c.remove(r)
            else:
                m = rng.choice(MASKS + [pk(0x0F, 0x00), pk(0x0F, 0xF0)])
                f = rng.getrandbits(16) & m
                if any(x.mask == m and x.fields == f for x in live):
                    continue
                r = Rule(f, m, rng.randrange(100), rid)
                rid += 1
                c.insert(r)
                live.append(r)
            if step % 150 == 149:
                assert c.audit() == []
                for _ in range(40):
                    key = rng.getrandbits(16)
                    assert c.lookup(key).rule is linear_lookup(
                        live, key).rule

    def test_new_mask_placed_on_smallest_hosting_chain(self):
        c = TupleChainClassifier(S)
        c.insert(Rule(pk(0x80, 0x00), pk(0x80, 0xC0), 1, 0))
        c.insert(Rule(pk(0x01, 0x00), pk(0x0F, 0x00), 1, 1))  # new chain
        assert len(c.chains) == 2
        c.insert(Rule(pk(0xC0, 0xA0), pk(0xC0, 0xF0), 1, 2))
        assert len(c.chains) == 2   # extends the first chain
        assert c.registry[pk(0xC0, 0xF0)].chain is c.registry[pk(0x80, 0xC0)].chain

    def test_new_mask_placed_on_first_hosting_chain_in_search_order(self):
        c = TupleChainClassifier(S)
        c.insert(Rule(pk(0x80, 0x00), pk(0x80, 0x00), 9, 0))
        c.insert(Rule(pk(0xC0, 0x00), pk(0xC0, 0x00), 9, 1))
        c.insert(Rule(pk(0x00, 0x01), pk(0x00, 0x0F), 1, 2))  # new chain
        longer, shorter = c.chains
        assert (longer.tuple_count, shorter.tuple_count) == (2, 1)
        # the full mask fits at the tail of either chain
        full = pk(0xFF, 0xFF)
        c.insert(Rule(pk(0xC0, 0x01), full, 1, 3))
        assert c.chains == [longer, shorter]
        assert c.registry[full].chain is longer
        assert c.audit() == []


def top_bits(k):
    return ((1 << k) - 1) << (16 - k)


def low_bits(k):
    return (1 << k) - 1


class TestSharedSearch:
    """``lookup`` runs one search over all chains; it must give what
    searching each chain on its own, highest ceiling first with the same
    cut, and merging would give."""

    def check(self, c, live, rng):
        assert c.audit() == []
        oracle = LinearClassifier(live)
        for _ in range(300):
            key = rng.getrandbits(16)
            res = c.lookup(key)
            best, probes, full = ceiling_walk(c.chains, key)
            assert (res.rule, res.probes) == (best, probes)
            assert res.probes <= full
            assert res.rule is oracle.lookup(key).rule

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_chain_composition_through_splices(self, seed):
        # two nested mask families (one chain each) plus random masks;
        # the families' interior masks are held back and spliced in
        rng = random.Random(seed)
        held = [top_bits(k) for k in (4, 8, 12)] + \
            [low_bits(k) for k in (5, 9, 13)]
        base = [top_bits(k) for k in (2, 6, 10, 14)] + \
            [low_bits(k) for k in (3, 7, 11, 15)] + \
            [rng.getrandbits(16) for _ in range(3)]
        rules = random_rules(rng, 240, mask_pool=base)
        c = TupleChainClassifier.build(S, rules)
        live = list(rules)
        self.check(c, live, rng)
        spliced = 0
        for m in held:
            for _ in range(8):
                f = rng.getrandbits(16) & m
                if any(r.mask == m and r.fields == f for r in live):
                    continue
                r = Rule(f, m, rng.randrange(1000), len(live))
                c.insert(r)
                live.append(r)
            t = c.registry[m]
            chain = t.chain
            spliced += 0 < chain.tuples.index(t) < len(chain.tuples) - 1
        # placement may pick a shorter chain that takes the mask at an
        # end, but most held-back masks land mid-chain
        assert spliced >= len(held) // 2
        self.check(c, live, rng)
        rng.shuffle(live)
        for r in live[:len(live) // 2]:
            assert c.remove(r)
        del live[:len(live) // 2]
        self.check(c, live, rng)


# One nested chain by nibbles.  Without 0xFF00, the head 0xF000's
# entries own nothing (0x1000), one entry (0x2000, 0x5000, 0x6000) or a
# list (0x3000, 0x4000) in 0xFFF0; splicing 0xFF00 between them turns
# 0x3000's list into one marker and keeps 0x4000's a list of two.
SPLICE_FIELDS = {
    0xF000: [0x1000, 0x2000, 0x3000, 0x4000],
    0xFF00: [0x3100, 0x4200, 0x7700],
    0xFFF0: [0x2110, 0x3110, 0x3120, 0x4110, 0x4210, 0x4220, 0x5110],
    0xFFFF: [0x2111, 0x6123],
}
SPLICE_PRI = [5, 40, 12, 33, 21, 8, 50, 17, 29, 3, 44, 26, 14, 37, 9, 48]


def shape(chain):
    """Per tuple, its mask and each entry's rule, hint, ceiling, marker
    key and owner keys, by entry key.  Entries keep no key, so each is
    found by identity in the tables."""
    key_of = {id(e): k for t in chain.tuples for k, e in t.table.items()}
    return [(t.mask, {k: (e.rule, e.hint, e.ceil,
                          key_of[id(e.marker)] if e.marker is not None
                          else None,
                          frozenset(key_of[id(o)] for o in owners_of(e)))
                      for k, e in t.table.items()})
            for t in chain.tuples]


class TestSplice:
    @pytest.mark.parametrize("at", [0, 1, 3], ids=["head", "middle", "tail"])
    def test_splice_leaves_what_a_build_leaves(self, at):
        cells = [(f, m) for m, fs in SPLICE_FIELDS.items() for f in fs]
        rules = [Rule(f, m, p, i)
                 for i, ((f, m), p) in enumerate(zip(cells, SPLICE_PRI))]
        fresh = list(SPLICE_FIELDS)[at]
        c = TupleChainClassifier.build(
            S, [r for r in rules if r.mask != fresh])
        (chain,) = c.chains
        if at == 1:
            forms = {e.owners.__class__
                     for e in chain.tuples[0].table.values()}
            assert forms == {type(None), Entry, list}
        succ = len(chain.tuples[at].table) if at < 3 else 0
        before = chain.touches.marker
        t = TupleTable(fresh)
        assert chain.can_host(fresh) == at
        chain.insert_tuple(t, at)
        # One touch per marker link the splice writes: each successor
        # entry re-anchored on a marker in t, and each fresh marker in t
        # linked on to the predecessor, which the head has not.
        assert chain.touches.marker - before == \
            succ + (len(t.table) if at else 0)
        c.registry[fresh] = c._mask_to_group[fresh] = t
        for r in rules:
            if r.mask == fresh:
                c.insert(r)
        bulk = TupleChainClassifier.build(S, rules)
        assert shape(chain) == shape(bulk.chains[0])
        assert c.stats() == bulk.stats()
        assert c.probe_bound() == bulk.probe_bound()
        assert c.audit() == []
        for key in range(0, 1 << 16, 7):
            assert c.lookup(key).rule is linear_lookup(rules, key).rule


class TestFill:
    """A fill along a cover equals calling ``Chain.insert_rule`` per
    rule, head tuple first, along that cover: entries, hints, markers,
    owners, ceilings and touch counts included."""

    @staticmethod
    def state(chain):
        return (chain.top, chain.touches.marker, chain.touches.hint,
                shape(chain),
                [(t.chain is chain,
                  sum(e.rule is not None for e in t.table.values()),
                  list(t.table)) for t in chain.tuples])

    def check(self, schema, rules):
        by_mask = {}
        for r in rules:
            by_mask.setdefault(r.mask, []).append(r)
        cover = min_path_cover(build_graph(list(by_mask)))
        filled = ChainSet()
        filled.fill(by_mask, cover)
        assert filled.probe_bound() == cover_bound(by_mask)
        got = {c.tuples[0].mask: self.state(c) for c in filled.chains}
        want = {}
        for path in cover.mask_paths():
            c = Chain()
            c.tuples = [TupleTable(m) for m in path]
            c._relink()
            for t in c.tuples:
                for r in by_mask[t.mask]:
                    c.insert_rule(t, r)
            want[path[0]] = self.state(c)
        assert got == want
        c = TupleChainClassifier.build(schema, rules, cover)
        assert c.audit() == []
        return filled

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_rule_inserts(self, seed):
        rng = random.Random(seed)
        self.check(S, random_rules(rng, rng.randint(1, 200)))
        self.check(S, random_rules(rng, 120, MASKS))
        self.check(S, gen_rules(seed, 400, S, TupleProfile(
            num_masks=24, num_chains=4, loose_masks=4)).rules)

    def test_matches_per_rule_inserts_on_a_64_mask_chain(self):
        # nested masks of the low 1..64 bits: a fresh key leaves a trail
        # of markers that stops at the first existing entry, whose hint
        # the markers take
        schema = FieldSchema((64,))
        rng = random.Random(7)
        rules = []
        for i in range(64):
            m = (1 << (i + 1)) - 1
            for f in {rng.getrandbits(64) & m for _ in range(12)}:
                rules.append(Rule(f, m, rng.randrange(100), len(rules)))
        filled = self.check(schema, rules)
        (chain,) = filled.chains
        assert chain.tuple_count == 64
        assert chain.touches.marker > len(rules)
        assert any(e.rule is None and e.hint is not None
                   for t in chain.tuples for e in t.table.values())

    def test_fill_without_a_cover_has_the_ceiling_order_bound(self):
        # seven masks whose minimum path cover has bound 6 in this order
        # and 7 in ceiling order, the one fill lays out
        masks = [0xFA96, 0x7A12, 0x5BDF, 0x1002, 0xA6F9, 0xE0AA, 0x7F87]
        pri = [21, 23, 44, 38, 17, 34, 39]
        by_mask = {m: [Rule(0, m, p, i)]
                   for i, (m, p) in enumerate(zip(masks, pri))}
        assert cover_bound(masks) == 6
        filled = ChainSet()
        filled.fill(by_mask)
        assert filled.probe_bound() == cover_bound(ceiling_order(by_mask)) == 7

    @pytest.mark.parametrize("seed", range(4))
    def test_fill_without_a_cover_matches_cover_bound(self, seed):
        rng = random.Random(seed)
        for rules in (random_rules(rng, 150), random_rules(rng, 80, MASKS)):
            by_mask = {}
            for r in rules:
                by_mask.setdefault(r.mask, []).append(r)
            filled = ChainSet()
            filled.fill(by_mask)
            assert filled.probe_bound() == cover_bound(ceiling_order(by_mask))


class TestOrderAudit:
    def test_reversed_chains_are_flagged(self):
        rng = random.Random(3)
        c = TupleChainClassifier.build(S, random_rules(rng, 60, MASKS))
        assert len(c.chains) == 2 and c.audit() == []
        assert c.chains[0].top > c.chains[1].top
        c.chains.reverse()
        assert c.audit() == ["group 0, head 0x0: chains out of ceiling order"]

    def test_empty_tuple_is_flagged(self):
        # a removal drops every tuple it empties, so one left in a chain
        # is a fault; every lookup would still probe it
        c = TupleChainClassifier.build(S, [Rule(pk(0x80, 0), pk(0xC0, 0),
                                                1, 1)])
        (chain,) = c.chains
        t = TupleTable(pk(0xF0, 0))
        chain.insert_tuple(t, 1)
        c.registry[t.mask] = c._mask_to_group[t.mask] = t
        # the empty tuple still counts towards the bound it costs
        assert c.probe_bound() == chain.probe_bound() == 2
        assert c.audit() == [
            f"group 0, head 0x0: tuple {t.mask:#x} holds no entries"]


    def test_tuple_naming_another_chain_is_flagged(self):
        # the registry reaches a tuple's chain through ``t.chain``; a
        # tuple that names a chain which does not hold it is stale
        rng = random.Random(3)
        c = TupleChainClassifier.build(S, random_rules(rng, 60, MASKS))
        first, second = c.chains
        t = first.tuples[0]
        t.chain = second
        assert c.audit() == [
            f"group 0, head 0x0: chain 0: tuple {t.mask:#x} names another "
            "chain",
            f"group 0, head 0x0: registry entry {t.mask:#x} is stale"]


class TestStats:
    def test_counts_are_consistent(self):
        rng = random.Random(9)
        rules = random_rules(rng, 60, mask_pool=MASKS)
        c = TupleChainClassifier.build(S, rules)
        st = c.stats()
        assert st.rule_count == len(rules)
        sizes = [ch.tuple_count for ch in c.chains]
        assert st.tuple_count == sum(sizes)
        assert st.max_chain_tuples == max(sizes)
        assert st.entry_total >= st.rule_count
        assert st.memory_bytes > 0 and st.group_count == 0

    def test_entry_total_within_space_bound(self):
        rng = random.Random(10)
        for _ in range(10):
            rules = random_rules(rng, rng.randint(1, 80), mask_pool=MASKS)
            c = TupleChainClassifier.build(S, rules)
            for chain in c.chains:
                entries = sum(len(t.table) for t in chain.tuples)
                assert entries <= chain.rule_count * chain.tuple_count
