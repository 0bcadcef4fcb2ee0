import functools
import importlib
import itertools
import random
from pathlib import Path

import pytest

from tuplechain import classifier, etc
from tuplechain.baselines import linear_lookup
from tuplechain.chain import DuplicateRuleError
from tuplechain.classifier import (ChainSet, TupleChainClassifier, check_rule,
                                   cover_bound)
from tuplechain.etc import (EtcClassifier, GroupPlan, _Group, _HeadEntry,
                            group_chains)
from tuplechain.graph import build_graph, min_path_cover
from tuplechain.model import FieldSchema, Rule
from tuplechain.workload import parse_classbench

from pruned import etc_walk

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

S = FieldSchema((8, 8))


def pk(a, b):
    return S.pack((a, b))


def rules_per_tuple(chain):
    """How many of each tuple's entries hold a rule, head first."""
    return [sum(e.rule is not None for e in t.table.values())
            for t in chain.tuples]


M1, M2, M3, M4 = (pk(0x80, 0x80), pk(0xC0, 0xC0), pk(0xE0, 0x80),
                  pk(0xF0, 0xA8))

WALK_RULES = [
    Rule(pk(0x00, 0x80), M1, 10, 1),
    Rule(pk(0x00, 0xC0), M2, 20, 2),
    Rule(pk(0x20, 0x80), M3, 50, 5),
    Rule(pk(0x20, 0xA8), M4, 60, 6),
]


class TestGrouping:
    def test_walkthrough_merges_to_one_group(self):
        pc = min_path_cover(build_graph([M1, M2, M3, M4]))
        plans = group_chains(pc, [M1, M2, M3, M4], min_head_bits=2)
        assert len(plans) == 1
        assert plans[0].head_mask == pk(0x80, 0x80)
        assert plans[0].member_masks == frozenset({M1, M2, M3, M4})

    def test_high_threshold_blocks_all_merges(self):
        pc = min_path_cover(build_graph([M1, M2, M3, M4]))
        plans = group_chains(pc, [M1, M2, M3, M4], min_head_bits=5)
        assert len(plans) == pc.chain_count == 2

    def test_zero_threshold_always_single_group(self):
        masks = [pk(0xF0, 0x00), pk(0x00, 0x0F)]  # disjoint masks
        pc = min_path_cover(build_graph(masks))
        plans = group_chains(pc, masks, min_head_bits=0)
        assert len(plans) == 1
        assert plans[0].head_mask == 0

    def test_masks_must_match_the_graph(self):
        pc = min_path_cover(build_graph([M1, M2, M3, M4]))
        for masks in ([M1, M2, M3], [M1, M2, M3, M4, pk(1, 1)],
                      [M1, M2, M3, M3]):
            with pytest.raises(ValueError):
                group_chains(pc, masks, min_head_bits=2)
        # any order of the same masks is accepted
        assert group_chains(pc, [M4, M2, M1, M3], 2) == \
            group_chains(pc, [M1, M2, M3, M4], 2)

    def test_negative_threshold_rejected(self):
        pc = min_path_cover(build_graph([M1]))
        with pytest.raises(ValueError):
            group_chains(pc, [M1], min_head_bits=-1)

    def test_head_mask_contained_in_every_member(self):
        rng = random.Random(6)
        masks = rng.sample(range(1, 2**16), 25)
        pc = min_path_cover(build_graph(masks))
        chains = [frozenset(p) for p in pc.mask_paths()]
        for plan in group_chains(pc, masks, min_head_bits=3):
            for m in plan.member_masks:
                assert plan.head_mask & m == plan.head_mask
            if plan.member_masks not in chains:  # an actual merge happened
                assert plan.head_mask.bit_count() >= 3


def reference_group_chains(pc, min_head_bits):
    """Frozen copy of the first greedy, which recounted crossings and
    recomputed heads for every pair on every pass.  Only the
    differential tests below use it, as the reference for the plans."""
    g = pc.graph
    idx = {m: i for i, m in enumerate(g.vertices)}
    edges = {(i, j) for i, outs in enumerate(g.adj) for j in outs}
    groups = [set(idx[m] for m in path) for path in pc.mask_paths()]

    def head(members):
        out = ~0
        for i in members:
            out &= g.vertices[i]
        return out

    while True:
        best = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                merged = head(groups[a] | groups[b])
                if merged.bit_count() < min_head_bits:
                    continue
                cross = sum(1 for i in groups[a] for j in groups[b]
                            if (i, j) in edges or (j, i) in edges)
                score = (cross, merged.bit_count())
                if best is None or score > best[0]:
                    best = (score, a, b)
        if best is None:
            break
        _, a, b = best
        groups[a] |= groups[b]
        del groups[b]
    return [GroupPlan(head(g_), frozenset(g.vertices[i] for i in g_))
            for g_ in groups]


def tied_masks(rng):
    """A 16-bit mask set built to tie: one small pattern copied into two
    or three of the low nibbles over a shared high-nibble base, so chain
    pairs repeat the same crossing count and head popcount, plus a few
    masks that span the copies."""
    base = rng.randrange(16) << 12
    pattern = rng.sample([m for m in range(1, 16)
                          if m.bit_count() <= rng.choice((2, 3))],
                         rng.randint(2, 6))
    copies = rng.sample(range(3), rng.randint(2, 3))
    masks = {base | m << 4 * c for m in pattern for c in copies}
    for _ in range(rng.randint(0, 3)):
        masks.add(functools.reduce(
            int.__or__, (rng.choice(pattern) << 4 * c for c in copies),
            base))
    return sorted(masks)


def best_score_ties(pc, min_head_bits):
    """Chain pairs sharing the first pass's best (crossings, bits)."""
    g = pc.graph
    chain_of = {i: c for c, p in enumerate(pc.paths) for i in p}
    heads = [functools.reduce(int.__and__, (g.vertices[i] for i in p))
             for p in pc.paths]
    scores = []
    for a, b in itertools.combinations(range(len(pc.paths)), 2):
        bits = (heads[a] & heads[b]).bit_count()
        if bits >= min_head_bits:
            cross = sum(1 for i, outs in enumerate(g.adj) for j in outs
                        if {chain_of[i], chain_of[j]} == {a, b})
            scores.append((cross, bits))
    return scores.count(max(scores)) if scores else 0


class TestGroupingMatchesReference:
    def test_tied_random_covers(self):
        rng = random.Random(70)
        mergeable = tied = 0
        for _ in range(200):
            masks = tied_masks(rng)
            pc = min_path_cover(build_graph(masks))
            for bits in range(S.total_width + 2):
                assert group_chains(pc, masks, bits) == \
                    reference_group_chains(pc, bits)
                ties = best_score_ties(pc, bits)
                mergeable += ties > 0
                tied += ties > 1
        # the covers really exercise tie-breaking: in most cases with a
        # merge to take, the first pass has several equal best pairs
        assert tied > mergeable / 2 > 200

    def test_nested_random_covers(self):
        # masks over a few bits nest often, so chains cross in uneven
        # counts and later passes read merged rows and columns
        rng = random.Random(72)
        for _ in range(300):
            bits = rng.sample(range(16), rng.randint(1, 9))
            p = rng.choice((0.3, 0.5, 0.7))
            masks = list({sum(1 << b for b in bits if rng.random() < p)
                          for _ in range(rng.randint(1, 40))})
            rng.shuffle(masks)
            pc = min_path_cover(build_graph(masks))
            for min_bits in range(S.total_width + 2):
                assert group_chains(pc, masks, min_bits) == \
                    reference_group_chains(pc, min_bits)

    def test_acl_wide_seed_1(self, monkeypatch, tmp_path):
        # the benchmark's own acl-wide rule set, read as the benchmark
        # writes it
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        path = tmp_path / "acl-wide.txt"
        workloads.acl_wide(1).write_rules(path)
        masks = sorted({r.mask for r in parse_classbench(path).rules})
        pc = min_path_cover(build_graph(masks))
        assert len(masks) > 500 and pc.chain_count > 50
        for bits in (0, 4, 16, 105):
            plans = group_chains(pc, masks, bits)
            assert plans == reference_group_chains(pc, bits)
        assert len(group_chains(pc, masks, 4)) > 1


class TestLookup:
    def test_walkthrough_single_head_probe(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        assert c.audit() == []
        assert c.group_count == 1
        grp = c.groups[0]
        assert set(grp.head) == {pk(0x00, 0x80)}  # one colliding key

        res = c.lookup(pk(0x25, 0xA9))  # matches r6, r5 and r1
        assert res.rule is WALK_RULES[3]

        miss = c.lookup(pk(0x25, 0x29))  # fails the head probe
        assert miss.rule is None
        assert miss.probes == 1

    def test_head_probe_beats_inner_chain_count(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        he = next(iter(c.groups[0].head.values()))
        inner_chains = len(he.local.chains)
        assert c.lookup(pk(0x25, 0x29)).probes < 1 + inner_chains

    def test_matches_linear_oracle(self):
        rng = random.Random(50)
        for bits in (0, 2, 6):
            for trial in range(8):
                pool = [rng.getrandbits(16) | 0x8000 for _ in range(6)]
                rules, seen = [], set()
                while len(rules) < 90:
                    m = rng.choice(pool)
                    f = rng.getrandbits(16) & m
                    if (m, f) in seen:
                        continue
                    seen.add((m, f))
                    rules.append(Rule(f, m, rng.randrange(500), len(rules)))
                c = EtcClassifier.build(S, rules, min_head_bits=bits)
                assert c.audit() == []
                for _ in range(250):
                    key = rng.getrandbits(16)
                    assert c.lookup(key).rule is \
                        linear_lookup(rules, key).rule

    def test_probes_are_heads_plus_local_probes_behind_hits(self):
        rng = random.Random(52)
        pool = [rng.getrandbits(16) | 0xC000 for _ in range(8)]
        fresh = [rng.getrandbits(16) & 0x7FFF for _ in range(3)]
        rules, seen = [], set()
        while len(rules) < 200:
            m = rng.choice(pool if len(rules) < 150 else pool + fresh)
            # the top two bits are set wherever the mask holds them, so
            # no head sees more than a quarter of the keys its mask forms
            f = (rng.getrandbits(16) | 0xC000) & m
            if (m, f) not in seen:
                seen.add((m, f))
                rules.append(Rule(f, m, rng.randrange(99), len(rules)))
        c = EtcClassifier.build(S, rules[:150], min_head_bits=3)
        # no plan is a lone mask, and no head-mask-0 group takes in the
        # fresh masks
        assert all(g.head_mask for g in c.groups)
        bulk_groups = c.group_count
        for r in rules[150:]:
            c.insert(r)
        assert c.group_count > bulk_groups   # fresh masks opened groups
        for _ in range(400):
            key = rng.getrandbits(16)
            best, probes, full = etc_walk(c, key)
            res = c.lookup(key)
            assert (res.rule, res.probes) == (best, probes)
            assert res.probes <= full
            assert res.rule is linear_lookup(rules, key).rule

    def test_probe_bound_sums_worst_local_bound_per_group(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        assert c.probe_bound() == sum(
            (g.head_mask != 0)
            + max(sum(ch.probe_bound() for ch in he.local.chains)
                  for he in g.head.values())
            for g in c.groups)
        rng = random.Random(51)
        pool = [rng.getrandbits(16) | 0x8000 for _ in range(10)]
        rules, seen = [], set()
        while len(rules) < 200:
            m = rng.choice(pool)
            f = rng.getrandbits(16) & m
            if (m, f) not in seen:
                seen.add((m, f))
                rules.append(Rule(f, m, rng.randrange(99), len(rules)))
        c = EtcClassifier.build(S, rules, min_head_bits=3)
        bound = c.probe_bound()
        assert all(c.lookup(rng.getrandbits(16)).probes <= bound
                   for _ in range(500))


class TestUpdates:
    @pytest.mark.parametrize("make", [
        lambda: EtcClassifier(S, -3),
        lambda: EtcClassifier.build(S, [], min_head_bits=-1),
        lambda: EtcClassifier.build(S, WALK_RULES, min_head_bits=-1),
    ], ids=["empty", "build-empty", "build"])
    def test_negative_min_head_bits_rejected(self, make):
        with pytest.raises(ValueError, match="min_head_bits"):
            make()

    def test_insert_routes_into_existing_group(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        # a brand-new mask containing the head mask joins the group
        m = pk(0xFC, 0xE0)
        c.insert(Rule(pk(0x84, 0xA0), m, 70, 9))
        assert c.group_count == 1
        assert c._mask_to_group[m] == [c.groups[0], 1]
        assert c.audit() == []

    def test_insert_incomparable_mask_opens_group(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        c.insert(Rule(pk(0x00, 0x03), pk(0x00, 0x03), 5, 9))
        assert c.group_count == 2
        assert c.audit() == []

    def test_duplicate_id_rejected(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        with pytest.raises(DuplicateRuleError):
            c.insert(Rule(0, 0, 1, 6))

    def test_duplicate_id_rejected_by_build(self):
        with pytest.raises(DuplicateRuleError):
            EtcClassifier.build(S, [Rule(pk(0x01, 0), pk(0xFF, 0), 1, 7),
                                    Rule(pk(0x02, 0), pk(0xFF, 0), 2, 7)])

    def test_insert_checks_the_rule_once(self, monkeypatch):
        calls = []

        def counting(schema, r, rule_ids):
            calls.append(r)
            return check_rule(schema, r, rule_ids)

        for mod in (classifier, etc):
            monkeypatch.setattr(mod, "check_rule", counting)
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        # a build checks each rule once too, and only the classifier
        # keeps rule ids: its head entries hold bare chain sets
        assert calls == WALK_RULES
        assert not any(hasattr(he.local, "rule_ids")
                       for g in c.groups for he in g.head.values())
        calls.clear()
        new = [Rule(pk(0x84, 0xA0), pk(0xFC, 0xE0), 70, 9),  # fresh mask
               Rule(pk(0x00, 0x03), pk(0x00, 0x03), 5, 10),  # new group
               Rule(pk(0x80, 0x80), M1, 11, 11)]             # live tuple
        for r in new:
            c.insert(r)
        assert calls == new
        assert c.audit() == []

    def test_remove_to_empty_drops_groups(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        for r in WALK_RULES:
            assert c.remove(r)
        assert c.group_count == 0
        assert not c._mask_to_group and not c.rule_ids

    def test_emptied_group_leaves_the_others_routed(self):
        rng = random.Random(9)
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        other = [Rule(pk(0x00, 0x03), pk(0x00, 0x03), 5, 9),
                 Rule(pk(0x00, 0x0C), pk(0x00, 0x0C), 7, 10),
                 Rule(pk(0x00, 0x0D), pk(0x00, 0x0F), 8, 11)]
        for r in other:
            c.insert(r)
        assert c.group_count == 3 and c.audit() == []
        gone = c._mask_to_group[pk(0x00, 0x0C)][0]
        assert c.remove(other[1])
        assert gone not in c.groups and c.group_count == 2
        assert pk(0x00, 0x0C) not in c._mask_to_group
        assert c.audit() == []
        live = WALK_RULES + [other[0], other[2]]
        for r in live:
            assert c._mask_to_group[r.mask][0] in c.groups
        for _ in range(300):
            key = rng.getrandbits(16)
            assert c.lookup(key).rule is linear_lookup(live, key).rule

    @pytest.mark.parametrize("neighbour, head_keeps", [
        (False, False), (True, False), (False, True), (True, True)],
        ids=["False", "True", "False-head-keeps", "True-head-keeps"])
    def test_one_remove_empties_a_whole_chain(self, neighbour, head_keeps):
        # two base masks under the sparse head 0x0F00, and three nested
        # masks that hold that head but are comparable with neither base
        # mask, so in ETC they join the base group under a head entry of
        # their own and in tc they open a chain of their own.  The last
        # rule's marker trail runs through the first two rules' entries,
        # so once those rules go, removing it empties all three tuples.
        # If the head tuple keeps its rule, the same remove empties only
        # the two tail tuples, and the chain and head entry stay
        a, b, c3 = pk(0xFF, 0), pk(0xFF, 0x80), pk(0xFF, 0xC0)
        lo, hi = pk(0x0F, 0x0F), pk(0x0F, 0xF0)
        key = pk(0x03, 0)   # the trail's head key
        base = [Rule(pk(0x05, 0x05), lo, 5, 1),
                Rule(pk(0x06, 0x50), hi, 5, 3)]
        trail = [Rule(pk(0xA3, 0), a, 1, 10),
                 Rule(pk(0xA3, 0x80), b, 2, 11),
                 Rule(pk(0xA3, 0xC0), c3, 3, 12)]
        tc = TupleChainClassifier.build(S, base)
        e = EtcClassifier.build(S, base)
        (grp,) = e.groups
        assert grp.head_mask == pk(0x0F, 0) and len(grp.head) == 2
        # a neighbour head entry for mask a, under another key
        extra = [Rule(pk(0x54, 0), a, 4, 2)] if neighbour else []
        for r in extra:
            e.insert(r)
        for r in trail:
            tc.insert(r)
            e.insert(r)
        kept = trail[:1] if head_keeps else []
        for r in trail[len(kept):2]:
            assert tc.remove(r) and e.remove(r)
        (chain,) = [ch for ch in tc.chains if ch.tuples[0].mask == a]
        counts = [len(kept), 0, 1]
        assert rules_per_tuple(chain) == counts
        assert e.groups == [grp] and e._mask_to_group[c3][0] is grp
        he = grp.head[key]
        assert rules_per_tuple(he.chains[0]) == counts
        # tc: two one-tuple chains and the three-tuple chain, height 2;
        # ETC: the head probe and the trail's entry, the worst behind it
        assert tc.probe_bound() == 1 + 1 + 2 and he.local.probe_bound() == 2
        assert e.probe_bound() == 1 + 2
        assert tc.remove(trail[2]) and e.remove(trail[2])
        if head_keeps:
            assert chain in tc.chains and set(tc.registry) == {lo, hi, a}
            assert [t.mask for t in chain.tuples] == [a]
            assert grp.head[key] is he
            assert [t.mask for t in he.chains[0].tuples] == [a]
            assert he.local.probe_bound() == 1
            assert set(he.local.registry) == {a}
        else:
            assert chain not in tc.chains and set(tc.registry) == {lo, hi}
            assert key not in grp.head
        # the base entries, the neighbour's and a kept trail entry each
        # hold one tuple now
        assert e.groups == [grp]
        assert set(grp.head) == {pk(0x05, 0), pk(0x06, 0)} \
            | ({pk(0x04, 0)} if neighbour else set()) \
            | ({key} if head_keeps else set())
        assert e.probe_bound() == 1 + 1
        for clf, live in ((tc, base + kept), (e, base + extra + kept)):
            assert clf.audit() == []
            assert clf.probe_bound() == \
                type(clf).build(S, live).probe_bound()
        assert tc.probe_bound() == sum(ch.probe_bound() for ch in tc.chains)
        assert e.probe_bound() == sum(
            (g.head_mask != 0)
            + max(sum(ch.probe_bound() for ch in h.local.chains)
                  for h in g.head.values())
            for g in e.groups)

    def test_route_lives_as_long_as_its_mask_holds_rules(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        assert {m: n for m, (_, n) in c._mask_to_group.items()} == \
            {M1: 1, M2: 1, M3: 1, M4: 1}
        m = pk(0xFC, 0xE0)
        fresh = [Rule(pk(0x84, 0xA0), m, 70, 9),
                 Rule(pk(0x88, 0xA0), m, 71, 10)]
        for r in fresh:
            c.insert(r)
        assert c._mask_to_group[m] == [c.groups[0], 2]
        assert c.remove(fresh[0])
        assert c._mask_to_group[m] == [c.groups[0], 1]
        assert c.remove(fresh[1])
        assert m not in c._mask_to_group and c.audit() == []
        assert c.remove(WALK_RULES[0])     # a mask of the bulk build
        assert M1 not in c._mask_to_group and c.audit() == []
        c.insert(WALK_RULES[0])            # comes back through routing
        assert c._mask_to_group[M1] == [c.groups[0], 1]
        assert c.audit() == []

    def test_churn_leaves_one_route_per_live_mask(self):
        rng = random.Random(12)
        masks = [M1, M2, M3, M4, pk(0xFC, 0xE0), pk(0x00, 0x03),
                 pk(0x0C, 0x30)]
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        live, rid = list(WALK_RULES), 100
        for _ in range(600):
            if live and rng.random() < 0.5:
                assert c.remove(live.pop(rng.randrange(len(live))))
            else:
                m = rng.choice(masks)
                f = rng.getrandbits(16) & m
                if any(x.mask == m and x.fields == f for x in live):
                    continue
                live.append(Rule(f, m, rng.randrange(100), rid))
                c.insert(live[-1])
                rid += 1
            per_mask = {}
            for r in live:
                per_mask[r.mask] = per_mask.get(r.mask, 0) + 1
            assert c._mask_to_group.keys() == per_mask.keys()
            assert {m: n for m, (_, n) in c._mask_to_group.items()} == \
                per_mask
        assert c.audit() == []

    def test_remove_absent(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        assert not c.remove(Rule(pk(0x80, 0x00), M1, 1, 99))
        assert not c.remove(Rule(0, pk(0x01, 0x01), 1, 99))

    def test_churn_matches_oracle(self):
        rng = random.Random(8)
        c = EtcClassifier(S, min_head_bits=2)
        live, rid = [], 0
        for step in range(1200):
            if live and rng.random() < 0.45:
                r = live.pop(rng.randrange(len(live)))
                assert c.remove(r)
            else:
                m = rng.choice([M1, M2, M3, M4, pk(0x0C, 0x30)])
                f = rng.getrandbits(16) & m
                if any(x.mask == m and x.fields == f for x in live):
                    continue
                r = Rule(f, m, rng.randrange(100), rid)
                rid += 1
                c.insert(r)
                live.append(r)
            if step % 200 == 199:
                assert c.audit() == []
                for _ in range(40):
                    key = rng.getrandbits(16)
                    assert c.lookup(key).rule is \
                        linear_lookup(live, key).rule


# A full head and a sparse one: FULL_MASKS nest under head 0x0300, whose
# four keys all occur, and SPARSE_MASKS under head 0x00F0, whose rules
# all set bits 0x00C0, so at most a quarter of its keys occur.  With
# min_head_bits=3 the two chains do not merge (their heads share no bit).
FULL_MASKS = [pk(0x03, 0), pk(0x0F, 0), pk(0x3F, 0), pk(0xFF, 0)]
SPARSE_MASKS = [pk(0, 0xF0), pk(0, 0xFC), pk(0, 0xFF)]


def folding_rules(rng, masks, n, live):
    taken = {(r.mask, r.fields) for r in live}
    out = []
    while len(out) < n:
        m = rng.choice(masks)
        f = (rng.getrandbits(16) | 0x00C0) & m
        if (m, f) not in taken:
            taken.add((m, f))
            out.append(Rule(f, m, rng.randrange(99), len(live) + len(out)))
    return out


class TestHeadMaskZeroGroup:
    """Groups whose head saves less than it costs fold into one
    head-mask-0 group, which a lookup takes without a head probe."""

    @staticmethod
    def build(seed):
        rng = random.Random(seed)
        rules = folding_rules(rng, FULL_MASKS + SPARSE_MASKS, 120, [])
        c = EtcClassifier.build(S, rules, min_head_bits=3)
        masks = sorted({r.mask for r in rules})
        plans = group_chains(min_path_cover(build_graph(masks)), masks, 3)
        assert sorted(p.head_mask for p in plans) == [pk(0, 0xF0),
                                                       pk(0x03, 0)]
        # the full plan's place now holds the head-mask-0 group
        assert [g.head_mask for g in c.groups] == [
            0 if p.head_mask == pk(0x03, 0) else p.head_mask for p in plans]
        return rng, rules, c

    @staticmethod
    def check(c, live, rng):
        assert c.audit() == []
        for i in range(40):
            key = rng.getrandbits(16)
            if live and i % 2:
                r = rng.choice(live)
                key = r.fields | key & ~r.mask
            res = c.lookup(key)
            best, probes, _ = etc_walk(c, key)
            assert res.rule is best is linear_lookup(live, key).rule
            assert res.probes == probes <= c.probe_bound()

    @pytest.mark.parametrize("seed", range(3))
    def test_build_inserts_and_removes_match_the_oracle(self, seed):
        rng, live, c = self.build(seed)
        self.check(c, live, rng)
        zero = next(g for g in c.groups if not g.head_mask)
        assert set(zero.head[0].local.registry) == set(FULL_MASKS)
        # fresh masks: one holds the sparse head and joins its group,
        # the others hold no filtering head and join the head-mask-0 group
        fresh = [pk(0x03, 0xF0), pk(0x0C, 0x03), pk(0, 0x0F)]
        for r in folding_rules(rng, FULL_MASKS + SPARSE_MASKS + fresh,
                               60, live):
            c.insert(r)
            live.append(r)
            self.check(c, live, rng)
        assert c.group_count == 2
        assert c._mask_to_group[pk(0x03, 0xF0)][0].head_mask == pk(0, 0xF0)
        rng.shuffle(live)
        while live:
            assert c.remove(live.pop())
            self.check(c, live, rng)
        assert c.groups == [] and c._mask_to_group == {}

    def test_fresh_mask_without_a_filtering_head_joins_it(self):
        _, _, c = self.build(0)
        zero = next(g for g in c.groups if not g.head_mask)
        groups = list(c.groups)
        m = pk(0x0C, 0x03)
        c.insert(Rule(pk(0x04, 0x01), m, 50, 999))
        assert c.groups == groups
        # no route: the mask's entry is its tuple in the flat set, which
        # holds the one rule
        t = zero.head[0].local.registry[m]
        assert c._mask_to_group[m] is t
        assert [e.rule.rule_id for e in t.table.values() if e.rule] == [999]
        assert c.audit() == []

    def test_full_head_over_one_mask_per_entry_keeps_its_head(self):
        # one chain of four masks under head 0xC000, whose four keys
        # each hold one mask's rule: a single cover would need 3 probes
        # where the head and a one-tuple local need 2
        masks = [pk(0xC0, 0), pk(0xF0, 0), pk(0xFC, 0), pk(0xFF, 0)]
        rules = [Rule(pk(k << 6, 0), m, 10 + k, k)
                 for k, m in enumerate(masks)]
        c = EtcClassifier.build(S, rules, min_head_bits=0)
        assert [g.head_mask for g in c.groups] == [pk(0xC0, 0)]
        assert len(c.groups[0].head) == 4   # every key: the head is full
        assert cover_bound(masks) == 3 > c.probe_bound() == 2
        assert c.audit() == []
        for key in range(0, 1 << 16, 97):
            assert c.lookup(key).rule is linear_lookup(rules, key).rule


# three nested masks under head 0x00F0 (4 bits): a cover over them has
# probe bound 2, and so has each head entry that holds all three
NEST = [pk(0, 0xF0), pk(0, 0xFC), pk(0, 0xFF)]


def nested_rules(n, every_mask):
    """Rules under the first n of NEST's 16 head keys: each key holds
    all three masks, or only mask ``k % 3``."""
    return [Rule(pk(0, k << 4 | low), m, 10 * k + i, 3 * k + i)
            for k in range(n)
            for i, (m, low) in enumerate(zip(NEST, (0, 4, 5)))
            if every_mask or i == k % 3]


def same_as_tc(c, tc, keys):
    for key in keys:
        a, b = c.lookup(key), tc.lookup(key)
        assert (a.rule, a.probes) == (b.rule, b.probes), hex(key)


class TestFold:
    """A planned group with a b-bit head and n head entries folds into
    the head-mask-0 group when 2^b * own <= 2^b + n * local."""

    @pytest.mark.parametrize("n, every_mask, folds", [
        (16, True, True), (15, True, True), (8, True, True),
        (7, True, False), (16, False, True), (15, False, False),
        (8, False, False)])
    def test_head_at_least_half_full_folds_by_the_inequality(
            self, n, every_mask, folds):
        # own = 2; local = 2 where every key holds every mask, else 1
        rules = nested_rules(n, every_mask)
        own = cover_bound(NEST)
        local = cover_bound(NEST if every_mask else NEST[:1])
        assert folds == (16 * own <= 16 + n * local)
        c = EtcClassifier.build(S, rules)
        (g,) = c.groups
        assert g.head_mask == (0 if folds else pk(0, 0xF0))
        assert len(g.head) == (1 if folds else n)
        assert c.audit() == []
        tc = TupleChainClassifier.build(S, rules)
        if folds:
            assert c.probe_bound() == tc.probe_bound() == own
            same_as_tc(c, tc, range(0, 1 << 16, 7))
        else:
            assert c.probe_bound() == 1 + local
        for key in range(0, 1 << 16, 7):
            assert c.lookup(key).rule is linear_lookup(rules, key).rule

    def test_sparse_plan_of_two_masks_keeps_its_head(self):
        # 3 of 256 keys under head 0xFF00, the two masks nested
        rules = [Rule(pk(k, 0), pk(0xFF, 0), k, k) for k in (1, 2)] + \
            [Rule(pk(3, 0x30), pk(0xFF, 0xF0), 3, 3)]
        c = EtcClassifier.build(S, rules)
        assert [(g.head_mask, len(g.head)) for g in c.groups] == \
            [(pk(0xFF, 0), 3)]
        assert c.probe_bound() == 1 + 1
        assert c.lookup(pk(9, 0x30)).probes == 1   # the head misses
        assert c.lookup(pk(3, 0x31)).rule is rules[2]

    def test_sparse_plan_of_one_mask_folds(self):
        # 3 of 256 keys, but a head probe would stand in front of the
        # one tuple probe it saves
        rules = [Rule(pk(k, 0), pk(0xFF, 0), k, k) for k in (1, 2, 3)]
        c = EtcClassifier.build(S, rules)
        assert [(g.head_mask, list(g.head)) for g in c.groups] == [(0, [0])]
        assert c.probe_bound() == 1
        miss, hit = c.lookup(pk(9, 9)), c.lookup(pk(2, 9))
        assert (miss.rule, miss.probes) == (None, 1)   # no head probe
        assert (hit.rule, hit.probes) == (rules[1], 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_plan_folded_searches_as_tc(self, seed):
        # a full head over FULL_MASKS and two lone masks, one plan each
        rng = random.Random(seed)
        lone = [pk(0, 0x0F), pk(0, 0xF0)]
        live = folding_rules(rng, FULL_MASKS + lone, 150, [])
        c = EtcClassifier.build(S, live)
        tc = TupleChainClassifier.build(S, live)
        masks = sorted({r.mask for r in live})
        assert len(group_chains(min_path_cover(build_graph(masks)), masks,
                                c.min_head_bits)) == 3
        assert [g.head_mask for g in c.groups] == [0]
        assert c.probe_bound() == tc.probe_bound()
        same_as_tc(c, tc, range(1 << 16))
        # an update stream over the same masks and a fresh one, which
        # joins the head-mask-0 group's chain set as it joins tc's
        next_id = len(live)
        for step in range(150):
            if rng.random() < 0.4:
                r = live.pop(rng.randrange(len(live)))
                assert c.remove(r) and tc.remove(r)
            else:
                (r,) = folding_rules(rng, FULL_MASKS + lone + [pk(0x0C, 3)],
                                     1, live)
                r = Rule(r.fields, r.mask, r.priority, next_id)
                next_id += 1
                c.insert(r)
                tc.insert(r)
                live.append(r)
            if step % 50 == 49:
                assert c.audit() == [] and tc.audit() == []
                assert c.probe_bound() == tc.probe_bound()
                same_as_tc(c, tc, (rng.getrandbits(16) for _ in range(300)))
        assert c.group_count == 1
        same_as_tc(c, tc, range(1 << 16))
        for key in range(0, 1 << 16, 13):
            assert c.lookup(key).rule is linear_lookup(live, key).rule


class TestAudit:
    @staticmethod
    def two_groups():
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        c.insert(Rule(pk(0x00, 0x03), pk(0x00, 0x03), 5, 9))
        assert c.group_count == 2 and c.audit() == []
        return c

    def test_phantom_rule_id_is_flagged(self):
        c = self.two_groups()
        c.rule_ids.add(99)
        assert c.audit() == ["rule id set out of sync"]

    def test_repeated_rule_id_is_flagged(self):
        c = self.two_groups()
        # a second rule 9, filed in the head entry routing gives it
        r = Rule(pk(0x00, 0x02), pk(0x00, 0x03), 6, 9)
        c.groups[1].head[r.fields] = _HeadEntry(
            TupleChainClassifier.build(S, [r]))
        # rule 9 outranks the group's ceiling of 5 as well, and its
        # mask's route counts one rule
        assert c.audit() == [f"mask {r.mask:#x}: route counts 1 of 2 "
                             "stored rules",
                             f"group 1, head {r.fields:#x}: local ceiling "
                             "above the group's 5", "rule id stored twice"]

    def test_mask_routed_to_another_group_is_flagged(self):
        c = self.two_groups()
        c._mask_to_group[M1][0] = c.groups[1]
        assert c.audit() == [
            f"group 1: head mask not contained in member {M1:#x}",
            "group 0: rule 1 mask routed to another group"]

    def test_empty_group_is_flagged(self):
        # two masks under the sparse head 0xFF00, which keeps its probe
        c = EtcClassifier.build(S, [Rule(0x0100, 0xFF00, 1, 1),
                                    Rule(0x0210, 0xFFF0, 1, 2)])
        assert [g.head_mask for g in c.groups] == [0xFF00]
        grp = _Group(0x00F0)
        c.groups.append(grp)
        c._mask_to_group[0x00F0] = [grp, 0]
        assert c.probe_bound() == 3
        assert c.audit() == ["mask 0xf0: route counts 0 of 0 stored rules",
                             "group 1: holds no head entries"]

    def test_route_to_a_dropped_group_is_flagged(self):
        c = self.two_groups()
        c._mask_to_group[pk(0x00, 0x0F)] = [_Group(pk(0x00, 0x03)), 0]
        assert c.audit() == [f"mask {pk(0x00, 0x0F):#x} routed to a "
                             "dropped group",
                             f"mask {pk(0x00, 0x0F):#x}: route counts 0 of "
                             "0 stored rules"]

    def test_empty_head_entry_is_flagged(self):
        c = self.two_groups()
        c.groups[1].head[pk(0x00, 0x02)] = _HeadEntry(ChainSet())
        assert c.audit() == [f"group 1, head {pk(0x00, 0x02):#x}: holds "
                             "no rules"]

    def test_route_count_out_of_step_is_flagged(self):
        c = self.two_groups()
        c._mask_to_group[M1][1] += 1
        assert c.audit() == [f"mask {M1:#x}: route counts 2 of 1 stored "
                             "rules"]

    def test_route_without_rules_is_flagged(self):
        c = self.two_groups()
        c._mask_to_group[pk(0xFC, 0xE0)] = [c.groups[0], 0]
        assert c.audit() == [f"mask {pk(0xFC, 0xE0):#x}: route counts 0 of "
                             "0 stored rules"]

    def test_stale_head_entry_chains_are_flagged(self):
        c = self.two_groups()
        he = c.groups[0].head[pk(0x00, 0x80)]
        he.chains = list(he.chains)
        assert c.audit() == [f"group 0, head {pk(0x00, 0x80):#x}: chains "
                             "are not the local chain set's"]


class TestReporting:
    def test_all_rules_round_trip(self):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        assert sorted(r.rule_id for r in c.all_rules()) == [1, 2, 5, 6]

    @pytest.mark.parametrize("extra", [0, 3])
    def test_stats_sum_the_heads_and_the_locals(self, extra):
        c = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        for i in range(extra):   # a second group
            c.insert(Rule(pk(0x00, i), pk(0x00, 0x03), 5, 9 + i))
        local = [he.local.stats(S.total_width)
                 for g in c.groups for he in g.head.values()]
        heads = sum(len(g.head) for g in c.groups)
        key_bytes = (S.total_width + 7) // 8
        st = c.stats()
        assert st.group_count == c.group_count == len(c.groups)
        assert st.rule_count == len(WALK_RULES) + extra
        assert st.rule_count == sum(s.rule_count for s in local)
        assert st.tuple_count == c.group_count + sum(
            s.tuple_count for s in local)
        assert st.chain_count == sum(s.chain_count for s in local)
        assert st.entry_total == heads + sum(s.entry_total for s in local)
        assert st.owner_link_total == sum(s.owner_link_total for s in local)
        assert st.max_chain_tuples == max(s.max_chain_tuples for s in local)
        assert st.memory_bytes == (c.group_count * (key_bytes + 32)
                                   + heads * (key_bytes + 16)
                                   + sum(s.memory_bytes for s in local))

    def test_memory_positive_and_grows(self):
        small = EtcClassifier.build(S, WALK_RULES[:1], min_head_bits=2)
        full = EtcClassifier.build(S, WALK_RULES, min_head_bits=2)
        assert 0 < small.stats().memory_bytes < full.stats().memory_bytes
