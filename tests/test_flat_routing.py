"""ETC's flat group: masks behind head mask 0 have no route.

``EtcClassifier._mask_to_group`` maps a mask behind a nonzero head to
its route, ``[group, live rule count]``, and a mask of the head-mask-0
("flat") group to its tuple in that group's one chain set, for as long
as the set registers the tuple.  Two stateful differentials drive ETC
next to the linear oracle and tc: over an ETC whose build folds every
plan, where ETC's flat chain set must stay tc's chains exactly (masks,
ceilings and marker and hint touch counts) and every lookup must cost
tc's probes, and over a mixed one, a flat group beside a headed group.
The named cases below cover each path of the routing on its own, and
the audit cases break the dispatch one way at a time.
"""

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from tuplechain.baselines import LinearClassifier
from tuplechain.chain import _Group
from tuplechain.classifier import TupleChainClassifier
from tuplechain.etc import EtcClassifier
from tuplechain.model import FieldSchema, Rule
from tuplechain.tuple_store import TupleTable

from pruned import etc_walk

S = FieldSchema((8, 8))


def pk(a, b):
    return S.pack((a, b))


# A full head and a sparse one: FULL nests under head 0x0300, whose four
# keys all occur, so its plan folds into head mask 0; SPARSE nests under
# head 0x00F0, and its rules all set bits 0x00C0, so at most a quarter
# of that head's keys occur and it keeps its head (min_head_bits=3).
FULL = [pk(0x03, 0), pk(0x0F, 0), pk(0x3F, 0), pk(0xFF, 0)]
SPARSE = [pk(0, 0xF0), pk(0, 0xFC), pk(0, 0xFF)]
# fresh masks: the first holds the sparse head and routes to its group,
# the others hold no head but 0 and join the flat set
TO_HEADED = pk(0x03, 0xF0)
TO_FLAT = [pk(0x0C, 0x03), pk(0, 0x0F), pk(0x07, 0)]

KEYS = st.integers(0, (1 << S.total_width) - 1)


def draw_rules(rng, masks, n, live, first_id):
    """n rules over masks, none repeating a (mask, fields) of live; the
    fields set bits 0x00C0 wherever the mask has them."""
    taken = {(r.mask, r.fields) for r in live}
    out = []
    while len(out) < n:
        m = rng.choice(masks)
        f = (rng.getrandbits(16) | 0x00C0) & m
        if (m, f) not in taken:
            taken.add((m, f))
            out.append(Rule(f, m, rng.randrange(99), first_id + len(out)))
    return out


def mixed(seed):
    """An ETC over FULL and SPARSE: a flat group and a headed one."""
    rng = random.Random(seed)
    rules = draw_rules(rng, FULL + SPARSE, 120, [], 0)
    c = EtcClassifier.build(S, rules, min_head_bits=3)
    assert sorted(g.head_mask for g in c.groups) == [0, pk(0, 0xF0)]
    return rng, rules, c


def flat_set(c):
    return c._flat.head[0].local


def headed(c):
    (grp,) = [g for g in c.groups if g.head_mask]
    return grp


def dispatch_matches(c):
    """Each flat tuple is entered under its mask, every other entry is
    a route to a headed group, and no mask is both."""
    flat = flat_set(c).registry if c._flat is not None else {}
    tuples = {m: t for m, t in c._mask_to_group.items()
              if t.__class__ is TupleTable}
    assert tuples.keys() == flat.keys()
    assert all(t is flat[m] for m, t in tuples.items())
    for m, route in c._mask_to_group.items():
        if m not in flat:
            assert route.__class__ is list and route[0].head_mask
            assert route[1] > 0


def chain_shape(chains):
    """Per chain in search order: its masks, ceiling and touch counts."""
    return [([t.mask for t in ch.tuples], ch.top, ch.touches.marker,
             ch.touches.hint) for ch in chains]


class _Differential(RuleBasedStateMachine):
    """ETC, tc and the linear oracle under the same updates."""

    MASKS: list[int] = []

    def __init__(self):
        super().__init__()
        self.live: dict[tuple[int, int], Rule] = {}
        self.next_id = 1000
        self.etc = self.tc = self.linear = None

    def start(self, rules, min_head_bits):
        for r in rules:
            self.live[(r.fields, r.mask)] = r
        self.etc = EtcClassifier.build(S, rules, min_head_bits)
        self.tc = TupleChainClassifier.build(S, rules)
        self.linear = LinearClassifier.build(S, rules)

    def pick_mask(self, mask):
        return mask

    def clfs(self):
        return (self.etc, self.tc, self.linear)

    def _insert(self, mask, fields, priority):
        r = Rule((fields | 0x00C0) & mask, mask, priority, self.next_id)
        self.next_id += 1
        if (r.fields, r.mask) in self.live:
            return
        for c in self.clfs():
            c.insert(r)
        self.live[(r.fields, r.mask)] = r

    def _remove(self, r):
        for c in self.clfs():
            assert c.remove(r), type(c).__name__
        del self.live[(r.fields, r.mask)]

    @rule(data=st.data(), fields=KEYS, priority=st.integers(0, 60))
    def insert(self, data, fields, priority):
        mask = self.pick_mask(data.draw(st.sampled_from(self.MASKS)))
        self._insert(mask, fields, priority)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        self._remove(data.draw(st.sampled_from(sorted(
            self.live.values(), key=lambda r: r.rule_id))))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def drain(self, data):
        # every rule of one mask: a flat tail tuple leaves the flat set
        # and its entry, a headed mask loses its route
        mask = data.draw(st.sampled_from(sorted({m for _, m in self.live})))
        for r in [r for r in self.live.values() if r.mask == mask]:
            self._remove(r)
        route = self.etc._mask_to_group.get(mask)
        assert route is None or route.__class__ is TupleTable

    @precondition(lambda self: self.etc._flat is not None)
    @rule()
    def drop_flat(self):
        # every rule behind head mask 0: the flat group goes
        flat = {r.rule_id for r in flat_set(self.etc).all_rules()}
        for r in [r for r in self.live.values() if r.rule_id in flat]:
            self._remove(r)
        assert self.etc._flat is None
        assert all(g.head_mask for g in self.etc.groups)
        assert all(v.__class__ is list
                   for v in self.etc._mask_to_group.values())

    @rule(fields=KEYS, priority=st.integers(0, 60))
    def insert_mask_0(self, fields, priority):
        # reopens the flat group if it went; else joins it
        self._insert(0, fields, priority)
        assert self.etc._flat is not None
        assert self.etc._mask_to_group[0] is flat_set(self.etc).registry[0]

    @rule(key=KEYS)
    def lookup(self, key):
        self.check(key)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), noise=KEYS)
    def lookup_hit(self, data, noise):
        r = data.draw(st.sampled_from(sorted(
            self.live.values(), key=lambda r: r.rule_id)))
        self.check(r.fields | (noise & ~r.mask))

    def check(self, key):
        want = self.linear.lookup(key).rule
        res = self.etc.lookup(key)
        assert res.rule == want == self.tc.lookup(key).rule, key
        assert (res.rule, res.probes) == etc_walk(self.etc, key)[:2], key
        assert res.probes <= self.etc.probe_bound()
        return res

    @invariant()
    def clean(self):
        if self.etc is None:
            return
        for c in self.clfs():
            assert c.audit() == [], type(c).__name__
        dispatch_matches(self.etc)


class FoldedDifferential(_Differential):
    """An ETC whose build folds every plan: with min_head_bits=0 the
    plan is one group whose head is the AND of all masks, and a mask-0
    rule makes that 0.  While the flat group lives every fresh mask
    joins it, so ETC is tc; once it goes, the next rule is a mask-0 one
    that reopens it (any other would open a headed group)."""

    MASKS = FULL + SPARSE + TO_FLAT + [TO_HEADED, 0]

    @initialize(seed=st.integers(0, 2**16),
                n=st.integers(0, 40))
    def build(self, seed, n):
        rng = random.Random(seed)
        zero = Rule(0, 0, rng.randrange(60), 0)
        rules = [zero] + draw_rules(rng, self.MASKS, n, [zero], 1)
        self.start(rules, 0)
        assert self.etc.groups == [self.etc._flat]

    def pick_mask(self, mask):
        return mask if self.etc._flat is not None else 0

    def check(self, key):
        res = super().check(key)
        assert res.probes == self.tc.lookup(key).probes, key

    @invariant()
    def is_tc(self):
        if self.etc is None:
            return
        assert self.etc.groups == ([self.etc._flat] if self.tc.chains
                                   else [])
        chains = flat_set(self.etc).chains if self.etc.groups else []
        assert chain_shape(chains) == chain_shape(self.tc.chains)
        assert set(self.etc._mask_to_group) == set(self.tc.registry)
        assert self.etc.probe_bound() == self.tc.probe_bound()
        assert self.etc.stats().entry_total == \
            self.tc.stats().entry_total + len(self.etc.groups)


class MixedDifferential(_Differential):
    """A flat group beside a headed group; fresh masks join each."""

    MASKS = FULL + SPARSE + TO_FLAT + [TO_HEADED]

    @initialize(seed=st.integers(0, 7))
    def build(self, seed):
        _, rules, _ = mixed(seed)
        self.start(rules, 3)


FoldedDifferential.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
MixedDifferential.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestFolded = FoldedDifferential.TestCase
TestMixed = MixedDifferential.TestCase


class TestRoutes:
    def test_build_enters_flat_tuples_and_headed_routes(self):
        _, rules, c = mixed(0)
        grp = headed(c)
        assert set(flat_set(c).registry) == set(FULL)
        for m in FULL:
            assert c._mask_to_group[m] is flat_set(c).registry[m]
        for m in SPARSE:
            n = sum(r.mask == m for r in rules)
            assert c._mask_to_group[m] == [grp, n]
        assert c.audit() == []

    @pytest.mark.parametrize("mask", TO_FLAT)
    def test_fresh_mask_joins_the_flat_set_with_no_route(self, mask):
        rng, live, c = mixed(1)
        groups = list(c.groups)
        new = draw_rules(rng, [mask], 3, live, 500)
        for i, r in enumerate(new):
            c.insert(r)
            t = c._mask_to_group[mask]
            assert t is flat_set(c).registry[mask]
            assert sum(e.rule is not None for e in t.table.values()) == i + 1
        assert c.groups == groups and c.audit() == []

    def test_fresh_mask_under_the_sparse_head_gets_a_route(self):
        rng, live, c = mixed(2)
        r = draw_rules(rng, [TO_HEADED], 1, live, 500)[0]
        c.insert(r)
        assert c._mask_to_group[TO_HEADED] == [headed(c), 1]
        assert TO_HEADED not in flat_set(c).registry
        assert c.audit() == []

    def test_flat_tail_mask_emptied_and_refilled(self):
        _, live, c = mixed(3)
        tail = pk(0xFF, 0)   # FULL's most specific mask: a chain's tail
        gone = [r for r in live if r.mask == tail]
        for r in gone:
            assert c.remove(r)
        # the tuple emptied, so it left the flat set and its entry
        assert tail not in flat_set(c).registry
        assert tail not in c._mask_to_group and c.audit() == []
        for r in gone:
            c.insert(r)
        t = c._mask_to_group[tail]
        assert t is flat_set(c).registry[tail] and c.audit() == []
        for key in range(0, 1 << 16, 97):
            assert c.lookup(key).rule == \
                LinearClassifier.build(S, live).lookup(key).rule

    def test_flat_mask_stays_flat_while_registered(self):
        # X holds the sparse head, yet the build folds it into a flat
        # chain below Y.  Drained, X keeps its tuple, markers only, for
        # Y's entries, so its rules come back to that tuple: routing
        # would send a fresh X to the sparse head's group, the widest
        # head it holds
        x, y = pk(0x0F, 0xF0), pk(0xFF, 0xF0)
        rules = draw_rules(random.Random(0), FULL + SPARSE + [x, y], 150,
                           [], 0)
        c = EtcClassifier.build(S, rules, min_head_bits=3)
        grp = headed(c)
        assert grp.head_mask & x == grp.head_mask
        t = c._mask_to_group[x]
        assert t is flat_set(c).registry[x] and t.chain.tuples[-1].mask == y
        gone = [r for r in rules if r.mask == x]
        for r in gone:
            assert c.remove(r)
        assert c._mask_to_group[x] is t is flat_set(c).registry[x]
        assert t.table and not any(e.rule for e in t.table.values())
        assert c.audit() == []
        heads = len(grp.head)
        for r in gone:
            c.insert(r)
            assert c._mask_to_group[x] is t
        assert len(grp.head) == heads and c.audit() == []

    def test_headed_mask_emptied_and_routed_again(self):
        _, live, c = mixed(5)
        grp = headed(c)
        m = pk(0, 0xFF)
        gone = [r for r in live if r.mask == m]
        for r in gone:
            assert c.remove(r)
        assert m not in c._mask_to_group and c.audit() == []
        for i, r in enumerate(gone):
            c.insert(r)
            assert c._mask_to_group[m] == [grp, i + 1]
        assert c.audit() == []

    def test_flat_group_dropped_and_reopened_by_a_mask_0_rule(self):
        _, live, c = mixed(6)
        grp = headed(c)
        flat = [r for r in live if r.mask in FULL]
        for r in flat:
            assert c.remove(r)
        assert c._flat is None and c.groups == [grp]
        assert set(c._mask_to_group) == set(SPARSE) and c.audit() == []
        # a lone mask opens a headed group of its own while no flat
        # group lives; a mask-0 rule reopens the flat group after it
        lone = Rule(pk(0x04, 0x01), pk(0x0C, 0x03), 5, 900)
        c.insert(lone)
        assert c._mask_to_group[lone.mask][0].head_mask == lone.mask
        zero = Rule(0, 0, 7, 901)
        c.insert(zero)
        assert c._flat is c.groups[-1] and c._flat.head_mask == 0
        assert c._mask_to_group[0] is flat_set(c).registry[0]
        # later fresh masks that hold no wider head join it
        fresh = Rule(pk(0, 0x05), pk(0, 0x0F), 9, 902)
        c.insert(fresh)
        assert c._mask_to_group[fresh.mask] is \
            flat_set(c).registry[fresh.mask]
        assert c.audit() == []
        live = [r for r in live if r.mask not in FULL] + [lone, zero, fresh]
        oracle = LinearClassifier.build(S, live)
        for key in range(0, 1 << 16, 61):
            assert c.lookup(key).rule == oracle.lookup(key).rule

    def test_emptying_the_flat_set_drops_it_under_tc_alike(self):
        # an ETC that folds everything empties as tc does, and its flat
        # group goes with its last rule
        rules = [Rule(0, 0, 3, 0), Rule(pk(0x03, 0), pk(0x03, 0), 4, 1)]
        c = EtcClassifier.build(S, rules, min_head_bits=0)
        tc = TupleChainClassifier.build(S, rules)
        assert c.groups == [c._flat]
        for r in reversed(rules):
            assert c.remove(r) and tc.remove(r)
            assert set(c._mask_to_group) == set(tc.registry)
        assert c.groups == [] and c._flat is None and not tc.chains
        assert c.audit() == [] and c.probe_bound() == 0


class TestAudit:
    def test_flat_mask_that_also_holds_a_route_is_flagged(self):
        _, live, c = mixed(0)
        m = FULL[1]
        n = sum(r.mask == m for r in live)
        c._mask_to_group[m] = [headed(c), n]
        gi = c.groups.index(headed(c))
        assert c.audit() == [
            f"mask {m:#x}: in the flat set and routed too",
            f"group {gi}: head mask not contained in member {m:#x}"]
        # a route to the flat group is flagged as such
        c._mask_to_group[m] = [c._flat, n]
        assert c.audit() == [
            f"mask {m:#x}: in the flat set and routed too",
            f"mask {m:#x} routed to the flat group"]

    def test_headed_count_off_is_flagged(self):
        _, live, c = mixed(0)
        m = SPARSE[0]
        n = sum(r.mask == m for r in live)
        c._mask_to_group[m][1] += 1
        assert c.audit() == [f"mask {m:#x}: route counts {n + 1} of {n} "
                             "stored rules"]
        c._mask_to_group[m][1] -= 2
        assert c.audit() == [f"mask {m:#x}: route counts {n - 1} of {n} "
                             "stored rules"]

    def test_flat_tuple_missing_or_stale_is_flagged(self):
        _, _, c = mixed(0)
        m = FULL[0]
        t = c._mask_to_group.pop(m)
        assert c.audit() == [f"flat mask {m:#x}: tuple not entered"]
        c._mask_to_group[m] = TupleTable(m)
        assert c.audit() == [f"mask {m:#x}: tuple is not the flat set's"]
        c._mask_to_group[m] = t
        assert c.audit() == []

    def test_second_head_mask_0_group_is_flagged(self):
        _, _, c = mixed(0)
        c.groups.append(_Group(0))
        assert c.audit()[0] == \
            "the flat group is not the one head-mask-0 group"
