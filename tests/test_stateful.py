"""Stateful differential test: tc, etc and tss driven next to the linear
oracle through random builds, inserts, removals, mask drains, lookups
and fresh tc builds, with every classifier audited after every step.
Every lookup also pins tc's and ETC's rule and probe count to the
reference walks in ``pruned``, and both probe bounds, which
``probe_bound()`` computes from the chains on each call, to the sums
written out here.

The mask pool is nested (each mask contains the one before it), so a
mask inserted while others of the pool are live splices into the middle
of their chain, and draining a mask empties a chain-interior tuple.
``LONE`` shares no bit with any pool mask, so no ETC head but mask 0
contains it: its first rule opens a group of its own unless a build
folded a group into head mask 0.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from tuplechain.baselines import LinearClassifier, TssClassifier
from tuplechain.chain import DuplicateRuleError
from tuplechain.classifier import TupleChainClassifier
from tuplechain.etc import EtcClassifier
from tuplechain.model import FieldSchema, Rule

from pruned import ceiling_walk, etc_walk

S = FieldSchema((8, 8))


def pk(a, b):
    return S.pack((a, b))


NESTED = [pk(0x80, 0x00), pk(0xC0, 0x00), pk(0xC0, 0xC0), pk(0xE0, 0xC0),
          pk(0xF0, 0xE0), pk(0xF8, 0xF0), pk(0xFC, 0xF8), pk(0xFF, 0xFC)]
LONE = pk(0x00, 0x03)
MASKS = NESTED + [LONE]

KEYS = st.integers(0, (1 << S.total_width) - 1)
DRAWN = st.tuples(st.sampled_from(MASKS), KEYS, st.integers(0, 40))


class Differential(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.live: dict[tuple[int, int], Rule] = {}   # (fields, mask)
        self.next_id = 0
        self.clfs = {}

    def _rule(self, mask, fields, priority) -> Rule:
        r = Rule(fields & mask, mask, priority, self.next_id)
        self.next_id += 1
        return r

    @initialize(drawn=st.lists(DRAWN, max_size=24))
    def build(self, drawn):
        for mask, fields, priority in drawn:
            r = self._rule(mask, fields, priority)
            self.live.setdefault((r.fields, r.mask), r)
        rules = list(self.live.values())
        self.clfs = {
            "linear": LinearClassifier.build(S, rules),
            "tc": TupleChainClassifier.build(S, rules),
            "etc": EtcClassifier.build(S, rules),
            "tss": TssClassifier.build(S, rules),
        }

    @rule(drawn=DRAWN)
    def insert(self, drawn):
        r = self._rule(*drawn)
        if (r.fields, r.mask) in self.live:
            for c in self.clfs.values():
                try:
                    c.insert(r)
                except DuplicateRuleError:
                    continue
                raise AssertionError(f"{type(c).__name__} took a "
                                     "repeated (fields, mask)")
            return
        for c in self.clfs.values():
            c.insert(r)
        self.live[(r.fields, r.mask)] = r

    def _remove(self, r: Rule) -> None:
        for name, c in self.clfs.items():
            assert c.remove(r), name
        del self.live[(r.fields, r.mask)]

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        self._remove(data.draw(st.sampled_from(sorted(
            self.live.values(), key=lambda r: r.rule_id))))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def drain(self, data):
        mask = data.draw(st.sampled_from(sorted(
            {m for _, m in self.live})))
        for r in [r for r in self.live.values() if r.mask == mask]:
            self._remove(r)

    def _check(self, key: int) -> None:
        want = self.clfs["linear"].lookup(key).rule
        for name, c in self.clfs.items():
            res = c.lookup(key)
            assert res.rule == want, (name, key)
            assert res.probes <= c.probe_bound(), (name, key)
        # the lookup loop tc and ETC share against the reference walks,
        # probe counts included; no update keeps a bound, so these pin the
        # sums probe_bound() computes from the chains to the ones written
        # out here
        tc, etc = self.clfs["tc"], self.clfs["etc"]
        res = tc.lookup(key)
        assert (res.rule, res.probes) == ceiling_walk(tc.chains, key)[:2], key
        res = etc.lookup(key)
        assert (res.rule, res.probes) == etc_walk(etc, key)[:2], key
        assert tc.probe_bound() == sum(ch.probe_bound() for ch in tc.chains)
        assert etc.probe_bound() == sum(
            (g.head_mask != 0)
            + max(sum(ch.probe_bound() for ch in he.local.chains)
                  for he in g.head.values())
            for g in etc.groups)

    @rule(key=KEYS)
    def lookup(self, key):
        self._check(key)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), noise=KEYS)
    def lookup_grown(self, data, noise):
        r = data.draw(st.sampled_from(sorted(
            self.live.values(), key=lambda r: r.rule_id)))
        self._check(r.fields | (noise & ~r.mask))

    @rule()
    def rebuild(self):
        # a fresh build of the live rules stands in for the incremental tc
        self.clfs["tc"] = TupleChainClassifier.build(
            S, list(self.live.values()))

    @invariant()
    def audits_clean(self):
        for name, c in self.clfs.items():
            assert c.audit() == [], name


Differential.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestDifferential = Differential.TestCase
