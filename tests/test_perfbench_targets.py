"""The benchmark's tracer patches package entry points by name, and its
traced run reads classifier structure by attribute.  A refactor that
drops either must fail here, not only in a traced run."""

import importlib
import random
from pathlib import Path

from tuplechain import EtcClassifier, FieldSchema, Rule, TupleChainClassifier

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing.targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert missing == []


def test_structural_reads_of_the_traced_run():
    # what perfbench/suite.py reads off a built tc and etc, outside the
    # package, to derive per-layer metrics
    rng = random.Random(1)
    schema = FieldSchema((8, 8))
    pool = [rng.getrandbits(16) | 0x8000 for _ in range(6)]
    rules = []
    for m in pool:
        for f in {rng.getrandbits(16) & m for _ in range(10)}:
            rules.append(Rule(f, m, rng.randrange(99), len(rules)))
    tc = TupleChainClassifier.build(schema, rules)
    etc = EtcClassifier.build(schema, rules)

    st = tc.stats()
    assert st.chain_count == len(tc.chains) > 0
    assert st.max_chain_tuples == max(len(c.tuples) for c in tc.chains)
    assert st.entry_total >= len(rules)
    assert st.owner_link_total >= 0 and st.memory_bytes > 0
    assert sorted(tc.registry) == sorted(set(pool))
    tuples = [t for c in tc.chains for t in c.tuples]
    assert sorted(t.mask for t in tuples) == sorted(set(pool))
    r = rules[0]
    assert tc.registry[r.mask].probe(r.fields).rule is r

    assert etc.group_count == len(etc.groups) > 0
    assert etc.min_head_bits == 4
    assert sorted(r.rule_id for r in etc.all_rules()) == \
        list(range(len(rules)))
    heads = [he for g in etc.groups for he in g.head.values()]
    assert len(heads) > 0
    assert sum(len(he.local.chains) for he in heads) >= etc.group_count
