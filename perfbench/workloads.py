"""Seeded inputs for the benchmark workloads.

Each workload has a fixed *layout* (its mask population, drawn from a
constant seed) and a per-run *instance* drawn from ``--seed``: rule
values, priorities, lookup keys and the update stream.  Fixing the layout
keeps chain and group structure identical across seeds, so run-to-run
spread reflects the code and the host rather than a different mask
population (with masks redrawn per seed, ETC's group count ranged from 4
to 6 and its lookup rate from 29k/s to 51k/s over eight seeds).

Streams are lists of ``(kind, arg)`` operations with the expected answer
of every lookup precomputed outside the timed loops.  Where keys fit 64
bits and no update interleaves (probe-cmp), every answer comes from the
linear oracle (``linear_lookup_batch``).  Otherwise (acl-wide's 104-bit
keys, which only the scalar scan handles, and churn-fresh's updates) it
comes from a TSS mirror that follows the same updates and is itself
checked against the linear oracle on sampled keys at checkpoints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tuplechain import (FieldSchema, Rule, TssClassifier, TupleProfile,
                        gen_rules, gen_trace, mask_less_than, write_generic)
from tuplechain.baselines import linear_lookup_batch
from tuplechain.workload import CLASSBENCH_SCHEMA

LOOKUP, INSERT, REMOVE = 0, 1, 2

HIT_RATIO = 0.7
PROBE_CMP_SCHEMA = FieldSchema((16, 16))
PROBE_CMP_PROFILE = TupleProfile(num_masks=48, num_chains=8)
PROBE_CMP_RULES = 20_000
LAYOUT_SEED = 11
ACL_FILTERS = 20_000


@dataclass
class Stream:
    """A cyclic operation list; replaying it forever is valid because
    every cycle returns the rule set to its initial state."""

    ops: list[tuple[int, object]]
    expect: list[tuple[int, int | None] | None]
    reference: str = ""
    oracle_checked: int = 0      # mirror answers checked against linear
    oracle_failures: int = 0


@dataclass
class Workload:
    name: str
    schema: FieldSchema
    rule_text: str | None        # ClassBench text, or None for generic
    initial: list[Rule] | None   # rules written as a generic file
    pool: list[Rule]             # rules held back from the initial build
    key_count: int
    # 0: lookups only, with updates in a phase of their own.  Otherwise
    # lookups and updates interleave, and every pass replays one whole
    # cycle on a fresh build: removing a spliced-in mask's rules leaves
    # its tuple in place as marker entries, so only a fresh build sees
    # the held-back masks spliced in again.
    lookups_per_update: int
    update_steps: int            # random updates per half cycle
    pass_ops: int                # lookups per timed pass (lookups only)
    oracle_sample: int           # mirror keys checked against linear per
                                 # checkpoint (0: no mirror)

    def write_rules(self, path) -> None:
        if self.rule_text is not None:
            path.write_text(self.rule_text)
        else:
            write_generic(self.initial, self.schema, path)


def _rng(name: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{name}:{seed}:{purpose}")


# -- probe-cmp / churn-fresh ------------------------------------------


def _probe_cmp_layout() -> tuple[list[int], list[int]]:
    """Masks in generator order (chain by chain) and rules per mask."""
    rs = gen_rules(LAYOUT_SEED, PROBE_CMP_RULES, PROBE_CMP_SCHEMA,
                   PROBE_CMP_PROFILE)
    counts: dict[int, int] = {}
    for r in rs.rules:
        counts[r.mask] = counts.get(r.mask, 0) + 1
    return list(counts), list(counts.values())


def _draw_rules(rng: random.Random, masks, counts, width) -> list[Rule]:
    """Fresh fields and priorities for the fixed layout; (mask, fields)
    pairs stay unique, ids run from 0 in layout order."""
    rules: list[Rule] = []
    for mask, count in zip(masks, counts):
        seen: set[int] = set()
        for _ in range(count):
            for _ in range(64):
                fields = rng.getrandbits(width) & mask
                if fields not in seen:
                    break
            else:
                continue
            seen.add(fields)
            rules.append(Rule(fields, mask, rng.randrange(1 << 20),
                              len(rules)))
    return rules


def probe_cmp(seed: int) -> Workload:
    masks, counts = _probe_cmp_layout()
    schema = PROBE_CMP_SCHEMA
    rules = _draw_rules(_rng("probe-cmp", seed, "rules"), masks, counts,
                        schema.total_width)
    return Workload("probe-cmp", schema, None, rules, [], key_count=8192,
                    lookups_per_update=0, update_steps=500, pass_ops=2000,
                    oracle_sample=0)


def churn_fresh(seed: int) -> Workload:
    """probe-cmp with one interior mask of every generated chain held
    back; the update stream splices those masks into chain middles."""
    masks, counts = _probe_cmp_layout()
    schema = PROBE_CMP_SCHEMA
    rules = _draw_rules(_rng("churn-fresh", seed, "rules"), masks, counts,
                        schema.total_width)
    held: set[int] = set()
    start = 0
    for size in PROBE_CMP_PROFILE.chain_sizes():
        held.add(masks[start + size // 2])
        start += size
    initial = [r for r in rules if r.mask not in held]
    pool = [r for r in rules if r.mask in held]
    # generic rule files number rules by line, so renumber to match
    initial = [Rule(r.fields, r.mask, r.priority, i)
               for i, r in enumerate(initial)]
    pool = [Rule(r.fields, r.mask, r.priority, len(initial) + i)
            for i, r in enumerate(pool)]
    return Workload("churn-fresh", schema, None, initial, pool,
                    key_count=8192, lookups_per_update=2, update_steps=2000,
                    pass_ops=0, oracle_sample=256)


# -- acl-wide -----------------------------------------------------------

# Shape tables: (choice, weight).  UNVERIFIED ASSUMPTION: these weights
# are not taken from the published ClassBench ACL seed statistics (Taylor
# & Turner, IEEE/ACM ToN 2007) and no measured filter set backs them.
# They use ClassBench's port classes (wildcard, exact, 1024:65535,
# 0:1023, other ranges) but were picked by hand, only so that 20k filters
# land near a target structure: a few hundred masks, about 60 chains and
# a handful of ETC groups (here ~23k rules, ~530 masks, 58 chains, 6
# groups).  The mask population, chain and group counts and the lookup
# mix behind acl-wide's tc-against-etc figures follow from them.
# "1024:65535" and "32768:65535" overlap, as real filter sets do.
_PREFIX_LENS = ((0, 30), (16, 15), (24, 20), (32, 35))
_SPORTS = (("any", 97), ("exact", 2), ("32768:65535", 1))
_DPORTS = (("any", 40), ("exact", 45), ("1024:65535", 5),
           ("32768:65535", 5), ("0:1023", 5))
_PROTOS = (("6/0xFF", 50), ("17/0xFF", 30), ("0/0x00", 20))
_WELL_KNOWN = (20, 21, 22, 23, 25, 53, 80, 110, 123, 143, 161, 389, 443,
               445, 993, 995, 1433, 3306, 3389, 5060, 8080)


def _pick(rng: random.Random, table):
    return rng.choices([c for c, _ in table], [w for _, w in table])[0]


def _ip(v: int) -> str:
    return ".".join(str(v >> s & 255) for s in (24, 16, 8, 0))


def _port(rng: random.Random, kind: str) -> str:
    if kind == "any":
        return "0 : 65535"
    if kind == "exact":
        p = (rng.choice(_WELL_KNOWN) if rng.random() < 0.7
             else rng.randrange(1024, 65536))
        return f"{p} : {p}"
    lo, hi = kind.split(":")
    return f"{lo} : {hi}"


def classbench_text(seed: int, count: int) -> str:
    """ClassBench-style filter lines.  The shape of each filter (prefix
    lengths, port kinds, protocol) comes from the fixed layout seed, so
    the mask population is the same for every run seed; addresses and
    exact ports come from ``seed``."""
    shape_rng = random.Random(f"acl-wide:layout:{LAYOUT_SEED}")
    rng = _rng("acl-wide", seed, "values")
    nets = [rng.getrandbits(32) for _ in range(256)]
    lines = []
    for _ in range(count):
        slen = _pick(shape_rng, _PREFIX_LENS)
        dlen = _pick(shape_rng, _PREFIX_LENS)
        skind = _pick(shape_rng, _SPORTS)
        dkind = _pick(shape_rng, _DPORTS)
        proto = _pick(shape_rng, _PROTOS)
        sip = rng.choice(nets) ^ rng.getrandbits(16)
        dip = rng.choice(nets) ^ rng.getrandbits(16)
        lines.append(f"@{_ip(sip)}/{slen}\t{_ip(dip)}/{dlen}\t"
                     f"{_port(rng, skind)}\t{_port(rng, dkind)}\t{proto}")
    return "\n".join(lines) + "\n"


def acl_wide(seed: int) -> Workload:
    text = classbench_text(seed, ACL_FILTERS)
    return Workload("acl-wide", CLASSBENCH_SCHEMA, text, None, [],
                    key_count=8192, lookups_per_update=0, update_steps=1500,
                    pass_ops=1000, oracle_sample=48)


WORKLOADS = {"probe-cmp": probe_cmp, "acl-wide": acl_wide,
             "churn-fresh": churn_fresh}


def keep_best(rules: list[Rule]) -> tuple[list[Rule], int]:
    """Drop rules whose (fields, mask) repeats a higher-priority rule.

    Overlapping port ranges (``1024 : 65535`` and ``32768 : 65535``) make
    distinct filters expand to the same block; every classifier rejects
    the second copy, and it can never win a lookup, so only the preferred
    copy is kept.  Returns the kept rules and the number dropped."""
    best: dict[tuple[int, int], Rule] = {}
    for r in rules:
        k = (r.fields, r.mask)
        cur = best.get(k)
        if cur is None or r.sort_key() > cur.sort_key():
            best[k] = r
    kept = sorted(best.values(), key=lambda r: r.rule_id)
    return kept, len(rules) - len(kept)


# -- update streams ------------------------------------------------------


def update_cycle(rng: random.Random, live: list[Rule], pool: list[Rule],
                 steps: int, drain: list[Rule] = ()) -> list[tuple[int, Rule]]:
    """Updates that end where they started: ``drain`` removals, then
    ``steps`` random moves, then all of it undone in reverse order.

    A move takes a uniformly chosen rule from the pool into the rule set
    (insert) or out of it (remove), with even odds while both are
    non-empty; a random removal never takes the last rule of a mask, and
    drained rules stay out until the undo.  So tuples come and go only
    where the stream says: the first insert of a held-back mask splices
    a fresh tuple into its chain, the drain empties one tuple and the
    undo splices it back, the same number of times for every seed.
    """
    drained = set(drain)
    live = [r for r in live if r not in drained]
    pool = list(pool)
    per_mask: dict[int, int] = {}
    for r in live:
        per_mask[r.mask] = per_mask.get(r.mask, 0) + 1
    half: list[tuple[int, Rule]] = [(REMOVE, r) for r in drain]
    for _ in range(steps):
        insert = bool(pool) and rng.random() < 0.5
        src, dst = (pool, live) if insert else (live, pool)
        i = rng.randrange(len(src))
        if not insert and per_mask[src[i].mask] == 1:
            continue
        r = src[i]
        src[i] = src[-1]
        src.pop()
        dst.append(r)
        per_mask[r.mask] = per_mask.get(r.mask, 0) + (1 if insert else -1)
        half.append((INSERT if insert else REMOVE, r))
    undo = [(REMOVE if k == INSERT else INSERT, r) for k, r in reversed(half)]
    return half + undo


def interleave(keys: list[int], updates, lookups_per_update: int):
    ops: list[tuple[int, object]] = []
    ki = 0
    for u in updates:
        for _ in range(lookups_per_update):
            ops.append((LOOKUP, keys[ki % len(keys)]))
            ki += 1
        ops.append(u)
    return ops


def expected(ops, rules: list[Rule], sample_keys: list[int],
             checkpoint_every: int) -> Stream:
    """Replay ops on a TSS mirror to get every lookup's answer; at the
    start and every ``checkpoint_every`` updates, check the mirror
    against the linear oracle on ``sample_keys``."""
    tss = TssClassifier(rules)
    live = {r.rule_id: r for r in rules}
    stream = Stream(ops, [None] * len(ops),
                    f"TSS mirror, checked against the linear oracle on "
                    f"{len(sample_keys)} keys every {checkpoint_every} "
                    f"updates")

    def checkpoint():
        want = linear_lookup_batch(list(live.values()), sample_keys)
        for k, w in zip(sample_keys, want):
            res = tss.lookup(k)
            stream.oracle_checked += 1
            if (res.priority, res.rule_id) != w:
                stream.oracle_failures += 1

    if sample_keys:
        checkpoint()
    updates = 0
    for i, (kind, arg) in enumerate(ops):
        if kind == LOOKUP:
            res = tss.lookup(arg)
            stream.expect[i] = (res.priority, res.rule_id)
            continue
        if kind == INSERT:
            tss.insert(arg)
            live[arg.rule_id] = arg
        else:
            tss.remove(arg)
            del live[arg.rule_id]
        updates += 1
        if sample_keys and updates % checkpoint_every == 0:
            checkpoint()
    return stream


def oracle(keys: list[int], rules: list[Rule]) -> Stream:
    """Lookups of ``keys``, every answer from the linear oracle."""
    return Stream([(LOOKUP, k) for k in keys],
                  linear_lookup_batch(rules, keys),
                  f"linear oracle on all {len(keys)} keys")


def streams(wl: Workload, seed: int, rules: list[Rule]):
    """The timed stream and, for lookup-only workloads, the separate
    update stream (None otherwise).  Keys are drawn from the loaded
    rules and the held-back pool at the workload's hit ratio."""
    keys = gen_trace(rules + wl.pool,
                     _rng(wl.name, seed, "keys").getrandbits(32),
                     wl.key_count, HIT_RATIO, wl.schema)
    rng = _rng(wl.name, seed, "updates")
    sample = _rng(wl.name, seed, "oracle").sample(keys, wl.oracle_sample)
    if wl.lookups_per_update:
        # replayed from a fresh build every cycle (see ``Workload``)
        cycle = update_cycle(rng, rules, wl.pool, wl.update_steps)
        ops = interleave(keys, cycle, wl.lookups_per_update)
        return expected(ops, rules, sample, 1000), None
    if wl.schema.total_width <= 64:
        lookups = oracle(keys, rules)
    else:
        lookups = expected([(LOOKUP, k) for k in keys], rules, sample, 1)
    # Drain the sparsest maximal mask (no other mask contains it) first,
    # so every cycle removes a tuple and splices it back in: a tuple
    # with a successor keeps its marker entries when its rules go, and
    # stays.
    counts: dict[int, int] = {}
    for r in rules:
        counts[r.mask] = counts.get(r.mask, 0) + 1
    maximal = [m for m in counts
               if not any(mask_less_than(m, o) for o in counts)]
    sparse = min(maximal, key=lambda m: (counts[m], m))
    drain = [r for r in rules if r.mask == sparse]
    cycle = update_cycle(rng, rules, [], wl.update_steps, drain)
    return lookups, Stream(cycle, [None] * len(cycle))
