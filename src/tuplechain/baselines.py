"""Reference classifiers: exhaustive linear scan and plain tuple search.

The linear scan is the ground-truth oracle everything else is checked
against.  ``linear_lookup_batch`` is a vectorized variant for schemas
that fit 64 bits; it exists only to make large oracle sweeps practical
and is itself spot-checked against the scalar scan.  Tuple space search
probes its tuples highest priority ceiling first and stops once no
remaining tuple can win, as Open vSwitch does.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .chain import DuplicateRuleError
from .classifier import StructureStats, check_rule
from .model import (MISS_PRIORITY, FieldSchema, MatchResult, Rule, best_rule,
                    matches)


def linear_lookup(rules, key: int) -> MatchResult:
    best = None
    for r in rules:
        if matches(key, r):
            best = best_rule(best, r)
    return MatchResult(best, len(rules))


def linear_lookup_batch(rules, keys) -> list[tuple[int, int | None]]:
    """(priority, rule_id) per key via numpy; None id marks a miss.

    Requires every value to fit an unsigned 64-bit word and priorities
    in +-2^30; falls back on the scalar scan otherwise.
    """
    rules = list(rules)
    if not rules:
        return [(MISS_PRIORITY, None) for _ in keys]
    ok = all(0 <= r.fields < 2**64 and 0 <= r.mask < 2**64
             and abs(r.priority) < 2**30 and r.rule_id < 2**32
             for r in rules) and all(0 <= k < 2**64 for k in keys)
    if not ok:
        return [(res.priority, res.rule_id)
                for res in (linear_lookup(rules, k) for k in keys)]
    F = np.array([r.fields for r in rules], dtype=np.uint64)
    M = np.array([r.mask for r in rules], dtype=np.uint64)
    # score packs (priority, smaller-id-wins) into one int64 argmax
    S = (np.array([r.priority for r in rules], dtype=np.int64) << 32) \
        + (0xFFFFFFFF - np.array([r.rule_id for r in rules], dtype=np.int64))
    K = np.array(list(keys), dtype=np.uint64)
    out: list[tuple[int, int | None]] = []
    chunk = max(1, (1 << 24) // max(1, len(rules)))
    for lo in range(0, len(K), chunk):
        kc = K[lo:lo + chunk]
        hit = (kc[:, None] & M[None, :]) == F[None, :]
        score = np.where(hit, S[None, :], np.int64(-2**62))
        idx = np.argmax(score, axis=1)
        top = score[np.arange(len(kc)), idx]
        for i in range(len(kc)):
            if top[i] == -2**62:
                out.append((MISS_PRIORITY, None))
            else:
                r = rules[idx[i]]
                out.append((r.priority, r.rule_id))
    return out


def _key_bytes(masks) -> int:
    """Bytes per packed key, from the widest mask stored."""
    return (max((m.bit_length() for m in masks), default=0) + 7) // 8


class LinearClassifier:
    """Exhaustive scan over every stored rule.  Made with a schema, it
    checks every rule against it, as tc and etc do; made without one,
    it checks no width."""

    def __init__(self, rules=(), schema: FieldSchema | None = None):
        self.schema = schema
        # (fields, mask) -> the one rule stored there
        self.rules: dict[tuple[int, int], Rule] = {}
        self.rule_ids: set[int] = set()
        for r in rules:
            self.insert(r)

    @classmethod
    def build(cls, schema: FieldSchema, rules) -> "LinearClassifier":
        return cls(rules, schema)

    def insert(self, r: Rule) -> None:
        check_rule(self.schema, r, self.rule_ids)
        if (r.fields, r.mask) in self.rules:
            raise DuplicateRuleError(
                f"entry {r.fields:#x}/{r.mask:#x} already holds a rule")
        self.rules[r.fields, r.mask] = r
        self.rule_ids.add(r.rule_id)

    def remove(self, r: Rule) -> bool:
        if self.rules.get((r.fields, r.mask)) != r:
            return False
        del self.rules[r.fields, r.mask]
        self.rule_ids.discard(r.rule_id)
        return True

    def lookup(self, key: int) -> MatchResult:
        return linear_lookup(self.rules.values(), key)

    def probe_bound(self) -> int:
        return len(self.rules)

    def audit(self) -> list[str]:
        ids = {r.rule_id for r in self.rules.values()}
        if ids != self.rule_ids or len(ids) != len(self.rules):
            return ["rule id set out of sync"]
        return []

    def stats(self) -> StructureStats:
        # fields + mask + priority + id per rule
        n = len(self.rules)
        return StructureStats(rule_count=n, memory_bytes=n * (
            2 * _key_bytes(m for _, m in self.rules) + 12))


class TssClassifier:
    """Tuple space search: one hash table per mask, probed highest
    priority ceiling first until no remaining tuple can win.  Made with
    a schema, it checks every rule against it, as tc and etc do; made
    without one, it checks no width."""

    def __init__(self, rules=(), schema: FieldSchema | None = None):
        self.schema = schema
        # mask -> [top, mask, table], one record per tuple.  top is the
        # priority ceiling: no rule of the tuple ranks above it.  Raised
        # on insert, never lowered on remove.
        self.tables: dict[int, list] = {}
        # the same records, highest ceiling first
        self.order: list[list] = []
        self.rule_ids: set[int] = set()
        for r in rules:
            self._add(r)
        # stable: equal ceilings keep their order
        self.order.sort(key=itemgetter(0), reverse=True)

    @classmethod
    def build(cls, schema: FieldSchema, rules) -> "TssClassifier":
        return cls(rules, schema)

    @property
    def tuple_count(self) -> int:
        return len(self.tables)

    def insert(self, r: Rule) -> None:
        if self._add(r):
            self.order.sort(key=itemgetter(0), reverse=True)

    def _add(self, r: Rule) -> bool:
        """Store r; True when the ceiling order needs a re-sort."""
        check_rule(self.schema, r, self.rule_ids)
        rec = self.tables.get(r.mask)
        fresh = rec is None
        if fresh:
            rec = self.tables[r.mask] = [MISS_PRIORITY, r.mask, {}]
            self.order.append(rec)
        tbl = rec[2]
        if r.fields in tbl:
            raise DuplicateRuleError(
                f"entry {r.fields:#x} already holds a rule")
        tbl[r.fields] = r
        self.rule_ids.add(r.rule_id)
        if r.priority > rec[0]:
            rec[0] = r.priority
            return True
        return fresh

    def remove(self, r: Rule) -> bool:
        rec = self.tables.get(r.mask)
        if rec is None or rec[2].get(r.fields) != r:
            return False
        del rec[2][r.fields]
        self.rule_ids.discard(r.rule_id)
        if not rec[2]:
            del self.tables[r.mask]
            self.order.remove(rec)
        return True

    def probe_bound(self) -> int:
        return len(self.tables)

    def audit(self) -> list[str]:
        out = []
        for mask, (top, _, tbl) in self.tables.items():
            if not tbl:
                out.append(f"empty tuple {mask:#x}")
            for key, r in tbl.items():
                if r.mask != mask or r.fields != key:
                    out.append(f"rule {r.rule_id} misfiled in tuple "
                               f"{mask:#x}")
                if r.priority > top:
                    out.append(f"ceiling {top} of tuple {mask:#x} below "
                               f"rule {r.rule_id}")
        if sorted(map(id, self.order)) != sorted(
                map(id, self.tables.values())):
            out.append("tuple order out of sync with the tables")
        if any(a[0] < b[0] for a, b in zip(self.order, self.order[1:])):
            out.append("tuples out of ceiling order")
        if {r.rule_id for _, _, t in self.tables.values()
                for r in t.values()} != self.rule_ids:
            out.append("rule id set out of sync")
        return out

    def stats(self) -> StructureStats:
        n = sum(len(t) for _, _, t in self.tables.values())
        # per entry: stored key plus the rule's fields, mask, priority, id
        mem = n * (3 * _key_bytes(self.tables) + 24)
        return StructureStats(rule_count=n, memory_bytes=mem,
                              tuple_count=len(self.tables), entry_total=n)

    def lookup(self, key: int) -> MatchResult:
        best = None
        floor = MISS_PRIORITY
        probes = 0
        for top, mask, tbl in self.order:
            if top < floor:
                break
            probes += 1
            r = tbl.get(key & mask)
            # best_rule, inlined as in chain.group_lookup
            if r is not None and (r.priority > floor or best is None or (
                    r.priority == floor and r.rule_id < best.rule_id)):
                best = r
                floor = r.priority
        return MatchResult(best, probes)
