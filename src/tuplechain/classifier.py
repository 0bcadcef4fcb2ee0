"""Chain sets, the structure behind every head entry, and rule checks.

``ChainSet`` is the structure: ``chains``, ``registry`` and the
operations that keep them, on rules the caller has already checked.
``registry`` maps each live mask to its ``TupleTable``, which names the
chain holding it in ``TupleTable.chain``: no object per mask beside
the tuple itself, which counts because every ETC head entry has a
chain set, and so a registry, of its own.
Its ``probe_bound()`` sums the chains' tree heights when it is asked:
nothing on the update path keeps a bound.  A chain set keeps no rule
ids and checks nothing: its classifier runs ``check_rule`` once per
rule and keeps the only id set.

Construction paths:
  * ``fill`` lays the chains out along a minimum path cover over the
    masks, highest ceiling first (one layout for any rule order), and
    stores each chain's rules with ``Chain.insert_rule``, head tuple
    first, so no stored rule has owners yet to report its hint to.
  * incremental ``add`` places a brand-new tuple in the first chain, in
    search order, that can host its mask, at the position
    ``Chain.can_host`` gives there.

``chains`` itself is the search order: it runs highest priority
ceiling (``Chain.top``) first, so a lookup walks it as it stands and
stops once no remaining chain can beat the best rule found.  ``fill``
sorts it, and an add that raises a ceiling moves that chain up; nothing
else needs repair.  ``TupleChainClassifier``, one chain set behind
ETC's head-mask-0 group, is defined in ``etc`` and imported from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .chain import Chain, DuplicateRuleError
from .graph import PathCover, build_graph, min_path_cover
from .model import FieldSchema, Rule
from .tuple_store import TupleTable, owners_of

_PTR = 8  # pointer width of the structural cost model, bytes
_TOP = attrgetter("top")
_PRIORITY = attrgetter("priority")


@dataclass(frozen=True, slots=True)
class StructureStats:
    """What every classifier's ``stats()`` reports; a count that does
    not apply to an algorithm reads 0."""

    rule_count: int
    memory_bytes: int
    tuple_count: int = 0
    chain_count: int = 0
    max_chain_tuples: int = 0
    entry_total: int = 0
    owner_link_total: int = 0
    group_count: int = 0


def check_rule(schema: FieldSchema | None, r: Rule,
               rule_ids: set[int]) -> None:
    """Reject r unless it is a Rule with an id not in ``rule_ids`` that
    fits ``schema``; a classifier made without a schema (``None``)
    checks no width.  Every classifier checks this before it stores a
    rule, on build and on insert, before any change."""
    if not isinstance(r, Rule):
        raise ValueError(f"{r!r} is not a Rule")
    if r.rule_id in rule_ids:
        raise DuplicateRuleError(f"rule id {r.rule_id} already present")
    # a Rule's mask is non-negative, so this is mask >= 2**total_width
    if schema is not None and r.mask >> schema.total_width:
        raise ValueError(f"rule {r.rule_id} does not fit the schema")


def check_rules(schema: FieldSchema, rules) -> set[int]:
    """check_rule on each of ``rules`` in turn, each against the ids of
    those before it; returns their ids."""
    ids: set[int] = set()
    for r in rules:
        check_rule(schema, r, ids)
        ids.add(r.rule_id)
    return ids


def ceiling_order(by_mask: dict[int, list[Rule]]) -> list[int]:
    """``by_mask``'s masks (mask -> its rules), highest ceiling (rule
    priority) first, ties to the higher mask value: the order that a
    cover-less ``ChainSet.fill`` takes, the same for any rule order."""
    return sorted(by_mask, reverse=True,
                  key=lambda m: (max(map(_PRIORITY, by_mask[m])), m))


def cover_bound(masks) -> int:
    """The ``probe_bound()`` of a ``ChainSet`` filled over a minimum path
    cover of these distinct masks in this order (``ceiling_order`` for
    a cover-less fill), with nothing laid out: the sum over its paths
    of ``1 + floor(log2 m)`` for a chain of m tuples."""
    cover = min_path_cover(build_graph(list(masks)))
    return sum(len(p).bit_length() for p in cover.paths)


class ChainSet:
    """Chains and the mask -> tuple registry, over rules checked by
    the caller."""

    __slots__ = ("chains", "registry")

    def __init__(self):
        # highest ceiling first: the order lookup searches them in
        self.chains: list[Chain] = []
        # mask -> its tuple, which names its chain; at most one live
        # tuple per mask
        self.registry: dict[int, TupleTable] = {}

    # -- construction ------------------------------------------------

    def fill(self, by_mask: dict[int, list[Rule]],
             cover: PathCover | None = None) -> None:
        """Lay out an empty set over ``by_mask`` (mask -> its rules),
        along ``cover`` if given, else along a minimum path cover of the
        masks in ``ceiling_order``: one layout for any order of the same
        rules."""
        if cover is None:
            cover = min_path_cover(build_graph(ceiling_order(by_mask)))
        else:
            covered = sorted(m for p in cover.mask_paths() for m in p)
            if covered != sorted(by_mask):
                raise ValueError("cover does not match the rule masks")
        for path in cover.mask_paths():
            chain = Chain()
            chain.tuples = [TupleTable(m) for m in path]
            chain._relink()
            self.chains.append(chain)
            for t in chain.tuples:
                self.registry[t.mask] = t
                for r in by_mask[t.mask]:
                    chain.insert_rule(t, r)
        # stable: chains with equal ceilings keep cover order
        self.chains.sort(key=_TOP, reverse=True)

    def all_rules(self) -> list[Rule]:
        return [e.rule for c in self.chains for t in c.tuples
                for e in t.table.values() if e.rule is not None]

    # -- lookup bounds -----------------------------------------------

    def probe_bound(self) -> int:
        """Per-lookup probe ceiling: sum of binary-search bounds."""
        return sum(len(c.tuples).bit_length() for c in self.chains)

    # -- updates -----------------------------------------------------

    def add(self, r: Rule) -> None:
        """Store r, which the caller has checked with ``check_rule``."""
        t = self.registry.get(r.mask)
        if t is None:
            t = self.place(r.mask)
        chain = t.chain
        top = chain.top
        chain.insert_rule(t, r)
        if chain.top > top:
            self._rise(chain)

    def place(self, mask: int) -> TupleTable:
        """Register a fresh, empty tuple of ``mask``, which holds none
        yet, spliced in where ``_pick_chain`` puts it; returns it."""
        t = TupleTable(mask)
        chain, at = self._pick_chain(mask)
        chain.insert_tuple(t, at)
        self.registry[mask] = t
        return t

    def _rise(self, chain: Chain) -> None:
        """Move chain, whose ceiling just rose, up past every chain with
        a lower ceiling: what a stable sort by ceiling would do, since
        only this chain is out of place.  A new chain rises here too,
        from the end of the list where ``_pick_chain`` put it."""
        chains = self.chains
        i = j = chains.index(chain)
        top = chain.top
        while j and chains[j - 1].top < top:
            j -= 1
        if j < i:
            del chains[i]
            chains.insert(j, chain)

    def discard(self, r: Rule) -> bool:
        """Remove r if it is stored; True on removal."""
        t = self.registry.get(r.mask)
        if t is None:
            return False
        chain = t.chain
        if not chain.delete_rule(t, r):
            return False
        if not t.table:
            self.drop_tail(chain)
        return True

    def drop_tail(self, chain: Chain) -> list[TupleTable]:
        """Unregister and return the tuples a removal emptied in chain,
        and drop the chain if none is left.  The emptied tuple is the
        tail, and the marker teardown may have emptied tuples below it
        too (see ``Chain.drop_empty_tail``); a tuple that keeps an entry
        keeps every tuple below it."""
        gone = chain.drop_empty_tail()
        for x in gone:
            del self.registry[x.mask]
        if not chain.tuples:
            self.chains.remove(chain)
        return gone

    def _pick_chain(self, mask: int) -> tuple[Chain, int]:
        """Where a fresh tuple of ``mask`` goes: the first chain in
        search order that can host it, with the position it takes
        there, else a new, empty chain at the end of the list."""
        for chain in self.chains:
            # mask is not registered, so it is not the tail's.  A chain
            # can host it only if it is comparable with the tail, and if
            # the tail is below it, so is every tuple: most chains are
            # settled here, without Chain.can_host's scan
            tuples = chain.tuples
            m = tuples[-1].mask
            if m & mask == m:
                return chain, len(tuples)
            if mask & m == mask:
                at = chain.can_host(mask)
                if at is not None:
                    return chain, at
        chain = Chain()
        self.chains.append(chain)
        return chain, 0

    # -- reporting ---------------------------------------------------

    def stats(self, key_width: int) -> StructureStats:
        """The set's counts, and its cost model at ``key_width`` bits
        per key."""
        key_bytes = (key_width + 7) // 8
        entry_total = 0
        owner_links = 0
        rule_count = 0
        for c in self.chains:
            for t in c.tuples:
                entry_total += len(t.table)
                for e in t.table.values():
                    owner_links += len(owners_of(e))
                    if e.rule is not None:
                        rule_count += 1
        tuple_count = sum(c.tuple_count for c in self.chains)
        # C-layout cost model, deliberately allocator-independent:
        # entry = key + rule/hint/marker pointers + owner-list head
        # + an 8-byte priority ceiling (``Entry.ceil``);
        # owner link = two pointers; rule = fields + mask + pri + id;
        # tuple = mask + table/chain/prev/fail/succ, plus the hash slots.
        # It prices every entry as a linked owner list whatever form its
        # ``owners`` slot takes (None, one Entry, or a list of two or
        # more), so it does not move when that form saves heap.
        mem = (entry_total * (key_bytes + 4 * _PTR + 8)
               + owner_links * 2 * _PTR
               + rule_count * (2 * key_bytes + 12)
               + tuple_count * (5 * _PTR + key_bytes)
               + entry_total * int(1.5 * _PTR))  # hash slots at 2/3 load
        return StructureStats(
            rule_count=rule_count,
            tuple_count=tuple_count,
            chain_count=len(self.chains),
            max_chain_tuples=max((c.tuple_count for c in self.chains),
                                 default=0),
            entry_total=entry_total,
            owner_link_total=owner_links,
            memory_bytes=mem,
        )

    def audit(self) -> list[str]:
        out = []
        for i, c in enumerate(self.chains):
            out.extend(f"chain {i}: {v}" for v in c.audit())
        if any(a.top < b.top for a, b in zip(self.chains, self.chains[1:])):
            out.append("chains out of ceiling order")
        for mask, t in self.registry.items():
            if t.mask != mask:
                out.append(f"registry mask {mask:#x} points at {t.mask:#x}")
            chain = t.chain
            if chain not in self.chains or t not in chain.tuples:
                out.append(f"registry entry {mask:#x} is stale")
        live = {t.mask for c in self.chains for t in c.tuples}
        for mask in live - self.registry.keys():
            out.append(f"tuple {mask:#x} not registered")
        for c in self.chains:
            out.extend(f"tuple {t.mask:#x} holds no entries"
                       for t in c.tuples if not t.table)
        return out


from .etc import TupleChainClassifier  # noqa: E402,F401
