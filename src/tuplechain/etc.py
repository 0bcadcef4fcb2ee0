"""Extended scheme: chains merged into groups behind head tuples.

A group's head mask is the bitwise AND of all member masks, so a packet
that matches any rule of the group necessarily hits the head entry its
rules hashed into.  Each head entry fronts a bare ``ChainSet`` over the
rules colliding at that key; a head miss skips the whole group.  The
chain sets keep no rule ids and check nothing: ``EtcClassifier`` checks
each rule once, against its schema and its own id set, the only one.

A head that seldom misses filters little and mostly splits its group
into copies of one chain layout.  A build folds a planned group with a
``b``-bit head and ``n`` head entries into one group with head mask 0
and a single chain set when ``own <= 1 + (n / 2^b) * local``: ``own``
is the probe bound of a cover over the group's own masks, ``local`` the
largest bound behind one head entry (see ``_plan_and_fill``).  Head
mask 0 filters nothing, so its group's one entry is taken without a
probe; an ETC whose plans all fold searches exactly as tc does.  Head
mask 0 is contained in every mask, so while that group lives a fresh
mask that contains no wider head joins its chain set and opens no
group.

That group, ``EtcClassifier._flat`` when there is one, is the flat
group, and its masks have no route.  ``EtcClassifier._mask_to_group``
picks every update's path with one get.  A mask behind a nonzero head
maps to its route, ``[group, live rule count]``, which it holds while
it holds rules.  A mask of the flat group maps to its tuple in the flat
chain set, and stays flat while that set registers the tuple, markers
only or not.  So an update of a flat mask pays for no routing:
``check_rule``, the chain set's add or discard with the tuple already
in hand, the rule ids and the group's ceiling.  When the flat set's
last chain empties, the flat group goes, unless the class keeps it.

Each group keeps a priority ceiling, ``_Group.top``, at least the local
ceilings behind all its head entries.  ``groups`` runs in creation
order: a build keeps the order ``group_chains`` plans, and an insert
that opens a group appends it.  ``lookup`` is ``chain.group_lookup``:
one loop over one running best that skips any group
whose ceiling is strictly below that best, head probe included, and
behind a hit head entry walks the local chains with their chain and
entry ceiling cuts.  ``_Group`` and ``_HeadEntry`` live in ``chain``
beside that loop.  Which masks a headed group serves is recorded only
in its routes.  Probe counts depend on rule priorities.  Routing a
fresh mask breaks ties between groups by list position, which is
creation order.

``probe_bound`` computes the bound from the chains when it is asked:
one head probe per group with a nonzero head mask plus the largest
``local.probe_bound()`` behind it.  No insert or remove keeps a bound;
only ``bench`` and the tests ask for it.

The basic scheme, ``TupleChainClassifier`` (tc), is the ETC that opens
the flat group with the classifier, keeps it when its chain set empties
(``_keeps_flat``) and builds every rule into it: head mask 0 is
contained in every mask, so tc never holds a second group.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .chain import Chain, _Group, _HeadEntry, group_lookup
from .classifier import (_PTR, ChainSet, StructureStats, ceiling_order,
                         check_rule, check_rules, cover_bound)
from .graph import PathCover, build_graph, min_path_cover
from .model import FieldSchema, Rule, mask_less_than
from .tuple_store import TupleTable


@dataclass(frozen=True, slots=True)
class GroupPlan:
    head_mask: int
    member_masks: frozenset[int]


def group_chains(pc: PathCover, masks: list[int],
                 min_head_bits: int) -> list[GroupPlan]:
    """Greedily merge the cover's chains into head-tuple groups.

    Merge candidates are ranked by the number of tuple-graph edges
    crossing between the two groups (more crossing = "nearer"), ties by
    the popcount of the merged head mask; a merge is taken only while
    the merged head keeps at least ``min_head_bits`` bits.  Each pass
    takes the first best pair ``a < b`` in list order and merges b into
    a, which keeps a's place.

    Crossings are counted once per edge into a G x G matrix over the
    cover's G chains, and each group keeps its head mask, so a merge
    adds row and column b into a and ANDs the heads: O(E) to count,
    then O(G^2) per merge pass.  ``masks`` must be the graph's vertices.
    """
    if min_head_bits < 0:
        raise ValueError("min_head_bits must be >= 0")
    g = pc.graph
    if sorted(masks) != sorted(g.vertices):
        raise ValueError("masks do not match the cover's graph")
    chain_of = [0] * len(g.vertices)
    for c, path in enumerate(pc.paths):
        for i in path:
            chain_of[i] = c
    cross = [[0] * len(pc.paths) for _ in pc.paths]
    for i, outs in enumerate(g.adj):
        ci = chain_of[i]
        for j in outs:
            cj = chain_of[j]
            if ci != cj:
                cross[ci][cj] += 1
                cross[cj][ci] += 1
    members = [{g.vertices[i] for i in path} for path in pc.paths]
    heads = []
    for ms in members:
        h = ~0
        for m in ms:
            h &= m
        heads.append(h)

    while True:
        best = None
        for a, (ha, row) in enumerate(zip(heads, cross)):
            for b in range(a + 1, len(heads)):
                bits = (ha & heads[b]).bit_count()
                if bits < min_head_bits:
                    continue
                score = (row[b], bits)
                if best is None or score > best[0]:
                    best = (score, a, b)
        if best is None:
            break
        _, a, b = best
        row_a, row_b = cross[a], cross[b]
        for k, v in enumerate(row_b):
            row_a[k] += v
        for row in cross:
            row[a] += row[b]
            del row[b]
        row_a[a] = 0
        del cross[b]
        heads[a] &= heads[b]
        del heads[b]
        members[a] |= members[b]
        del members[b]
    return [GroupPlan(h, frozenset(ms)) for h, ms in zip(heads, members)]


class EtcClassifier:
    """Group-of-chains classifier with head-tuple filtering."""

    # True: the flat group opens with the classifier and stays when its
    # chain set empties, so every mask routes into it (tc)
    _keeps_flat = False

    def __init__(self, schema: FieldSchema, min_head_bits: int = 4):
        if min_head_bits < 0:
            raise ValueError("min_head_bits must be >= 0")
        self.schema = schema
        self.min_head_bits = min_head_bits
        # creation order, which routing breaks ties by
        self.groups: list[_Group] = []
        # the head-mask-0 group, if any, whose one entry is at key 0
        self._flat: _Group | None = None
        # mask -> [group, live rule count] while a mask behind a nonzero
        # head holds rules; mask -> its tuple while the flat chain set
        # registers one
        self._mask_to_group: dict[int, list | TupleTable] = {}
        self.rule_ids: set[int] = set()
        if self._keeps_flat:
            self._new_group(0)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @classmethod
    def build(cls, schema: FieldSchema, rules: list[Rule],
              min_head_bits: int = 4) -> "EtcClassifier":
        self = cls(schema, min_head_bits)
        self.rule_ids = check_rules(schema, rules)
        self._plan_and_fill(rules)
        return self

    def _plan_and_fill(self, rules: list[Rule]) -> None:
        """Plan groups over ``rules`` with ``group_chains``, append them
        to ``groups`` in plan order and fill them.  The rules are
        checked, in input order, and hold no route yet.

        A planned group with a ``b``-bit head mask and ``n`` head
        entries joins the one head-mask-0 group, placed where the first
        such plan was, when ``2^b * own <= 2^b + n * local``: folded, a
        lookup pays ``own``, the ``cover_bound`` over the group's
        masks; headed, one head probe plus ``local``, the largest
        ``cover_bound`` over one head entry's masks, on the ``n / 2^b``
        share of keys the head lets through.  Each bound takes the
        masks in ``ceiling_order``, as ``ChainSet.fill`` lays them out.
        Head mask 0 costs no probe.  A plan of two or more masks has
        ``own >= 2``, so with ``local <= own`` it passes only if
        ``2n >= 2^b``; the covers are computed only for a plan of one
        mask or a head at least half full, off big sparse heads."""
        masks = sorted({r.mask for r in rules})
        plans = group_chains(min_path_cover(build_graph(masks)), masks,
                             self.min_head_bits)
        # rules per group; fill and the fold rule take each mask set in
        # ceiling order, so the input order changes nothing
        slot = {m: i for i, plan in enumerate(plans)
                for m in plan.member_masks}
        by_group: list[list[Rule]] = [[] for _ in plans]
        for r in rules:
            by_group[slot[r.mask]].append(r)
        # (head mask, head key -> mask -> rules) per headed group, or (0, flat)
        layouts = []
        flat: dict[int, list[Rule]] = {}   # the head-mask-0 group's
        # cover_bound per mask tuple in ceiling order: head entries
        # often repeat one mask list, and the bound depends on the order
        covers: dict[tuple[int, ...], int] = {}

        def cover(by_mask: dict[int, list[Rule]]) -> int:
            masks = tuple(ceiling_order(by_mask))
            if masks not in covers:
                covers[masks] = cover_bound(masks)
            return covers[masks]

        for plan, members in zip(plans, by_group):
            own: dict[int, list[Rule]] = {}
            buckets: dict[int, dict[int, list[Rule]]] = {}
            for r in members:
                own.setdefault(r.mask, []).append(r)
                by_mask = buckets.setdefault(r.fields & plan.head_mask, {})
                by_mask.setdefault(r.mask, []).append(r)
            n, keys = len(buckets), 1 << plan.head_mask.bit_count()
            fold = (len(plan.member_masks) == 1 or 2 * n >= keys) and \
                keys * cover(own) \
                <= keys + n * max(map(cover, buckets.values()))
            if fold:
                if not flat:
                    layouts.append((0, flat))
                flat.update(own)
            else:
                layouts.append((plan.head_mask, buckets))
        for head_mask, buckets in layouts:
            grp = self._new_group(head_mask)
            if not head_mask:
                self._fill_flat(flat)
                continue
            for hkey, by_mask in buckets.items():
                for m, rs in by_mask.items():
                    self._mask_to_group.setdefault(m, [grp, 0])[1] += len(rs)
                he = grp.head[hkey] = _HeadEntry(ChainSet())
                he.local.fill(by_mask)
                grp.top = max(grp.top, he.chains[0].top)

    def _fill_flat(self, by_mask: dict[int, list[Rule]],
                   cover: PathCover | None = None) -> None:
        """``ChainSet.fill`` on the flat group's empty chain set; its
        tuples enter ``_mask_to_group``."""
        grp = self._flat
        local = grp.head[0].local
        local.fill(by_mask, cover)
        if local.chains:
            grp.top = local.chains[0].top
        self._mask_to_group.update(local.registry)

    def _new_group(self, head_mask: int) -> _Group:
        """Append a group; a head-mask-0 one is the flat group and gets
        its one entry, over an empty chain set."""
        grp = _Group(head_mask)
        if not head_mask:
            grp.head[0] = _HeadEntry(ChainSet())
            self._flat = grp
        self.groups.append(grp)
        return grp

    # -- lookup ------------------------------------------------------

    # bound with no wrapper (see chain.group_lookup)
    lookup = group_lookup

    def probe_bound(self) -> int:
        """One head probe per group with a nonzero head mask plus the
        worst local bound behind it."""
        return sum((grp.head_mask != 0)
                   + max((he.local.probe_bound() for he in grp.head.values()),
                         default=0)
                   for grp in self.groups)

    # -- updates -----------------------------------------------------

    def _route(self, mask: int) -> list | TupleTable:
        """Enter and return where a mask with no ``_mask_to_group`` entry
        goes: the group with the widest head contained in the mask, ties
        to the oldest, else a new group with the mask as its head.  A
        headed group gives a route, [group, 0 rules]; the flat group a
        fresh, empty tuple of the mask, placed in its chain set."""
        best = None
        for g in self.groups:
            if g.head_mask == mask or mask_less_than(g.head_mask, mask):
                if best is None or \
                        g.head_mask.bit_count() > best.head_mask.bit_count():
                    best = g
        if best is None:
            best = self._new_group(mask)
        if best.head_mask:
            route = self._mask_to_group[mask] = [best, 0]
        else:
            route = self._mask_to_group[mask] = \
                best.head[0].local.place(mask)
        return route

    def insert(self, r: Rule) -> None:
        check_rule(self.schema, r, self.rule_ids)
        route = self._mask_to_group.get(r.mask) or self._route(r.mask)
        if route.__class__ is list:
            grp = route[0]
            hkey = r.fields & grp.head_mask
            he = grp.head.get(hkey)
            if he is None:
                he = grp.head[hkey] = _HeadEntry(ChainSet())
            he.local.add(r)   # r passed check_rule above
            route[1] += 1
        else:
            # the flat set's tuple of r's mask: ChainSet.add's steps,
            # past the registry get
            grp = self._flat
            chain = route.chain
            top = chain.top
            chain.insert_rule(route, r)
            if chain.top > top:
                grp.head[0].local._rise(chain)
        self.rule_ids.add(r.rule_id)
        if r.priority > grp.top:
            grp.top = r.priority

    def remove(self, r: Rule) -> bool:
        route = self._mask_to_group.get(r.mask)
        if route is None:
            return False
        if route.__class__ is not list:
            # the flat set's tuple of r's mask: ChainSet.discard's
            # steps, past the registry get
            chain = route.chain
            if not chain.delete_rule(route, r):
                return False
            self.rule_ids.discard(r.rule_id)
            if not route.table:
                grp = self._flat
                local = grp.head[0].local
                for t in local.drop_tail(chain):
                    del self._mask_to_group[t.mask]
                if not local.chains and not self._keeps_flat:
                    self.groups.remove(grp)
                    self._flat = None
            return True
        grp = route[0]
        hkey = r.fields & grp.head_mask
        he = grp.head.get(hkey)
        if he is None:
            return False
        local = he.local
        if not local.discard(r):
            return False
        self.rule_ids.discard(r.rule_id)
        route[1] -= 1
        if not route[1]:
            del self._mask_to_group[r.mask]
        if not local.chains:
            del grp.head[hkey]
            if not grp.head:
                # every mask of the group has lost its route already
                self.groups.remove(grp)
        return True

    # -- auditing ----------------------------------------------------

    def audit(self) -> list[str]:
        flat = self._flat
        # the checks below find the flat set through the flat group
        want = [flat] if flat is not None else []
        if [g for g in self.groups if not g.head_mask] != want:
            return ["the flat group is not the one head-mask-0 group"]
        if self._keeps_flat and self.groups != want:
            return ["groups is not the flat group alone"]
        out = []
        rules = self.all_rules()
        stored = Counter(r.mask for r in rules)
        index = {grp: gi for gi, grp in enumerate(self.groups)}
        he = flat.head.get(0) if flat is not None else None
        registry = he.local.registry if he is not None else {}
        for m, route in self._mask_to_group.items():
            if route.__class__ is not list:
                if registry.get(m) is not route:
                    out.append(f"mask {m:#x}: tuple is not the flat set's")
                continue
            grp, n = route
            gi = index.get(grp)
            if m in registry:
                out.append(f"mask {m:#x}: in the flat set and routed too")
            if gi is None:
                out.append(f"mask {m:#x} routed to a dropped group")
            elif not grp.head_mask:
                out.append(f"mask {m:#x} routed to the flat group")
            elif not (grp.head_mask == m
                      or mask_less_than(grp.head_mask, m)):
                out.append(f"group {gi}: head mask not contained "
                           f"in member {m:#x}")
            if n != stored[m] or not n:
                out.append(f"mask {m:#x}: route counts {n} of "
                           f"{stored[m]} stored rules")
        for m in registry.keys() - self._mask_to_group.keys():
            out.append(f"flat mask {m:#x}: tuple not entered")
        for gi, grp in enumerate(self.groups):
            if not grp.head:
                out.append(f"group {gi}: holds no head entries")
            for hkey, he in grp.head.items():
                if hkey & grp.head_mask != hkey:
                    out.append(f"group {gi}: head key {hkey:#x} "
                               "not canonical")
                if he.chains is not he.local.chains:
                    out.append(f"group {gi}, head {hkey:#x}: chains are "
                               "not the local chain set's")
                if he.chains and he.chains[0].top > grp.top:
                    out.append(f"group {gi}, head {hkey:#x}: local "
                               f"ceiling above the group's {grp.top}")
                local = he.local.all_rules()
                if not local and not (grp is flat and self._keeps_flat):
                    out.append(f"group {gi}, head {hkey:#x}: holds no rules")
                for r in local:
                    if r.fields & grp.head_mask != hkey:
                        out.append(f"group {gi}: rule {r.rule_id} in "
                                   "wrong head entry")
                    route = self._mask_to_group.get(r.mask)
                    if grp is not flat and (route.__class__ is not list
                                            or route[0] is not grp):
                        out.append(f"group {gi}: rule {r.rule_id} mask "
                                   "routed to another group")
                out.extend(f"group {gi}, head {hkey:#x}: {v}"
                           for v in he.local.audit())
        if {r.rule_id for r in rules} != self.rule_ids:
            out.append("rule id set out of sync")
        elif len(rules) != len(self.rule_ids):
            out.append("rule id stored twice")
        return out

    def all_rules(self) -> list[Rule]:
        return [r for grp in self.groups for he in grp.head.values()
                for r in he.local.all_rules()]

    def stats(self) -> StructureStats:
        """Head tuples and entries plus the sums of the local stats."""
        width = self.schema.total_width
        key_bytes = (width + 7) // 8
        local = [he.local.stats(width) for grp in self.groups
                 for he in grp.head.values()]
        return StructureStats(
            rule_count=sum(st.rule_count for st in local),
            # head tuple header per group; key and two pointers per entry
            memory_bytes=len(self.groups) * (key_bytes + 4 * _PTR)
            + len(local) * (key_bytes + 2 * _PTR)
            + sum(st.memory_bytes for st in local),
            tuple_count=len(self.groups) + sum(st.tuple_count for st in local),
            chain_count=sum(st.chain_count for st in local),
            max_chain_tuples=max((st.max_chain_tuples for st in local),
                                 default=0),
            entry_total=len(local) + sum(st.entry_total for st in local),
            owner_link_total=sum(st.owner_link_total for st in local),
            group_count=len(self.groups))


class TupleChainClassifier(EtcClassifier):
    """The ETC whose one group is the flat group.  ``chains``,
    ``registry`` and ``stats()`` are its chain set's: no head, no group,
    so ``group_count`` is 0."""

    _keeps_flat = True

    group_count = 0   # as stats() reports

    def __init__(self, schema: FieldSchema):
        super().__init__(schema)   # no head width: only the flat group routes

    @classmethod
    def build(cls, schema: FieldSchema, rules: list[Rule],
              cover: PathCover | None = None) -> "TupleChainClassifier":
        """Every rule in the flat group, along ``cover`` if given."""
        self = cls(schema)
        self.rule_ids = check_rules(schema, rules)
        by_mask: dict[int, list[Rule]] = {}
        for r in rules:
            by_mask.setdefault(r.mask, []).append(r)
        self._fill_flat(by_mask, cover)
        return self

    # ETC's own functions, named in this class body because perfbench's
    # tracer wraps each class's build, lookup, insert and remove where
    # the class itself holds them
    lookup = group_lookup
    insert = EtcClassifier.insert
    remove = EtcClassifier.remove

    @property
    def chains(self) -> list[Chain]:
        return self._flat.head[0].local.chains

    @property
    def registry(self) -> dict[int, TupleTable]:
        return self._flat.head[0].local.registry

    def probe_bound_closed_form(self) -> float:
        m = sum(c.tuple_count for c in self.chains)
        l = len(self.chains)
        return l * (1 + math.log2(m / l)) if l else 0.0

    def stats(self) -> StructureStats:
        """The flat chain set's ``stats`` at the schema's key width."""
        return self._flat.head[0].local.stats(self.schema.total_width)
