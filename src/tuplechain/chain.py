"""A chain: a strictly ordered tuple sequence searched via a binary tree.

Chain order runs from the least specific mask (head, index 0) to the most
specific (tail).  A node's ``fail`` child covers the less specific side,
``succ`` the more specific side, so a probe hit descends succ and a miss
descends fail.  The tree is rebuilt whenever the tuple sequence changes;
tuple insert/delete is rare (triggered only by the first rule of a mask
or the removal of its last entry), so the O(m) rebuild is cheap.

The tree is miss-first.  Its height is ``H = 1 + floor(log2 m)``, the
height of a balanced tree over m tuples, so ``Chain.probe_bound()`` and
every bound built on it are those of the balanced tree.  Within that
height each subtree of height h over ``tuples[lo:hi]`` takes the least
specific root whose succ side still fits in height h - 1, i.e. index
``max(lo, hi - 2**(h-1))``.  Most keys miss most chains, and by the
marker law a key that misses a tuple misses every tuple after it, so
the all-miss path (the leftmost spine) is the common one; this shape
shortens it, to a single probe of the head tuple when m is a power of
two, while no path grows past H.

The tree's nodes are the chain's own tuples: ``TupleTable.fail`` and
``TupleTable.succ`` are the links, so a probe is
``node.table.get(key & node.mask)`` on the tuple itself.  Every relink
sets both links on every tuple, and a tuple leaving the chain has them
cleared, so no link outlives the splice that made it.

Chain order lives in ``Chain.tuples`` alone; a tuple links only back, by
``TupleTable.prev``, for marker trails, and to the chain holding it, by
``TupleTable.chain``, for the chain set's registry.  ``_relink`` and
``insert_tuple`` set ``chain`` where a tuple joins, and
``drop_empty_tail`` clears it with the other links.  ``insert_tuple``
splices a fresh tuple in at the position ``can_host`` found, in one
pass over the successor's entries: each re-anchors on a fresh or shared
marker in the new tuple, keyed by its own key under the new mask, and
that marker links on to the predecessor entry the successor entry
marked before and takes its hint.  So a splice walks no marker trail, removes no owner
from a list and does no hint work.

Each chain keeps a priority ceiling, ``Chain.top``: an upper bound on the
priority of every rule it holds.  ``insert_rule`` raises it; a delete
leaves it alone, which only makes the bound looser, and a fresh build
makes it exact.  ``Chain`` has slots, so the ``top`` and ``root`` that
the lookup loop reads off every chain it visits cost no more than a
pair unpack.

Each entry keeps one too, ``Entry.ceil``: an upper bound on the priority
of every rule stored deeper along marker trails through it.  Like
``top``, ceilings never fall.  ``insert_rule`` gives the fresh
markers of a new rule's trail its priority and raises the rest of the
trail while a ceiling is below it, a splice gives each fresh marker
the largest rule priority and ceiling among its owners, and no removal
writes one.

``group_lookup`` is the one lookup loop: ``EtcClassifier`` and its
subclass ``TupleChainClassifier`` bind it as their ``lookup``.  It
walks ``self.groups``, a list of ``_Group``s, over one running best.  It
skips a group whose ceiling is strictly below the best priority found
so far, probes the group's head tuple unless its head mask is 0, which
filters nothing, and behind the head entry the key hits takes that
entry's chains, highest ceiling first.  It walks each chain's tree
inline from ``Chain.root`` and merges each hit's hint into the running
best the moment it finds the hit.  It stops at the first chain whose
ceiling is strictly below the best priority so far: no rule there can
win.  Inside a chain it stops descending at a hit whose ``ceil`` is
strictly below that floor, which already counts the hit's own hint, so
a hit that outranks every rule deeper on its trail ends its chain.  By
the hint law a deeper hit's hint dominates a shallower one's, so the
best is the one a merge after the walk would give, found with no more
probes.  The cuts are strict because ``best_rule`` breaks priority ties
by rule id, so a rule whose priority equals the floor may still win.
Probe counts therefore depend on the rule priorities, not only on the
masks.  tc's one group has head mask 0, so its lookup costs no head
probe.  ``Chain.lookup`` walks a chain alone the same way, behind a
head-mask-0 group of its own.  The loop builds its ``MatchResult`` in
one place, with ``object.__new__`` and two slot stores, which skips
the dataclass ``__init__`` call: about 60 ns, some 5% of ETC's lookup
on acl-wide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import MISS_PRIORITY, MatchResult, Rule, best_rule, mask_less_than
from .tuple_store import (Entry, TouchCounter, TupleTable, add_owner,
                          delete_marker, leave_marker, owners_of,
                          report_hint)

if TYPE_CHECKING:
    from .classifier import ChainSet

# a result without MatchResult.__init__'s call: see group_lookup
_new = object.__new__


class ChainError(ValueError):
    """Misuse of a chain operation (bad position, non-empty tuple, ...)."""


class DuplicateRuleError(ValueError):
    """A rule with the same fields and mask is already stored."""


def _build_tree(tuples: list[TupleTable], lo: int, hi: int,
                h: int) -> TupleTable:
    """Link ``tuples[lo:hi]``, which must be non-empty and hold fewer than
    ``2**h`` tuples, into a miss-first tree of height at most ``h``.

    The root is the least specific tuple whose succ side still fits in
    height ``h - 1``; the fail side then holds fewer than ``2**(h-1)``
    tuples and fits too.  Every tuple in the range has both links set.
    """
    # Plain compares, and no calls on empty ranges or on leaves: every
    # tuple that arrives or leaves rebuilds its chain's tree, and ETC's
    # local chains are mostly a few tuples long.
    r = hi - (1 << (h - 1))
    if r < lo:
        r = lo
    node = tuples[r]
    if r - lo > 1:
        node.fail = _build_tree(tuples, lo, r, h - 1)
    elif lo < r:
        leaf = node.fail = tuples[lo]
        leaf.fail = leaf.succ = None
    else:
        node.fail = None
    if hi - r > 2:
        node.succ = _build_tree(tuples, r + 1, hi, h - 1)
    elif r + 1 < hi:
        leaf = node.succ = tuples[r + 1]
        leaf.fail = leaf.succ = None
    else:
        node.succ = None
    return node


class _HeadEntry:
    """One head-tuple entry, kept only under its key in ``_Group.head``.
    ``chains`` is ``local.chains`` itself, the local chain set's chain
    list in its search order, which that set reorders in place; a
    lookup walks it directly."""

    __slots__ = ("local", "chains")

    def __init__(self, local: ChainSet):
        self.local = local
        self.chains = local.chains


class _Group:
    """A head mask and its entries.  ``top`` bounds the priority of
    every rule behind the head."""

    __slots__ = ("head_mask", "head", "top")

    def __init__(self, head_mask: int):
        self.head_mask = head_mask
        self.head: dict[int, _HeadEntry] = {}
        self.top = MISS_PRIORITY


def group_lookup(self, key: int) -> MatchResult:
    """Best rule for ``key`` over ``self.groups`` and the probes spent:
    the ``lookup`` of tc and ETC alike (see the module docstring)."""
    best = None
    floor = MISS_PRIORITY
    probes = 0
    for grp in self.groups:
        if grp.top < floor:
            continue
        hm = grp.head_mask
        if hm:
            probes += 1   # the head probe; mask 0 filters nothing
        he = grp.head.get(key & hm)
        if he is None:
            continue
        for c in he.chains:
            if c.top < floor:
                break
            node = c.root
            while node is not None:
                e = node.table.get(key & node.mask)
                probes += 1
                if e is None:
                    node = node.fail
                    continue
                # Each hit is deeper than the last, and its marker trail
                # runs through every shallower hit, so by the hint law
                # its hint dominates theirs.  Merged here, it raises the
                # floor the cut below reads.  A bare marker may carry no
                # hint.  best_rule, inlined: ties go to the smaller id.
                h = e.hint
                if h is not None:
                    p = h.priority
                    if p > floor or best is None or (
                            p == floor and h.rule_id < best.rule_id):
                        best = h
                        floor = p
                if e.ceil < floor:
                    break   # nothing deeper can beat the floor
                node = node.succ
    res = _new(MatchResult)
    res.rule = best
    res.probes = probes
    return res


class _Solo:
    """A chain alone, behind one head-mask-0 group for ``group_lookup``."""

    __slots__ = ("chains", "groups")

    def __init__(self, chain: Chain):
        self.chains = [chain]
        grp = _Group(0)
        grp.head[0] = _HeadEntry(self)
        grp.top = chain.top
        self.groups = [grp]


class Chain:
    """One tuple chain with its search tree and maintenance counters."""

    __slots__ = ("tuples", "root", "top", "touches")

    def __init__(self):
        self.tuples: list[TupleTable] = []
        self.root: TupleTable | None = None
        # priority ceiling: no rule held ranks above it
        self.top = MISS_PRIORITY
        self.touches = TouchCounter()

    @property
    def tuple_count(self) -> int:
        return len(self.tuples)

    @property
    def rule_count(self) -> int:
        """Entries that hold a rule, counted when asked: no tuple keeps
        a count."""
        return sum(e.rule is not None for t in self.tuples
                   for e in t.table.values())

    # -- structure ---------------------------------------------------

    def _relink(self):
        prev = None
        for t in self.tuples:
            t.chain = self
            t.prev = prev
            prev = t
        self.root = (_build_tree(self.tuples, 0, len(self.tuples),
                                 self.probe_bound())
                     if self.tuples else None)

    def can_host(self, mask: int) -> int | None:
        """The unique position keeping the chain strictly ordered, if any."""
        # mask_less_than inlined
        for j, t in enumerate(self.tuples):
            m = t.mask
            if m & mask != m or m == mask:
                # t is not below mask, so mask must go strictly below t
                return j if mask & m == mask and mask != m else None
        return len(self.tuples)

    def insert_tuple(self, t: TupleTable, at: int | None) -> None:
        """Splice the empty tuple t in at ``at``, the position
        ``can_host`` gives for its mask, and re-anchor the successor's
        entries on markers in t.

        The successor's entries all own markers in t's predecessor p
        (none if t goes in at the head), and those owners are all that
        p's entries own.  So p's owner links are cleared, and each
        successor entry e, stored under key, owns the marker at
        ``key & t.mask`` in t: a fresh one links on to e's old marker k,
        becomes k's owner and takes k's hint, since it holds no rule; so
        no owner's hint changes.  A marker's ``ceil`` is the largest of
        its owners' rule priorities and ceilings; k's already bounds
        them.  ``touches.marker`` counts one per marker link written:
        one per successor entry, plus one per fresh marker when p exists.
        """
        if t.table:
            raise ChainError("inserted tuple must be empty")
        tuples = self.tuples
        mask = t.mask
        n = len(tuples)
        # mask_less_than inlined, both sides
        if at is None or not 0 <= at <= n or (
                at and ((lo := tuples[at - 1].mask) & mask != lo
                        or lo == mask)) or (
                at < n and ((hi := tuples[at].mask) & mask != mask
                            or hi == mask)):
            raise ChainError(f"mask {mask:#x} breaks chain order at {at}")
        tuples.insert(at, t)
        t.chain = self
        # only t and its successor change predecessor
        p = t.prev = tuples[at - 1] if at else None
        self.root = _build_tree(tuples, 0, n + 1, (n + 1).bit_length())
        if at == n:
            return
        tuples[at + 1].prev = t
        if p is not None:
            for k in p.table.values():
                k.owners = None
        table = t.table
        succ = tuples[at + 1].table
        # setdefault with a spare entry: one dict operation per
        # successor entry, whether its marker is fresh or shared
        spare = Entry()
        for key, e in succ.items():
            r = e.rule
            c = e.ceil
            if r is not None and r.priority > c:
                c = r.priority
            m = table.setdefault(key & mask, spare)
            if m is spare:
                spare = Entry()
                m.owners = e   # a fresh marker: e is its first owner
                m.ceil = c
                k = m.marker = e.marker
                if k is not None:
                    m.hint = k.hint
                    # add_owner(k, m), inlined
                    own = k.owners
                    if own is None:
                        k.owners = m
                    elif own.__class__ is Entry:
                        k.owners = [own, m]
                    else:
                        own.append(m)
            else:
                add_owner(m, e)
                if c > m.ceil:
                    m.ceil = c
            e.marker = m
        self.touches.marker += len(succ) + (len(table) if p is not None
                                            else 0)

    def drop_empty_tail(self) -> list[TupleTable]:
        """Drop the run of empty tuples at the tail, and return them.

        Only the tail can empty: every entry of a successor keeps a
        marker in its predecessor.  So a rule removal that empties
        tuples empties the tail and a run of tuples below it, whose
        marker trail it tore down; the rest keep their ``prev`` links,
        and the tree is rebuilt once.
        """
        tuples = self.tuples
        j = len(tuples)
        while j and not tuples[j - 1].table:
            j -= 1
        gone = tuples[j:]
        del tuples[j:]
        for t in gone:
            t.chain = t.prev = t.fail = t.succ = None
        self.root = _build_tree(tuples, 0, j, j.bit_length()) if j else None
        return gone

    # -- lookup ------------------------------------------------------

    def lookup(self, key: int) -> tuple[Rule | None, int]:
        """Search this chain's tree alone with ``group_lookup``; returns
        (best rule, probes)."""
        res = group_lookup(_Solo(self), key)
        return res.rule, res.probes

    # -- rule updates ------------------------------------------------

    def insert_rule(self, t: TupleTable, r: Rule) -> None:
        """Store r in t, this chain's tuple of r's mask: the one
        rule-store step, for updates and builds alike.

        A fresh entry walks its marker trail with ``leave_marker`` (one
        ``touches.marker`` per probe), raises the trail's ceilings to
        r's priority and takes the hint of the first existing entry the
        trail found.  An entry that already marks entries of the next
        tuple reports its new hint to them (``touches.hint``).  A build
        stores each chain's rules head tuple first: while a tuple fills,
        its successors are still empty, so no entry of it is a marker, a
        rule's key is new unless a rule holds it, and its fresh entry has
        no owners to report its hint to.
        """
        if r.mask != t.mask:
            raise ChainError("rule mask does not match tuple mask")
        key = r.fields
        p = r.priority
        e = t.table.get(key)
        if e is None:
            # a fresh entry: its marker holds the hint of the entry
            # leave_marker returns, and it has no owners to report to
            e = t.table[key] = Entry()
            k = leave_marker(e, key, p, t.prev, self.touches)
        elif e.rule is not None:
            raise DuplicateRuleError(
                f"entry {key:#x} already holds rule {e.rule.rule_id}")
        else:
            k = e.marker
        e.rule = r
        if p > self.top:
            self.top = p
        # r now lies behind every entry of its marker trail.  Fresh
        # markers took p from leave_marker; raise the rest from k up to
        # the first that already bounds p, since every ceiling below it
        # bounds it too
        m = k
        while m is not None and m.ceil < p:
            m.ceil = p
            m = m.marker
        # best_rule(r, below), inlined
        below = k.hint if k is not None else None
        e.hint = r if below is None or p > below.priority or (
            p == below.priority and r.rule_id <= below.rule_id) else below
        if e.owners is not None:
            report_hint(e, self.touches)

    def delete_rule(self, t: TupleTable, r: Rule) -> bool:
        """Remove r if present; True on deletion.  The caller is
        responsible for dropping the tuple when its table empties."""
        key = r.fields
        e = t.table.get(key)
        # the stored rule is almost always r itself: skip the field-wise
        # dataclass compare then
        if e is None or (e.rule is not r and e.rule != r):
            return False
        if e.owners is None:
            delete_marker(e, key, t.prev, self.touches)
            del t.table[key]
        else:
            k = e.marker
            e.hint = k.hint if k is not None else None
            e.rule = None
            report_hint(e, self.touches)
        return True

    # -- auditing ----------------------------------------------------

    def probe_bound(self) -> int:
        """Tree height: ``1 + floor(log2 m)`` for m tuples, 0 when empty."""
        return len(self.tuples).bit_length()

    def audit(self) -> list[str]:
        """Structural invariant check; returns violations (empty = clean)."""
        out: list[str] = []
        for a, b in zip(self.tuples, self.tuples[1:]):
            if not mask_less_than(a.mask, b.mask):
                out.append(f"chain order broken: {a.mask:#x} !< {b.mask:#x}")
        # chain and prev links and tree in-order must agree with the
        # sequence.
        for i, t in enumerate(self.tuples):
            if t.chain is not self:
                out.append(f"tuple {t.mask:#x} names another chain")
            if t.prev is not (self.tuples[i - 1] if i > 0 else None):
                out.append(f"prev link wrong at position {i}")
        # Iterative in-order walk that also takes the height.  A node met
        # is on the stack or in ``inorder``; meeting more nodes than there
        # are tuples means a cycle or a stray link, and ends the walk.
        n = len(self.tuples)
        inorder: list[TupleTable] = []
        stack: list[tuple[TupleTable, int]] = []
        node, depth, height = self.root, 1, 0
        while (node is not None or stack) and len(stack) + len(inorder) <= n:
            if node is not None:
                height = max(height, depth)
                stack.append((node, depth))
                node, depth = node.fail, depth + 1
            else:
                node, depth = stack.pop()
                inorder.append(node)
                node, depth = node.succ, depth + 1
        if len(stack) + len(inorder) > n:
            out.append(f"tree meets more than its {n} tuples: a cycle or "
                       "a stray link")
        else:
            if inorder != self.tuples:   # tuples compare by identity
                out.append("tree in-order disagrees with chain order")
            if height > self.probe_bound():
                out.append(f"tree height {height} exceeds probe bound "
                           f"{self.probe_bound()}")

        entry_total = 0
        rule_total = 0
        owner_links = 0
        for t, nxt in zip(self.tuples, self.tuples[1:] + [None]):
            # an entry keeps no key: its owners are found by identity
            in_next = {id(o) for o in nxt.table.values()} if nxt else set()
            for key, e in t.table.items():
                entry_total += 1
                if key & t.mask != key:
                    out.append(f"entry key {key:#x} not canonical in "
                               f"tuple {t.mask:#x}")
                owners = owners_of(e)
                owner_links += len(owners)
                # one form per owner count: a list holds two or more
                if owners.__class__ is list:
                    if len(owners) < 2:
                        out.append(f"owner list of {key:#x} in tuple "
                                   f"{t.mask:#x} holds {len(owners)}")
                    if len(set(owners)) < len(owners):
                        out.append(f"owner list of {key:#x} in tuple "
                                   f"{t.mask:#x} repeats an entry")
                if e.rule is None and not owners:
                    out.append(f"dead entry {key:#x} in tuple {t.mask:#x}")
                if e.rule is not None:
                    rule_total += 1
                    if e.rule.mask != t.mask or e.rule.fields != key:
                        out.append(f"rule {e.rule.rule_id} misfiled")
                    if e.rule.priority > self.top:
                        out.append(f"ceiling {self.top} below rule "
                                   f"{e.rule.rule_id}")
                if t.prev is not None:
                    k = e.marker
                    if k is None:
                        out.append(f"entry {key:#x} lacks a marker")
                    else:
                        if t.prev.table.get(key & t.prev.mask) is not k:
                            out.append(f"marker key law broken at {key:#x}")
                        if e not in owners_of(k):
                            out.append(f"owner symmetry broken at {key:#x}")
                elif e.marker is not None:
                    out.append(f"head entry {key:#x} has a marker")
                want = best_rule(e.rule,
                                 e.marker.hint if e.marker else None)
                if e.hint != want:
                    out.append(f"hint law broken at {key:#x} in tuple "
                               f"{t.mask:#x}")
                for o in owners:
                    if o.marker is not e:
                        out.append(f"owner back-link broken at {key:#x}")
                    if id(o) not in in_next:
                        out.append(f"an owner of {key:#x} is not in the "
                                   "next tuple")
                    if e.ceil < o.ceil or (o.rule is not None
                                           and e.ceil < o.rule.priority):
                        out.append(f"ceiling {e.ceil} of {key:#x} in tuple "
                                   f"{t.mask:#x} below an owner's")
        if rule_total and entry_total > rule_total * len(self.tuples):
            out.append(f"entry total {entry_total} exceeds space bound "
                       f"{rule_total * len(self.tuples)}")
        if rule_total == 0 and entry_total:
            out.append("entries present in a rule-free chain")
        if owner_links > entry_total:
            out.append("owner links exceed entry count")
        return out
