"""One tuple: a mask plus a hash table of entries, with marker/hint upkeep.

Entries are shared mutable nodes: an entry may simultaneously hold a rule
of its own tuple and act as a marker for entries of the succeeding tuple.
``marker`` is a back-link to the entry's own marker in the preceding
tuple (at most one), ``owners`` holds the entries it is a marker for.
An entry's key lives only in its tuple's table, as the dict key: the
entry does not repeat it, so the helpers that walk a marker trail take
the key of the entry they start from and mask it down the trail.

``ceil`` is the entry's priority ceiling: an upper bound on the priority
of every rule stored deeper along marker trails through the entry (in
its owners, their owners, and so on), not counting its own rule.  A
lookup stops descending a chain at a hit whose ceiling is strictly
below the best priority found so far (see ``chain``).  Ceilings never
fall: a rule insert raises them along its marker trail, and a removal
writes none.

Most entries have no owner or exactly one, so ``owners`` takes one of
three forms, one per owner count: ``None`` for none, the owning
``Entry`` itself for one, and a list only for two or more.  ``add_owner``
and ``drop_owner`` move between the forms (dropping one of two owners
leaves the other as the bare ``Entry``), and ``owners_of`` reads any
form as a sequence.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from .model import MISS_PRIORITY, Rule

if TYPE_CHECKING:
    from .chain import Chain


class Entry:
    """A hash-table entry: optional rule, hint, owner links and the
    priority ceiling of the rules behind it.  Its key is the key it is
    stored under in its tuple's table, and nowhere else.

    ``owners`` is ``None`` (no owner), the one owning ``Entry``, or a
    list of two or more distinct owners; see ``owners_of``.  ``ceil``
    is at least each owner's rule priority and each owner's ``ceil``;
    a fresh entry starts at ``MISS_PRIORITY``.
    """

    __slots__ = ("rule", "hint", "owners", "marker", "ceil")

    def __init__(self):
        self.rule: Rule | None = None
        self.hint: Rule | None = None
        self.owners: Entry | list[Entry] | None = None
        self.marker: Entry | None = None
        self.ceil = MISS_PRIORITY

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"Entry(rule={self.rule}, hint={self.hint}, "
                f"ceil={self.ceil}, owners={len(owners_of(self))})")


def owners_of(e: Entry) -> Sequence[Entry]:
    """e's owners as a sequence, whichever form the slot holds."""
    own = e.owners
    if own is None:
        return ()
    if own.__class__ is Entry:
        return (own,)
    return own


def add_owner(k: Entry, o: Entry) -> None:
    """Record o as an owner of k."""
    own = k.owners
    if own is None:
        k.owners = o
    elif own.__class__ is Entry:
        k.owners = [own, o]
    else:
        own.append(o)


def drop_owner(k: Entry, o: Entry) -> None:
    """Remove o from k's owners; ValueError if it is not one."""
    own = k.owners
    if own is o:
        k.owners = None
    elif own.__class__ is list:
        own.remove(o)
        if len(own) == 1:
            k.owners = own[0]
    else:
        raise ValueError(f"{o!r} does not own {k!r}")


class TouchCounter:
    """Counts entries touched by marker and hint maintenance."""

    __slots__ = ("marker", "hint")

    def __init__(self):
        self.marker = 0
        self.hint = 0

    @property
    def total(self) -> int:
        return self.marker + self.hint


class TupleTable:
    """All rules sharing one mask, keyed by their masked field vectors.

    ``chain`` names the chain that holds the tuple, so a chain set's
    registry maps each mask to its tuple alone.  That chain links
    ``chain``, ``prev``, the less specific neighbour that marker trails
    walk, and ``fail``/``succ``, the tuple's children in the chain's
    search tree; a splice does no hint work.  A tuple keeps no rule
    count: ``Chain.rule_count`` counts entries that hold a rule.
    """

    __slots__ = ("mask", "table", "chain", "prev", "fail", "succ")

    def __init__(self, mask: int):
        self.mask = mask
        self.table: dict[int, Entry] = {}
        self.chain: Chain | None = None
        self.prev: TupleTable | None = None
        self.fail: TupleTable | None = None
        self.succ: TupleTable | None = None

    def probe(self, key: int) -> Entry | None:
        """One hash probe with the full (unmasked) packet key."""
        return self.table.get(key & self.mask)


def leave_marker(e: Entry, key: int, ceil: int, t: TupleTable | None,
                 counter: TouchCounter) -> Entry | None:
    """Find-or-create the marker, in the preceding tuple t, of e, which
    is stored under ``key`` and is about to take a rule of priority
    ``ceil``.

    A freshly created marker leaves its own marker further down, and so
    on until an existing entry or the chain head ends the trail.  e is
    recorded as an owner either way.  A fresh marker has only that
    rule behind it, so its ceiling is ``ceil``; the caller raises the
    existing entries' ceilings.  Returns an entry whose hint e's marker
    now holds: the existing entry that ended the trail, else e's marker
    (None if t is None).  Iterative, so chain length is not bounded by
    the interpreter's recursion limit.
    """
    if t is None:
        return None
    cur = e
    while True:
        key &= t.mask
        k = t.table.get(key)
        counter.marker += 1
        if k is not None:
            break
        k = t.table[key] = Entry()
        k.owners = cur   # a fresh marker: cur is its one owner
        k.ceil = ceil
        cur.marker = k
        cur, t = k, t.prev
        if t is None:
            # the trail reached the head: the new markers keep no hint
            return e.marker
    add_owner(k, cur)
    cur.marker = k
    # The markers made above hold no rule, so they inherit k's hint.
    m = e.marker
    while m is not k:
        m.hint = k.hint
        m = m.marker
    return k


def delete_marker(e: Entry, key: int, t: TupleTable | None,
                  counter: TouchCounter) -> None:
    """Drop e, stored under ``key``, from its marker's owners; erase
    markers left ownerless, walking down the trail until a marker is
    still in use.  Ceilings stay as they are."""
    k = e.marker
    while k is not None and t is not None:
        counter.marker += 1
        if k.owners is e:   # drop_owner's commonest case, inlined
            k.owners = None
        else:
            drop_owner(k, e)
        e.marker = None
        if k.rule is not None or k.owners is not None:
            return
        key &= t.mask
        del t.table[key]
        e, t = k, t.prev
        k = e.marker


def report_hint(e: Entry, counter: TouchCounter) -> None:
    """Propagate e's hint to its owners, and on from each owner whose
    hint changes.  One ``counter.hint`` per owner visited."""
    if e.owners is None:
        return
    touched = 0
    stack = [e]
    while stack:
        cur = stack.pop()
        h = cur.hint
        own = cur.owners
        for o in (own,) if own.__class__ is Entry else own:
            touched += 1
            # best_rule(o.rule, h), inlined
            r = o.rule
            if r is not None and (h is None or r.priority > h.priority or (
                    r.priority == h.priority and r.rule_id <= h.rule_id)):
                new = r
            else:
                new = h
            if new is not o.hint:
                o.hint = new
                if o.owners is not None:
                    stack.append(o)
    counter.hint += touched
