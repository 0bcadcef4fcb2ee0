"""Reference walks for the pruned searches of tc and ETC.

Each chain's tree is walked on its own, highest priority ceiling first,
and skipped once its ceiling is strictly below the best rule found so
far.  Inside a chain the walk merges each hit's hint into the best the
moment it finds the hit, then stops descending if that hit's
``Entry.ceil`` is strictly below the best's priority.  ETC groups are
walked in list (creation) order with the same chain skip.  Every walk
also returns what the search would cost with no cut at all, which
pruning may only lower.

``once=True`` selects the older walk, kept as a second reference: it
stops at a hit whose ceiling is below the floor the chain started
with, and merges only the deepest hit's hint, once per chain.  Merging
at each hit only raises the floor sooner, so it never probes more and
returns the same rule.
"""

from tuplechain.model import MISS_PRIORITY, best_rule


def tree_walk(chain, key, best=None):
    """(best, probes) for ``key`` in ``chain``'s tree from ``best``,
    merging each hit's hint where it is found and stopping at a hit
    whose ceiling is below the best's priority."""
    node, probes = chain.root, 0
    while node is not None:
        e = node.table.get(key & node.mask)
        probes += 1
        if e is None:
            node = node.fail
        else:
            best = best_rule(best, e.hint)
            floor = best.priority if best is not None else MISS_PRIORITY
            node = None if e.ceil < floor else node.succ
    return best, probes


def once_walk(chain, key, floor=MISS_PRIORITY):
    """(deepest hit entry, probes) for ``key`` in ``chain``'s tree,
    stopping at a hit whose ceiling is below ``floor``; no entry cut at
    ``MISS_PRIORITY``."""
    node, hit, probes = chain.root, None, 0
    while node is not None:
        e = node.table.get(key & node.mask)
        probes += 1
        if e is None:
            node = node.fail
        else:
            hit = e
            node = None if e.ceil < floor else node.succ
    return hit, probes


def ceiling_walk(chains, key, best=None, once=False):
    """(best, probes, unpruned probes) over ``chains``, starting from
    ``best``."""
    probes = full = 0
    for chain in sorted(chains, key=lambda c: c.top, reverse=True):
        full += once_walk(chain, key)[1]
        floor = best.priority if best is not None else MISS_PRIORITY
        if chain.top < floor:
            continue
        if once:
            hit, p = once_walk(chain, key, floor)
            if hit is not None:
                best = best_rule(best, hit.hint)
        else:
            best, p = tree_walk(chain, key, best)
        probes += p
    return best, probes, full


def etc_walk(c, key, once=False):
    """The same for an ETC classifier: one head probe per group not
    cut, none for head mask 0, then its local chains behind the head
    entry the key hits."""
    best = None
    probes = full = 0
    for g in c.groups:
        he = g.head.get(key & g.head_mask)
        chains = he.local.chains if he is not None else []
        head = 1 if g.head_mask else 0
        full += head + sum(once_walk(ch, key)[1] for ch in chains)
        if best is None or g.top >= best.priority:
            best, p, _ = ceiling_walk(chains, key, best, once)
            probes += head + p
    return best, probes, full
